//! A std-`HashMap` reference implementation of the DP table, preserved from the pre-arena
//! design so `reproduce --experiment table` can quantify what the arena re-architecture buys.
//!
//! This handler deliberately reproduces the costs the production table was rebuilt to avoid:
//!
//! * memoization through `HashMap<NodeSet, RefPlanClass>` (SipHash per probe, bucket storage),
//!   probed for both inputs of every pair (production reads them through the slots the
//!   enumerator hands back, and indexes small graphs by mask),
//! * a freshly allocated `Vec<EdgeId>` connecting-edge list per emitted pair,
//! * cloned plan classes (the `Vec`-carrying `RefPlanClass` is not `Copy`),
//! * cost-model calls through `&dyn CostModel`.
//!
//! It is driven by the *same* DPhyp enumerator through the same [`CcpHandler`] trait. The
//! reference collects its edges with the same incidence-bitset kernel as production
//! ([`Hypergraph::connecting_edges`]), so a faster kernel speeds up both sides; it keeps the
//! per-pair `Vec` and the owned predicate list per class, which production does without.
//!
//! It also has no cost floor: it costs every pair, where production counts a pair that could
//! not beat its union's best plan without costing it. A timing difference against
//! [`dphyp::Optimizer`] is therefore the memo structure alone only where the floor skips
//! nothing; elsewhere it includes the skipped work (39% of the pairs of the chain-20 and 73% of
//! the star-20 that `reproduce --experiment table` times, most of a clique's). The
//! results (cost, ccp count, table size) must agree exactly —
//! `reproduce --experiment table` asserts that, and the tests below also compare every
//! class's cardinality and best-join sides.
//!
//! The test-only `greedy` module keeps the rescanning greedy operator ordering that
//! [`qo_baselines::goo`] replaced with an incremental one, and requires the two to agree.

use qo_bitset::{NodeId, NodeSet};
use qo_catalog::{CardinalityEstimator, Catalog, CcpHandler, CostModel, EmitSignal, SubPlanStats};
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::JoinOp;
use std::collections::HashMap;

/// Plan class of the reference table; owns its predicate list like the pre-arena design did.
#[derive(Clone, Debug)]
pub struct RefPlanClass {
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Cost of the best plan found.
    pub cost: f64,
    /// Left input, right input, operator and predicates of the best plan's root join; `None`
    /// for a base relation.
    pub best_join: Option<(NodeSet, NodeSet, JoinOp, Vec<EdgeId>)>,
}

/// `EmitCsgCmp` over a std-`HashMap` table with per-pair allocations and dynamic dispatch.
pub struct HashMapReferenceHandler<'a> {
    graph: &'a Hypergraph,
    catalog: &'a Catalog,
    cost_model: &'a dyn CostModel,
    classes: HashMap<NodeSet, RefPlanClass>,
    ccps: usize,
}

impl<'a> HashMapReferenceHandler<'a> {
    /// Creates a reference handler.
    pub fn new(graph: &'a Hypergraph, catalog: &'a Catalog, cost_model: &'a dyn CostModel) -> Self {
        HashMapReferenceHandler {
            graph,
            catalog,
            cost_model,
            classes: HashMap::new(),
            ccps: 0,
        }
    }

    /// Number of memoized classes.
    pub fn dp_entries(&self) -> usize {
        self.classes.len()
    }

    /// The class covering `set`, if present.
    pub fn class(&self, set: NodeSet) -> Option<&RefPlanClass> {
        self.classes.get(&set)
    }

    /// Simplified `EmitCsgCmp` for inner-join workloads (the table-comparison benchmarks use
    /// plain chain/star queries): commutative orientations, no TES or lateral handling — the
    /// memo-structure work per pair is what the comparison isolates.
    fn combine_and_offer(&mut self, s1: NodeSet, s2: NodeSet) {
        let edges = self.graph.connecting_edges(s1, s2); // fresh Vec per pair, as before
        if edges.is_empty() {
            return;
        }
        let selectivity = self.catalog.selectivity_product(&edges);
        let (a, b) = (
            self.classes.get(&s1).expect("csg class exists").clone(),
            self.classes.get(&s2).expect("cmp class exists").clone(),
        );
        let union = s1 | s2;
        let cardinality = CardinalityEstimator::<1>::join_with_selectivity(
            JoinOp::Inner,
            a.cardinality,
            b.cardinality,
            selectivity,
        );
        let mut best: Option<RefPlanClass> = None;
        for (outer_set, outer, inner_set, inner) in [(s1, &a, s2, &b), (s2, &b, s1, &a)] {
            let outer_stats = SubPlanStats {
                set: outer_set,
                cardinality: outer.cardinality,
                cost: outer.cost,
            };
            let inner_stats = SubPlanStats {
                set: inner_set,
                cardinality: inner.cardinality,
                cost: inner.cost,
            };
            let cost =
                self.cost_model
                    .join_cost(JoinOp::Inner, &outer_stats, &inner_stats, cardinality);
            let candidate = RefPlanClass {
                cardinality,
                cost,
                best_join: Some((outer_set, inner_set, JoinOp::Inner, edges.clone())),
            };
            match &best {
                Some(b) if b.cost <= candidate.cost => {}
                _ => best = Some(candidate),
            }
        }
        let candidate = best.expect("at least one orientation");
        match self.classes.get_mut(&union) {
            Some(existing) => {
                if candidate.cost < existing.cost {
                    *existing = candidate;
                }
            }
            None => {
                self.classes.insert(union, candidate);
            }
        }
    }
}

impl CcpHandler for HashMapReferenceHandler<'_> {
    /// The reference keeps no arena; it re-probes its map for both inputs of every pair.
    type Slot = ();

    fn init_leaf(&mut self, relation: NodeId) {
        self.classes.insert(
            NodeSet::single(relation),
            RefPlanClass {
                cardinality: self.catalog.cardinality(relation),
                cost: 0.0,
                best_join: None,
            },
        );
    }

    fn slot(&self, set: NodeSet) -> Option<()> {
        self.classes.contains_key(&set).then_some(())
    }

    fn emit_ccp(&mut self, s1: NodeSet, _: (), s2: NodeSet, _: ()) -> EmitSignal {
        self.ccps += 1;
        self.combine_and_offer(s1, s2);
        EmitSignal::Continue
    }

    fn ccp_count(&self) -> usize {
        self.ccps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphyp::enumerate::DpHyp;
    use qo_catalog::{
        CostBasedHandler, CoutCost, DpTable, EdgeAnnotation, JoinCombiner, MixedCost,
    };
    use qo_workloads::{chain_query, clique_query, corpus_query, cycle_query, star_query};

    /// Runs `graph` through the reference and through production under `model` and requires
    /// the same ccp count and table size, and for every class the same cost and cardinality
    /// bits and best-join sides; returns production's table.
    fn assert_matches_the_reference(
        graph: &Hypergraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        at: &str,
    ) -> DpTable {
        let mut reference = HashMapReferenceHandler::new(graph, catalog, model);
        let _ = DpHyp::new(graph, &mut reference).run();
        let mut production = CostBasedHandler::new(JoinCombiner::new(graph, catalog, model));
        let _ = DpHyp::new(graph, &mut production).run();
        assert_eq!(production.ccp_count(), reference.ccp_count(), "{at}");
        let table = production.into_table();
        assert_eq!(table.len(), reference.dp_entries(), "{at}");
        for class in table.classes() {
            let expected = reference.class(class.set).expect("same classes");
            assert_eq!(
                (class.cost.to_bits(), class.cardinality.to_bits()),
                (expected.cost.to_bits(), expected.cardinality.to_bits()),
                "{at}: {:?}",
                class.set
            );
            assert_eq!(
                class.best_join.map(|j| (j.left, j.right)),
                expected.best_join.as_ref().map(|j| (j.0, j.1)),
                "{at}: {:?}",
                class.set
            );
        }
        table
    }

    #[test]
    fn the_cost_floor_leaves_every_class_as_the_reference_builds_it() {
        // The reference costs every pair; production skips the pairs whose floor (inputs' cost
        // plus, where every split shares it, the union's cardinality) already reaches their
        // union's best plan.
        let mut workloads = vec![chain_query(20, 11)];
        workloads.extend((6..=12).map(|n| clique_query(n, 11)));
        workloads.extend((8..=13).map(|n| cycle_query(n, 11)));
        workloads.extend((6..=11).map(|satellites| star_query(satellites, 11)));
        let models: [&dyn CostModel; 2] = [&CoutCost, &MixedCost];
        for w in &workloads {
            for model in models {
                let at = format!("{} relations, {}", w.graph.node_count(), model.name());
                assert_matches_the_reference(&w.graph, &w.catalog, model, &at);
            }
        }

        // Statistics at the edges of f64, where the cardinality floor's guard decides. Zero-row
        // and sub-unit relations keep the floor on; products that saturate at `f64::MAX` or
        // underflow turn it off.
        for w in [
            chain_query(12, 5),
            cycle_query(10, 5),
            star_query(8, 5),
            clique_query(8, 5),
        ] {
            let g = &w.graph;
            let card = |r| w.catalog.cardinality(r);
            let sel = |e| w.catalog.edge_annotation(e).selectivity;
            let statistics = [
                (
                    "zero-row",
                    restated(g, |r| if r % 3 == 1 { 0.0 } else { card(r) }, sel),
                ),
                (
                    "cardinalities near 1e300",
                    restated(
                        g,
                        |r| 1e300 * (1.0 + r as f64 / 16.0),
                        |e| 1.0 / (1 + e % 3) as f64,
                    ),
                ),
                (
                    "selectivities near 1e-300",
                    restated(g, card, |e| 1e-300 * (1.0 + e as f64 / 8.0)),
                ),
                (
                    "sub-unit cardinalities",
                    restated(g, |r| 1.0 / (2 + r) as f64, sel),
                ),
            ];
            for (what, catalog) in &statistics {
                for model in models {
                    let n = g.node_count();
                    let at = format!("{n} relations, {what}, {}", model.name());
                    assert_matches_the_reference(g, catalog, model, &at);
                }
            }
        }
    }

    /// A catalog over `graph` with relation `r`'s cardinality `card(r)` and edge `e`'s
    /// inner-join selectivity `sel(e)`.
    pub(super) fn restated(
        graph: &Hypergraph,
        card: impl Fn(usize) -> f64,
        sel: impl Fn(usize) -> f64,
    ) -> Catalog {
        let mut builder = Catalog::builder(graph.node_count());
        for r in 0..graph.node_count() {
            builder.set_cardinality(r, card(r));
        }
        for e in 0..graph.edge_count() {
            builder.annotate_edge(e, EdgeAnnotation::inner(sel(e)));
        }
        builder.build()
    }

    #[test]
    fn mask_index_boundary_agrees_with_the_reference() {
        // n = 17 is the last mask-indexed size, n = 18 the first hashed one. Past the threshold
        // a cycle stands in for the star, whose pair count doubles per satellite.
        let max = DpTable::<1>::MASK_INDEXED_MAX_RELATIONS;
        let workloads = [
            chain_query(max, 3),
            star_query(max - 1, 3),
            chain_query(max + 1, 3),
            cycle_query(max + 1, 3),
        ];
        for w in &workloads {
            let n = w.graph.node_count();
            let table =
                assert_matches_the_reference(&w.graph, &w.catalog, &CoutCost, &format!("n = {n}"));
            assert!(table.contains(w.graph.all_nodes()));
        }
        // job_29a, the corpus query at the threshold, with its hyperedge.
        let spec = corpus_query("job_29a").expect("in the corpus").spec;
        assert_eq!(spec.node_count(), max);
        let (graph, catalog) = spec.instantiate::<1>();
        let table = assert_matches_the_reference(&graph, &catalog, &CoutCost, "job_29a");
        assert!(table.contains(graph.all_nodes()));
    }

    #[test]
    fn reference_agrees_with_the_production_optimizer() {
        for w in [chain_query(10, 7), star_query(7, 7)] {
            let mut reference = HashMapReferenceHandler::new(&w.graph, &w.catalog, &CoutCost);
            let _ = DpHyp::new(&w.graph, &mut reference).run();
            let production = dphyp::optimize(&w.graph, &w.catalog).expect("plannable");
            assert_eq!(reference.ccp_count(), production.ccp_count);
            assert_eq!(reference.dp_entries(), production.dp_entries);
            let ref_cost = reference
                .class(w.graph.all_nodes())
                .expect("complete plan")
                .cost;
            assert!(
                (ref_cost - production.cost).abs() <= 1e-9 * production.cost.max(1.0),
                "reference {ref_cost} vs production {}",
                production.cost
            );
        }
    }
}

/// The greedy operator ordering that rescans every live pair at every merge, and the test that
/// holds the incremental [`qo_baselines::goo`] to it.
#[cfg(test)]
mod greedy {
    use super::tests::restated;
    use dphyp::QuerySpec;
    use qo_baselines::{goo, BaselineError, BaselineResult};
    use qo_catalog::SubPlanStats;
    use qo_catalog::{Catalog, CostModel, CoutCost, DpTable, JoinCombiner, MixedCost, PlanClass};
    use qo_hypergraph::{EdgeId, Hypergraph};
    use qo_workloads::{
        chain_query_w, clique_query_w, corpus, cycle_query_w, cycle_with_hyperedge_splits,
        random_catalog, random_hypergraph, star_query_w, star_with_hyperedge_splits,
        wide_chain_query, wide_cycle_query, wide_star_query, Workload,
    };

    /// GOO as it ran before it kept candidates between merges: every round tests and combines
    /// every pair of live classes, `O(n³)` connectivity tests in all. The live classes sit in
    /// creation order, and the first pair in scan order with a strictly smaller cardinality
    /// than the best so far wins.
    fn rescanning_goo<M: CostModel<W> + ?Sized, const W: usize>(
        graph: &Hypergraph<W>,
        catalog: &Catalog<W>,
        cost_model: &M,
    ) -> Result<BaselineResult, BaselineError> {
        catalog
            .validate_for(graph)
            .map_err(BaselineError::InvalidCatalog)?;
        let n = graph.node_count();
        let combiner = JoinCombiner::new(graph, catalog, cost_model);
        let mut table = DpTable::new();
        let mut live: Vec<SubPlanStats<W>> = Vec::with_capacity(n);
        for v in 0..n {
            table.insert_leaf(v, catalog.cardinality(v));
            live.push(SubPlanStats::leaf(v, catalog.cardinality(v)));
        }
        let mut pairs_tested = 0usize;
        let mut cost_calls = 0usize;
        let mut edge_buf: Vec<EdgeId> = Vec::new();
        while live.len() > 1 {
            let mut best: Option<(usize, usize, PlanClass<W>)> = None;
            for i in 0..live.len() {
                for j in i + 1..live.len() {
                    pairs_tested += 1;
                    if !graph.has_connecting_edge(live[i].set, live[j].set) {
                        continue;
                    }
                    graph.connecting_edges_into(live[i].set, live[j].set, &mut edge_buf);
                    if let Some(candidate) = combiner.combine(&live[i], &live[j], &edge_buf) {
                        cost_calls += 1;
                        let better = match &best {
                            Some((_, _, b)) => candidate.cardinality < b.cardinality,
                            None => true,
                        };
                        if better {
                            best = Some((i, j, candidate));
                        }
                    }
                }
            }
            let Some((i, j, winner)) = best else {
                return Err(BaselineError::NoCompletePlan {
                    largest_covered: table.classes().map(|c| c.set.len()).max().unwrap_or(0),
                });
            };
            let merged = winner.stats();
            table.offer(winner);
            live.remove(j);
            live.remove(i);
            live.push(merged);
        }
        let class = live.pop().expect("one class remains");
        let plan = table
            .reconstruct(class.set, graph)
            .expect("greedy classes are reconstructible");
        Ok(BaselineResult {
            cost: class.cost,
            cardinality: class.cardinality,
            plan,
            cost_calls,
            pairs_tested,
            dp_entries: table.len(),
        })
    }

    /// Runs both GOOs under `CoutCost` and `MixedCost` and requires the same plan, cost and
    /// cardinality bits and `dp_entries`, or the same error. The incremental run may test and
    /// combine fewer pairs, never more. Returns the number of comparisons made.
    fn assert_goos_agree<const W: usize>(
        graph: &Hypergraph<W>,
        catalog: &Catalog<W>,
        at: &str,
    ) -> usize {
        let models: [&dyn CostModel<W>; 2] = [&CoutCost, &MixedCost];
        for model in models {
            let incremental = goo(graph, catalog, model);
            let reference = rescanning_goo(graph, catalog, model);
            let at = format!("{at}, {}", model.name());
            match (&incremental, &reference) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new.plan, old.plan, "{at}");
                    assert_eq!(
                        (
                            new.cost.to_bits(),
                            new.cardinality.to_bits(),
                            new.dp_entries
                        ),
                        (
                            old.cost.to_bits(),
                            old.cardinality.to_bits(),
                            old.dp_entries
                        ),
                        "{at}"
                    );
                    assert!(new.pairs_tested <= old.pairs_tested, "{at}");
                    assert!(new.cost_calls <= old.cost_calls, "{at}");
                }
                _ => assert_eq!(incremental, reference, "{at}"),
            }
        }
        models.len()
    }

    /// `workload`'s graph under its own statistics and under uniform ones, where every
    /// candidate of one size ties on cardinality.
    fn assert_goos_agree_on<const W: usize>(w: &Workload<W>) -> usize {
        let g = &w.graph;
        let uniform = Catalog::uniform(g.node_count(), 1000.0, g.edge_count(), 0.01);
        assert_goos_agree(g, &w.catalog, &w.name) + assert_goos_agree(g, &uniform, &w.name)
    }

    fn corpus_pair<const W: usize>(spec: &QuerySpec, name: &str) -> usize {
        let (graph, catalog) = spec.instantiate::<W>();
        assert_goos_agree(&graph, &catalog, name)
    }

    #[test]
    fn incremental_goo_matches_the_rescanning_reference() {
        // Debug builds walk one seed and every 19th size per family; CI runs this in release.
        let (seeds, step) = if cfg!(debug_assertions) {
            (1, 19)
        } else {
            (15, 1)
        };
        let mut compared = 0;

        for q in corpus() {
            compared += if q.spec.node_count() <= 64 {
                corpus_pair::<1>(&q.spec, &q.name)
            } else {
                corpus_pair::<2>(&q.spec, &q.name)
            };
        }

        for seed in 0..seeds * 40 {
            let n = 2 + (seed as usize * 7) % 29;
            let graph = random_hypergraph(n, seed as usize % 5, seed as usize % 7, seed);
            let at = format!("random n = {n}, seed {seed}");
            compared += assert_goos_agree(&graph, &random_catalog(&graph, seed), &at);
            let uniform = Catalog::uniform(n, 1000.0, graph.edge_count(), 0.01);
            compared += assert_goos_agree(&graph, &uniform, &at);
        }

        for splits in 0..=7 {
            compared += assert_goos_agree_on(&cycle_with_hyperedge_splits(16, splits, 3));
            compared += assert_goos_agree_on(&star_with_hyperedge_splits(16, splits, 3));
        }

        for seed in 0..seeds {
            for n in (3..=60).step_by(step) {
                compared += assert_goos_agree_on(&chain_query_w::<1>(n, seed));
                compared += assert_goos_agree_on(&cycle_query_w::<1>(n, seed));
                compared += assert_goos_agree_on(&star_query_w::<1>(n - 1, seed));
                compared += assert_goos_agree_on(&clique_query_w::<1>(n, seed));
            }
            for n in (70..=128).step_by(29 * step) {
                compared += assert_goos_agree_on(&wide_chain_query(n, seed));
                compared += assert_goos_agree_on(&wide_cycle_query(n, seed));
                compared += assert_goos_agree_on(&wide_star_query(n - 1, seed));
            }
        }

        // Statistics at the edges of f64: zero-row relations, and products that saturate at
        // `f64::MAX` so that many candidates tie there.
        for w in [
            chain_query_w::<1>(12, 5),
            cycle_query_w::<1>(10, 5),
            star_query_w::<1>(8, 5),
            clique_query_w::<1>(8, 5),
        ] {
            let g = &w.graph;
            let zero_rows = restated(
                g,
                |r| if r % 3 == 1 { 0.0 } else { 50.0 + r as f64 },
                |_| 0.1,
            );
            compared += assert_goos_agree(g, &zero_rows, &format!("{}, zero-row", w.name));
            let huge = restated(g, |r| 1e300 * (1.0 + r as f64 / 16.0), |_| 1.0);
            compared += assert_goos_agree(g, &huge, &format!("{}, near 1e300", w.name));
        }

        // Disconnected graphs: both stop at the same largest class.
        let mut b = Hypergraph::<1>::builder(9);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (7, 8)] {
            b.add_simple_edge(x, y);
        }
        let g = b.build();
        let catalog = Catalog::uniform(9, 10.0, g.edge_count(), 0.5);
        compared += assert_goos_agree(&g, &catalog, "three components");
        assert!(matches!(
            goo(&g, &catalog, &CoutCost),
            Err(BaselineError::NoCompletePlan { largest_covered: 4 })
        ));

        println!("{compared} GOO comparisons, 0 mismatches");
    }
}
