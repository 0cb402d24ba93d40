//! DPsub: subset-driven dynamic programming, hypergraph-aware (Sec. 4.1 of the paper).

use crate::result::{BaselineError, BaselineResult};
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner, NodeSetSet, PruneCounters};
use qo_hypergraph::{EdgeId, Hypergraph};

/// Runs DPsub over the hypergraph.
///
/// Every subset `S` of the relations is visited in increasing mask order (so all subsets of `S`
/// are visited before `S`); for each, every split `S = S1 ∪ S2` with `min(S) ∈ S1` is tested.
/// The tests — do plans for both halves exist, and are the halves connected by a hyperedge —
/// fail for the vast majority of the `2^|S|` splits on sparse query graphs, which is why DPsub
/// loses against DPhyp everywhere and against DPsize on large low-density graphs (cycles).
pub fn dpsub<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
) -> Result<BaselineResult, BaselineError> {
    dpsub_bounded(graph, catalog, cost_model, f64::INFINITY).map(|(r, _)| r)
}

/// DPsub with a branch-and-bound upper `bound` — the cost of some known complete plan (or
/// `f64::INFINITY` to disable pruning, which makes this identical to [`dpsub`]).
///
/// Candidates strictly over the bound are discarded instead of memoized
/// ([`PruneCounters::pruned_classes`]); splits one of whose halves only ever produced discarded
/// candidates skip their cost evaluation entirely ([`PruneCounters::pruned_pairs`]). Under a
/// monotone, non-negative cost model ([`CostModel::supports_pruning`]) the optimum — plan, cost
/// *and* join order — is identical to the unpruned run: every subset's candidates are all
/// offered before the subset is ever used as an input (increasing mask order), and removing
/// only strictly-over-bound candidates never changes a class's first-arriving minimum when that
/// minimum is within the bound, which it is for every class on the optimal plan's path.
pub fn dpsub_bounded<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
    bound: f64,
) -> Result<(BaselineResult, PruneCounters), BaselineError> {
    catalog
        .validate_for(graph)
        .map_err(BaselineError::InvalidCatalog)?;
    let n = graph.node_count();
    let combiner = JoinCombiner::new(graph, catalog, cost_model);
    let mut table = DpTable::new();
    for v in 0..n {
        table.insert_leaf(v, catalog.cardinality(v));
    }

    let mut pairs_tested = 0usize;
    let mut cost_calls = 0usize;
    let mut prune = PruneCounters::default();
    // Sets every candidate of which was over the bound; their absence from the table is a
    // pruning effect, not a connectivity miss, and is counted separately.
    let mut pruned_sets = NodeSetSet::new();
    let mut edge_buf: Vec<EdgeId> = Vec::new();
    let all = graph.all_nodes();

    for set in all.subsets() {
        if set.is_singleton() {
            continue;
        }
        // Split canonically: S1 always contains min(S), S2 the rest. Every unordered split is
        // inspected exactly once; the combiner handles commutativity internally.
        let min = set.min_singleton();
        let rest = set - min;
        for s2 in rest.subsets() {
            // When s2 == rest, S1 is the bare minimum element — still a valid split (S1 = {min}).
            let s1 = set - s2;
            debug_assert!(s1.is_superset_of(min));
            pairs_tested += 1;
            let (Some(a), Some(b)) = (table.get(s1), table.get(s2)) else {
                if pruned_sets.contains(s1) || pruned_sets.contains(s2) {
                    prune.pruned_pairs += 1;
                }
                continue;
            };
            if !graph.has_connecting_edge(s1, s2) {
                continue;
            }
            let (a, b) = (a.stats(), b.stats());
            graph.connecting_edges_into(s1, s2, &mut edge_buf);
            if let Some(candidate) = combiner.combine(&a, &b, &edge_buf) {
                cost_calls += 1;
                // Strictly over the bound: discard (ties survive, keeping the winner
                // identical to the unpruned run).
                if candidate.cost > bound {
                    prune.pruned_classes += 1;
                    if !table.contains(candidate.set) {
                        pruned_sets.insert(candidate.set);
                    }
                    continue;
                }
                table.offer(candidate);
            }
        }
    }

    let Some(class) = table.get(all) else {
        return Err(BaselineError::NoCompletePlan);
    };
    let plan = table
        .reconstruct(all, graph)
        .expect("complete class reconstructs");
    Ok((
        BaselineResult {
            cost: class.cost,
            cardinality: class.cardinality,
            plan,
            cost_calls,
            pairs_tested,
            dp_entries: table.len(),
        },
        prune,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsize::dpsize;
    use qo_bitset::NodeSet;
    use qo_catalog::CoutCost;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn star(satellites: usize, card: f64, sel: f64) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(satellites + 1);
        for i in 1..=satellites {
            b.add_simple_edge(0, i);
        }
        (
            b.build(),
            Catalog::uniform(satellites + 1, card, satellites, sel),
        )
    }

    #[test]
    fn solves_a_star_and_counts_cost_calls() {
        let (g, c) = star(4, 100.0, 0.05);
        let r = dpsub(&g, &c, &CoutCost).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        // Star with n = 5 relations: (n-1) * 2^(n-2) = 32 csg-cmp-pairs.
        assert_eq!(r.cost_calls, 32);
        // DPsub inspects every split of every subset: sum over subsets of 2^(|S|-1)-ish, far
        // more than the useful pairs.
        assert!(r.pairs_tested > r.cost_calls);
        assert_eq!(r.dp_entries, (1 << 4) + 4); // 2^(n-1) + n - 1 connected sets
    }

    #[test]
    fn agrees_with_dpsize_on_cost_and_cost_calls() {
        for (g, c) in [star(5, 250.0, 0.02), {
            let mut b = Hypergraph::builder(6);
            for i in 0..6 {
                b.add_simple_edge(i, (i + 1) % 6);
            }
            b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
            (b.build(), Catalog::uniform(6, 80.0, 7, 0.1))
        }] {
            let a = dpsub(&g, &c, &CoutCost).unwrap();
            let b = dpsize(&g, &c, &CoutCost).unwrap();
            assert!(
                (a.cost - b.cost).abs() < 1e-9 * a.cost.max(1.0),
                "optimal costs must agree"
            );
            assert_eq!(
                a.cost_calls, b.cost_calls,
                "both enumerate exactly the csg-cmp-pairs"
            );
            assert_eq!(a.dp_entries, b.dp_entries);
        }
    }

    #[test]
    fn detects_disconnected_graphs() {
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        let g = b.build();
        let c = Catalog::uniform(3, 10.0, 1, 0.5);
        assert!(matches!(
            dpsub(&g, &c, &CoutCost),
            Err(BaselineError::NoCompletePlan)
        ));
    }

    #[test]
    fn bounded_run_matches_the_unpruned_optimum() {
        // A clique collapses hard under pruning: every size-k subset multiplies k(k-1)/2
        // selectivities, so most partial plans already exceed a heuristic full-plan cost.
        let mut b = Hypergraph::<1>::builder(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                b.add_simple_edge(i, j);
            }
        }
        let g = b.build();
        let c = Catalog::uniform(8, 1000.0, 28, 0.01);
        let free = dpsub(&g, &c, &CoutCost).unwrap();
        let seed = crate::goo(&g, &c, &CoutCost).unwrap().cost;
        let (pruned, counters) = dpsub_bounded(&g, &c, &CoutCost, seed).unwrap();
        assert_eq!(pruned.cost, free.cost, "bit-identical optimal cost");
        assert_eq!(pruned.plan, free.plan, "bit-identical join order");
        assert!(pruned.cost_calls <= free.cost_calls);
        assert!(pruned.dp_entries <= free.dp_entries);
        assert_eq!(counters.bound_updates, 0, "the bound stays static here");
        // An infinite bound degenerates to the plain algorithm, counter-free.
        let (infinite, c0) = dpsub_bounded(&g, &c, &CoutCost, f64::INFINITY).unwrap();
        assert_eq!(infinite, free);
        assert_eq!(c0, qo_catalog::PruneCounters::default());
    }

    #[test]
    fn hyperedge_only_connections_require_complete_hypernodes() {
        let mut b = Hypergraph::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        b.add_hyperedge(ns(&[0, 1]), ns(&[2, 3]));
        let g = b.build();
        let c = Catalog::uniform(4, 10.0, 3, 0.5);
        let r = dpsub(&g, &c, &CoutCost).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        // {0,1}, {2,3} and the final pair: 1 + 1 + 1 = 3 cost calls.
        assert_eq!(r.cost_calls, 3);
    }
}
