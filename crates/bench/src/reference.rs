//! A std-`HashMap` reference implementation of the DP table, preserved from the pre-arena
//! design so `reproduce --experiment table` can quantify what the arena re-architecture buys.
//!
//! This handler deliberately reproduces the costs the production table was rebuilt to avoid:
//!
//! * memoization through `HashMap<NodeSet, RefPlanClass>` (SipHash per probe, bucket storage),
//! * a freshly allocated `Vec<EdgeId>` connecting-edge list per emitted pair,
//! * cloned plan classes (the `Vec`-carrying `RefPlanClass` is not `Copy`),
//! * cost-model calls through `&dyn CostModel`.
//!
//! It is driven by the *same* DPhyp enumerator through the same [`CcpHandler`] trait, so a
//! timing difference against [`dphyp::Optimizer`] isolates the memo-structure change. The
//! reference collects its edges with the same incidence-bitset kernel as production
//! ([`Hypergraph::connecting_edges`]), so a faster kernel speeds up both sides; it keeps the
//! per-pair `Vec` and the owned predicate list per class, which production does without. The
//! results (cost, ccp count, table size) must agree exactly — `reproduce --experiment table`
//! asserts that.

use qo_bitset::{NodeId, NodeSet};
use qo_catalog::{Catalog, CcpHandler, CostModel, EmitSignal, SubPlanStats};
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::JoinOp;
use std::collections::HashMap;

/// Plan class of the reference table; owns its predicate list like the pre-arena design did.
#[derive(Clone, Debug)]
struct RefPlanClass {
    cardinality: f64,
    cost: f64,
    #[allow(dead_code)]
    best_join: Option<(NodeSet, NodeSet, JoinOp, Vec<EdgeId>)>,
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

    /// Cost of the class covering `set`, if present.
    pub fn cost_of(&self, set: NodeSet) -> Option<f64> {
        self.classes.get(&set).map(|c| c.cost)
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
        let cardinality = a.cardinality * b.cardinality * selectivity;
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

    fn contains(&self, set: NodeSet) -> bool {
        self.classes.contains_key(&set)
    }

    fn emit_ccp(&mut self, s1: NodeSet, s2: NodeSet) -> EmitSignal {
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
    use qo_catalog::CoutCost;
    use qo_workloads::{chain_query, star_query};

    #[test]
    fn reference_agrees_with_the_production_optimizer() {
        for w in [chain_query(10, 7), star_query(7, 7)] {
            let mut reference = HashMapReferenceHandler::new(&w.graph, &w.catalog, &CoutCost);
            let _ = DpHyp::new(&w.graph, &mut reference).run();
            let production = dphyp::optimize(&w.graph, &w.catalog).expect("plannable");
            assert_eq!(reference.ccp_count(), production.ccp_count);
            assert_eq!(reference.dp_entries(), production.dp_entries);
            let ref_cost = reference
                .cost_of(w.graph.all_nodes())
                .expect("complete plan");
            assert!(
                (ref_cost - production.cost).abs() <= 1e-9 * production.cost.max(1.0),
                "reference {ref_cost} vs production {}",
                production.cost
            );
        }
    }
}
