//! DPsize: size-driven dynamic programming (Fig. 1 of the paper), hypergraph-aware.

use crate::result::{BaselineError, BaselineResult};
use qo_bitset::NodeSet;
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner};
use qo_hypergraph::{EdgeId, Hypergraph};

/// Runs DPsize over the hypergraph.
///
/// Plans are generated in the order of increasing size: for every target size `s` and every
/// split `s = s1 + s2`, all pairs of memoized plan classes of sizes `s1` and `s2` are inspected.
/// A pair contributes a plan only if the two sets are disjoint and connected by a hyperedge —
/// the two tests marked `(*)` in the paper's pseudocode, which are exactly what makes DPsize
/// slow: the number of inspected pairs grows with the square of the table size regardless of the
/// graph structure.
///
/// Generic over the cost model so that concrete instantiations inline the cost function, the
/// same way the DPhyp handler does.
pub fn dpsize<M: CostModel<W> + ?Sized, const W: usize>(
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
    // classes_by_size[s] lists the sets of size s present in the table.
    let mut classes_by_size: Vec<Vec<NodeSet<W>>> = vec![Vec::new(); n + 1];
    for v in 0..n {
        table.insert_leaf(v, catalog.cardinality(v));
        classes_by_size[1].push(NodeSet::single(v));
    }

    let mut pairs_tested = 0usize;
    let mut cost_calls = 0usize;
    let mut edge_buf: Vec<EdgeId> = Vec::new();

    for size in 2..=n {
        let mut new_sets: Vec<NodeSet<W>> = Vec::new();
        for s1 in 1..size {
            let s2 = size - s1;
            if s1 > s2 {
                // Each unordered pair is handled once; the combiner considers both operand
                // orders internally (commutativity).
                continue;
            }
            // Iterate over index pairs; when both sides have equal size avoid (i, j)/(j, i)
            // duplicates.
            for (i, &left_set) in classes_by_size[s1].iter().enumerate() {
                let start = if s1 == s2 { i + 1 } else { 0 };
                for &right_set in classes_by_size[s2][start..].iter() {
                    pairs_tested += 1;
                    if !left_set.is_disjoint(right_set) {
                        continue; // test (*) 1: overlapping sets
                    }
                    if !graph.has_connecting_edge(left_set, right_set) {
                        continue; // test (*) 2: not connected
                    }
                    let a = table
                        .get(left_set)
                        .expect("listed class must exist")
                        .stats();
                    let b = table
                        .get(right_set)
                        .expect("listed class must exist")
                        .stats();
                    graph.connecting_edges_into(left_set, right_set, &mut edge_buf);
                    if let Some(candidate) = combiner.combine(&a, &b, &edge_buf) {
                        cost_calls += 1;
                        let set = candidate.set;
                        let was_new = !table.contains(set);
                        table.offer(candidate);
                        if was_new {
                            new_sets.push(set);
                        }
                    }
                }
            }
        }
        classes_by_size[size] = new_sets;
    }

    let all = graph.all_nodes();
    let Some(class) = table.get(all) else {
        return Err(BaselineError::no_complete_plan(&table));
    };
    let plan = table
        .reconstruct(all, graph)
        .expect("complete class reconstructs");
    Ok(BaselineResult {
        cost: class.cost,
        cardinality: class.cardinality,
        plan,
        cost_calls,
        pairs_tested,
        dp_entries: table.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_catalog::CoutCost;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn chain(n: usize, card: f64, sel: f64) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        (b.build(), Catalog::uniform(n, card, n - 1, sel))
    }

    #[test]
    fn solves_a_chain() {
        let (g, c) = chain(5, 100.0, 0.1);
        let r = dpsize(&g, &c, &CoutCost).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        assert_eq!(r.plan.join_count(), 4);
        // A chain of 5 relations has 20 csg-cmp-pairs; DPsize must have called the cost function
        // exactly once per canonical pair.
        assert_eq!(r.cost_calls, 20);
        assert!(r.pairs_tested >= r.cost_calls);
        assert_eq!(r.dp_entries, 5 + 10); // singletons + connected sub-chains
    }

    #[test]
    fn wasted_tests_exceed_useful_ones_on_larger_chains() {
        // The motivation for DPccp/DPhyp: DPsize inspects far more pairs than it keeps.
        let (g, c) = chain(10, 100.0, 0.1);
        let r = dpsize(&g, &c, &CoutCost).unwrap();
        assert!(
            r.pairs_tested > 3 * r.cost_calls,
            "expected most inspected pairs to fail ({} tested, {} kept)",
            r.pairs_tested,
            r.cost_calls
        );
    }

    #[test]
    fn handles_hyperedges() {
        // Fig. 2 graph: only the full halves can be joined across the hyperedge.
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        let g = b.build();
        let c = Catalog::uniform(6, 10.0, 5, 0.5);
        let r = dpsize(&g, &c, &CoutCost).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        assert_eq!(r.cost_calls, 9, "9 csg-cmp-pairs in the Fig. 2 hypergraph");
    }

    #[test]
    fn detects_disconnected_graphs() {
        let mut b = Hypergraph::<1>::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        let g = b.build();
        let c = Catalog::uniform(4, 10.0, 2, 0.5);
        assert!(matches!(
            dpsize(&g, &c, &CoutCost),
            Err(BaselineError::NoCompletePlan { .. })
        ));
    }

    #[test]
    fn rejects_bad_catalog() {
        let (g, _) = chain(3, 10.0, 0.5);
        let bad = Catalog::uniform(7, 10.0, 2, 0.5);
        assert!(matches!(
            dpsize(&g, &bad, &CoutCost),
            Err(BaselineError::InvalidCatalog(_))
        ));
    }
}
