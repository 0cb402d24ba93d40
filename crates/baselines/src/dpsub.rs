//! DPsub: subset-driven dynamic programming, hypergraph-aware (Sec. 4.1 of the paper).

use crate::result::{BaselineError, BaselineResult};
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner};
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
                continue;
            };
            if !graph.has_connecting_edge(s1, s2) {
                continue;
            }
            let (a, b) = (a.stats(), b.stats());
            graph.connecting_edges_into(s1, s2, &mut edge_buf);
            if let Some(candidate) = combiner.combine(&a, &b, &edge_buf) {
                cost_calls += 1;
                table.offer(candidate);
            }
        }
    }

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
            Err(BaselineError::NoCompletePlan { .. })
        ));
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
