//! GOO: greedy operator ordering.
//!
//! Not part of the paper's evaluation, but a convenient sanity baseline: it produces a valid
//! (cross-product-free) plan in `O(n²)` merges and shows how far greedy plans can be from the
//! dynamic-programming optimum that DPhyp/DPsize/DPsub all reach.

use crate::result::{BaselineError, BaselineResult};
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner, PlanClass, SubPlanStats};
use qo_hypergraph::{EdgeId, Hypergraph};

/// Runs greedy operator ordering: repeatedly merges the connected pair of classes whose join has
/// the smallest estimated output cardinality until a single class covering all relations
/// remains.
pub fn goo<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
) -> Result<BaselineResult, BaselineError> {
    catalog
        .validate_for(graph)
        .map_err(BaselineError::InvalidCatalog)?;
    let n = graph.node_count();
    let combiner = JoinCombiner::new(graph, catalog, cost_model);
    // The DpTable doubles as the plan store for reconstruction.
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
            return Err(BaselineError::no_complete_plan(&table));
        };
        let merged = winner.stats();
        table.offer(winner);
        // Remove the higher index first to keep the lower one valid.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsize::dpsize;
    use qo_catalog::CoutCost;

    fn chain(n: usize, cards: &[f64], sel: f64) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        let g = b.build();
        let mut cb = Catalog::builder(n);
        for (i, &c) in cards.iter().enumerate() {
            cb.set_cardinality(i, c);
        }
        for e in 0..n - 1 {
            cb.set_selectivity(e, sel);
        }
        (g, cb.build())
    }

    #[test]
    fn produces_a_complete_valid_plan() {
        let (g, c) = chain(6, &[10.0, 500.0, 20.0, 8000.0, 50.0, 5.0], 0.01);
        let r = goo(&g, &c, &CoutCost).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        assert_eq!(r.plan.join_count(), 5);
    }

    #[test]
    fn greedy_is_never_better_than_the_dp_optimum() {
        let (g, c) = chain(7, &[10.0, 500.0, 20.0, 8000.0, 50.0, 5.0, 900.0], 0.01);
        let greedy = goo(&g, &c, &CoutCost).unwrap();
        let optimal = dpsize(&g, &c, &CoutCost).unwrap();
        assert!(greedy.cost >= optimal.cost - 1e-9);
    }

    #[test]
    fn fails_on_disconnected_graphs() {
        let mut b = Hypergraph::<1>::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        let g = b.build();
        let c = Catalog::uniform(4, 10.0, 2, 0.5);
        assert!(matches!(
            goo(&g, &c, &CoutCost),
            Err(BaselineError::NoCompletePlan { largest_covered: 2 })
        ));
    }
}
