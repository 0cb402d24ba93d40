//! GOO: greedy operator ordering.
//!
//! Not part of the paper's evaluation, but a convenient sanity baseline: it produces a valid
//! (cross-product-free) plan in `n − 1` merges and shows how far greedy plans can be from the
//! dynamic-programming optimum that DPhyp/DPsize/DPsub all reach.
//!
//! The run is incremental. The combined candidate of every connected pair of live classes is
//! kept from the round that first saw the pair, so a merge tests only the new class against the
//! live ones: `O(n²)` connectivity tests and combines in all, where rescanning every live pair
//! at every merge takes `O(n³)`. Each round still reads the candidates in the order of that
//! rescan, so the plans are the same.

use crate::result::{BaselineError, BaselineResult};
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner, PlanClass, SubPlanStats};
use qo_hypergraph::{EdgeId, Hypergraph};

/// A live class and the candidates it forms with the younger live classes it connects to.
struct Live<const W: usize> {
    /// Creation order: base relations by id, then merged classes as they are made.
    age: usize,
    stats: SubPlanStats<W>,
    /// `(younger class's age, combined candidate)`, by ascending age.
    pairs: Vec<(usize, PlanClass<W>)>,
}

/// Runs greedy operator ordering: repeatedly merges the connected pair of classes whose join has
/// the smallest estimated output cardinality until a single class covering all relations
/// remains. Ties go to the pair whose older class is older, then whose younger class is older.
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
    // Live classes by ascending age.
    let mut live: Vec<Live<W>> = Vec::with_capacity(n);
    let mut pairs_tested = 0usize;
    let mut cost_calls = 0usize;
    let mut edge_buf: Vec<EdgeId> = Vec::new();
    // Tests `younger` against every live class and records each candidate with the older one.
    let mut pair_with_live = |live: &mut [Live<W>], younger: &SubPlanStats<W>, age: usize| {
        let from = graph.connecting_from(younger.set);
        for older in live {
            pairs_tested += 1;
            if !graph.has_connecting_edge_from(from, older.stats.set) {
                continue;
            }
            graph.connecting_edges_into(older.stats.set, younger.set, &mut edge_buf);
            if let Some(candidate) = combiner.combine(&older.stats, younger, &edge_buf) {
                cost_calls += 1;
                older.pairs.push((age, candidate));
            }
        }
    };
    for v in 0..n {
        let leaf = SubPlanStats::leaf(v, catalog.cardinality(v));
        table.insert_leaf(v, leaf.cardinality);
        pair_with_live(&mut live, &leaf, v);
        live.push(Live {
            age: v,
            stats: leaf,
            pairs: Vec::new(),
        });
    }

    for age in n.. {
        if live.len() <= 1 {
            break;
        }
        // The first candidate in (older, younger) age order, replaced only by a strictly
        // smaller cardinality: a NaN never replaces one and, read first, is never replaced.
        let mut best: Option<(usize, usize, &PlanClass<W>)> = None;
        for older in &live {
            for (younger, candidate) in &older.pairs {
                let better = match best {
                    Some((_, _, b)) => candidate.cardinality < b.cardinality,
                    None => true,
                };
                if better {
                    best = Some((older.age, *younger, candidate));
                }
            }
        }
        let Some((a, b, &winner)) = best else {
            return Err(BaselineError::no_complete_plan(&table));
        };
        let merged = winner.stats();
        table.offer(winner);
        live.retain_mut(|class| {
            class
                .pairs
                .retain(|&(younger, _)| younger != a && younger != b);
            class.age != a && class.age != b
        });
        pair_with_live(&mut live, &merged, age);
        live.push(Live {
            age,
            stats: merged,
            pairs: Vec::new(),
        });
    }

    let class = live.pop().expect("one class remains").stats;
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
