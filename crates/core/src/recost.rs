//! Incremental re-optimization: re-cost a cached [`DpTable`] under drifted statistics.
//!
//! A plan cache stores, per query fingerprint, the compact plan-table of a finished
//! optimization ([`DpTable::from_plan`] — the `2n − 1` plan classes of the winning tree, not
//! the full enumeration memo). When the same query shape arrives with new statistics, the
//! cheap path is not to re-enumerate csg-cmp-pairs but to walk the memoized classes bottom-up
//! and recompute cardinalities and costs through the same `JoinCombiner` the enumeration
//! used ([`qo_catalog::recost_table`]). The result is bit-identical to what a from-scratch
//! optimization computes *for the same join order* — whether that order is still the winning
//! one is a separate question, answered here by a greedy probe: [`recost_spec`] also runs GOO
//! under the new statistics, and the caller compares the two costs against its staleness
//! tolerance to decide between serving the re-costed plan and re-optimizing in full.
//!
//! Everything is width-erased behind [`CachedTable`] so a cache can hold single-word and
//! two-word queries side by side; [`recost_spec`] dispatches the width exactly like the other
//! spec entry points.

use crate::adaptive::AdaptiveOptions;
use crate::optimizer::{CostModelKind, OptimizeError};
use crate::query::{with_width_dispatch, QuerySpec};
use qo_baselines::goo;
use qo_catalog::{recost_table, Catalog, CostModel, CoutCost, DpTable, MixedCost};
use qo_hypergraph::Hypergraph;
use qo_plan::PlanNode;

/// A width-erased plan table, the persisted form of one optimized query.
///
/// The width is committed when the table is built (it follows the query's relation count
/// through the same ladder as every spec entry point) and checked again on reuse.
#[derive(Clone, Debug)]
pub enum CachedTable {
    /// Single-word tier: queries of up to 64 relations.
    Narrow(DpTable<1>),
    /// Two-word tier: queries of up to 128 relations.
    Wide(DpTable<2>),
}

impl CachedTable {
    /// Builds the compact plan-table of a finished optimization at the width matching
    /// `node_count` (the plan's query size, not its scan count — trust the spec).
    pub fn from_plan(plan: &PlanNode, node_count: usize) -> Result<CachedTable, OptimizeError> {
        if node_count <= qo_bitset::NodeSet64::CAPACITY {
            Ok(CachedTable::Narrow(DpTable::from_plan(plan)))
        } else if node_count <= qo_bitset::NodeSet128::CAPACITY {
            Ok(CachedTable::Wide(DpTable::from_plan(plan)))
        } else {
            Err(OptimizeError::TooManyRelations {
                count: node_count,
                max: crate::query::MAX_WIDE_NODES,
            })
        }
    }

    /// Number of memoized plan classes.
    pub fn len(&self) -> usize {
        match self {
            CachedTable::Narrow(t) => t.len(),
            CachedTable::Wide(t) => t.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The outcome of one incremental re-cost: the cached join order under new statistics, plus
/// the greedy probe the caller uses to judge staleness.
#[derive(Clone, Debug)]
pub struct Recosted {
    /// The cached join order, re-costed (still in the id space the table was built in).
    pub plan: PlanNode,
    /// Cost of that order under the new statistics — bit-identical to a from-scratch
    /// optimization that picks the same order.
    pub cost: f64,
    /// Estimated output cardinality under the new statistics.
    pub cardinality: f64,
    /// Cost of a fresh greedy (GOO) plan under the new statistics. A re-costed order that a
    /// mere greedy ordering beats has demonstrably gone stale.
    pub greedy_cost: f64,
    /// The re-costed table, ready to replace the cache entry if the caller accepts the plan.
    pub table: CachedTable,
}

/// Re-costs a cached table against `spec`'s statistics, without enumerating a single
/// csg-cmp-pair, and runs the greedy staleness probe.
///
/// Returns `Ok(None)` when the table cannot be re-costed against this spec — width mismatch,
/// structural mismatch (a stored join no longer connected), or no greedy plan. Callers treat
/// `None` as a cache miss and fall back to a full optimization; it cannot happen when the spec
/// has the same shape the table was built for.
pub fn recost_spec(
    spec: &QuerySpec,
    table: &CachedTable,
    options: &AdaptiveOptions,
) -> Result<Option<Recosted>, OptimizeError> {
    let _span = qo_obsv::Span::enter("recost");
    let cost_model = options.cost_model;
    with_width_dispatch(
        spec,
        |graph, catalog| match table {
            CachedTable::Narrow(t) => recost_width(t, graph, catalog, cost_model)
                .map(|(parts, t)| parts.with_table(CachedTable::Narrow(t))),
            CachedTable::Wide(_) => None,
        },
        |graph, catalog| match table {
            CachedTable::Wide(t) => recost_width(t, graph, catalog, cost_model)
                .map(|(parts, t)| parts.with_table(CachedTable::Wide(t))),
            CachedTable::Narrow(_) => None,
        },
    )
}

/// A [`Recosted`] before the width of its table is re-erased; the table travels separately.
struct RecostedParts {
    plan: PlanNode,
    cost: f64,
    cardinality: f64,
    greedy_cost: f64,
}

impl RecostedParts {
    fn with_table(self, table: CachedTable) -> Recosted {
        Recosted {
            plan: self.plan,
            cost: self.cost,
            cardinality: self.cardinality,
            greedy_cost: self.greedy_cost,
            table,
        }
    }
}

fn recost_width<const W: usize>(
    table: &DpTable<W>,
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: CostModelKind,
) -> Option<(RecostedParts, DpTable<W>)> {
    match cost_model {
        CostModelKind::Cout => recost_with_model(table, graph, catalog, &CoutCost),
        CostModelKind::Mixed => recost_with_model(table, graph, catalog, &MixedCost),
    }
}

fn recost_with_model<M: CostModel<W>, const W: usize>(
    table: &DpTable<W>,
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
) -> Option<(RecostedParts, DpTable<W>)> {
    let recosted = recost_table(table, graph, catalog, cost_model)?;
    let all = graph.all_nodes();
    let class = *recosted.get(all)?;
    let plan = recosted.reconstruct(all, graph)?;
    let greedy = goo(graph, catalog, cost_model).ok()?;
    Some((
        RecostedParts {
            plan,
            cost: class.cost,
            cardinality: class.cardinality,
            greedy_cost: greedy.cost,
        },
        recosted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::optimize_adaptive;

    fn chain_spec_with(n: usize, scale: f64) -> QuerySpec {
        let mut b = QuerySpec::builder(n);
        for i in 0..n {
            b.set_cardinality(i, scale * (100.0 + i as f64));
        }
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1, 0.01);
        }
        b.build()
    }

    #[test]
    fn recost_under_identical_stats_reproduces_the_cached_plan() {
        let spec = chain_spec_with(10, 1.0);
        let result = optimize_adaptive(&spec).unwrap();
        let table = CachedTable::from_plan(&result.plan, spec.node_count()).unwrap();
        assert_eq!(table.len(), 2 * 10 - 1);
        let r = recost_spec(&spec, &table, &AdaptiveOptions::default())
            .unwrap()
            .expect("same shape re-costs");
        assert_eq!(r.cost, result.cost, "bit-identical under unchanged stats");
        assert_eq!(r.cardinality, result.cardinality);
        assert_eq!(r.plan, result.plan);
        assert!(r.greedy_cost >= r.cost, "greedy cannot beat the optimum");
    }

    #[test]
    fn recost_tracks_drifted_statistics_bit_identically_for_a_stable_order() {
        let spec = chain_spec_with(10, 1.0);
        let cold = optimize_adaptive(&spec).unwrap();
        let table = CachedTable::from_plan(&cold.plan, spec.node_count()).unwrap();
        // A tiny drift (0.1% growth) that leaves the optimal join order in place.
        let drifted = chain_spec_with(10, 1.001);
        let r = recost_spec(&drifted, &table, &AdaptiveOptions::default())
            .unwrap()
            .expect("same shape");
        let fresh = optimize_adaptive(&drifted).unwrap();
        assert_eq!(fresh.plan, r.plan, "a 0.1% drift keeps the join order");
        assert_eq!(r.cost, fresh.cost, "bit-identical to from-scratch");
        assert_ne!(r.cost, cold.cost, "but not to the stale costs");
    }

    #[test]
    fn heavy_drift_surfaces_in_the_greedy_probe() {
        // Build a star whose cached order hinges on R1 being tiny, then invert the statistics:
        // the re-costed stale order must not beat the greedy probe by much — the probe is what
        // lets a cache detect that the cached order has gone stale.
        let star = |hub: f64, sat1: f64| {
            let mut b = QuerySpec::builder(6);
            b.set_cardinality(0, hub);
            b.set_cardinality(1, sat1);
            for i in 2..6 {
                b.set_cardinality(i, 1_000.0);
            }
            for i in 1..6 {
                b.add_simple_edge(0, i, 0.001);
            }
            b.build()
        };
        let cold = optimize_adaptive(&star(1_000_000.0, 2.0)).unwrap();
        let table = CachedTable::from_plan(&cold.plan, 6).unwrap();
        let drifted = star(1_000_000.0, 5_000_000.0);
        let r = recost_spec(&drifted, &table, &AdaptiveOptions::default())
            .unwrap()
            .expect("same shape");
        let fresh = optimize_adaptive(&drifted).unwrap();
        // The stale order is strictly worse than a fresh optimization under the new stats.
        assert!(r.cost > fresh.cost, "{} vs {}", r.cost, fresh.cost);
        // And the greedy probe exposes it: a caller comparing r.cost against r.greedy_cost
        // with any reasonable tolerance re-optimizes.
        assert!(r.greedy_cost.is_finite() && r.greedy_cost > 0.0);
        assert!(r.cost > r.greedy_cost, "stale order loses even to greedy");
    }

    #[test]
    fn width_mismatch_and_wide_tables_are_handled() {
        let narrow = chain_spec_with(10, 1.0);
        let wide = chain_spec_with(80, 1.0);
        let wide_result = optimize_adaptive(&wide).unwrap();
        let wide_table = CachedTable::from_plan(&wide_result.plan, 80).unwrap();
        assert!(matches!(wide_table, CachedTable::Wide(_)));
        assert!(!wide_table.is_empty());
        // A wide table against a narrow spec is a clean miss, not a panic.
        assert!(
            recost_spec(&narrow, &wide_table, &AdaptiveOptions::default())
                .unwrap()
                .is_none()
        );
        // Re-costing on the two-word tier works end to end.
        let r = recost_spec(&wide, &wide_table, &AdaptiveOptions::default())
            .unwrap()
            .expect("wide recost");
        assert_eq!(r.cost, wide_result.cost);
        // Oversized plans are rejected at table-build time.
        assert!(matches!(
            CachedTable::from_plan(&wide_result.plan, 300),
            Err(OptimizeError::TooManyRelations { .. })
        ));
    }
}
