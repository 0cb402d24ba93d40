//! Incremental re-optimization: re-cost a cached plan under drifted statistics.
//!
//! A plan cache stores, per query fingerprint, the winning [`PlanNode`] of a finished
//! optimization. When the same query shape arrives with new statistics, the cheap path is not
//! to re-enumerate csg-cmp-pairs but to walk the plan's `n − 1` joins bottom-up and recompute
//! cardinalities and costs through the same `JoinCombiner` the enumeration used
//! ([`qo_catalog::recost_plan`]). The result is bit-identical to what a from-scratch
//! optimization computes *for the same join order* — whether that order is still the winning
//! one is a separate question, answered here by a greedy probe: [`recost_spec_with_probe`]
//! also runs GOO under the new statistics, and the caller compares the two costs to decide
//! between serving the re-costed plan and re-optimizing in full.
//! [`recost_spec`] re-costs without the probe, for callers that serve the order regardless.
//!
//! A plan stores plain relation and edge ids, so one cache holds queries of every width side
//! by side; both entry points instantiate the spec once, at the width every other spec entry
//! point picks.

use crate::adaptive::AdaptiveOptions;
use crate::optimizer::{CostModelKind, OptimizeError};
use crate::query::{with_width_dispatch, QuerySpec};
use qo_baselines::goo;
use qo_catalog::{recost_plan, Catalog, CoutCost, MixedCost};
use qo_hypergraph::Hypergraph;
use qo_plan::PlanNode;

/// The outcome of one probed re-cost: the cached join order under new statistics, plus the
/// greedy probe the caller uses to judge staleness. The probe runs whether or not the order
/// fits, so a caller can report both halves of its decision.
#[derive(Clone, Debug)]
pub struct Recosted {
    /// The cached join order, re-costed (in the id space of the spec). Its root's cost and
    /// cardinality are bit-identical to a from-scratch optimization that picks the same order.
    /// `None` when the order cannot be re-costed against the spec (see [`recost_spec`]).
    pub plan: Option<PlanNode>,
    /// Cost of a fresh greedy (GOO) plan under the new statistics; `None` when no greedy plan
    /// exists. A re-costed order that a mere greedy ordering beats has demonstrably gone stale.
    pub greedy_cost: Option<f64>,
}

/// Re-costs a cached plan against `spec`'s statistics, without enumerating a single
/// csg-cmp-pair.
///
/// Returns `Ok(None)` when the plan cannot be re-costed against this spec — a relation out of
/// range or joined twice, a stored join no longer connected, or a plan that does not cover
/// every relation of the spec. Callers treat `None` as a cache miss and fall back to a full
/// optimization; it cannot happen when the spec has the same shape the plan was built for.
pub fn recost_spec(
    spec: &QuerySpec,
    plan: &PlanNode,
    options: &AdaptiveOptions,
) -> Result<Option<PlanNode>, OptimizeError> {
    let _span = qo_obsv::Span::enter("recost");
    let model = options.cost_model;
    with_width_dispatch(
        spec,
        |graph, catalog| recost_width(plan, graph, catalog, model),
        |graph, catalog| recost_width(plan, graph, catalog, model),
    )
}

/// [`recost_spec`] plus the greedy staleness probe, on one instantiation of the spec.
pub fn recost_spec_with_probe(
    spec: &QuerySpec,
    plan: &PlanNode,
    options: &AdaptiveOptions,
) -> Result<Recosted, OptimizeError> {
    let _span = qo_obsv::Span::enter("recost");
    let model = options.cost_model;
    with_width_dispatch(
        spec,
        |graph, catalog| recost_and_probe(plan, graph, catalog, model),
        |graph, catalog| recost_and_probe(plan, graph, catalog, model),
    )
}

fn recost_and_probe<const W: usize>(
    plan: &PlanNode,
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    model: CostModelKind,
) -> Recosted {
    let greedy = match model {
        CostModelKind::Cout => goo(graph, catalog, &CoutCost),
        CostModelKind::Mixed => goo(graph, catalog, &MixedCost),
    };
    Recosted {
        plan: recost_width(plan, graph, catalog, model),
        greedy_cost: greedy.ok().map(|g| g.cost),
    }
}

fn recost_width<const W: usize>(
    plan: &PlanNode,
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    model: CostModelKind,
) -> Option<PlanNode> {
    let recosted = match model {
        CostModelKind::Cout => recost_plan(plan, graph, catalog, &CoutCost),
        CostModelKind::Mixed => recost_plan(plan, graph, catalog, &MixedCost),
    }?;
    (recosted.relations_wide::<W>() == graph.all_nodes()).then_some(recosted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{optimize_adaptive, AdaptiveOptimizer};
    use proptest::prelude::*;
    use qo_plan::JoinOp;

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
        let r = recost_spec_with_probe(&spec, &result.plan, &AdaptiveOptions::default()).unwrap();
        let plan = r.plan.clone().expect("same shape re-costs");
        assert_eq!(plan, result.plan);
        assert_eq!(plan.cost().to_bits(), result.cost.to_bits());
        assert_eq!(plan.cardinality().to_bits(), result.cardinality.to_bits());
        assert!(
            r.greedy_cost.expect("a chain has a greedy plan") >= plan.cost(),
            "greedy cannot beat the optimum"
        );
        let unprobed = recost_spec(&spec, &result.plan, &AdaptiveOptions::default()).unwrap();
        assert_eq!(unprobed, r.plan, "the probe does not touch the plan");
    }

    #[test]
    fn recost_tracks_drifted_statistics_bit_identically_for_a_stable_order() {
        let spec = chain_spec_with(10, 1.0);
        let cold = optimize_adaptive(&spec).unwrap();
        // A tiny drift (0.1% growth) that leaves the optimal join order in place.
        let drifted = chain_spec_with(10, 1.001);
        let plan = recost_spec(&drifted, &cold.plan, &AdaptiveOptions::default())
            .unwrap()
            .expect("same shape");
        let fresh = optimize_adaptive(&drifted).unwrap();
        assert_eq!(fresh.plan, plan, "a 0.1% drift keeps the join order");
        assert_eq!(
            plan.cost().to_bits(),
            fresh.cost.to_bits(),
            "bit-identical to from-scratch"
        );
        assert_ne!(plan.cost(), cold.cost, "but not to the stale costs");
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
        let drifted = star(1_000_000.0, 5_000_000.0);
        let r = recost_spec_with_probe(&drifted, &cold.plan, &AdaptiveOptions::default()).unwrap();
        let fresh = optimize_adaptive(&drifted).unwrap();
        let cost = r.plan.expect("same shape").cost();
        // The stale order is strictly worse than a fresh optimization under the new stats.
        assert!(cost > fresh.cost, "{cost} vs {}", fresh.cost);
        // And the greedy probe exposes it: a caller comparing the re-costed cost against
        // r.greedy_cost with any reasonable tolerance re-optimizes.
        let greedy_cost = r.greedy_cost.expect("a star has a greedy plan");
        assert!(greedy_cost.is_finite() && greedy_cost > 0.0);
        assert!(cost > greedy_cost, "stale order loses even to greedy");
    }

    #[test]
    fn width_mismatch_and_wide_tables_are_handled() {
        let options = AdaptiveOptions::default();
        let narrow = chain_spec_with(10, 1.0);
        let wide = chain_spec_with(80, 1.0);
        let narrow_result = optimize_adaptive(&narrow).unwrap();
        let wide_result = optimize_adaptive(&wide).unwrap();
        // A wide plan against a narrow spec, and a narrow plan against a wide spec, are clean
        // misses, not panics.
        assert_eq!(
            recost_spec(&narrow, &wide_result.plan, &options).unwrap(),
            None
        );
        assert_eq!(
            recost_spec(&wide, &narrow_result.plan, &options).unwrap(),
            None
        );
        // Re-costing on the two-word tier works end to end.
        let plan = recost_spec(&wide, &wide_result.plan, &options)
            .unwrap()
            .expect("wide recost");
        assert_eq!(plan.cost().to_bits(), wide_result.cost.to_bits());
        // Specs beyond the widest tier are rejected like at every other spec entry point.
        assert!(matches!(
            recost_spec(&chain_spec_with(130, 1.0), &wide_result.plan, &options),
            Err(OptimizeError::TooManyRelations { .. })
        ));
    }

    fn xorshift(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^ (x << 17)
    }

    /// A random inner-join spec of `n` relations shaped as a chain, a star, a cycle, or a
    /// chain plus the hyperedge `({0, 1}, {n − 2, n − 1})`.
    fn shaped_spec(kind: u8, n: usize, seed: u64) -> QuerySpec {
        let mut x = seed | 1;
        let mut b = QuerySpec::builder(n);
        for r in 0..n {
            x = xorshift(x);
            b.set_cardinality(r, 1.0 + (x % 100_000) as f64);
        }
        for i in 1..n {
            x = xorshift(x);
            let selectivity = 1.0 / (2.0 + (x % 1_000) as f64);
            match kind {
                1 => b.add_simple_edge(0, i, selectivity),
                _ => b.add_simple_edge(i - 1, i, selectivity),
            };
        }
        match kind {
            2 if n > 2 => {
                b.add_simple_edge(n - 1, 0, 0.5);
            }
            3 if n >= 4 => {
                b.add_edge(&[0, 1], &[n - 2, n - 1], 0.1, JoinOp::Inner);
            }
            _ => {}
        }
        b.build()
    }

    /// The plan a spec is cached with: the adaptive optimum, greedy on the two-word tier.
    fn cached_plan(spec: &QuerySpec) -> PlanNode {
        let options = AdaptiveOptions {
            ccp_budget: if spec.node_count() > 64 {
                0
            } else {
                AdaptiveOptions::default().ccp_budget
            },
            ..AdaptiveOptions::default()
        };
        AdaptiveOptimizer::new(options)
            .optimize_spec(spec)
            .unwrap()
            .plan
    }

    /// A random bushy tree over `leaves`: repeatedly joins two random subtrees of the forest.
    /// Predicates, cardinalities and costs are placeholders; a re-cost recomputes them.
    fn random_tree(leaves: &[usize], seed: u64) -> PlanNode {
        let mut forest: Vec<PlanNode> = leaves.iter().map(|&r| PlanNode::scan(r, 1.0)).collect();
        let mut x = seed | 1;
        while forest.len() > 1 {
            x = xorshift(x);
            let left = forest.swap_remove(x as usize % forest.len());
            x = xorshift(x);
            let right = forest.swap_remove(x as usize % forest.len());
            forest.push(PlanNode::join(
                JoinOp::Inner,
                left,
                right,
                Vec::new(),
                1.0,
                1.0,
            ));
        }
        forest.pop().expect("at least one leaf")
    }

    fn joins_carry_connecting_edges<const W: usize>(spec: &QuerySpec, plan: &PlanNode) -> bool {
        let (graph, _) = spec.instantiate::<W>();
        let mut ok = true;
        plan.visit(&mut |node| {
            if let PlanNode::Join {
                left,
                right,
                predicates,
                ..
            } = node
            {
                let expected =
                    graph.connecting_edges(left.relations_wide::<W>(), right.relations_wide::<W>());
                ok &= *predicates == expected;
            }
        });
        ok
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The regret ledger hands `recost_spec` plans stored under other serves. Whatever the
        /// plan — the spec's own, another spec's, a random tree over a permutation of some
        /// relation range, or one with a relation out of range, at or past 64 or 128, or
        /// joined twice — the re-cost answers `None` or a plan covering exactly the spec's
        /// relations whose every join carries its connecting edges, and never unwinds.
        #[test]
        fn prop_foreign_plans_recost_to_a_covering_plan_or_none(
            kind in 0u8..4,
            n in 2usize..10,
            wide in 0u8..5,
            source in 0u8..4,
            corrupt in 0u8..5,
            seed in any::<u64>(),
        ) {
            let n = if wide == 0 { n + 64 } else { n };
            let spec = shaped_spec(kind, n, seed);
            let own = source == 0;
            let plan = match source {
                0 => cached_plan(&spec),
                1 => {
                    let other_n = if seed.is_multiple_of(3) {
                        n
                    } else {
                        2 + (seed >> 8) as usize % 9
                    };
                    cached_plan(&shaped_spec((seed >> 4) as u8 % 4, other_n, seed >> 16))
                }
                _ => {
                    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
                    let count = if source == 2 {
                        n
                    } else {
                        1 + (seed >> 32) as usize % (n + 2)
                    };
                    let mut leaves: Vec<usize> = (0..count).collect();
                    for i in (1..leaves.len()).rev() {
                        x = xorshift(x);
                        leaves.swap(i, x as usize % (i + 1));
                    }
                    x = xorshift(x);
                    let k = x as usize % leaves.len();
                    let extra = (x >> 32) as usize % 8;
                    match corrupt {
                        0 => {}
                        1 => leaves[k] = n + extra,
                        2 => leaves[k] = 64 + extra,
                        3 => leaves[k] = 128 + extra,
                        _ => leaves[k] = leaves[(k + 1) % leaves.len()],
                    }
                    random_tree(&leaves, x)
                }
            };
            let options = AdaptiveOptions::default();
            let probed = recost_spec_with_probe(&spec, &plan, &options).unwrap();
            let unprobed = recost_spec(&spec, &plan, &options).unwrap();
            prop_assert_eq!(&unprobed, &probed.plan);
            if own {
                prop_assert_eq!(unprobed.as_ref(), Some(&plan), "own plan re-costs to itself");
            }
            // Every generated spec is connected, so the probe always finds a greedy plan,
            // whether or not the foreign plan fits.
            prop_assert!(probed.greedy_cost.is_some_and(f64::is_finite));
            if let Some(r) = probed.plan {
                let mut ids = r.relation_ids();
                ids.sort_unstable();
                prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
                let carried = if n > 64 {
                    joins_carry_connecting_edges::<2>(&spec, &r)
                } else {
                    joins_carry_connecting_edges::<1>(&spec, &r)
                };
                prop_assert!(carried);
            }
        }
    }
}
