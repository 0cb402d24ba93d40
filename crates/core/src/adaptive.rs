//! The adaptive optimization driver: budgeted exact DPhyp with tiered fallbacks.
//!
//! Exact DP enumerates one csg-cmp-pair per cost-function call, so the pair count *is* the
//! optimization time — and it explodes on dense query shapes (a star with `n` relations has
//! `(n−1)·2^(n−2)` pairs, ≈ `10^30` at `n = 96`). A production planner cannot hand such queries
//! back to the caller; it must degrade gracefully. The driver runs three tiers:
//!
//! 1. **Exact** — DPhyp under a csg-cmp-pair budget ([`AdaptiveOptions::ccp_budget`]), on the
//!    same code path as the unbudgeted [`Optimizer`](crate::Optimizer). The budget is enforced
//!    *inside* the enumeration: the [`qo_catalog::BudgetedHandler`] answers
//!    [`Abort`](qo_catalog::EmitSignal::Abort) from `EmitCsgCmp` once it is spent and
//!    [`DpHyp`](crate::DpHyp) unwinds immediately, so an over-budget query costs at most
//!    `budget` pair emissions, never the full (possibly astronomical) enumeration. The budget
//!    counts pairs, not wall time, so the tier and the plan never depend on the host's speed.
//!
//!    Before enumerating, the driver computes [`qo_hypergraph::ccp_lower_bound`], the exact
//!    pair count of a spanning tree of the simple edges, in linear time. When it is strictly
//!    above the budget and the query has no lateral references (so DPhyp emits every pair of
//!    the graph), the exact tier is certain to abort and is skipped: no `enumerate` span,
//!    `exact_ccps = 0` and [`BudgetTelemetry::exact_skipped`] set. The fallback
//!    that follows is exactly the one an aborted enumeration would have reached, so the tier
//!    and plan are unchanged.
//! 2. **IDP** — [`idp`](crate::idp()), iterative dynamic programming with block size `k`. Each
//!    round's block DP is [`DpHyp`](crate::DpHyp) itself, run over the quotient hypergraph of
//!    the selected blocks, so both DP tiers share one enumerator. The driver shrinks `k` until
//!    `3^k`, a bound on one round's csg-cmp-pairs (a clique of `k` blocks has fewer than
//!    `3^k/2`), fits the same budget, so a *round* never exceeds it; total fallback work is
//!    at most `rounds × 3^k` (at most `⌈n/(k−1)⌉` rounds), i.e. a small multiple of the budget
//!    rather than a hard cap — [`BudgetTelemetry::fallback_cost_calls`] reports what was
//!    actually spent.
//! 3. **Greedy** — [`qo_baselines::goo`] as the last resort when even a 2-block DP would not
//!    fit (budget < 9) or IDP could not complete a plan.
//!
//! [`OptimizeResult`] reports which tier produced the plan (any tier but
//! [`PlanTier::Exact`] means the exact tier aborted or was skipped) and the budget telemetry
//! (pairs spent in the exact tier, whether it was skipped, the effective `k`). Width
//! dispatch works like [`Optimizer::optimize_spec`](crate::Optimizer::optimize_spec): hand the
//! driver a width-agnostic [`QuerySpec`] and it instantiates the narrowest sufficient node-set
//! width.
//!
//! ```
//! use dphyp::{optimize_adaptive, AdaptiveOptimizer, AdaptiveOptions, PlanTier, QuerySpec};
//!
//! // A 40-relation star: 39·2^38 ≈ 10^13 csg-cmp-pairs — hopeless for exact enumeration.
//! let mut b = QuerySpec::builder(40);
//! for i in 1..40 {
//!     b.add_simple_edge(0, i, 0.01);
//! }
//! let star = b.build();
//! let driver = AdaptiveOptimizer::new(AdaptiveOptions {
//!     ccp_budget: 50_000, // the default is 1M; a small budget keeps the example fast
//!     ..Default::default()
//! });
//! let result = driver.optimize_spec(&star).unwrap();
//! assert_ne!(result.tier, PlanTier::Exact); // the driver fell back automatically …
//! assert_eq!(result.plan.scan_count(), 40); // … and still produced a complete plan.
//! // Its spanning tree alone has more pairs than the budget, so not one was enumerated.
//! assert!(result.telemetry.exact_skipped);
//! assert_eq!(result.telemetry.exact_ccps, 0);
//!
//! // Queries whose pair count fits the budget stay exact — bit-identical to plain DPhyp.
//! let mut b = QuerySpec::builder(20);
//! for i in 0..19 {
//!     b.add_simple_edge(i, i + 1, 0.01);
//! }
//! let chain = b.build();
//! let result = optimize_adaptive(&chain).unwrap();
//! assert_eq!(result.tier, PlanTier::Exact);
//! assert_eq!(result.telemetry.exact_ccps, (20 * 20 * 20 - 20) / 6);
//! ```

use crate::idp::{idp, MAX_IDP_BLOCK_SIZE};
use crate::optimizer::{exact_dp, CostModelKind, ExactDp, OptimizeError};
use crate::query::QuerySpec;
use qo_baselines::{goo, BaselineResult};
use qo_catalog::{Catalog, CostModel, CoutCost, MixedCost};
use qo_hypergraph::{ccp_lower_bound, Hypergraph};
use qo_obsv::Span;
use qo_plan::PlanNode;
use std::fmt;

/// Options of the [`AdaptiveOptimizer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveOptions {
    /// Maximum csg-cmp-pairs the exact tier may process before the enumeration is aborted and
    /// the driver falls back. A budget exactly equal to a query's true pair count still
    /// completes exactly (the abort fires strictly *beyond* the budget).
    pub ccp_budget: usize,
    /// Upper bound on the IDP block size `k`; the effective `k` additionally shrinks until one
    /// block round's bound (`3^k` csg-cmp-pairs of DPhyp over the round's quotient hypergraph)
    /// fits `ccp_budget`. Capped at [`MAX_IDP_BLOCK_SIZE`]. Each round selects its blocks by
    /// connectivity: the block with the most hyperedges into the selection joins it next,
    /// the smallest cardinality among equals.
    pub idp_block_size: usize,
    /// Cost model shared by all tiers.
    pub cost_model: CostModelKind,
}

impl Default for AdaptiveOptions {
    /// One million pairs (≈ 14–180 ms of cost-based enumeration at the 14–180 ns per pair
    /// measured on a 2-core x86-64 VM over chain, cycle, star and clique shapes, the low end
    /// on cliques, where the cost floor skips most pairs — chain/cycle queries of 100+
    /// relations stay exact, 20+-relation stars fall back) and blocks of up to 10.
    fn default() -> Self {
        AdaptiveOptions {
            ccp_budget: 1_000_000,
            idp_block_size: 10,
            cost_model: CostModelKind::Cout,
        }
    }
}

/// Which tier of the adaptive driver produced the final plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTier {
    /// Exact DPhyp completed within the budget; the plan is optimal.
    Exact,
    /// Iterative dynamic programming (IDP-k): optimal within each block, greedy across blocks.
    Idp,
    /// Greedy operator ordering: valid, no optimality guarantee.
    Greedy,
}

impl fmt::Display for PlanTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            PlanTier::Exact => "exact",
            PlanTier::Idp => "idp",
            PlanTier::Greedy => "greedy",
        })
    }
}

/// Budget telemetry of one adaptive optimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetTelemetry {
    /// The configured csg-cmp-pair budget.
    pub ccp_budget: usize,
    /// Pairs the exact tier processed before completing or aborting (≤ `ccp_budget`; `0` when
    /// the tier was skipped).
    pub exact_ccps: usize,
    /// Was the exact tier skipped without enumerating a single pair, because a spanning-tree
    /// lower bound on the query's csg-cmp-pair count ([`qo_hypergraph::ccp_lower_bound`])
    /// already exceeds `ccp_budget`? Implies a fallback tier. Only queries without lateral
    /// references are skipped: for those, DPhyp provably emits every pair of the graph.
    pub exact_skipped: bool,
    /// Effective IDP block size, shrunk to fit the budget (`0` when the IDP tier did not run).
    pub idp_k: usize,
    /// Cost-function calls made by the fallback tier (`0` in the exact tier): IDP's costed
    /// candidates, or GOO's combines, one per connected pair of live classes it ever held.
    pub fallback_cost_calls: usize,
}

/// The result of an adaptive optimization: the plan, which tier produced it, and the budget
/// telemetry.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// The best plan the winning tier found.
    pub plan: PlanNode,
    /// Its cost under the configured cost model.
    pub cost: f64,
    /// Its estimated output cardinality.
    pub cardinality: f64,
    /// The tier that produced the plan.
    pub tier: PlanTier,
    /// How the budget was spent.
    pub telemetry: BudgetTelemetry,
    /// DP-table entries materialized by the winning tier.
    pub dp_entries: usize,
}

/// The tiered driver: budgeted exact DPhyp, then IDP-k, then GOO.
///
/// See the [module documentation](self) for the tier semantics and a usage example.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveOptimizer {
    options: AdaptiveOptions,
}

impl AdaptiveOptimizer {
    /// Creates a driver with the given options.
    pub fn new(options: AdaptiveOptions) -> Self {
        AdaptiveOptimizer { options }
    }

    /// The options this driver runs with.
    pub fn options(&self) -> &AdaptiveOptions {
        &self.options
    }

    /// Optimizes a width-agnostic [`QuerySpec`], picking node-set width *and* algorithm tier:
    /// the width is dispatched once per optimization through the same ladder as
    /// [`Optimizer::optimize_spec`](crate::Optimizer::optimize_spec), and within the chosen
    /// width the driver walks the tiers until one produces a plan.
    pub fn optimize_spec(&self, spec: &QuerySpec) -> Result<OptimizeResult, OptimizeError> {
        crate::query::with_width_dispatch(
            spec,
            |graph, catalog| self.optimize_hypergraph(graph, catalog),
            |graph, catalog| self.optimize_hypergraph(graph, catalog),
        )?
    }

    /// Runs the tiered driver over an already-instantiated hypergraph and catalog.
    pub fn optimize_hypergraph<const W: usize>(
        &self,
        graph: &Hypergraph<W>,
        catalog: &Catalog<W>,
    ) -> Result<OptimizeResult, OptimizeError> {
        match self.options.cost_model {
            CostModelKind::Cout => self.drive(graph, catalog, &CoutCost),
            CostModelKind::Mixed => self.drive(graph, catalog, &MixedCost),
        }
    }

    fn drive<M: CostModel<W>, const W: usize>(
        &self,
        graph: &Hypergraph<W>,
        catalog: &Catalog<W>,
        cost_model: &M,
    ) -> Result<OptimizeResult, OptimizeError> {
        catalog
            .validate_for(graph)
            .map_err(OptimizeError::InvalidCatalog)?;

        // Tier 1 is skipped when it is certain to abort. Without lateral references (and the
        // driver never enforces TES) every union is registered, so DPhyp emits every
        // csg-cmp-pair of the graph; a lower bound strictly above the budget guarantees the
        // `budget + 1`-th pair, the one the budgeted handler aborts on.
        let doomed = !catalog.has_lateral_refs()
            && ccp_lower_bound(graph).is_some_and(|b| b > self.options.ccp_budget as u128);
        let mut telemetry = BudgetTelemetry {
            ccp_budget: self.options.ccp_budget,
            exact_ccps: 0,
            exact_skipped: doomed,
            idp_k: 0,
            fallback_cost_calls: 0,
        };
        if !doomed {
            // Tier 1: exact DPhyp under the pair budget, without the TES check, which only the
            // `Optimizer`'s Fig. 8a comparison enables.
            let budget = self.options.ccp_budget;
            match exact_dp(graph, catalog, cost_model, false, budget) {
                ExactDp::Complete(result) => {
                    let exact = result?;
                    telemetry.exact_ccps = exact.ccp_count;
                    return Ok(OptimizeResult {
                        plan: exact.plan,
                        cost: exact.cost,
                        cardinality: exact.cardinality,
                        tier: PlanTier::Exact,
                        telemetry,
                        dp_entries: exact.dp_entries,
                    });
                }
                ExactDp::Aborted { ccps } => telemetry.exact_ccps = ccps,
            }
        }

        // Tier 2: IDP with the block size shrunk until one round's worst case (3^k pairs)
        // fits the same budget.
        if let Some(k) = self.effective_idp_k() {
            telemetry.idp_k = k;
            let _span = Span::enter("idp");
            // A plan IDP cannot complete (pathological hyperedge connectivity) may still be
            // reachable by GOO's exhaustive pair scan — fall through on `None`.
            if let Some(r) = idp(graph, catalog, cost_model, k) {
                return Ok(finish_fallback(r, PlanTier::Idp, telemetry));
            }
        }

        // Tier 3: greedy operator ordering.
        let _span = Span::enter("greedy");
        let r = goo(graph, catalog, cost_model)?;
        Ok(finish_fallback(r, PlanTier::Greedy, telemetry))
    }

    /// Largest block size `k ≤ idp_block_size` whose single-round worst case (`3^k`
    /// csg-cmp-pairs) fits the ccp budget, or `None` if not even `k = 2` fits.
    fn effective_idp_k(&self) -> Option<usize> {
        let cap = self.options.idp_block_size.min(MAX_IDP_BLOCK_SIZE);
        (2..=cap)
            .take_while(|&k| 3usize.pow(k as u32) <= self.options.ccp_budget)
            .last()
    }
}

fn finish_fallback(r: BaselineResult, tier: PlanTier, mut t: BudgetTelemetry) -> OptimizeResult {
    t.fallback_cost_calls = r.cost_calls;
    OptimizeResult {
        plan: r.plan,
        cost: r.cost,
        cardinality: r.cardinality,
        tier,
        telemetry: t,
        dp_entries: r.dp_entries,
    }
}

/// Convenience shorthand: adaptively optimizes a width-agnostic spec with [`AdaptiveOptions`]
/// defaults (1M-pair budget, IDP blocks of up to 10, `C_out`).
pub fn optimize_adaptive(spec: &QuerySpec) -> Result<OptimizeResult, OptimizeError> {
    AdaptiveOptimizer::default().optimize_spec(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize_spec;
    use qo_plan::JoinOp;

    fn chain_spec(n: usize) -> QuerySpec {
        let mut b = QuerySpec::builder(n);
        for i in 0..n {
            b.set_cardinality(i, 100.0 + i as f64);
        }
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1, 0.01);
        }
        b.build()
    }

    fn star_spec(satellites: usize) -> QuerySpec {
        let n = satellites + 1;
        let mut b = QuerySpec::builder(n);
        b.set_cardinality(0, 50_000.0);
        for i in 1..n {
            b.set_cardinality(i, 10.0 * i as f64);
            b.add_simple_edge(0, i, 0.003);
        }
        b.build()
    }

    #[test]
    fn ample_budget_is_bit_identical_to_plain_dphyp() {
        for spec in [chain_spec(20), star_spec(11)] {
            let exact = optimize_spec(&spec).unwrap();
            let adaptive = optimize_adaptive(&spec).unwrap();
            assert_eq!(adaptive.tier, PlanTier::Exact);
            assert_eq!(adaptive.cost, exact.cost, "costs must be bit-identical");
            assert_eq!(adaptive.cardinality, exact.cardinality);
            assert_eq!(adaptive.telemetry.exact_ccps, exact.ccp_count);
            assert_eq!(adaptive.dp_entries, exact.dp_entries);
            assert_eq!(adaptive.telemetry.idp_k, 0);
        }
    }

    #[test]
    fn budget_equal_to_true_ccp_count_stays_exact() {
        let spec = chain_spec(12);
        let true_ccps = optimize_spec(&spec).unwrap().ccp_count;
        let at_budget = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: true_ccps,
            ..Default::default()
        })
        .optimize_spec(&spec)
        .unwrap();
        assert_eq!(
            at_budget.tier,
            PlanTier::Exact,
            "budget == ccp count must not fall back (off-by-one)"
        );
        assert_eq!(at_budget.telemetry.exact_ccps, true_ccps);
        // One pair less, and the driver must degrade.
        let below = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: true_ccps - 1,
            ..Default::default()
        })
        .optimize_spec(&spec)
        .unwrap();
        assert_ne!(below.tier, PlanTier::Exact);
        // A chain is its own spanning tree, so the lower bound is the true count: the doomed
        // exact tier is skipped outright.
        assert!(below.telemetry.exact_skipped);
        assert_eq!(below.telemetry.exact_ccps, 0);
    }

    #[test]
    fn tiny_budgets_still_return_valid_greedy_plans() {
        let spec = star_spec(9);
        for budget in [0usize, 1] {
            let r = AdaptiveOptimizer::new(AdaptiveOptions {
                ccp_budget: budget,
                ..Default::default()
            })
            .optimize_spec(&spec)
            .unwrap();
            assert_eq!(r.tier, PlanTier::Greedy, "budget {budget}");
            assert_eq!(r.plan.scan_count(), 10);
            assert_eq!(r.plan.join_count(), 9);
            assert!(r.telemetry.exact_ccps <= budget);
            assert_eq!(
                r.telemetry.idp_k, 0,
                "no IDP round fits a budget of {budget}"
            );
            assert!(r.telemetry.fallback_cost_calls > 0);
        }
    }

    #[test]
    fn over_budget_stars_fall_back_to_idp() {
        // star-17: 16 · 2^15 = 524288 pairs; budget 10k forces the fallback, 3^8 < 10k keeps
        // IDP feasible at k = 8.
        let spec = star_spec(16);
        let r = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: 10_000,
            ..Default::default()
        })
        .optimize_spec(&spec)
        .unwrap();
        assert_eq!(r.tier, PlanTier::Idp);
        assert_eq!(r.telemetry.idp_k, 8);
        assert!(r.telemetry.exact_skipped);
        assert_eq!(r.telemetry.exact_ccps, 0);
        assert_eq!(r.plan.scan_count(), 17);
        // The fallback plan cannot beat the true optimum.
        let exact = optimize_spec(&spec).unwrap();
        assert!(r.cost >= exact.cost - 1e-9);
    }

    #[test]
    fn lateral_references_keep_the_exact_tier_enumerating() {
        // With a lateral reference some unions are never registered, so DPhyp may emit fewer
        // pairs than the graph has; the bound cannot decide, and the budget aborts instead.
        let mut b = QuerySpec::builder(17);
        b.set_lateral_refs(16, &[0]);
        for i in 1..17 {
            b.add_simple_edge(0, i, 0.01);
        }
        let r = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: 10_000,
            ..Default::default()
        })
        .optimize_spec(&b.build())
        .unwrap();
        assert_ne!(r.tier, PlanTier::Exact);
        assert!(!r.telemetry.exact_skipped);
        assert_eq!(r.telemetry.exact_ccps, 10_000);
    }

    #[test]
    fn effective_block_size_shrinks_with_the_budget() {
        let k_for = |budget| {
            AdaptiveOptimizer::new(AdaptiveOptions {
                ccp_budget: budget,
                ..Default::default()
            })
            .effective_idp_k()
        };
        assert_eq!(k_for(0), None);
        assert_eq!(k_for(8), None); // 3^2 = 9 > 8
        assert_eq!(k_for(9), Some(2));
        assert_eq!(k_for(100), Some(4)); // 3^4 = 81 ≤ 100 < 3^5
        assert_eq!(k_for(1_000_000), Some(10)); // capped by idp_block_size
    }

    #[test]
    fn width_dispatch_covers_wide_specs_and_rejects_oversized_ones() {
        // An 80-relation chain is cheap even exactly — runs on the two-word tier.
        let r = optimize_adaptive(&chain_spec(80)).unwrap();
        assert_eq!(r.tier, PlanTier::Exact);
        assert_eq!(r.plan.scan_count(), 80);
        let err = optimize_adaptive(&chain_spec(200)).unwrap_err();
        assert!(matches!(err, OptimizeError::TooManyRelations { .. }));
    }

    #[test]
    fn adaptive_honors_the_cost_model_choice() {
        let spec = chain_spec(6);
        let cout = AdaptiveOptimizer::new(AdaptiveOptions::default())
            .optimize_spec(&spec)
            .unwrap();
        let mixed = AdaptiveOptimizer::new(AdaptiveOptions {
            cost_model: CostModelKind::Mixed,
            ..Default::default()
        })
        .optimize_spec(&spec)
        .unwrap();
        assert_eq!(cout.tier, PlanTier::Exact);
        assert_eq!(mixed.tier, PlanTier::Exact);
        assert_ne!(cout.cost, mixed.cost, "models cost plans differently");
        assert!(cout.plan.operators().iter().all(|o| *o == JoinOp::Inner));
    }

    /// Asserts that the one-pair-budget fallback (exact tier aborted, no IDP block size since
    /// 3^2 > 1, greedy stuck) and the unbudgeted exact tier both fail with `largest_covered`.
    fn assert_largest_covered(spec: &QuerySpec, largest_covered: usize) {
        let fallback = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: 1,
            ..Default::default()
        })
        .optimize_spec(spec)
        .unwrap_err();
        let exact = optimize_adaptive(spec).unwrap_err();
        for err in [fallback, exact] {
            assert_eq!(err, OptimizeError::NoCompletePlan { largest_covered });
        }
    }

    #[test]
    fn fallback_tiers_report_the_largest_connected_set_of_a_disconnected_spec() {
        // Components {0, 1, 2} and {3, 4}.
        let mut b = QuerySpec::builder(5);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 2, 0.1);
        b.add_simple_edge(3, 4, 0.1);
        assert_largest_covered(&b.build(), 3);
    }

    #[test]
    fn fallback_tiers_report_a_connected_set_past_an_unsatisfiable_hyperedge() {
        // The chain 2 - 3 - 4 is the largest connected set. The hyperedge {0, 1} - {2} puts
        // all five relations in one component, but nothing connects 0 and 1, so it never fires.
        let mut b = QuerySpec::builder(5);
        b.add_simple_edge(2, 3, 0.1);
        b.add_simple_edge(3, 4, 0.1);
        b.add_edge(&[0, 1], &[2], 0.1, JoinOp::Inner);
        assert_largest_covered(&b.build(), 3);
    }

    #[test]
    fn disconnected_specs_error_in_every_tier() {
        let mut b = QuerySpec::builder(4);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(2, 3, 0.1);
        let spec = b.build();
        // Exact tier reports the largest covered set.
        let err = optimize_adaptive(&spec).unwrap_err();
        assert!(matches!(err, OptimizeError::NoCompletePlan { .. }));
        // Forced-fallback path must error too, not loop or panic.
        let err = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: 0,
            ..Default::default()
        })
        .optimize_spec(&spec)
        .unwrap_err();
        assert!(matches!(err, OptimizeError::NoCompletePlan { .. }));
    }

    #[test]
    fn connectivity_aware_block_selection_never_degrades_the_96_star() {
        // The driver's motivating query: a 96-relation star, exact enumeration structurally
        // infeasible, answered by the IDP tier with one complete plan.
        let n = 96;
        let mut b = QuerySpec::builder(n);
        b.set_cardinality(0, 1_000_000.0);
        for i in 1..n {
            b.set_cardinality(i, 10.0 + (i as f64) * 7.0);
            b.add_simple_edge(0, i, 0.001 + 0.0001 * (i as f64));
        }
        let r = AdaptiveOptimizer::default()
            .optimize_spec(&b.build())
            .unwrap();
        assert_eq!(r.tier, PlanTier::Idp);
        assert_eq!(r.plan.relations_wide::<2>().len(), n);
        assert_eq!(r.plan.join_count(), n - 1);
        assert!(r.cost.is_finite() && r.cost > 0.0);
    }

    #[test]
    fn tier_display_names_are_stable() {
        assert_eq!(PlanTier::Exact.to_string(), "exact");
        assert_eq!(PlanTier::Idp.to_string(), "idp");
        assert_eq!(PlanTier::Greedy.to_string(), "greedy");
    }
}
