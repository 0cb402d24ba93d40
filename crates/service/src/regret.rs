//! The regret ledger: longitudinal accounting of plan quality over repeated serve cycles —
//! and the serving-side brake that keeps that regret from growing.
//!
//! Per-serve observability answers "what did this serve cost"; the ledger answers the
//! *online* question — over repeated servings of the same query shape, how much worse were
//! the plans we served than the best plan we have ever seen for that shape, measured in
//! *true* cost (`C_out` over actual cardinalities, reported by instrumented execution)?
//! Each observation's **regret** is
//!
//! ```text
//! regret_c = true_cost_c − min(true_cost_1 … true_cost_c)
//! ```
//!
//! — served cost minus best-known-in-hindsight, so the first observation of a shape and
//! every new best have regret 0, and the feedback loop converging shows up as the per-cycle
//! regret falling to 0 and staying there.
//!
//! # Pinning: how the non-increase guarantee is earned
//!
//! The model-level "feedback never worsens cost" guarantee speaks about *modeled* cost;
//! executed cost can regress when the estimator's independence assumptions miss. The ledger
//! therefore retains, per shape, every join order whose execution has been measured
//! (identified by [`qo_plan::PlanNode::order_digest`]) with its best observed true cost. At
//! serve time the service consults [`RegretLedger::pin`]:
//!
//! * a candidate **measured worse** than the best-known order is vetoed — the proven best
//!   is re-costed under the current statistics and served instead
//!   ([`PlanSource::Pinned`](crate::PlanSource::Pinned));
//! * an **unmeasured** candidate is served (explored) only while the shape has at most one
//!   measured order; after that first exploration, novel candidates are pinned too.
//!
//! One exploration is exactly the slack the non-increase theorem needs: per shape, cycle 1
//! is regret-free by definition, cycle 2 may pay once for exploring the model's candidate,
//! and from cycle 3 on every serve is either the proven best (regret 0 on stable data) or a
//! candidate that already *is* the best. Callers who never report execution feedback
//! ([`crate::Service::observe_execution`]) keep an empty ledger and are completely
//! untouched.
//!
//! Plans are stored in the ids of the query that served them, together with a *layout*
//! digest of its canonical-to-original id mapping: two queries can share a canonical shape
//! while labeling their relations differently, and a pinned order is only ever handed to a
//! serve whose layout matches — cross-layout serves fall back to the model's candidate.

use crate::lock_recovering;
use dphyp::PlanTier;
use qo_plan::PlanNode;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Relative margin a measured candidate must exceed the best-known true cost by before it is
/// vetoed — ties and float noise must not cause churn between equivalent plans.
const PIN_MARGIN: f64 = 1e-9;

/// Measured join orders retained per shape. Feedback converges after a handful of distinct
/// orders; the cap only bounds pathological callers.
const MAX_PLANS_PER_SHAPE: usize = 16;

/// Cumulative regret state of one query shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShapeRegret {
    /// The shape fingerprint this entry tracks.
    pub shape: u64,
    /// Observations (serve-execute-report cycles) recorded for this shape.
    pub cycles: u64,
    /// Distinct join orders measured for this shape.
    pub plans: u64,
    /// True cost of the most recent observation.
    pub last_true_cost: f64,
    /// Best (lowest) true cost ever observed for this shape.
    pub best_true_cost: f64,
    /// Regret of the most recent observation: `last_true_cost − best_true_cost`.
    pub last_regret: f64,
    /// Sum of per-cycle regrets over all observations.
    pub cumulative_regret: f64,
}

/// What the ledger knows about one measured join order of a shape.
struct PlanRecord {
    /// The order itself, in the serving query's original relation/edge ids.
    plan: PlanNode,
    /// Digest of the serving query's canonical-to-original id mapping.
    layout: u64,
    /// The tier that originally produced it.
    tier: PlanTier,
    /// Best true cost measured for this order.
    true_cost: f64,
}

/// Per-shape ledger state: the public regret counters plus the measured-plan registry
/// backing the pinning decision.
struct ShapeState {
    regret: ShapeRegret,
    /// Measured orders by [`PlanNode::order_digest`].
    plans: BTreeMap<u64, PlanRecord>,
    /// Digest of the measured order with the lowest true cost.
    best_digest: Option<u64>,
}

/// The serving decision [`RegretLedger::pin`] hands back: serve this proven order instead of
/// the candidate.
pub(crate) struct PinnedPlan {
    /// The proven-best order, in the requesting layout's original ids (re-cost it under the
    /// current statistics before serving).
    pub plan: PlanNode,
    /// Its [`PlanNode::order_digest`].
    pub digest: u64,
    /// The tier that originally produced it.
    pub tier: PlanTier,
}

/// Thread-safe per-shape regret accounting. One instance lives in the service; every
/// `observe` call (driven by `Service::observe_execution`) corresponds to one
/// executed-and-reported serve.
#[derive(Default)]
pub struct RegretLedger {
    shapes: Mutex<BTreeMap<u64, ShapeState>>,
    pins: AtomicU64,
}

impl RegretLedger {
    /// An empty ledger.
    pub fn new() -> RegretLedger {
        RegretLedger::default()
    }

    /// The per-shape states, taken as-is even after a panic under their lock: every update
    /// leaves them valid at each step (a plan record exists before `best_digest` names it).
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, ShapeState>> {
        lock_recovering(&self.shapes, |_| {})
    }

    /// The pinning decision for one about-to-be-served candidate (see the module docs):
    /// `Some` when the candidate must be replaced by the proven-best order. Only orders
    /// measured under the same `layout` are ever handed out.
    pub(crate) fn pin(&self, shape: u64, layout: u64, candidate_digest: u64) -> Option<PinnedPlan> {
        let shapes = self.lock();
        let state = shapes.get(&shape)?;
        let best_digest = state.best_digest?;
        if best_digest == candidate_digest {
            return None;
        }
        let best = &state.plans[&best_digest];
        if best.layout != layout {
            return None;
        }
        let veto = match state.plans.get(&candidate_digest) {
            // Measured worse than the proven best: never serve it again.
            Some(measured) => measured.true_cost > best.true_cost * (1.0 + PIN_MARGIN),
            // Unmeasured: explore only while at most one order has been measured.
            None => state.plans.len() >= 2,
        };
        if !veto {
            return None;
        }
        self.pins.fetch_add(1, Ordering::Relaxed);
        Some(PinnedPlan {
            plan: best.plan.clone(),
            digest: best_digest,
            tier: best.tier,
        })
    }

    /// Serves answered by pinning the proven-best order over the model's candidate.
    pub fn pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Records one observed execution of shape `shape` with the given true cost, linking the
    /// measured cost to the served order (`digest`, `plan`, `layout`, `tier`). Returns this
    /// observation's regret (0 for a first observation or a new best).
    pub(crate) fn observe(
        &self,
        shape: u64,
        layout: u64,
        digest: u64,
        tier: PlanTier,
        plan: &PlanNode,
        true_cost: f64,
    ) -> f64 {
        let mut shapes = self.lock();
        let state = shapes.entry(shape).or_insert_with(|| ShapeState {
            regret: ShapeRegret {
                shape,
                cycles: 0,
                plans: 0,
                last_true_cost: true_cost,
                best_true_cost: true_cost,
                last_regret: 0.0,
                cumulative_regret: 0.0,
            },
            plans: BTreeMap::new(),
            best_digest: None,
        });
        if state.plans.len() < MAX_PLANS_PER_SHAPE || state.plans.contains_key(&digest) {
            let record = state.plans.entry(digest).or_insert_with(|| PlanRecord {
                plan: plan.clone(),
                layout,
                tier,
                true_cost,
            });
            record.true_cost = record.true_cost.min(true_cost);
            let measured = record.true_cost;
            let best_cost = state.best_digest.map(|d| state.plans[&d].true_cost);
            if best_cost.is_none_or(|c| measured < c) {
                state.best_digest = Some(digest);
            }
        }
        let entry = &mut state.regret;
        entry.cycles += 1;
        entry.plans = state.plans.len() as u64;
        entry.best_true_cost = entry.best_true_cost.min(true_cost);
        let regret = true_cost - entry.best_true_cost;
        entry.last_true_cost = true_cost;
        entry.last_regret = regret;
        entry.cumulative_regret += regret;
        regret
    }

    /// The per-shape entries, ordered by shape fingerprint.
    pub fn shapes(&self) -> Vec<ShapeRegret> {
        self.lock().values().map(|s| s.regret).collect()
    }

    /// The entry for one shape, if observed.
    pub fn shape(&self, shape: u64) -> Option<ShapeRegret> {
        self.lock().get(&shape).map(|s| s.regret)
    }

    /// Total observations across all shapes.
    pub fn cycles(&self) -> u64 {
        self.lock().values().map(|s| s.regret.cycles).sum()
    }

    /// Sum of cumulative regrets across all shapes.
    pub fn total_regret(&self) -> f64 {
        self.lock()
            .values()
            .map(|s| s.regret.cumulative_regret)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUT: u64 = 0xABCD;

    fn plan(relation: usize) -> PlanNode {
        PlanNode::scan(relation, 10.0)
    }

    fn observe(ledger: &RegretLedger, shape: u64, relation: usize, true_cost: f64) -> f64 {
        let p = plan(relation);
        ledger.observe(
            shape,
            LAYOUT,
            p.order_digest(),
            PlanTier::Exact,
            &p,
            true_cost,
        )
    }

    #[test]
    fn first_observation_and_new_bests_have_zero_regret() {
        let ledger = RegretLedger::new();
        assert_eq!(
            observe(&ledger, 7, 0, 100.0),
            0.0,
            "first sight: no hindsight yet"
        );
        assert_eq!(
            observe(&ledger, 7, 1, 80.0),
            0.0,
            "a new best is regret-free"
        );
        let s = ledger.shape(7).unwrap();
        assert_eq!(s.best_true_cost, 80.0);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.plans, 2);
        assert_eq!(s.cumulative_regret, 0.0);
    }

    #[test]
    fn regret_is_excess_over_best_known_and_accumulates() {
        let ledger = RegretLedger::new();
        observe(&ledger, 1, 0, 50.0);
        assert_eq!(observe(&ledger, 1, 1, 90.0), 40.0);
        assert_eq!(observe(&ledger, 1, 2, 60.0), 10.0);
        let s = ledger.shape(1).unwrap();
        assert_eq!(s.last_true_cost, 60.0);
        assert_eq!(s.last_regret, 10.0);
        assert_eq!(s.cumulative_regret, 50.0);
        assert_eq!(s.best_true_cost, 50.0);
    }

    #[test]
    fn shapes_are_independent_and_aggregates_sum_over_them() {
        let ledger = RegretLedger::new();
        observe(&ledger, 1, 0, 10.0);
        observe(&ledger, 1, 1, 14.0);
        observe(&ledger, 2, 0, 5.0);
        observe(&ledger, 2, 0, 5.0);
        assert_eq!(ledger.shapes().len(), 2);
        assert_eq!(ledger.cycles(), 4);
        assert_eq!(ledger.total_regret(), 4.0);
        assert_eq!(ledger.shape(2).unwrap().cumulative_regret, 0.0);
        assert_eq!(ledger.shape(3), None);
    }

    #[test]
    fn pin_vetoes_measured_worse_candidates_and_serves_the_proven_best() {
        let ledger = RegretLedger::new();
        let (best, worse) = (plan(0), plan(1));
        observe(&ledger, 9, 0, 50.0);
        // One measured order: an unmeasured candidate may still explore.
        assert!(ledger.pin(9, LAYOUT, plan(2).order_digest()).is_none());
        observe(&ledger, 9, 1, 90.0);
        // The measured-worse order is vetoed in favor of the best…
        let pinned = ledger
            .pin(9, LAYOUT, worse.order_digest())
            .expect("measured-worse candidate must be vetoed");
        assert_eq!(pinned.digest, best.order_digest());
        assert_eq!(pinned.plan, best);
        // …the best itself is never vetoed…
        assert!(ledger.pin(9, LAYOUT, best.order_digest()).is_none());
        // …and after that first failed exploration, novel candidates are pinned too.
        assert!(ledger.pin(9, LAYOUT, plan(2).order_digest()).is_some());
        assert_eq!(ledger.pins(), 2);
        // Other shapes and other layouts are untouched.
        assert!(ledger.pin(8, LAYOUT, worse.order_digest()).is_none());
        assert!(
            ledger.pin(9, LAYOUT ^ 1, worse.order_digest()).is_none(),
            "a pinned order is never handed to a different relation layout"
        );
    }

    #[test]
    fn a_measured_improvement_takes_over_as_the_pin_target() {
        let ledger = RegretLedger::new();
        observe(&ledger, 4, 0, 50.0);
        observe(&ledger, 4, 1, 30.0);
        let pinned = ledger
            .pin(4, LAYOUT, plan(0).order_digest())
            .expect("the old best is now measured-worse");
        assert_eq!(pinned.digest, plan(1).order_digest());
        assert_eq!(ledger.shape(4).unwrap().best_true_cost, 30.0);
    }
}
