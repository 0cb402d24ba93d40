//! [`ObservedStats`]: a statistics overlay fed back from actual plan execution.
//!
//! The feedback loop's currency. An executor (e.g. `qo-exec`) measures what a plan actually
//! did — true base-relation cardinalities, per-edge selectivities inverted from observed join
//! outputs — and records it here, sparsely: only what was observed overrides the a-priori
//! catalog, everything else keeps its estimate. Applying the overlay to a [`Catalog`] produces
//! a new catalog whose [`Catalog::stats_epoch`] differs whenever any observation moved a
//! statistic, which is exactly the signal the plan-cache layer (`qo-service`) treats as stats
//! drift: the cached join order is re-costed under the observed statistics and re-optimized in
//! full when it has demonstrably gone stale.

use crate::catalog::{Catalog, EdgeAnnotation};
use qo_bitset::NodeId;
use qo_hypergraph::EdgeId;
use std::collections::BTreeMap;

/// Observed selectivities are clamped into `[MIN_SELECTIVITY, 1]` so that a join observed to
/// produce zero rows still yields a catalog every validation accepts (selectivities must lie
/// in `(0, 1]`).
const MIN_SELECTIVITY: f64 = 1e-12;

/// The distilled scalar signal of one instrumented plan execution, as a serving layer
/// consumes it: the plan's *true* cost (`C_out` evaluated over actual intermediate
/// cardinalities) and the estimation error that produced it. Where [`ObservedStats`] feeds
/// the *planner* (re-optimize under reality), `ExecutionFeedback` feeds the *operator*:
/// `qo-exec`'s `ObservedExecution::feedback()` builds one, and `qo-service` records it into
/// its flight recorder and regret ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionFeedback {
    /// Sum of actual intermediate cardinalities over all join nodes — the executed plan's
    /// cost under reality instead of estimates.
    pub true_cost: f64,
    /// Largest per-join q-error of the execution (1.0 for a plan with no joins).
    pub max_q_error: f64,
    /// Median per-join q-error of the execution.
    pub median_q_error: f64,
}

/// Sparse statistics observed from executing a plan: per-relation true cardinalities and
/// per-edge observed selectivities. Unobserved ids have no entry and fall through to the base
/// catalog when the overlay is [applied](ObservedStats::apply). Each observation is one map
/// entry, so an id costs the same memory whatever its value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObservedStats {
    cardinalities: BTreeMap<NodeId, f64>,
    selectivities: BTreeMap<EdgeId, f64>,
}

impl ObservedStats {
    /// An empty overlay (applies as the identity).
    pub fn new() -> Self {
        ObservedStats::default()
    }

    /// Records the true cardinality of a base relation.
    pub fn observe_cardinality(&mut self, relation: NodeId, cardinality: f64) {
        self.cardinalities.insert(relation, cardinality.max(0.0));
    }

    /// Records the observed selectivity of a predicate edge, clamped into `(0, 1]` (a join
    /// that produced zero rows observes the minimum representable selectivity, not zero).
    pub fn observe_selectivity(&mut self, edge: EdgeId, selectivity: f64) {
        self.selectivities
            .insert(edge, selectivity.clamp(MIN_SELECTIVITY, 1.0));
    }

    /// The observed cardinality of a relation, if any.
    pub fn cardinality(&self, relation: NodeId) -> Option<f64> {
        self.cardinalities.get(&relation).copied()
    }

    /// The observed selectivity of an edge, if any.
    pub fn selectivity(&self, edge: EdgeId) -> Option<f64> {
        self.selectivities.get(&edge).copied()
    }

    /// Does the overlay carry no observation at all?
    pub fn is_empty(&self) -> bool {
        self.cardinalities.is_empty() && self.selectivities.is_empty()
    }

    /// Overlays the observations onto a base catalog: observed cardinalities and selectivities
    /// replace their estimates, everything else (lateral references, operators, TES splits,
    /// unobserved statistics) is carried over unchanged. Any observation that moved a statistic
    /// bumps the resulting catalog's [`Catalog::stats_epoch`].
    ///
    /// Observations of relations past the catalog's relation count are ignored. An observed
    /// edge past its annotated range extends the range, the gap keeping default annotations:
    /// the overlay is meant for the catalog of the graph its edge ids came from.
    ///
    /// # Panics
    /// The catalog stores one annotation per edge id up to the largest annotated one
    /// ([`CatalogBuilder::annotate_edge`](crate::CatalogBuilder::annotate_edge)), so an
    /// observed edge id near `usize::MAX` cannot be applied. The serving path reads an overlay
    /// through `QuerySpec::apply_observed`, which looks up only the spec's own ids.
    pub fn apply<const W: usize>(&self, base: &Catalog<W>) -> Catalog<W> {
        let mut b = Catalog::<W>::builder(base.relation_count());
        for r in 0..base.relation_count() {
            b.set_cardinality(
                r,
                self.cardinality(r).unwrap_or_else(|| base.cardinality(r)),
            );
            let refs = base.lateral_refs(r);
            if !refs.is_empty() {
                b.set_lateral_refs(r, refs);
            }
        }
        let annotated = base.annotated_edge_count();
        for e in 0..annotated {
            let mut a = base.edge_annotation(e);
            if let Some(sel) = self.selectivity(e) {
                a.selectivity = sel;
            }
            b.annotate_edge(e, a);
        }
        for (&e, &selectivity) in self.selectivities.range(annotated..) {
            b.annotate_edge(e, EdgeAnnotation::inner(selectivity));
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_bitset::NodeSet;
    use qo_plan::JoinOp;

    fn base() -> Catalog<1> {
        let mut b = Catalog::<1>::builder(3);
        b.set_cardinality(0, 1000.0)
            .set_cardinality(1, 50.0)
            .set_cardinality(2, 10.0)
            .set_lateral_refs(2, NodeSet::from_iter([0]))
            .annotate_edge(0, EdgeAnnotation::inner(0.01))
            .annotate_edge(1, EdgeAnnotation::with_op(0.5, JoinOp::LeftOuter));
        b.build()
    }

    #[test]
    fn empty_overlay_is_the_identity_on_the_epoch() {
        let c = base();
        let overlay = ObservedStats::new();
        assert!(overlay.is_empty());
        let applied = overlay.apply(&c);
        assert_eq!(applied.stats_epoch(), c.stats_epoch());
        assert_eq!(applied.cardinality(0), 1000.0);
        assert_eq!(applied.edge_annotation(1).selectivity, 0.5);
    }

    #[test]
    fn observations_override_and_bump_the_epoch() {
        let c = base();
        let mut overlay = ObservedStats::new();
        overlay.observe_cardinality(0, 8.0);
        overlay.observe_selectivity(0, 0.14);
        assert!(!overlay.is_empty());
        let applied = overlay.apply(&c);
        assert_eq!(applied.cardinality(0), 8.0);
        assert_eq!(applied.cardinality(1), 50.0, "unobserved stays estimated");
        assert_eq!(applied.edge_annotation(0).selectivity, 0.14);
        assert_eq!(applied.edge_annotation(1).selectivity, 0.5);
        assert_ne!(
            applied.stats_epoch(),
            c.stats_epoch(),
            "drift is visible to the plan cache"
        );
    }

    #[test]
    fn operators_laterals_and_defaults_survive_the_overlay() {
        let c = base();
        let mut overlay = ObservedStats::new();
        overlay.observe_selectivity(1, 0.9);
        let applied = overlay.apply(&c);
        assert_eq!(applied.edge_annotation(1).op, JoinOp::LeftOuter);
        assert_eq!(applied.lateral_refs(2), NodeSet::from_iter([0]));
        assert!(applied.has_lateral_refs());
        // Observing an edge beyond the annotated range extends it; the gap keeps defaults.
        let mut wide = ObservedStats::new();
        wide.observe_selectivity(3, 0.25);
        let applied = wide.apply(&c);
        assert_eq!(applied.edge_annotation(2).selectivity, 1.0);
        assert_eq!(applied.edge_annotation(3).selectivity, 0.25);
    }

    #[test]
    fn ids_of_any_value_are_one_entry_each() {
        let mut overlay = ObservedStats::new();
        for id in [usize::MAX, 1 << 40] {
            overlay.observe_cardinality(id, 7.0);
            overlay.observe_selectivity(id, 0.5);
            assert_eq!(overlay.cardinality(id), Some(7.0));
            assert_eq!(overlay.selectivity(id), Some(0.5));
        }
        assert!(!overlay.is_empty());
        assert_eq!(overlay.cardinality(0), None);
        assert_eq!(overlay.selectivity(usize::MAX - 1), None);
        // Relations past the catalog are ignored, in-range observations read as before.
        let mut cards_only = ObservedStats::new();
        cards_only.observe_cardinality(usize::MAX, 3.0);
        cards_only.observe_cardinality(1 << 40, 3.0);
        cards_only.observe_cardinality(1, 9.0);
        let c = base();
        let applied = cards_only.apply(&c);
        assert_eq!(applied.relation_count(), 3);
        assert_eq!(applied.cardinality(1), 9.0);
        assert_eq!(applied.cardinality(0), 1000.0);
        assert_eq!(applied.annotated_edge_count(), c.annotated_edge_count());
    }

    #[test]
    fn observed_selectivities_are_clamped_into_validity() {
        let mut overlay = ObservedStats::new();
        overlay.observe_selectivity(0, 0.0); // an empty join observes ~zero
        overlay.observe_selectivity(1, 7.5); // a nonsense inversion stays a filter
        assert_eq!(overlay.selectivity(0), Some(1e-12));
        assert_eq!(overlay.selectivity(1), Some(1.0));
        overlay.observe_cardinality(0, -3.0);
        assert_eq!(overlay.cardinality(0), Some(0.0));
    }
}
