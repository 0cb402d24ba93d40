//! Instrumented execution: record *true* intermediate cardinalities, compare them with the
//! estimator's predictions (q-error), and derive an [`ObservedStats`] overlay the planner can
//! be re-run under.
//!
//! This is the measurement half of the feedback loop. [`execute_plan_observed`] runs a plan
//! exactly like [`execute_plan`](crate::execute_plan) but records one [`JoinObservation`] per
//! join node: the estimated output cardinality the plan was costed with and the actual row
//! count the executor produced. From those observations [`ObservedExecution`] computes
//!
//! * the plan's **true cost** (the `C_out` sum over actual intermediate cardinalities — the
//!   same functional the optimizer minimizes, evaluated on reality instead of estimates),
//! * the estimator's **q-error** per join (`max(e, a) / min(e, a)`, both floored at one row,
//!   so over- and under-estimation count symmetrically and empty results stay finite), and
//! * an [`ObservedStats`] overlay: true base-relation cardinalities plus per-edge
//!   selectivities *inverted* from the estimator's own formulas, so that re-estimating each
//!   observed join under the overlay reproduces the actual cardinality.
//!
//! Execution is guarded by a row limit: nested-loop execution of a badly mis-ordered plan can
//! explode combinatorially, and a feedback experiment would rather record "infeasible" than
//! hang. [`execute_plan_observed`] returns `None` the moment any intermediate result exceeds
//! the limit.

use crate::database::{Database, Row};
use crate::executor::join;
use qo_catalog::{ExecutionFeedback, ObservedStats};
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::{ExplainAnnotation, JoinOp, PlanNode};

/// Selectivities inverted from observations are clamped below by this value, keeping them
/// inside the `(0, 1]` range every catalog validation demands even when a join produced zero
/// rows. (Matches the clamp in [`ObservedStats::observe_selectivity`].)
const MIN_OBSERVED_SELECTIVITY: f64 = 1e-12;

/// The q-error of one cardinality estimate: `max(e, a) / min(e, a)` with both sides floored at
/// one row. Always ≥ 1; equal to 1 iff the (floored) estimate was exact.
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let e = estimated.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// What one join node of an executed plan actually did.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinObservation {
    /// The operator (as written in the plan; dependent operators execute as their regular
    /// counterpart).
    pub op: JoinOp,
    /// The output cardinality the plan was costed with.
    pub estimated: f64,
    /// The row count the executor actually produced.
    pub actual: f64,
    /// Actual row count of the left input.
    pub left_actual: f64,
    /// Actual row count of the right input.
    pub right_actual: f64,
    /// The hyperedges whose predicates were applied at this join.
    pub predicates: Vec<EdgeId>,
}

impl JoinObservation {
    /// The q-error of this join's estimate.
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated, self.actual)
    }

    /// The combined selectivity of this join's predicates, inverted from the estimator's
    /// output-cardinality formula for the operator, clamped into `(0, 1]`. `None` when the
    /// inversion is undefined: an empty input (nothing was observed) or a nestjoin (its output
    /// cardinality is the left input regardless of selectivity).
    fn observed_selectivity(&self) -> Option<f64> {
        let (l, r, out) = (self.left_actual, self.right_actual, self.actual);
        if l <= 0.0 || r <= 0.0 {
            return None;
        }
        // Invert qo_catalog::join_cardinality per operator. The outer joins keep the plain
        // inner inversion: where the estimator's padding floor (`max(·, |L|)` resp.
        // `max(·, |L| + |R|)`) lies below the observed output the re-estimate is exact, and
        // where the floor binds it is the closest value the estimator can represent at any
        // selectivity.
        let sel = match self.op.regular_counterpart() {
            JoinOp::Inner | JoinOp::LeftOuter | JoinOp::FullOuter => out / (l * r),
            // semi: out = l · min(sel·r, 1)  ⇒  sel = (out/l) / r
            JoinOp::LeftSemi => (out / l) / r,
            // anti: out = l − l · min(sel·r, 1)  ⇒  sel = (1 − out/l) / r
            JoinOp::LeftAnti => (1.0 - out / l) / r,
            JoinOp::LeftNest => return None,
            _ => unreachable!("regular_counterpart never returns a dependent operator"),
        };
        Some(sel.clamp(MIN_OBSERVED_SELECTIVITY, 1.0))
    }
}

/// The result of one instrumented execution: the final rows plus one observation per join
/// node, in post-order (the order the executor produced them).
#[derive(Clone, Debug)]
pub struct ObservedExecution {
    /// The multiset of result rows.
    pub rows: Vec<Row>,
    /// One observation per join node of the plan, post-order.
    pub joins: Vec<JoinObservation>,
}

impl ObservedExecution {
    /// The plan's true cost: the sum of the *actual* intermediate cardinalities over all join
    /// nodes — `C_out` evaluated on observed reality instead of estimates.
    pub fn true_cost(&self) -> f64 {
        self.joins.iter().map(|j| j.actual).sum()
    }

    /// The largest per-join q-error of the execution (1.0 for a plan with no joins).
    pub fn max_q_error(&self) -> f64 {
        self.joins
            .iter()
            .map(|j| j.q_error())
            .fold(1.0, |a, b| a.max(b))
    }

    /// The median per-join q-error (mean of the two middle values for even join counts; 1.0
    /// for a plan with no joins).
    pub fn median_q_error(&self) -> f64 {
        if self.joins.is_empty() {
            return 1.0;
        }
        let mut q: Vec<f64> = self.joins.iter().map(|j| j.q_error()).collect();
        q.sort_by(|a, b| a.total_cmp(b));
        let n = q.len();
        if n % 2 == 1 {
            q[n / 2]
        } else {
            (q[n / 2 - 1] + q[n / 2]) / 2.0
        }
    }

    /// Distills this execution into the [`ExecutionFeedback`] a serving layer consumes:
    /// true cost plus the q-error spread. This is the payload of
    /// `qo_service::Service::observe_execution` — the hook that feeds the flight recorder
    /// and the regret ledger.
    pub fn feedback(&self) -> ExecutionFeedback {
        ExecutionFeedback {
            true_cost: self.true_cost(),
            max_q_error: self.max_q_error(),
            median_q_error: self.median_q_error(),
        }
    }

    /// The per-join [`ExplainAnnotation`]s of this execution, in the post-order
    /// [`PlanNode::explain_annotated`] consumes — actual cardinality and q-error per join.
    fn explain_annotations(&self) -> Vec<ExplainAnnotation> {
        self.joins
            .iter()
            .map(|j| ExplainAnnotation {
                actual: j.actual,
                q_error: j.q_error(),
            })
            .collect()
    }

    /// Renders `plan`'s EXPLAIN tree annotated with this execution's actual cardinalities
    /// and q-errors. `plan` must be the plan this execution ran (`self.joins` is matched to
    /// its join nodes in post-order).
    pub fn explain(&self, plan: &PlanNode) -> String {
        plan.explain_annotated(&self.explain_annotations())
    }

    /// Derives the statistics overlay this execution supports: the database's true base
    /// cardinalities plus, for every predicate edge applied by some join, the observed
    /// selectivity (split geometrically when a join applied several edges at once, so their
    /// product reproduces the joint observation).
    pub fn observed_stats(&self, db: &Database) -> ObservedStats {
        let mut stats = ObservedStats::new();
        for r in 0..db.relation_count() {
            stats.observe_cardinality(r, db.table(r).len() as f64);
        }
        for j in &self.joins {
            let Some(sel) = j.observed_selectivity() else {
                continue;
            };
            let per_edge = sel.powf(1.0 / j.predicates.len().max(1) as f64);
            for &e in &j.predicates {
                stats.observe_selectivity(e, per_edge);
            }
        }
        stats
    }
}

/// Executes a plan like [`execute_plan`](crate::execute_plan) while recording a
/// [`JoinObservation`] per join node. Returns `None` if any intermediate result exceeds
/// `row_limit` rows (the plan is infeasible to execute at this scale, not wrong).
pub fn execute_plan_observed<const W: usize>(
    plan: &PlanNode,
    graph: &Hypergraph<W>,
    db: &Database,
    row_limit: usize,
) -> Option<ObservedExecution> {
    let mut joins = Vec::with_capacity(plan.join_count());
    let rows = run(plan, graph, db, row_limit, &mut joins)?;
    Some(ObservedExecution { rows, joins })
}

fn run<const W: usize>(
    plan: &PlanNode,
    graph: &Hypergraph<W>,
    db: &Database,
    row_limit: usize,
    joins: &mut Vec<JoinObservation>,
) -> Option<Vec<Row>> {
    match plan {
        PlanNode::Scan { relation, .. } => Some(db.scan(*relation)),
        PlanNode::Join {
            op,
            left,
            right,
            predicates,
            cardinality,
            ..
        } => {
            let lrows = run(left, graph, db, row_limit, joins)?;
            let rrows = run(right, graph, db, row_limit, joins)?;
            let out = join(
                graph,
                *op,
                &lrows,
                &rrows,
                predicates,
                right.relations_wide::<W>(),
            );
            if out.len() > row_limit {
                return None;
            }
            joins.push(JoinObservation {
                op: *op,
                estimated: *cardinality,
                actual: out.len() as f64,
                left_actual: lrows.len() as f64,
                right_actual: rrows.len() as f64,
                predicates: predicates.clone(),
            });
            Some(out)
        }
    }
}

/// The synthetic table size a catalog cardinality scales down to: `log2(cardinality)` rounded,
/// clamped into `[2, cap]`. Logarithmic scaling preserves the catalog's *relative* size order
/// (facts stay bigger than dimensions) while keeping nested-loop execution feasible; the cap is
/// the knob a time-budgeted caller (CI quick mode) turns down.
pub fn scaled_table_size(cardinality: f64, cap: usize) -> usize {
    let cap = cap.max(2);
    (cardinality.max(2.0).log2().round() as usize).clamp(2, cap)
}

/// Synthetic table sizes for a whole query: each relation's cardinality scaled by
/// [`scaled_table_size`], except where `overrides` pins an explicit row count (the `.jg`
/// `rows=` attribute), which is still capped at `cap`.
pub fn scaled_table_sizes(
    cardinalities: &[f64],
    overrides: &[Option<usize>],
    cap: usize,
) -> Vec<usize> {
    cardinalities
        .iter()
        .enumerate()
        .map(|(r, &c)| match overrides.get(r).copied().flatten() {
            Some(rows) => rows.clamp(1, cap.max(2)),
            None => scaled_table_size(c, cap),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(r: usize) -> PlanNode {
        PlanNode::scan(r, 0.0)
    }

    /// Graph R0 -e0- R1 with known keys: R0 = {1,2,3}, R1 = {1,1,4}.
    fn setup() -> (Hypergraph, Database) {
        let mut b = Hypergraph::builder(2);
        b.add_simple_edge(0, 1);
        (b.build(), Database::new(vec![vec![1, 2, 3], vec![1, 1, 4]]))
    }

    #[test]
    fn q_error_floors_and_symmetry() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Zero rows floor to one: no infinities, no division by zero.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(5.0, 0.0), 5.0);
        assert_eq!(q_error(0.5, 0.25), 1.0);
    }

    #[test]
    fn observed_execution_records_joins_and_true_cost() {
        let (g, db) = setup();
        let plan = PlanNode::join(JoinOp::Inner, scan(0), scan(1), vec![0], 6.0, 6.0);
        let obs = execute_plan_observed(&plan, &g, &db, 1000).unwrap();
        assert_eq!(obs.rows.len(), 2); // key 1 matches the two R1 rows with key 1
        assert_eq!(obs.joins.len(), 1);
        let j = &obs.joins[0];
        assert_eq!(j.actual, 2.0);
        assert_eq!(j.estimated, 6.0);
        assert_eq!(j.left_actual, 3.0);
        assert_eq!(j.right_actual, 3.0);
        assert_eq!(obs.true_cost(), 2.0);
        assert_eq!(obs.max_q_error(), 3.0);
        assert_eq!(obs.median_q_error(), 3.0);
    }

    #[test]
    fn row_limit_aborts_explosive_plans() {
        let (g, db) = setup();
        let plan = PlanNode::join(JoinOp::Inner, scan(0), scan(1), vec![0], 0.0, 0.0);
        assert!(execute_plan_observed(&plan, &g, &db, 1).is_none());
        assert!(execute_plan_observed(&plan, &g, &db, 2).is_some());
    }

    #[test]
    fn inner_selectivity_inversion_reproduces_the_observation() {
        let (g, db) = setup();
        let plan = PlanNode::join(JoinOp::Inner, scan(0), scan(1), vec![0], 6.0, 6.0);
        let obs = execute_plan_observed(&plan, &g, &db, 1000).unwrap();
        let sel = obs.joins[0].observed_selectivity().unwrap();
        // 2 actual rows out of 3 × 3: sel = 2/9, and re-estimating reproduces the actual.
        assert!((sel - 2.0 / 9.0).abs() < 1e-12);
        assert!((3.0 * 3.0 * sel - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_inner_selectivity_inversions_match_the_estimator() {
        use qo_catalog::CardinalityEstimator;
        let (g, db) = setup();
        for op in [
            JoinOp::LeftOuter,
            JoinOp::FullOuter,
            JoinOp::LeftSemi,
            JoinOp::LeftAnti,
        ] {
            let plan = PlanNode::join(op, scan(0), scan(1), vec![0], 0.0, 0.0);
            let obs = execute_plan_observed(&plan, &g, &db, 1000).unwrap();
            let j = &obs.joins[0];
            let sel = j.observed_selectivity().unwrap();
            let est = CardinalityEstimator::<1>::join_with_selectivity(
                op,
                j.left_actual,
                j.right_actual,
                sel,
            );
            // The outer joins carry a padding floor (|L| resp. |L| + |R|) no selectivity can
            // go below; the inversion is exact except where that floor binds.
            let floor = match op {
                JoinOp::LeftOuter => j.left_actual,
                JoinOp::FullOuter => j.left_actual + j.right_actual,
                _ => 0.0,
            };
            assert!(
                (est - j.actual.max(floor)).abs() < 1e-9,
                "{op:?}: inverted sel {sel} re-estimates {est}, actual {} (floor {floor})",
                j.actual
            );
        }
        // The nestjoin's output is its left input regardless of selectivity: no inversion.
        let plan = PlanNode::join(JoinOp::LeftNest, scan(0), scan(1), vec![0], 0.0, 0.0);
        let obs = execute_plan_observed(&plan, &g, &db, 1000).unwrap();
        assert_eq!(obs.joins[0].observed_selectivity(), None);
    }

    #[test]
    fn observed_stats_cover_base_cards_and_split_shared_edges() {
        let (g, db) = setup();
        let plan = PlanNode::join(JoinOp::Inner, scan(0), scan(1), vec![0], 6.0, 6.0);
        let obs = execute_plan_observed(&plan, &g, &db, 1000).unwrap();
        let stats = obs.observed_stats(&db);
        assert_eq!(stats.cardinality(0), Some(3.0));
        assert_eq!(stats.cardinality(1), Some(3.0));
        let sel = stats.selectivity(0).unwrap();
        assert!((sel - 2.0 / 9.0).abs() < 1e-12);
        assert_eq!(stats.selectivity(1), None, "unobserved edges stay unset");
    }

    #[test]
    fn scaled_sizes_track_relative_order_and_honor_caps() {
        assert_eq!(scaled_table_size(4.0, 16), 2);
        assert_eq!(scaled_table_size(1000.0, 16), 10);
        assert_eq!(scaled_table_size(2.6e6, 16), 16, "cap engages");
        assert_eq!(scaled_table_size(2.6e6, 8), 8, "quick cap engages earlier");
        assert_eq!(scaled_table_size(0.5, 16), 2, "floor of two rows");
        let sizes = scaled_table_sizes(&[2.6e6, 100.0, 4.0], &[None, Some(3), Some(40)], 8);
        assert_eq!(sizes, vec![8, 3, 8], "overrides honored but still capped");
    }
}
