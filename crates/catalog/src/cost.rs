//! Cost models.

use qo_bitset::NodeSet;
use qo_plan::JoinOp;

/// Statistics of a sub-plan that a [`CostModel`] may inspect.
///
/// Generic over the mask width `W` like every planner-facing type; the default width covers
/// queries of up to 64 relations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubPlanStats<const W: usize = 1> {
    /// Relations produced by the sub-plan.
    pub set: NodeSet<W>,
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Accumulated cost of the sub-plan.
    pub cost: f64,
}

impl<const W: usize> SubPlanStats<W> {
    /// Stats of a base-relation scan: zero accumulated cost.
    pub fn leaf(relation: usize, cardinality: f64) -> Self {
        SubPlanStats {
            set: NodeSet::single(relation),
            cardinality,
            cost: 0.0,
        }
    }
}

/// A cost model maps a candidate join (operator, inputs, estimated output cardinality) to the
/// accumulated cost of the resulting plan.
///
/// All models must be *monotone* in the input costs (adding cost to an input never makes the
/// output cheaper); this is what makes dynamic programming over plan classes optimal.
///
/// All models must also respect the *cost floor*: for non-negative, non-NaN input costs and
/// cardinalities, `join_cost(op, left, right, output_cardinality)` is never below
/// `output_cardinality + left.cost + right.cost` as evaluated in `f64`, left to right. Adding
/// a non-negative local cost first keeps it, because f64 rounding is monotone:
/// `fl(fl(fl(x + c) + l) + r) >= fl(fl(c + l) + r)` for `x >= 0`. The exact tier's
/// `EmitCsgCmp` relies on the floor to count a csg-cmp-pair that could not beat its union's
/// best plan without costing it (the incumbent keeps ties). Where the union's cardinality is
/// the same for every split, the incumbent's cardinality, shrunk by a rounding margin, stands
/// in for `output_cardinality`; elsewhere zero does, and the floor is the inputs' costs alone.
/// A model that breaks it fails a debug assertion there.
///
/// The trait carries the mask width so that implementations can inspect the input relation
/// sets; `dyn CostModel` (i.e. `dyn CostModel<1>`) keeps runtime model selection working on the
/// single-word tier, and the built-in models implement every width.
pub trait CostModel<const W: usize = 1> {
    /// Accumulated cost of joining `left` and `right` with `op`, producing `output_cardinality`
    /// tuples.
    fn join_cost(
        &self,
        op: JoinOp,
        left: &SubPlanStats<W>,
        right: &SubPlanStats<W>,
        output_cardinality: f64,
    ) -> f64;

    /// Human-readable name of the model.
    fn name(&self) -> &'static str;
}

/// The classic `C_out` cost function: the sum of the cardinalities of all intermediate results.
///
/// This is the cost function used throughout the join-ordering literature (and in the paper's
/// predecessors) because it is symmetric, smooth and independent of physical operator choices —
/// ideal for comparing enumeration algorithms.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoutCost;

impl<const W: usize> CostModel<W> for CoutCost {
    fn join_cost(
        &self,
        _op: JoinOp,
        left: &SubPlanStats<W>,
        right: &SubPlanStats<W>,
        output_cardinality: f64,
    ) -> f64 {
        output_cardinality + left.cost + right.cost
    }

    fn name(&self) -> &'static str {
        "C_out"
    }
}

/// A simple physical cost model distinguishing hash-based joins from nested-loop evaluation.
///
/// * Regular (non-dependent) operators are costed as a hash join: build the smaller side, probe
///   with the larger one, then produce the output.
/// * Dependent operators must re-evaluate their right side per left tuple, i.e. behave like a
///   nested-loop join.
///
/// The model is deliberately coarse; it exists to demonstrate that the enumeration algorithms
/// are independent of the cost model and to exercise the asymmetric-cost code path
/// (commutativity handling in `EmitCsgCmp`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MixedCost;

impl<const W: usize> CostModel<W> for MixedCost {
    fn join_cost(
        &self,
        op: JoinOp,
        left: &SubPlanStats<W>,
        right: &SubPlanStats<W>,
        output_cardinality: f64,
    ) -> f64 {
        let local = if op.is_dependent() {
            // Nested-loop / apply: the right side is evaluated once per left tuple.
            left.cardinality * right.cardinality.max(1.0)
        } else {
            // Hash join: build on the right input, probe with the left.
            2.0 * right.cardinality + left.cardinality
        };
        local + output_cardinality + left.cost + right.cost
    }

    fn name(&self) -> &'static str {
        "mixed(hash/nl)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::join_cardinality;
    use proptest::prelude::*;

    fn stats(set: &[usize], card: f64, cost: f64) -> SubPlanStats {
        SubPlanStats {
            set: set.iter().copied().collect(),
            cardinality: card,
            cost,
        }
    }

    #[test]
    fn leaf_stats_have_zero_cost() {
        let s = SubPlanStats::<1>::leaf(3, 500.0);
        assert_eq!(s.cost, 0.0);
        assert_eq!(s.cardinality, 500.0);
        assert_eq!(s.set, NodeSet::single(3));
    }

    #[test]
    fn wide_leaf_stats_reach_the_high_word() {
        let s = SubPlanStats::<2>::leaf(100, 7.0);
        assert_eq!(s.set, NodeSet::single(100));
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn cout_is_sum_of_intermediate_cardinalities() {
        let m = CoutCost;
        let l = stats(&[0], 100.0, 0.0);
        let r = stats(&[1], 200.0, 0.0);
        assert_eq!(m.join_cost(JoinOp::Inner, &l, &r, 50.0), 50.0);
        // Accumulation.
        let lr = stats(&[0, 1], 50.0, 50.0);
        let t = stats(&[2], 10.0, 0.0);
        assert_eq!(m.join_cost(JoinOp::Inner, &lr, &t, 25.0), 75.0);
        assert_eq!(CostModel::<1>::name(&m), "C_out");
    }

    #[test]
    fn cout_is_symmetric() {
        let m = CoutCost;
        let l = stats(&[0], 100.0, 5.0);
        let r = stats(&[1], 200.0, 7.0);
        assert_eq!(
            m.join_cost(JoinOp::Inner, &l, &r, 50.0),
            m.join_cost(JoinOp::Inner, &r, &l, 50.0)
        );
    }

    #[test]
    fn built_in_models_cost_identically_at_every_width() {
        // The width only changes the set representation, never the arithmetic.
        let narrow_l = stats(&[0], 1000.0, 3.0);
        let narrow_r = stats(&[1], 10.0, 1.0);
        let wide_l = SubPlanStats::<2> {
            set: NodeSet::single(0),
            cardinality: 1000.0,
            cost: 3.0,
        };
        let wide_r = SubPlanStats::<2> {
            set: NodeSet::single(65),
            cardinality: 10.0,
            cost: 1.0,
        };
        for op in [JoinOp::Inner, JoinOp::DepJoin] {
            assert_eq!(
                CoutCost.join_cost(op, &narrow_l, &narrow_r, 42.0),
                CoutCost.join_cost(op, &wide_l, &wide_r, 42.0),
            );
            assert_eq!(
                MixedCost.join_cost(op, &narrow_l, &narrow_r, 42.0),
                MixedCost.join_cost(op, &wide_l, &wide_r, 42.0),
            );
        }
    }

    #[test]
    fn mixed_is_asymmetric_and_penalizes_dependent_ops() {
        let m = MixedCost;
        let l = stats(&[0], 1000.0, 0.0);
        let r = stats(&[1], 10.0, 0.0);
        let ab = m.join_cost(JoinOp::Inner, &l, &r, 100.0);
        let ba = m.join_cost(JoinOp::Inner, &r, &l, 100.0);
        assert_ne!(ab, ba, "hash-join cost should depend on the build side");
        // Building on the small side (right = r) is cheaper.
        assert!(ab < ba);
        let dep = m.join_cost(JoinOp::DepJoin, &l, &r, 100.0);
        assert!(
            dep > ab,
            "dependent evaluation must be costlier than a hash join here"
        );
        assert_eq!(CostModel::<1>::name(&m), "mixed(hash/nl)");
    }

    /// A non-negative statistic drawn from `(kind, bits)`: zero, one, huge, `f64::MAX`, or any
    /// finite bit pattern; with `infinite`, also `∞`.
    fn statistic((kind, bits): (usize, u64), infinite: bool) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1.0,
            2 => 1e200,
            3 => f64::MAX,
            4 if infinite => f64::INFINITY,
            _ => f64::from_bits(bits % f64::INFINITY.to_bits()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_both_models_keep_the_cost_floor(
            left_card in (0usize..8, any::<u64>()),
            left_cost in (0usize..8, any::<u64>()),
            right_card in (0usize..8, any::<u64>()),
            right_cost in (0usize..8, any::<u64>()),
            selectivity in 1u64..(1 << 53) + 1,
        ) {
            // Accumulated costs may overflow to ∞; cardinalities saturate at `f64::MAX`. Both
            // floors hold: the inputs' costs, and the output cardinality plus them.
            let left = stats(&[0], statistic(left_card, false), statistic(left_cost, true));
            let right = stats(&[1], statistic(right_card, false), statistic(right_cost, true));
            let sel = selectivity as f64 / (1u64 << 53) as f64;
            let models: [&dyn CostModel; 2] = [&CoutCost, &MixedCost];
            for op in JoinOp::ALL {
                for (l, r) in [(&left, &right), (&right, &left)] {
                    let output = join_cardinality(op, l.cardinality, r.cardinality, sel);
                    prop_assert!((0.0..=f64::MAX).contains(&output), "{op:?}: {output}");
                    for m in models {
                        let cost = m.join_cost(op, l, r, output);
                        prop_assert!(cost >= l.cost + r.cost, "{} {op:?}: {cost}", m.name());
                        prop_assert!(
                            cost >= output + l.cost + r.cost,
                            "{} {op:?}: {cost} below {output} + inputs",
                            m.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn both_models_are_monotone_in_input_cost() {
        let models: [&dyn CostModel; 2] = [&CoutCost, &MixedCost];
        for m in models {
            let l_cheap = stats(&[0], 100.0, 10.0);
            let l_pricey = stats(&[0], 100.0, 1000.0);
            let r = stats(&[1], 50.0, 0.0);
            assert!(
                m.join_cost(JoinOp::Inner, &l_cheap, &r, 42.0)
                    < m.join_cost(JoinOp::Inner, &l_pricey, &r, 42.0),
                "{} not monotone",
                m.name()
            );
        }
    }
}
