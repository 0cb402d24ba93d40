//! Output-cardinality estimation per join operator.

use crate::catalog::Catalog;
use qo_bitset::NodeSet;
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::JoinOp;

/// Estimates output cardinalities for plan classes and join results.
///
/// The estimator uses the textbook independence model: the cardinality of an inner join is the
/// product of the input cardinalities times the product of the selectivities of all predicates
/// evaluated at the join. Non-inner operators adjust the inner estimate according to their
/// semantics (an outer join preserves at least its outer side, a semijoin never exceeds its left
/// input, and so on). The formulas only need to be *deterministic and consistent* for the
/// reproduction — all enumeration algorithms share them, so plan-quality comparisons are fair.
#[derive(Clone, Copy)]
pub struct CardinalityEstimator<'a, const W: usize = 1> {
    catalog: &'a Catalog<W>,
    graph: &'a Hypergraph<W>,
}

impl<'a, const W: usize> CardinalityEstimator<'a, W> {
    /// Creates an estimator for the given catalog/graph pair.
    pub fn new(catalog: &'a Catalog<W>, graph: &'a Hypergraph<W>) -> Self {
        CardinalityEstimator { catalog, graph }
    }

    /// The catalog this estimator reads statistics from.
    pub fn catalog(&self) -> &'a Catalog<W> {
        self.catalog
    }

    /// The hypergraph this estimator resolves edges against.
    pub fn graph(&self) -> &'a Hypergraph<W> {
        self.graph
    }

    /// Cardinality of a base relation.
    pub fn base(&self, relation: usize) -> f64 {
        self.catalog.cardinality(relation)
    }

    /// Independence-model cardinality of the set `s` treated as a pure inner join of all its
    /// relations with all internal predicates applied. Used for sanity checks and as the
    /// canonical class cardinality of inner-join-only queries.
    pub fn inner_set(&self, s: NodeSet<W>) -> f64 {
        let mut card: f64 = s.iter().map(|r| self.catalog.cardinality(r)).product();
        for e in self.graph.edges_within(s) {
            card *= self.catalog.edge_annotation(e).selectivity;
        }
        card
    }

    /// Cardinality of joining two plan classes with the given operator and connecting
    /// predicates.
    ///
    /// `left_card`/`right_card` are the estimated cardinalities of the two inputs; `edges` are
    /// the hyperedges connecting them (their selectivities are all applied, mirroring the
    /// conjunction assembled by `EmitCsgCmp`).
    pub fn join(&self, op: JoinOp, left_card: f64, right_card: f64, edges: &[EdgeId]) -> f64 {
        let sel = self.catalog.selectivity_product(edges);
        join_cardinality(op, left_card, right_card, sel)
    }

    /// Same as [`CardinalityEstimator::join`] but with the combined selectivity already
    /// computed. Width-independent; delegates to the crate-internal `join_cardinality` core.
    pub fn join_with_selectivity(op: JoinOp, left_card: f64, right_card: f64, sel: f64) -> f64 {
        join_cardinality(op, left_card, right_card, sel)
    }
}

/// Output cardinality of joining two inputs with the given operator and combined selectivity.
///
/// This is the width-independent core of the estimator (it only sees scalar statistics), shared
/// by every `NodeSet` width the planner is instantiated at.
///
/// Estimates saturate at `f64::MAX` instead of overflowing to infinity: a zero-row input joined
/// with an infinite one would give `0 × ∞ = NaN`, and no candidate replaces a NaN class
/// (`cost < NaN` is false). With finite, non-negative inputs no estimate is ever NaN or
/// infinite, so no cost is NaN either; a finite estimate is unchanged.
pub fn join_cardinality(op: JoinOp, left_card: f64, right_card: f64, sel: f64) -> f64 {
    let inner = left_card * right_card * sel;
    let estimate = match op.regular_counterpart() {
        JoinOp::Inner => inner,
        // An outer join preserves every outer tuple at least once.
        JoinOp::LeftOuter => inner.max(left_card),
        JoinOp::FullOuter => inner.max(left_card + right_card),
        // A semijoin keeps each left tuple at most once; the probability that a left tuple
        // finds at least one partner is approximated by min(1, sel * |R|).
        JoinOp::LeftSemi => left_card * (sel * right_card).min(1.0),
        // The antijoin keeps the complement of the semijoin.
        JoinOp::LeftAnti => (left_card - left_card * (sel * right_card).min(1.0)).max(0.0),
        // The nestjoin produces exactly one output tuple per left tuple (binary grouping).
        JoinOp::LeftNest => left_card,
        // Dependent operators were mapped to their regular counterpart above.
        _ => unreachable!("regular_counterpart returned a dependent operator"),
    };
    estimate.min(f64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EdgeAnnotation;
    use qo_hypergraph::Hypergraph;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn setup() -> (Catalog, Hypergraph) {
        let mut b = Hypergraph::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        let g = b.build();
        let mut cb = Catalog::builder(3);
        cb.set_cardinality(0, 100.0)
            .set_cardinality(1, 200.0)
            .set_cardinality(2, 50.0)
            .annotate_edge(0, EdgeAnnotation::inner(0.01))
            .annotate_edge(1, EdgeAnnotation::inner(0.1));
        (cb.build(), g)
    }

    #[test]
    fn base_and_inner_set() {
        let (c, g) = setup();
        let est = CardinalityEstimator::new(&c, &g);
        assert_eq!(est.base(1), 200.0);
        // {0,1}: 100 * 200 * 0.01 = 200
        assert!((est.inner_set(ns(&[0, 1])) - 200.0).abs() < 1e-9);
        // {0,2}: no internal predicate ⇒ cross product 5000
        assert!((est.inner_set(ns(&[0, 2])) - 5000.0).abs() < 1e-9);
        // full set: 100*200*50*0.01*0.1 = 1000
        assert!((est.inner_set(ns(&[0, 1, 2])) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn inner_join_cardinality() {
        let (c, g) = setup();
        let est = CardinalityEstimator::new(&c, &g);
        let card = est.join(JoinOp::Inner, 100.0, 200.0, &[0]);
        assert!((card - 200.0).abs() < 1e-9);
    }

    #[test]
    fn left_outer_preserves_left() {
        // Very selective predicate: inner result would be tiny, outer join keeps all 100 left
        // tuples.
        let card = join_cardinality(JoinOp::LeftOuter, 100.0, 10.0, 1e-6);
        assert_eq!(card, 100.0);
        // Non-selective: behaves like the inner join.
        let card = join_cardinality(JoinOp::LeftOuter, 100.0, 10.0, 0.5);
        assert_eq!(card, 500.0);
    }

    #[test]
    fn full_outer_preserves_both() {
        let card = join_cardinality(JoinOp::FullOuter, 100.0, 40.0, 1e-9);
        assert_eq!(card, 140.0);
    }

    #[test]
    fn semi_and_anti_partition_the_left_side() {
        let (l, r, sel) = (1000.0, 50.0, 0.004);
        let semi = join_cardinality(JoinOp::LeftSemi, l, r, sel);
        let anti = join_cardinality(JoinOp::LeftAnti, l, r, sel);
        assert!(semi <= l);
        assert!(anti <= l);
        assert!(
            (semi + anti - l).abs() < 1e-9,
            "semi + anti must equal the left input"
        );
        // Semijoin never exceeds the left side even for sel = 1.
        let semi_full = join_cardinality(JoinOp::LeftSemi, l, r, 1.0);
        assert_eq!(semi_full, l);
        let anti_full = join_cardinality(JoinOp::LeftAnti, l, r, 1.0);
        assert_eq!(anti_full, 0.0);
    }

    #[test]
    fn nestjoin_outputs_one_group_per_left_tuple() {
        let card = join_cardinality(JoinOp::LeftNest, 77.0, 1e6, 0.5);
        assert_eq!(card, 77.0);
    }

    #[test]
    fn dependent_ops_follow_their_regular_counterpart() {
        for (dep, reg) in [
            (JoinOp::DepJoin, JoinOp::Inner),
            (JoinOp::DepLeftOuter, JoinOp::LeftOuter),
            (JoinOp::DepLeftSemi, JoinOp::LeftSemi),
            (JoinOp::DepLeftAnti, JoinOp::LeftAnti),
            (JoinOp::DepLeftNest, JoinOp::LeftNest),
        ] {
            let d = join_cardinality(dep, 123.0, 45.0, 0.1);
            let r = join_cardinality(reg, 123.0, 45.0, 0.1);
            assert_eq!(d, r, "{dep:?} vs {reg:?}");
        }
    }

    #[test]
    fn unannotated_edges_have_selectivity_one() {
        let (c, g) = setup();
        let est = CardinalityEstimator::new(&c, &g);
        let card = est.join(JoinOp::Inner, 10.0, 10.0, &[]);
        assert_eq!(card, 100.0);
    }
}
