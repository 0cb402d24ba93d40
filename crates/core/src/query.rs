//! Width-agnostic query descriptions and the once-per-optimization width dispatch.
//!
//! Every planner-facing type in the workspace is generic over the node-set width `W` (words of
//! 64 relations each), but a caller that parses a query does not want to commit to a width in
//! its own signatures. [`QuerySpec`] stores the query shape with plain relation-id lists, and
//! [`Optimizer::optimize_spec`](crate::Optimizer::optimize_spec) inspects the node count
//! **once** per optimization:
//!
//! * `n ≤ 64` → instantiate `Hypergraph<1>`/`Catalog<1>` — the hot single-word path, compiled
//!   to exactly the pre-widening code;
//! * `64 < n ≤ 128` → instantiate the two-word `W = 2` tier;
//! * beyond [`MAX_WIDE_NODES`] → a clean [`OptimizeError::TooManyRelations`] error instead of a
//!   panic deep inside mask construction.
//!
//! The dispatch is deliberately *per optimization*, not per operation: after the branch, the
//! whole enumeration (DPhyp, the DP table, the combiner) runs monomorphized for the chosen
//! width with no width checks on the per-pair hot path.

use crate::canon::{canonicalize, CanonicalQuery};
use crate::optimizer::{OptimizeError, Optimized, Optimizer};
use qo_bitset::{NodeId, NodeSet, NodeSet128, NodeSet64};
use qo_catalog::{Catalog, EdgeAnnotation};
use qo_hypergraph::{Hyperedge, Hypergraph};
use qo_plan::JoinOp;
use std::fmt;
use std::sync::OnceLock;

/// Largest relation count any compiled width supports (`W = 2`, two words).
pub const MAX_WIDE_NODES: usize = NodeSet128::CAPACITY;

/// One hyperedge of a width-agnostic query description.
///
/// Read access to the edge structure is what external front ends (e.g. the `.jg` ingest
/// pretty-printer) need to serialize a spec back to text; construction still goes through
/// [`QuerySpecBuilder`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpecEdge {
    left: Vec<NodeId>,
    right: Vec<NodeId>,
    flex: Vec<NodeId>,
    selectivity: f64,
    op: JoinOp,
}

impl SpecEdge {
    /// Relations on the left side of the hyperedge.
    pub fn left(&self) -> &[NodeId] {
        &self.left
    }

    /// Relations on the right side of the hyperedge.
    pub fn right(&self) -> &[NodeId] {
        &self.right
    }

    /// Flexible relations of a generalized hyperedge (Def. 6); empty for plain hyperedges.
    pub fn flex(&self) -> &[NodeId] {
        &self.flex
    }

    /// Selectivity of the predicate.
    pub fn selectivity(&self) -> f64 {
        self.selectivity
    }

    /// Operator the edge was derived from.
    pub fn op(&self) -> JoinOp {
        self.op
    }
}

/// A width-agnostic query: relation statistics plus hyperedges, stored as plain id lists.
///
/// Build one with [`QuerySpec::builder`], then hand it to
/// [`Optimizer::optimize_spec`](crate::Optimizer::optimize_spec) (or
/// [`optimize_spec`](crate::optimize_spec)); the facade chooses the node-set width from the
/// relation count. The per-width instantiation is also available directly via
/// [`QuerySpec::instantiate`] for callers that drive the enumeration themselves (e.g. to run a
/// baseline algorithm on the wide tier), and the adaptive driver
/// ([`crate::optimize_adaptive`]) consumes the same spec when the enumeration algorithm should
/// be picked automatically too.
///
/// ```
/// use dphyp::{optimize_spec, QuerySpec};
///
/// // An 80-relation chain: wider than one 64-bit mask word, so the facade
/// // silently dispatches to the two-word (W = 2) tier.
/// let mut b = QuerySpec::builder(80);
/// for i in 0..80 {
///     b.set_cardinality(i, 1_000.0);
/// }
/// for i in 0..79 {
///     b.add_simple_edge(i, i + 1, 0.01);
/// }
/// let result = optimize_spec(&b.build()).unwrap();
/// assert_eq!(result.plan.join_count(), 79);
/// assert_eq!(result.ccp_count, (80 * 80 * 80 - 80) / 6);
/// ```
#[derive(Clone)]
pub struct QuerySpec {
    node_count: usize,
    cardinalities: Vec<f64>,
    lateral_refs: Vec<Vec<NodeId>>,
    edges: Vec<SpecEdge>,
    /// [`QuerySpec::canonical`], computed on first use. Derived data: equality and `Debug`
    /// ignore it, and a clone starts without it.
    canonical: CanonicalMemo,
}

#[derive(Default)]
struct CanonicalMemo(OnceLock<Box<CanonicalQuery>>);

impl Clone for CanonicalMemo {
    fn clone(&self) -> Self {
        CanonicalMemo::default()
    }
}

impl PartialEq for QuerySpec {
    fn eq(&self, other: &Self) -> bool {
        self.node_count == other.node_count
            && self.cardinalities == other.cardinalities
            && self.lateral_refs == other.lateral_refs
            && self.edges == other.edges
    }
}

impl fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySpec")
            .field("node_count", &self.node_count)
            .field("cardinalities", &self.cardinalities)
            .field("lateral_refs", &self.lateral_refs)
            .field("edges", &self.edges)
            .finish()
    }
}

impl QuerySpec {
    /// Starts building a spec over `node_count` relations.
    pub fn builder(node_count: usize) -> QuerySpecBuilder {
        QuerySpecBuilder {
            spec: QuerySpec {
                node_count,
                cardinalities: vec![1000.0; node_count],
                lateral_refs: vec![Vec::new(); node_count],
                edges: Vec::new(),
                canonical: CanonicalMemo::default(),
            },
        }
    }

    /// The spec's canonical form ([`canonicalize`]), computed on the first call and kept with
    /// the spec. A caller that holds a query and serves it again (a prepared query) pays for
    /// canonicalization once; a spec is immutable once built, so the form never goes stale.
    pub fn canonical(&self) -> &CanonicalQuery {
        self.canonical
            .0
            .get_or_init(|| Box::new(canonicalize(self)))
    }

    /// Number of relations in the query.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Cardinality of a relation (defaults to 1000 unless set on the builder).
    pub fn cardinality(&self, relation: NodeId) -> f64 {
        self.cardinalities[relation]
    }

    /// Lateral references of a relation; empty for ordinary base relations.
    pub fn lateral_refs(&self, relation: NodeId) -> &[NodeId] {
        &self.lateral_refs[relation]
    }

    /// The hyperedges of the spec, in insertion order (edge-id order after instantiation).
    pub fn edges(&self) -> impl Iterator<Item = &SpecEdge> {
        self.edges.iter()
    }

    /// Overlays execution-observed statistics onto the spec: observed base cardinalities and
    /// per-edge selectivities replace their estimates, everything structural (edges, operators,
    /// lateral references, relation ids) is unchanged. The result is "the same query under
    /// drifted statistics" — its shape fingerprint matches the original while its stats epoch
    /// moves with every observation, so serving it through a plan cache walks the re-cost /
    /// re-optimize drift path rather than a cold miss (the feedback loop's planning half).
    pub fn apply_observed(&self, observed: &qo_catalog::ObservedStats) -> QuerySpec {
        let mut b = QuerySpec::builder(self.node_count);
        for r in 0..self.node_count {
            b.set_cardinality(r, observed.cardinality(r).unwrap_or(self.cardinalities[r]));
            if !self.lateral_refs[r].is_empty() {
                b.set_lateral_refs(r, &self.lateral_refs[r]);
            }
        }
        for (id, e) in self.edges.iter().enumerate() {
            let selectivity = observed.selectivity(id).unwrap_or(e.selectivity);
            if e.flex.is_empty() {
                b.add_edge(&e.left, &e.right, selectivity, e.op);
            } else {
                b.add_generalized_edge(&e.left, &e.right, &e.flex, selectivity);
            }
        }
        b.build()
    }

    /// Log-ratio distance between the statistics of two specs of one shape:
    /// `Σ_r |ln c_r − ln c'_r|` over relation cardinalities plus `Σ_e |ln s_e − ln s'_e|` over
    /// edge selectivities, with relation and edge ids lining up (as they do between canonical
    /// specs that are [`same_shape`](crate::same_shape)). A spec may declare a cardinality
    /// below 1 (even 0), so cardinalities are floored at 1 first; for two
    /// [validated](Self::validate) specs the distance is finite. Specs with different
    /// relation or edge counts are infinitely far apart.
    pub fn stats_distance(&self, other: &QuerySpec) -> f64 {
        if self.node_count != other.node_count || self.edges.len() != other.edges.len() {
            return f64::INFINITY;
        }
        let log_ratio = |a: f64, b: f64| (a / b).ln().abs();
        let cards = self
            .cardinalities
            .iter()
            .zip(&other.cardinalities)
            .map(|(&a, &b)| log_ratio(a.max(1.0), b.max(1.0)));
        let sels = self
            .edges
            .iter()
            .zip(&other.edges)
            .map(|(a, b)| log_ratio(a.selectivity, b.selectivity));
        cards.chain(sels).sum()
    }

    /// Checks the spec before anything is built from it. Structure: the query has at least
    /// one relation, both sides of every edge name at least one relation, every relation id
    /// (edge sides, flex sets, lateral references) is below [`node_count`](Self::node_count),
    /// and no relation appears on two sides of one edge (which rules out self-loops).
    /// Statistics: cardinalities are finite and non-negative, selectivities finite and in
    /// `(0, 1]`. Entry points run this before canonicalizing or instantiating a spec, so a
    /// malformed spec surfaces as [`OptimizeError::InvalidEdge`] or
    /// [`OptimizeError::InvalidCatalog`] naming the caller's relation and edge ids — never
    /// canonical ones, and never as a panic.
    pub fn validate(&self) -> Result<(), OptimizeError> {
        let n = self.node_count;
        if n == 0 {
            return Err(OptimizeError::InvalidCatalog(
                "a query needs at least one relation".to_string(),
            ));
        }
        for (edge, e) in self.edges.iter().enumerate() {
            let invalid = |reason: String| Err(OptimizeError::InvalidEdge { edge, reason });
            if e.left.is_empty() || e.right.is_empty() {
                return invalid("a side names no relation".to_string());
            }
            let sides = [&e.left, &e.right, &e.flex];
            for (i, side) in sides.iter().enumerate() {
                for &r in side.iter() {
                    if r >= n {
                        return invalid(format!(
                            "relation {r} is out of range for a query of {n} relations"
                        ));
                    }
                    if sides[..i].iter().any(|earlier| earlier.contains(&r)) {
                        return invalid(format!("relation {r} appears on two sides of the edge"));
                    }
                }
            }
        }
        let invalid = |reason: String| Err(OptimizeError::InvalidCatalog(reason));
        for (r, (&c, refs)) in self
            .cardinalities
            .iter()
            .zip(&self.lateral_refs)
            .enumerate()
        {
            if !(c.is_finite() && c >= 0.0) {
                return invalid(format!("relation R{r} has invalid cardinality {c}"));
            }
            if let Some(&x) = refs.iter().find(|&&x| x >= n) {
                return invalid(format!(
                    "relation R{r} has lateral reference {x}, out of range for a query of {n} \
                     relations"
                ));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            let s = e.selectivity;
            if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                return invalid(format!("edge e{i} has invalid selectivity {s}"));
            }
        }
        Ok(())
    }

    /// Materializes the spec at a concrete width.
    ///
    /// # Panics
    /// Panics if the relation count (or any referenced id) exceeds the width's capacity; use
    /// [`Optimizer::optimize_spec`](crate::Optimizer::optimize_spec) for the checked dispatch.
    pub fn instantiate<const W: usize>(&self) -> (Hypergraph<W>, Catalog<W>) {
        let mut gb = Hypergraph::<W>::builder(self.node_count);
        for e in &self.edges {
            let left: NodeSet<W> = e.left.iter().copied().collect();
            let right: NodeSet<W> = e.right.iter().copied().collect();
            let flex: NodeSet<W> = e.flex.iter().copied().collect();
            gb.add_edge(Hyperedge::generalized(left, right, flex));
        }
        (gb.build(), self.instantiate_catalog())
    }

    /// Materializes only the statistics side of the spec — the [`Catalog`] without the
    /// hypergraph. Fingerprinting needs exactly this (the statistics epoch is a catalog
    /// property), and building per-node adjacency for a catalog-only consumer would be wasted
    /// work on a per-lookup hot path.
    ///
    /// # Panics
    /// Panics if the relation count (or any referenced id) exceeds the width's capacity.
    pub fn instantiate_catalog<const W: usize>(&self) -> Catalog<W> {
        let mut cb = Catalog::<W>::builder(self.node_count);
        for (r, &card) in self.cardinalities.iter().enumerate() {
            cb.set_cardinality(r, card);
        }
        for (r, refs) in self.lateral_refs.iter().enumerate() {
            if !refs.is_empty() {
                cb.set_lateral_refs(r, refs.iter().copied().collect());
            }
        }
        for (id, e) in self.edges.iter().enumerate() {
            cb.annotate_edge(id, EdgeAnnotation::with_op(e.selectivity, e.op));
        }
        cb.build()
    }
}

/// Builder for [`QuerySpec`].
#[derive(Clone, Debug)]
pub struct QuerySpecBuilder {
    spec: QuerySpec,
}

impl QuerySpecBuilder {
    /// Sets the cardinality of a relation.
    pub fn set_cardinality(&mut self, relation: NodeId, cardinality: f64) -> &mut Self {
        self.spec.cardinalities[relation] = cardinality;
        self
    }

    /// Sets the lateral references of a relation (table functions / dependent subqueries).
    pub fn set_lateral_refs(&mut self, relation: NodeId, refs: &[NodeId]) -> &mut Self {
        self.spec.lateral_refs[relation] = refs.to_vec();
        self
    }

    /// Adds a simple inner-join edge `({a}, {b})` with the given selectivity.
    pub fn add_simple_edge(&mut self, a: NodeId, b: NodeId, selectivity: f64) -> &mut Self {
        self.add_edge(&[a], &[b], selectivity, JoinOp::Inner)
    }

    /// Adds a hyperedge `(left, right)` with the given selectivity and operator.
    pub fn add_edge(
        &mut self,
        left: &[NodeId],
        right: &[NodeId],
        selectivity: f64,
        op: JoinOp,
    ) -> &mut Self {
        self.spec.edges.push(SpecEdge {
            left: left.to_vec(),
            right: right.to_vec(),
            flex: Vec::new(),
            selectivity,
            op,
        });
        self
    }

    /// Adds a generalized hyperedge `(left, right, flex)` (Def. 6) with the given selectivity.
    pub fn add_generalized_edge(
        &mut self,
        left: &[NodeId],
        right: &[NodeId],
        flex: &[NodeId],
        selectivity: f64,
    ) -> &mut Self {
        self.spec.edges.push(SpecEdge {
            left: left.to_vec(),
            right: right.to_vec(),
            flex: flex.to_vec(),
            selectivity,
            op: JoinOp::Inner,
        });
        self
    }

    /// Finalizes the spec.
    pub fn build(&self) -> QuerySpec {
        self.spec.clone()
    }
}

/// The single place encoding the width ladder: validates the spec ([`QuerySpec::validate`]),
/// instantiates `spec` at the narrowest sufficient node-set
/// width and runs the matching continuation (`n ≤ 64` → `narrow`, `n ≤ 128` → `wide`), or
/// returns [`OptimizeError::TooManyRelations`] beyond [`MAX_WIDE_NODES`]. Every spec-consuming entry point (the exact [`Optimizer`] facade, the
/// adaptive driver) dispatches through here so a future width tier is added exactly once.
pub(crate) fn with_width_dispatch<R>(
    spec: &QuerySpec,
    narrow: impl FnOnce(&Hypergraph<1>, &Catalog<1>) -> R,
    wide: impl FnOnce(&Hypergraph<2>, &Catalog<2>) -> R,
) -> Result<R, OptimizeError> {
    spec.validate()?;
    let n = spec.node_count();
    if n <= NodeSet64::CAPACITY {
        let (graph, catalog) = spec.instantiate::<1>();
        Ok(narrow(&graph, &catalog))
    } else if n <= NodeSet128::CAPACITY {
        let (graph, catalog) = spec.instantiate::<2>();
        Ok(wide(&graph, &catalog))
    } else {
        Err(OptimizeError::TooManyRelations {
            count: n,
            max: MAX_WIDE_NODES,
        })
    }
}

impl Optimizer {
    /// Optimizes a width-agnostic [`QuerySpec`], dispatching on the node count **once**:
    /// queries of up to 64 relations run the single-word (`W = 1`) enumeration, larger queries
    /// up to [`MAX_WIDE_NODES`] run the two-word tier, and anything beyond returns
    /// [`OptimizeError::TooManyRelations`].
    pub fn optimize_spec(&self, spec: &QuerySpec) -> Result<Optimized, OptimizeError> {
        with_width_dispatch(
            spec,
            |graph, catalog| self.optimize_hypergraph(graph, catalog),
            |graph, catalog| self.optimize_hypergraph(graph, catalog),
        )?
    }
}

/// Convenience shorthand: optimizes a width-agnostic spec with default options and the `C_out`
/// cost model, picking the node-set width from the relation count.
pub fn optimize_spec(spec: &QuerySpec) -> Result<Optimized, OptimizeError> {
    Optimizer::default().optimize_spec(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn small_specs_run_on_the_single_word_tier() {
        let spec = chain_spec(20);
        let result = optimize_spec(&spec).expect("plannable");
        assert_eq!(result.plan.scan_count(), 20);
        assert_eq!(result.ccp_count, (20usize.pow(3) - 20) / 6);
        // Identical to planning the explicitly single-word instantiation.
        let (g, c) = spec.instantiate::<1>();
        let narrow = crate::optimize(&g, &c).unwrap();
        assert_eq!(narrow.cost, result.cost);
        assert_eq!(narrow.ccp_count, result.ccp_count);
    }

    #[test]
    fn wide_specs_dispatch_to_the_two_word_tier() {
        let n = 80;
        let result = optimize_spec(&chain_spec(n)).expect("80-relation chain plans");
        assert_eq!(result.plan.scan_count(), n);
        assert_eq!(result.plan.join_count(), n - 1);
        assert_eq!(result.ccp_count, (n.pow(3) - n) / 6);
        assert_eq!(result.dp_entries, n * (n + 1) / 2);
        assert!(result.cost.is_finite());
        // The plan really covers relations beyond node 63.
        assert!(result.plan.relations_wide::<2>().contains(79));
    }

    #[test]
    fn oversized_specs_error_cleanly() {
        let err = optimize_spec(&chain_spec(MAX_WIDE_NODES + 1)).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::TooManyRelations {
                count: MAX_WIDE_NODES + 1,
                max: MAX_WIDE_NODES
            }
        );
        assert!(err.to_string().contains("129 relations"));
    }

    #[test]
    fn boundary_counts_choose_the_narrowest_sufficient_width() {
        // 64 relations stay on the single-word tier; 65 require the wide one. Both must plan.
        for n in [64usize, 65] {
            let result = optimize_spec(&chain_spec(n)).expect("boundary chain plans");
            assert_eq!(result.plan.join_count(), n - 1);
        }
    }

    #[test]
    fn apply_observed_moves_stats_but_not_shape() {
        let mut b = QuerySpec::builder(3);
        b.set_cardinality(0, 1_000_000.0);
        b.set_cardinality(1, 100.0);
        b.set_cardinality(2, 5.0);
        b.set_lateral_refs(2, &[0]);
        b.add_simple_edge(0, 1, 0.001);
        b.add_edge(&[0], &[2], 1.0, JoinOp::LeftOuter);
        let spec = b.build();

        let mut obs = qo_catalog::ObservedStats::new();
        obs.observe_cardinality(0, 16.0);
        obs.observe_selectivity(0, 0.14);
        // Ids the spec does not have are ignored, however large.
        obs.observe_cardinality(usize::MAX, 1.0);
        obs.observe_selectivity(1 << 40, 0.5);
        let fed = spec.apply_observed(&obs);

        assert_eq!(fed.cardinality(0), 16.0);
        assert_eq!(fed.cardinality(1), 100.0, "unobserved keeps its estimate");
        let sels: Vec<f64> = fed.edges().map(|e| e.selectivity()).collect();
        assert_eq!(sels, vec![0.14, 1.0]);
        assert_eq!(fed.lateral_refs(2), &[0]);
        assert_eq!(
            fed.edges().map(|e| e.op()).collect::<Vec<_>>(),
            vec![JoinOp::Inner, JoinOp::LeftOuter]
        );
        // Same shape, different stats epoch: the plan-cache drift signal.
        assert!(crate::same_shape(&spec, &fed));
        assert_ne!(
            fed.instantiate_catalog::<1>().stats_epoch(),
            spec.instantiate_catalog::<1>().stats_epoch()
        );
        // An empty overlay is the identity.
        assert_eq!(spec.apply_observed(&qo_catalog::ObservedStats::new()), spec);
    }

    #[test]
    fn malformed_edges_error_in_the_callers_ids() {
        let mut b = QuerySpec::builder(3);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 7, 0.1);
        let err = optimize_spec(&b.build()).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidEdge { edge: 1, .. }));
        assert!(err.to_string().contains("relation 7"), "{err}");

        let mut b = QuerySpec::builder(3);
        b.add_simple_edge(1, 1, 0.1);
        let err = optimize_spec(&b.build()).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidEdge { edge: 0, .. }));
        assert!(err.to_string().contains("relation 1"), "{err}");

        let mut b = QuerySpec::builder(3);
        b.add_edge(&[0], &[], 0.1, JoinOp::Inner);
        assert!(matches!(
            optimize_spec(&b.build()),
            Err(OptimizeError::InvalidEdge { edge: 0, .. })
        ));

        let mut b = QuerySpec::builder(3);
        b.add_generalized_edge(&[0], &[1], &[1], 0.1);
        assert!(matches!(
            optimize_spec(&b.build()),
            Err(OptimizeError::InvalidEdge { edge: 0, .. })
        ));
    }

    #[test]
    fn malformed_statistics_error_in_the_callers_ids() {
        let card = |c: f64| {
            let mut b = QuerySpec::builder(3);
            b.set_cardinality(2, c);
            b.add_simple_edge(0, 1, 0.1);
            b.add_simple_edge(1, 2, 0.1);
            optimize_spec(&b.build()).unwrap_err().to_string()
        };
        assert!(card(f64::NAN).contains("R2 has invalid cardinality NaN"));
        assert!(card(f64::INFINITY).contains("R2 has invalid cardinality inf"));
        assert!(card(-1.0).contains("R2 has invalid cardinality -1"));

        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let mut b = QuerySpec::builder(3);
            b.add_simple_edge(0, 1, 0.1);
            b.add_simple_edge(1, 2, bad);
            let err = optimize_spec(&b.build()).unwrap_err();
            assert_eq!(
                err,
                OptimizeError::InvalidCatalog(format!("edge e1 has invalid selectivity {bad}"))
            );
        }

        let mut b = QuerySpec::builder(3);
        b.set_lateral_refs(1, &[0, 9]);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 2, 0.1);
        let err = optimize_spec(&b.build()).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidCatalog(_)), "{err}");
        assert!(
            err.to_string().contains("R1 has lateral reference 9"),
            "{err}"
        );

        // A query of no relations has nothing to plan; it is an error, not a panic.
        assert_eq!(
            optimize_spec(&QuerySpec::builder(0).build()).unwrap_err(),
            OptimizeError::InvalidCatalog("a query needs at least one relation".to_string())
        );
    }

    #[test]
    fn specs_carry_operators_and_laterals() {
        // R0 ⟕ R1 via spec annotation round-trips through instantiation.
        let mut b = QuerySpec::builder(2);
        b.set_cardinality(0, 50.0).set_cardinality(1, 500.0);
        b.add_edge(&[0], &[1], 0.001, JoinOp::LeftOuter);
        let result = optimize_spec(&b.build()).unwrap();
        assert_eq!(result.plan.operators(), vec![JoinOp::LeftOuter]);

        let mut b = QuerySpec::builder(2);
        b.set_cardinality(0, 100.0).set_cardinality(1, 5.0);
        b.set_lateral_refs(1, &[0]);
        b.add_simple_edge(0, 1, 1.0);
        let result = optimize_spec(&b.build()).unwrap();
        assert_eq!(result.plan.operators(), vec![JoinOp::DepJoin]);
    }

    #[test]
    fn stats_distance_sums_log_ratios_with_cardinalities_floored_at_one() {
        let spec = |cards: [f64; 3], sel: f64| {
            let mut b = QuerySpec::builder(3);
            for (r, c) in cards.into_iter().enumerate() {
                b.set_cardinality(r, c);
            }
            b.add_simple_edge(0, 1, sel).add_simple_edge(1, 2, 0.5);
            b.build()
        };
        let a = spec([100.0, 0.0, 8.0], 0.25);
        let b = spec([400.0, 0.5, 8.0], 0.5);
        // ln 4 (relation 0) + 0 (both floored to 1) + ln 2 (edge 0).
        let expected = 4f64.ln() + 2f64.ln();
        assert!((a.stats_distance(&b) - expected).abs() < 1e-12);
        assert!((b.stats_distance(&a) - expected).abs() < 1e-12);
        assert_eq!(a.stats_distance(&a), 0.0);
        assert_eq!(a.stats_distance(&chain_spec(4)), f64::INFINITY);
    }

    #[test]
    fn the_canonical_form_is_computed_once_per_spec_and_never_compared() {
        let spec = chain_spec(6);
        let first: *const CanonicalQuery = spec.canonical();
        assert!(
            std::ptr::eq(first, spec.canonical()),
            "one computation per spec"
        );
        let fresh = canonicalize(&spec);
        assert_eq!(spec.canonical().spec, fresh.spec);
        assert_eq!(spec.canonical().to_original, fresh.to_original);
        assert_eq!(spec.canonical().shape_hash, fresh.shape_hash);
        // Equality and `Debug` never look at the form: a clone starts without it.
        let copy = spec.clone();
        assert_eq!(copy, spec);
        assert_eq!(format!("{copy:?}"), format!("{spec:?}"));
        assert_eq!(copy.canonical().spec, fresh.spec);
    }
}
