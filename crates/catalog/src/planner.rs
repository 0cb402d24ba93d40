//! Shared dynamic-programming machinery: the csg-cmp-pair handler interface and the cost-based
//! plan construction that implements the paper's `EmitCsgCmp` (the DP table itself lives in
//! [`crate::table`]).
//!
//! Every enumeration algorithm in this workspace (DPhyp, DPccp, DPsize, DPsub, the TES
//! generate-and-test variant) reports the csg-cmp-pairs it discovers through the [`CcpHandler`]
//! trait. The [`CostBasedHandler`] reacts by building and costing the candidate plans and
//! memoizing the best plan per relation set in a [`DpTable`]; the [`CountingHandler`] merely
//! counts pairs, which is how the tests compare an algorithm's emissions against the brute-force
//! oracle of `qo-hypergraph`. [`recost_plan`] runs a finished plan's joins back through the same
//! combiner under new statistics, with no table at all.
//!
//! Both the combiner and the handler are generic over the [`CostModel`] (defaulting to
//! `dyn CostModel` for callers that need runtime model selection): monomorphized instantiations
//! inline the cost function straight into `EmitCsgCmp`, which runs once per csg-cmp-pair and is
//! the planner's measured hot path.

use crate::catalog::Catalog;
use crate::cost::{CostModel, SubPlanStats};
pub use crate::table::{BestJoin, ClassSlot, DpTable, PlanClass};
use qo_bitset::{NodeId, NodeSet};
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::{JoinOp, PlanNode};
use std::collections::HashSet;

/// Flow signal returned by [`CcpHandler::emit_ccp`]: should the enumeration keep going?
///
/// This is the early-exit channel of the budgeted optimization driver: a handler that has
/// exhausted its csg-cmp-pair budget (see [`BudgetedHandler`]) answers [`EmitSignal::Abort`]
/// *from inside* `EmitCsgCmp`, and the enumerator unwinds immediately instead of finishing an
/// enumeration whose pair count may be astronomically large (a 96-relation star has `95·2^94`
/// pairs). Handlers without a budget simply always return [`EmitSignal::Continue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "enumeration must unwind when the handler aborts"]
pub enum EmitSignal {
    /// Keep enumerating.
    Continue,
    /// Stop: the handler accepts no further pairs (e.g. its ccp budget is exhausted).
    Abort,
}

impl EmitSignal {
    /// Is this the abort signal?
    #[inline]
    pub fn is_abort(self) -> bool {
        self == EmitSignal::Abort
    }
}

/// Interface through which enumeration algorithms report their progress.
///
/// The contract mirrors the paper's use of the DP table:
/// * [`CcpHandler::init_leaf`] is called once per relation before enumeration starts,
/// * [`CcpHandler::slot`] answers "does the DP table have an entry for this set", which the
///   algorithms use as their connectivity test, with a handle to the entry,
/// * [`CcpHandler::emit_ccp`] is called exactly once per canonical csg-cmp-pair `(S1, S2)`,
///   with the slots the connectivity test returned for `S1` and `S2`, and must register
///   `S1 ∪ S2` so that later `slot` calls see it. Its [`EmitSignal`] return value lets the
///   handler abort the enumeration early; once a handler has answered [`EmitSignal::Abort`]
///   the algorithm must not emit further pairs.
///
/// Handing the slots back means a pair costs the handler one table probe, for the union: the
/// enumerator looks each class up once, when it tests the set's connectivity.
pub trait CcpHandler<const W: usize = 1> {
    /// Handle to a registered class. It must stay valid for the handler's lifetime (the
    /// [`CostBasedHandler`] uses the never-moving [`ClassSlot`]; handlers that keep no arena
    /// use `()`).
    type Slot: Copy;

    /// Registers the access plan for a single relation.
    fn init_leaf(&mut self, relation: NodeId);

    /// The slot of the class for `set`, or `None` if no class exists yet.
    fn slot(&self, set: NodeSet<W>) -> Option<Self::Slot>;

    /// Processes the csg-cmp-pair `(s1, s2)`, whose classes sit at `slot1` and `slot2`, and
    /// reports whether enumeration may continue.
    fn emit_ccp(
        &mut self,
        s1: NodeSet<W>,
        slot1: Self::Slot,
        s2: NodeSet<W>,
        slot2: Self::Slot,
    ) -> EmitSignal;

    /// Number of csg-cmp-pairs processed so far.
    fn ccp_count(&self) -> usize;
}

/// Combines two plan classes into a candidate class: recovers the operator from the hyperedge
/// annotations, decides the operator orientation and the dependent-join question (Sec. 5.6),
/// estimates cardinality and cost.
///
/// `M` is the cost model; instantiating the combiner with a concrete model (the normal case)
/// lets the compiler inline [`CostModel::join_cost`] into the per-pair hot path. The
/// `dyn CostModel` default keeps one dynamically-dispatched instantiation available for callers
/// that select the model at runtime.
pub struct JoinCombiner<'a, M: ?Sized = dyn CostModel, const W: usize = 1>
where
    M: CostModel<W>,
{
    graph: &'a Hypergraph<W>,
    catalog: &'a Catalog<W>,
    cost_model: &'a M,
    /// When set, every connecting edge's TES must be contained in `S1 ∪ S2` (with the left/right
    /// split respected). This is the generate-and-test approach the paper compares against in
    /// Fig. 8a; the hypergraph-based approach encodes the same constraints as hyperedges and
    /// needs no test.
    enforce_tes: bool,
    /// Every edge's selectivity by id, copied once when every edge is an inner predicate and
    /// no relation has lateral references; [`combine`](Self::combine) then takes its inner-join
    /// short path. `None` otherwise.
    inner_selectivities: Option<Box<[f64]>>,
}

impl<'a, M: CostModel<W> + ?Sized, const W: usize> JoinCombiner<'a, M, W> {
    /// Creates a combiner.
    pub fn new(graph: &'a Hypergraph<W>, catalog: &'a Catalog<W>, cost_model: &'a M) -> Self {
        let edges = 0..graph.edge_count();
        let inner_only = !catalog.has_lateral_refs()
            && edges
                .clone()
                .all(|e| catalog.edge_annotation(e).op.is_inner());
        let inner_selectivities = inner_only.then(|| {
            edges
                .map(|e| catalog.edge_annotation(e).selectivity)
                .collect()
        });
        JoinCombiner {
            graph,
            catalog,
            cost_model,
            enforce_tes: false,
            inner_selectivities,
        }
    }

    /// Enables the TES generate-and-test check (see [`JoinCombiner`] docs).
    pub fn with_tes_enforcement(mut self, enforce: bool) -> Self {
        self.enforce_tes = enforce;
        self
    }

    /// The hypergraph joined over.
    pub fn graph(&self) -> &'a Hypergraph<W> {
        self.graph
    }

    /// The catalog consulted for statistics.
    pub fn catalog(&self) -> &'a Catalog<W> {
        self.catalog
    }

    /// Combines the sub-plans `a` and `b` into the best candidate for `a.set ∪ b.set`, or
    /// `None` if no valid join exists (no connecting edge, TES violated, unresolved lateral
    /// references, …).
    ///
    /// `edges` must be the connecting edges of `(a.set, b.set)` — the caller obtains them via
    /// [`Hypergraph::connecting_edges_into`] into a reused buffer so that the per-pair hot path
    /// performs no allocation. The candidate does not keep them: [`DpTable::reconstruct`]
    /// recollects the same list for the joins of the returned plan.
    pub fn combine(
        &self,
        a: &SubPlanStats<W>,
        b: &SubPlanStats<W>,
        edges: &[EdgeId],
    ) -> Option<PlanClass<W>> {
        debug_assert!(a.set.is_disjoint(b.set));
        debug_assert_eq!(edges, self.graph.connecting_edges(a.set, b.set).as_slice());
        if edges.is_empty() {
            return None;
        }
        if let (Some(selectivities), false) = (&self.inner_selectivities, self.enforce_tes) {
            return Some(self.combine_inner(a, b, edges, selectivities));
        }
        let union = a.set | b.set;
        let selectivity = self.catalog.selectivity_product(edges);

        // Recover the operator: prefer the (unique) non-inner operator among the connecting
        // edges; plain predicates keep the inner join.
        let mut op = JoinOp::Inner;
        let mut defining_edge: Option<EdgeId> = None;
        for &e in edges {
            let ann = self.catalog.edge_annotation(e);
            if !ann.op.is_inner() {
                debug_assert!(
                    op.is_inner() || op == ann.op,
                    "conflicting non-inner operators on one csg-cmp-pair: {op:?} vs {:?}",
                    ann.op
                );
                op = ann.op;
                defining_edge = Some(e);
            } else if defining_edge.is_none() {
                defining_edge = Some(e);
            }
        }

        if self.enforce_tes && !self.tes_satisfied(edges, a.set, b.set) {
            return None;
        }

        // Candidate orientations. Non-commutative operators are oriented by their defining
        // hyperedge: the edge's left hypernode belongs to the operator's left input (Sec. 5.4).
        let mut orientations: [Option<(&SubPlanStats<W>, &SubPlanStats<W>)>; 2] = [None, None];
        if op.is_commutative() {
            orientations[0] = Some((a, b));
            orientations[1] = Some((b, a));
        } else {
            let e = self.graph.edge(defining_edge.expect("non-empty edge list"));
            if e.left().is_subset_of(a.set) && e.right().is_subset_of(b.set) {
                orientations[0] = Some((a, b));
            } else {
                orientations[0] = Some((b, a));
            }
        }

        // Dependent-join inputs (Sec. 5.6), hoisted out of the orientation loop; for the common
        // lateral-free catalog both sets are empty and the per-pair scans are skipped entirely.
        let (ft_a, ft_b) = if self.catalog.has_lateral_refs() {
            (
                self.catalog.free_tables(a.set),
                self.catalog.free_tables(b.set),
            )
        } else {
            (NodeSet::EMPTY, NodeSet::EMPTY)
        };

        let mut best: Option<PlanClass<W>> = None;
        for (outer, inner) in orientations.into_iter().flatten() {
            if self.enforce_tes && !self.tes_orientation_ok(edges, outer.set, inner.set) {
                continue;
            }
            // Dependent-join decision (Sec. 5.6): FT(P2) ∩ S1 ≠ ∅ turns the operator into its
            // dependent counterpart; the lateral references must be fully available on the
            // outer side.
            let (ft_outer, ft_inner) = if outer.set == a.set {
                (ft_a, ft_b)
            } else {
                (ft_b, ft_a)
            };
            if ft_outer.intersects(inner.set) {
                // The outer side would depend on the inner side — invalid for left-handed
                // operators; the swapped orientation (if allowed) handles it.
                continue;
            }
            let actual_op = if ft_inner.intersects(outer.set) {
                if !ft_inner.is_subset_of(outer.set) {
                    // Some lateral references are not yet available; this pair cannot be joined
                    // here.
                    continue;
                }
                op.dependent_counterpart()
            } else {
                op
            };
            let cardinality = crate::cardinality::join_cardinality(
                actual_op,
                outer.cardinality,
                inner.cardinality,
                selectivity,
            );
            let cost = self
                .cost_model
                .join_cost(actual_op, outer, inner, cardinality);
            let candidate = PlanClass {
                set: union,
                cardinality,
                cost,
                best_join: Some(BestJoin {
                    left: outer.set,
                    right: inner.set,
                    op: actual_op,
                }),
            };
            match &best {
                Some(b) if b.cost <= candidate.cost => {}
                _ => best = Some(candidate),
            }
        }
        best
    }

    /// [`combine`](Self::combine) for an all-inner, lateral-free catalog without TES
    /// enforcement: no operator to recover, no dependent join, both orientations allowed. The
    /// same two candidates as the general path, the same tie rule (the second orientation
    /// replaces the first only when strictly cheaper) and the same bits: `a·b·sel` and
    /// `b·a·sel` round alike, and the selectivity product multiplies in edge order.
    #[inline]
    fn combine_inner(
        &self,
        a: &SubPlanStats<W>,
        b: &SubPlanStats<W>,
        edges: &[EdgeId],
        selectivities: &[f64],
    ) -> PlanClass<W> {
        let selectivity: f64 = edges.iter().map(|&e| selectivities[e]).product();
        let op = JoinOp::Inner;
        let cardinality =
            crate::cardinality::join_cardinality(op, a.cardinality, b.cardinality, selectivity);
        let cost_ab = self.cost_model.join_cost(op, a, b, cardinality);
        let cost_ba = self.cost_model.join_cost(op, b, a, cardinality);
        let (left, right, cost) = if cost_ab <= cost_ba {
            (a.set, b.set, cost_ab)
        } else {
            (b.set, a.set, cost_ba)
        };
        PlanClass {
            set: a.set | b.set,
            cardinality,
            cost,
            best_join: Some(BestJoin { left, right, op }),
        }
    }

    fn tes_satisfied(&self, edges: &[EdgeId], s1: NodeSet<W>, s2: NodeSet<W>) -> bool {
        let union = s1 | s2;
        edges.iter().all(|&e| {
            let tes = self.catalog.edge_annotation(e).tes();
            tes.is_subset_of(union)
        })
    }

    fn tes_orientation_ok(&self, edges: &[EdgeId], outer: NodeSet<W>, inner: NodeSet<W>) -> bool {
        edges.iter().all(|&e| {
            let ann = self.catalog.edge_annotation(e);
            if ann.op.is_inner() || ann.op.is_commutative() {
                return true;
            }
            (ann.tes_left.is_empty() || ann.tes_left.is_subset_of(outer))
                && (ann.tes_right.is_empty() || ann.tes_right.is_subset_of(inner))
        })
    }
}

/// The standard cost-based handler: reacts to each csg-cmp-pair exactly like the paper's
/// `EmitCsgCmp`, i.e. builds the candidate plan(s) for `S1 ∪ S2` and memoizes the cheapest.
///
/// Generic over the cost model like [`JoinCombiner`]; a concrete `M` makes the whole
/// pair-processing path — connecting-edge collection into a reused buffer, candidate
/// construction, cost call, table offer — free of virtual dispatch and allocation. The two
/// input classes are read through the slots the enumerator passes in, so the lookup of the
/// union's slot is the pair's only table probe (a pair that creates its union's class takes
/// the insert too).
///
/// A pair whose candidate could not replace the union's best plan is counted but not costed.
/// By the cost floor of [`CostModel`] no candidate costs less than its output cardinality plus
/// its inputs' costs, and the incumbent keeps ties. When the union's cardinality is the same
/// for every split ([`CARDINALITY_FLOOR_FACTOR`] says when), the incumbent's cardinality,
/// shrunk by a rounding margin, stands in for the candidate's; otherwise the output term is
/// zero and the inputs' costs alone must reach the incumbent's. The table ends up bit-for-bit
/// the one that costing every pair builds.
pub struct CostBasedHandler<'a, M: ?Sized = dyn CostModel, const W: usize = 1>
where
    M: CostModel<W>,
{
    combiner: JoinCombiner<'a, M, W>,
    table: DpTable<W>,
    /// Reused connecting-edge buffer; one `emit_ccp` at a time borrows it.
    edge_buf: Vec<EdgeId>,
    ccps: usize,
    /// [`CARDINALITY_FLOOR_FACTOR`] when the query's class cardinalities are split-invariant,
    /// else `0.0`: the factor that turns an incumbent's cardinality into a lower bound on any
    /// candidate's for the same set.
    cardinality_floor: f64,
}

/// The rounding margin of the cardinality floor: under [`CostBasedHandler`]'s guard, any two
/// splits' cardinalities for one set differ by less than this factor.
///
/// The guard: every edge is a simple inner predicate, no relation has lateral references, TES
/// enforcement is off, and the products of the query's cardinalities and selectivities stay
/// normal f64 numbers, over at most 2²⁰ relations and edges. Then a set `U`'s cardinality
/// is, for every split, the product of the same factors: its relations' cardinalities and the
/// selectivities of the edges inside it. Each join rounds `k + 1` times for its `k` edges, so
/// a plan of `U` rounds at most `R = m + n` times over `m` edges and `n` relations, each time
/// by a factor within `1 ± 2⁻⁵³`; two splits differ by a factor of at least
/// `(1 − 2⁻⁵³)^(2R) ≥ 1 − R·2⁻⁵²`, and one more rounding scales the incumbent down. With
/// `R ≤ 2²⁰` that is far inside `1 − 2⁻³²`. A relation with zero rows makes every set holding
/// it exactly zero in every split.
pub const CARDINALITY_FLOOR_FACTOR: f64 = 1.0 - 1.0 / (1u64 << 32) as f64;

/// The largest relation-plus-edge count for which [`CARDINALITY_FLOOR_FACTOR`] covers the
/// rounding of a plan's cardinality.
const MAX_FLOOR_ROUNDINGS: usize = 1 << 20;

/// [`CARDINALITY_FLOOR_FACTOR`] when `combiner`'s query passes the guard described there, else
/// `0.0`. One pass over the relations and edges, once per query.
fn cardinality_floor<M: CostModel<W> + ?Sized, const W: usize>(
    combiner: &JoinCombiner<'_, M, W>,
) -> f64 {
    let graph = combiner.graph;
    let (Some(selectivities), false) = (&combiner.inner_selectivities, combiner.enforce_tes) else {
        return 0.0;
    };
    if graph.has_complex_edges() || graph.node_count() + graph.edge_count() > MAX_FLOOR_ROUNDINGS {
        return 0.0;
    }
    // Every product of the statistics lies between the product of the factors below one
    // (`low`) and the product of those above (`high`); zero-row relations are exact and left
    // out. The slack of 4 covers the rounding of these two products and of the plans'.
    let (mut low, mut high) = (1.0_f64, 1.0_f64);
    for r in 0..graph.node_count() {
        let c = combiner.catalog.cardinality(r);
        if !(c.is_finite() && c >= 0.0) {
            return 0.0;
        } else if c >= 1.0 {
            high *= c;
        } else if c > 0.0 {
            low *= c;
        }
    }
    for &sel in selectivities.iter() {
        if !(sel > 0.0 && sel <= 1.0) {
            return 0.0;
        }
        low *= sel;
    }
    if low >= 4.0 * f64::MIN_POSITIVE && high <= f64::MAX / 4.0 {
        CARDINALITY_FLOOR_FACTOR
    } else {
        0.0
    }
}

impl<'a, M: CostModel<W> + ?Sized, const W: usize> CostBasedHandler<'a, M, W> {
    /// Creates a handler over an empty DP table sized for the combiner's graph
    /// ([`DpTable::with_relations`]).
    pub fn new(combiner: JoinCombiner<'a, M, W>) -> Self {
        CostBasedHandler {
            table: DpTable::with_relations(combiner.graph().node_count()),
            cardinality_floor: cardinality_floor(&combiner),
            combiner,
            edge_buf: Vec::new(),
            ccps: 0,
        }
    }

    /// The underlying DP table.
    pub fn table(&self) -> &DpTable<W> {
        &self.table
    }

    /// Consumes the handler and returns the DP table.
    pub fn into_table(self) -> DpTable<W> {
        self.table
    }

    /// The combiner used by this handler.
    pub fn combiner(&self) -> &JoinCombiner<'a, M, W> {
        &self.combiner
    }
}

impl<M: CostModel<W> + ?Sized, const W: usize> CcpHandler<W> for CostBasedHandler<'_, M, W> {
    type Slot = ClassSlot;

    fn init_leaf(&mut self, relation: NodeId) {
        let card = self.combiner.catalog().cardinality(relation);
        self.table.insert_leaf(relation, card);
    }

    #[inline]
    fn slot(&self, set: NodeSet<W>) -> Option<ClassSlot> {
        self.table.slot(set)
    }

    fn emit_ccp(
        &mut self,
        s1: NodeSet<W>,
        slot1: ClassSlot,
        s2: NodeSet<W>,
        slot2: ClassSlot,
    ) -> EmitSignal {
        self.ccps += 1;
        let a = self.table.class(slot1).stats();
        let b = self.table.class(slot2).stats();
        debug_assert_eq!((a.set, b.set), (s1, s2), "slots of a different pair");
        // The cost floor (see `CostModel`): no candidate costs less than its output
        // cardinality plus its inputs' costs, in either orientation, and the incumbent keeps
        // ties. The output term is the incumbent's cardinality shrunk by the rounding margin
        // when cardinality is split-invariant, zero otherwise. A pair whose floor reaches the
        // union's best plan cannot win; it is counted and skipped. Debug builds still cost it,
        // to check that the table would have rejected it.
        let union = self.table.slot(s1 | s2);
        let dominated = union.is_some_and(|slot| {
            let incumbent = self.table.class(slot);
            let output = incumbent.cardinality * self.cardinality_floor;
            (output + a.cost + b.cost).min(output + b.cost + a.cost) >= incumbent.cost
        });
        if dominated && !cfg!(debug_assertions) {
            return EmitSignal::Continue;
        }
        self.combiner
            .graph()
            .connecting_edges_into(s1, s2, &mut self.edge_buf);
        let Some(candidate) = self.combiner.combine(&a, &b, &self.edge_buf) else {
            return EmitSignal::Continue;
        };
        debug_assert!(
            {
                let join = candidate
                    .best_join
                    .expect("a combined class records its join");
                let (left, right) = if join.left == a.set { (a, b) } else { (b, a) };
                candidate.cost >= candidate.cardinality + left.cost + right.cost
            },
            "a join cost below its output cardinality plus its inputs' cost"
        );
        match union {
            Some(slot) => {
                let accepted = self.table.offer_at(slot, candidate);
                debug_assert!(
                    !(dominated && accepted),
                    "the floor skipped an improving pair"
                );
            }
            None => {
                self.table.offer(candidate);
            }
        }
        EmitSignal::Continue
    }

    fn ccp_count(&self) -> usize {
        self.ccps
    }
}

/// Re-costs the join order of `plan` bottom-up under the (possibly drifted) statistics of
/// `catalog`, without re-enumerating any csg-cmp-pairs.
///
/// This is the incremental half of plan caching: the join *structure* of a cached plan — which
/// relations each join combines — is kept, while cardinalities, selectivities and costs are
/// recomputed through the same [`JoinCombiner`] the enumeration used. Each join takes the
/// combiner's orientation and operator, and the graph's connecting edges of its two inputs as
/// its predicates, so a re-costed plan is bit-identical to the plan a from-scratch optimization
/// reconstructs for the same join order.
///
/// Returns `None` when the plan does not fit the graph/catalog — a relation out of range or
/// joined twice, a join no longer connected, or an invalid catalog. Callers treat that as a
/// cache miss and fall back to a full optimization; it cannot happen when the plan was built
/// for a query of the same shape.
pub fn recost_plan<M: CostModel<W> + ?Sized, const W: usize>(
    plan: &PlanNode,
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
) -> Option<PlanNode> {
    if catalog.validate_for(graph).is_err() {
        return None;
    }
    let combiner = JoinCombiner::new(graph, catalog, cost_model);
    recost_subtree(plan, &combiner).map(|(plan, _)| plan)
}

/// [`recost_plan`] of one subtree, with the re-costed subtree's statistics.
fn recost_subtree<M: CostModel<W> + ?Sized, const W: usize>(
    plan: &PlanNode,
    combiner: &JoinCombiner<'_, M, W>,
) -> Option<(PlanNode, SubPlanStats<W>)> {
    match plan {
        &PlanNode::Scan { relation, .. } => {
            if relation >= combiner.graph().node_count() {
                return None;
            }
            let cardinality = combiner.catalog().cardinality(relation);
            Some((
                PlanNode::scan(relation, cardinality),
                SubPlanStats::leaf(relation, cardinality),
            ))
        }
        PlanNode::Join { left, right, .. } => {
            let (left, a) = recost_subtree(left, combiner)?;
            let (right, b) = recost_subtree(right, combiner)?;
            if a.set.intersects(b.set) {
                return None;
            }
            let edges = combiner.graph().connecting_edges(a.set, b.set);
            let class = combiner.combine(&a, &b, &edges)?;
            let join = class.best_join.expect("a combined class records its join");
            let (left, right) = if join.left == a.set {
                (left, right)
            } else {
                (right, left)
            };
            let node = PlanNode::join(join.op, left, right, edges, class.cardinality, class.cost);
            Some((node, class.stats()))
        }
    }
}

/// A handler that only records which csg-cmp-pairs were emitted. Used to validate enumeration
/// algorithms against the brute-force oracle and to measure search-space sizes without paying
/// for plan construction.
#[derive(Clone, Debug)]
pub struct CountingHandler<const W: usize = 1> {
    connected: HashSet<NodeSet<W>>,
    pairs: Vec<(NodeSet<W>, NodeSet<W>)>,
}

impl<const W: usize> Default for CountingHandler<W> {
    fn default() -> Self {
        CountingHandler {
            connected: HashSet::new(),
            pairs: Vec::new(),
        }
    }
}

impl<const W: usize> CountingHandler<W> {
    /// Creates an empty counting handler.
    pub fn new() -> Self {
        Self::default()
    }

    /// All emitted pairs in emission order.
    pub fn pairs(&self) -> &[(NodeSet<W>, NodeSet<W>)] {
        &self.pairs
    }

    /// The emitted pairs in canonical form (`min(S1) ≺ min(S2)`), sorted — directly comparable
    /// with `qo_hypergraph::enumerate_ccps`.
    pub fn canonical_pairs(&self) -> Vec<(NodeSet<W>, NodeSet<W>)> {
        let mut v: Vec<_> = self
            .pairs
            .iter()
            .map(|&(a, b)| {
                if a.min_node() <= b.min_node() {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        v.sort();
        v
    }
}

impl<const W: usize> CcpHandler<W> for CountingHandler<W> {
    type Slot = ();

    fn init_leaf(&mut self, relation: NodeId) {
        self.connected.insert(NodeSet::single(relation));
    }

    fn slot(&self, set: NodeSet<W>) -> Option<()> {
        self.connected.contains(&set).then_some(())
    }

    fn emit_ccp(&mut self, s1: NodeSet<W>, _: (), s2: NodeSet<W>, _: ()) -> EmitSignal {
        self.connected.insert(s1 | s2);
        self.pairs.push((s1, s2));
        EmitSignal::Continue
    }

    fn ccp_count(&self) -> usize {
        self.pairs.len()
    }
}

/// Decorates any [`CcpHandler`] with a csg-cmp-pair budget: the wrapped handler processes at
/// most `budget` pairs, and the first pair beyond the budget answers [`EmitSignal::Abort`]
/// *without* the pair being forwarded.
///
/// The pair boundary is deliberately exclusive of the abort: a budget exactly equal to the
/// true pair count of a query lets the enumeration complete (the budget-th pair is still
/// processed; only a would-be `budget + 1`-th aborts), so "budget = known ccp count" never
/// falls back spuriously. This is the budget state behind the adaptive optimization driver in
/// the `dphyp` crate, which reacts to [`BudgetedHandler::aborted`] by re-planning with
/// iterative dynamic programming or greedy operator ordering.
#[derive(Clone, Debug)]
pub struct BudgetedHandler<H, const W: usize = 1> {
    inner: H,
    budget: usize,
    aborted: bool,
}

impl<H: CcpHandler<W>, const W: usize> BudgetedHandler<H, W> {
    /// Wraps `inner`, allowing it to process at most `budget` csg-cmp-pairs.
    pub fn new(inner: H, budget: usize) -> Self {
        BudgetedHandler {
            inner,
            budget,
            aborted: false,
        }
    }

    /// The configured pair budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Did the enumeration hit the pair budget and abort?
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// A shared reference to the wrapped handler.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Unwraps the budgeted decoration.
    pub fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: CcpHandler<W>, const W: usize> CcpHandler<W> for BudgetedHandler<H, W> {
    type Slot = H::Slot;

    fn init_leaf(&mut self, relation: NodeId) {
        self.inner.init_leaf(relation);
    }

    #[inline]
    fn slot(&self, set: NodeSet<W>) -> Option<H::Slot> {
        self.inner.slot(set)
    }

    fn emit_ccp(
        &mut self,
        s1: NodeSet<W>,
        slot1: H::Slot,
        s2: NodeSet<W>,
        slot2: H::Slot,
    ) -> EmitSignal {
        if self.inner.ccp_count() >= self.budget {
            self.aborted = true;
            return EmitSignal::Abort;
        }
        self.inner.emit_ccp(s1, slot1, s2, slot2)
    }

    fn ccp_count(&self) -> usize {
        self.inner.ccp_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EdgeAnnotation;
    use crate::cost::{CoutCost, MixedCost};
    use qo_plan::PlanShape;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// Emits `(s1, s2)` the way an enumerator does: with the slots the handler has for them.
    fn emit<H: CcpHandler>(h: &mut H, s1: NodeSet, s2: NodeSet) -> EmitSignal {
        let slot1 = h.slot(s1).expect("csg class exists");
        let slot2 = h.slot(s2).expect("cmp class exists");
        h.emit_ccp(s1, slot1, s2, slot2)
    }

    fn leaf_stats(relation: usize, cardinality: f64) -> SubPlanStats {
        SubPlanStats::leaf(relation, cardinality)
    }

    /// Combines two sub-plans the way the handler does, collecting the connecting edges first.
    fn combine_pair<M: CostModel + ?Sized>(
        combiner: &JoinCombiner<'_, M>,
        a: &SubPlanStats,
        b: &SubPlanStats,
    ) -> Option<PlanClass> {
        combiner.combine(a, b, &combiner.graph().connecting_edges(a.set, b.set))
    }

    /// Chain R0 - R1 - R2 with the given cardinalities and selectivities.
    fn chain3_with(cards: [f64; 3], sels: [f64; 2]) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        let mut cb = Catalog::builder(3);
        for (r, &card) in cards.iter().enumerate() {
            cb.set_cardinality(r, card);
        }
        for (e, &sel) in sels.iter().enumerate() {
            cb.annotate_edge(e, EdgeAnnotation::inner(sel));
        }
        (b.build(), cb.build())
    }

    /// Chain R0 - R1 - R2 with distinctive cardinalities.
    fn chain3() -> (Hypergraph, Catalog) {
        chain3_with([10.0, 1000.0, 10.0], [0.01, 0.01])
    }

    #[test]
    fn reconstruct_builds_the_recorded_tree() {
        let (g, c) = chain3();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let mut h = CostBasedHandler::new(combiner);
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        assert_eq!(h.ccp_count(), 4);
        let table = h.into_table();
        let plan = table.reconstruct(ns(&[0, 1, 2]), &g).expect("full plan");
        assert_eq!(plan.relations(), ns(&[0, 1, 2]));
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.applied_predicates(), vec![0, 1]);
        // With C_out both bushy arrangements tie; the plan must at least be a valid tree shape.
        assert!(matches!(
            plan.shape(),
            PlanShape::LeftDeep | PlanShape::RightDeep | PlanShape::ZigZag | PlanShape::Linear
        ));
        // Missing set → None.
        assert!(table.reconstruct(ns(&[0, 2]), &g).is_none());
    }

    /// `C_out` that counts its calls.
    #[derive(Default)]
    struct CountingCout(std::cell::Cell<usize>);

    impl CostModel for CountingCout {
        fn join_cost(
            &self,
            op: JoinOp,
            left: &SubPlanStats,
            right: &SubPlanStats,
            output_cardinality: f64,
        ) -> f64 {
            self.0.set(self.0.get() + 1);
            CoutCost.join_cost(op, left, right, output_cardinality)
        }

        fn name(&self) -> &'static str {
            "counting C_out"
        }
    }

    #[test]
    fn the_floor_counts_a_dominated_pair_without_costing_it() {
        // {1,2} costs 10⁴ on its own; {0,1} ⋈ {2} already plans {0,1,2} for 110.
        let (g, c) = chain3_with([10.0, 1000.0, 1000.0], [0.001, 0.01]);
        let model = CountingCout::default();
        let mut h = CostBasedHandler::new(JoinCombiner::new(&g, &c, &model));
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        assert_eq!(h.table().get(ns(&[0, 1, 2])).unwrap().cost, 110.0);
        assert_eq!(h.table().get(ns(&[1, 2])).unwrap().cost, 10_000.0);
        let before: Vec<PlanClass> = h.table().classes().copied().collect();
        let calls = model.0.get();

        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        assert_eq!(h.ccp_count(), 4);
        assert_eq!(h.table().classes().copied().collect::<Vec<_>>(), before);
        // Release builds skip the cost calls; debug builds make them to cross-check the skip.
        let expected = if cfg!(debug_assertions) { 2 } else { 0 };
        assert_eq!(model.0.get() - calls, expected);
    }

    #[test]
    fn a_pair_just_under_the_floor_still_improves_its_class() {
        // Exact binary arithmetic: {0,1} costs 1024 and {1,2} costs 1024 − 2⁻¹⁰. The first
        // pair plans {0,1,2} for 1025 − 2⁻²⁰. The second pair's inputs cost just over one
        // output cardinality (1 − 2⁻²⁰) less than that, so it is costed, and wins by 2⁻¹⁰.
        let tiny = 1.0 / 1024.0;
        let (g, c) = chain3_with([tiny, 1024.0 * 1024.0, tiny], [1.0, 1.0 - tiny * tiny]);
        let model = CountingCout::default();
        let mut h = CostBasedHandler::new(JoinCombiner::new(&g, &c, &model));
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let full = ns(&[0, 1, 2]);
        let incumbent = h.table().get(full).unwrap().cost;
        assert_eq!(incumbent, 1025.0 - tiny * tiny);
        let floor = h.table().get(ns(&[1, 2])).unwrap().cost;
        assert_eq!(floor, 1024.0 - tiny);
        let slot = h.slot(full);
        let calls = model.0.get();

        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        assert_eq!(model.0.get() - calls, 2, "both orientations are costed");
        assert_eq!(h.slot(full), slot, "the class improves in place");
        let class = h.table().get(full).unwrap();
        assert_eq!(class.cost, incumbent - tiny);
        let join = class.best_join.unwrap();
        assert_eq!((join.left, join.right), (ns(&[0]), ns(&[1, 2])));
    }

    #[test]
    fn the_cardinality_floor_counts_a_dominated_pair_without_costing_it() {
        // {0,1} costs 100 and {1,2} 105; {0,1} ⋈ {2} plans {0,1,2} (10.5 rows) for 110.5. The
        // pair {0} ⋈ {1,2} has inputs costing less than that, but they plus the 10.5 output
        // rows every split of {0,1,2} shares reach it.
        let (g, c) = chain3_with([10.0, 1000.0, 10.5], [0.01, 0.01]);
        let model = CountingCout::default();
        let mut h = CostBasedHandler::new(JoinCombiner::new(&g, &c, &model));
        assert_eq!(h.cardinality_floor, CARDINALITY_FLOOR_FACTOR);
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let full = h.table().get(ns(&[0, 1, 2])).unwrap();
        assert_eq!((full.cardinality, full.cost), (10.5, 110.5));
        let inputs = h.table().get(ns(&[1, 2])).unwrap().cost;
        assert!(
            inputs < full.cost,
            "the inputs' cost alone does not dominate"
        );
        let before: Vec<PlanClass> = h.table().classes().copied().collect();
        let calls = model.0.get();

        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        assert_eq!(h.ccp_count(), 4);
        assert_eq!(h.table().classes().copied().collect::<Vec<_>>(), before);
        // Release builds skip the cost calls; debug builds make them to cross-check the skip.
        let expected = if cfg!(debug_assertions) { 2 } else { 0 };
        assert_eq!(model.0.get() - calls, expected);
    }

    #[test]
    fn a_pair_just_under_the_cardinality_floor_still_improves_its_class() {
        // Exact binary arithmetic: {0,1} costs 1024 and {1,2} costs 1024 − 2⁻³⁰. Both splits
        // of {0,1,2} give 1 − 2⁻⁴⁰ rows, so the second pair's inputs plus the incumbent's rows
        // fall 2⁻³⁰ short of the incumbent's 1025 − 2⁻⁴⁰: it is costed and wins by 2⁻³⁰, a
        // step the rounding margin (a relative 2⁻³² of one row) does not swallow.
        let tiny = 1.0 / 1024.0;
        let step = tiny * tiny * tiny; // 2⁻³⁰
        let (g, c) = chain3_with([tiny, 1024.0 * 1024.0, tiny], [1.0, 1.0 - step * tiny]);
        let model = CountingCout::default();
        let mut h = CostBasedHandler::new(JoinCombiner::new(&g, &c, &model));
        assert_eq!(h.cardinality_floor, CARDINALITY_FLOOR_FACTOR);
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let full = ns(&[0, 1, 2]);
        let incumbent = *h.table().get(full).unwrap();
        assert_eq!(incumbent.cardinality, 1.0 - step * tiny);
        assert_eq!(incumbent.cost, 1025.0 - step * tiny);
        let inputs = h.table().get(ns(&[1, 2])).unwrap().cost;
        assert_eq!(inputs + incumbent.cardinality, incumbent.cost - step);
        let calls = model.0.get();

        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        assert_eq!(model.0.get() - calls, 2, "both orientations are costed");
        let class = h.table().get(full).unwrap();
        assert_eq!(class.cost, incumbent.cost - step);
        assert_eq!(class.cardinality, incumbent.cardinality);
        let join = class.best_join.unwrap();
        assert_eq!((join.left, join.right), (ns(&[0]), ns(&[1, 2])));
    }

    #[test]
    fn the_cardinality_floor_margin_keeps_a_pair_that_wins_by_a_rounding_step() {
        // Both splits of {0,1,2} have inputs of the same cost, and the same cardinality in
        // exact arithmetic, but {0} ⋈ {1,2} rounds its cardinality one step lower, so it wins
        // by that step. Without the margin, the incumbent's cardinality plus the inputs would
        // reach the incumbent's cost and skip it.
        let (g, c) = chain3_with([116.0, 954.0, 3.48], [0.024, 0.8]);
        let mut h = CostBasedHandler::new(JoinCombiner::new(&g, &c, &CoutCost));
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let full = ns(&[0, 1, 2]);
        let incumbent = *h.table().get(full).unwrap();
        let inputs = h.table().get(ns(&[1, 2])).unwrap().cost;
        assert_eq!(inputs, h.table().get(ns(&[0, 1])).unwrap().cost);
        assert!(incumbent.cardinality + inputs >= incumbent.cost);

        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        let class = h.table().get(full).unwrap();
        assert!(class.cardinality < incumbent.cardinality);
        assert!(class.cost < incumbent.cost);
        let join = class.best_join.unwrap();
        assert_eq!((join.left, join.right), (ns(&[0]), ns(&[1, 2])));
    }

    #[test]
    fn the_cardinality_floor_applies_only_where_every_split_shares_the_cardinality() {
        let floor_of = |g: &Hypergraph, c: &Catalog, tes: bool| {
            let combiner = JoinCombiner::new(g, c, &CoutCost).with_tes_enforcement(tes);
            CostBasedHandler::new(combiner).cardinality_floor
        };
        let on = CARDINALITY_FLOOR_FACTOR;
        // Zero-row and sub-unit relations keep it; the bounds come from the other factors.
        for cards in [
            [0.0, 1000.0, 10.0],
            [0.5, 1e-3, 0.25],
            [1e100, 1e100, 1e100],
        ] {
            let (g, c) = chain3_with(cards, [0.01, 1e-100]);
            assert_eq!(floor_of(&g, &c, false), on, "{cards:?}");
            assert_eq!(floor_of(&g, &c, true), 0.0, "TES enforcement, {cards:?}");
        }
        // Products that could saturate at `f64::MAX` or leave the normal range turn it off.
        let (g, c) = chain3_with([1e300, 1e10, 1.0], [1.0, 1.0]);
        assert_eq!(floor_of(&g, &c, false), 0.0);
        let (g, c) = chain3_with([1.0, 1.0, 1.0], [1e-300, 1e-10]);
        assert_eq!(floor_of(&g, &c, false), 0.0);
        let (g, c) = chain3_with([1e-200, 1.0, 1e-110], [1.0, 1.0]);
        assert_eq!(floor_of(&g, &c, false), 0.0);
        // So do a non-inner edge, a lateral reference and a hyperedge.
        let (g, _) = chain3();
        let mut cb = Catalog::builder(3);
        cb.annotate_edge(0, EdgeAnnotation::with_op(0.5, JoinOp::LeftOuter));
        assert_eq!(floor_of(&g, &cb.build(), false), 0.0);
        let mut cb = Catalog::builder(3);
        cb.set_lateral_refs(2, ns(&[1]));
        assert_eq!(floor_of(&g, &cb.build(), false), 0.0);
        let mut b = Hypergraph::builder(3);
        b.add_simple_edge(0, 1);
        b.add_hyperedge(ns(&[0, 1]), ns(&[2]));
        assert_eq!(
            floor_of(&b.build(), &Catalog::uniform(3, 10.0, 2, 0.5), false),
            0.0
        );
    }

    #[test]
    fn handler_is_usable_through_dyn_cost_model() {
        // The default `dyn CostModel` instantiation keeps runtime model selection working.
        let (g, c) = chain3();
        let model: &dyn CostModel = &CoutCost;
        let combiner: JoinCombiner<'_> = JoinCombiner::new(&g, &c, model);
        let mut h = CostBasedHandler::new(combiner);
        for r in 0..3 {
            h.init_leaf(r);
        }
        assert_eq!(emit(&mut h, ns(&[0]), ns(&[1])), EmitSignal::Continue);
        assert!(h.slot(ns(&[0, 1])).is_some());
    }

    #[test]
    fn combiner_requires_a_connecting_edge() {
        let (g, c) = chain3();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let a = leaf_stats(0, 10.0);
        let b = leaf_stats(2, 10.0);
        assert!(
            combine_pair(&combiner, &a, &b).is_none(),
            "R0 and R2 are not adjacent"
        );
    }

    #[test]
    fn combiner_inner_join_cost_and_cardinality() {
        let (g, c) = chain3();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let a = leaf_stats(0, 10.0);
        let b = leaf_stats(1, 1000.0);
        let combined = combine_pair(&combiner, &a, &b).expect("adjacent");
        // 10 * 1000 * 0.01 = 100
        assert!((combined.cardinality - 100.0).abs() < 1e-9);
        assert!((combined.cost - 100.0).abs() < 1e-9);
        assert_eq!(combined.set, ns(&[0, 1]));
        let join = combined.best_join.unwrap();
        assert_eq!(join.op, JoinOp::Inner);
        assert_eq!((join.left, join.right), (ns(&[0]), ns(&[1])));
    }

    #[test]
    fn combiner_orients_asymmetric_cost_models() {
        // With MixedCost (build on the right input), joining big ⋈ small must place the small
        // side on the right.
        let (g, c) = chain3();
        let model = MixedCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let small = leaf_stats(0, 10.0);
        let big = leaf_stats(1, 1000.0);
        let combined = combine_pair(&combiner, &small, &big).unwrap();
        let join = combined.best_join.unwrap();
        assert_eq!(join.left, ns(&[1]), "large input should be the probe side");
        assert_eq!(join.right, ns(&[0]));
    }

    #[test]
    fn combiner_orients_non_commutative_ops_by_edge_sides() {
        // R0 ⟕ R1: edge left = {0}, right = {1}. Even when the classes are passed in swapped
        // order the plan must keep R0 on the left.
        let mut gb = Hypergraph::builder(2);
        gb.add_simple_edge(0, 1);
        let g = gb.build();
        let mut cb = Catalog::builder(2);
        cb.set_cardinality(0, 10.0)
            .set_cardinality(1, 100.0)
            .annotate_edge(0, EdgeAnnotation::with_op(0.5, JoinOp::LeftOuter));
        let c = cb.build();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let r0 = leaf_stats(0, 10.0);
        let r1 = leaf_stats(1, 100.0);
        for (x, y) in [(&r0, &r1), (&r1, &r0)] {
            let combined = combine_pair(&combiner, x, y).unwrap();
            let join = combined.best_join.unwrap();
            assert_eq!(join.op, JoinOp::LeftOuter);
            assert_eq!(join.left, ns(&[0]));
            assert_eq!(join.right, ns(&[1]));
        }
    }

    #[test]
    fn combiner_turns_lateral_references_into_dependent_joins() {
        // R1 is a table function referencing R0 (e.g. R0 CROSS APPLY f(R0.x)).
        let mut gb = Hypergraph::builder(2);
        gb.add_simple_edge(0, 1);
        let g = gb.build();
        let mut cb = Catalog::builder(2);
        cb.set_cardinality(0, 100.0)
            .set_cardinality(1, 5.0)
            .set_lateral_refs(1, ns(&[0]))
            .annotate_edge(0, EdgeAnnotation::inner(1.0));
        let c = cb.build();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        let r0 = leaf_stats(0, 100.0);
        let r1 = leaf_stats(1, 5.0);
        let combined = combine_pair(&combiner, &r0, &r1).unwrap();
        let join = combined.best_join.unwrap();
        assert_eq!(
            join.op,
            JoinOp::DepJoin,
            "lateral reference must force a d-join"
        );
        assert_eq!(
            join.left,
            ns(&[0]),
            "the referenced relation must be on the left"
        );
        // Same result regardless of argument order.
        let combined2 = combine_pair(&combiner, &r1, &r0).unwrap();
        assert_eq!(combined2.best_join.unwrap().op, JoinOp::DepJoin);
    }

    #[test]
    fn lateral_refs_resolve_at_the_join_that_provides_the_referenced_relation() {
        // R1 references R2. Joining R0 with R1 is still allowed (the reference floats up and is
        // bound higher in the plan), but the join that finally brings R2 in must be a dependent
        // join with R2 on the left.
        let mut gb = Hypergraph::builder(3);
        gb.add_simple_edge(0, 1);
        gb.add_simple_edge(1, 2);
        let g = gb.build();
        let mut cb = Catalog::builder(3);
        cb.set_cardinality(0, 10.0)
            .set_cardinality(1, 10.0)
            .set_cardinality(2, 10.0)
            .set_lateral_refs(1, ns(&[2]));
        let c = cb.build();
        let model = CoutCost;
        let combiner = JoinCombiner::new(&g, &c, &model);
        // R0 ⋈ R1: reference to R2 is not touched by this join — stays a regular join.
        let r01 =
            combine_pair(&combiner, &leaf_stats(0, 10.0), &leaf_stats(1, 10.0)).expect("adjacent");
        assert_eq!(r01.best_join.as_ref().unwrap().op, JoinOp::Inner);
        let r01_stats = r01.stats();
        // ({R0,R1}) with R2: the only valid orientation places R2 (the referenced relation) on
        // the left and turns the operator into a dependent join.
        let combined = combine_pair(&combiner, &r01_stats, &leaf_stats(2, 10.0)).expect("adjacent");
        let join = combined.best_join.unwrap();
        assert_eq!(join.op, JoinOp::DepJoin);
        assert_eq!(join.left, ns(&[2]));
        assert_eq!(join.right, ns(&[0, 1]));
    }

    #[test]
    fn tes_enforcement_rejects_incomplete_pairs() {
        // Edge (0,1) carries an antijoin whose TES additionally requires R2 on the left.
        let mut gb = Hypergraph::builder(3);
        gb.add_simple_edge(0, 1);
        gb.add_simple_edge(0, 2);
        let g = gb.build();
        let mut cb = Catalog::builder(3);
        cb.annotate_edge(
            0,
            EdgeAnnotation::with_op(0.5, JoinOp::LeftAnti).with_tes(ns(&[0, 2]), ns(&[1])),
        );
        cb.annotate_edge(1, EdgeAnnotation::inner(0.5));
        let c = cb.build();
        let model = CoutCost;

        let tes_combiner = JoinCombiner::new(&g, &c, &model).with_tes_enforcement(true);
        // {R0} vs {R1}: TES {0,2} not contained in the union → rejected.
        assert!(
            combine_pair(&tes_combiner, &leaf_stats(0, 100.0), &leaf_stats(1, 100.0)).is_none()
        );
        // {R0,R2} vs {R1}: satisfied.
        let r02 = SubPlanStats {
            set: ns(&[0, 2]),
            cardinality: 5000.0,
            cost: 5000.0,
        };
        let combined =
            combine_pair(&tes_combiner, &r02, &leaf_stats(1, 100.0)).expect("TES satisfied");
        assert_eq!(combined.best_join.unwrap().op, JoinOp::LeftAnti);

        // Without enforcement the incomplete pair is accepted (this is exactly the extra work
        // the generate-and-test variant wastes).
        let plain = JoinCombiner::new(&g, &c, &model);
        assert!(combine_pair(&plain, &leaf_stats(0, 100.0), &leaf_stats(1, 100.0)).is_some());
    }

    #[test]
    fn counting_handler_tracks_connectivity_and_pairs() {
        let mut h = CountingHandler::new();
        h.init_leaf(0);
        h.init_leaf(1);
        h.init_leaf(2);
        assert!(h.slot(ns(&[1])).is_some());
        assert!(h.slot(ns(&[0, 1])).is_none());
        let _ = emit(&mut h, ns(&[1]), ns(&[0]));
        assert!(h.slot(ns(&[0, 1])).is_some());
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        assert_eq!(h.ccp_count(), 2);
        let canon = h.canonical_pairs();
        assert_eq!(canon, vec![(ns(&[0]), ns(&[1])), (ns(&[0, 1]), ns(&[2]))]);
    }

    #[test]
    fn budgeted_handler_aborts_strictly_beyond_the_budget() {
        let mut h = BudgetedHandler::new(CountingHandler::<1>::new(), 2);
        for r in 0..4 {
            h.init_leaf(r);
        }
        assert_eq!(h.budget(), 2);
        // Pairs 1 and 2 are within the budget and forwarded to the wrapped handler.
        assert_eq!(emit(&mut h, ns(&[0]), ns(&[1])), EmitSignal::Continue);
        assert_eq!(emit(&mut h, ns(&[0, 1]), ns(&[2])), EmitSignal::Continue);
        assert!(!h.aborted(), "budget == emitted pairs must not abort");
        assert!(h.slot(ns(&[0, 1, 2])).is_some());
        // The budget + 1-th pair aborts and is NOT forwarded.
        assert_eq!(emit(&mut h, ns(&[0, 1, 2]), ns(&[3])), EmitSignal::Abort);
        assert!(h.aborted());
        assert_eq!(h.ccp_count(), 2);
        assert!(h.slot(ns(&[0, 1, 2, 3])).is_none());
        assert_eq!(h.inner().pairs().len(), 2);
        assert_eq!(h.into_inner().ccp_count(), 2);
    }

    #[test]
    fn zero_budget_aborts_on_the_first_pair() {
        let mut h = BudgetedHandler::new(CountingHandler::<1>::new(), 0);
        h.init_leaf(0);
        h.init_leaf(1);
        assert_eq!(emit(&mut h, ns(&[0]), ns(&[1])), EmitSignal::Abort);
        assert!(h.aborted());
        assert_eq!(h.ccp_count(), 0);
    }

    /// Exhaustive little DP over `chain3` through the cost-based handler.
    fn solve_chain3(graph: &Hypergraph, catalog: &Catalog) -> DpTable {
        let combiner = JoinCombiner::new(graph, catalog, &CoutCost);
        let mut h = CostBasedHandler::new(combiner);
        for r in 0..3 {
            h.init_leaf(r);
        }
        let _ = emit(&mut h, ns(&[0]), ns(&[1]));
        let _ = emit(&mut h, ns(&[1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0, 1]), ns(&[2]));
        let _ = emit(&mut h, ns(&[0]), ns(&[1, 2]));
        h.into_table()
    }

    /// The plan the exhaustive DP over `chain3` picks.
    fn chain3_plan(graph: &Hypergraph, catalog: &Catalog) -> PlanNode {
        solve_chain3(graph, catalog)
            .reconstruct(graph.all_nodes(), graph)
            .expect("complete plan")
    }

    /// Builds `plan`'s join order from scratch: a DP that is offered only the plan's own joins,
    /// bottom-up.
    fn build_order(plan: &PlanNode, graph: &Hypergraph, catalog: &Catalog) -> PlanNode {
        fn emit_joins<H: CcpHandler>(h: &mut H, plan: &PlanNode) {
            if let PlanNode::Join { left, right, .. } = plan {
                emit_joins(h, left);
                emit_joins(h, right);
                let _ = emit(h, left.relations(), right.relations());
            }
        }
        let mut h = CostBasedHandler::new(JoinCombiner::new(graph, catalog, &CoutCost));
        for r in 0..graph.node_count() {
            h.init_leaf(r);
        }
        emit_joins(&mut h, plan);
        h.into_table()
            .reconstruct(plan.relations(), graph)
            .expect("the order's joins are connected")
    }

    /// Cost and cardinality bits of every node, in visit order.
    fn bits(plan: &PlanNode) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        plan.visit(&mut |n| out.push((n.cost().to_bits(), n.cardinality().to_bits())));
        out
    }

    #[test]
    fn recost_under_unchanged_statistics_is_the_identity() {
        let (g, c) = chain3();
        let plan = chain3_plan(&g, &c);
        let recosted = recost_plan(&plan, &g, &c, &CoutCost).expect("structure fits");
        // Orientation, operators, predicates, cardinalities and costs, bit for bit.
        assert_eq!(recosted, plan);
        assert_eq!(bits(&recosted), bits(&plan));
    }

    #[test]
    fn recost_applies_drifted_statistics_bottom_up() {
        let (g, c) = chain3();
        let plan = chain3_plan(&g, &c);
        // Drift: the middle relation shrinks 10x, edge 0 becomes more selective.
        let mut cb = Catalog::builder(3);
        cb.set_cardinality(0, 10.0)
            .set_cardinality(1, 100.0)
            .set_cardinality(2, 10.0)
            .annotate_edge(0, EdgeAnnotation::inner(0.001))
            .annotate_edge(1, EdgeAnnotation::inner(0.01));
        let drifted = cb.build();
        assert_ne!(c.stats_epoch(), drifted.stats_epoch());
        let recosted = recost_plan(&plan, &g, &drifted, &CoutCost).expect("same shape");
        // Bit-identical to a from-scratch build of the same join order under the new
        // statistics, and not to the stale costs.
        let fresh = build_order(&plan, &g, &drifted);
        assert_eq!(recosted, fresh);
        assert_eq!(bits(&recosted), bits(&fresh));
        assert_ne!(recosted.cost(), plan.cost());
        // Leaves picked up the new cardinalities.
        recosted.visit(&mut |n| {
            if let PlanNode::Scan { relation: 1, .. } = n {
                assert_eq!(n.cardinality(), 100.0);
            }
        });
    }

    #[test]
    fn recost_rejects_plans_that_do_not_fit_the_graph() {
        let (g, c) = chain3();
        let plan = chain3_plan(&g, &c);
        // A graph missing the 1-2 edge: the stored joins are no longer connected.
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        let sparse = b.build();
        let sparse_catalog = Catalog::uniform(3, 100.0, 1, 0.5);
        assert!(recost_plan(&plan, &sparse, &sparse_catalog, &CoutCost).is_none());
        // A catalog for a different relation count is rejected outright.
        let wrong = Catalog::uniform(4, 100.0, 2, 0.5);
        assert!(recost_plan(&plan, &g, &wrong, &CoutCost).is_none());
    }

    #[test]
    fn recost_rejects_out_of_range_and_duplicated_relations() {
        let (g, c) = chain3();
        let join = |l, r| PlanNode::join(JoinOp::Inner, l, r, vec![0], 1.0, 1.0);
        let scan = |r| PlanNode::scan(r, 1.0);
        // Relation 3 does not exist in a 3-relation graph; 64 and 200 do not fit one word.
        for relation in [3, 64, 200] {
            let plan = join(join(scan(0), scan(1)), scan(relation));
            assert_eq!(recost_plan(&plan, &g, &c, &CoutCost), None, "{relation}");
        }
        // A relation joined twice, with itself and with a subtree that holds it.
        assert_eq!(
            recost_plan(&join(scan(1), scan(1)), &g, &c, &CoutCost),
            None
        );
        let twice = join(join(scan(0), scan(1)), join(scan(1), scan(2)));
        assert_eq!(recost_plan(&twice, &g, &c, &CoutCost), None);
    }
}
