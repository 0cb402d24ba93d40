//! Spec canonicalization: a relation-order-invariant normal form for [`QuerySpec`]s.
//!
//! A plan cache that keys on the literal spec would treat `A ⋈ B` and `B ⋈ A` — or the same
//! join graph submitted with relations declared in a different order — as different queries.
//! This module computes a *canonical relabeling* of a spec: structurally equal queries (equal
//! up to renaming/reordering of relations and reordering of edges) map to the identical
//! canonical spec, and queries that differ only in statistics map to canonical specs with the
//! identical *shape* (same relations-and-edges skeleton, different numbers). Two artifacts come
//! out of the pass:
//!
//! * [`CanonicalQuery::shape_hash`] — a 64-bit digest of the hypergraph shape alone (edge
//!   structure, operators, lateral references — **no** cardinalities or selectivities),
//!   invariant under any relabeling of the relations. This is the plan-cache key; statistics
//!   are digested separately so a stats-only change is distinguishable from a shape change.
//! * The canonical spec plus the id mappings back to the caller's original relation and edge
//!   ids, so a plan computed in canonical space translates back losslessly
//!   ([`qo_plan::PlanNode::map_ids`]).
//!
//! The structural signatures come from Weisfeiler–Leman-style color refinement over the
//! hypergraph: every relation starts with a color derived from its lateral-reference structure
//! and is iteratively re-colored with the multiset of its incident edge signatures (sides
//! viewed as color multisets, commutative operators side-normalized) until the color partition
//! stops refining. Relations the refinement cannot distinguish are ordered by their statistics
//! as a tie-break — that choice never affects the shape hash (which uses colors only), and a
//! pathological tie that still relabels inconsistently is caught downstream by the cache's
//! structural-equality check ([`same_shape`]) rather than trusted blindly.

use crate::query::{QuerySpec, SpecEdge};
use qo_bitset::NodeId;
use qo_plan::JoinOp;

/// FxHash-style fold of one word into a running hash — [`qo_catalog::StatsEpoch`]'s scheme,
/// reused so the workspace has exactly one implementation of it.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    qo_catalog::StatsEpoch(h).fold(word).0
}

/// Final avalanche: spreads low-entropy chains over the whole 64-bit range.
#[inline]
fn finish(h: u64) -> u64 {
    qo_catalog::StatsEpoch(h).finalize().0
}

/// Hashes a word sequence with a domain seed.
fn hash_seq(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = mix(qo_catalog::StatsEpoch::SEED.0, seed);
    for w in words {
        h = mix(h, w);
    }
    finish(h)
}

/// Stable rank of an operator (its position in [`JoinOp::ALL`]).
fn op_rank(op: JoinOp) -> u64 {
    JoinOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("JoinOp::ALL is exhaustive") as u64
}

/// A spec in canonical relabeling, with the mappings back to the original id spaces.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    /// The canonically relabeled spec: relation ids in canonical order, edges in canonical
    /// order with sorted hypernode sides (commutative edges side-normalized).
    pub spec: QuerySpec,
    /// `to_original[canonical_relation_id] = original_relation_id`.
    pub to_original: Vec<NodeId>,
    /// `edge_to_original[canonical_edge_index] = original_edge_index`.
    pub edge_to_original: Vec<usize>,
    /// Relation-order-invariant digest of the hypergraph *shape* (structure, operators,
    /// laterals — no statistics). Statistics never feed into this hash, so a stats-only drift
    /// keeps it unchanged.
    pub shape_hash: u64,
}

impl CanonicalQuery {
    /// Translates a plan over canonical ids back into the original relation and edge ids.
    pub fn plan_to_original(&self, plan: &qo_plan::PlanNode) -> qo_plan::PlanNode {
        plan.map_ids(&|r| self.to_original[r], &|e| self.edge_to_original[e])
    }
}

/// Computes the canonical form of a spec. See the [module docs](self) for the invariants.
/// [`QuerySpec::canonical`] keeps the result with the spec for later serves.
pub fn canonicalize(spec: &QuerySpec) -> CanonicalQuery {
    let _span = qo_obsv::Span::enter("canonicalize");
    let n = spec.node_count();
    let edges: Vec<&SpecEdge> = spec.edges().collect();

    // ---- Weisfeiler–Leman color refinement over the hypergraph structure. ----
    // Initial colors: lateral-reference structure only (out-degree plus being-referenced
    // count); everything else emerges from refinement over the edges.
    let mut referenced = vec![0u64; n];
    for r in 0..n {
        for &t in spec.lateral_refs(r) {
            referenced[t] += 1;
        }
    }
    let init: Vec<u64> = (0..n)
        .map(|r| {
            finish(mix(
                mix(0x1db3, spec.lateral_refs(r).len() as u64),
                referenced[r],
            ))
        })
        .collect();
    let color = refine(spec, &edges, init);

    // ---- Shape hash: colors + edge signatures + lateral skeleton, all order-invariant. ----
    let mut relation_colors = color.clone();
    relation_colors.sort_unstable();
    let mut edge_hashes: Vec<u64> = edges.iter().map(|e| edge_shape_hash(e, &color)).collect();
    edge_hashes.sort_unstable();
    let mut lateral_hashes: Vec<u64> = (0..n)
        .map(|r| {
            let mut refs: Vec<u64> = spec.lateral_refs(r).iter().map(|&t| color[t]).collect();
            refs.sort_unstable();
            hash_seq(0x1a7e, std::iter::once(color[r]).chain(refs))
        })
        .collect();
    lateral_hashes.sort_unstable();
    let shape_hash = hash_seq(
        SHAPE_SEED,
        [n as u64, edges.len() as u64]
            .into_iter()
            .chain(relation_colors)
            .chain(edge_hashes)
            .chain(lateral_hashes),
    );

    // ---- Canonical relation order: structural color, original id as the tie-break. ----
    // Statistics are deliberately *not* part of the order: the cache's bread-and-butter case
    // is the same query resubmitted with drifted statistics, and a stats-sensitive order would
    // relabel the drifted submission differently — turning every drift into a structural
    // mismatch and starving the incremental re-cost path. With colors only, a drift keeps the
    // relabeling bit-stable. The id tie-break fires only for relations the refinement cannot
    // distinguish (true structural symmetry); a *permuted* submission of such a query may then
    // canonicalize to a different-but-isomorphic skeleton, which the cache detects via
    // [`same_shape`] and answers with a full (still correct) optimization.
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by(|&a, &b| color[a].cmp(&color[b]).then(a.cmp(&b)));
    // order[c] = original id of canonical relation c; invert for original → canonical.
    let mut to_canonical = vec![0usize; n];
    for (c, &orig) in order.iter().enumerate() {
        to_canonical[orig] = c;
    }

    // ---- Canonical edges: remap, sort sides, side-normalize commutative ops, sort edges. ----
    struct CanonEdge {
        left: Vec<NodeId>,
        right: Vec<NodeId>,
        flex: Vec<NodeId>,
        op: JoinOp,
        selectivity: f64,
        original: usize,
    }
    let mut canon_edges: Vec<CanonEdge> = edges
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let map_side = |ids: &[NodeId]| {
                let mut v: Vec<NodeId> = ids.iter().map(|&r| to_canonical[r]).collect();
                v.sort_unstable();
                v
            };
            let mut left = map_side(e.left());
            let mut right = map_side(e.right());
            let flex = map_side(e.flex());
            // A commutative operator's sides are interchangeable: store the lexicographically
            // smaller one first so `A -- B` and `B -- A` submissions canonicalize identically.
            if e.op().is_commutative() && left > right {
                std::mem::swap(&mut left, &mut right);
            }
            CanonEdge {
                left,
                right,
                flex,
                op: e.op(),
                selectivity: e.selectivity(),
                original: i,
            }
        })
        .collect();
    // Selectivities stay out of the sort for the same drift-stability reason as above; the
    // original index breaks ties between parallel edges.
    canon_edges.sort_by(|a, b| {
        a.left
            .cmp(&b.left)
            .then_with(|| a.right.cmp(&b.right))
            .then_with(|| a.flex.cmp(&b.flex))
            .then_with(|| op_rank(a.op).cmp(&op_rank(b.op)))
            .then_with(|| a.original.cmp(&b.original))
    });

    // ---- Assemble the canonical spec. ----
    let mut b = QuerySpec::builder(n);
    for (c, &orig) in order.iter().enumerate() {
        b.set_cardinality(c, spec.cardinality(orig));
        let mut refs: Vec<NodeId> = spec
            .lateral_refs(orig)
            .iter()
            .map(|&t| to_canonical[t])
            .collect();
        refs.sort_unstable();
        if !refs.is_empty() {
            b.set_lateral_refs(c, &refs);
        }
    }
    let mut edge_to_original = Vec::with_capacity(canon_edges.len());
    for e in &canon_edges {
        if e.flex.is_empty() {
            b.add_edge(&e.left, &e.right, e.selectivity, e.op);
        } else {
            b.add_generalized_edge(&e.left, &e.right, &e.flex, e.selectivity);
        }
        edge_to_original.push(e.original);
    }

    CanonicalQuery {
        spec: b.build(),
        to_original: order,
        edge_to_original,
        shape_hash,
    }
}

/// Weisfeiler–Leman color refinement: starting from `init`, repeatedly re-colors every
/// relation with (its color, the sorted multiset of its incident edge signatures, its lateral
/// in/out color profile) until the color partition stops refining. The result is invariant
/// under relabeling of the relations.
fn refine(spec: &QuerySpec, edges: &[&SpecEdge], init: Vec<u64>) -> Vec<u64> {
    let n = spec.node_count();
    // Incidence lists: (edge index, role) per relation, so a round touches each edge once per
    // member instead of scanning the whole edge list per relation.
    let mut incident: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        for &r in e.left() {
            incident[r].push((i, 0));
        }
        for &r in e.right() {
            incident[r].push((i, 1));
        }
        for &r in e.flex() {
            incident[r].push((i, 2));
        }
    }
    let mut lat_in: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for s in 0..n {
        for &t in spec.lateral_refs(s) {
            lat_in[t].push(s);
        }
    }

    let distinct = |c: &[u64]| {
        let mut v = c.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    let mut color = init;
    let mut partition = distinct(&color);
    // WL converges within n productive rounds (each grows the partition by at least one).
    for _ in 0..n.max(1) {
        let mut next = Vec::with_capacity(n);
        for r in 0..n {
            let mut contributions: Vec<u64> = incident[r]
                .iter()
                .map(|&(i, role)| edge_signature_for(edges[i], role, &color))
                .collect();
            // Lateral references refine too: the colors a relation references, and the colors
            // that reference it.
            let mut lat_out: Vec<u64> = spec.lateral_refs(r).iter().map(|&t| color[t]).collect();
            lat_out.sort_unstable();
            let mut lat_in_colors: Vec<u64> = lat_in[r].iter().map(|&s| color[s]).collect();
            lat_in_colors.sort_unstable();
            contributions.push(hash_seq(0xa110, lat_out));
            contributions.push(hash_seq(0xa111, lat_in_colors));
            contributions.sort_unstable();
            next.push(hash_seq(
                0xc010,
                std::iter::once(color[r]).chain(contributions),
            ));
        }
        let next_partition = distinct(&next);
        color = next;
        if next_partition == partition {
            break;
        }
        partition = next_partition;
    }
    color
}

/// Edge signature from the perspective of one member (role 0 = left, 1 = right, 2 = flex);
/// commutative operators erase the left/right distinction.
fn edge_signature_for(e: &SpecEdge, role: u64, color: &[u64]) -> u64 {
    let commutative = e.op().is_commutative();
    let side_hash = |ids: &[NodeId], seed: u64| {
        let mut c: Vec<u64> = ids.iter().map(|&r| color[r]).collect();
        c.sort_unstable();
        hash_seq(seed, c)
    };
    let mut sides = [side_hash(e.left(), 0x51de), side_hash(e.right(), 0x51de)];
    let mut eff_role = role;
    if commutative {
        // Normalize: sides in sorted hash order, membership role collapsed to "a side".
        if sides[0] > sides[1] {
            sides.swap(0, 1);
        }
        if eff_role == 1 {
            eff_role = 0;
        }
    }
    hash_seq(
        0xed9e,
        [
            op_rank(e.op()),
            eff_role,
            sides[0],
            sides[1],
            side_hash(e.flex(), 0xf1e8),
        ],
    )
}

/// Role-free structural hash of one edge (used for the shape digest and stats tie-breaks).
fn edge_shape_hash(e: &SpecEdge, color: &[u64]) -> u64 {
    let side_hash = |ids: &[NodeId], seed: u64| {
        let mut c: Vec<u64> = ids.iter().map(|&r| color[r]).collect();
        c.sort_unstable();
        hash_seq(seed, c)
    };
    let mut sides = [side_hash(e.left(), 0x51de), side_hash(e.right(), 0x51de)];
    if e.op().is_commutative() && sides[0] > sides[1] {
        sides.swap(0, 1);
    }
    hash_seq(
        0xed9f,
        [
            op_rank(e.op()),
            sides[0],
            sides[1],
            side_hash(e.flex(), 0xf1e8),
        ],
    )
}

/// Do two specs describe the same hypergraph *shape* — identical relation count, lateral
/// structure and edge skeleton (sides, flex sets, operators), ignoring all statistics?
///
/// This is an exact positional comparison, intended for specs that are both already canonical:
/// the plan cache uses it to confirm that a shape-hash match is a true structural match (and
/// not a 64-bit collision or an inconsistent tie-break relabeling) before reusing a cached
/// table.
pub fn same_shape(a: &QuerySpec, b: &QuerySpec) -> bool {
    if a.node_count() != b.node_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    for r in 0..a.node_count() {
        if !same_ids(a.lateral_refs(r), b.lateral_refs(r)) {
            return false;
        }
    }
    a.edges().zip(b.edges()).all(|(x, y)| {
        same_ids(x.left(), y.left())
            && same_ids(x.right(), y.right())
            && same_ids(x.flex(), y.flex())
            && x.op() == y.op()
    })
}

/// `a == b` without `memcmp`. Most lateral-ref and flex lists are empty, and an empty `Vec`'s
/// pointer is dangling (0x8). On an AVX-512 x86-64 host (glibc 2.36), `==` on two empty `Vec`s
/// took 118–155 ns, against 2.3–3.4 ns for two empty slices into a live allocation and under
/// 3 ns for this loop. Do not simplify it back to `==`.
#[inline]
fn same_ids(a: &[NodeId], b: &[NodeId]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// Seed of the shape digest (a distinct domain from every per-component seed above).
const SHAPE_SEED: u64 = 0x0005_11a9_e5ee_d000;

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec(n: usize) -> QuerySpec {
        let mut b = QuerySpec::builder(n);
        for i in 0..n {
            b.set_cardinality(i, 100.0 + i as f64);
        }
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1, 0.01 + 0.001 * i as f64);
        }
        b.build()
    }

    /// Applies a permutation to a spec: relation `r` becomes `perm[r]`, edges shuffled by a
    /// rotation, sides swapped for every other inner edge.
    fn permuted(spec: &QuerySpec, perm: &[usize], rotate: usize) -> QuerySpec {
        let n = spec.node_count();
        let mut b = QuerySpec::builder(n);
        for r in 0..n {
            b.set_cardinality(perm[r], spec.cardinality(r));
            let refs: Vec<usize> = spec.lateral_refs(r).iter().map(|&t| perm[t]).collect();
            if !refs.is_empty() {
                b.set_lateral_refs(perm[r], &refs);
            }
        }
        let edges: Vec<_> = spec.edges().cloned().collect();
        for (i, e) in edges
            .iter()
            .cycle()
            .skip(rotate % edges.len().max(1))
            .take(edges.len())
            .enumerate()
        {
            let map = |ids: &[usize]| ids.iter().map(|&r| perm[r]).collect::<Vec<_>>();
            let (mut l, mut r) = (map(e.left()), map(e.right()));
            if e.op().is_commutative() && i % 2 == 1 {
                std::mem::swap(&mut l, &mut r);
            }
            if e.flex().is_empty() {
                b.add_edge(&l, &r, e.selectivity(), e.op());
            } else {
                b.add_generalized_edge(&l, &r, &map(e.flex()), e.selectivity());
            }
        }
        b.build()
    }

    /// An asymmetric snowflake: fact R0 with three spokes of lengths 1, 2 and 3. The WL
    /// refinement fully discriminates such a tree, so canonicalization is exact on it.
    fn snowflake_spec() -> QuerySpec {
        let mut b = QuerySpec::builder(7);
        for (i, card) in [50_000.0, 10.0, 200.0, 30.0, 400.0, 50.0, 60.0]
            .into_iter()
            .enumerate()
        {
            b.set_cardinality(i, card);
        }
        b.add_simple_edge(0, 1, 0.01); // spoke A: one hop
        b.add_simple_edge(0, 2, 0.02); // spoke B: two hops
        b.add_simple_edge(2, 3, 0.03);
        b.add_simple_edge(0, 4, 0.04); // spoke C: three hops
        b.add_simple_edge(4, 5, 0.05);
        b.add_simple_edge(5, 6, 0.06);
        b.build()
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let spec = snowflake_spec();
        let canon = canonicalize(&spec);
        let perm = [3usize, 0, 5, 1, 6, 2, 4];
        let shuffled = permuted(&spec, &perm, 3);
        let canon2 = canonicalize(&shuffled);
        assert_eq!(canon.shape_hash, canon2.shape_hash);
        assert_eq!(canon.spec, canon2.spec, "identical canonical spec");
        // The mapping leads back to each representation's own ids.
        for c in 0..7 {
            assert_eq!(perm[canon.to_original[c]], canon2.to_original[c]);
        }
    }

    #[test]
    fn symmetric_shapes_stay_shape_invariant_under_permutation() {
        // A palindromic chain has a mirror automorphism the id tie-break cannot see through:
        // the canonical *spec* of a permuted copy may be a different (isomorphic) skeleton,
        // but the color-based shape hash must agree regardless.
        let spec = chain_spec(7);
        let canon = canonicalize(&spec);
        let perm = [6usize, 5, 4, 3, 2, 1, 0];
        let canon2 = canonicalize(&permuted(&spec, &perm, 2));
        assert_eq!(canon.shape_hash, canon2.shape_hash);
        assert!(
            same_shape(&canon.spec, &canon2.spec),
            "a pure mirror maps cleanly"
        );
    }

    #[test]
    fn stats_drift_keeps_the_canonical_relabeling_bit_stable() {
        // The plan cache's core scenario: the same query resubmitted with different
        // statistics must relabel identically, so the cached table stays structurally valid.
        let spec = chain_spec(8);
        let mut b = QuerySpec::builder(8);
        for i in 0..8 {
            b.set_cardinality(i, 5.0 * (8.0 - i as f64));
        }
        for i in 0..7 {
            b.add_simple_edge(i, i + 1, 0.5 - 0.01 * i as f64);
        }
        let drifted = b.build();
        let c1 = canonicalize(&spec);
        let c2 = canonicalize(&drifted);
        assert_eq!(c1.shape_hash, c2.shape_hash);
        assert_eq!(c1.to_original, c2.to_original, "identical relabeling");
        assert_eq!(c1.edge_to_original, c2.edge_to_original);
        assert!(same_shape(&c1.spec, &c2.spec));
    }

    #[test]
    fn shape_hash_ignores_statistics() {
        let spec = chain_spec(6);
        let mut b = QuerySpec::builder(6);
        for i in 0..6 {
            b.set_cardinality(i, 9999.0 - i as f64);
        }
        for i in 0..5 {
            b.add_simple_edge(i, i + 1, 0.5);
        }
        let drifted = b.build();
        let c1 = canonicalize(&spec);
        let c2 = canonicalize(&drifted);
        assert_eq!(c1.shape_hash, c2.shape_hash, "stats are not shape");
        assert!(same_shape(&c1.spec, &c2.spec));
        assert_ne!(c1.spec, c2.spec, "the statistics themselves differ");
    }

    #[test]
    fn structural_changes_change_the_shape_hash() {
        let spec = chain_spec(6);
        let base = canonicalize(&spec).shape_hash;

        // Extra edge.
        let mut b = QuerySpec::builder(6);
        for i in 0..6 {
            b.set_cardinality(i, 100.0 + i as f64);
        }
        for i in 0..5 {
            b.add_simple_edge(i, i + 1, 0.01);
        }
        b.add_simple_edge(0, 5, 0.01);
        assert_ne!(canonicalize(&b.build()).shape_hash, base, "cycle ≠ chain");

        // Same edge count, different shape (star vs chain).
        let mut b = QuerySpec::builder(6);
        for i in 1..6 {
            b.add_simple_edge(0, i, 0.01);
        }
        assert_ne!(canonicalize(&b.build()).shape_hash, base, "star ≠ chain");

        // An operator change is a shape change.
        let mut b = QuerySpec::builder(6);
        for i in 0..5 {
            b.add_edge(&[i], &[i + 1], 0.01, JoinOp::Inner);
        }
        let inner_hash = canonicalize(&b.build()).shape_hash;
        let mut b = QuerySpec::builder(6);
        for i in 0..4 {
            b.add_edge(&[i], &[i + 1], 0.01, JoinOp::Inner);
        }
        b.add_edge(&[4], &[5], 0.01, JoinOp::LeftAnti);
        assert_ne!(canonicalize(&b.build()).shape_hash, inner_hash);

        // Growing a hypernode changes the shape.
        let mut b = QuerySpec::builder(6);
        for i in 0..4 {
            b.add_simple_edge(i, i + 1, 0.01);
        }
        b.add_edge(&[3, 4], &[5], 0.01, JoinOp::Inner);
        let hyper = canonicalize(&b.build()).shape_hash;
        assert_ne!(hyper, base);

        // Lateral references are shape.
        let mut b = QuerySpec::builder(6);
        for i in 0..5 {
            b.add_simple_edge(i, i + 1, 0.01);
        }
        b.set_lateral_refs(5, &[0]);
        assert_ne!(canonicalize(&b.build()).shape_hash, base);
    }

    #[test]
    fn commutative_side_swap_is_normalized_away() {
        let mut b = QuerySpec::builder(2);
        b.set_cardinality(0, 10.0).set_cardinality(1, 500.0);
        b.add_edge(&[0], &[1], 0.1, JoinOp::Inner);
        let ab = canonicalize(&b.build());
        let mut b = QuerySpec::builder(2);
        b.set_cardinality(0, 10.0).set_cardinality(1, 500.0);
        b.add_edge(&[1], &[0], 0.1, JoinOp::Inner);
        let ba = canonicalize(&b.build());
        assert_eq!(ab.spec, ba.spec);
        assert_eq!(ab.shape_hash, ba.shape_hash);

        // A non-commutative operator keeps its orientation: swapping sides IS a different query.
        let mut b = QuerySpec::builder(2);
        b.add_edge(&[0], &[1], 0.1, JoinOp::LeftAnti);
        let fwd = canonicalize(&b.build());
        let mut b = QuerySpec::builder(2);
        b.add_edge(&[1], &[0], 0.1, JoinOp::LeftAnti);
        let rev = canonicalize(&b.build());
        // Both relations are structurally distinguishable (antijoin left vs right), so the
        // canonical specs coincide — the *relabeling* differs instead.
        assert_eq!(fwd.shape_hash, rev.shape_hash);
        assert_ne!(fwd.to_original, rev.to_original);
    }

    #[test]
    fn plans_translate_back_to_original_ids() {
        let spec = chain_spec(5);
        let canon = canonicalize(&spec);
        let result = crate::optimize_spec(&canon.spec).unwrap();
        let translated = canon.plan_to_original(&result.plan);
        assert_eq!(translated.relation_ids(), (0..5).collect::<Vec<_>>());
        // Costs and cardinalities are untouched by relabeling.
        assert_eq!(translated.cost(), result.plan.cost());
        assert_eq!(translated.cardinality(), result.plan.cardinality());
    }

    #[test]
    fn same_shape_tells_empty_id_lists_from_non_empty_ones() {
        // Relation 3 may reference relation 0 laterally, and the hyperedge may carry relation
        // 0 as a flexible node; every other list stays empty.
        let spec = |lateral: &[usize], flex: &[usize], card: f64| {
            let mut b = QuerySpec::builder(4);
            for r in 0..4 {
                b.set_cardinality(r, card + r as f64);
            }
            b.set_lateral_refs(3, lateral);
            b.add_simple_edge(0, 1, 0.1);
            b.add_generalized_edge(&[1], &[2, 3], flex, 0.2);
            b.build()
        };
        // Equal skeletons whose id lists are all empty, under different statistics.
        assert!(same_shape(&spec(&[], &[], 10.0), &spec(&[], &[], 99.0)));
        assert!(same_shape(&spec(&[0], &[0], 10.0), &spec(&[0], &[0], 99.0)));
        for (a, b) in [
            (spec(&[], &[], 10.0), spec(&[0], &[], 10.0)),
            (spec(&[], &[], 10.0), spec(&[], &[0], 10.0)),
            (spec(&[0], &[0], 10.0), spec(&[], &[0], 10.0)),
            (spec(&[0], &[0], 10.0), spec(&[0], &[], 10.0)),
        ] {
            assert!(!same_shape(&a, &b));
            assert!(!same_shape(&b, &a));
        }
    }
}
