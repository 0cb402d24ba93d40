//! The [`Hypergraph`] type and its builder.

use crate::edge::{EdgeId, Hyperedge};
use qo_bitset::{NodeId, NodeSet};
use std::fmt;

/// A query hypergraph: `n` relations (nodes `R0 .. R{n-1}`) plus a set of hyperedges.
///
/// Nodes are totally ordered by their index (`R_i ≺ R_j ⟺ i < j`), which is the ordering the
/// enumeration algorithms rely on. Simple edges are additionally indexed into per-node neighbor
/// masks so that the hot neighborhood computation does not have to scan them.
///
/// The const parameter `W` is the mask width in 64-bit words (default one word, up to 64
/// relations); a `Hypergraph<2>` holds up to 128 relations. The width is fixed when the builder
/// is created, so every mask operation inside the enumeration is monomorphized for it.
///
/// ```
/// use qo_hypergraph::{Hypergraph, Hyperedge};
/// use qo_bitset::NodeSet;
///
/// // The hypergraph of Fig. 2 of the paper (0-based relation indexes).
/// let mut b = Hypergraph::builder(6);
/// b.add_simple_edge(0, 1);
/// b.add_simple_edge(1, 2);
/// b.add_simple_edge(3, 4);
/// b.add_simple_edge(4, 5);
/// b.add_edge(Hyperedge::new(
///     NodeSet::from_iter([0, 1, 2]),
///     NodeSet::from_iter([3, 4, 5]),
/// ));
/// let g: Hypergraph = b.build();
/// assert_eq!(g.node_count(), 6);
/// assert_eq!(g.edge_count(), 5);
/// // Neighborhood of S = {R0,R1,R2} with X = S: only the representative R3 of {R3,R4,R5}.
/// let s = NodeSet::from_iter([0, 1, 2]);
/// assert_eq!(g.neighborhood(s, s), NodeSet::single(3));
/// ```
#[derive(Clone)]
pub struct Hypergraph<const W: usize = 1> {
    node_count: usize,
    edges: Vec<Hyperedge<W>>,
    /// For every node, the union of the opposite endpoints of all *simple* edges incident to it.
    simple_neighbors: Vec<NodeSet<W>>,
    /// Ids of all non-simple (complex or generalized) edges, ascending.
    complex_edges: Vec<EdgeId>,
    /// Per node, `⌈E/64⌉` words flagging its incident *simple* edges by id (node-major).
    simple_incidence: Vec<u64>,
}

impl<const W: usize> Hypergraph<W> {
    /// Starts building a hypergraph over `node_count` relations.
    pub fn builder(node_count: usize) -> HypergraphBuilder<W> {
        HypergraphBuilder::new(node_count)
    }

    /// Number of relations.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The set of all relations `V`.
    #[inline]
    pub fn all_nodes(&self) -> NodeSet<W> {
        NodeSet::first_n(self.node_count)
    }

    /// Number of hyperedges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All hyperedges with their ids.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Hyperedge<W>)> {
        self.edges.iter().enumerate()
    }

    /// The hyperedge with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Hyperedge<W> {
        &self.edges[id]
    }

    /// Ids of all non-simple edges.
    #[inline]
    pub fn complex_edge_ids(&self) -> &[EdgeId] {
        &self.complex_edges
    }

    /// Does the graph contain any non-simple edge?
    #[inline]
    pub fn has_complex_edges(&self) -> bool {
        !self.complex_edges.is_empty()
    }

    /// The union of simple-edge neighbors of a single node.
    #[inline]
    pub fn simple_neighbors(&self, node: NodeId) -> NodeSet<W> {
        self.simple_neighbors[node]
    }

    /// The union of simple-edge neighbors of all nodes in `s` (not yet filtered by any
    /// exclusion set).
    #[inline]
    pub fn simple_neighbors_of_set(&self, s: NodeSet<W>) -> NodeSet<W> {
        self.simple_neighbor_union(s) - s
    }

    /// The union of [`simple_neighbors`](Self::simple_neighbors) over the nodes of `s`, members
    /// of `s` included. An enumerator that grows a set node by node carries this union down
    /// its recursion, one OR per added node, and hands it to
    /// [`neighborhood_with`](Self::neighborhood_with) and
    /// [`connecting_from_with`](Self::connecting_from_with) instead of walking every member
    /// of the set on each call.
    #[inline]
    pub fn simple_neighbor_union(&self, s: NodeSet<W>) -> NodeSet<W> {
        s.iter()
            .fold(NodeSet::EMPTY, |n, node| n | self.simple_neighbors[node])
    }

    /// Is there at least one hyperedge connecting `s1` and `s2` (Def. 4 / Def. 7)?
    pub fn has_connecting_edge(&self, s1: NodeSet<W>, s2: NodeSet<W>) -> bool {
        self.has_connecting_edge_from(self.connecting_from(s1), s2)
    }

    /// Prepares `s1` for many [`has_connecting_edge_from`](Self::has_connecting_edge_from)
    /// tests: its simple-edge neighbors are collected once here instead of on every test.
    #[inline]
    pub fn connecting_from(&self, s1: NodeSet<W>) -> ConnectingFrom<W> {
        self.connecting_from_with(s1, self.simple_neighbor_union(s1))
    }

    /// [`connecting_from`](Self::connecting_from) for a set whose
    /// [`simple_neighbor_union`](Self::simple_neighbor_union) the caller already holds.
    #[inline]
    pub fn connecting_from_with(
        &self,
        s1: NodeSet<W>,
        simple_union: NodeSet<W>,
    ) -> ConnectingFrom<W> {
        debug_assert_eq!(simple_union, self.simple_neighbor_union(s1));
        ConnectingFrom {
            set: s1,
            simple_neighbors: simple_union - s1,
        }
    }

    /// [`Hypergraph::has_connecting_edge`] for a first side prepared by
    /// [`connecting_from`](Self::connecting_from) on this graph.
    #[inline]
    pub fn has_connecting_edge_from(&self, s1: ConnectingFrom<W>, s2: NodeSet<W>) -> bool {
        // Fast path: any simple edge from s1 into s2.
        if s1.simple_neighbors.intersects(s2) {
            return true;
        }
        self.complex_edges
            .iter()
            .any(|&eid| self.edges[eid].connects(s1.set, s2))
    }

    /// How many edges connect the prepared `s1` and `s2`: the length of
    /// [`connecting_edges`](Self::connecting_edges), without collecting the list. The simple
    /// edges are counted between the nodes of `s2` that neighbor `s1` and the nodes of `s1`
    /// that neighbor those, so nothing walks the rest of `s1`.
    pub fn connecting_edge_count_from(&self, s1: ConnectingFrom<W>, s2: NodeSet<W>) -> usize {
        let near2 = s1.simple_neighbors & s2;
        let mut count = 0;
        if !near2.is_empty() {
            let near1 = self.simple_neighbors_of_set(near2) & s1.set;
            for w in 0..self.edges.len().div_ceil(64) {
                let both = self.incidence_word(near1, w) & self.incidence_word(near2, w);
                count += both.count_ones() as usize;
            }
        }
        count
            + self
                .complex_edges
                .iter()
                .filter(|&&eid| self.edges[eid].connects(s1.set, s2))
                .count()
    }

    /// All edge ids connecting `s1` and `s2`. These are the predicates that `EmitCsgCmp`
    /// conjoins into the join predicate of the new plan.
    pub fn connecting_edges(&self, s1: NodeSet<W>, s2: NodeSet<W>) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.connecting_edges_into(s1, s2, &mut out);
        out
    }

    /// Like [`Hypergraph::connecting_edges`], but clears and fills a caller-provided buffer so
    /// the planner's hot path (one call per emitted csg-cmp-pair) does not allocate. Per word of
    /// 64 edge ids, the simple edges touching both sides are an AND of incidence bitsets, the
    /// complex ones are tested with [`Hyperedge::connects`], and ids come out ascending.
    pub fn connecting_edges_into(&self, s1: NodeSet<W>, s2: NodeSet<W>, out: &mut Vec<EdgeId>) {
        out.clear();
        // Only the smaller side's neighbors on the other side can end a simple edge between them.
        let small = if s1.len() <= s2.len() { s1 } else { s2 };
        let touched = self.simple_neighbors_of_set(small) & (s1 | s2);
        let mut complex = self.complex_edges.iter().peekable();
        for w in 0..self.edges.len().div_ceil(64) {
            let mut bits = self.incidence_word(small, w) & self.incidence_word(touched, w);
            while let Some(&eid) = complex.next_if(|&&eid| eid < (w + 1) * 64) {
                if self.edges[eid].connects(s1, s2) {
                    bits |= 1 << (eid % 64);
                }
            }
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Word `w` of the simple-edge incidence of `s`: the OR of its nodes' words, flagging every
    /// simple edge with an endpoint in `s` among ids `64·w .. 64·w + 63`.
    #[inline]
    fn incidence_word(&self, s: NodeSet<W>, w: usize) -> u64 {
        let words = self.edges.len().div_ceil(64);
        s.iter()
            .fold(0, |acc, v| acc | self.simple_incidence[v * words + w])
    }

    /// All edge ids whose referenced nodes are fully contained in `s` (used by cardinality
    /// estimation: these are the predicates already applied within a plan class `s`).
    pub fn edges_within(&self, s: NodeSet<W>) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.all_nodes().is_subset_of(s))
            .map(|(id, _)| id)
            .collect()
    }
}

impl<const W: usize> fmt::Debug for Hypergraph<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Hypergraph over {} relations:", self.node_count)?;
        for (id, e) in self.edges() {
            writeln!(f, "  e{id}: {e:?}")?;
        }
        Ok(())
    }
}

/// The first side of a connectivity test together with its simple-edge neighbors, built by
/// [`Hypergraph::connecting_from`] so a caller testing one set against many others collects
/// the neighbors once. The fields are private: only the graph can pair a set with its
/// neighbors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectingFrom<const W: usize = 1> {
    set: NodeSet<W>,
    simple_neighbors: NodeSet<W>,
}

impl<const W: usize> ConnectingFrom<W> {
    /// The prepared set.
    #[inline]
    pub fn set(&self) -> NodeSet<W> {
        self.set
    }
}

/// Builder for [`Hypergraph`].
pub struct HypergraphBuilder<const W: usize = 1> {
    node_count: usize,
    edges: Vec<Hyperedge<W>>,
}

impl<const W: usize> HypergraphBuilder<W> {
    /// Creates a builder for a graph over `node_count` relations.
    ///
    /// # Panics
    /// Panics if `node_count` is zero or exceeds the width's capacity
    /// ([`NodeSet::CAPACITY`] `= 64 * W` relations).
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "a hypergraph needs at least one relation");
        assert!(
            node_count <= NodeSet::<W>::CAPACITY,
            "at most {} relations are supported at width {W} (got {node_count})",
            NodeSet::<W>::CAPACITY,
        );
        HypergraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds a hyperedge; returns its id.
    ///
    /// # Panics
    /// Panics if the edge references nodes outside the graph.
    pub fn add_edge(&mut self, edge: Hyperedge<W>) -> EdgeId {
        assert!(
            edge.all_nodes()
                .is_subset_of(NodeSet::first_n(self.node_count)),
            "edge {edge:?} references nodes outside the graph"
        );
        let id = self.edges.len();
        self.edges.push(edge);
        id
    }

    /// Adds a simple edge `({a}, {b})`; returns its id.
    pub fn add_simple_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.add_edge(Hyperedge::simple(a, b))
    }

    /// Adds a hyperedge between two hypernodes; returns its id.
    pub fn add_hyperedge(&mut self, left: NodeSet<W>, right: NodeSet<W>) -> EdgeId {
        self.add_edge(Hyperedge::new(left, right))
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph, computing the per-node simple-edge indexes.
    pub fn build(self) -> Hypergraph<W> {
        let words = self.edges.len().div_ceil(64);
        let mut simple_neighbors = vec![NodeSet::EMPTY; self.node_count];
        let mut simple_incidence = vec![0u64; self.node_count * words];
        let mut complex_edges = Vec::new();
        for (id, e) in self.edges.iter().enumerate() {
            if e.is_simple() {
                let a = e.left().min_node().expect("non-empty");
                let b = e.right().min_node().expect("non-empty");
                simple_neighbors[a].insert(b);
                simple_neighbors[b].insert(a);
                simple_incidence[a * words + id / 64] |= 1 << (id % 64);
                simple_incidence[b * words + id / 64] |= 1 << (id % 64);
            } else {
                complex_edges.push(id);
            }
        }
        Hypergraph {
            node_count: self.node_count,
            edges: self.edges,
            simple_neighbors,
            complex_edges,
            simple_incidence,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qo_bitset::NodeSet128;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// The example hypergraph of Fig. 2 (0-based).
    pub(crate) fn fig2_graph() -> Hypergraph {
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        b.build()
    }

    #[test]
    fn builder_counts() {
        let g = fig2_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.complex_edge_ids(), &[4]);
        assert!(g.has_complex_edges());
        assert_eq!(g.all_nodes(), NodeSet::first_n(6));
    }

    #[test]
    fn simple_neighbor_masks() {
        let g = fig2_graph();
        assert_eq!(g.simple_neighbors(0), ns(&[1]));
        assert_eq!(g.simple_neighbors(1), ns(&[0, 2]));
        assert_eq!(g.simple_neighbors(4), ns(&[3, 5]));
        assert_eq!(g.simple_neighbors_of_set(ns(&[0, 1])), ns(&[2]));
        assert_eq!(g.simple_neighbors_of_set(ns(&[3, 4, 5])), NodeSet::EMPTY);
    }

    #[test]
    fn connecting_edge_tests() {
        let g = fig2_graph();
        assert!(g.has_connecting_edge(ns(&[0]), ns(&[1])));
        assert!(!g.has_connecting_edge(ns(&[0]), ns(&[2])));
        // Hyperedge connects the two halves only when both hypernodes are covered.
        assert!(g.has_connecting_edge(ns(&[0, 1, 2]), ns(&[3, 4, 5])));
        assert!(!g.has_connecting_edge(ns(&[0, 1]), ns(&[3, 4, 5])));
        assert_eq!(g.connecting_edges(ns(&[0, 1, 2]), ns(&[3, 4, 5])), vec![4]);
        assert_eq!(g.connecting_edges(ns(&[1]), ns(&[0, 2])), vec![0, 1]);
    }

    #[test]
    fn edges_within_set() {
        let g = fig2_graph();
        assert_eq!(g.edges_within(ns(&[0, 1, 2])), vec![0, 1]);
        assert_eq!(g.edges_within(g.all_nodes()).len(), 5);
        assert!(g.edges_within(ns(&[0, 3])).is_empty());
    }

    #[test]
    fn wide_graphs_accept_more_than_64_relations() {
        // A 96-relation chain fits in a two-word graph; the 64-relation cap only applies to the
        // single-word width.
        let mut b = Hypergraph::<2>::builder(96);
        for i in 0..95 {
            b.add_simple_edge(i, i + 1);
        }
        let g = b.build();
        assert_eq!(g.node_count(), 96);
        assert_eq!(g.all_nodes().len(), 96);
        // Adjacency across the word boundary works like everywhere else.
        assert!(g.has_connecting_edge(NodeSet128::single(63), NodeSet128::single(64)));
        assert!(!g.has_connecting_edge(NodeSet128::single(63), NodeSet128::single(65)));
        assert_eq!(
            g.connecting_edges(NodeSet128::first_n(64), NodeSet128::range(64, 96)),
            vec![63]
        );
    }

    #[test]
    fn connecting_edges_emit_complex_ids_in_words_without_simple_incidence() {
        // Word 0 holds the simple chain edges 0..64 over R0..R64; word 1 starts with a hyperedge
        // ({R0,R1}, {R2,R3}) — id 64 — while R0 and R1 have no simple edge in that word.
        let mut b = Hypergraph::<2>::builder(70);
        for i in 0..64 {
            b.add_simple_edge(i, i + 1);
        }
        let wns = |v: &[usize]| -> NodeSet128 { v.iter().copied().collect() };
        assert_eq!(b.add_hyperedge(wns(&[0, 1]), wns(&[2, 3])), 64);
        b.add_simple_edge(65, 66);
        b.add_simple_edge(2, 69);
        let g = b.build();
        assert_eq!(g.connecting_edges(wns(&[0, 1]), wns(&[2, 3])), vec![1, 64]);
        assert_eq!(
            g.connecting_edges(wns(&[0, 1, 69]), wns(&[2, 3])),
            vec![1, 64, 66]
        );
        assert_eq!(
            g.connecting_edges(wns(&[0]), wns(&[2, 3])),
            Vec::<EdgeId>::new()
        );
    }

    /// SplitMix64 step, the randomness behind [`random_graph`].
    pub(crate) fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random graph over `n` relations with `edge_count` edges, about a quarter of them
    /// complex or generalized and spread over every id word, plus random disjoint side pairs.
    pub(crate) fn random_graph<const W: usize>(
        seed: u64,
        n: usize,
        edge_count: usize,
    ) -> (Hypergraph<W>, Vec<(NodeSet<W>, NodeSet<W>)>) {
        let mut state = seed;
        let mut b = Hypergraph::<W>::builder(n);
        for _ in 0..edge_count {
            let a = next(&mut state) as usize % n;
            let c = (a + 1 + next(&mut state) as usize % (n - 1)) % n;
            let kind = next(&mut state) % 8;
            if kind > 1 {
                b.add_simple_edge(a, c);
                continue;
            }
            let (mut left, mut right, mut flex) =
                (NodeSet::single(a), NodeSet::single(c), NodeSet::EMPTY);
            for node in 0..n {
                if node == a || node == c || !next(&mut state).is_multiple_of(8) {
                    continue;
                }
                match next(&mut state) % 3 {
                    0 => left.insert(node),
                    1 => right.insert(node),
                    _ if kind == 1 => flex.insert(node),
                    _ => {}
                }
            }
            b.add_edge(Hyperedge::generalized(left, right, flex));
        }
        let sides = (0..32)
            .map(|_| {
                let (mut s1, mut s2) = (NodeSet::EMPTY, NodeSet::EMPTY);
                let density = 1 + next(&mut state) % 4;
                for node in 0..n {
                    match next(&mut state) % (2 * density) {
                        0 => s1.insert(node),
                        1 => s2.insert(node),
                        _ => {}
                    }
                }
                (s1, s2)
            })
            .collect();
        (b.build(), sides)
    }

    fn assert_matches_brute_force<const W: usize>(seed: u64, n: usize, edge_count: usize) {
        let (g, sides) = random_graph::<W>(seed, n, edge_count);
        let mut buf = vec![usize::MAX];
        for (s1, s2) in sides {
            let expected: Vec<EdgeId> = g
                .edges()
                .filter(|(_, e)| e.connects(s1, s2))
                .map(|(id, _)| id)
                .collect();
            g.connecting_edges_into(s1, s2, &mut buf);
            assert_eq!(buf, expected, "{s1:?} vs {s2:?} in {g:?}");
            let count = g.connecting_edge_count_from(g.connecting_from(s1), s2);
            assert_eq!(count, expected.len(), "{s1:?} vs {s2:?} in {g:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The incidence-bitset kernel equals an ascending scan of `connects` over all edges,
        /// on one-word graphs with up to three id words.
        #[test]
        fn prop_connecting_edges_match_a_brute_force_scan(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..65,
            edge_count in 1usize..200,
        ) {
            assert_matches_brute_force::<1>(seed, n, edge_count);
        }

        /// The same on two-word graphs, with more than 64 and more than 128 edges.
        #[test]
        fn prop_wide_connecting_edges_match_a_brute_force_scan(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..129,
            edge_count in 65usize..300,
        ) {
            assert_matches_brute_force::<2>(seed, n, edge_count);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 relations")]
    fn narrow_builder_rejects_more_than_64_nodes() {
        let _ = Hypergraph::<1>::builder(65);
    }

    #[test]
    #[should_panic(expected = "at most 128 relations")]
    fn wide_builder_rejects_more_than_128_nodes() {
        let _ = Hypergraph::<2>::builder(129);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn edge_outside_graph_panics() {
        let mut b = Hypergraph::<1>::builder(2);
        b.add_simple_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn zero_nodes_panics() {
        let _ = Hypergraph::<1>::builder(0);
    }

    #[test]
    fn debug_output_lists_edges() {
        let g = fig2_graph();
        let s = format!("{g:?}");
        assert!(s.contains("6 relations"));
        assert!(s.contains("e4"));
    }
}
