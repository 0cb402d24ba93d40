//! Brute-force oracles for connected subgraphs (csg) and csg-cmp-pairs (ccp).
//!
//! The number of csg-cmp-pairs of a query graph is the minimal number of cost-function calls any
//! dynamic programming (or memoization) join-ordering algorithm must perform (Sec. 2.2). These
//! oracles compute the exact sets by exhaustive enumeration over all subsets; they are used
//!
//! * in tests, to validate that DPhyp emits *every* csg-cmp-pair *exactly once*, and
//! * in the ablation benchmarks, to relate the runtime of the algorithms to the search-space
//!   size of the workload.
//!
//! Complexity is `O(3^n)`-ish, so they are meant for `n ≲ 18`. [`ccp_lower_bound`] is the
//! linear-time exception: a sound lower bound on the ccp count for graphs of any size.

use crate::graph::Hypergraph;
use qo_bitset::NodeSet;

/// Enumerates all connected subsets (csgs) of the graph in ascending mask order.
pub fn enumerate_connected_subgraphs<const W: usize>(graph: &Hypergraph<W>) -> Vec<NodeSet<W>> {
    let all = graph.all_nodes();
    let n = graph.node_count();
    // connected[mask] for masks over the full node set; indexed by mask as usize.
    // For n <= 25 or so this table is fine; guard against absurd sizes.
    assert!(
        n <= 25,
        "oracle enumeration limited to 25 relations, got {n}"
    );
    let size = 1usize << n;
    let mut connected = vec![false; size];
    let mut out = Vec::new();
    for mask in 1..size {
        let s = NodeSet::from_mask(mask as u64);
        debug_assert!(s.is_subset_of(all));
        let conn = if s.is_singleton() {
            true
        } else {
            // S is connected iff it splits into two connected halves linked by an edge; only
            // splits where S1 contains min(S) need to be checked.
            let min = s.min_singleton();
            let rest = s - min;
            let mut found = false;
            for s2 in rest.subsets() {
                let s1 = s - s2;
                if connected[s1.mask() as usize]
                    && connected[s2.mask() as usize]
                    && graph.has_connecting_edge(s1, s2)
                {
                    found = true;
                    break;
                }
            }
            found
        };
        connected[mask] = conn;
        if conn {
            out.push(s);
        }
    }
    out
}

/// Number of connected subsets of the graph.
pub fn count_connected_subgraphs<const W: usize>(graph: &Hypergraph<W>) -> usize {
    enumerate_connected_subgraphs(graph).len()
}

/// Enumerates all csg-cmp-pairs `(S1, S2)` in canonical form, i.e. with
/// `min(S1) ≺ min(S2)` (Def. 4 together with the duplicate-avoidance convention of Sec. 2.2).
///
/// Each returned pair satisfies: `S1` and `S2` are disjoint, both induce connected subgraphs,
/// and at least one hyperedge connects them.
pub fn enumerate_ccps<const W: usize>(graph: &Hypergraph<W>) -> Vec<(NodeSet<W>, NodeSet<W>)> {
    let csgs = enumerate_connected_subgraphs(graph);
    let mut out = Vec::new();
    for &s1 in &csgs {
        for &s2 in &csgs {
            if !s1.is_disjoint(s2) {
                continue;
            }
            let (m1, m2) = (s1.min_node().unwrap(), s2.min_node().unwrap());
            if m1 >= m2 {
                continue;
            }
            if graph.has_connecting_edge(s1, s2) {
                out.push((s1, s2));
            }
        }
    }
    out.sort();
    out
}

/// Number of canonical csg-cmp-pairs — the lower bound on cost-function calls of any dynamic
/// programming join enumeration (each canonical pair corresponds to one commutative pair of
/// plans considered together, as done by `EmitCsgCmp`).
pub fn count_ccps<const W: usize>(graph: &Hypergraph<W>) -> usize {
    enumerate_ccps(graph).len()
}

/// A lower bound on [`count_ccps`] in time linear in the graph size, or `None` when the simple
/// edges do not connect every relation.
///
/// The bound is the exact csg-cmp-pair count of a BFS spanning tree `T` of the simple edges.
/// In a tree, every connected set `S` splits into two connected halves in exactly `|S| − 1`
/// ways (cut one of its edges), so `#ccp(T) = Σ_{connected S ⊆ T} (|S| − 1)`. One bottom-up
/// pass computes the sum: node `v` tracks how many connected sets have `v` as their top node
/// and their total `|S| − 1`, and merging a child `u` into `v` lets each of `v`'s sets either
/// stop at `v` or extend by any of `u`'s sets.
///
/// `T` is a subgraph of the graph, and adding (hyper)edges never removes a connected set or a
/// connecting edge, so every ccp of `T` is a ccp of the graph: the bound is sound, and exact on
/// trees. Arithmetic saturates at `u128::MAX` (a 128-relation star has `127·2^126` pairs).
pub fn ccp_lower_bound<const W: usize>(graph: &Hypergraph<W>) -> Option<u128> {
    let n = graph.node_count();
    let mut parent = vec![0; n];
    let mut order = vec![0];
    let mut seen = NodeSet::<W>::single(0);
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for u in graph.simple_neighbors(v) - seen {
            seen.insert(u);
            parent[u] = v;
            order.push(u);
        }
    }
    if order.len() < n {
        return None;
    }
    // Per top node: the number of connected sets, and their total `|S| − 1`.
    let mut sets = vec![1u128; n];
    let mut cuts = vec![0u128; n];
    let mut total = 0u128;
    // Reverse BFS order finishes every child before its parent.
    for &u in order.iter().skip(1).rev() {
        let v = parent[u];
        let extend = sets[u].saturating_add(1);
        cuts[v] = cuts[v]
            .saturating_mul(extend)
            .saturating_add(sets[v].saturating_mul(cuts[u].saturating_add(sets[u])));
        sets[v] = sets[v].saturating_mul(extend);
        total = total.saturating_add(cuts[u]);
    }
    Some(total.saturating_add(cuts[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hypergraph;
    use proptest::prelude::*;
    use qo_bitset::NodeSet;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        b.build()
    }

    fn cycle(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n {
            b.add_simple_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn star(satellites: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(satellites + 1);
        for i in 1..=satellites {
            b.add_simple_edge(0, i);
        }
        b.build()
    }

    fn clique(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n {
            for j in i + 1..n {
                b.add_simple_edge(i, j);
            }
        }
        b.build()
    }

    /// Closed-form csg/ccp counts for the standard graph shapes, from the DPccp paper
    /// (Moerkotte & Neumann, VLDB 2006).
    #[test]
    fn chain_counts_match_closed_form() {
        for n in 2..=8usize {
            let g = chain(n);
            // #csg of a chain: n(n+1)/2, #ccp: (n^3 - n)/6.
            assert_eq!(
                count_connected_subgraphs(&g),
                n * (n + 1) / 2,
                "csg chain {n}"
            );
            assert_eq!(count_ccps(&g), (n.pow(3) - n) / 6, "ccp chain {n}");
        }
    }

    #[test]
    fn star_counts_match_closed_form() {
        for sats in 1..=7usize {
            let n = sats + 1;
            let g = star(sats);
            // #csg of a star with n relations: 2^(n-1) + n - 1.
            assert_eq!(
                count_connected_subgraphs(&g),
                (1 << (n - 1)) + n - 1,
                "csg star {n}"
            );
            // #ccp of a star: (n-1) * 2^(n-2).
            assert_eq!(count_ccps(&g), (n - 1) * (1 << (n - 2)), "ccp star {n}");
        }
    }

    #[test]
    fn cycle_counts_match_closed_form() {
        for n in 3..=8usize {
            let g = cycle(n);
            // #csg of a cycle: n^2 - n + 1.
            assert_eq!(
                count_connected_subgraphs(&g),
                n * n - n + 1,
                "csg cycle {n}"
            );
            // #ccp of a cycle: (n^3 - 2n^2 + n) / 2.
            assert_eq!(
                count_ccps(&g),
                (n.pow(3) - 2 * n.pow(2) + n) / 2,
                "ccp cycle {n}"
            );
        }
    }

    #[test]
    fn clique_counts_match_closed_form() {
        for n in 2..=7usize {
            let g = clique(n);
            // #csg of a clique: 2^n - 1.
            assert_eq!(
                count_connected_subgraphs(&g),
                (1 << n) - 1,
                "csg clique {n}"
            );
            // #ccp of a clique: (3^n - 2^(n+1) + 1) / 2.
            let expected = (3usize.pow(n as u32) - (1 << (n + 1))).div_ceil(2);
            assert_eq!(count_ccps(&g), expected, "ccp clique {n}");
        }
    }

    #[test]
    fn hyperedge_reduces_search_space() {
        // Fig. 2 graph: the hyperedge glues the two simple chains; far fewer csgs than a chain
        // over 6 relations with the same number of edges.
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        let g = b.build();
        let csgs = enumerate_connected_subgraphs(&g);
        // Connected sets: the 6 singletons, {0,1},{1,2},{0,1,2},{3,4},{4,5},{3,4,5}, and the
        // sets containing both full halves: {0..5}. Everything else is disconnected.
        assert_eq!(csgs.len(), 13);
        assert!(csgs.contains(&g.all_nodes()));
        assert!(!csgs.contains(&ns(&[2, 3])));
        // csg-cmp-pairs: within the left chain (4: ({0},{1}),({1},{2}),({0,1},{2}),({0},{1,2})),
        // within the right chain (4), plus the single pair across the hyperedge.
        let ccps = enumerate_ccps(&g);
        assert_eq!(ccps.len(), 9);
        assert!(ccps.contains(&(ns(&[0, 1, 2]), ns(&[3, 4, 5]))));
    }

    #[test]
    fn disconnected_graph_has_no_full_plan() {
        let mut b = Hypergraph::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        let g = b.build();
        let csgs = enumerate_connected_subgraphs(&g);
        assert!(!csgs.contains(&g.all_nodes()));
        // ccps exist only within each component.
        for (s1, s2) in enumerate_ccps(&g) {
            assert!((s1 | s2).is_subset_of(ns(&[0, 1])) || (s1 | s2).is_subset_of(ns(&[2, 3])));
        }
    }

    #[test]
    fn ccps_are_canonical_and_valid() {
        let g = cycle(6);
        for (s1, s2) in enumerate_ccps(&g) {
            assert!(s1.is_disjoint(s2));
            assert!(s1.min_node().unwrap() < s2.min_node().unwrap());
            assert!(graph_connected(&g, s1));
            assert!(graph_connected(&g, s2));
            assert!(g.has_connecting_edge(s1, s2));
        }
    }

    fn graph_connected(g: &Hypergraph, s: NodeSet) -> bool {
        crate::connectivity::is_connected(g, s)
    }

    #[test]
    fn lower_bound_matches_the_closed_forms_of_trees() {
        for n in 1..=128usize {
            let mut b = Hypergraph::<2>::builder(n);
            for i in 0..n - 1 {
                b.add_simple_edge(i, i + 1);
            }
            let n = n as u128;
            assert_eq!(
                ccp_lower_bound(&b.build()),
                Some((n.pow(3) - n) / 6),
                "chain {n}"
            );
        }
        for n in 2..=120usize {
            let mut b = Hypergraph::<2>::builder(n);
            for i in 1..n {
                b.add_simple_edge(0, i);
            }
            let expected = (n as u128 - 1) << (n - 2);
            assert_eq!(ccp_lower_bound(&b.build()), Some(expected), "star {n}");
        }
    }

    #[test]
    fn lower_bound_saturates_on_the_128_relation_star() {
        let mut b = Hypergraph::<2>::builder(128);
        for i in 1..128 {
            b.add_simple_edge(0, i);
        }
        // 127 · 2^126 pairs exceed u128::MAX.
        assert_eq!(ccp_lower_bound(&b.build()), Some(u128::MAX));
    }

    #[test]
    fn lower_bound_needs_a_simple_edge_spanning_tree() {
        // Fig. 2: the hyperedge is the only link between the two halves.
        let mut b = Hypergraph::<1>::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        assert_eq!(ccp_lower_bound(&b.build()), None);
        assert_eq!(ccp_lower_bound(&chain(1)), Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random trees: relation `i > 0` hangs off a random earlier relation.
        #[test]
        fn prop_lower_bound_is_exact_on_trees(
            n in 1usize..17,
            parents in proptest::collection::vec(0usize..1024, 16..17),
        ) {
            let mut b = Hypergraph::<1>::builder(n);
            for (i, p) in parents.iter().enumerate().take(n).skip(1) {
                b.add_simple_edge(p % i, i);
            }
            let g = b.build();
            prop_assert_eq!(ccp_lower_bound(&g), Some(count_ccps(&g) as u128));
        }

        /// Random connected hypergraphs: a chain skeleton, extra simple edges and up to two
        /// hyperedges, generated as in DPhyp's oracle property.
        #[test]
        fn prop_lower_bound_never_exceeds_the_count(
            n in 2usize..13,
            extra_edges in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
            hyper in proptest::collection::vec(
                (proptest::collection::btree_set(0usize..12, 1..3),
                 proptest::collection::btree_set(0usize..12, 1..3)),
                0..2
            ),
        ) {
            let mut b = Hypergraph::<1>::builder(n);
            for i in 0..n - 1 {
                b.add_simple_edge(i, i + 1);
            }
            for (a, c) in extra_edges {
                let (a, c) = (a % n, c % n);
                if a != c {
                    b.add_simple_edge(a, c);
                }
            }
            for (u, v) in hyper {
                let u: NodeSet = u.into_iter().map(|x| x % n).collect();
                let v: NodeSet = v.into_iter().map(|x| x % n).collect();
                if !u.is_empty() && !v.is_empty() && u.is_disjoint(v) {
                    b.add_hyperedge(u, v);
                }
            }
            let g = b.build();
            let bound = ccp_lower_bound(&g).expect("the chain skeleton spans the graph");
            prop_assert!(bound <= count_ccps(&g) as u128);
        }
    }
}
