//! Connectivity of (sub-)hypergraphs in the sense of Def. 3 of the paper.
//!
//! A node-induced subgraph `G|S` is connected iff `|S| = 1` or `S` can be partitioned into two
//! sets `S1, S2` that are themselves connected and are linked by a hyperedge `(u, v)` with
//! `u ⊆ S1` and `v ⊆ S2`. This recursive definition is exactly "the dynamic program can build a
//! plan for `S` without cross products", and it is *stricter* than plain reachability closure:
//! e.g. with the single hyperedge `({R0}, {R1, R2})` the full set `{R0, R1, R2}` is *not*
//! connected, because `{R1, R2}` has no internal edge.
//!
//! The functions here are oracles used by tests, baselines and graph-repair utilities; the
//! enumeration algorithms themselves never call them (their DP tables encode connectivity
//! implicitly).

use crate::graph::Hypergraph;
use qo_bitset::NodeSet;
use std::collections::HashMap;

/// Is the node-induced subgraph `G|s` connected (Def. 3)?
///
/// Runs a memoized recursion over the subsets of `s`; intended for moderate set sizes
/// (`|s| ≲ 20`), which covers every workload of the paper.
pub fn is_connected<const W: usize>(graph: &Hypergraph<W>, s: NodeSet<W>) -> bool {
    if s.is_empty() {
        return false;
    }
    let mut memo = HashMap::new();
    is_connected_memo(graph, s, &mut memo)
}

fn is_connected_memo<const W: usize>(
    graph: &Hypergraph<W>,
    s: NodeSet<W>,
    memo: &mut HashMap<NodeSet<W>, bool>,
) -> bool {
    if s.is_singleton() {
        return true;
    }
    if let Some(&known) = memo.get(&s) {
        return known;
    }
    // Only consider splits where S1 contains min(S); every partition is covered exactly once.
    let min = s.min_singleton();
    let rest = s - min;
    let mut connected = false;
    for sub in rest.subsets() {
        let s2 = sub;
        let s1 = s - s2;
        debug_assert!(s1.is_superset_of(min));
        if graph.has_connecting_edge(s1, s2)
            && is_connected_memo(graph, s1, memo)
            && is_connected_memo(graph, s2, memo)
        {
            connected = true;
            break;
        }
    }
    memo.insert(s, connected);
    connected
}

/// Is the whole graph connected?
pub fn is_graph_connected<const W: usize>(graph: &Hypergraph<W>) -> bool {
    is_connected(graph, graph.all_nodes())
}

/// Partitions the nodes into reachability components.
///
/// Two nodes are in the same component if they can be linked by a chain of hyperedges, where a
/// hyperedge may be traversed once all nodes of one of its hypernodes (plus its flexible nodes,
/// if any, on the combined side) have been reached. This is the weaker closure notion of
/// connectivity: every Def.-3-connected set lies within one component, but a single component is
/// not necessarily Def.-3 connected. Components are the right granularity for the cross-product
/// repair edges described in Sec. 2.1 of the paper.
pub fn components<const W: usize>(graph: &Hypergraph<W>) -> Vec<NodeSet<W>> {
    let all = graph.all_nodes();
    let mut unassigned = all;
    let mut out = Vec::new();
    while let Some(start) = unassigned.min_node() {
        let mut comp = NodeSet::single(start);
        loop {
            let mut grew = false;
            for (_, e) in graph.edges() {
                if !e.all_nodes().is_subset_of(comp) {
                    let touches = e.left().is_subset_of(comp) || e.right().is_subset_of(comp);
                    if touches {
                        comp |= e.all_nodes();
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        out.push(comp & all);
        unassigned -= comp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hyperedge;

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

    fn fig2() -> Hypergraph {
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        b.build()
    }

    #[test]
    fn singletons_are_connected() {
        let g = chain(3);
        for i in 0..3 {
            assert!(is_connected(&g, NodeSet::single(i)));
        }
        assert!(!is_connected(&g, NodeSet::EMPTY));
    }

    #[test]
    fn chain_subsets() {
        let g = chain(5);
        assert!(is_connected(&g, ns(&[0, 1, 2])));
        assert!(is_connected(&g, g.all_nodes()));
        assert!(!is_connected(&g, ns(&[0, 2])));
        assert!(!is_connected(&g, ns(&[0, 1, 3])));
    }

    #[test]
    fn fig2_graph_connectivity() {
        let g = fig2();
        assert!(is_graph_connected(&g));
        assert!(is_connected(&g, ns(&[0, 1, 2])));
        assert!(is_connected(&g, ns(&[3, 4, 5])));
        // The two halves are connected only through the hyperedge, so a partial union is not
        // connected.
        assert!(!is_connected(&g, ns(&[0, 1, 2, 3])));
        assert!(!is_connected(&g, ns(&[2, 3])));
        assert!(is_connected(&g, g.all_nodes()));
    }

    #[test]
    fn hyperedge_needs_connected_target_side() {
        // Single edge ({R0}, {R1, R2}) — {R1,R2} has no internal edge, hence the full set is
        // NOT connected under Def. 3.
        let mut b = Hypergraph::builder(3);
        b.add_hyperedge(ns(&[0]), ns(&[1, 2]));
        let g = b.build();
        assert!(!is_connected(&g, g.all_nodes()));
        // Adding a simple edge inside {R1,R2} repairs it.
        let mut b = Hypergraph::builder(3);
        b.add_hyperedge(ns(&[0]), ns(&[1, 2]));
        b.add_simple_edge(1, 2);
        let g = b.build();
        assert!(is_connected(&g, g.all_nodes()));
    }

    #[test]
    fn generalized_edge_connectivity() {
        // ({0}, {2}, flex {1}) with a simple edge (1,2): {0,1,2} is connected because the flex
        // node can be placed with either side.
        let mut b = Hypergraph::builder(3);
        b.add_edge(Hyperedge::generalized(ns(&[0]), ns(&[2]), ns(&[1])));
        b.add_simple_edge(1, 2);
        let g = b.build();
        assert!(is_connected(&g, g.all_nodes()));
        assert!(is_connected(&g, ns(&[1, 2])));
        // {0,1} alone has no edge: the generalized edge needs node 2.
        assert!(!is_connected(&g, ns(&[0, 1])));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = Hypergraph::<1>::builder(5);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(3, 4);
        let g = b.build();
        let comps = components(&g);
        assert_eq!(comps, vec![ns(&[0, 1]), ns(&[2]), ns(&[3, 4])]);
        assert!(!is_graph_connected(&g));
    }

    #[test]
    fn components_of_connected_graph() {
        let g = fig2();
        assert_eq!(components(&g), vec![g.all_nodes()]);
    }
}
