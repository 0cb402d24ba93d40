//! Deriving the query hypergraph (and its catalog) from an operator tree.
//!
//! This implements Sec. 5.7 of the paper: for every operator `◦` of the initial operator tree a
//! hyperedge `(l, r)` is constructed from its total eligibility set,
//!
//! ```text
//! r = TES(◦) ∩ T(right(◦))        l = TES(◦) \ r
//! ```
//!
//! so that all reorderability conflicts are encoded *structurally* — the enumeration then never
//! generates a csg-cmp-pair that would violate them. The alternative, used as the baseline in
//! the paper's Fig. 8a, keeps the plain predicate edges (from the SES) and instead carries the
//! TES as an annotation that `EmitCsgCmp` has to check for every candidate pair
//! ([`ConflictEncoding::TesTest`]).

use crate::conflict::{calc_tes, ConflictAnalysis};
use crate::optree::{OpTree, OpTreeError};
use qo_bitset::NodeSet;
use qo_catalog::{Catalog, EdgeAnnotation};
use qo_hypergraph::{Hyperedge, Hypergraph};

/// How reorderability conflicts are communicated to the enumeration algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictEncoding {
    /// Encode each operator's TES as a hyperedge (Sec. 5.7) — the paper's proposal.
    Hyperedges,
    /// Keep simple predicate edges and carry the TES as an annotation that is tested for every
    /// candidate csg-cmp-pair (the generate-and-test baseline of Sec. 5.8 / Fig. 8a).
    TesTest,
}

/// A query ready for join enumeration: the hypergraph, the statistics/annotation catalog and the
/// conflict analysis it was derived from.
#[derive(Clone, Debug)]
pub struct HypergraphQuery {
    /// The query hypergraph.
    pub graph: Hypergraph,
    /// Cardinalities, lateral references and per-edge annotations.
    pub catalog: Catalog,
    /// The conflict analysis (SES/TES per operator) the edges were derived from.
    pub analysis: ConflictAnalysis,
    /// The encoding that was used.
    pub encoding: ConflictEncoding,
}

/// Derives the hypergraph and catalog for an operator tree.
///
/// The tree is validated first; relation ids must be dense (`0..n` for some `n`) because they
/// double as hypergraph node ids.
pub fn derive_query(
    tree: &OpTree,
    encoding: ConflictEncoding,
) -> Result<HypergraphQuery, OpTreeError> {
    tree.validate()?;
    let tables = tree.tables();
    let node_count = tables.len();
    // Relation ids must be exactly 0..node_count.
    if tables != NodeSet::first_n(node_count) {
        // Re-use the "unknown relation" error for sparse numbering.
        let missing = (NodeSet::first_n(node_count) - tables)
            .min_node()
            .unwrap_or(node_count);
        return Err(OpTreeError::PredicateReferencesUnknownRelation(missing));
    }

    let analysis = calc_tes(tree);
    let mut graph_builder = Hypergraph::builder(node_count);
    let mut catalog_builder = Catalog::builder(node_count);

    for (id, card) in tree.cardinalities() {
        catalog_builder.set_cardinality(id, card);
    }
    for (id, refs) in tree.lateral_refs() {
        catalog_builder.set_lateral_refs(id, refs);
    }

    for info in &analysis.operators {
        // TES split used for annotations in either mode.
        let tes_right = info.tes & info.right_tables;
        let tes_left = info.tes - tes_right;

        let (l, r) = match encoding {
            ConflictEncoding::Hyperedges => {
                let r = non_empty_side(tes_right, info.ses & info.right_tables, info.right_tables);
                let l = non_empty_side(tes_left, info.ses & info.left_tables, info.left_tables);
                (l, r)
            }
            ConflictEncoding::TesTest => {
                // Plain predicate edges: the syntactic eligibility split.
                let r = non_empty_side(
                    info.ses & info.right_tables,
                    NodeSet::EMPTY,
                    info.right_tables,
                );
                let l = non_empty_side(
                    info.ses & info.left_tables,
                    NodeSet::EMPTY,
                    info.left_tables,
                );
                (l, r)
            }
        };
        debug_assert!(l.is_disjoint(r));
        let edge_id = graph_builder.add_edge(Hyperedge::new(l, r));
        let annotation = EdgeAnnotation::with_op(info.predicate.selectivity, info.op)
            .with_tes(tes_left, tes_right);
        catalog_builder.annotate_edge(edge_id, annotation);
    }

    let graph = graph_builder.build();
    let catalog = catalog_builder.build();
    debug_assert!(catalog.validate_for(&graph).is_ok());
    Ok(HypergraphQuery {
        graph,
        catalog,
        analysis,
        encoding,
    })
}

/// Picks the first non-empty candidate for one side of a hyperedge, falling back to the minimum
/// element of the operand's table set (predicates are guaranteed to span both operands by
/// validation, so the fallbacks only trigger for degenerate TES splits).
fn non_empty_side(primary: NodeSet, secondary: NodeSet, subtree: NodeSet) -> NodeSet {
    if !primary.is_empty() {
        primary
    } else if !secondary.is_empty() {
        secondary
    } else {
        subtree.min_singleton()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optree::Predicate;
    use qo_hypergraph::connectivity;
    use qo_plan::JoinOp;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn left_deep_star(ops: &[JoinOp]) -> OpTree {
        let mut tree = OpTree::relation(0, 1000.0);
        for (i, op) in ops.iter().enumerate() {
            let rel = i + 1;
            tree = OpTree::op(
                *op,
                Predicate::between(0, rel, 0.01),
                tree,
                OpTree::relation(rel, 500.0 + rel as f64),
            );
        }
        tree
    }

    #[test]
    fn inner_star_yields_simple_star_graph() {
        let tree = left_deep_star(&[JoinOp::Inner; 4]);
        let q = derive_query(&tree, ConflictEncoding::Hyperedges).unwrap();
        assert_eq!(q.graph.node_count(), 5);
        assert_eq!(q.graph.edge_count(), 4);
        assert!(
            !q.graph.has_complex_edges(),
            "inner joins produce only simple edges"
        );
        for (id, e) in q.graph.edges() {
            assert_eq!(e.left(), ns(&[0]));
            assert_eq!(e.right(), ns(&[id + 1]));
            let ann = q.catalog.edge_annotation(id);
            assert_eq!(ann.op, JoinOp::Inner);
            assert!((ann.selectivity - 0.01).abs() < 1e-12);
        }
        // Cardinalities and graph connectivity carried over.
        assert_eq!(q.catalog.cardinality(0), 1000.0);
        assert_eq!(q.catalog.cardinality(3), 503.0);
        assert!(connectivity::is_graph_connected(&q.graph));
    }

    #[test]
    fn antijoin_star_grows_hypernodes() {
        // R0 ▷ R1 ▷ R2 ▷ R3: each antijoin's TES contains all previously antijoined satellites,
        // so the derived edges pin the antijoin order (this is the search-space reduction of
        // Sec. 5.7).
        let tree = left_deep_star(&[JoinOp::LeftAnti; 3]);
        let q = derive_query(&tree, ConflictEncoding::Hyperedges).unwrap();
        assert_eq!(q.graph.edge_count(), 3);
        let expected_lefts = [ns(&[0]), ns(&[0, 1]), ns(&[0, 1, 2])];
        for (id, e) in q.graph.edges() {
            assert_eq!(e.left(), expected_lefts[id], "edge {id}");
            assert_eq!(e.right(), ns(&[id + 1]));
            assert_eq!(q.catalog.edge_annotation(id).op, JoinOp::LeftAnti);
        }
        assert!(q.graph.has_complex_edges());
        assert!(connectivity::is_graph_connected(&q.graph));
    }

    #[test]
    fn tes_test_encoding_keeps_simple_edges_but_annotates_tes() {
        let tree = left_deep_star(&[JoinOp::LeftAnti; 3]);
        let q = derive_query(&tree, ConflictEncoding::TesTest).unwrap();
        assert!(
            !q.graph.has_complex_edges(),
            "generate-and-test keeps the plain predicate edges"
        );
        // The TES annotations still grow.
        let ann_last = q.catalog.edge_annotation(2);
        assert_eq!(ann_last.tes(), ns(&[0, 1, 2, 3]));
        assert_eq!(ann_last.tes_right, ns(&[3]));
        assert_eq!(ann_last.tes_left, ns(&[0, 1, 2]));
    }

    #[test]
    fn both_encodings_share_analysis_and_catalog_statistics() {
        let tree = left_deep_star(&[JoinOp::Inner, JoinOp::LeftOuter, JoinOp::LeftAnti]);
        let hy = derive_query(&tree, ConflictEncoding::Hyperedges).unwrap();
        let tt = derive_query(&tree, ConflictEncoding::TesTest).unwrap();
        assert_eq!(hy.encoding, ConflictEncoding::Hyperedges);
        assert_eq!(tt.encoding, ConflictEncoding::TesTest);
        for r in 0..4 {
            assert_eq!(hy.catalog.cardinality(r), tt.catalog.cardinality(r));
        }
        for e in 0..3 {
            assert_eq!(
                hy.catalog.edge_annotation(e).op,
                tt.catalog.edge_annotation(e).op
            );
        }
        assert_eq!(hy.graph.all_nodes(), tt.graph.all_nodes());
    }

    #[test]
    fn dependent_join_lateral_refs_reach_the_catalog() {
        let tree = OpTree::op(
            JoinOp::DepJoin,
            Predicate::between(0, 1, 1.0),
            OpTree::relation(0, 100.0),
            OpTree::lateral_relation(1, 3.0, ns(&[0])),
        );
        let q = derive_query(&tree, ConflictEncoding::Hyperedges).unwrap();
        assert_eq!(q.catalog.lateral_refs(1), ns(&[0]));
        assert_eq!(q.catalog.edge_annotation(0).op, JoinOp::DepJoin);
    }

    #[test]
    fn invalid_trees_are_rejected() {
        // Sparse relation numbering.
        let sparse = OpTree::join(
            Predicate::between(0, 5, 0.5),
            OpTree::relation(0, 10.0),
            OpTree::relation(5, 10.0),
        );
        assert!(derive_query(&sparse, ConflictEncoding::Hyperedges).is_err());
        // Structural validation failures propagate.
        let dup = OpTree::join(
            Predicate::between(0, 0, 0.5),
            OpTree::relation(0, 10.0),
            OpTree::relation(0, 10.0),
        );
        assert!(matches!(
            derive_query(&dup, ConflictEncoding::Hyperedges),
            Err(OpTreeError::DuplicateRelation(0))
        ));
    }

    #[test]
    fn outer_join_cycle_stays_mostly_simple() {
        // Chain-style tree with predicates (R_{i-1}, R_i), outer joins at the end: outer joins
        // reorder among themselves, so only edges whose operator conflicts with something grow.
        let mut tree = OpTree::relation(0, 100.0);
        let ops = [
            JoinOp::Inner,
            JoinOp::Inner,
            JoinOp::LeftOuter,
            JoinOp::LeftOuter,
        ];
        for (i, op) in ops.iter().enumerate() {
            let rel = i + 1;
            tree = OpTree::op(
                *op,
                Predicate::between(rel - 1, rel, 0.1),
                tree,
                OpTree::relation(rel, 100.0),
            );
        }
        let q = derive_query(&tree, ConflictEncoding::Hyperedges).unwrap();
        assert_eq!(q.graph.edge_count(), 4);
        // The inner-join edges are simple.
        assert!(q.graph.edge(0).is_simple());
        assert!(q.graph.edge(1).is_simple());
        // Outer joins over inner joins do not conflict, and outer joins among themselves do not
        // conflict either, so their edges stay simple too.
        assert!(q.graph.edge(2).is_simple());
        assert!(q.graph.edge(3).is_simple());
        assert_eq!(q.catalog.edge_annotation(3).op, JoinOp::LeftOuter);
    }
}
