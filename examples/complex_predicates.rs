//! Complex join predicates: the paper's running example (Fig. 2) — a predicate of the form
//! `R1.a + R2.b + R3.c = R4.d + R5.e + R6.f` spanning six relations — plus a generalized
//! hyperedge (Sec. 6) where some relations may appear on either side of the join.
//!
//! ```text
//! cargo run --example complex_predicates
//! ```

use dphyp::{optimize, Hyperedge, Hypergraph, NodeSet};
use qo_catalog::Catalog;
use qo_hypergraph::{count_ccps, count_connected_subgraphs};

fn main() {
    // The hypergraph of Fig. 2: two simple chains R0–R1–R2 and R3–R4–R5 glued by the hyperedge
    // ({R0,R1,R2}, {R3,R4,R5}).
    let mut b = Hypergraph::<1>::builder(6);
    b.add_simple_edge(0, 1);
    b.add_simple_edge(1, 2);
    b.add_simple_edge(3, 4);
    b.add_simple_edge(4, 5);
    b.add_hyperedge(NodeSet::from_iter([0, 1, 2]), NodeSet::from_iter([3, 4, 5]));
    let graph = b.build();

    let mut catalog = Catalog::builder(6);
    for r in 0..6 {
        catalog.set_cardinality(r, 1_000.0 * (r as f64 + 1.0));
    }
    for e in 0..4 {
        catalog.set_selectivity(e, 0.01);
    }
    catalog.set_selectivity(4, 0.0001); // the complex predicate
    let catalog = catalog.build();

    println!("Fig. 2 hypergraph:");
    println!(
        "  connected subgraphs : {}",
        count_connected_subgraphs(&graph)
    );
    println!("  csg-cmp-pairs       : {}", count_ccps(&graph));
    let result = optimize(&graph, &catalog).expect("plannable");
    println!("  DPhyp emissions     : {}", result.ccp_count);
    println!("  optimal plan        : {}", result.plan.compact());
    println!("  cost                : {:.1}", result.cost);
    println!();

    // A generalized hyperedge (u, v, w): the predicate R0.a + R1.b = R2.c can place R1 on either
    // side of the join (Sec. 6). Modeled as ({R0}, {R2}, flex {R1}).
    let mut b = Hypergraph::<1>::builder(3);
    b.add_simple_edge(0, 1);
    b.add_simple_edge(1, 2);
    b.add_edge(Hyperedge::generalized(
        NodeSet::single(0),
        NodeSet::single(2),
        NodeSet::single(1),
    ));
    let graph = b.build();
    let catalog = Catalog::uniform(3, 10_000.0, 3, 0.001);
    let result = optimize(&graph, &catalog).expect("plannable");
    println!("generalized hyperedge query:");
    println!("  csg-cmp-pairs : {}", count_ccps(&graph));
    println!("  optimal plan  : {}", result.plan.compact());
    println!("  cost          : {:.1}", result.cost);
}
