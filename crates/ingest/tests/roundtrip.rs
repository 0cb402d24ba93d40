//! Property test: pretty-print a random valid query graph, parse it back, and require the
//! *identical* lowered query — same `QuerySpec` (bit-identical statistics), identical
//! instantiated `Hypergraph` and `Catalog`, same options.

use dphyp::{CostModelKind, QuerySpec};
use proptest::prelude::*;
use qo_ingest::{parse_queries, to_jg, IngestQuery, QueryOptions, OP_NAMES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random — but always *valid* — query from one seed: 2–12 relations, a spanning
/// set of simple edges plus random hyperedges (disjoint sides, occasional flex sets and
/// non-inner operators), arbitrary positive statistics and a random sprinkle of options.
fn random_query(seed: u64) -> IngestQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2usize..13);
    let relation_names: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();

    let mut b = QuerySpec::builder(n);
    for i in 0..n {
        // Any positive finite f64 must survive the text round trip; mix integral
        // cardinalities with awkward fractional ones.
        let card = if rng.random_range(0u32..2) == 0 {
            rng.random_range(1u64..100_000_000) as f64
        } else {
            rng.random_range(0.001f64..1e9) + 1e-4
        };
        b.set_cardinality(i, card);
        if n > 1 && rng.random_range(0u32..8) == 0 {
            let other = (i + rng.random_range(1usize..n)) % n;
            b.set_lateral_refs(i, &[other]);
        }
    }
    // A spanning tree of simple edges keeps every relation mentioned at least once.
    for i in 1..n {
        let j = rng.random_range(0usize..i);
        b.add_simple_edge(j, i, sel(&mut rng));
    }
    // Random extra hyperedges with disjoint non-empty sides.
    for _ in 0..rng.random_range(0usize..4) {
        if n < 3 {
            break;
        }
        let mut ids: Vec<usize> = (0..n).collect();
        for k in (1..ids.len()).rev() {
            ids.swap(k, rng.random_range(0usize..k + 1));
        }
        let l = rng.random_range(1usize..(n - 1).min(3) + 1);
        let r = rng.random_range(1usize..(n - l).min(3) + 1);
        let (left, rest) = ids.split_at(l);
        let (right, rest) = rest.split_at(r);
        let use_flex = !rest.is_empty() && rng.random_range(0u32..3) == 0;
        if use_flex {
            let f = rng.random_range(1usize..rest.len().min(2) + 1);
            b.add_generalized_edge(left, right, &rest[..f], sel(&mut rng));
        } else {
            let op = OP_NAMES[rng.random_range(0usize..OP_NAMES.len())].1;
            b.add_edge(left, right, sel(&mut rng), op);
        }
    }

    let options = QueryOptions {
        ccp_budget: (rng.random_range(0u32..2) == 0).then(|| rng.random_range(1usize..10_000_000)),
        idp_block_size: (rng.random_range(0u32..2) == 0).then(|| rng.random_range(2usize..25)),
        cost_model: match rng.random_range(0u32..3) {
            0 => None,
            1 => Some(CostModelKind::Cout),
            _ => Some(CostModelKind::Mixed),
        },
    };

    let row_overrides = (0..n)
        .map(|_| (rng.random_range(0u32..4) == 0).then(|| rng.random_range(1usize..10_000)))
        .collect();

    IngestQuery {
        name: format!("prop_{seed}"),
        relation_names,
        spec: b.build(),
        options,
        row_overrides,
    }
}

fn sel(rng: &mut StdRng) -> f64 {
    // (0, 1], including the awkward boundaries.
    match rng.random_range(0u32..8) {
        0 => 1.0,
        _ => rng.random_range(1e-9f64..1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn pretty_printed_queries_reparse_to_identical_graphs(seed in any::<u64>()) {
        let original = random_query(seed);
        let printed = to_jg(&original);
        let reparsed = parse_queries(&printed)
            .unwrap_or_else(|e| panic!("reparse failed:\n{}", e.render(&printed)));
        prop_assert_eq!(reparsed.len(), 1);
        let got = &reparsed[0];

        // The lowered query — spec (bit-identical statistics), names, options — is equal...
        prop_assert_eq!(got, &original, "lowered query must round-trip losslessly");

        // ...and so are the instantiated planner inputs, via their canonical debug forms.
        let (g1, c1) = original.spec.instantiate::<1>();
        let (g2, c2) = got.spec.instantiate::<1>();
        prop_assert_eq!(
            format!("{:?}", g1),
            format!("{:?}", g2),
            "identical Hypergraph after round trip"
        );
        prop_assert_eq!(
            format!("{:?}", c1),
            format!("{:?}", c2),
            "identical Catalog after round trip"
        );

        // Printing is idempotent: the canonical form is a fixed point.
        prop_assert_eq!(to_jg(got), printed);
    }
}
