//! End-to-end acceptance for the ingestion subsystem: every embedded corpus query parses,
//! lowers and plans through the adaptive driver — tier reported, plan complete, no panics.

use dphyp::{AdaptiveOptimizer, AdaptiveOptions, PlanTier};
use qo_ingest::{parse_queries, to_jg};
use qo_workloads::corpus::{corpus, corpus_query, CORPUS};

/// The headline acceptance test: the whole corpus plans end to end.
#[test]
fn every_corpus_query_plans_through_the_adaptive_driver() {
    let queries = corpus();
    assert_eq!(queries.len(), 36);
    for q in &queries {
        let r = q
            .plan()
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", q.name));
        assert_eq!(
            r.plan.scan_count(),
            q.relation_count(),
            "{}: the plan must cover every declared relation",
            q.name
        );
        assert!(r.cost.is_finite() && r.cost > 0.0, "{}: sane cost", q.name);
        assert!(
            r.cardinality.is_finite() && r.cardinality >= 0.0,
            "{}: sane cardinality",
            q.name
        );
        // The tier is always one of the three ladder rungs, and budget telemetry is coherent.
        assert!(
            matches!(r.tier, PlanTier::Exact | PlanTier::Idp | PlanTier::Greedy),
            "{}: tier reported",
            q.name
        );
        assert!(
            r.telemetry.exact_ccps <= r.telemetry.ccp_budget,
            "{}: exact tier respected its budget",
            q.name
        );
        if r.tier == PlanTier::Exact {
            assert!(!r.telemetry.exact_skipped, "{}", q.name);
        }
    }
}

/// Per-query options really reach the driver: the pinned budgets of the big snowflakes force
/// the IDP tier, and small stars stay exact.
#[test]
fn corpus_options_steer_the_tier_ladder() {
    let small = corpus_query("job_01a").unwrap();
    let r = small.plan().unwrap();
    assert_eq!(
        r.tier,
        PlanTier::Exact,
        "a 5-relation star is trivially exact"
    );

    let huge = corpus_query("job_syn_28").unwrap();
    assert_eq!(huge.adaptive_options().ccp_budget, 150_000);
    assert_eq!(huge.adaptive_options().idp_block_size, 8);
    let r = huge.plan().unwrap();
    assert_eq!(
        r.tier,
        PlanTier::Idp,
        "the 28-relation snowflake must exhaust its pinned budget and fall back"
    );
    // Its spanning-tree lower bound already exceeds the budget: no pair is enumerated.
    assert!(r.telemetry.exact_skipped);
    assert_eq!(r.telemetry.exact_ccps, 0);
    assert!(r.telemetry.idp_k <= 8);

    let grand = corpus_query("dsb_grand_25").unwrap();
    assert_eq!(grand.adaptive_options().ccp_budget, 200_000);
    let r = grand.plan().unwrap();
    assert_ne!(r.tier, PlanTier::Exact);
    assert!(r.telemetry.exact_skipped);
    assert_eq!(r.plan.scan_count(), 25);
}

/// The corpus round-trips through the pretty-printer: canonical text re-lowers to an equal
/// query, so the embedded sources, the printer and the parser agree on every feature the
/// corpus uses (hyperedges, ops, laterals, options).
#[test]
fn corpus_round_trips_through_the_pretty_printer() {
    for q in corpus() {
        let printed = to_jg(&q);
        let reparsed = parse_queries(&printed)
            .unwrap_or_else(|e| panic!("{}: reparse failed:\n{}", q.name, e.render(&printed)));
        assert_eq!(reparsed.len(), 1);
        assert_eq!(reparsed[0], q, "{}: round trip must be lossless", q.name);
    }
}

/// The raw embedded sources stay lexically healthy: one query per file, name == stem.
#[test]
fn corpus_sources_match_their_stems() {
    for e in CORPUS {
        let queries = parse_queries(e.source).unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].name, e.name);
    }
}

/// Planning a corpus query under a caller-supplied budget (ignoring the embedded options)
/// still works — the spec and the options are independently reusable.
#[test]
fn corpus_specs_are_reusable_under_external_options() {
    let q = corpus_query("dsb_ss_snowflake").unwrap();
    let r = AdaptiveOptimizer::new(AdaptiveOptions {
        ccp_budget: 25,
        ..Default::default()
    })
    .optimize_spec(&q.spec)
    .unwrap();
    assert_ne!(r.tier, PlanTier::Exact, "25 pairs cannot cover 8 relations");
    assert_eq!(r.plan.scan_count(), 8);
}
