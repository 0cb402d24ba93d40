//! Cache-correctness gate for the `qo-service` subsystem, run explicitly in CI:
//!
//! * warm-hit plans are **bit-identical in cost** (and structure) to cold plans for every
//!   embedded corpus query;
//! * the concurrent batch driver produces exactly the plans of the sequential path;
//! * stats-drift re-costs are bit-identical to a from-scratch optimization on every corpus
//!   query whose join order the drift leaves unchanged;
//! * the width-2 (>64-relation) corpus query caches and re-costs like any other;
//! * a drift re-costs the nearest cached statistics variant, not the most recent one: the
//!   declared-scale plan seeds a drift of the declared statistics even after a feedback cycle
//!   cached an executed-scale plan.

use dphyp::{recost_spec, QuerySpec};
use qo_exec::{execute_plan_observed, scaled_table_sizes, Database};
use qo_service::{PlanSource, ServedPlan, Service};
use qo_workloads::corpus::{corpus, corpus_query};

/// Rebuilds a spec with every cardinality scaled by a small per-relation factor (same shape,
/// drifted statistics).
fn drift_spec(spec: &QuerySpec) -> QuerySpec {
    scaled_spec(spec, |r| 1.02 + 0.013 * (r % 4) as f64)
}

/// Rebuilds a spec with the cardinality of relation `r` scaled by `factor(r)`.
fn scaled_spec(spec: &QuerySpec, factor: impl Fn(usize) -> f64) -> QuerySpec {
    let n = spec.node_count();
    let mut b = QuerySpec::builder(n);
    for r in 0..n {
        b.set_cardinality(r, spec.cardinality(r) * factor(r));
        let refs = spec.lateral_refs(r).to_vec();
        if !refs.is_empty() {
            b.set_lateral_refs(r, &refs);
        }
    }
    for e in spec.edges() {
        if e.flex().is_empty() {
            b.add_edge(e.left(), e.right(), e.selectivity(), e.op());
        } else {
            b.add_generalized_edge(e.left(), e.right(), e.flex(), e.selectivity());
        }
    }
    b.build()
}

#[test]
fn warm_hits_are_bit_identical_to_cold_plans_across_the_corpus() {
    let queries = corpus();
    let service = Service::default();
    let cold: Vec<ServedPlan> = queries
        .iter()
        .map(|q| service.plan_ingest(q).expect("corpus query plannable"))
        .collect();
    for (q, served) in queries.iter().zip(&cold) {
        assert_ne!(
            served.source,
            PlanSource::CacheHit,
            "{}: first sight cannot exact-hit",
            q.name
        );
        assert_eq!(served.plan.scan_count(), q.relation_count(), "{}", q.name);
    }
    for (q, c) in queries.iter().zip(&cold) {
        let w = service.plan_ingest(q).expect("plannable");
        assert_eq!(
            w.source,
            PlanSource::CacheHit,
            "{}: replay must hit",
            q.name
        );
        assert_eq!(
            w.cost, c.cost,
            "{}: warm cost must be bit-identical",
            q.name
        );
        assert_eq!(w.cardinality, c.cardinality, "{}", q.name);
        assert_eq!(w.plan, c.plan, "{}: warm plan must be identical", q.name);
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, queries.len() as u64);
    assert_eq!(stats.evictions, 0, "default capacity fits the corpus");
}

#[test]
fn concurrent_batch_produces_the_sequential_plans() {
    let queries = corpus();
    let sequential = Service::default();
    let seq: Vec<ServedPlan> = queries
        .iter()
        .map(|q| sequential.plan_ingest(q).expect("plannable"))
        .collect();
    let concurrent = Service::default();
    let par = concurrent.plan_batch_ingest(&queries);
    assert_eq!(par.len(), queries.len());
    for ((q, s), p) in queries.iter().zip(&seq).zip(par) {
        let p = p.expect("plannable");
        assert_eq!(p.plan, s.plan, "{}: batch plan != sequential plan", q.name);
        assert_eq!(p.cost, s.cost, "{}: batch cost != sequential cost", q.name);
        assert_eq!(p.source, s.source, "{}: serving path must match", q.name);
    }
}

#[test]
fn stats_drift_recost_is_bit_identical_where_the_join_order_is_unchanged() {
    let queries = corpus();
    let mut recosts = 0usize;
    let mut unchanged_orders = 0usize;
    for q in &queries {
        let service = Service::default();
        service.plan_ingest(q).expect("cold plannable");
        let drifted = drift_spec(&q.spec);
        let served = service
            .plan_spec_with(&drifted, q.adaptive_options())
            .expect("drifted plannable");
        assert!(
            matches!(
                served.source,
                PlanSource::Recost | PlanSource::RecostFallback
            ),
            "{}: drift must take a shape-hit path, got {}",
            q.name,
            served.source
        );
        // The reference: a from-scratch optimization of the drifted query through a fresh
        // service (same canonicalization, empty cache).
        let fresh = Service::default();
        let scratch = fresh
            .plan_spec_with(&drifted, q.adaptive_options())
            .expect("plannable");
        if served.plan.relations_eq(&scratch.plan) && served.plan == scratch.plan {
            unchanged_orders += 1;
            assert_eq!(
                served.cost, scratch.cost,
                "{}: unchanged join order must re-cost bit-identically",
                q.name
            );
            assert_eq!(served.cardinality, scratch.cardinality, "{}", q.name);
        }
        if served.source == PlanSource::Recost {
            recosts += 1;
            // An accepted re-cost is never worse than greedy would have allowed, and when the
            // from-scratch winner kept the same order it is exactly the from-scratch plan.
            if served.plan == scratch.plan {
                assert_eq!(served.cost, scratch.cost, "{}", q.name);
            }
        }
    }
    assert!(
        recosts > 0,
        "the corpus drift must exercise the incremental re-cost path"
    );
    assert!(
        unchanged_orders > 0,
        "some corpus queries must keep their join order under a small drift"
    );
}

#[test]
fn the_width_2_corpus_query_caches_and_recosts() {
    let q = corpus_query("dsb_wide_72").expect("corpus has the 72-relation snowflake");
    assert!(q.relation_count() > 64, "width-2 tier query");
    let service = Service::default();
    let cold = service.plan_ingest(&q).expect("plannable");
    assert_eq!(cold.source, PlanSource::Miss);
    assert_eq!(cold.plan.scan_count(), 72);
    let warm = service.plan_ingest(&q).expect("plannable");
    assert_eq!(warm.source, PlanSource::CacheHit);
    assert_eq!(warm.cost, cold.cost);
    let drifted = drift_spec(&q.spec);
    let served = service
        .plan_spec_with(&drifted, q.adaptive_options())
        .expect("plannable");
    assert!(matches!(
        served.source,
        PlanSource::Recost | PlanSource::RecostFallback
    ));
    assert_eq!(served.plan.scan_count(), 72);
}

#[test]
fn drift_recosts_the_nearest_statistics_variant_not_the_most_recent() {
    let q = corpus_query("job_01a").expect("corpus has job_01a");
    let options = q.adaptive_options();
    let service = Service::default();
    // Regime 1: the declared statistics (relations of millions of rows).
    let declared = service.plan_ingest(&q).expect("plannable");
    assert_eq!(declared.source, PlanSource::Miss);
    // Regime 2: the statistics of an executed database (tables of at most 6 rows), cached
    // after regime 1 as a feedback cycle caches its observed re-plan.
    let n = q.relation_count();
    let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
    let db = Database::generate(&scaled_table_sizes(&cards, &q.row_overrides, 6), 0xF00D);
    let (graph, _) = q.spec.instantiate::<1>();
    let observed = execute_plan_observed(&declared.plan, &graph, &db, 100_000)
        .expect("job_01a fits the row budget")
        .observed_stats(&db);
    let executed = service
        .plan_observed_with(&q.spec, &observed, options)
        .expect("plannable");
    assert_eq!(executed.source, PlanSource::RecostFallback);
    assert_ne!(
        executed.plan.order_digest(),
        declared.plan.order_digest(),
        "the two regimes plan different join orders"
    );

    // A 1% drift of regime 1 re-costs regime 1's plan, though regime 2 is more recent.
    let drifted = scaled_spec(&q.spec, |_| 1.01);
    let served = service
        .plan_spec_with(&drifted, options)
        .expect("plannable");
    assert_eq!(served.source, PlanSource::Recost);
    let expected = recost_spec(&drifted, &declared.plan, &options)
        .expect("valid spec")
        .expect("the declared order covers its own query");
    assert_eq!(served.plan, expected);
    assert_eq!(served.cost.to_bits(), expected.cost().to_bits());
    let decision = service
        .flight_recorder()
        .last()
        .and_then(|r| r.decision)
        .expect("a re-cost records its decision");
    let canonical = |spec: &QuerySpec| spec.canonical().spec.clone();
    assert_eq!(
        decision.distance,
        canonical(&q.spec).stats_distance(&canonical(&drifted)),
        "the donor is the declared regime"
    );
}

/// Helper trait: plan equality on relation coverage (guards the `==` comparison above against
/// accidentally comparing plans of different queries).
trait RelationsEq {
    fn relations_eq(&self, other: &Self) -> bool;
}

impl RelationsEq for dphyp::PlanNode {
    fn relations_eq(&self, other: &Self) -> bool {
        self.relation_ids() == other.relation_ids()
    }
}
