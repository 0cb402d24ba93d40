//! The observability layer's acceptance claims, end to end across the stack:
//!
//! * **Zero-cost by default** — with no sink installed (the `NoopSink` configuration every
//!   caller gets unless it opts in), a span guard is an inert `None` check: no timestamps,
//!   no allocation, no event records. The overhead test pins a per-call bound two orders of
//!   magnitude above the measured cost, so planning stays within noise of
//!   pre-instrumentation without flaking on loaded CI machines.
//! * **Tracing never changes the answer** — tracing an optimization means installing a sink
//!   around the call (`qo_obsv::with_sink`). Plans, costs and telemetry are bit-identical with
//!   and without a recording sink, on every corpus query, and the recording holds the
//!   planning phase. Under an ambient sink the service's sampler tees into it, so a sampled
//!   serve's exemplar and the ambient trace both see that phase.
//! * **One metrics surface** — each serve is recorded once, with one clock, in the unified
//!   registry; `Service::cache_stats()` is a view over it, and the Prometheus rendering has a
//!   stable shape from the first serve (everything is pre-registered), pinned by a golden
//!   prefix.

use dphyp::{PlanTier, QuerySpec};
use qo_obsv::{RecordingSink, Span, Trace};
use qo_service::{PlanSource, SamplerOptions, Service, ServiceOptions};
use qo_workloads::corpus::{corpus, corpus_query};
use std::sync::Arc;
use std::time::Instant;

/// With no sink installed, a span guard must cost single-digit nanoseconds — it reads one
/// thread-local and finds `None`. The bound is deliberately generous (hundreds of times the
/// measured cost on commodity hardware) so the test only fails if the inert path ever grows
/// a timestamp, an allocation, or a lock.
#[test]
fn inert_spans_stay_within_noise_of_pre_instrumentation() {
    assert!(
        qo_obsv::current_sink().is_none(),
        "test must start with no ambient sink"
    );
    const CALLS: u64 = 1_000_000;
    let started = Instant::now();
    for _ in 0..CALLS {
        let span = std::hint::black_box(Span::enter("overhead_probe"));
        drop(span);
    }
    let per_call_ns = started.elapsed().as_nanos() as f64 / CALLS as f64;
    assert!(
        per_call_ns < 1_000.0,
        "inert span guard took {per_call_ns:.1} ns/call; the NoopSink default must keep \
         instrumented code within noise of pre-instrumentation"
    );
}

/// Spans of the three planning phases (exact enumeration, IDP, greedy) in `trace`.
fn planning_spans(trace: &Trace) -> usize {
    ["enumerate", "idp", "greedy"]
        .iter()
        .map(|phase| trace.phase_count(phase))
        .sum()
}

/// Planning under a recording sink must be pure observation: identical plan, cost, tier and
/// telemetry on every corpus query, with the planning phase in the recording.
#[test]
fn plans_are_bit_identical_with_tracing_on_and_off() {
    for q in corpus() {
        let off = q.plan().unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let sink = Arc::new(RecordingSink::new());
        let on = qo_obsv::with_sink(sink.clone(), || q.plan())
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        assert_eq!(on.plan, off.plan, "{}: plan differs under tracing", q.name);
        assert_eq!(on.cost, off.cost, "{}: cost differs under tracing", q.name);
        assert_eq!(on.tier, off.tier, "{}: tier differs under tracing", q.name);
        assert_eq!(
            on.telemetry, off.telemetry,
            "{}: telemetry differs under tracing",
            q.name
        );
        assert!(
            planning_spans(&sink.trace()) > 0,
            "{}: the trace must cover at least one planning phase",
            q.name
        );
    }
}

/// The sampler tees into an ambient sink rather than shadowing it: with every serve sampled,
/// each corpus query's exemplar and the ambient trace around the serve both record its
/// planning phase.
#[test]
fn sampled_exemplar_and_ambient_trace_both_record_the_planning_phase() {
    for q in corpus() {
        // A fresh service per query keeps every serve a cold optimization (isomorphic corpus
        // twins would otherwise be cache hits, which plan nothing).
        let service = Service::new(ServiceOptions {
            sampling: SamplerOptions {
                sample_rate: 1,
                ..SamplerOptions::default()
            },
            ..ServiceOptions::default()
        });
        let sink = Arc::new(RecordingSink::new());
        let served = qo_obsv::with_sink(sink.clone(), || service.plan_ingest(&q))
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let trace_id = served
            .trace_id
            .unwrap_or_else(|| panic!("{}: rate 1 samples every serve", q.name));
        let exemplar = service
            .sampler()
            .exemplars()
            .into_iter()
            .find(|ex| ex.trace_id == trace_id)
            .unwrap_or_else(|| panic!("{}: the exemplar of trace {trace_id} is kept", q.name));
        assert!(
            planning_spans(&exemplar.trace) > 0,
            "{}: the exemplar must record the planning phase, got {:?}",
            q.name,
            exemplar.trace.spans
        );
        let ambient = sink.trace();
        assert!(
            planning_spans(&ambient) > 0,
            "{}: the ambient trace must record the planning phase, got {:?}",
            q.name,
            ambient.spans
        );
    }
}

/// An ambient sink (installed by the caller around the serve) observes the service's
/// full serving pipeline: parse and lower from the ingest layer, then canonicalize and serve.
#[test]
fn ambient_sink_records_the_full_serving_pipeline() {
    let sink = Arc::new(RecordingSink::new());
    let q = corpus_query("job_01a").expect("corpus query exists");
    let service = Service::default();
    qo_obsv::with_sink(sink.clone(), || {
        service.plan_ingest(&q).expect("plannable");
    });
    let trace = sink.trace();
    for phase in ["canonicalize", "serve", "enumerate"] {
        assert!(
            trace.phase_count(phase) > 0,
            "ambient sink must record the `{phase}` phase, got {:?}",
            trace.spans
        );
    }
    // Outside the `with_sink` scope the sink is gone: new spans are inert again.
    assert!(qo_obsv::current_sink().is_none());
}

/// A star query: relation 0 is the hub, every satellite joins it with selectivity `sel`.
fn star_spec(hub: f64, sats: &[f64], sel: f64) -> QuerySpec {
    let mut b = QuerySpec::builder(sats.len() + 1);
    b.set_cardinality(0, hub);
    for (i, &card) in sats.iter().enumerate() {
        b.set_cardinality(i + 1, card);
        b.add_simple_edge(0, i + 1, sel);
    }
    b.build()
}

/// One accounting per serve: `CacheStats` is a view over the registry, each serve path lands
/// in its outcome counter and latency histogram exactly once, and the one clock that feeds
/// the histograms is the one the flight recorder keeps.
#[test]
fn metrics_snapshot_unifies_cache_stats_and_serve_latencies() {
    let service = Service::new(ServiceOptions {
        flight_capacity: 64,
        ..ServiceOptions::default()
    });
    let q = corpus_query("job_01a").expect("corpus query exists");
    let cold = service.plan_ingest(&q).expect("plannable");
    assert_eq!(cold.source, PlanSource::Miss);
    let warm = service.plan_ingest(&q).expect("plannable");
    assert_eq!(warm.source, PlanSource::CacheHit);
    // Mild drift re-costs the cached order…
    service
        .plan_spec(&star_spec(1e6, &[10.0, 20.0, 30.0, 40.0], 0.001))
        .expect("plannable");
    let recost = service
        .plan_spec(&star_spec(1e6, &[11.0, 21.0, 31.0, 41.0], 0.001))
        .expect("plannable");
    assert_eq!(recost.source, PlanSource::Recost);
    // …while inverted statistics make it lose to greedy and fall back to a full optimization.
    service
        .plan_spec(&star_spec(1e6, &[2.0, 1e3, 1e3, 1e3, 1e3], 0.001))
        .expect("plannable");
    let fallback = service
        .plan_spec(&star_spec(1e6, &[5e7, 1e3, 1e3, 1e3, 1e3], 0.001))
        .expect("plannable");
    assert_eq!(fallback.source, PlanSource::RecostFallback);

    let stats = service.cache_stats();
    let snap = service.metrics_snapshot();
    assert_eq!(
        (
            stats.hits,
            stats.shape_hits,
            stats.misses,
            stats.recost_fallbacks
        ),
        (1, 1, 3, 1)
    );
    for (name, value) in [
        ("qo_cache_hits_total", stats.hits),
        ("qo_cache_shape_hits_total", stats.shape_hits),
        ("qo_cache_misses_total", stats.misses),
        ("qo_cache_recost_fallbacks_total", stats.recost_fallbacks),
        ("qo_cache_evictions_total", stats.evictions),
    ] {
        assert_eq!(snap.counter(name), Some(value), "{name}");
    }
    assert_eq!(snap.gauge("qo_cache_entries"), Some(stats.entries));

    let hit = snap.histogram("qo_serve_hit_ns").expect("pre-registered");
    let recost_ns = snap
        .histogram("qo_serve_recost_ns")
        .expect("pre-registered");
    let miss = snap.histogram("qo_serve_miss_ns").expect("pre-registered");
    assert_eq!(hit.count, stats.hits);
    assert_eq!(recost_ns.count, stats.shape_hits);
    assert_eq!(miss.count, stats.misses + stats.recost_fallbacks);
    assert_eq!(
        (hit.sum, recost_ns.sum, miss.sum),
        (stats.hit_ns, stats.recost_ns, stats.miss_ns)
    );
    assert!(miss.sum > 0, "a miss takes measurable time");

    // The flight recorder kept every serve, timed by the same clock.
    let records = service.flight_recorder().records();
    assert_eq!(records.len() as u64, stats.lookups());
    assert_eq!(
        stats.hit_ns + stats.recost_ns + stats.miss_ns,
        records.iter().map(|r| r.latency_ns).sum::<u64>(),
        "the latency histograms and the flight records read one clock"
    );
    let count = |source| records.iter().filter(|r| r.source == source).count() as u64;
    assert_eq!(count(PlanSource::CacheHit), stats.hits);
    assert_eq!(count(PlanSource::Recost), stats.shape_hits);
    assert_eq!(count(PlanSource::Miss), stats.misses);
    assert_eq!(count(PlanSource::RecostFallback), stats.recost_fallbacks);

    // The optimizer counters absorbed the cold optimizations' telemetry.
    let ccps = snap
        .counter("qo_optimizer_exact_ccps_total")
        .expect("pre-registered");
    assert!(ccps > 0, "the cold misses enumerated csg-cmp-pairs");
    assert_eq!(
        snap.counter("qo_optimizer_plans_exact_total"),
        Some(stats.misses + stats.recost_fallbacks)
    );
    assert_eq!(snap.counter("qo_optimizer_exact_skipped_total"), Some(0));
}

/// A query whose exact tier is skipped by the ccp lower bound counts as skipped, adds no
/// csg-cmp-pairs, and its trace has no `enumerate` span.
#[test]
fn skipped_exact_tiers_are_counted_and_leave_no_enumerate_span() {
    let service = Service::default();
    let q = corpus_query("job_syn_28").expect("corpus query exists");
    let sink = Arc::new(RecordingSink::new());
    let served = qo_obsv::with_sink(sink.clone(), || service.plan_ingest(&q)).expect("plannable");
    assert_eq!(served.tier, PlanTier::Idp);
    let trace = sink.trace();
    assert_eq!(trace.phase_count("enumerate"), 0, "{:?}", trace.spans);
    assert!(trace.phase_count("idp") > 0);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("qo_optimizer_exact_skipped_total"), Some(1));
    assert_eq!(snap.counter("qo_optimizer_exact_ccps_total"), Some(0));
    assert_eq!(snap.counter("qo_optimizer_plans_idp_total"), Some(1));
}

/// The Prometheus rendering's shape is stable from the first snapshot on: every metric is
/// pre-registered at service construction, so the golden prefix holds even before any
/// traffic, and the full rendering always contains the complete metric surface. Every
/// family carries a `# HELP` line so the output parses under real Prometheus scrapers.
#[test]
fn prometheus_rendering_matches_the_golden_prefix() {
    let service = Service::default();
    let text = service.render_prometheus();
    let golden_prefix = "\
# HELP qo_cache_evictions_total Cache entries evicted by LRU capacity pressure.
# TYPE qo_cache_evictions_total counter
qo_cache_evictions_total 0
# HELP qo_cache_hits_total Serves answered verbatim from the plan cache (shape and stats matched).
# TYPE qo_cache_hits_total counter
qo_cache_hits_total 0
# HELP qo_cache_misses_total Serves that optimized from scratch (first sight of the query shape).
# TYPE qo_cache_misses_total counter
qo_cache_misses_total 0
# HELP qo_cache_recost_fallbacks_total Stats-drift serves whose re-costed cached order failed the staleness probe.
# TYPE qo_cache_recost_fallbacks_total counter
qo_cache_recost_fallbacks_total 0
# HELP qo_cache_shape_hits_total Stats-drift serves answered by re-costing the cached join order.
# TYPE qo_cache_shape_hits_total counter
qo_cache_shape_hits_total 0
";
    assert!(
        text.starts_with(golden_prefix),
        "prometheus rendering drifted from the golden prefix:\n{text}"
    );
    for name in [
        "qo_optimizer_exact_ccps_total",
        "qo_optimizer_exact_skipped_total",
        "qo_optimizer_plans_exact_total",
        "qo_regret_cycles_total",
        "qo_regret_pins_total",
        "qo_serve_sampled_total",
        "qo_serve_slow_total",
        "qo_trace_dropped_spans_total",
        "qo_trace_dropped_events_total",
        "qo_cache_entries",
        "qo_regret_shapes",
        "qo_regret_total",
        "qo_serve_hit_ns",
        "qo_serve_recost_ns",
        "qo_serve_miss_ns",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "metric `{name}` missing from the rendering:\n{text}"
        );
        assert!(
            text.contains(&format!("# HELP {name} ")),
            "metric `{name}` has no help text:\n{text}"
        );
    }
}
