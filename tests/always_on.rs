//! The always-on observability tier, end to end across the serving stack:
//!
//! * **Sampling never changes the answer** — with the ambient sampler tracing *every* serve
//!   (`sample_rate = 1`, strictly stronger than the production 1-in-1024 default), plans,
//!   costs, tiers and fingerprints are bit-identical to a sampler that never fires, on every
//!   corpus query; the sampled trace rides along as a pure exemplar.
//! * **The flight recorder reconstructs recent serves** — every serve leaves one structured
//!   [`ServeRecord`] (sequence, fingerprint, path, latency, cost, sampled-trace id) in a
//!   bounded ring, and `dump()` renders them post-mortem without any pre-crash opt-in.
//! * **Regret is accounted and non-increasing** — repeated execute → observe → re-plan
//!   cycles over the corpus drive the per-shape regret ledger, whose pinning veto
//!   ([`PlanSource::Pinned`]) keeps measured-worse candidates off the serve path: after the
//!   one exploration cycle the ledger allows per shape, per-cycle regret drops to zero and
//!   stays there, and the per-shape series surface as labeled `qo_regret_*` gauges in the
//!   Prometheus rendering.

use qo_exec::{execute_plan_observed, scaled_table_sizes, Database};
use qo_service::{ExecutionFeedback, PlanSource, SamplerOptions, Service, ServiceOptions};
use qo_workloads::corpus::{corpus, corpus_query};

fn service_with_rate(sample_rate: u64) -> Service {
    Service::new(ServiceOptions {
        sampling: SamplerOptions {
            sample_rate,
            // Slow-serve arming stays live at any rate (it is what makes rate 0 useful in
            // production); the bit-identity comparison wants a genuinely-never-sampled
            // control, so push the warmup out of reach.
            warmup: u64::MAX,
        },
        ..ServiceOptions::default()
    })
}

/// Ambient sampling must be pure observation: serving every corpus query with the sampler
/// tracing *every* serve produces bit-identical plans, costs, tiers and fingerprints to a
/// service whose sampler never fires — and the traced serves actually harvested exemplars.
#[test]
fn plans_are_bit_identical_with_ambient_sampling_on_and_off() {
    let sampled = service_with_rate(1);
    let unsampled = service_with_rate(0);
    for q in corpus() {
        let on = sampled
            .plan_spec_with(&q.spec, q.adaptive_options())
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let off = unsampled
            .plan_spec_with(&q.spec, q.adaptive_options())
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        assert_eq!(on.plan, off.plan, "{}: plan differs under sampling", q.name);
        assert_eq!(on.cost, off.cost, "{}: cost differs under sampling", q.name);
        assert_eq!(on.tier, off.tier, "{}: tier differs under sampling", q.name);
        assert_eq!(on.fingerprint, off.fingerprint, "{}", q.name);
        assert!(
            on.trace_id.is_some(),
            "{}: rate-1 sampling must trace every serve",
            q.name
        );
        assert!(off.trace_id.is_none(), "{}: rate 0 never traces", q.name);
    }
    let stats = sampled.sampler().stats();
    assert_eq!(
        stats.sampled, stats.serves,
        "rate 1 samples every serve ({stats:?})"
    );
    assert_eq!(unsampled.sampler().stats().sampled, 0);
    // The harvested exemplars carry real span trees covering the serving pipeline.
    let exemplars = sampled.sampler().exemplars();
    assert!(!exemplars.is_empty(), "the reservoir retained exemplars");
    for ex in &exemplars {
        assert!(ex.trace_id > 0, "trace ids are 1-based");
        assert!(
            ex.trace.phase_count("serve") > 0,
            "exemplar {} must cover the serve span, got {:?}",
            ex.trace_id,
            ex.trace.spans
        );
    }
}

/// Every serve leaves one structured record in the flight recorder, in serve order, with the
/// path and the cost the caller saw; `dump()` renders them without any prior opt-in.
#[test]
fn flight_recorder_reconstructs_recent_serves_in_order() {
    let service = Service::default();
    let a = corpus_query("job_01a").expect("corpus query exists");
    let b = corpus_query("job_02a").expect("corpus query exists");

    let cold = service.plan_ingest(&a).expect("plannable");
    let warm = service.plan_ingest(&a).expect("plannable");
    let other = service.plan_ingest(&b).expect("plannable");
    assert_eq!(cold.source, PlanSource::Miss);
    assert_eq!(warm.source, PlanSource::CacheHit);

    let records = service.flight_recorder().records();
    assert_eq!(records.len(), 3, "one record per serve");
    for (i, (rec, served)) in records.iter().zip([&cold, &warm, &other]).enumerate() {
        assert_eq!(rec.seq, i as u64, "records are in serve order");
        assert_eq!(rec.seq, served.serve_seq);
        assert_eq!(rec.fingerprint, served.fingerprint);
        assert_eq!(rec.source, served.source);
        assert_eq!(rec.tier, served.tier);
        assert_eq!(rec.cost, served.cost);
        assert_eq!(rec.trace_id, served.trace_id);
        assert!(rec.latency_ns > 0, "a serve takes measurable time");
        assert!(rec.true_cost.is_none(), "no execution feedback yet");
    }
    // Seq 0 is rate-sampled by the 1-in-1024 default, so the cold serve carries a trace id.
    assert_eq!(records[0].trace_id, Some(1));

    let dump = service.flight_recorder().dump();
    assert!(
        dump.contains("3 serve(s) retained"),
        "dump must state retention:\n{dump}"
    );
    for (rec, source) in records.iter().zip(["miss", "hit", "miss"]) {
        assert!(
            dump.contains(&format!("{:016x}", rec.fingerprint.shape)),
            "dump names every fingerprint:\n{dump}"
        );
        assert!(
            dump.contains(source),
            "dump names the `{source}` path:\n{dump}"
        );
    }
}

/// The ring is bounded: over capacity, the oldest records go first and the recorder counts
/// what it evicted.
#[test]
fn flight_recorder_ring_evicts_oldest_first() {
    let service = Service::new(ServiceOptions {
        flight_capacity: 2,
        ..ServiceOptions::default()
    });
    let q = corpus_query("job_01a").expect("corpus query exists");
    for _ in 0..3 {
        service.plan_ingest(&q).expect("plannable");
    }
    let records = service.flight_recorder().records();
    assert_eq!(records.len(), 2, "capacity bounds the ring");
    assert_eq!(service.flight_recorder().dropped(), 1);
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![1, 2],
        "the oldest serve was evicted"
    );
}

/// Execution feedback flows into both post-mortem surfaces: `observe_execution` annotates
/// the serve's flight record with the measured true cost and drives the per-shape regret
/// ledger, whose series then appear as labeled gauges in the Prometheus rendering.
#[test]
fn execution_feedback_reaches_flight_records_regret_ledger_and_prometheus() {
    let service = Service::default();
    let q = corpus_query("job_01a").expect("corpus query exists");
    let first = service.plan_ingest(&q).expect("plannable");
    let feedback = |true_cost: f64| ExecutionFeedback {
        true_cost,
        max_q_error: 2.0,
        median_q_error: 1.5,
    };

    // First observation: no hindsight yet, so no regret by definition.
    assert_eq!(service.observe_execution(&first, &feedback(100.0)), 0.0);
    let rec = service.flight_recorder().last().expect("recorded");
    assert_eq!(rec.true_cost, Some(100.0));
    assert_eq!(rec.max_q_error, Some(2.0));

    // A second serve of the same shape executing worse: regret is the gap to the best.
    let second = service.plan_ingest(&q).expect("plannable");
    assert_eq!(service.observe_execution(&second, &feedback(130.0)), 30.0);
    let shape = service
        .regret_ledger()
        .shape(first.fingerprint.shape)
        .expect("shape tracked");
    assert_eq!(shape.cycles, 2);
    assert_eq!(shape.best_true_cost, 100.0);
    assert_eq!(shape.last_regret, 30.0);
    assert_eq!(shape.cumulative_regret, 30.0);

    let text = service.render_prometheus();
    let label = format!("{:016x}", first.fingerprint.shape);
    assert!(
        text.contains(&format!("qo_regret_last{{shape=\"{label}\"}} 30")),
        "per-shape last-regret series missing:\n{text}"
    );
    assert!(
        text.contains(&format!("qo_regret_cumulative{{shape=\"{label}\"}} 30")),
        "per-shape cumulative series missing:\n{text}"
    );
    assert!(text.contains("qo_regret_cycles_total 2"), "{text}");
    assert!(text.contains("qo_regret_shapes 1"), "{text}");
    assert!(text.contains("qo_regret_total 30"), "{text}");
}

/// Repeated execute → observe → re-plan cycles over the corpus: the regret ledger's
/// pinning veto makes per-cycle regret non-increasing once feedback has informed planning.
/// Per shape, cycle 1 is regret-free by definition (no hindsight), cycle 2 may pay once for
/// exploring the model's candidate, and from cycle 3 on every serve is either the proven
/// best (regret 0 on stable data) or a candidate that already is the best — so the
/// corpus-aggregate per-cycle regret is non-increasing from cycle 2 and lands on 0.
///
/// Each query gets its own service: the synthetic corpus reuses canonical shapes across
/// queries with unrelated datasets, and sharing one ledger would conflate their true costs.
#[test]
fn regret_is_non_increasing_across_feedback_cycles() {
    const CYCLES: usize = 4;
    let mut histories: Vec<[f64; CYCLES]> = Vec::new();
    let mut pins = 0u64;
    let mut pinned_serves = 0u64;

    for q in corpus() {
        let n = q.spec.node_count();
        if n > 64 {
            continue;
        }
        let service = Service::default();
        let cold = service
            .plan_spec_with(&q.spec, q.adaptive_options())
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        // Deterministic synthetic data per query, seeded by the fingerprint exactly like
        // the reproduce harness, sized down so nested-loop execution stays fast.
        let seed = cold.fingerprint.shape ^ cold.fingerprint.stats;
        let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
        let db = Database::generate(&scaled_table_sizes(&cards, &q.row_overrides, 6), seed);
        let (graph, _) = q.spec.instantiate::<1>();

        let mut served = cold;
        let mut regrets = [0.0; CYCLES];
        let mut executed = 0;
        for slot in regrets.iter_mut() {
            let Some(obs) = execute_plan_observed(&served.plan, &graph, &db, 100_000) else {
                break; // Row budget burst — this query sits the analysis out.
            };
            *slot = service.observe_execution(&served, &obs.feedback());
            executed += 1;
            served = service
                .plan_observed_with(&q.spec, &obs.observed_stats(&db), q.adaptive_options())
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            if served.source == PlanSource::Pinned {
                pinned_serves += 1;
            }
        }
        if executed == CYCLES {
            histories.push(regrets);
            // Ledger consistency per service: aggregates are exactly the sums of what
            // `observe_execution` handed back.
            let total: f64 = regrets.iter().sum();
            assert!(
                (service.regret_ledger().total_regret() - total).abs() <= 1e-6 * total.max(1.0),
                "{}: ledger total {} != observed sum {total}",
                q.name,
                service.regret_ledger().total_regret()
            );
            assert_eq!(service.regret_ledger().cycles(), CYCLES as u64);
            pins += service.regret_ledger().pins();
        }
    }

    assert!(
        histories.len() >= 20,
        "most of the corpus must survive {CYCLES} full cycles, got {}",
        histories.len()
    );
    let aggregate: Vec<f64> = (0..CYCLES)
        .map(|c| histories.iter().map(|h| h[c]).sum())
        .collect();
    assert_eq!(aggregate[0], 0.0, "first observations carry no regret");
    for c in 2..CYCLES {
        assert!(
            aggregate[c] <= aggregate[c - 1] * (1.0 + 1e-9) + 1e-6,
            "feedback-informed regret increased at cycle {}: {:?}",
            c + 1,
            aggregate
        );
    }
    assert!(
        aggregate[CYCLES - 1] <= 1e-6,
        "regret must converge to 0 once the ledger pins proven-best orders: {aggregate:?}"
    );
    // The guarantee is earned, not vacuous: failed explorations exist on this corpus, and
    // the ledger answered them with pinned serves.
    if aggregate[1] > 0.0 {
        assert!(
            pins > 0 && pinned_serves > 0,
            "explorations regressed (cycle-2 regret {}) but nothing was pinned",
            aggregate[1]
        );
    }
}
