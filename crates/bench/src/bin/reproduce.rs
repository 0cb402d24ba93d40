//! Reproduction harness: prints, for every table and figure of the paper's evaluation, the same
//! rows / series the paper reports (single-shot optimization times in milliseconds and
//! csg-cmp-pair counts per algorithm and workload point), and writes the deterministic
//! `BENCH_baseline.json` snapshot.
//!
//! ```text
//! reproduce [--full] [--quick] [--experiment <id>] [--baseline [path]] [--baseline-force]
//! ```
//!
//! * `--full` also runs the baseline algorithms at the largest query sizes (DPsize/DPsub on the
//!   16-relation stars take from seconds to minutes per point, exactly as in the paper).
//! * `--quick` caps the synthetic table sizes and row budgets of the execution-feedback
//!   experiment, for smoke runs (CI) where wall-clock matters more than measurement depth.
//! * `--experiment <id>` restricts the run to one experiment; ids: `e1`, `fig5a`, `fig5b`, `e4`,
//!   `fig6a`, `fig6b`, `fig7`, `fig8a`, `fig8b`, `ccp`, `table`, `adaptive`, `ingest`,
//!   `service`, `feedback`, `obsv`.
//! * `--baseline [path]` skips the experiment tables and instead writes a clock-free snapshot
//!   (`BENCH_baseline.json` by default): ccp counts, DP-table sizes, tiers, cache counters, the
//!   feedback and regret results and the arena-vs-HashMap table agreement. It holds no timing,
//!   so two runs write identical files and `diff` against the committed file shows exactly
//!   what a change moved; timing distributions are measured by `servebench/`. A snapshot with
//!   a *different* `schema_version` at the target path is never overwritten silently — the
//!   run aborts with an explanatory error unless `--baseline-force` is given, so stale-schema
//!   files cannot masquerade as regenerated ones.
//!
//! An unknown argument or experiment id exits with status 2 and the usage.
//!
//! Absolute times depend on the machine; the claims to check are the *relative* ones (who
//! wins, by how much, and how the curves move with the workload parameter).

use dphyp::{AdaptiveOptimizer, AdaptiveOptions, ConflictEncoding, PlanTier, QuerySpec};
use qo_algebra::derive_query;
use qo_bench::json::Json;
use qo_bench::{
    compare_tables, format_ms, json_obj, run_algorithm, run_tree_pipeline, time_once, time_tables,
    Algorithm,
};
use qo_workloads::{
    chain_query, chain_spec, clique_query, cycle_query, cycle_with_hyperedge_splits,
    cycle_with_outer_joins, huge_star_spec, max_splits, star_query, star_spec, star_with_antijoins,
    star_with_hyperedge_splits, wide_chain_query, Workload,
};
use std::env;
use std::time::Duration;

const SEED: u64 = 2008;

/// Schema version of `BENCH_baseline.json`. Bump whenever a section is added, removed or
/// reshaped; `write_baseline` refuses to overwrite a file carrying a different version unless
/// forced, and readers should reject versions they do not understand.
const SCHEMA_VERSION: u32 = 13;

/// Measurement budget per timed point of the table experiment; long enough to average out
/// noise on chain-20, short enough that the multi-second star-20 runs once.
const BUDGET: Duration = Duration::from_millis(300);

/// An experiment id and its runner.
type Experiment = (&'static str, fn(&Args));

/// Every experiment `--experiment` can select, in the order a bare run executes them.
const EXPERIMENTS: [Experiment; 16] = [
    ("e1", |a| {
        let title = "E1 / Sec 4.2 table: cycle, 4 relations";
        hyperedge_split_experiment(title, cycle(4), a.full, usize::MAX)
    }),
    ("fig5a", |a| {
        let title = "E2 / Fig 5 (left): cycle, 8 relations";
        hyperedge_split_experiment(title, cycle(8), a.full, usize::MAX)
    }),
    ("fig5b", |a| {
        let title = "E3 / Fig 5 (right): cycle, 16 relations";
        hyperedge_split_experiment(title, cycle(16), a.full, 3)
    }),
    ("e4", |a| {
        let title = "E4 / Sec 4.3 table: star, 4 satellites";
        hyperedge_split_experiment(title, star(4), a.full, usize::MAX)
    }),
    ("fig6a", |a| {
        let title = "E5 / Fig 6 (left): star, 8 satellites";
        hyperedge_split_experiment(title, star(8), a.full, usize::MAX)
    }),
    ("fig6b", |a| {
        let title = "E6 / Fig 6 (right): star, 16 satellites";
        hyperedge_split_experiment(title, star(16), a.full, 0)
    }),
    ("fig7", |a| regular_graphs(a.full)),
    ("fig8a", |_| antijoin_star()),
    ("fig8b", |_| outer_join_cycle()),
    ("ccp", |_| ccp_counts()),
    ("table", |_| table_comparison()),
    ("adaptive", |_| adaptive_tiers()),
    ("ingest", |_| ingest_corpus()),
    ("service", |_| service_experiment()),
    ("feedback", |a| feedback_experiment(a.quick)),
    ("obsv", |a| obsv_experiment(a.quick)),
];

/// The parsed command line (see the module docs).
#[derive(Debug, Default, PartialEq)]
struct Args {
    full: bool,
    quick: bool,
    experiment: Option<String>,
    baseline: Option<String>,
    baseline_force: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => parsed.full = true,
            "--quick" => parsed.quick = true,
            "--baseline-force" => parsed.baseline_force = true,
            "--baseline" => {
                let path = args.next_if(|p| !p.starts_with("--"));
                parsed.baseline =
                    Some(path.map_or("BENCH_baseline.json".to_string(), String::clone));
            }
            "--experiment" => match args.next() {
                Some(id) if EXPERIMENTS.iter().any(|(known, _)| known == id) => {
                    parsed.experiment = Some(id.clone())
                }
                Some(id) => return Err(format!("unknown experiment id `{id}`")),
                None => return Err("`--experiment` needs an id".to_string()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    format!(
        "usage: reproduce [--full] [--quick] [--experiment <id>] [--baseline [path]] \
         [--baseline-force]\nexperiment ids: {}",
        EXPERIMENTS.map(|(id, _)| id).join(", ")
    )
}

fn main() {
    let args = match parse_args(&env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.baseline {
        if let Err(message) = check_baseline_schema(path, args.baseline_force) {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
        write_baseline(path);
        return;
    }

    println!("DPhyp reproduction harness (single-shot timings, milliseconds)");
    println!(
        "mode: {}",
        if args.full {
            "full"
        } else {
            "quick (use --full for the large baselines)"
        }
    );
    println!();

    for (id, run) in EXPERIMENTS {
        if args.experiment.as_deref().is_none_or(|only| only == id) {
            run(&args);
        }
    }
}

/// F1: the cardinality-feedback loop over the embedded corpus — execute each query's chosen
/// plan over deterministic synthetic data, measure per-join q-errors against the estimates,
/// feed the observed statistics back through the service's drift path, and compare the
/// executed ("true") cost of the re-optimized plan against the original one.
fn feedback_experiment(quick: bool) {
    let f = run_feedback_rows(quick);
    println!(
        "== F1: execution feedback over the {}-query corpus ({} mode) ==",
        f.rows.len(),
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:>18} {:>5} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "query", "rels", "max q-err", "med q-err", "true before", "true after", "replanned"
    );
    for r in &f.rows {
        if r.skipped {
            println!(
                "{:>18} {:>5} {:>12}",
                r.name, r.relations, "(row budget exceeded)"
            );
            continue;
        }
        println!(
            "{:>18} {:>5} {:>12.1} {:>10.2} {:>12.0} {:>12.0} {:>10}",
            r.name,
            r.relations,
            r.max_q_error,
            r.median_q_error,
            r.true_cost_before,
            r.true_cost_after,
            if r.replanned { "yes" } else { "-" }
        );
    }
    println!(
        "{} executed, {} skipped (row budget); {} replanned, {} improved; \
         total true cost {:.0} -> {:.0}; worst q-error {:.1}",
        f.executed,
        f.skipped,
        f.replanned,
        f.improved,
        f.total_cost_before,
        f.total_cost_after,
        f.max_q_error,
    );
    assert_feedback(&f);
    println!();
}

/// The acceptance claims of the feedback experiment, shared by the printed table and the
/// baseline snapshot: most of the corpus must actually execute within the row budget, the
/// estimator must be measurably wrong somewhere (otherwise the loop measures nothing), and
/// feeding the observations back must demonstrably improve at least one query's executed cost.
fn assert_feedback(f: &FeedbackRows) {
    assert!(
        f.executed * 2 > f.rows.len(),
        "most corpus queries must execute within the row budget ({} of {})",
        f.executed,
        f.rows.len()
    );
    assert!(
        f.max_q_error > 2.0,
        "the synthetic data must expose estimation error (worst q-error {:.2})",
        f.max_q_error
    );
    assert!(
        f.replanned >= 1,
        "observed statistics must change at least one corpus plan"
    );
    assert!(
        f.improved >= 1,
        "re-optimizing under observed statistics must improve at least one query's \
         executed cost"
    );
}

/// One corpus query's trip around the feedback loop.
struct FeedbackRow {
    name: String,
    relations: usize,
    /// Worst per-join q-error of the original plan's estimates.
    max_q_error: f64,
    /// Median per-join q-error of the original plan's estimates.
    median_q_error: f64,
    /// Executed cost (sum of actual intermediate cardinalities) of the original plan.
    true_cost_before: f64,
    /// Executed cost of the plan re-optimized under the observed statistics.
    true_cost_after: f64,
    /// Did the re-optimization pick a different plan?
    replanned: bool,
    /// Did the new plan strictly beat the old one's executed cost?
    improved: bool,
    /// Which serving path answered the feedback re-plan (never a miss: same shape).
    source: String,
    /// The query exceeded the row budget and was not measured.
    skipped: bool,
}

impl FeedbackRow {
    fn skipped(name: &str, relations: usize) -> FeedbackRow {
        FeedbackRow {
            name: name.to_string(),
            relations,
            max_q_error: 0.0,
            median_q_error: 0.0,
            true_cost_before: 0.0,
            true_cost_after: 0.0,
            replanned: false,
            improved: false,
            source: String::new(),
            skipped: true,
        }
    }
}

/// Aggregates of the feedback loop over the whole corpus.
struct FeedbackRows {
    executed: usize,
    skipped: usize,
    replanned: usize,
    improved: usize,
    /// Worst q-error across every executed query.
    max_q_error: f64,
    /// Median of the executed queries' median q-errors.
    median_q_error: f64,
    total_cost_before: f64,
    total_cost_after: f64,
    rows: Vec<FeedbackRow>,
}

/// Executes `plan` over `db` with full cardinality instrumentation, picking the node-set
/// width exactly like the planner does (`None` when an intermediate result exceeds
/// `row_limit`).
fn execute_observed(
    spec: &QuerySpec,
    plan: &qo_plan::PlanNode,
    db: &qo_exec::Database,
    row_limit: usize,
) -> Option<qo_exec::ObservedExecution> {
    if spec.node_count() <= 64 {
        let (graph, _) = spec.instantiate::<1>();
        qo_exec::execute_plan_observed(plan, &graph, db, row_limit)
    } else {
        let (graph, _) = spec.instantiate::<2>();
        qo_exec::execute_plan_observed(plan, &graph, db, row_limit)
    }
}

fn run_feedback_rows(quick: bool) -> FeedbackRows {
    use qo_exec::{scaled_table_sizes, Database};
    use qo_service::{PlanSource, Service};

    let queries = qo_workloads::corpus::corpus();
    let service = Service::default();
    // Row budget per intermediate result; the re-executed plan gets head-room because a
    // re-optimized ordering is under no obligation to shrink every intermediate.
    let row_limit: usize = if quick { 50_000 } else { 200_000 };

    let mut rows = Vec::new();
    for q in &queries {
        let n = q.spec.node_count();
        let adaptive = q.adaptive_options();
        let cold = service
            .plan_spec_with(&q.spec, adaptive)
            .expect("corpus query plannable");

        // Deterministic synthetic data per query: the fingerprint (shape and statistics
        // digests) seeds the generator, so every rerun executes identical tables. Sizes are
        // log2-scaled from the declared cardinalities (nested-loop execution cannot absorb
        // the corpus' multi-million-row tables), capped lower for wide queries and in quick
        // mode; `rows=` overrides from the `.jg` source win over the scaling.
        let seed = cold.fingerprint.shape ^ cold.fingerprint.stats;
        let cap = if quick || n > 12 { 8 } else { 16 };
        let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
        let sizes = scaled_table_sizes(&cards, &q.row_overrides, cap);
        let db = Database::generate(&sizes, seed);

        let Some(obs) = execute_observed(&q.spec, &cold.plan, &db, row_limit) else {
            rows.push(FeedbackRow::skipped(&q.name, n));
            continue;
        };

        // Close the loop: observed base cardinalities + inverted per-edge selectivities,
        // re-planned through the service. The overlay changes statistics but never shape,
        // so the drift path must answer — an outright miss would mean the feedback spec
        // landed in a different cache bucket.
        let observed = obs.observed_stats(&db);
        let fed = service
            .plan_observed_with(&q.spec, &observed, adaptive)
            .expect("observed corpus query plannable");
        assert_ne!(
            fed.source,
            PlanSource::Miss,
            "{}: the observed spec has the same shape and must hit the drift path",
            q.name
        );
        let replanned = fed.plan != cold.plan;
        let Some(after) = execute_observed(&q.spec, &fed.plan, &db, row_limit.saturating_mul(4))
        else {
            rows.push(FeedbackRow::skipped(&q.name, n));
            continue;
        };

        let true_cost_before = obs.true_cost();
        let true_cost_after = after.true_cost();
        rows.push(FeedbackRow {
            name: q.name.clone(),
            relations: n,
            max_q_error: obs.max_q_error(),
            median_q_error: obs.median_q_error(),
            true_cost_before,
            true_cost_after,
            replanned,
            improved: true_cost_after < true_cost_before,
            source: fed.source.to_string(),
            skipped: false,
        });
    }

    let executed: Vec<&FeedbackRow> = rows.iter().filter(|r| !r.skipped).collect();
    let mut medians: Vec<f64> = executed.iter().map(|r| r.median_q_error).collect();
    medians.sort_by(f64::total_cmp);
    let median_q_error = if medians.is_empty() {
        1.0
    } else if medians.len() % 2 == 1 {
        medians[medians.len() / 2]
    } else {
        (medians[medians.len() / 2 - 1] + medians[medians.len() / 2]) / 2.0
    };
    FeedbackRows {
        executed: executed.len(),
        skipped: rows.len() - executed.len(),
        replanned: executed.iter().filter(|r| r.replanned).count(),
        improved: executed.iter().filter(|r| r.improved).count(),
        max_q_error: executed.iter().map(|r| r.max_q_error).fold(1.0, f64::max),
        median_q_error,
        total_cost_before: executed.iter().map(|r| r.true_cost_before).sum(),
        total_cost_after: executed.iter().map(|r| r.true_cost_after).sum(),
        rows,
    }
}

/// O1: the observability layer measured over the corpus — per-phase wall-clock (parse, lower,
/// canonicalize, enumerate, IDP, greedy) harvested from an ambient
/// [`qo_obsv::RecordingSink`], plus the two acceptance checks of the instrumentation itself:
/// planning stays bit-identical with and without a recording sink, and an uninstalled sink
/// (the [`qo_obsv::NoopSink`] default) keeps `Span::enter` within noise of pre-instrumentation.
fn obsv_experiment(quick: bool) {
    let o = run_obsv_rows(quick);
    println!(
        "== O1: per-phase optimizer observability over the {}-query corpus ==",
        o.rows.len()
    );
    println!(
        "{:>18} {:>5} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "query", "rels", "parse", "lower", "canon", "enumerate", "total"
    );
    println!(
        "{:>18} {:>5} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "", "", "(us)", "(us)", "(us)", "(us)", "(us)"
    );
    for r in &o.rows {
        let us = |ns: u64| ns as f64 / 1e3;
        println!(
            "{:>18} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>11.1} {:>9.1}",
            r.name,
            r.relations,
            us(r.parse_ns),
            us(r.lower_ns),
            us(r.canonicalize_ns),
            us(r.enumerate_ns + r.idp_ns + r.greedy_ns),
            us(r.total_ns),
        );
    }
    println!(
        "inert span probe (no sink installed): {:.2} ns/call over {} calls; \
         recording sink vs. none: bit-identical plans on every query",
        o.noop_span_ns, o.noop_span_calls
    );
    println!(
        "sampler fast path (unsampled serve): {:.2} ns/serve over {} calls; \
         ambient 1-in-1024 sampling: bit-identical plans, {} of {} serves sampled, \
         {} exemplar span tree(s) harvested",
        o.sampler_fastpath_ns,
        o.sampler_fastpath_calls,
        o.sampled,
        o.serves,
        o.exemplars.len()
    );
    for ex in &o.exemplars {
        println!(
            "  exemplar trace {} (serve #{}, {}): {} span(s), serve covered {}x, \
             {:.1} us latency",
            ex.trace_id,
            ex.seq,
            ex.trigger,
            ex.spans,
            ex.serve_spans,
            ex.latency_ns as f64 / 1e3
        );
    }
    println!();

    let r = run_regret_rows(quick);
    println!(
        "== O2: regret over {} feedback cycles ({} corpus queries, pinning veto live) ==",
        r.cycles, r.queries
    );
    println!("{:>7} {:>18}", "cycle", "aggregate regret");
    for (c, regret) in r.per_cycle.iter().enumerate() {
        println!("{:>7} {:>18.1}", c + 1, regret);
    }
    println!(
        "{} ledger pin(s) vetoed a measured-worse or unexplored candidate; \
         {} serve(s) answered from the pinned order",
        r.pins, r.pinned_serves
    );
    assert_regret(&r);
    println!();
}

/// One corpus query's per-phase time breakdown, in nanoseconds, as recorded by the span
/// layer. `parse_ns`/`lower_ns` are measured per source file and split evenly across the
/// file's queries (the parser works file-at-a-time); the planning phases are per query.
struct ObsvRow {
    name: String,
    relations: usize,
    parse_ns: u64,
    lower_ns: u64,
    canonicalize_ns: u64,
    enumerate_ns: u64,
    idp_ns: u64,
    greedy_ns: u64,
    /// End-to-end wall clock of the serving call (a superset of the phases).
    total_ns: u64,
}

/// The observability experiment's measured facts, shared by the printed table and the
/// baseline snapshot. Construction asserts the acceptance claims (bit-identity under tracing
/// and under ambient sampling, bounded inert-span and unsampled-serve overhead), so both
/// consumers get *checked* numbers.
struct ObsvRows {
    rows: Vec<ObsvRow>,
    /// Mean cost of `Span::enter` + drop with no sink installed, nanoseconds per call.
    noop_span_ns: f64,
    noop_span_calls: u64,
    /// Mean cost of one unsampled `begin_serve`/`finish_serve` round trip on the always-on
    /// sampler: the per-serve price of leaving sampling enabled in production.
    sampler_fastpath_ns: f64,
    sampler_fastpath_calls: u64,
    /// Serves admitted by the ambient rate-1024 sampler during the bit-identity sweep.
    serves: u64,
    /// How many of them were traced (rate-selected plus slow-armed).
    sampled: u64,
    /// The harvested exemplar span trees, summarized.
    exemplars: Vec<ExemplarSummary>,
}

/// One harvested sampled exemplar, summarized for the report and the baseline snapshot (the
/// full span tree stays in process; the snapshot records its identity and shape).
struct ExemplarSummary {
    trace_id: u64,
    /// The serve's sequence number within its service.
    seq: u64,
    /// Why the serve was traced: `rate` or `slow-armed`.
    trigger: &'static str,
    latency_ns: u64,
    /// Spans in the harvested trace.
    spans: usize,
    /// How many of them cover the `serve` phase (always at least one).
    serve_spans: usize,
}

/// Mean cost of an inert span (no sink installed on this thread): the bound the default
/// `NoopSink` configuration must stay under for the hot path to count as uninstrumented.
fn noop_span_overhead_ns(calls: u64) -> f64 {
    assert!(
        qo_obsv::current_sink().is_none(),
        "the probe must run without a sink"
    );
    let started = std::time::Instant::now();
    for _ in 0..calls {
        let span = std::hint::black_box(qo_obsv::Span::enter("noop_probe"));
        drop(span);
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

fn run_obsv_rows(quick: bool) -> ObsvRows {
    use qo_ingest::parse_queries;
    use qo_obsv::RecordingSink;
    use qo_service::Service;
    use std::sync::Arc;

    let mut rows = Vec::new();
    for entry in qo_workloads::corpus::CORPUS {
        // Parse + lower the whole file under a recording sink; the file-level cost is split
        // evenly across its queries (the parser is file-at-a-time).
        let sink = Arc::new(RecordingSink::new());
        let queries = qo_obsv::with_sink(sink.clone(), || parse_queries(entry.source))
            .expect("embedded corpus file parses");
        let trace = sink.trace();
        let share = queries.len().max(1) as u64;
        let (parse_ns, lower_ns) = (
            trace.phase_ns("parse") / share,
            trace.phase_ns("lower") / share,
        );

        for q in queries {
            // A fresh service per query keeps every serve a cold full optimization, so the
            // breakdown always covers canonicalize → fingerprint → enumerate (isomorphic
            // corpus twins would otherwise warm-start and skip enumeration).
            let service = Service::default();
            let sink = Arc::new(RecordingSink::new());
            let (wall, served) = qo_obsv::with_sink(sink.clone(), || {
                time_once(|| service.plan_ingest(&q).expect("corpus query plannable"))
            });
            let trace = sink.trace();

            // Acceptance: planning under a recording sink must not change the plan, only
            // record its planning phase.
            let untraced = q.plan().expect("corpus query plannable");
            let plan_sink = Arc::new(RecordingSink::new());
            let traced =
                qo_obsv::with_sink(plan_sink.clone(), || q.plan()).expect("corpus query plannable");
            assert_eq!(
                traced.plan, untraced.plan,
                "{}: tracing must not change the plan",
                q.name
            );
            assert_eq!(
                traced.cost, untraced.cost,
                "{}: tracing must not change the cost",
                q.name
            );
            let planned = plan_sink.trace();
            assert!(
                ["enumerate", "idp", "greedy"]
                    .iter()
                    .any(|phase| planned.phase_count(phase) > 0),
                "{}: the recording covers the planning phase",
                q.name
            );
            // The served plan went through canonicalization (which may tie-break equal-cost
            // join sides differently than the raw spec), so only its coverage is checked.
            assert_eq!(served.plan.scan_count(), q.relation_count(), "{}", q.name);

            rows.push(ObsvRow {
                name: q.name.clone(),
                relations: q.relation_count(),
                parse_ns,
                lower_ns,
                canonicalize_ns: trace.phase_ns("canonicalize"),
                enumerate_ns: trace.phase_ns("enumerate"),
                idp_ns: trace.phase_ns("idp"),
                greedy_ns: trace.phase_ns("greedy"),
                total_ns: wall.as_nanos() as u64,
            });
        }
    }

    let noop_span_calls: u64 = if quick { 200_000 } else { 2_000_000 };
    let noop_span_ns = noop_span_overhead_ns(noop_span_calls);
    // "Within noise of pre-instrumentation": an inert span is one thread-local read and a
    // `None` check — single-digit nanoseconds in practice. The bound is two orders of
    // magnitude above that so it never flakes on a loaded CI box, yet still fails loudly if
    // the guard ever grows a timestamp or an allocation.
    assert!(
        noop_span_ns < 250.0,
        "inert spans must stay within noise of pre-instrumentation \
         (measured {noop_span_ns:.1} ns/call)"
    );

    // The always-on sampler's unsampled path is held to the same bound: a serve that is not
    // selected costs one relaxed increment, one modulo, and one relaxed flag load.
    let sampler_fastpath_calls: u64 = if quick { 200_000 } else { 2_000_000 };
    let sampler_fastpath_ns = sampler_fastpath_overhead_ns(sampler_fastpath_calls);
    assert!(
        sampler_fastpath_ns < 250.0,
        "the unsampled serve path must stay within noise of an unsampled service \
         (measured {sampler_fastpath_ns:.1} ns/serve)"
    );

    // Acceptance: the production default — ambient 1-in-1024 sampling with slow-serve
    // arming live — is pure observation. Serve the whole corpus through it and through a
    // sampler that never fires; every plan, cost, tier and fingerprint must match, and the
    // sampled service must actually harvest exemplar span trees covering the serve phase.
    let sampled_service = Service::default();
    let control = Service::new(qo_service::ServiceOptions {
        sampling: qo_service::SamplerOptions {
            sample_rate: 0,
            // Rate 0 still slow-arms by design; the control must never trace.
            warmup: u64::MAX,
        },
        ..qo_service::ServiceOptions::default()
    });
    for q in &qo_workloads::corpus::corpus() {
        let on = sampled_service
            .plan_spec_with(&q.spec, q.adaptive_options())
            .expect("corpus query plannable");
        let off = control
            .plan_spec_with(&q.spec, q.adaptive_options())
            .expect("corpus query plannable");
        assert_eq!(
            on.plan, off.plan,
            "{}: plan differs under ambient sampling",
            q.name
        );
        assert_eq!(
            on.cost, off.cost,
            "{}: cost differs under ambient sampling",
            q.name
        );
        assert_eq!(on.tier, off.tier, "{}", q.name);
        assert_eq!(on.fingerprint, off.fingerprint, "{}", q.name);
        assert!(
            off.trace_id.is_none(),
            "{}: the control never traces",
            q.name
        );
    }
    let stats = sampled_service.sampler().stats();
    assert!(
        stats.sampled >= 1,
        "the rate-1024 sampler must catch at least serve #0 ({stats:?})"
    );
    let mut exemplars: Vec<ExemplarSummary> = sampled_service
        .sampler()
        .exemplars()
        .into_iter()
        .chain(sampled_service.sampler().slow_exemplars())
        .map(|ex| ExemplarSummary {
            trace_id: ex.trace_id,
            seq: ex.seq,
            trigger: match ex.trigger {
                qo_obsv::SampleTrigger::Rate => "rate",
                qo_obsv::SampleTrigger::SlowArmed => "slow-armed",
            },
            latency_ns: ex.latency_ns,
            spans: ex.trace.spans.len(),
            serve_spans: ex.trace.phase_count("serve"),
        })
        .collect();
    exemplars.sort_by_key(|e| e.trace_id);
    for ex in &exemplars {
        assert!(
            ex.serve_spans > 0,
            "exemplar {} must cover the serve span",
            ex.trace_id
        );
    }

    ObsvRows {
        rows,
        noop_span_ns,
        noop_span_calls,
        sampler_fastpath_ns,
        sampler_fastpath_calls,
        serves: stats.serves,
        sampled: stats.sampled,
        exemplars,
    }
}

/// Mean cost of one unsampled `begin_serve`/`finish_serve` round trip: rate 0 disables rate
/// sampling and the unreachable warmup keeps slow-serve arming off, so every iteration takes
/// the fast path the sampler promises to every serve it does not select.
fn sampler_fastpath_overhead_ns(calls: u64) -> f64 {
    use qo_obsv::{SamplerOptions, SamplingSink};
    let sampler = SamplingSink::new(SamplerOptions {
        sample_rate: 0,
        warmup: u64::MAX,
    });
    let started = std::time::Instant::now();
    for i in 0..calls {
        let ticket = std::hint::black_box(sampler.begin_serve());
        std::hint::black_box(sampler.finish_serve(ticket, 64 + (i & 7)));
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// The regret-over-cycles trajectory: repeated execute → observe → re-plan cycles per corpus
/// query, aggregated per cycle. With the ledger's pinning veto live the aggregate series is
/// non-increasing from cycle 2 and lands on zero (see `qo_service`'s regret module docs).
struct RegretRows {
    cycles: usize,
    /// Queries that survived every cycle within the row budget.
    queries: usize,
    /// Aggregate regret per cycle across the surviving queries.
    per_cycle: Vec<f64>,
    /// Ledger pins recorded across every per-query service.
    pins: u64,
    /// Serves answered from a pinned order (`PlanSource::Pinned`).
    pinned_serves: u64,
}

fn run_regret_rows(quick: bool) -> RegretRows {
    use qo_exec::{scaled_table_sizes, Database};
    use qo_service::{PlanSource, Service};

    let cycles: usize = if quick { 3 } else { 4 };
    let row_limit: usize = if quick { 50_000 } else { 100_000 };
    let mut histories: Vec<Vec<f64>> = Vec::new();
    let mut pins = 0u64;
    let mut pinned_serves = 0u64;

    for q in &qo_workloads::corpus::corpus() {
        let n = q.spec.node_count();
        // Each query gets its own service: the synthetic corpus reuses canonical shapes
        // across queries with unrelated datasets, and one shared ledger would conflate
        // their true costs (same rationale as the always-on integration tests).
        let service = Service::default();
        let cold = service
            .plan_spec_with(&q.spec, q.adaptive_options())
            .expect("corpus query plannable");
        // Deterministic synthetic data per query, seeded and scaled exactly like the
        // feedback experiment but sized down further: every query executes `cycles` times.
        let seed = cold.fingerprint.shape ^ cold.fingerprint.stats;
        let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
        let db = Database::generate(&scaled_table_sizes(&cards, &q.row_overrides, 6), seed);

        let mut served = cold;
        let mut regrets = vec![0.0; cycles];
        let mut executed = 0;
        for slot in regrets.iter_mut() {
            let Some(obs) = execute_observed(&q.spec, &served.plan, &db, row_limit) else {
                break; // Row budget burst — this query sits the analysis out.
            };
            *slot = service.observe_execution(&served, &obs.feedback());
            executed += 1;
            served = service
                .plan_observed_with(&q.spec, &obs.observed_stats(&db), q.adaptive_options())
                .expect("observed corpus query plannable");
            if served.source == PlanSource::Pinned {
                pinned_serves += 1;
            }
        }
        if executed == cycles {
            histories.push(regrets);
            pins += service.regret_ledger().pins();
        }
    }

    let per_cycle: Vec<f64> = (0..cycles)
        .map(|c| histories.iter().map(|h| h[c]).sum())
        .collect();
    RegretRows {
        cycles,
        queries: histories.len(),
        per_cycle,
        pins,
        pinned_serves,
    }
}

/// The regret experiment's acceptance claims, shared by the printed table and the baseline
/// snapshot: enough of the corpus survives every cycle, first observations carry no regret,
/// and with the pinning veto live the aggregate series is non-increasing from cycle 2 and
/// converges to zero.
fn assert_regret(r: &RegretRows) {
    assert!(
        r.queries >= 15,
        "most of the corpus must survive {} full cycles, got {}",
        r.cycles,
        r.queries
    );
    assert_eq!(r.per_cycle[0], 0.0, "first observations carry no regret");
    for c in 2..r.cycles {
        assert!(
            r.per_cycle[c] <= r.per_cycle[c - 1] * (1.0 + 1e-9) + 1e-6,
            "regret increased at cycle {}: {:?}",
            c + 1,
            r.per_cycle
        );
    }
    assert!(
        r.per_cycle[r.cycles - 1] <= 1e-6,
        "regret must converge once proven-best orders are pinned: {:?}",
        r.per_cycle
    );
}

/// Refuses to overwrite a baseline snapshot whose `schema_version` differs from
/// [`SCHEMA_VERSION`] (unless forced): sections of different schema generations must never be
/// silently merged into one file.
fn check_baseline_schema(path: &str, force: bool) -> Result<(), String> {
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        // Only a genuinely absent file is a fresh write; an unreadable or non-UTF-8 file is
        // exactly the "unrecognized file" case the guard exists for.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) if force => {
            eprintln!("note: replacing unreadable {path} ({e}) under --baseline-force");
            return Ok(());
        }
        Err(e) => {
            return Err(format!(
                "{path} exists but cannot be read ({e}); refusing to overwrite an \
                 unrecognized file. Re-run with --baseline-force to replace it."
            ))
        }
    };
    let found = existing
        .split("\"schema_version\":")
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse::<u32>()
                .ok()
        });
    match found {
        Some(v) if v == SCHEMA_VERSION => Ok(()),
        _ if force => Ok(()),
        Some(v) => Err(format!(
            "{path} carries schema_version {v}, but this binary writes schema_version \
             {SCHEMA_VERSION}; refusing to overwrite a snapshot of a different schema \
             generation (its sections are not comparable). Re-run with --baseline-force to \
             regenerate the file under the new schema."
        )),
        None => Err(format!(
            "{path} exists but has no parseable schema_version field; refusing to overwrite \
             an unrecognized file. Re-run with --baseline-force to replace it."
        )),
    }
}

/// S1: the plan-cache + optimization service over the embedded corpus — cold (every shape a
/// miss), warm (every query a bit-identical cache hit), statistics drift (incremental re-cost
/// with the greedy staleness probe), and the concurrent batch driver cross-checked against
/// sequential serving.
fn service_experiment() {
    let rows = run_service_rows();
    println!(
        "== S1: qo-service plan cache over the {}-query corpus ==",
        rows.queries
    );
    println!(
        "{:>22} {:>12} {:>14}",
        "pass", "total (ms)", "per query (us)"
    );
    for (name, ms) in [
        ("cold (all misses)", rows.cold_ms),
        ("warm (all hits)", rows.warm_ms),
        ("stats drift (re-cost)", rows.drift_ms),
    ] {
        println!(
            "{:>22} {:>12.3} {:>14.1}",
            name,
            ms,
            ms * 1e3 / rows.queries as f64
        );
    }
    println!(
        "warm speedup: {:.1}x (median of {WARM_PAIRS} cold->warm pairs); drift outcomes: {} \
         re-costed, {} fell back to full re-optimization",
        rows.warm_speedup, rows.recosts, rows.recost_fallbacks
    );
    println!(
        "cache: {} hits, {} shape hits, {} misses, {} evictions; batch == sequential: {}",
        rows.hits, rows.shape_hits, rows.misses, rows.evictions, rows.batch_matches
    );
    println!(
        "serving-path latency: hit {:.1} us, re-cost {:.1} us, miss {:.1} us (count-weighted \
         averages)",
        rows.avg_hit_ns as f64 / 1e3,
        rows.avg_recost_ns as f64 / 1e3,
        rows.avg_miss_ns as f64 / 1e3
    );
    assert!(
        rows.batch_matches,
        "the concurrent batch driver must produce the sequential plans"
    );
    println!();
}

/// Cold->warm pairs the warm-speedup gate takes the median of. One pair divides two passes of a
/// few milliseconds each, so a single scheduling stall can move it by several x.
const WARM_PAIRS: usize = 7;

/// The service experiment's measured facts, shared by the printed table and the baseline
/// snapshot. Asserts the headline acceptance claims (bit-identical warm plans, ≥10x warm
/// speedup, batch == sequential) so both consumers get *checked* numbers. The cache counters
/// are those of one cold/warm/drift sequence on one service.
struct ServiceRows {
    queries: usize,
    cold_ms: f64,
    warm_ms: f64,
    drift_ms: f64,
    /// Median over [`WARM_PAIRS`] cold->warm pairs, each on a fresh service.
    warm_speedup: f64,
    recosts: u64,
    recost_fallbacks: u64,
    hits: u64,
    shape_hits: u64,
    misses: u64,
    evictions: u64,
    batch_matches: bool,
    /// Count-weighted average serving latencies per outcome (the `CacheStats` accessors).
    avg_hit_ns: u64,
    avg_recost_ns: u64,
    avg_miss_ns: u64,
}

fn run_service_rows() -> ServiceRows {
    use qo_service::{PlanSource, Service};
    let queries = qo_workloads::corpus::corpus();
    let n = queries.len();

    let serve_all = |service: &Service| {
        time_once(|| {
            queries
                .iter()
                .map(|q| service.plan_ingest(q).expect("corpus query plannable"))
                .collect::<Vec<_>>()
        })
    };
    let speedup =
        |cold: Duration, warm: Duration| cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);

    let service = Service::default();
    // Cold pass: every shape is new.
    let (t_cold, cold) = serve_all(&service);
    for (q, served) in queries.iter().zip(&cold) {
        // Most cold queries miss outright; JOB-style corpora also contain *isomorphic* queries
        // (same join graph, different constants), which warm-start from their twin's entry via
        // the re-cost path. What a cold pass can never do is serve an exact cache hit.
        assert_ne!(
            served.source,
            PlanSource::CacheHit,
            "{}: a cold pass cannot exact-hit",
            q.name
        );
        assert_eq!(served.plan.scan_count(), q.relation_count(), "{}", q.name);
    }

    // Warm pass: identical resubmission must hit, bit-identically.
    let (t_warm, warm) = serve_all(&service);
    for ((q, c), w) in queries.iter().zip(&cold).zip(&warm) {
        assert_eq!(w.source, PlanSource::CacheHit, "{}: warm must hit", q.name);
        assert_eq!(
            w.cost, c.cost,
            "{}: warm plan cost must be bit-identical",
            q.name
        );
        assert_eq!(w.plan, c.plan, "{}: warm plan must be identical", q.name);
    }
    // The gate reads the median over this pair and fresh ones; the extra services leave this
    // service's counters alone.
    let mut speedups = vec![speedup(t_cold, t_warm)];
    speedups.extend((1..WARM_PAIRS).map(|_| {
        let fresh = Service::default();
        let (cold, _) = serve_all(&fresh);
        let (warm, _) = serve_all(&fresh);
        speedup(cold, warm)
    }));
    speedups.sort_by(f64::total_cmp);
    let warm_speedup = speedups[WARM_PAIRS / 2];
    assert!(
        warm_speedup >= 10.0,
        "warm-cache serving must be >= 10x faster than cold, got a median of \
         {warm_speedup:.1}x over {WARM_PAIRS} cold->warm pairs ({speedups:.1?})"
    );

    // Statistics drift: same shapes, cardinalities drifted a few percent.
    let drifted: Vec<_> = queries
        .iter()
        .map(|q| {
            let n = q.spec.node_count();
            let mut b = dphyp::QuerySpec::builder(n);
            for r in 0..n {
                b.set_cardinality(r, q.spec.cardinality(r) * (1.03 + 0.01 * (r % 5) as f64));
                let refs = q.spec.lateral_refs(r).to_vec();
                if !refs.is_empty() {
                    b.set_lateral_refs(r, &refs);
                }
            }
            for e in q.spec.edges() {
                if e.flex().is_empty() {
                    b.add_edge(e.left(), e.right(), e.selectivity(), e.op());
                } else {
                    b.add_generalized_edge(e.left(), e.right(), e.flex(), e.selectivity());
                }
            }
            (b.build(), q)
        })
        .collect();
    let (t_drift, drift_served) = time_once(|| {
        drifted
            .iter()
            .map(|(spec, q)| {
                service
                    .plan_spec_with(spec, q.adaptive_options())
                    .expect("drifted corpus query plannable")
            })
            .collect::<Vec<_>>()
    });
    let mut recosts = 0u64;
    let mut recost_fallbacks = 0u64;
    for ((spec, q), served) in drifted.iter().zip(&drift_served) {
        assert_eq!(served.plan.scan_count(), spec.node_count(), "{}", q.name);
        match served.source {
            PlanSource::Recost => recosts += 1,
            PlanSource::RecostFallback => recost_fallbacks += 1,
            other => panic!("{}: drift must take a shape-hit path, got {other}", q.name),
        }
    }

    // Concurrent batch driver vs sequential serving, both from cold caches. The comparison is
    // *recorded* here (and into the baseline snapshot); the printed experiment asserts it, so
    // a divergence still fails loudly without making the JSON field tautological.
    let batch_service = Service::default();
    let batch = batch_service.plan_batch_ingest(&queries);
    let mut batch_matches = true;
    for (c, b) in cold.iter().zip(batch) {
        let b = b.expect("batch query plannable");
        batch_matches &= b.plan == c.plan && b.cost == c.cost;
    }

    let stats = service.cache_stats();
    ServiceRows {
        queries: n,
        cold_ms: t_cold.as_secs_f64() * 1e3,
        warm_ms: t_warm.as_secs_f64() * 1e3,
        drift_ms: t_drift.as_secs_f64() * 1e3,
        warm_speedup,
        recosts,
        recost_fallbacks,
        hits: stats.hits,
        shape_hits: stats.shape_hits,
        misses: stats.misses,
        evictions: stats.evictions,
        batch_matches,
        avg_hit_ns: stats.avg_hit_ns(),
        avg_recost_ns: stats.avg_recost_ns(),
        avg_miss_ns: stats.avg_miss_ns(),
    }
}

/// Runs one ingested corpus query through the adaptive driver (with the query's own options
/// overlaid on the defaults) and returns its telemetry row.
fn run_ingest_row(q: &qo_workloads::corpus::IngestQuery) -> IngestRow {
    let (t, r) = time_once(|| q.plan().expect("corpus query plannable"));
    assert_eq!(
        r.plan.scan_count(),
        q.relation_count(),
        "{}: ingested plan must cover every declared relation",
        q.name
    );
    IngestRow {
        relations: q.relation_count(),
        edges: q.spec.edge_count(),
        budget: q.adaptive_options().ccp_budget,
        tier: r.tier,
        exact_ccps: r.telemetry.exact_ccps,
        exact_skipped: r.telemetry.exact_skipped,
        wall_ms: t.as_secs_f64() * 1e3,
        cost: r.cost,
    }
}

struct IngestRow {
    relations: usize,
    edges: usize,
    budget: usize,
    tier: PlanTier,
    exact_ccps: usize,
    exact_skipped: bool,
    wall_ms: f64,
    cost: f64,
}

/// I1: the embedded `.jg` corpus (30 JOB-style and TPC-DS-flavored join graphs) planned end
/// to end — parse, lower, adaptive driver — with per-query tier/budget/ccp telemetry. This is
/// the non-synthetic workload surface: stars and snowflakes with complex-predicate
/// hyperedges, non-inner joins and per-query budgets.
fn ingest_corpus() {
    use qo_workloads::corpus::corpus;
    println!("== I1: embedded .jg corpus planned end to end (parse -> lower -> adaptive) ==");
    println!(
        "{:>18} {:>5} {:>6} {:>10} {:>8} {:>12} {:>8} {:>10} {:>14}",
        "query",
        "rels",
        "edges",
        "budget",
        "tier",
        "exact ccps",
        "skipped",
        "wall (ms)",
        "plan cost"
    );
    let mut tier_counts = [0usize; 3];
    let queries = corpus();
    let total = queries.len();
    for q in queries {
        let row = run_ingest_row(&q);
        tier_counts[match row.tier {
            PlanTier::Exact => 0,
            PlanTier::Idp => 1,
            PlanTier::Greedy => 2,
        }] += 1;
        println!(
            "{:>18} {:>5} {:>6} {:>10} {:>8} {:>12} {:>8} {:>10.3} {:>14.3e}",
            q.name,
            row.relations,
            row.edges,
            row.budget,
            row.tier.to_string(),
            row.exact_ccps,
            row.exact_skipped,
            row.wall_ms,
            row.cost
        );
    }
    println!(
        "tiers: {} exact, {} idp, {} greedy (of {total})",
        tier_counts[0], tier_counts[1], tier_counts[2]
    );
    println!();
}

/// The adaptive-driver experiment rows: one named workload spec per (budget, expected tier).
/// `ample_budget = None` means the driver's default budget. Shared by the printed experiment
/// and the baseline snapshot.
fn adaptive_rows() -> Vec<(&'static str, QuerySpec, Option<usize>)> {
    vec![
        // Small queries with ample budgets: the exact tier must win and match plain DPhyp.
        ("chain-20", chain_spec(20, SEED), None),
        ("star-20", star_spec(19, SEED), Some(5_000_000)),
        // The same star under the default budget: forced into the IDP tier.
        ("star-20", star_spec(19, SEED), None),
        // The 96-relation star (95·2^94 pairs): the driver's motivating example.
        ("star-96", huge_star_spec(SEED), None),
        // Budget 1: even IDP's smallest block does not fit — greedy is the last resort.
        ("star-96", huge_star_spec(SEED), Some(1)),
    ]
}

/// Runs one adaptive row and returns its wall time in milliseconds and its result.
fn run_adaptive_row(spec: &QuerySpec, budget: Option<usize>) -> (f64, dphyp::OptimizeResult) {
    let options = match budget {
        Some(ccp_budget) => AdaptiveOptions {
            ccp_budget,
            ..Default::default()
        },
        None => AdaptiveOptions::default(),
    };
    let driver = AdaptiveOptimizer::new(options);
    let (t, r) = time_once(|| driver.optimize_spec(spec).expect("plannable"));
    assert_eq!(
        r.plan.scan_count(),
        spec.node_count(),
        "adaptive plan must cover every relation"
    );
    (t.as_secs_f64() * 1e3, r)
}

/// A2: the adaptive optimization driver — exact under an ample budget (costs asserted
/// bit-identical to plain DPhyp), automatic IDP fallback on the over-budget stars, greedy as
/// the last resort. The star-96 row is the query PR 2 had to route to GOO by hand.
fn adaptive_tiers() {
    println!("== A2: adaptive driver (budgeted DPhyp -> IDP-k -> GOO) ==");
    println!(
        "{:>10} {:>10} {:>8} {:>12} {:>12} {:>16}",
        "workload", "budget", "tier", "exact ccps", "wall (ms)", "vs plain DPhyp"
    );
    for (name, spec, budget) in adaptive_rows() {
        let (wall_ms, r) = run_adaptive_row(&spec, budget);
        let tier = r.tier;
        let verdict = if tier == PlanTier::Exact {
            // The exact tier must be bit-identical to the unbudgeted optimizer.
            let plain = dphyp::optimize_spec(&spec).expect("plannable");
            assert_eq!(r.cost, plain.cost, "{name}: exact tier diverged from DPhyp");
            "cost identical"
        } else if r.telemetry.exact_skipped {
            "(exact skipped)"
        } else {
            "(exact infeasible)"
        };
        if name == "star-96" {
            assert_ne!(tier, PlanTier::Exact, "no exact enumeration can finish");
            assert!(
                wall_ms < 30_000.0,
                "star-96 must stay under the wall-clock ceiling, took {wall_ms:.0} ms"
            );
        }
        let budget_col = budget.map_or("default".to_string(), |b| b.to_string());
        println!(
            "{:>10} {:>10} {:>8} {:>12} {:>12.3} {:>16}",
            name,
            budget_col,
            tier.to_string(),
            r.telemetry.exact_ccps,
            wall_ms,
            verdict
        );
    }
    println!();
}

/// The 20-relation workloads used for the DP-table comparison and the baseline snapshot.
fn table_workloads() -> [Workload; 2] {
    [chain_query(20, SEED), star_query(19, SEED)]
}

/// T1: arena DP table vs the pre-refactor std-HashMap reference, same DPhyp enumerator and
/// cost model on both sides (costs, ccp counts and table sizes asserted equal inside
/// [`compare_tables`]).
fn table_comparison() {
    println!("== T1: arena DpTable vs std-HashMap reference (same DPhyp enumeration) ==");
    println!(
        "{:>10} {:>12} {:>14} {:>9} {:>12}",
        "workload", "arena (ms)", "hashmap (ms)", "speedup", "#ccp"
    );
    for w in table_workloads() {
        let cmp = compare_tables(&w.graph, &w.catalog);
        let (arena_ms, hashmap_ms) = time_tables(&w.graph, &w.catalog, BUDGET);
        println!(
            "{:>10} {:>12.3} {:>14.3} {:>8.2}x {:>12}",
            w.name,
            arena_ms,
            hashmap_ms,
            hashmap_ms / arena_ms,
            cmp.ccp_count
        );
    }
    println!();
}

/// Writes the clock-free baseline snapshot: every field is a count, a tier, a flag or a
/// deterministic derived quantity, so two runs write byte-identical files and `diff` shows what
/// a change moved. Each section runs the same checked code path as its experiment.
fn write_baseline(path: &str) {
    println!("writing baseline snapshot to {path} ...");
    let mut workloads: Vec<Json> = [
        chain_query(20, SEED),
        cycle_query(20, SEED),
        star_query(19, SEED),
        clique_query(14, SEED),
    ]
    .iter()
    .map(workload_row)
    .collect();
    // chain-96 runs on the two-word (`W = 2`) node-set width through the same `optimize` entry
    // point, so the wide path is covered too.
    workloads.push(workload_row(&wide_chain_query(96, SEED)));

    let adaptive: Vec<Json> = adaptive_rows()
        .into_iter()
        .map(|(name, spec, budget)| {
            let (_, r) = run_adaptive_row(&spec, budget);
            json_obj! {
                "name": name, "budget": budget.map_or("default".to_string(), |b| b.to_string()),
                "tier": r.tier.to_string(), "exact_ccps": r.telemetry.exact_ccps,
                "exact_skipped": r.telemetry.exact_skipped,
            }
        })
        .collect();

    let ingest: Vec<Json> = qo_workloads::corpus::corpus()
        .iter()
        .map(|q| {
            let row = run_ingest_row(q);
            json_obj! {
                "name": q.name.as_str(), "relations": row.relations, "edges": row.edges,
                "ccp_budget": row.budget, "tier": row.tier.to_string(),
                "exact_ccps": row.exact_ccps, "exact_skipped": row.exact_skipped,
            }
        })
        .collect();

    let s = run_service_rows();
    let service = json_obj! {
        "queries": s.queries, "recosts": s.recosts, "recost_fallbacks": s.recost_fallbacks,
        "hits": s.hits, "shape_hits": s.shape_hits, "misses": s.misses,
        "evictions": s.evictions, "batch_matches_sequential": s.batch_matches,
    };

    let f = run_feedback_rows(false);
    assert_feedback(&f);
    let feedback_rows: Vec<Json> = f
        .rows
        .iter()
        .map(|r| {
            json_obj! {
                "name": r.name.as_str(), "relations": r.relations, "skipped": r.skipped,
                "max_q_error": r.max_q_error, "median_q_error": r.median_q_error,
                "true_cost_before": r.true_cost_before, "true_cost_after": r.true_cost_after,
                "replanned": r.replanned, "improved": r.improved, "source": r.source.as_str(),
            }
        })
        .collect();
    let feedback = json_obj! {
        "executed": f.executed, "skipped": f.skipped, "replanned": f.replanned,
        "improved": f.improved, "max_q_error": f.max_q_error,
        "median_q_error": f.median_q_error, "true_cost_before": f.total_cost_before,
        "true_cost_after": f.total_cost_after, "per_query": feedback_rows,
    };

    // Only rate-selected exemplars: slow-armed ones fire on a latency trigger, and trace ids
    // and latencies follow from those.
    let o = run_obsv_rows(false);
    let exemplars: Vec<Json> = o
        .exemplars
        .iter()
        .filter(|ex| ex.trigger == "rate")
        .map(|ex| {
            json_obj! {
                "seq": ex.seq, "trigger": ex.trigger, "spans": ex.spans,
                "serve_spans": ex.serve_spans,
            }
        })
        .collect();
    let obsv = json_obj! {
        "queries": o.rows.len(), "noop_span_calls": o.noop_span_calls,
        "trace_bit_identical": true, "sampler_fastpath_calls": o.sampler_fastpath_calls,
        "sample_rate": 1024u32, "sampling_bit_identical": true, "total_serves": o.serves,
        "exemplars": exemplars,
    };

    let r = run_regret_rows(false);
    assert_regret(&r);
    let regret = json_obj! {
        "cycles": r.cycles, "queries": r.queries, "pins": r.pins,
        "pinned_serves": r.pinned_serves, "non_increasing": true,
        "per_cycle": r.per_cycle,
    };

    let tables: Vec<Json> = table_workloads()
        .iter()
        .map(|w| {
            let cmp = compare_tables(&w.graph, &w.catalog);
            json_obj! {
                "workload": w.name.as_str(), "ccp_count": cmp.ccp_count,
                "dp_entries": cmp.dp_entries,
            }
        })
        .collect();

    let snapshot = json_obj! {
        "schema_version": SCHEMA_VERSION, "generated_by": "reproduce --baseline", "seed": SEED,
        "workloads": workloads, "adaptive_tiers": adaptive, "ingest": ingest,
        "service": service, "feedback": feedback, "obsv": obsv, "regret": regret,
        "dp_table_comparison": tables,
    };
    let text = snapshot
        .render()
        .unwrap_or_else(|e| panic!("baseline snapshot: {e}"));
    std::fs::write(path, text).expect("baseline file is writable");
    println!("done.");
}

/// One `workloads` row of the baseline snapshot.
fn workload_row<const W: usize>(w: &Workload<W>) -> Json {
    let r = dphyp::optimize(&w.graph, &w.catalog).expect("baseline workload plannable");
    json_obj! {
        "name": w.name.as_str(), "relations": w.relations(),
        "ccp_count": r.ccp_count, "dp_entries": r.dp_entries,
    }
}

fn cycle(n: usize) -> (Box<dyn Fn(usize) -> Workload>, usize) {
    (
        Box::new(move |splits| cycle_with_hyperedge_splits(n, splits, SEED)),
        max_splits(n / 2),
    )
}

fn star(satellites: usize) -> (Box<dyn Fn(usize) -> Workload>, usize) {
    (
        Box::new(move |splits| star_with_hyperedge_splits(satellites, splits, SEED)),
        max_splits(satellites / 2),
    )
}

/// Runs one hyperedge-splitting experiment (Sec. 4.2 / 4.3) and prints a paper-style table.
///
/// `baseline_limit` is the largest split index at which DPsize/DPsub are run in quick mode
/// (`usize::MAX` = always, `0` = only at split 0); `--full` removes the limit.
fn hyperedge_split_experiment(
    title: &str,
    (make, splits_max): (Box<dyn Fn(usize) -> Workload>, usize),
    full: bool,
    baseline_limit: usize,
) {
    println!("== {title} ==");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>14}",
        "splits", "DPhyp", "DPsize", "DPsub", "#ccp (DPhyp)"
    );
    for splits in 0..=splits_max {
        let w = make(splits);
        let (t_hyp, stats) = time_once(|| run_algorithm(Algorithm::DpHyp, &w.graph, &w.catalog));
        let run_baselines = full || splits <= baseline_limit;
        let t_size = if run_baselines {
            let (t, s) = time_once(|| run_algorithm(Algorithm::DpSize, &w.graph, &w.catalog));
            assert!(
                (s.cost - stats.cost).abs() <= 1e-6 * stats.cost.max(1.0),
                "cost mismatch"
            );
            format_ms(t)
        } else {
            "(skipped)".to_string()
        };
        let t_sub = if run_baselines {
            let (t, s) = time_once(|| run_algorithm(Algorithm::DpSub, &w.graph, &w.catalog));
            assert!(
                (s.cost - stats.cost).abs() <= 1e-6 * stats.cost.max(1.0),
                "cost mismatch"
            );
            format_ms(t)
        } else {
            "(skipped)".to_string()
        };
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>14}",
            splits,
            format_ms(t_hyp),
            t_size,
            t_sub,
            stats.cost_calls
        );
    }
    println!();
}

/// Fig. 7: star queries without hyperedges, growing number of relations (log scale in the
/// paper).
fn regular_graphs(full: bool) {
    println!("== E7 / Fig 7: star queries without hyperedges (regular graphs) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "relations", "DPhyp", "DPsize", "DPsub"
    );
    for relations in 3..=16usize {
        let w = star_query(relations - 1, SEED);
        let (t_hyp, _) = time_once(|| run_algorithm(Algorithm::DpHyp, &w.graph, &w.catalog));
        // The baselines explode combinatorially on stars; cap them in quick mode like the paper
        // capped DPsub ("so slow that we excluded it").
        let baseline_cap = if full { 16 } else { 12 };
        let (t_size, t_sub) = if relations <= baseline_cap {
            let (ts, _) = time_once(|| run_algorithm(Algorithm::DpSize, &w.graph, &w.catalog));
            let (tb, _) = time_once(|| run_algorithm(Algorithm::DpSub, &w.graph, &w.catalog));
            (format_ms(ts), format_ms(tb))
        } else {
            ("(skipped)".to_string(), "(skipped)".to_string())
        };
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            relations,
            format_ms(t_hyp),
            t_size,
            t_sub
        );
    }
    println!();
}

/// Fig. 8a: star query with 16 relations, increasing number of antijoins; hypergraph encoding
/// vs TES generate-and-test.
fn antijoin_star() {
    println!("== E8 / Fig 8a: star query, 16 relations, increasing antijoins ==");
    println!(
        "{:>10} {:>18} {:>14} {:>18} {:>14}",
        "antijoins", "DPhyp hypernodes", "#ccp", "DPhyp TESs", "#ccp"
    );
    for antijoins in 0..=15usize {
        let tree = star_with_antijoins(15, antijoins, SEED);
        let (t_hyper, s_hyper) =
            time_once(|| run_tree_pipeline(&tree, ConflictEncoding::Hyperedges));
        let (t_tes, s_tes) = time_once(|| run_tree_pipeline(&tree, ConflictEncoding::TesTest));
        println!(
            "{:>10} {:>18} {:>14} {:>18} {:>14}",
            antijoins,
            format_ms(t_hyper),
            s_hyper.cost_calls,
            format_ms(t_tes),
            s_tes.cost_calls
        );
    }
    println!();
}

/// Fig. 8b: cycle query with 16 relations, increasing number of outer joins; DPhyp vs DPsize.
fn outer_join_cycle() {
    println!("== E9 / Fig 8b: cycle query, 16 relations, increasing outer joins ==");
    println!("{:>12} {:>12} {:>12}", "outer joins", "DPhyp", "DPsize");
    for outer in 0..=15usize {
        let tree = cycle_with_outer_joins(16, outer, SEED);
        let query = derive_query(&tree, ConflictEncoding::Hyperedges).expect("valid workload");
        let (t_hyp, _) =
            time_once(|| run_algorithm(Algorithm::DpHyp, &query.graph, &query.catalog));
        let (t_size, _) =
            time_once(|| run_algorithm(Algorithm::DpSize, &query.graph, &query.catalog));
        println!(
            "{:>12} {:>12} {:>12}",
            outer,
            format_ms(t_hyp),
            format_ms(t_size)
        );
    }
    println!();
}

/// Ablation: csg-cmp-pair counts per graph family (the lower bound on cost-function calls).
fn ccp_counts() {
    use qo_workloads::{chain_query, clique_query, cycle_query, Workload};
    let ccps = |w: Workload| {
        dphyp::optimize(&w.graph, &w.catalog)
            .expect("connected")
            .ccp_count
    };
    println!("== A1: csg-cmp-pair counts (lower bound on cost-function calls) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12}",
        "relations", "chain", "cycle", "star", "clique"
    );
    for n in [4usize, 8, 12, 16] {
        let chain = ccps(chain_query(n, SEED));
        let cycle = ccps(cycle_query(n, SEED));
        let star = ccps(star_query(n - 1, SEED));
        let clique = if n <= 12 {
            ccps(clique_query(n, SEED)).to_string()
        } else {
            "(skipped)".to_string()
        };
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12}",
            n, chain, cycle, star, clique
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// A bad id or a misspelled flag is an error (exit 2 with the usage), not a silent run of
    /// nothing or of everything.
    #[test]
    fn bad_arguments_are_rejected_and_the_usage_lists_every_experiment() {
        assert!(parse(&["--experiment", "bogus"])
            .unwrap_err()
            .contains("bogus"));
        assert!(parse(&["--experment", "e1"])
            .unwrap_err()
            .contains("--experment"));
        assert!(parse(&["--experiment"]).is_err());
        assert!(parse(&["e1"]).is_err());
        let usage = usage();
        for (id, _) in EXPERIMENTS {
            assert!(usage.contains(id), "{usage}");
        }
    }

    #[test]
    fn valid_arguments_parse() {
        assert_eq!(parse(&[]).unwrap(), Args::default());
        let args = parse(&["--quick", "--experiment", "obsv"]).unwrap();
        assert!(args.quick && !args.full);
        assert_eq!(args.experiment.as_deref(), Some("obsv"));
        let args = parse(&["--baseline", "--baseline-force"]).unwrap();
        assert_eq!(args.baseline.as_deref(), Some("BENCH_baseline.json"));
        assert!(args.baseline_force);
        let args = parse(&["--full", "--baseline", "out.json"]).unwrap();
        assert_eq!(args.baseline.as_deref(), Some("out.json"));
        assert!(args.full);
    }

    /// The schema guard's user-facing contract: a snapshot of a different schema generation
    /// is refused with a message naming both versions and the `--baseline-force` escape
    /// hatch, while a matching or absent snapshot passes.
    #[test]
    fn schema_guard_names_the_force_flag() {
        let dir = std::env::temp_dir();
        let path = dir.join("reproduce_schema_guard_test.json");
        let path = path.to_str().expect("temp path is valid UTF-8");

        std::fs::write(
            path,
            "{\n  \"schema_version\": 1,\n  \"workloads\": []\n}\n",
        )
        .unwrap();
        let err = check_baseline_schema(path, false).unwrap_err();
        assert!(err.contains("--baseline-force"), "{err}");
        assert!(err.contains("schema_version 1"), "{err}");
        assert!(err.contains(&SCHEMA_VERSION.to_string()), "{err}");
        assert!(check_baseline_schema(path, true).is_ok());

        std::fs::write(path, "not json at all").unwrap();
        let err = check_baseline_schema(path, false).unwrap_err();
        assert!(err.contains("--baseline-force"), "{err}");

        std::fs::write(
            path,
            format!("{{\n  \"schema_version\": {SCHEMA_VERSION}\n}}\n"),
        )
        .unwrap();
        assert!(check_baseline_schema(path, false).is_ok());

        std::fs::remove_file(path).unwrap();
        assert!(check_baseline_schema(path, false).is_ok());
    }
}
