//! Closed-loop serving benchmark of the optimizer stack.
//!
//! ```text
//! servebench --workload <cold_mix|warm_zipf|drift_feedback|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread calls the public entry points of `qo-service` (plus `qo-ingest`,
//! `qo-exec` and `qo-obsv`) and waits for each answer, as a database session does. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced blocks and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and `metrics`. See README.md
//! for the workloads and for which end-to-end metric each layer metric should move.

mod cold;
mod common;
mod drift;
mod reference;
mod stats;
mod trace;
mod warm;

use common::{Ctx, ServeKey, QUIET_QUANTILE};
use qo_service::PlanSource;
use stats::QuietLatency;
use stats::{percentile, Percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["cold_mix", "warm_zipf", "drift_feedback"];
/// Set-up runs this many times in an end-to-end run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// A p99 needs ten samples beyond it, so a run (and each half of a traced run) holds at least
/// this many serves.
const MIN_SERVES: usize = 1000;
/// However few serves it has, a run stops measuring after this many times `--seconds`.
const MAX_STRETCH: u32 = 4;

/// One workload: set up once, then run block after block until the time is spent.
pub trait Workload {
    /// Untimed work between blocks, such as restarting a service.
    fn refresh(&mut self) {}
    /// Runs one block of operations: a pass, a round, or a batch of serves.
    fn block(&mut self, ctx: &mut Ctx, block: u64);
    /// Whether an operation is one serve. If it is not, `ops_per_s` is measured per block.
    fn op_is_serve(&self) -> bool {
        true
    }
    /// Geometric mean of the modeled cost of the served corpus plans, each query weighing
    /// the same.
    fn plan_cost_gmean(&self) -> f64;
    /// Geometric mean of the executed C_out of the served corpus plans, each query weighing
    /// the same.
    fn true_cost_gmean(&self) -> f64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "cold_mix" => Box::new(cold::ColdMix::setup(seed)),
        "warm_zipf" => Box::new(warm::WarmZipf::setup(seed)),
        "drift_feedback" => Box::new(drift::DriftFeedback::setup(seed)),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// What a run measured besides the context's own records.
struct Run {
    /// Operations per second of each untraced block.
    block_rates: Vec<f64>,
    /// Latencies of the host-speed reference, µs.
    reference_us: Vec<f64>,
    traced_blocks: u64,
}

/// Runs blocks until `seconds` of them have been measured and there are enough serves; in a
/// traced run every second block is traced. Time spent between blocks, which includes the
/// host-speed reference, is not measured.
fn measure(w: &mut dyn Workload, ctx: &mut Ctx, args: &Args) -> Run {
    let (seconds, trace) = (args.seconds, args.trace);
    let target = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut measured = Duration::ZERO;
    let mut reference = reference::Reference::new();
    let mut since_reference = reference::EVERY;
    let mut run = Run {
        block_rates: Vec::new(),
        reference_us: Vec::new(),
        traced_blocks: 0,
    };
    for block in 0.. {
        w.refresh();
        ctx.traced = trace && block % 2 == 1;
        let ops = ctx.ops;
        let t = Instant::now();
        w.block(ctx, block);
        let took = t.elapsed();
        measured += took;
        if ctx.traced {
            run.traced_blocks += 1;
        } else {
            run.block_rates
                .push((ctx.ops - ops) as f64 / took.as_secs_f64());
        }
        since_reference += took;
        if since_reference >= reference::EVERY {
            run.reference_us.push(reference.time());
            since_reference = Duration::ZERO;
        }
        let enough = if trace {
            block % 2 == 1
                && ctx.serve_us.len() >= MIN_SERVES
                && ctx.traced_serve_us.len() >= MIN_SERVES
        } else {
            ctx.quiet.calls() >= MIN_SERVES
        };
        if (measured >= target && enough) || start.elapsed() >= target * MAX_STRETCH {
            break;
        }
    }
    ctx.traced = false;
    run
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |p| p.value)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// The percentile's sample count, for latency metrics.
    samples: Option<Percentile>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// How much faster than nominal the host ran the reference in this run: as its quiet
/// quantile, to scale figures read off quiet calls, and as its median, to scale figures
/// read off whole blocks or set-ups.
struct HostScale {
    quiet: f64,
    median: f64,
}

impl HostScale {
    fn of(reference_us: &[f64]) -> HostScale {
        let scale =
            |q| percentile(reference_us, q).map_or(f64::NAN, |p| reference::NOMINAL_US / p.value);
        HostScale {
            quiet: scale(QUIET_QUANTILE),
            median: scale(0.5),
        }
    }
}

fn end_to_end(w: &dyn Workload, ctx: &Ctx, run: &Run, setup_s: f64) -> Vec<Metric> {
    // Each serve counts at the quiet latency of its key (see `QuietLatency`), so other tenants
    // of the host, which slow calls down for seconds at a time, move these figures little;
    // the host-speed reference takes out what is left of a run that was slow throughout.
    let scale = HostScale::of(&run.reference_us);
    let p50 = ctx.quiet.percentile(0.5);
    let p99 = ctx.quiet.percentile(0.99);
    // A closed loop of one client completes one serve per mean serve latency. An operation
    // that is more than a serve is timed whole, per block, and the median block read off.
    let ops_per_s = if w.op_is_serve() {
        ctx.quiet
            .mean()
            .map_or(f64::NAN, |us| 1e6 / (us * scale.quiet))
    } else {
        percentile(&run.block_rates, 0.5).map_or(f64::NAN, |p| p.value / scale.median)
    };
    vec![
        Metric {
            name: "serve_p50_us",
            value: p50.map_or(f64::NAN, |p| p.value * scale.quiet),
            unit: "us",
            samples: p50,
        },
        Metric {
            name: "serve_p99_us",
            value: p99.map_or(f64::NAN, |p| p.value * scale.quiet),
            unit: "us",
            samples: p99,
        },
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("plan_cost_gmean", w.plan_cost_gmean(), "cost"),
        metric("true_cost_gmean", w.true_cost_gmean(), "rows"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", setup_s * scale.median, "s"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(ctx: &Ctx, run: &Run) -> Vec<Metric> {
    // Timings read off quiet calls are scaled as the end-to-end latencies are, and medians
    // as set-up is, so a layer and `serve_p50_us` read on the same host scale.
    let scale = HostScale::of(&run.reference_us);
    let quiet_us = |calls: &QuietLatency<ServeKey>, unit_us: f64| {
        calls
            .percentile(0.5)
            .map_or(0.0, |p| p.value * unit_us * scale.quiet)
    };
    let us = |ns: &[f64]| median(ns) / 1e3 * scale.median;
    let c = &ctx.counts;
    let traced_blocks = run.traced_blocks as f64;
    let parse_lower = quiet_us(&ctx.parse_lower_ns, 1e-3);
    let canonicalize = quiet_us(&ctx.canonicalize_ns, 1e-3);
    // The serve shell of a hit is what its latency leaves after parse and canonicalize.
    let is_hit = |key: &ServeKey| key.1 == PlanSource::CacheHit as u8;
    let hits = ctx.quiet.select(is_hit);
    let hit = quiet_us(&hits, 1.0);
    let shell = if hits.calls() == 0 {
        0.0
    } else {
        hit - quiet_us(&ctx.parse_lower_ns.select(is_hit), 1e-3)
            - quiet_us(&ctx.canonicalize_ns.select(is_hit), 1e-3)
    };
    let lookups = (c.hits + c.shape_hits + c.recost_fallbacks + c.misses) as f64;
    let plans = (c.plans_exact + c.plans_idp + c.plans_greedy) as f64;
    let per_block_ms = |ns: u64| ratio(ns as f64 / 1e6, traced_blocks) * scale.median;
    let untraced_p50 = median(&ctx.serve_us);
    let traced_p50 = median(&ctx.traced_serve_us);
    vec![
        metric("ingest.parse_lower_us", parse_lower, "us"),
        metric("canon.canonicalize_us", canonicalize, "us"),
        metric("service.hit_us", hit, "us"),
        metric("service.shell_us", shell, "us"),
        metric("cache.hit_ratio", ratio(c.hits as f64, lookups), "ratio"),
        metric(
            "cache.recost_accept_ratio",
            ratio(
                c.shape_hits as f64,
                (c.shape_hits + c.recost_fallbacks) as f64,
            ),
            "ratio",
        ),
        metric(
            "cache.evictions",
            ratio(c.evictions as f64, ctx.traced_ops as f64),
            "1/op",
        ),
        metric(
            "adaptive.enumerate_ms",
            per_block_ms(ctx.spans.enumerate_ns),
            "ms",
        ),
        metric("adaptive.idp_ms", per_block_ms(ctx.spans.idp_ns), "ms"),
        metric(
            "adaptive.greedy_ms",
            per_block_ms(ctx.spans.greedy_ns),
            "ms",
        ),
        metric(
            "adaptive.exact_ccps",
            ratio(c.exact_ccps as f64, traced_blocks),
            "count",
        ),
        metric(
            "adaptive.wasted_ccp_share",
            ratio(ctx.spans.wasted_ccps as f64, ctx.spans.exact_ccps as f64),
            "ratio",
        ),
        metric(
            "adaptive.tier_idp_share",
            ratio(c.plans_idp as f64, plans),
            "ratio",
        ),
        metric("recost.recost_us", us(&ctx.spans.recost_ns), "us"),
        metric(
            "exec.execute_us",
            median(&ctx.execute_us) * scale.median,
            "us",
        ),
        metric(
            "exec.row_limit_bursts",
            ctx.row_limit_bursts as f64,
            "count",
        ),
        metric(
            "regret.observe_us",
            median(&ctx.observe_us) * scale.median,
            "us",
        ),
        metric(
            "regret.pinned_share",
            ratio(ctx.pinned as f64, ctx.traced_serves as f64),
            "ratio",
        ),
        metric(
            "regret.total",
            ratio(c.regret, ctx.traced_ops as f64),
            "rows/op",
        ),
        metric(
            "obsv.sampled_share",
            ratio(c.sampled as f64, c.sampler_serves as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(traced_p50 - untraced_p50, untraced_p50),
            "%",
        ),
    ]
}

fn run_one(args: &Args) -> ExitCode {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup(&args.workload, args.seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let mut ctx = Ctx::default();
    ctx.layer_run = args.trace;
    let run = measure(workload.as_mut(), &mut ctx, args);
    let metrics = if args.trace {
        per_layer(&ctx, &run)
    } else {
        end_to_end(workload.as_ref(), &ctx, &run, median(&setup_times))
    };

    let attempted = ctx.ops + ctx.traced_ops;
    let error_rate = ratio(ctx.failed as f64, attempted as f64);
    let correct = ctx.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());

    println!(
        "servebench {} seed={} trace={} nproc={nproc} profile={profile} commit={}",
        args.workload,
        args.seed,
        args.trace as u8,
        git_commit()
    );
    println!(
        "operations {attempted} ({} untraced, {} traced), failed {}, error_rate {error_rate}",
        ctx.ops, ctx.traced_ops, ctx.failed
    );
    for reason in &ctx.failures {
        println!("  failure: {reason}");
    }
    for m in &metrics {
        match m.samples {
            Some(p) => println!(
                "{:<28} {:>16.4} {:<8} samples {} beyond {}",
                m.name, m.value, m.unit, p.samples, p.beyond
            ),
            None => println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    let samples: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            m.samples.map(|p| {
                format!(
                    "\"{}\": {{\"samples\": {}, \"beyond\": {}}}",
                    m.name, p.samples, p.beyond
                )
            })
        })
        .collect();
    let host = HostScale::of(&run.reference_us);
    let setup_list: Vec<String> = setup_times.iter().map(|t| json_number(*t)).collect();
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"commit\": \"{}\", \"operations\": {attempted}, \
         \"error_rate\": {}, \"setup_runs_s\": [{}], \"blocks\": {}, \"serve_keys\": {}, \
         \"serves\": {}, \"percentile_samples\": {{{}}}, \"reference_runs\": {}, \
         \"host_scale\": {{\"quiet\": {}, \"median\": {}}}}}}}",
        args.workload,
        args.seed,
        args.trace as u8,
        git_commit(),
        json_number(error_rate),
        setup_list.join(", "),
        run.block_rates.len() as u64 + run.traced_blocks,
        ctx.quiet.keys(),
        ctx.quiet.calls() + ctx.traced_serve_us.len(),
        samples.join(", "),
        run.reference_us.len(),
        json_number(host.quiet),
        json_number(host.median),
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

/// Runs each workload in a process of its own (so `peak_rss_mb` is that workload's), echoes
/// its report, and ends with one JSON line holding each workload's result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut results = Vec::new();
    for name in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("servebench: {name} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("servebench: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let Some(last) = lines.pop() else {
            eprintln!("servebench: {name} printed nothing");
            return ExitCode::FAILURE;
        };
        for line in lines {
            println!("{line}");
        }
        println!();
        let field = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .map(str::trim)
        };
        correct &= field("correct") == Some("true");
        attempted += field("attempted")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        failed += field("failed")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        results.push(format!("\"{name}\": {last}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    ExitCode::SUCCESS
}
