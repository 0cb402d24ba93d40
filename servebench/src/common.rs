//! What the three workloads share: the corpus with its synthetic databases, the measurement
//! context every public call is timed through, and the counters read off a `Service`.

use crate::stats::{derive, geometric_mean, QuietLatency};
use crate::trace::{Harvest, SpanTotals};
use dphyp::{Hypergraph, PlanNode, QuerySpec};
use qo_exec::{execute_plan_observed, scaled_table_sizes, Database, ObservedExecution};
use qo_ingest::IngestQuery;
use qo_service::{PlanSource, ServedPlan, Service};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic tables are log2-scaled from the declared cardinalities and capped at this many
/// rows, so a nested-loop execution of any corpus plan stays well under a millisecond.
pub const TABLE_CAP: usize = 6;
/// An execution whose intermediate result exceeds this many rows is abandoned.
pub const ROW_LIMIT: usize = 100_000;
/// Versions of each query's database. One six-row table set makes a plan's executed C_out
/// hinge on a few key collisions, so executed costs are averaged over the versions, and
/// `drift_feedback` moves to the next version every round, as live data changes.
pub const DB_VERSIONS: usize = 32;

/// Latencies kept per serve key for its quiet latency.
const QUIET_SAMPLE: usize = 1024;
/// A serve key's quiet latency is this quantile of its latencies.
pub const QUIET_QUANTILE: f64 = 0.05;

/// What a serve did: the workload's index of the call (a query, or a query and call site) and
/// the path that answered it, as a [`PlanSource`] discriminant. Serves with one key do the same
/// work.
pub type ServeKey = (usize, u8);

impl Default for QuietLatency<ServeKey> {
    fn default() -> Self {
        QuietLatency::new(QUIET_SAMPLE, QUIET_QUANTILE)
    }
}

/// The named random streams of a run; each derives from the command-line seed only.
pub mod stream {
    pub const DATABASE: u64 = 1;
    pub const ORDER: u64 = 2;
    pub const SYNTHETIC: u64 = 3;
    pub const ZIPF: u64 = 4;
    pub const RANKING: u64 = 5;
    pub const DRIFT: u64 = 6;
    pub const SHIFT: u64 = 7;
}

/// A query's hypergraph at the width its relation count needs, for execution.
pub enum Graph {
    Narrow(Hypergraph<1>),
    Wide(Hypergraph<2>),
}

impl Graph {
    pub fn of(spec: &QuerySpec) -> Graph {
        if spec.node_count() <= 64 {
            Graph::Narrow(spec.instantiate::<1>().0)
        } else {
            Graph::Wide(spec.instantiate::<2>().0)
        }
    }

    pub fn execute(&self, plan: &PlanNode, db: &Database) -> Option<ObservedExecution> {
        match self {
            Graph::Narrow(g) => execute_plan_observed(plan, g, db, ROW_LIMIT),
            Graph::Wide(g) => execute_plan_observed(plan, g, db, ROW_LIMIT),
        }
    }
}

/// One embedded corpus file: its text, the lowered query, and the versions of the synthetic
/// database its plans execute on.
pub struct CorpusQuery {
    pub source: &'static str,
    pub query: IngestQuery,
    pub graph: Graph,
    pub dbs: Vec<Database>,
}

impl CorpusQuery {
    /// The executed C_out of `plan` on every database version; a version on which the plan
    /// exceeds the row limit is left out.
    pub fn true_costs(&self, plan: &PlanNode) -> Vec<f64> {
        self.dbs
            .iter()
            .filter_map(|db| self.graph.execute(plan, db))
            .map(|e| e.true_cost())
            .collect()
    }
}

/// Parses the 36 embedded `.jg` files and builds each query's database versions from the
/// seed, the query's index and the version.
pub fn load_corpus(seed: u64) -> Vec<CorpusQuery> {
    qo_workloads::CORPUS
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let query = qo_ingest::parse_queries(entry.source)
                .unwrap_or_else(|e| {
                    panic!("corpus file {} does not parse: {}", entry.name, e.message)
                })
                .remove(0);
            let n = query.relation_count();
            let cards: Vec<f64> = (0..n).map(|r| query.spec.cardinality(r)).collect();
            let sizes = scaled_table_sizes(&cards, &query.row_overrides, TABLE_CAP);
            let dbs = (0..DB_VERSIONS)
                .map(|v| {
                    let index = (i * DB_VERSIONS + v) as u64;
                    Database::generate(&sizes, derive(seed, stream::DATABASE, index))
                })
                .collect();
            CorpusQuery {
                source: entry.source,
                graph: Graph::of(&query.spec),
                query,
                dbs,
            }
        })
        .collect()
}

/// Does `plan` scan every relation of an `n`-relation query exactly once?
pub fn covers(plan: &PlanNode, n: usize) -> bool {
    plan.relation_ids().into_iter().eq(0..n)
}

/// The geometric mean over queries of each query's geometric mean, so every query weighs the
/// same however often it was served. Values are floored at 1.
pub fn per_query_gmean(values: &[Vec<f64>]) -> f64 {
    let per_query: Vec<f64> = values
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| {
            let floored: Vec<f64> = v.iter().map(|x| x.max(1.0)).collect();
            geometric_mean(&floored).unwrap_or(f64::NAN)
        })
        .collect();
    geometric_mean(&per_query).unwrap_or(f64::NAN)
}

/// Counters read off a service: plan-cache outcomes, optimizer tiers, sampler admissions and
/// the regret ledger.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounts {
    pub hits: u64,
    pub shape_hits: u64,
    pub recost_fallbacks: u64,
    pub misses: u64,
    pub evictions: u64,
    pub plans_exact: u64,
    pub plans_idp: u64,
    pub plans_greedy: u64,
    pub exact_ccps: u64,
    pub sampler_serves: u64,
    pub sampled: u64,
    pub regret: f64,
}

impl ServiceCounts {
    pub fn read(service: &Service) -> ServiceCounts {
        let cache = service.cache_stats();
        let metrics = service.metrics_snapshot();
        let counter = |name| metrics.counter(name).unwrap_or(0);
        let sampler = service.sampler().stats();
        ServiceCounts {
            hits: cache.hits,
            shape_hits: cache.shape_hits,
            recost_fallbacks: cache.recost_fallbacks,
            misses: cache.misses,
            evictions: cache.evictions,
            plans_exact: counter("qo_optimizer_plans_exact_total"),
            plans_idp: counter("qo_optimizer_plans_idp_total"),
            plans_greedy: counter("qo_optimizer_plans_greedy_total"),
            exact_ccps: counter("qo_optimizer_exact_ccps_total"),
            sampler_serves: sampler.serves,
            sampled: sampler.sampled,
            regret: service.regret_ledger().total_regret(),
        }
    }

    /// Adds `after − before` to these counts.
    pub fn add_delta(&mut self, after: ServiceCounts, before: ServiceCounts) {
        self.hits += after.hits - before.hits;
        self.shape_hits += after.shape_hits - before.shape_hits;
        self.recost_fallbacks += after.recost_fallbacks - before.recost_fallbacks;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.plans_exact += after.plans_exact - before.plans_exact;
        self.plans_idp += after.plans_idp - before.plans_idp;
        self.plans_greedy += after.plans_greedy - before.plans_greedy;
        self.exact_ccps += after.exact_ccps - before.exact_ccps;
        self.sampler_serves += after.sampler_serves - before.sampler_serves;
        self.sampled += after.sampled - before.sampled;
        self.regret += after.regret - before.regret;
    }
}

/// Everything a run measures. Each public call goes through [`Ctx::call`], which times it
/// from outside, catches a panic at the call, and — in a traced block — harvests the spans
/// the program emits during it.
#[derive(Default)]
pub struct Ctx {
    /// Whether the current block is traced.
    pub traced: bool,
    /// Whether the run reports the per-layer metrics, which read every untraced latency.
    pub layer_run: bool,
    harvest: Arc<Harvest>,
    pub spans: SpanTotals,
    /// Latency of every `Service::plan_*` call in untraced blocks, by serve key, µs.
    pub quiet: QuietLatency<ServeKey>,
    /// The same, every one, in a per-layer run.
    pub serve_us: Vec<f64>,
    /// The same in traced blocks.
    pub traced_serve_us: Vec<f64>,
    /// Traced serves that parsed or canonicalized: the call's `parse` + `lower` and
    /// `canonicalize` self time, by serve key, ns.
    pub parse_lower_ns: QuietLatency<ServeKey>,
    pub canonicalize_ns: QuietLatency<ServeKey>,
    /// Traced blocks only: serves, serves answered from a pinned order, and service counters.
    pub traced_serves: u64,
    pub pinned: u64,
    pub counts: ServiceCounts,
    /// Traced blocks only: `execute_plan_observed` and `observe_execution` latencies, µs, and
    /// executions abandoned at the row limit.
    pub execute_us: Vec<f64>,
    pub observe_us: Vec<f64>,
    pub row_limit_bursts: u64,
    /// Operations attempted and failed, by block kind.
    pub ops: u64,
    pub traced_ops: u64,
    pub failed: u64,
    op_failed: bool,
    pub failures: Vec<String>,
}

impl Ctx {
    /// Runs `f` under the clock (and, in a traced block, the span harvest), catching a panic.
    /// Returns the result and the elapsed microseconds.
    pub fn call<T, E: Display>(
        &mut self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> (Result<T, String>, f64) {
        let harvest = self.harvest.clone();
        let traced = self.traced;
        let start = Instant::now();
        let outcome = if traced {
            harvest.traced(&mut self.spans, || catch_unwind(AssertUnwindSafe(f)))
        } else {
            catch_unwind(AssertUnwindSafe(f))
        };
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        let result = match outcome {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(match panic.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => match panic.downcast_ref::<&str>() {
                    Some(s) => format!("panic: {s}"),
                    None => "panic".to_string(),
                },
            }),
        };
        (result, us)
    }

    /// One `Service::plan_*` call: timed, recorded as a serve sample under `key` (see
    /// [`ServeKey`]), and checked to cover every relation of its `n`-relation query.
    pub fn serve<E: Display>(
        &mut self,
        what: &str,
        key: usize,
        n: usize,
        f: impl FnOnce() -> Result<ServedPlan, E>,
    ) -> Option<ServedPlan> {
        let (result, us) = self.call(f);
        let served = match result {
            Ok(s) => s,
            Err(e) => return self.fail(format!("{what}: {e}")),
        };
        self.record_serve(&served, key, us);
        if !covers(&served.plan, n) {
            return self.fail(format!("{what}: plan does not cover all {n} relations"));
        }
        Some(served)
    }

    /// Records one answered serve's latency and source; `key` is the workload's index of the
    /// call.
    pub fn record_serve(&mut self, served: &ServedPlan, key: usize, us: f64) {
        if self.traced {
            self.traced_serve_us.push(us);
            self.traced_serves += 1;
            if served.source == PlanSource::Pinned {
                self.pinned += 1;
            }
            let key = (key, served.source as u8);
            let (parse_lower, canonicalize) = self.spans.last_call_ns;
            if parse_lower > 0.0 {
                self.parse_lower_ns.push(key, parse_lower);
            }
            if canonicalize > 0.0 {
                self.canonicalize_ns.push(key, canonicalize);
            }
        } else {
            self.quiet.push((key, served.source as u8), us);
            if self.layer_run {
                self.serve_us.push(us);
            }
        }
    }

    /// Marks the current operation failed; keeps the first few reasons.
    pub fn fail<T>(&mut self, reason: String) -> Option<T> {
        self.op_failed = true;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
        None
    }

    /// Closes one operation (a serve, or a feedback cycle).
    pub fn end_op(&mut self) {
        if self.traced {
            self.traced_ops += 1;
        } else {
            self.ops += 1;
        }
        if std::mem::take(&mut self.op_failed) {
            self.failed += 1;
        }
    }
}
