//! The serve flight recorder: a bounded ring of structured [`ServeRecord`]s — one per
//! serve, always on — for post-mortem debugging.
//!
//! Where the metrics registry aggregates (counters, histograms) and the sampling sink keeps
//! a handful of full span trees, the flight recorder sits in between: it remembers *which*
//! recent serves happened, in order, with enough per-serve structure (fingerprint, cache
//! path, tier, latency, modeled cost, the re-cost decision of a drift serve, the budget
//! telemetry of a full optimization, execution feedback when observed, sampled trace id) to
//! reconstruct an incident after the fact: a slow miss shows how many csg-cmp-pairs the exact
//! tier spent against its budget, whether the lower bound skipped it, and IDP's block size.
//! Recording is one short `Mutex`-guarded ring push per serve — microseconds-scale serves
//! dominate it by orders of magnitude — and the ring is bounded, so an unattended service
//! never grows.

use crate::fingerprint::Fingerprint;
use crate::lock_recovering;
use crate::service::PlanSource;
use dphyp::{BudgetTelemetry, ExecutionFeedback, PlanTier};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The inputs of a drift serve's re-cost decision: the donor's plan re-costed under the
/// request's statistics is served while `recost_cost ≤ greedy_cost`; otherwise the service
/// re-optimizes in full.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecostDecision {
    /// Statistics distance from the donor variant to the request
    /// ([`dphyp::QuerySpec::stats_distance`]).
    pub distance: f64,
    /// Cost of the donor's plan re-costed under the request's statistics; `None` when the
    /// plan did not fit the request.
    pub recost_cost: Option<f64>,
    /// Cost of the greedy probe's plan; `None` when no greedy plan exists.
    pub greedy_cost: Option<f64>,
}

/// One serve, as the flight recorder remembers it.
#[derive(Clone, Copy, Debug)]
pub struct ServeRecord {
    /// The serve's sequence number (shared with the sampler's [`qo_obsv::SampledTrace`]).
    pub seq: u64,
    /// The served query's fingerprint (shape / stats).
    pub fingerprint: Fingerprint,
    /// The adaptive tier that produced the join order.
    pub tier: PlanTier,
    /// Which serving path answered (hit / re-cost / miss / re-cost fallback).
    pub source: PlanSource,
    /// Serve latency in nanoseconds: the serve's one clock, from sampler admission (after
    /// canonicalization) to the cache path's answer. Regret pinning and flight recording
    /// are excluded. The same reading feeds the `qo_serve_*_ns` histograms.
    pub latency_ns: u64,
    /// The served plan's modeled cost.
    pub cost: f64,
    /// The re-cost decision, on [`PlanSource::Recost`] and [`PlanSource::RecostFallback`]
    /// serves; `None` on hits, misses and pins.
    pub decision: Option<RecostDecision>,
    /// The full optimization's budget telemetry, on [`PlanSource::Miss`] and
    /// [`PlanSource::RecostFallback`] serves; `None` on hits, accepted re-costs and pins.
    pub optimization: Option<BudgetTelemetry>,
    /// The plan's true cost, once [`Service::observe_execution`](crate::Service) reported
    /// it. `None` until (unless) the caller executes the plan instrumented.
    pub true_cost: Option<f64>,
    /// Largest per-join q-error of the observed execution, when observed.
    pub max_q_error: Option<f64>,
    /// Id of the sampled trace covering this serve, when the sampler selected it.
    pub trace_id: Option<u64>,
}

/// A bounded, thread-safe ring of the most recent [`ServeRecord`]s.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<ServeRecord>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` serves (zero is bumped to 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring, taken as-is even after a panic under its lock (every record is written whole).
    fn lock(&self) -> MutexGuard<'_, VecDeque<ServeRecord>> {
        lock_recovering(&self.ring, |_| {})
    }

    /// Appends one serve, evicting the oldest record when full.
    pub(crate) fn record(&self, record: ServeRecord) {
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Attaches execution feedback to the retained record of serve `seq` (a no-op when the
    /// record has already been evicted). Returns whether a record was annotated.
    pub(crate) fn annotate(&self, seq: u64, feedback: &ExecutionFeedback) -> bool {
        let mut ring = self.lock();
        // Newest-first: feedback almost always concerns a very recent serve.
        for r in ring.iter_mut().rev() {
            if r.seq == seq {
                r.true_cost = Some(feedback.true_cost);
                r.max_q_error = Some(feedback.max_q_error);
                return true;
            }
        }
        false
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<ServeRecord> {
        self.lock().iter().copied().collect()
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<ServeRecord> {
        self.lock().back().copied()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the retained records as a fixed-width text table, oldest first — the
    /// post-mortem view. Serves without a re-cost decision show `-` in the `distance`,
    /// `recost_cost` and `greedy_cost` columns, as does a decision half that is `None`;
    /// serves without a full optimization show `-` in the `exact_ccps` (pairs spent / pair
    /// budget), `skipped` (the lower bound skipped the exact tier) and `idp_k` columns;
    /// unobserved serves show `-` in the execution columns; untraced serves show `-` for the
    /// trace id.
    pub fn dump(&self) -> String {
        let records = self.records();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} serve(s) retained, {} evicted",
            records.len(),
            self.dropped()
        );
        let _ = writeln!(
            out,
            "{:>6}  {:<33}  {:<6}  {:<15}  {:>12}  {:>14}  {:>8}  {:>14}  {:>14}  {:>15}  {:>7}  {:>5}  {:>14}  {:>8}  {:>5}",
            "seq",
            "fingerprint",
            "tier",
            "source",
            "latency_ns",
            "cost",
            "distance",
            "recost_cost",
            "greedy_cost",
            "exact_ccps",
            "skipped",
            "idp_k",
            "true_cost",
            "max_q",
            "trace"
        );
        let cost = |c: Option<f64>| c.map_or_else(|| "-".to_owned(), |c| format!("{c:.1}"));
        for r in &records {
            let distance = r
                .decision
                .map_or_else(|| "-".to_owned(), |d| format!("{:.3}", d.distance));
            let recost_cost = cost(r.decision.and_then(|d| d.recost_cost));
            let greedy_cost = cost(r.decision.and_then(|d| d.greedy_cost));
            let (exact_ccps, skipped, idp_k) = r.optimization.map_or_else(
                || ("-".to_owned(), "-".to_owned(), "-".to_owned()),
                |t| {
                    (
                        format!("{}/{}", t.exact_ccps, t.ccp_budget),
                        t.exact_skipped.to_string(),
                        t.idp_k.to_string(),
                    )
                },
            );
            let true_cost = cost(r.true_cost);
            let max_q = r
                .max_q_error
                .map_or_else(|| "-".to_owned(), |q| format!("{q:.2}"));
            let trace = r
                .trace_id
                .map_or_else(|| "-".to_owned(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{:>6}  {:<33}  {:<6}  {:<15}  {:>12}  {:>14.1}  {:>8}  {:>14}  {:>14}  {:>15}  {:>7}  {:>5}  {:>14}  {:>8}  {:>5}",
                r.seq,
                r.fingerprint,
                r.tier,
                r.source,
                r.latency_ns,
                r.cost,
                distance,
                recost_cost,
                greedy_cost,
                exact_ccps,
                skipped,
                idp_k,
                true_cost,
                max_q,
                trace
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> ServeRecord {
        ServeRecord {
            seq,
            fingerprint: Fingerprint {
                shape: 0xABC,
                stats: 0xDEF,
            },
            tier: PlanTier::Exact,
            source: PlanSource::Miss,
            latency_ns: 1000 + seq,
            cost: 42.5,
            decision: None,
            optimization: None,
            true_cost: None,
            max_q_error: None,
            trace_id: seq.is_multiple_of(2).then_some(seq + 1),
        }
    }

    #[test]
    fn ring_is_bounded_fifo_with_eviction_accounting() {
        let fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for seq in 0..5 {
            fr.record(record(seq));
        }
        let records = fr.records();
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.last().unwrap().seq, 4);
        assert_eq!(fr.len(), 3);
    }

    #[test]
    fn annotate_fills_execution_columns_and_tolerates_evicted_seqs() {
        let fr = FlightRecorder::new(2);
        fr.record(record(0));
        fr.record(record(1));
        let feedback = ExecutionFeedback {
            true_cost: 99.0,
            max_q_error: 3.5,
            median_q_error: 1.2,
        };
        assert!(fr.annotate(1, &feedback));
        let r = fr.last().unwrap();
        assert_eq!(r.true_cost, Some(99.0));
        assert_eq!(r.max_q_error, Some(3.5));
        fr.record(record(2)); // evicts seq 0
        assert!(
            !fr.annotate(0, &feedback),
            "evicted serves annotate nothing"
        );
    }

    #[test]
    fn dump_renders_every_record_with_placeholders() {
        let fr = FlightRecorder::new(4);
        fr.record(record(0));
        fr.record(record(1));
        fr.annotate(
            0,
            &ExecutionFeedback {
                true_cost: 7.0,
                max_q_error: 2.0,
                median_q_error: 1.5,
            },
        );
        let dump = fr.dump();
        assert!(dump.contains("2 serve(s) retained, 0 evicted"));
        assert!(dump.contains("0000000000000abc/0000000000000def"));
        assert!(dump.contains("7.0"), "observed true cost rendered:\n{dump}");
        assert!(dump.contains("2.00"), "observed q-error rendered:\n{dump}");
        // Serve 1 is unobserved and untraced: placeholder columns.
        let line1 = dump.lines().last().unwrap();
        assert!(line1.contains(" - "), "placeholders rendered:\n{dump}");
    }
}
