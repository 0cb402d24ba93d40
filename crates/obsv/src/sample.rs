//! Always-on sampled tracing: [`SamplingSink`] decides *per serve* whether the span layer
//! records anything, so a production service can leave observability enabled permanently.
//!
//! The design center — like [`Span::enter`](crate::Span::enter)'s inert path — is the
//! *unsampled* serve: [`SamplingSink::begin_serve`] is one relaxed `fetch_add`, a modulo,
//! and one relaxed load; no lock is taken, nothing allocates, and no sink is installed, so
//! every span inside the serve stays on the inert thread-local-check path. Only the decided
//! 1-in-N serves (plus serves following a detected slow one) pay for a fresh
//! [`RecordingSink`].
//!
//! Two triggers select a serve for tracing:
//!
//! 1. **Rate sampling** — every `sample_rate`-th serve (the very first serve counts, so a
//!    fresh service produces an exemplar immediately). `sample_rate = 0` disables rate
//!    sampling.
//! 2. **Slow-serve arming** — [`SamplingSink::finish_serve`] maintains an integer EWMA of
//!    serve latency; a serve slower than `SLOW_FACTOR` (4) × the EWMA (after `warmup` serves)
//!    *arms* the sampler, and the next serve is traced whatever the counter says. The slow
//!    serve itself cannot be traced retroactively — tracing it would require paying for a
//!    sink on every serve, which is exactly what sampling avoids — but slow serves repeat
//!    (cache-miss storms, stats-drift re-optimizations), and the armed trace catches the
//!    repetition while the flight recorder pins the triggering serve's identity.
//!
//! A sampled serve's sink *tees* into any ambient [`ObsvSink`] already installed on the
//! thread ([`TeeSink`]), so callers running under `with_sink` keep seeing the full stream
//! while the sampler captures its private copy. Harvested traces land in a bounded,
//! deterministic reservoir of [`SampledTrace`] exemplars (xorshift replacement — no
//! dependency on ambient randomness), with slow-armed traces retained in their own ring so
//! a burst of routine samples can never evict the interesting ones.

use crate::span::{current_sink, install_sink, ObsvSink, RecordingSink, SinkGuard, Trace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity of the rate-sampled exemplar reservoir (deterministic replacement once full), and
/// of the slow-armed ring.
const RESERVOIR: usize = 16;

/// A serve is *slow* when its latency exceeds `SLOW_FACTOR ×` the EWMA latency; the next
/// serve is then traced regardless of the rate counter.
const SLOW_FACTOR: f64 = 4.0;

/// Per-sampled-serve [`RecordingSink`] ring capacity (spans and events each).
const TRACE_CAPACITY: usize = 512;

/// Configuration of a [`SamplingSink`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplerOptions {
    /// Trace one in this many serves (the first serve is always sampled). `0` disables rate
    /// sampling; slow-serve arming still works.
    pub sample_rate: u64,
    /// Serves observed before slow detection starts (the EWMA needs to settle first).
    pub warmup: u64,
}

impl Default for SamplerOptions {
    /// 1-in-1024 rate sampling with slow detection after 32 serves. With 16-trace exemplar
    /// rings of 512-record traces that is a few kilobytes of steady-state memory at any serve
    /// volume.
    fn default() -> Self {
        SamplerOptions {
            sample_rate: 1024,
            warmup: 32,
        }
    }
}

/// Why a serve was selected for tracing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleTrigger {
    /// The 1-in-N rate counter selected it.
    Rate,
    /// The previous serve exceeded the adaptive slow threshold and armed the sampler.
    SlowArmed,
}

/// An in-flight sampled serve: holds the serve's private [`RecordingSink`] until
/// [`SamplingSink::finish_serve`] harvests it. Returned by [`SamplingSink::begin_serve`]
/// inside a [`ServeTicket`].
pub struct ActiveSample {
    recording: Arc<RecordingSink>,
    trigger: SampleTrigger,
}

impl ActiveSample {
    /// Installs this sample's sink on the current thread, teeing into any ambient sink so
    /// an enclosing `with_sink` observer keeps seeing every span. The recording stops when
    /// the guard drops (which also restores the ambient sink).
    #[must_use = "the recording stops when the guard drops"]
    pub fn install(&self) -> SinkGuard {
        let recording: Arc<dyn ObsvSink> = Arc::clone(&self.recording) as Arc<dyn ObsvSink>;
        match current_sink() {
            Some(ambient) => install_sink(Arc::new(TeeSink::new(ambient, recording))),
            None => install_sink(recording),
        }
    }

    /// Why this serve was selected.
    pub fn trigger(&self) -> SampleTrigger {
        self.trigger
    }
}

/// The per-serve admission decision of [`SamplingSink::begin_serve`]: the serve's sequence
/// number (every serve gets one), plus the recording apparatus when this serve was sampled.
pub struct ServeTicket {
    /// Zero-based serve sequence number.
    pub seq: u64,
    /// `Some` when this serve is traced.
    pub sample: Option<ActiveSample>,
}

/// One harvested exemplar: the trace of a sampled serve plus its identity.
#[derive(Clone, Debug)]
pub struct SampledTrace {
    /// Monotone trace id (1-based; `0` never names a trace).
    pub trace_id: u64,
    /// The serve's sequence number.
    pub seq: u64,
    /// Serve latency in nanoseconds, as the caller measured it and passed to
    /// [`SamplingSink::finish_serve`]. The plan service times from sampler admission (after
    /// canonicalization) to its cache path's answer.
    pub latency_ns: u64,
    /// Why the serve was traced.
    pub trigger: SampleTrigger,
    /// The harvested span/event recording.
    pub trace: Trace,
}

/// What [`SamplingSink::finish_serve`] reports back for a sampled serve.
#[derive(Clone, Copy, Debug)]
pub struct SampleOutcome {
    /// The id under which the harvested trace was retained.
    pub trace_id: u64,
    /// Spans the bounded recording ring evicted during the serve.
    pub dropped_spans: u64,
    /// Events the bounded recording ring evicted during the serve.
    pub dropped_events: u64,
}

/// Point-in-time sampler counters (see [`SamplingSink::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Serves admitted through [`SamplingSink::begin_serve`].
    pub serves: u64,
    /// Serves that were traced (rate-sampled or slow-armed).
    pub sampled: u64,
    /// Serves whose latency exceeded the adaptive slow threshold.
    pub slow_serves: u64,
    /// Current EWMA serve latency in nanoseconds (0 until the first serve finishes).
    pub ewma_ns: u64,
    /// Whether the next serve will be traced because the last one was slow.
    pub armed: bool,
}

struct Exemplars {
    /// Rate-sampled reservoir (deterministic replacement once full).
    reservoir: Vec<SampledTrace>,
    /// Rate-sampled traces seen so far (reservoir admission denominator).
    rate_seen: u64,
    /// Slow-armed traces, newest-last bounded ring — never evicted by rate samples.
    slow: VecDeque<SampledTrace>,
    /// xorshift64 state for reservoir replacement.
    rng: u64,
}

/// The always-on sampling decision point. One instance lives for the lifetime of a service;
/// every serve calls [`begin_serve`](Self::begin_serve) /
/// [`finish_serve`](Self::finish_serve) around its work.
pub struct SamplingSink {
    options: SamplerOptions,
    serves: AtomicU64,
    sampled: AtomicU64,
    slow_serves: AtomicU64,
    /// EWMA of serve latency, integer nanoseconds; 0 = unseeded.
    ewma_ns: AtomicU64,
    armed: AtomicBool,
    next_trace_id: AtomicU64,
    exemplars: Mutex<Exemplars>,
}

impl SamplingSink {
    /// A sampler with the given options.
    pub fn new(options: SamplerOptions) -> SamplingSink {
        SamplingSink {
            options,
            serves: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            slow_serves: AtomicU64::new(0),
            ewma_ns: AtomicU64::new(0),
            armed: AtomicBool::new(false),
            next_trace_id: AtomicU64::new(1),
            exemplars: Mutex::new(Exemplars {
                reservoir: Vec::new(),
                rate_seen: 0,
                slow: VecDeque::new(),
                // Any fixed odd seed works; determinism is the point.
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// The options this sampler runs with.
    pub fn options(&self) -> &SamplerOptions {
        &self.options
    }

    /// Admits one serve, deciding whether to trace it at the configured
    /// [`sample_rate`](SamplerOptions::sample_rate); the unsampled path is two relaxed
    /// atomics and a branch — no lock, no allocation, no sink installation.
    #[inline]
    pub fn begin_serve(&self) -> ServeTicket {
        let seq = self.serves.fetch_add(1, Ordering::Relaxed);
        let rate = self.options.sample_rate;
        let rate_hit = rate != 0 && seq.is_multiple_of(rate);
        // `swap` only after a positive `load`: the common unsampled serve must not issue an
        // atomic write on the armed flag.
        let armed = self.armed.load(Ordering::Relaxed) && self.armed.swap(false, Ordering::Relaxed);
        if !rate_hit && !armed {
            return ServeTicket { seq, sample: None };
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        let trigger = if armed {
            SampleTrigger::SlowArmed
        } else {
            SampleTrigger::Rate
        };
        ServeTicket {
            seq,
            sample: Some(ActiveSample {
                recording: Arc::new(RecordingSink::with_capacity(TRACE_CAPACITY)),
                trigger,
            }),
        }
    }

    /// Completes the serve admitted as `ticket`: folds `latency_ns` into the EWMA, arms the
    /// sampler when the serve was slow, and — when the serve was traced — harvests and
    /// retains the recording, returning its identity. Call *after* the guard from
    /// [`ActiveSample::install`] has dropped, so the serve's root span has closed into the
    /// recording.
    pub fn finish_serve(&self, ticket: ServeTicket, latency_ns: u64) -> Option<SampleOutcome> {
        let previous_ewma = self.ewma_ns.load(Ordering::Relaxed);
        let ewma = if previous_ewma == 0 {
            latency_ns.max(1)
        } else {
            // ewma += (latency − ewma) / 8, in integers (signed to allow decay).
            (previous_ewma as i64 + (latency_ns as i64 - previous_ewma as i64) / 8).max(1) as u64
        };
        self.ewma_ns.store(ewma, Ordering::Relaxed);
        let warmed = ticket.seq >= self.options.warmup;
        if warmed && previous_ewma > 0 {
            let threshold = (previous_ewma as f64 * SLOW_FACTOR) as u64;
            if latency_ns > threshold {
                self.slow_serves.fetch_add(1, Ordering::Relaxed);
                self.armed.store(true, Ordering::Relaxed);
            }
        }
        let sample = ticket.sample?;
        let trace = sample.recording.trace();
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let outcome = SampleOutcome {
            trace_id,
            dropped_spans: trace.dropped_spans,
            dropped_events: trace.dropped_events,
        };
        let exemplar = SampledTrace {
            trace_id,
            seq: ticket.seq,
            latency_ns,
            trigger: sample.trigger,
            trace,
        };
        let mut ex = self.exemplars.lock().expect("sampler exemplars poisoned");
        match sample.trigger {
            SampleTrigger::SlowArmed => {
                if ex.slow.len() == RESERVOIR {
                    ex.slow.pop_front();
                }
                ex.slow.push_back(exemplar);
            }
            SampleTrigger::Rate => {
                ex.rate_seen += 1;
                if ex.reservoir.len() < RESERVOIR {
                    ex.reservoir.push(exemplar);
                } else {
                    // Algorithm R with a deterministic xorshift64: each of the `rate_seen`
                    // traces ends up retained with probability RESERVOIR / rate_seen.
                    ex.rng ^= ex.rng << 13;
                    ex.rng ^= ex.rng >> 7;
                    ex.rng ^= ex.rng << 17;
                    let slot = ex.rng % ex.rate_seen;
                    if (slot as usize) < RESERVOIR {
                        ex.reservoir[slot as usize] = exemplar;
                    }
                }
            }
        }
        Some(outcome)
    }

    /// The retained rate-sampled exemplars, oldest first.
    pub fn exemplars(&self) -> Vec<SampledTrace> {
        self.exemplars
            .lock()
            .expect("sampler exemplars poisoned")
            .reservoir
            .clone()
    }

    /// The retained slow-armed exemplars, oldest first.
    pub fn slow_exemplars(&self) -> Vec<SampledTrace> {
        self.exemplars
            .lock()
            .expect("sampler exemplars poisoned")
            .slow
            .iter()
            .cloned()
            .collect()
    }

    /// Point-in-time sampler counters.
    pub fn stats(&self) -> SamplerStats {
        SamplerStats {
            serves: self.serves.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            slow_serves: self.slow_serves.load(Ordering::Relaxed),
            ewma_ns: self.ewma_ns.load(Ordering::Relaxed),
            armed: self.armed.load(Ordering::Relaxed),
        }
    }
}

/// Forwards every span and event to two sinks: the ambient observer that was already
/// installed, and the sampler's private recording. Both see the identical stream.
pub struct TeeSink {
    first: Arc<dyn ObsvSink>,
    second: Arc<dyn ObsvSink>,
}

impl TeeSink {
    /// A sink forwarding to `first` then `second`.
    pub fn new(first: Arc<dyn ObsvSink>, second: Arc<dyn ObsvSink>) -> TeeSink {
        TeeSink { first, second }
    }
}

impl ObsvSink for TeeSink {
    fn span_close(&self, name: &'static str, depth: u32, nanos: u64) {
        self.first.span_close(name, depth, nanos);
        self.second.span_close(name, depth, nanos);
    }

    fn event(&self, name: &'static str, value: u64) {
        self.first.event(name, value);
        self.second.event(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{event, with_sink, Span};
    use std::time::Instant;

    fn serve_once(sampler: &SamplingSink, latency_ns: u64) -> Option<SampleOutcome> {
        let ticket = sampler.begin_serve();
        if let Some(sample) = &ticket.sample {
            let guard = sample.install();
            let _root = Span::enter("serve");
            event("work", 1);
            drop(_root);
            drop(guard);
        }
        sampler.finish_serve(ticket, latency_ns)
    }

    #[test]
    fn rate_sampling_traces_one_in_n_starting_with_the_first() {
        let sampler = SamplingSink::new(SamplerOptions {
            sample_rate: 4,
            ..SamplerOptions::default()
        });
        let mut sampled = Vec::new();
        for seq in 0..12u64 {
            if let Some(outcome) = serve_once(&sampler, 100) {
                sampled.push((seq, outcome.trace_id));
            }
        }
        assert_eq!(
            sampled.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 4, 8],
            "every 4th serve is traced, first included"
        );
        assert_eq!(
            sampled.iter().map(|(_, id)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "trace ids are monotone from 1"
        );
        let exemplars = sampler.exemplars();
        assert_eq!(exemplars.len(), 3);
        assert!(exemplars
            .iter()
            .all(|e| e.trace.phase_count("serve") == 1 && e.trace.event_sum("work") == 1));
        assert_eq!(sampler.stats().sampled, 3);
    }

    #[test]
    fn rate_zero_disables_rate_sampling() {
        let sampler = SamplingSink::new(SamplerOptions {
            sample_rate: 0,
            ..SamplerOptions::default()
        });
        for _ in 0..100 {
            assert!(serve_once(&sampler, 50).is_none());
        }
        assert_eq!(sampler.stats().sampled, 0);
        assert_eq!(sampler.stats().serves, 100);
    }

    #[test]
    fn a_slow_serve_arms_the_sampler_for_the_next_one() {
        let options = SamplerOptions {
            sample_rate: 0, // isolate the slow trigger
            warmup: 4,
        };
        let sampler = SamplingSink::new(options);
        for _ in 0..10 {
            assert!(serve_once(&sampler, 100).is_none());
        }
        // 100 ns EWMA; a 10 µs serve is far beyond SLOW_FACTOR ×.
        assert!(
            serve_once(&sampler, 10_000).is_none(),
            "the slow serve itself is past tracing"
        );
        assert!(sampler.stats().armed);
        let outcome = serve_once(&sampler, 100).expect("the armed serve is traced");
        assert!(outcome.trace_id > 0);
        assert!(!sampler.stats().armed, "arming is one-shot");
        assert_eq!(sampler.stats().slow_serves, 1);
        let slow = sampler.slow_exemplars();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trigger, SampleTrigger::SlowArmed);
        assert!(
            sampler.exemplars().is_empty(),
            "slow traces have their own ring"
        );
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let run = || {
            let sampler = SamplingSink::new(SamplerOptions {
                sample_rate: 1,
                ..SamplerOptions::default()
            });
            for i in 0..64u64 {
                serve_once(&sampler, 100 + i);
            }
            sampler
                .exemplars()
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), RESERVOIR, "reservoir stays bounded");
        assert_eq!(a, b, "replacement is deterministic across runs");
    }

    #[test]
    fn sampled_serves_tee_into_the_ambient_sink() {
        let ambient = Arc::new(RecordingSink::new());
        let sampler = SamplingSink::new(SamplerOptions::default());
        with_sink(ambient.clone(), || {
            serve_once(&sampler, 100);
        });
        assert_eq!(
            ambient.trace().phase_count("serve"),
            1,
            "the ambient observer still sees the sampled serve's spans"
        );
        assert_eq!(sampler.exemplars().len(), 1, "and so does the sampler");
    }

    #[test]
    fn unsampled_begin_finish_stays_within_the_inert_span_budget() {
        // Rate 0 and a constant latency: every serve takes the unsampled path.
        let sampler = SamplingSink::new(SamplerOptions {
            sample_rate: 0,
            ..SamplerOptions::default()
        });
        const CALLS: u64 = 200_000;
        let started = Instant::now();
        for _ in 0..CALLS {
            let ticket = std::hint::black_box(sampler.begin_serve());
            sampler.finish_serve(ticket, 100);
        }
        let per_call_ns = started.elapsed().as_nanos() as f64 / CALLS as f64;
        assert!(
            per_call_ns < 1_000.0,
            "unsampled begin/finish took {per_call_ns:.1} ns — the always-on fast path must \
             stay within noise"
        );
    }
}
