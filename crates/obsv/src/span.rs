//! Hierarchical spans and events over a thread-local [`ObsvSink`].
//!
//! The design center is the *disabled* path: optimizer hot loops call [`Span::enter`] and
//! [`event`] unconditionally, so with no sink installed both must cost no more than a
//! thread-local load and a branch. [`Span::enter`] takes its `Instant` timestamp only after
//! it has found an installed sink; the returned guard carries `None` otherwise and its
//! `Drop` is a no-op. A sink is installed for a lexical scope with [`with_sink`] (or
//! [`install_sink`] when the scope spans a guard's lifetime), and the previous sink is
//! restored on exit, so installs nest.
//!
//! Sinks receive *closed* spans — `(name, depth, nanos)` — rather than open/close pairs:
//! the depth is tracked by the thread-local so the receiver can reconstruct the hierarchy
//! without matching events, and a span that is still open when a recording is harvested is
//! simply absent (by construction every instrumented phase closes before its result is
//! returned). [`RecordingSink`] keeps the most recent records in bounded ring buffers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Receiver for closed spans and point events. Implementations must be cheap and
/// non-blocking: sinks run inline on the planning thread. One sink may be installed on
/// several threads at once (e.g. the serving threads of one service) — hence `Send + Sync`.
pub trait ObsvSink: Send + Sync {
    /// A span named `name` at nesting `depth` closed after `nanos` nanoseconds.
    fn span_close(&self, name: &'static str, depth: u32, nanos: u64);
    /// A point event: a named `u64` measurement (a count, a level number, a duration).
    fn event(&self, name: &'static str, value: u64);
}

/// The do-nothing sink. Installing it is equivalent to installing no sink at all — it
/// exists so call sites that *must* pass a sink have an explicit inert choice, and so the
/// overhead-bound tests can name the thing they are measuring.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl ObsvSink for NoopSink {
    #[inline]
    fn span_close(&self, _name: &'static str, _depth: u32, _nanos: u64) {}
    #[inline]
    fn event(&self, _name: &'static str, _value: u64) {}
}

struct SinkState {
    sink: Option<Arc<dyn ObsvSink>>,
    depth: u32,
}

thread_local! {
    static CURRENT: RefCell<SinkState> = const {
        RefCell::new(SinkState { sink: None, depth: 0 })
    };
}

/// Installs `sink` as this thread's current sink until the returned guard drops, at which
/// point the previously installed sink (if any) is restored. Prefer [`with_sink`] when the
/// instrumented region is a closure.
#[must_use = "the sink is uninstalled when the guard drops"]
pub fn install_sink(sink: Arc<dyn ObsvSink>) -> SinkGuard {
    let previous = CURRENT.with(|s| s.borrow_mut().sink.replace(sink));
    SinkGuard { previous }
}

/// Runs `f` with `sink` installed as this thread's current sink, restoring the previous
/// sink afterwards.
pub fn with_sink<R>(sink: Arc<dyn ObsvSink>, f: impl FnOnce() -> R) -> R {
    let _guard = install_sink(sink);
    f()
}

/// The sink installed on this thread, if any. Used to tee a newly installed sink into the
/// ambient one, or to hand the current sink across an explicit thread boundary, where the
/// thread-local would otherwise start empty.
pub fn current_sink() -> Option<Arc<dyn ObsvSink>> {
    CURRENT.with(|s| s.borrow().sink.clone())
}

/// Restores the previously installed sink on drop. Returned by [`install_sink`].
pub struct SinkGuard {
    previous: Option<Arc<dyn ObsvSink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|s| s.borrow_mut().sink = previous);
    }
}

/// Records `value` under `name` on the current sink; a no-op when none is installed.
#[inline]
pub fn event(name: &'static str, value: u64) {
    CURRENT.with(|s| {
        if let Some(sink) = &s.borrow().sink {
            sink.event(name, value);
        }
    });
}

/// An RAII span guard. Created with [`Span::enter`]; reports its wall time to the current
/// sink when dropped. With no sink installed the guard is inert: no timestamp is taken on
/// entry and `Drop` does nothing.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    sink: Arc<dyn ObsvSink>,
    name: &'static str,
    depth: u32,
    start: Instant,
}

impl Span {
    /// Enters a span named `name` under the current sink (inert when none is installed).
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        CURRENT.with(|s| {
            let mut state = s.borrow_mut();
            match &state.sink {
                None => Span { active: None },
                Some(sink) => {
                    let sink = Arc::clone(sink);
                    let depth = state.depth;
                    state.depth += 1;
                    Span {
                        active: Some(ActiveSpan {
                            sink,
                            name,
                            depth,
                            start: Instant::now(),
                        }),
                    }
                }
            }
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let nanos = active.start.elapsed().as_nanos() as u64;
            CURRENT.with(|s| {
                let mut state = s.borrow_mut();
                state.depth = state.depth.saturating_sub(1);
            });
            active.sink.span_close(active.name, active.depth, nanos);
        }
    }
}

/// A closed span as captured by [`RecordingSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"enumerate"`).
    pub name: &'static str,
    /// Nesting depth at entry: 0 for a root span, 1 for its children, and so on.
    pub depth: u32,
    /// Wall time between enter and drop, in nanoseconds.
    pub nanos: u64,
}

/// A point event as captured by [`RecordingSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name (e.g. `"exact_ccps"`).
    pub name: &'static str,
    /// The recorded measurement.
    pub value: u64,
}

/// An immutable harvest of a [`RecordingSink`]: the retained spans and events in arrival
/// order, plus how many older records the bounded ring buffers dropped to make room.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Closed spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Events, oldest first.
    pub events: Vec<EventRecord>,
    /// Spans evicted from the ring buffer before the harvest.
    pub dropped_spans: u64,
    /// Events evicted from the ring buffer before the harvest.
    pub dropped_events: u64,
}

impl Trace {
    /// Total nanoseconds across all retained spans named `name`.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum()
    }

    /// How many retained spans are named `name`.
    pub fn phase_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum of the values of all retained events named `name`.
    pub fn event_sum(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.value)
            .sum()
    }
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    dropped_spans: u64,
    dropped_events: u64,
}

/// A sink that retains the most recent spans and events in bounded ring buffers.
///
/// The buffers are guarded by a single `Mutex`; recording is only reached when a
/// `RecordingSink` is deliberately installed (tracing on), so the hot-path cost of the
/// disabled configuration is unaffected.
pub struct RecordingSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl RecordingSink {
    /// Default per-buffer capacity (spans and events each).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A sink retaining up to [`Self::DEFAULT_CAPACITY`] spans and events.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A sink retaining up to `capacity` spans and `capacity` events (oldest evicted
    /// first). A zero capacity is bumped to 1.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RecordingSink {
            capacity,
            ring: Mutex::new(Ring {
                spans: VecDeque::with_capacity(capacity.min(1024)),
                events: VecDeque::with_capacity(capacity.min(1024)),
                dropped_spans: 0,
                dropped_events: 0,
            }),
        }
    }

    /// Snapshots the retained records without draining them.
    pub fn trace(&self) -> Trace {
        let ring = self.ring.lock().expect("recording sink poisoned");
        Trace {
            spans: ring.spans.iter().copied().collect(),
            events: ring.events.iter().copied().collect(),
            dropped_spans: ring.dropped_spans,
            dropped_events: ring.dropped_events,
        }
    }

    /// Clears the retained records and drop counters.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("recording sink poisoned");
        ring.spans.clear();
        ring.events.clear();
        ring.dropped_spans = 0;
        ring.dropped_events = 0;
    }
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsvSink for RecordingSink {
    fn span_close(&self, name: &'static str, depth: u32, nanos: u64) {
        let mut ring = self.ring.lock().expect("recording sink poisoned");
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
            ring.dropped_spans += 1;
        }
        ring.spans.push_back(SpanRecord { name, depth, nanos });
    }

    fn event(&self, name: &'static str, value: u64) {
        let mut ring = self.ring.lock().expect("recording sink poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped_events += 1;
        }
        ring.events.push_back(EventRecord { name, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_sink() {
        let span = Span::enter("orphan");
        assert!(span.active.is_none());
        drop(span);
        event("orphan_event", 42); // must not panic or record anywhere
        assert!(current_sink().is_none());
    }

    #[test]
    fn nested_spans_record_depths_and_restore_the_previous_sink() {
        let outer_sink = Arc::new(RecordingSink::new());
        let inner_sink = Arc::new(RecordingSink::new());
        with_sink(outer_sink.clone(), || {
            let _root = Span::enter("root");
            {
                let child = Span::enter("child");
                assert!(child.active.is_some());
            }
            with_sink(inner_sink.clone(), || {
                let _shadowed = Span::enter("shadowed");
            });
            event("pairs", 7);
        });
        let outer = outer_sink.trace();
        assert_eq!(outer.phase_count("child"), 1);
        assert_eq!(outer.phase_count("root"), 1);
        assert_eq!(outer.phase_count("shadowed"), 0);
        assert_eq!(outer.spans[0].name, "child"); // children close first
        assert_eq!(outer.spans[0].depth, 1);
        assert_eq!(outer.spans[1].depth, 0);
        assert_eq!(outer.event_sum("pairs"), 7);
        let inner = inner_sink.trace();
        assert_eq!(inner.phase_count("shadowed"), 1);
        assert!(current_sink().is_none(), "sink must be uninstalled on exit");
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_the_newest() {
        let sink = Arc::new(RecordingSink::with_capacity(4));
        with_sink(sink.clone(), || {
            for i in 0..10u64 {
                event("tick", i);
                let _s = Span::enter("step");
            }
        });
        let trace = sink.trace();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped_events, 6);
        assert_eq!(trace.events[0].value, 6, "oldest events are evicted first");
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped_spans, 6);
        sink.clear();
        assert_eq!(sink.trace(), Trace::default());
    }

    /// Eviction is strictly FIFO: after overflow the ring holds exactly the newest
    /// `capacity` records, still in arrival order, and the drop counters account for every
    /// evicted record — no reordering, no double counting.
    #[test]
    fn ring_eviction_is_fifo_and_preserves_arrival_order() {
        let sink = RecordingSink::with_capacity(3);
        for i in 0..8u64 {
            sink.event("tick", i);
            sink.span_close("step", 0, i);
        }
        let trace = sink.trace();
        assert_eq!(
            trace.events.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![5, 6, 7],
            "events: newest three retained, oldest-first order preserved"
        );
        assert_eq!(
            trace.spans.iter().map(|s| s.nanos).collect::<Vec<_>>(),
            vec![5, 6, 7],
            "spans: newest three retained, oldest-first order preserved"
        );
        assert_eq!(trace.dropped_events, 5);
        assert_eq!(trace.dropped_spans, 5);
        // One more record evicts exactly the oldest retained one.
        sink.span_close("step", 0, 8);
        let trace = sink.trace();
        assert_eq!(
            trace.spans.iter().map(|s| s.nanos).collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
        assert_eq!(trace.dropped_spans, 6);
    }

    #[test]
    fn noop_sink_records_nothing_but_spans_still_activate() {
        with_sink(Arc::new(NoopSink), || {
            let span = Span::enter("phase");
            assert!(span.active.is_some());
        });
    }
}
