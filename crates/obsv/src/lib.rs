//! Zero-dependency structured tracing and metrics for the optimizer stack.
//!
//! The crate has two halves, both built exclusively on `std`:
//!
//! - [`span`]: a hierarchical span/event API ([`Span::enter`], [`event`]) routed through a
//!   thread-local [`ObsvSink`]. When no sink is installed (the default — the "noop" path) a
//!   span is a `None`-carrying guard: no timestamp is taken, nothing is allocated, and the
//!   whole call compiles down to a thread-local check. [`RecordingSink`] captures closed
//!   spans and events into bounded ring buffers and hands them back as a [`Trace`].
//! - [`metrics`]: typed [`Counter`]s, [`Gauge`]s and log2-bucketed [`Histogram`]s behind a
//!   [`MetricsRegistry`]. The hot path is pure `AtomicU64` arithmetic — no floats, no locks —
//!   and a [`MetricsSnapshot`] renders to the Prometheus text exposition format on demand
//!   (with one `# HELP`/`# TYPE` header per metric family, labeled series included).
//!
//! On top of the span half sits [`sample`]: the always-on tier. A [`SamplingSink`] admits
//! every serve through a two-atomic fast path and installs a per-serve [`RecordingSink`]
//! only for the decided 1-in-N (plus serves following a detected slow one), teeing into any
//! ambient sink. Harvested [`SampledTrace`] exemplars are retained in a deterministic
//! bounded reservoir.
//!
//! The planner phases instrumented across the workspace are, in pipeline order:
//! `parse` → `lower` → `canonicalize` → `enumerate` (with an `exact_ccps`
//! event) → `idp` / `greedy` → `recost` → `feedback`. See ARCHITECTURE.md's "Observability" section for the full hierarchy.

pub mod metrics;
pub mod sample;
pub mod span;

pub use metrics::{
    metric_family, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use sample::{
    ActiveSample, SampleOutcome, SampleTrigger, SampledTrace, SamplerOptions, SamplerStats,
    SamplingSink, ServeTicket, TeeSink,
};
pub use span::{
    current_sink, event, install_sink, with_sink, EventRecord, NoopSink, ObsvSink, RecordingSink,
    SinkGuard, Span, SpanRecord, Trace,
};
