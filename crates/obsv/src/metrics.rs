//! Typed metrics: counters, gauges and log2-bucketed histograms.
//!
//! Every mutation on the hot path is a single relaxed `AtomicU64` operation — no floats,
//! no locks, no allocation. A [`Histogram`] buckets a `u64` sample (typically nanoseconds)
//! by its bit length, so bucket `i` covers `[2^(i-1), 2^i)`; that trades resolution for a
//! fixed 65-slot footprint and a branch-free `leading_zeros` on observe.
//!
//! [`MetricsRegistry`] hands out shared handles by name (get-or-register under a `Mutex`,
//! which is off the hot path: callers register once and cache the `Arc`). Names may carry a
//! Prometheus label set inline — `qo_regret_last{shape="0abc"}` — in which case everything
//! up to the `{` is the metric *family*; the renderer emits one `# HELP`/`# TYPE` header
//! per family, shared by all its labeled series. [`MetricsRegistry::describe`] attaches the
//! help text per family. A [`MetricsSnapshot`] is an ordinary sorted value dump that
//! renders to the Prometheus text exposition format with
//! [`MetricsSnapshot::render_prometheus`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one per `u64` bit length, plus bucket 0 for the value 0.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. Reserved for *view synchronization* — mirroring an external
    /// monotone total (e.g. the plan service's sampler admission counts or its regret
    /// ledger's pin count) into the registry at snapshot time — not for hot-path use.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up or down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket index of `value`: 0 for 0, otherwise its bit length (1 + floor(log2 value)).
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample. Three relaxed atomic adds; no floats.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value, 0 when empty (integer division: these are nanosecond scales
    /// where sub-unit precision is noise).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Per-bucket counts, indexed by bit length (bucket `i` covers `[2^(i-1), 2^i)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive Prometheus-style upper bound of bucket `i`: `2^i - 1`.
    fn upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// A named registry of metrics. Handles are `Arc`s: register once, cache the handle,
/// mutate lock-free ever after. Names are owned strings, so dynamically labeled series
/// (`family{label="…"}`) register as freely as static ones.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

fn get_or_register<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let fresh: Arc<T> = Arc::default();
    map.insert(name.to_owned(), Arc::clone(&fresh));
    fresh
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_register(&self.counters, name)
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_register(&self.gauges, name)
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_register(&self.histograms, name)
    }

    /// Attaches `# HELP` text to the metric *family* `family` (a plain metric name, or the
    /// part before `{` for labeled series). Rendered once per family by
    /// [`MetricsSnapshot::render_prometheus`]; families without a description render with
    /// `# TYPE` only.
    pub fn describe(&self, family: &str, help: &str) {
        self.help
            .lock()
            .expect("metrics registry poisoned")
            .insert(family.to_owned(), help.to_owned());
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let help = self.help.lock().expect("metrics registry poisoned").clone();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            help,
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by metric name within each kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
    /// `# HELP` text per metric family ([`MetricsRegistry::describe`]).
    pub help: BTreeMap<String, String>,
}

/// The metric family of `name`: the name itself for plain metrics, the part before the
/// label set for `family{label="…"}` series.
pub fn metric_family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot in the Prometheus text exposition format: counters, then
    /// gauges, then histograms, each alphabetical. Each metric *family* gets one `# HELP`
    /// line (when described) and one `# TYPE` line, shared by all its labeled series — the
    /// shape real Prometheus scrapers require. Histogram buckets are cumulative with
    /// inclusive `le` upper bounds `2^i - 1`, truncated after the last occupied bucket.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let header = |out: &mut String, name: &str, kind: &str, last_family: &mut String| {
            let family = metric_family(name);
            if family != last_family {
                if let Some(help) = self.help.get(family) {
                    out.push_str(&format!("# HELP {family} {help}\n"));
                }
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                *last_family = family.to_owned();
            }
        };
        for (name, value) in &self.counters {
            header(&mut out, name, "counter", &mut last_family);
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            header(&mut out, name, "gauge", &mut last_family);
            out.push_str(&format!("{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            header(&mut out, name, "histogram", &mut last_family);
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| i + 1)
                .unwrap_or(0);
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().take(last).enumerate() {
                cumulative += c;
                let le = HistogramSnapshot::upper_bound(i);
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n",
                count = h.count,
                sum = h.sum,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_the_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_sums_and_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.mean(), 202);
        let snap = h.snapshot("t");
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[3], 2); // 5 twice
        assert_eq!(snap.buckets[10], 1); // 1000
    }

    #[test]
    fn registry_handles_are_shared_and_snapshots_are_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total").inc();
        reg.counter("b_total").inc(); // same underlying counter as the first call
        reg.gauge("depth").set(3);
        reg.histogram("lat_ns").observe(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".to_owned(), 1), ("b_total".to_owned(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(3));
        assert_eq!(snap.histogram("lat_ns").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("hits_total").add(4);
        reg.describe("hits_total", "Cache hits.");
        reg.gauge("entries").set(2);
        let h = reg.histogram("lat_ns");
        h.observe(1);
        h.observe(6);
        let text = reg.snapshot().render_prometheus();
        let expected = "# HELP hits_total Cache hits.\n\
                        # TYPE hits_total counter\n\
                        hits_total 4\n\
                        # TYPE entries gauge\n\
                        entries 2\n\
                        # TYPE lat_ns histogram\n\
                        lat_ns_bucket{le=\"0\"} 0\n\
                        lat_ns_bucket{le=\"1\"} 1\n\
                        lat_ns_bucket{le=\"3\"} 1\n\
                        lat_ns_bucket{le=\"7\"} 2\n\
                        lat_ns_bucket{le=\"+Inf\"} 2\n\
                        lat_ns_sum 7\n\
                        lat_ns_count 2\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn labeled_series_share_one_family_header() {
        let reg = MetricsRegistry::new();
        reg.describe("regret", "Per-shape regret.");
        reg.gauge("regret{shape=\"a\"}").set(5);
        reg.gauge("regret{shape=\"b\"}").set(7);
        reg.gauge("zz_other").set(1);
        let text = reg.snapshot().render_prometheus();
        let expected = "# HELP regret Per-shape regret.\n\
                        # TYPE regret gauge\n\
                        regret{shape=\"a\"} 5\n\
                        regret{shape=\"b\"} 7\n\
                        # TYPE zz_other gauge\n\
                        zz_other 1\n";
        assert_eq!(text, expected);
        assert_eq!(metric_family("regret{shape=\"a\"}"), "regret");
        assert_eq!(metric_family("plain"), "plain");
    }

    /// The 65-bucket layout's edges: the value 0 has its own bucket, 1 starts the powers,
    /// `u64::MAX` lands in the last bucket, and every boundary `2^i − 1` / `2^i` pair
    /// straddles adjacent buckets with upper bounds `2^i − 1`.
    #[test]
    fn histogram_bucket_edges_cover_the_full_u64_range() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        let snap = h.snapshot("edges");
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets[0], 1, "0 is alone in bucket 0");
        assert_eq!(snap.buckets[1], 1, "1 is alone in bucket 1");
        assert_eq!(snap.buckets[64], 1, "u64::MAX lands in the last bucket");
        assert_eq!(HistogramSnapshot::upper_bound(0), 0);
        assert_eq!(HistogramSnapshot::upper_bound(1), 1);
        assert_eq!(HistogramSnapshot::upper_bound(64), u64::MAX);
        for i in 1..64usize {
            // The boundary pair 2^i − 1 / 2^i falls into buckets i and i + 1.
            let below = (1u64 << i) - 1;
            assert_eq!(bucket_index(below), i, "2^{i} - 1 closes bucket {i}");
            assert_eq!(
                bucket_index(below + 1),
                i + 1,
                "2^{i} opens bucket {}",
                i + 1
            );
            assert_eq!(HistogramSnapshot::upper_bound(i), below);
        }
    }

    #[test]
    fn counter_store_is_a_view_sync_overwrite() {
        let c = Counter::default();
        c.add(10);
        c.store(3);
        assert_eq!(c.get(), 3);
    }
}
