//! The sharded, thread-safe LRU plan cache.
//!
//! Entries are keyed by the *shape* half of the [`Fingerprint`]; each shape holds a small
//! bucket of statistics *variants* (JOB-style workloads are full of isomorphic queries — the
//! `a`/`b`/`c` variants of one query differ only in constants — and they must coexist instead
//! of thrashing one slot). The stats half plus an exact canonical-spec comparison (a 64-bit
//! hash is a key, not a proof) decides between the three lookup outcomes a serving layer
//! distinguishes:
//!
//! * **Hit** — a variant matches shape and statistics exactly: its plan is returned as-is.
//! * **Shape** — same canonical skeleton, no exact-statistics variant: the caller re-costs the
//!   most recently used variant's plan table instead of re-optimizing (and then
//!   [`PlanCache::insert`]s the outcome as a new variant).
//! * **Miss** — nothing cached (or a hash collision / relabeling mismatch, detected by the
//!   structural comparison and treated as a miss for safety).
//!
//! Sharding keeps the lock granularity small under the concurrent batch driver: a lookup locks
//! one shard for a hash probe and a clone, never for the (comparatively long) optimization
//! itself. Recency is a relaxed global tick; eviction scans the one affected shard (shard
//! capacities are small) for the oldest variant.

use crate::fingerprint::Fingerprint;
use dphyp::{same_shape, CachedTable, PlanTier, QuerySpec};
use qo_plan::PlanNode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Sizing of the plan cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOptions {
    /// Maximum number of cached plans across all shards.
    pub capacity: usize,
    /// Number of independently locked shards. Clamped to at least 1; shard capacity is
    /// `capacity / shards`, rounded up.
    pub shards: usize,
    /// Maximum statistics variants kept per shape. Distinct queries with *isomorphic* join
    /// graphs (ubiquitous in JOB-style workloads: the `a`/`b`/`c` variants of a query differ
    /// only in constants, i.e. statistics) share a shape bucket; keeping several variants lets
    /// them all hit instead of thrashing one slot. Clamped to at least 1.
    pub variants_per_shape: usize,
}

impl Default for CacheOptions {
    /// 1024 plans over 8 shards, up to 8 statistics variants per shape.
    fn default() -> Self {
        CacheOptions {
            capacity: 1024,
            shards: 8,
            variants_per_shape: 8,
        }
    }
}

/// One cached optimization, everything in canonical id space.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// The canonical spec the entry was planned for (exact, including statistics).
    pub spec: QuerySpec,
    /// The stats half of the fingerprint the entry was costed under.
    pub stats: u64,
    /// The [`crate::fingerprint::options_key`] of the optimizer options the entry was planned
    /// under. Reuse — verbatim or as a re-cost seed — requires an exact match: a plan produced
    /// under weaker options must never satisfy a request paying for stronger ones.
    pub options: u64,
    /// The compact plan table (for incremental re-costing).
    pub table: CachedTable,
    /// The winning plan.
    pub plan: PlanNode,
    /// Its cost.
    pub cost: f64,
    /// Its estimated output cardinality.
    pub cardinality: f64,
    /// The tier that produced the join order.
    pub tier: PlanTier,
}

/// Outcome of a cache lookup.
pub(crate) enum Lookup {
    /// Shape and statistics match: the cached plan is current.
    Hit {
        plan: PlanNode,
        cost: f64,
        cardinality: f64,
        tier: PlanTier,
    },
    /// Same shape, drifted statistics: re-cost this table.
    Shape { table: CachedTable, tier: PlanTier },
    /// Nothing reusable.
    Miss,
}

/// Aggregated telemetry of the plan cache (all counters since construction).
///
/// Latency totals are wall-clock sums per outcome of fingerprint, lookup and the outcome's work
/// (clone / re-cost / full optimization). They **exclude canonicalization**, which the entry
/// points run before the clock starts, and the serve shell around it (sampling, regret pinning,
/// flight recording). On a warm hit canonicalization is the largest layer, so
/// [`avg_hit_ns`](Self::avg_hit_ns) sits well below the end-to-end latency a caller measures
/// around `Service::plan_spec`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full hits (plan served from cache unchanged).
    pub hits: u64,
    /// Shape hits resolved by accepted incremental re-costs.
    pub shape_hits: u64,
    /// Shape hits whose re-cost was rejected (stale order or structural mismatch) and answered
    /// by a full re-optimization instead.
    pub recost_fallbacks: u64,
    /// Full misses (first sight of the shape, or a collision).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: u64,
    /// Total nanoseconds spent serving full hits.
    pub hit_ns: u64,
    /// Total nanoseconds spent serving accepted re-costs.
    pub recost_ns: u64,
    /// Total nanoseconds spent serving misses and re-cost fallbacks (full optimizations).
    pub miss_ns: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.shape_hits + self.recost_fallbacks + self.misses
    }

    /// Total time spent serving full hits.
    pub fn hit_time(&self) -> Duration {
        Duration::from_nanos(self.hit_ns)
    }

    /// Total time spent serving accepted re-costs.
    pub fn recost_time(&self) -> Duration {
        Duration::from_nanos(self.recost_ns)
    }

    /// Total time spent serving misses (including re-cost fallbacks).
    pub fn miss_time(&self) -> Duration {
        Duration::from_nanos(self.miss_ns)
    }

    /// Count-weighted mean latency of a full hit, in nanoseconds (`hit_ns / hits`; 0 before
    /// the first hit). The raw totals stay available for callers aggregating across
    /// snapshots — dividing per snapshot and averaging the quotients would weight windows,
    /// not lookups.
    pub fn avg_hit_ns(&self) -> u64 {
        self.hit_ns.checked_div(self.hits).unwrap_or(0)
    }

    /// Count-weighted mean latency of an accepted re-cost, in nanoseconds
    /// (`recost_ns / shape_hits`; 0 before the first).
    pub fn avg_recost_ns(&self) -> u64 {
        self.recost_ns.checked_div(self.shape_hits).unwrap_or(0)
    }

    /// Count-weighted mean latency of a full optimization, in nanoseconds. `miss_ns` pools
    /// misses and re-cost fallbacks (both run the full optimizer), so the divisor is
    /// `misses + recost_fallbacks`; 0 before the first.
    pub fn avg_miss_ns(&self) -> u64 {
        self.miss_ns
            .checked_div(self.misses + self.recost_fallbacks)
            .unwrap_or(0)
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    shape_hits: AtomicU64,
    recost_fallbacks: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hit_ns: AtomicU64,
    recost_ns: AtomicU64,
    miss_ns: AtomicU64,
}

/// One statistics variant inside a shape bucket.
struct Slot {
    entry: Entry,
    last_used: u64,
}

type Shard = HashMap<u64, Vec<Slot>>;

/// The cache proper. All methods take `&self`; see the [module docs](self) for the protocol.
pub(crate) struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    variants_per_shape: usize,
    tick: AtomicU64,
    counters: Counters,
}

impl PlanCache {
    pub(crate) fn new(options: CacheOptions) -> PlanCache {
        let shards = options.shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: options.capacity.div_ceil(shards).max(1),
            variants_per_shape: options.variants_per_shape.max(1),
            tick: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    fn shard(&self, shape: u64) -> &Mutex<Shard> {
        &self.shards[(shape % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a canonicalized query. Outcome counters are recorded by the caller (which
    /// knows how a `Shape` outcome resolved), not here.
    ///
    /// An exact variant (same options, same stats, same spec) is a [`Lookup::Hit`]; otherwise
    /// the most recently used same-options variant with the same skeleton seeds a
    /// [`Lookup::Shape`] re-cost. Variants planned under different optimizer options are never
    /// reused, and a skeleton mismatch on every variant (hash collision, or an inconsistently
    /// relabeled symmetric query) is a safe [`Lookup::Miss`].
    pub(crate) fn lookup(
        &self,
        fp: Fingerprint,
        options_key: u64,
        canonical_spec: &QuerySpec,
    ) -> Lookup {
        let tick = self.next_tick();
        let mut shard = self.shard(fp.shape).lock().expect("cache shard poisoned");
        let Some(bucket) = shard.get_mut(&fp.shape) else {
            return Lookup::Miss;
        };
        if let Some(slot) = bucket.iter_mut().find(|s| {
            s.entry.options == options_key
                && s.entry.stats == fp.stats
                && s.entry.spec == *canonical_spec
        }) {
            slot.last_used = tick;
            return Lookup::Hit {
                plan: slot.entry.plan.clone(),
                cost: slot.entry.cost,
                cardinality: slot.entry.cardinality,
                tier: slot.entry.tier,
            };
        }
        if let Some(slot) = bucket
            .iter_mut()
            .filter(|s| s.entry.options == options_key && same_shape(&s.entry.spec, canonical_spec))
            .max_by_key(|s| s.last_used)
        {
            slot.last_used = tick;
            return Lookup::Shape {
                table: slot.entry.table.clone(),
                tier: slot.entry.tier,
            };
        }
        Lookup::Miss
    }

    /// Inserts a statistics variant for a shape: replaces the variant with the same stats key
    /// (the refreshed epoch of one logical query), otherwise appends — evicting the
    /// least-recently-used variant of the bucket, then of the shard, when caps are exceeded.
    pub(crate) fn insert(&self, shape: u64, entry: Entry) {
        let tick = self.next_tick();
        let mut shard = self.shard(shape).lock().expect("cache shard poisoned");
        let bucket = shard.entry(shape).or_default();
        let slot = Slot {
            last_used: tick,
            entry,
        };
        if let Some(existing) = bucket.iter_mut().find(|s| {
            s.entry.options == slot.entry.options
                && s.entry.stats == slot.entry.stats
                && same_shape(&s.entry.spec, &slot.entry.spec)
        }) {
            *existing = slot;
            return;
        }
        bucket.push(slot);
        if bucket.len() > self.variants_per_shape {
            if let Some(oldest) = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
            {
                bucket.swap_remove(oldest);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Shard-level capacity: evict the globally least-recent slot of this shard.
        while shard.values().map(Vec::len).sum::<usize>() > self.shard_capacity {
            let Some((&victim_shape, oldest_idx)) = shard
                .iter()
                .filter_map(|(k, b)| {
                    b.iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(i, s)| (k, i, s.last_used))
                })
                .min_by_key(|&(_, _, used)| used)
                .map(|(k, i, _)| (k, i))
            else {
                break;
            };
            let bucket = shard.get_mut(&victim_shape).expect("victim bucket exists");
            bucket.swap_remove(oldest_idx);
            if bucket.is_empty() {
                shard.remove(&victim_shape);
            }
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_hit(&self, elapsed: Duration) {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .hit_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_shape_hit(&self, elapsed: Duration) {
        self.counters.shape_hits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .recost_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recost_fallback(&self, elapsed: Duration) {
        self.counters
            .recost_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .miss_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self, elapsed: Duration) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.counters
            .miss_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the counters (relaxed loads; exact when quiescent).
    pub(crate) fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .map(|b| b.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        let c = &self.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            shape_hits: c.shape_hits.load(Ordering::Relaxed),
            recost_fallbacks: c.recost_fallbacks.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            entries,
            hit_ns: c.hit_ns.load(Ordering::Relaxed),
            recost_ns: c.recost_ns.load(Ordering::Relaxed),
            miss_ns: c.miss_ns.load(Ordering::Relaxed),
        }
    }
}
