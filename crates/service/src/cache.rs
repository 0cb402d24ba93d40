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
//!   plan of the nearest statistics variant ([`QuerySpec::stats_distance`]), ties to most
//!   recent, instead of re-optimizing (and then [`PlanCache::insert`]s the outcome as a new
//!   variant). Recency alone is a poor guide: in a feedback cycle the most recently used
//!   variant is often an observed re-plan at executed scale, far from a declared-scale request.
//! * **Miss** — nothing cached (or a hash collision / relabeling mismatch, detected by the
//!   structural comparison and treated as a miss for safety).
//!
//! Sharding keeps the lock granularity small under the concurrent batch driver: a lookup locks
//! one shard for a hash probe and a clone, never for the (comparatively long) optimization
//! itself. Recency is a relaxed global tick; eviction scans the one affected shard (shard
//! capacities are small) for the oldest variant.

use crate::fingerprint::Fingerprint;
use crate::lock_recovering;
use dphyp::{same_shape, PlanTier, QuerySpec};
use qo_plan::PlanNode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Maximum statistics variants kept per shape. Distinct queries with *isomorphic* join graphs
/// (ubiquitous in JOB-style workloads: the `a`/`b`/`c` variants of a query differ only in
/// constants, i.e. statistics) share a shape bucket; keeping several variants lets them all
/// hit instead of thrashing one slot.
const VARIANTS_PER_SHAPE: usize = 8;

/// Sizing of the plan cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOptions {
    /// Maximum number of cached plans across all shards.
    pub capacity: usize,
    /// Number of independently locked shards. Clamped to at least 1; shard capacity is
    /// `capacity / shards`, rounded up.
    pub shards: usize,
}

impl Default for CacheOptions {
    /// 1024 plans over 8 shards.
    fn default() -> Self {
        CacheOptions {
            capacity: 1024,
            shards: 8,
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
    /// The winning plan, with its cost and estimated cardinality at the root; a drifted
    /// variant re-costs it bottom-up. Shared with the answers served from it.
    pub plan: Arc<PlanNode>,
    /// The tier that produced the join order.
    pub tier: PlanTier,
}

/// Outcome of a cache lookup.
pub(crate) enum Lookup {
    /// Shape and statistics match: the cached plan is current.
    Hit { plan: Arc<PlanNode>, tier: PlanTier },
    /// Same shape, drifted statistics: re-cost the plan of the nearest statistics variant
    /// (ties to most recent), `distance` away from the request
    /// ([`QuerySpec::stats_distance`]).
    Shape {
        plan: Arc<PlanNode>,
        tier: PlanTier,
        distance: f64,
    },
    /// Nothing reusable.
    Miss,
}

/// Aggregated telemetry of the plan cache (all counters since construction).
///
/// A view over the service's metrics registry, built by `Service::cache_stats`: the outcome
/// counts are the live `qo_cache_*_total` counters, and the latency totals are the sums of the
/// matching `qo_serve_*_ns` histograms. Each serve is timed by one clock, from sampler
/// admission (after canonicalization) to the cache path's answer; it excludes
/// canonicalization, the mapping into the caller's ids, regret pinning and flight recording.
/// On a warm hit canonicalization is the largest layer, so [`avg_hit_ns`](Self::avg_hit_ns)
/// sits well below the end-to-end latency a caller measures around `Service::plan_spec`.
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
    tick: AtomicU64,
}

impl PlanCache {
    pub(crate) fn new(options: CacheOptions) -> PlanCache {
        let shards = options.shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: options.capacity.div_ceil(shards).max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// Locks the shard holding `shape`. A shard poisoned by a panic under its lock is cleared:
    /// it is only a cache, and the next serve of each of its shapes re-plans as a miss.
    fn lock_shard(&self, shape: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(shape % self.shards.len() as u64) as usize];
        lock_recovering(shard, Shard::clear)
    }

    /// Poisons the shard holding `shape` the way a serve that panics under its lock would.
    #[cfg(test)]
    pub(crate) fn poison_shard(&self, shape: u64) {
        std::thread::scope(|scope| {
            let panicked = scope
                .spawn(|| {
                    let _shard = self.lock_shard(shape);
                    panic!("a serve panics while holding the shard lock");
                })
                .join();
            assert!(panicked.is_err());
        });
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a canonicalized query. The caller records the outcome (it knows how a `Shape`
    /// outcome resolved).
    ///
    /// An exact variant (same options, same stats, same spec) is a [`Lookup::Hit`]; otherwise
    /// the same-options variant with the same skeleton whose statistics are nearest the
    /// request's ([`QuerySpec::stats_distance`], ties to most recently used) seeds a
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
        let mut shard = self.lock_shard(fp.shape);
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
                tier: slot.entry.tier,
            };
        }
        if let Some((distance, slot)) = bucket
            .iter_mut()
            .filter(|s| s.entry.options == options_key && same_shape(&s.entry.spec, canonical_spec))
            .map(|s| (s.entry.spec.stats_distance(canonical_spec), s))
            .min_by(|(da, a), (db, b)| da.total_cmp(db).then_with(|| b.last_used.cmp(&a.last_used)))
        {
            slot.last_used = tick;
            return Lookup::Shape {
                plan: slot.entry.plan.clone(),
                tier: slot.entry.tier,
                distance,
            };
        }
        Lookup::Miss
    }

    /// Inserts a statistics variant for a shape: replaces the variant with the same stats key
    /// (the refreshed epoch of one logical query), otherwise appends — evicting the
    /// least-recently-used variant of the bucket, then of the shard, when caps are exceeded.
    /// Returns the number of entries evicted.
    pub(crate) fn insert(&self, shape: u64, entry: Entry) -> u64 {
        let tick = self.next_tick();
        let mut shard = self.lock_shard(shape);
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
            return 0;
        }
        let mut evicted = 0;
        bucket.push(slot);
        if bucket.len() > VARIANTS_PER_SHAPE {
            if let Some(oldest) = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
            {
                bucket.swap_remove(oldest);
                evicted += 1;
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
            evicted += 1;
        }
        evicted
    }

    /// Plans currently cached (locks each shard in turn; exact when quiescent).
    pub(crate) fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                lock_recovering(s, Shard::clear)
                    .values()
                    .map(|b| b.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: u64 = 7;
    const SHAPE: u64 = 0x5EED;

    /// A 4-relation chain with the given cardinalities.
    fn chain(cards: [f64; 4]) -> QuerySpec {
        let mut b = QuerySpec::builder(4);
        for (r, c) in cards.into_iter().enumerate() {
            b.set_cardinality(r, c);
        }
        for r in 0..3 {
            b.add_simple_edge(r, r + 1, 0.01);
        }
        b.build()
    }

    /// Caches `spec` under stats key `stats`, with a one-scan plan whose relation id `tag`
    /// identifies the variant a lookup returns.
    fn insert(cache: &PlanCache, spec: QuerySpec, stats: u64, tag: usize) {
        let plan = Arc::new(PlanNode::scan(tag, 1.0));
        let entry = Entry {
            spec,
            stats,
            options: OPTIONS,
            plan,
            tier: PlanTier::Exact,
        };
        assert_eq!(cache.insert(SHAPE, entry), 0);
    }

    /// The donor a shape lookup of `spec` picks: its tag and its distance.
    fn donor(cache: &PlanCache, spec: &QuerySpec) -> (usize, f64) {
        let fp = Fingerprint {
            shape: SHAPE,
            stats: 0xD21F7,
        };
        match cache.lookup(fp, OPTIONS, spec) {
            Lookup::Shape { plan, distance, .. } => (plan.relation_ids()[0], distance),
            Lookup::Hit { .. } => panic!("a drifted request cannot hit"),
            Lookup::Miss => panic!("a cached shape cannot miss"),
        }
    }

    #[test]
    fn a_near_variant_wins_over_a_more_recent_far_variant() {
        let cache = PlanCache::new(CacheOptions::default());
        let request = [1e6, 2e5, 50.0, 3e4];
        insert(&cache, chain([1.1e6, 2e5, 50.0, 3e4]), 1, 0);
        // The executed-scale variant a feedback cycle inserts last.
        insert(&cache, chain([6.0, 6.0, 5.0, 6.0]), 2, 1);
        let (tag, distance) = donor(&cache, &chain(request));
        assert_eq!(tag, 0, "the nearest variant seeds the re-cost");
        assert!((distance - 1.1f64.ln()).abs() < 1e-12, "{distance}");
    }

    #[test]
    fn equal_distances_go_to_the_most_recently_used_variant() {
        let cache = PlanCache::new(CacheOptions::default());
        let (a, b) = ([2e3, 1e3, 1e3, 1e3], [1e3, 2e3, 1e3, 1e3]);
        insert(&cache, chain(a), 1, 0);
        insert(&cache, chain(b), 2, 1);
        let request = chain([1e3; 4]);
        // Both lie ln 2 away: the later insert wins, and the win refreshes it.
        assert_eq!(donor(&cache, &request), (1, 2f64.ln()));
        assert_eq!(donor(&cache, &request), (1, 2f64.ln()));
        // An exact hit on the other variant makes it the most recent.
        let hit = cache.lookup(
            Fingerprint {
                shape: SHAPE,
                stats: 1,
            },
            OPTIONS,
            &chain(a),
        );
        assert!(matches!(hit, Lookup::Hit { .. }));
        assert_eq!(donor(&cache, &request), (0, 2f64.ln()));
    }

    #[test]
    fn a_zero_cardinality_gives_a_finite_distance() {
        let cache = PlanCache::new(CacheOptions::default());
        insert(&cache, chain([0.0, 1e3, 1e3, 1e3]), 1, 0);
        insert(&cache, chain([1e3, 1e3, 1e3, 1e6]), 2, 1);
        // 0 and 0.25 both floor to 1: the zero-cardinality variant is at distance 0 from the
        // request on relation 0, and so the nearer one.
        let (tag, distance) = donor(&cache, &chain([0.25, 1e3, 1e3, 1e3]));
        assert_eq!((tag, distance), (0, 0.0));
        let (tag, distance) = donor(&cache, &chain([1e3, 0.0, 1e3, 1e6]));
        assert_eq!(tag, 1);
        assert!(distance.is_finite(), "{distance}");
        assert!((distance - 1e3f64.ln()).abs() < 1e-12, "{distance}");
    }
}
