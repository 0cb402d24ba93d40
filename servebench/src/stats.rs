//! The benchmark's own statistics: a seeded generator, percentiles with their sample counts,
//! quiet latencies, geometric means, a Zipf sampler and span self-time.
//!
//! Everything here derives from the command-line seed alone. Nothing reads a program hash
//! (such as a plan-cache fingerprint), so a change to the program's hashing cannot change the
//! inputs a run draws.

/// SplitMix64: a small, fast generator whose whole state is one `u64`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of the run: `derive(seed, stream, index)` seeds it.
    pub fn stream(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(derive(seed, stream, index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream`, item `index` of a run seeded with `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)).wrapping_add(index))
}

/// A percentile read off a sample, with the sample size behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank: a p99 needs at least ten.
    pub beyond: usize,
}

/// The 1-based nearest rank of the `q`-quantile (`0 < q ≤ 1`) of `n > 0` sorted values.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `values`; `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = nearest_rank(n, q);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The geometric mean of positive values; `None` for an empty sample or a non-positive value.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| v.is_finite() && *v > 0.0) {
        return None;
    }
    let mean_log = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_log.exp())
}

/// A uniform random sample of bounded size from a stream of values (reservoir sampling).
#[derive(Clone, Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: usize,
    rng: Rng,
}

impl Reservoir {
    pub fn new(capacity: usize, rng: Rng) -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let j = self.rng.below(self.seen);
            if j < self.capacity {
                self.samples[j] = value;
            }
        }
    }

    /// The retained values: all of them while no more than the capacity were pushed.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Latencies grouped by the kind of work a call did (its key), for figures that other tenants
/// of the host cannot move. They only ever slow a call down, and on a shared host they do so
/// for seconds at a time, so each key's cost is read off its quiet calls: the `quiet`-quantile
/// of a uniform sample of its latencies. Percentiles and the mean then count every call at
/// the quiet latency of its key.
#[derive(Clone, Debug)]
pub struct QuietLatency<K> {
    by_key: std::collections::BTreeMap<K, (usize, Reservoir)>,
    capacity: usize,
    quiet: f64,
}

impl<K: Ord + Copy> QuietLatency<K> {
    /// Keeps up to `capacity` latencies per key and reads each key's `quiet`-quantile.
    pub fn new(capacity: usize, quiet: f64) -> QuietLatency<K> {
        QuietLatency {
            by_key: Default::default(),
            capacity,
            quiet,
        }
    }

    pub fn push(&mut self, key: K, value: f64) {
        let index = self.by_key.len() as u64;
        let capacity = self.capacity;
        let (count, sample) = self
            .by_key
            .entry(key)
            .or_insert_with(|| (0, Reservoir::new(capacity, Rng::stream(0, 0, index))));
        *count += 1;
        sample.push(value);
    }

    /// The keys `keep` accepts, with their calls.
    pub fn select(&self, keep: impl Fn(&K) -> bool) -> QuietLatency<K> {
        QuietLatency {
            by_key: self
                .by_key
                .iter()
                .filter(|(key, _)| keep(key))
                .map(|(key, calls)| (*key, calls.clone()))
                .collect(),
            capacity: self.capacity,
            quiet: self.quiet,
        }
    }

    /// Calls recorded.
    pub fn calls(&self) -> usize {
        self.by_key.values().map(|(count, _)| count).sum()
    }

    /// Keys seen.
    pub fn keys(&self) -> usize {
        self.by_key.len()
    }

    /// Each key's quiet latency and call count, sorted by latency.
    fn quiet_latencies(&self) -> Vec<(f64, usize)> {
        let mut quiet: Vec<(f64, usize)> = self
            .by_key
            .values()
            .filter_map(|(count, sample)| {
                percentile(sample.samples(), self.quiet).map(|p| (p.value, *count))
            })
            .collect();
        quiet.sort_by(|a, b| a.0.total_cmp(&b.0));
        quiet
    }

    /// The `q`-quantile over all calls, each at its key's quiet latency. A key's calls fill a
    /// run of ranks and its latency sits at the middle of them; between two middles the quantile
    /// is interpolated, so it moves smoothly as calls shift from one key to the next rather
    /// than jumping from one key's latency to its neighbor's. `beyond` counts the calls past
    /// the nearest rank.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        let n = self.calls();
        let quiet = self.quiet_latencies();
        let (&(first, _), &(last, _)) = (quiet.first()?, quiet.last()?);
        let target = q * n as f64;
        let mut seen = 0.0;
        let mut value = last;
        let mut below = (0.0, first);
        for (latency, count) in quiet {
            let middle = seen + count as f64 / 2.0;
            if middle >= target {
                let (at, from) = below;
                value = if middle > at {
                    from + (latency - from) * ((target - at) / (middle - at)).max(0.0)
                } else {
                    latency
                };
                break;
            }
            below = (middle, latency);
            seen += count as f64;
        }
        Some(Percentile {
            value,
            samples: n,
            beyond: n - nearest_rank(n, q),
        })
    }

    /// The mean over all calls, each at its key's quiet latency.
    pub fn mean(&self) -> Option<f64> {
        let n = self.calls();
        (n > 0).then(|| {
            let total: f64 = self
                .quiet_latencies()
                .iter()
                .map(|&(value, count)| value * count as f64)
                .sum();
            total / n as f64
        })
    }
}

/// A Zipf distribution over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank by inverting the cumulative distribution.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One closed span as a sink sees it: children close before their parent, one level deeper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosedSpan {
    pub name: &'static str,
    pub depth: u32,
    pub nanos: u64,
}

/// The self time of each span, in input (closing) order: its duration minus the time its
/// direct children cover. Spans must arrive in closing order, as an `ObsvSink` receives them.
pub fn self_times(spans: &[ClosedSpan]) -> Vec<u64> {
    // children[d] sums the closed spans at depth d not yet claimed by a parent at depth d - 1.
    let mut children: Vec<u64> = Vec::new();
    spans
        .iter()
        .map(|s| {
            let d = s.depth as usize;
            if children.len() < d + 2 {
                children.resize(d + 2, 0);
            }
            let covered = std::mem::take(&mut children[d + 1]);
            children[d] += s.nanos;
            s.nanos.saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_rank_and_sample_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&values, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        // Order of the input does not matter.
        let mut shuffled = values.clone();
        Rng::stream(7, 0, 0).shuffle(&mut shuffled);
        assert_eq!(percentile(&shuffled, 0.99), Some(p99));
        let one = percentile(&[3.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (3.0, 1, 0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_everything_up_to_capacity_and_a_uniform_sample_beyond() {
        let mut small = Reservoir::new(10, Rng::stream(1, 0, 0));
        (0..5).for_each(|v| small.push(f64::from(v)));
        assert_eq!(small.samples(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut big = Reservoir::new(1000, Rng::stream(1, 0, 0));
        (0..100_000).for_each(|v| big.push(f64::from(v)));
        assert_eq!(big.samples().len(), 1000);
        // A uniform sample of 0..100000 has its median near 50000.
        let median = percentile(big.samples(), 0.5).unwrap().value;
        assert!((40_000.0..60_000.0).contains(&median), "{median}");
    }

    #[test]
    fn quiet_latency_counts_every_call_at_its_keys_quiet_quantile() {
        let mut quiet = QuietLatency::new(1000, 0.05);
        // Key 0: 100 calls of 10..=109 µs; key 1: 100 calls of 20..=119 µs; key 2: 10 calls
        // of 1000..=1009 µs.
        (0..100).for_each(|v| quiet.push(0, f64::from(10 + v)));
        (0..100).for_each(|v| quiet.push(1, f64::from(20 + v)));
        (0..10).for_each(|v| quiet.push(2, f64::from(1000 + v)));
        assert_eq!((quiet.calls(), quiet.keys()), (210, 3));
        // Keys 0 and 1 sit at their 5th values, 14 and 24, at the middles of ranks 1..=100
        // and 101..=200; key 2 at its first, 1000, at the middle of ranks 201..=210.
        let p50 = quiet.percentile(0.5).unwrap();
        assert_eq!((p50.samples, p50.beyond), (210, 105));
        assert!(
            (p50.value - (14.0 + 10.0 * 55.0 / 100.0)).abs() < 1e-9,
            "{p50:?}"
        );
        let p99 = quiet.percentile(0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (1000.0, 2));
        assert_eq!(quiet.percentile(0.01).unwrap().value, 14.0);
        let mean = quiet.mean().unwrap();
        assert!((mean - (100.0 * 14.0 + 100.0 * 24.0 + 10.0 * 1000.0) / 210.0).abs() < 1e-9);
        // Slow calls of a key above its quiet quantile move nothing.
        (0..4).for_each(|_| quiet.push(2, 1e6));
        assert_eq!(quiet.percentile(0.99).unwrap().value, 1000.0);
        let slow = quiet.select(|&key| key == 2);
        assert_eq!(
            (slow.calls(), slow.percentile(0.5).unwrap().value),
            (14, 1000.0)
        );
        let empty = QuietLatency::<u8>::new(10, 0.05);
        assert_eq!((empty.percentile(0.5), empty.mean()), (None, None));
    }

    #[test]
    fn geometric_mean_of_powers() {
        let g = geometric_mean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[4.0]), Some(4.0));
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn zipf_draws_repeat_under_a_seed_and_favor_low_ranks() {
        let zipf = Zipf::new(36, 1.0);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 0, 0);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11), "same seed, same draws");
        assert_ne!(draw(11), draw(12), "another seed, other draws");
        let draws = draw(11);
        assert!(draws.iter().all(|&r| r < 36));
        let count = |rank| draws.iter().filter(|&&r| r == rank).count();
        // P(rank 0) = 1 / H_36 ≈ 0.24 and P(rank 1) is half of it.
        assert!((1000..1400).contains(&count(0)), "{}", count(0));
        assert!(count(0) > count(1) && count(1) > count(5));
    }

    #[test]
    fn derived_streams_are_independent_of_each_other() {
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
        assert_eq!(
            Rng::stream(5, 6, 7).next_u64(),
            Rng::stream(5, 6, 7).next_u64()
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, depth, nanos| ClosedSpan { name, depth, nanos };
        // root(100) ⊃ { a(30) ⊃ { a1(10) }, b(20) }, then a second root(5).
        let spans = [
            span("a1", 2, 10),
            span("a", 1, 30),
            span("b", 1, 20),
            span("root", 0, 100),
            span("root", 0, 5),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 20, 50, 5]);
        // A child cannot drive its parent's self time below zero (clock granularity).
        assert_eq!(self_times(&[span("c", 1, 9), span("p", 0, 8)]), vec![9, 0]);
    }
}
