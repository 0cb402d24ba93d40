//! A fixed piece of work that calls nothing of the program, timed between blocks to read the
//! host's speed. On a shared virtual machine the same code runs up to twice as slowly for
//! minutes at a time, and a whole run can land in such a stretch. Every timing a run reports
//! is scaled by how fast the reference ran in that run, so it reads as on a host where the
//! reference takes [`NOMINAL_US`].
//!
//! The reference allocates nothing and runs twice in a row, timing the second run, so what
//! the program left in the caches or the allocator does not reach it: a change to the
//! program cannot change the scale.

use crate::stats::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference's quiet time on the 2-core virtual machine the benchmark was tuned on, µs.
/// Scaled timings read as on a host where the reference takes this long.
pub const NOMINAL_US: f64 = 400.0;
/// The reference runs once per this much measured time.
pub const EVERY: Duration = Duration::from_millis(50);

const KEYS: usize = 16_384;
const TABLE_BITS: u32 = 15;

/// The reference's data: seeded keys, a buffer to sort them in, and an open-addressing table.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = Rng::stream(0, 0, 0);
        Reference {
            keys: (0..KEYS).map(|_| rng.next_u64() | 1).collect(),
            sorted: vec![0; KEYS],
            table: vec![0; 1 << TABLE_BITS],
        }
    }

    /// Runs the reference twice and returns the second run's latency, µs.
    pub fn time(&mut self) -> f64 {
        black_box(self.work());
        let start = Instant::now();
        black_box(self.work());
        start.elapsed().as_nanos() as f64 / 1e3
    }

    /// Integer arithmetic, a sort, and hash-table inserts: the kinds of work the program does.
    fn work(&mut self) -> u64 {
        let mut x = self.keys[0];
        for i in 0..50_000u64 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.table.fill(0);
        let mask = (1 << TABLE_BITS) - 1;
        for &key in &self.sorted[..KEYS / 2] {
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TABLE_BITS)) as usize;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = key;
        }
        x ^ self.sorted[KEYS / 2] ^ self.table[mask / 2]
    }
}
