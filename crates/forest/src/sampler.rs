//! Deterministic batch sampling driver.
//!
//! Mirrors the `for r' = 1..⌈log₂ r⌉ / for i = 1..2^{r'} in parallel` loops
//! of Algorithms 2–5: callers absorb forests in doubling batches and decide
//! after each batch whether to stop.
//!
//! Determinism: every forest's RNG is seeded from `(seed, global index)`
//! through SplitMix64, so the same forests are sampled for any thread
//! count, and partial accumulators are merged in a fixed order.

use crate::forest::Forest;
use crate::wilson::sample_forest_into;
use cfcc_graph::Graph;
use cfcc_linalg::pool;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// Accumulators that consume sampled forests.
pub trait ForestAccumulator: Send {
    /// Absorb one forest.
    fn absorb(&mut self, forest: &Forest);
    /// Merge a sibling accumulator produced by [`ForestAccumulator::fresh`].
    fn merge(&mut self, other: Self);
    /// An empty accumulator with the same configuration.
    fn fresh(&self) -> Self;
    /// Number of forests absorbed.
    fn count(&self) -> u64;
}

/// Sampling controls.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Master seed; every forest derives its RNG from `(seed, index)`.
    pub seed: u64,
    /// Worker threads (1 = serial). Results do not depend on this.
    pub threads: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            threads: 1,
        }
    }
}

/// SplitMix64 — the standard 64-bit seed mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn forest_rng(seed: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(index.wrapping_add(1))))
}

/// Sample `batch` forests with global indices `start_index..start_index+batch`
/// and absorb them into `acc`. With `cfg.threads > 1` the index range is
/// split into contiguous chunks, each absorbed into a fresh accumulator on
/// the linalg worker pool and merged back in chunk order. The same forests
/// are sampled for any thread count (seeding is by global index), so an
/// accumulator whose merge is exact — every one in this crate — ends in
/// the same state for every thread count.
pub fn absorb_batch<A: ForestAccumulator>(
    g: &Graph,
    in_root: &[bool],
    start_index: u64,
    batch: u64,
    cfg: &SamplerConfig,
    acc: &mut A,
) {
    if batch == 0 {
        return;
    }
    let threads = cfg.threads.max(1).min(batch as usize);
    if threads == 1 {
        absorb_range(g, in_root, cfg.seed, start_index..start_index + batch, acc);
        return;
    }
    // Contiguous chunking keeps merge order deterministic.
    let chunk = batch.div_ceil(threads as u64);
    let tasks = batch.div_ceil(chunk) as usize;
    let partials: Vec<Mutex<Option<A>>> =
        (0..tasks).map(|_| Mutex::new(Some(acc.fresh()))).collect();
    pool::run(threads, tasks, &|tix| {
        let lo = start_index + tix as u64 * chunk;
        let hi = (lo + chunk).min(start_index + batch);
        // Task `tix` alone touches slot `tix`, and never while absorbing, so
        // the locks are uncontended and cannot be poisoned.
        let slot = &partials[tix];
        let mut local = take(slot).expect("each task runs once");
        absorb_range(g, in_root, cfg.seed, lo..hi, &mut local);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(local);
    });
    for slot in &partials {
        acc.merge(take(slot).expect("every task has finished"));
    }
}

fn take<A>(slot: &Mutex<Option<A>>) -> Option<A> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Sample and absorb the forests with global indices in `range`.
fn absorb_range<A: ForestAccumulator>(
    g: &Graph,
    in_root: &[bool],
    seed: u64,
    range: std::ops::Range<u64>,
    acc: &mut A,
) {
    let mut forest = Forest::default();
    for i in range {
        let mut rng = forest_rng(seed, i);
        sample_forest_into(g, in_root, &mut rng, &mut forest);
        acc.absorb(&forest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;

    /// Toy accumulator: tallies parent-pointer sums (order-insensitive) and
    /// a sequence-sensitive checksum to verify deterministic merge order.
    #[derive(Debug, Clone, Default)]
    struct Tally {
        forests: u64,
        parent_sum: u64,
        checksum: u64,
    }

    impl ForestAccumulator for Tally {
        fn absorb(&mut self, f: &Forest) {
            self.forests += 1;
            let s: u64 = f
                .bottomup
                .iter()
                .map(|&x| f.parent[x as usize] as u64 + 1)
                .sum();
            self.parent_sum += s;
            self.checksum = splitmix64(self.checksum ^ s);
        }
        fn merge(&mut self, other: Self) {
            self.forests += other.forests;
            self.parent_sum += other.parent_sum;
            // order-sensitive combine
            self.checksum = splitmix64(self.checksum ^ other.checksum);
        }
        fn fresh(&self) -> Self {
            Self::default()
        }
        fn count(&self) -> u64 {
            self.forests
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::barabasi_albert(50, 2, &mut SmallRng::seed_from_u64(0));
        let mut in_root = vec![false; 50];
        in_root[0] = true;
        let cfg = SamplerConfig {
            seed: 42,
            threads: 1,
        };
        let mut a = Tally::default();
        absorb_batch(&g, &in_root, 0, 64, &cfg, &mut a);
        let mut b = Tally::default();
        absorb_batch(&g, &in_root, 0, 64, &cfg, &mut b);
        assert_eq!(a.parent_sum, b.parent_sum);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.count(), 64);
    }

    #[test]
    fn different_seeds_differ() {
        let g = generators::barabasi_albert(50, 2, &mut SmallRng::seed_from_u64(0));
        let mut in_root = vec![false; 50];
        in_root[3] = true;
        let mut a = Tally::default();
        absorb_batch(
            &g,
            &in_root,
            0,
            32,
            &SamplerConfig {
                seed: 1,
                threads: 1,
            },
            &mut a,
        );
        let mut b = Tally::default();
        absorb_batch(
            &g,
            &in_root,
            0,
            32,
            &SamplerConfig {
                seed: 2,
                threads: 1,
            },
            &mut b,
        );
        assert_ne!(a.parent_sum, b.parent_sum);
    }

    #[test]
    fn batch_indices_compose() {
        // Absorbing [0,32) then [32,64) equals absorbing [0,64).
        let g = generators::cycle(40);
        let mut in_root = vec![false; 40];
        in_root[11] = true;
        let cfg = SamplerConfig {
            seed: 7,
            threads: 1,
        };
        let mut split = Tally::default();
        absorb_batch(&g, &in_root, 0, 32, &cfg, &mut split);
        absorb_batch(&g, &in_root, 32, 32, &cfg, &mut split);
        let mut whole = Tally::default();
        absorb_batch(&g, &in_root, 0, 64, &cfg, &mut whole);
        assert_eq!(split.parent_sum, whole.parent_sum);
        assert_eq!(split.checksum, whole.checksum);
    }

    #[test]
    fn parallel_sums_match_serial() {
        let g = generators::barabasi_albert(60, 3, &mut SmallRng::seed_from_u64(5));
        let mut in_root = vec![false; 60];
        in_root[0] = true;
        in_root[9] = true;
        let mut serial = Tally::default();
        absorb_batch(
            &g,
            &in_root,
            0,
            40,
            &SamplerConfig {
                seed: 9,
                threads: 1,
            },
            &mut serial,
        );
        let mut par = Tally::default();
        absorb_batch(
            &g,
            &in_root,
            0,
            40,
            &SamplerConfig {
                seed: 9,
                threads: 4,
            },
            &mut par,
        );
        // Order-insensitive quantities must match exactly.
        assert_eq!(serial.parent_sum, par.parent_sum);
        assert_eq!(serial.count(), par.count());
    }

    #[test]
    fn zero_batch_is_noop() {
        let g = generators::cycle(10);
        let in_root = {
            let mut m = vec![false; 10];
            m[0] = true;
            m
        };
        let mut a = Tally::default();
        absorb_batch(&g, &in_root, 0, 0, &SamplerConfig::default(), &mut a);
        assert_eq!(a.count(), 0);
    }
}
