//! Deterministic batch sampling driver.
//!
//! Mirrors the `for r' = 1..⌈log₂ r⌉ / for i = 1..2^{r'} in parallel` loops
//! of Algorithms 2–5: callers absorb forests in doubling batches and decide
//! after each batch whether to stop.
//!
//! Determinism: every forest's RNG is seeded from `(seed, global index)`
//! through SplitMix64, so the same forests are sampled for any thread
//! count, and which worker absorbs a forest depends on its index and the
//! thread count alone.
//!
//! # Workers and halves
//!
//! Forest `i` of a stream belongs to half `i mod 2`. With `threads ≥ 2`,
//! worker `t` absorbs only forests of half `t mod 2`, dealt round-robin
//! among the workers of that half; a lone worker absorbs every forest.
//! Each worker absorbs into state that it alone writes and that lives as
//! long as the accumulator, so no batch allocates per-thread copies or
//! merges them back. An accumulator that keeps a buffer per half (the
//! electrical estimators' two independent halves) thus never has two
//! workers writing one buffer, and each half holds the same forests at
//! every thread count.

use crate::forest::Forest;
use crate::wilson::sample_forest_into;
use cfcc_graph::Graph;
use cfcc_linalg::pool;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// Accumulators that consume sampled forests through persistent workers.
pub trait ForestAccumulator: Send {
    /// What one worker writes while it absorbs its share of a batch.
    type Worker: ForestWorker;
    /// The state of workers `0..threads`, kept across batches (created on
    /// first use).
    fn workers(&mut self, threads: usize) -> &mut [Self::Worker];
    /// Fold what the workers absorbed during a batch into the totals.
    /// Called once after every batch.
    fn end_batch(&mut self) {}
    /// Number of forests absorbed.
    fn count(&self) -> u64;
}

/// One worker's share of a [`ForestAccumulator`].
pub trait ForestWorker: Send {
    /// Absorb the forest with global index `index` of the stream.
    fn absorb(&mut self, index: u64, forest: &Forest);
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

/// The RNG of forest `index` of the stream `seed`.
pub(crate) fn forest_rng(seed: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(index.wrapping_add(1))))
}

/// The worker of `threads` that absorbs forest `index` (see the module
/// docs): half `index mod 2` is dealt round-robin among workers
/// `h, h + 2, …` below `threads`.
fn worker_of(index: u64, threads: usize) -> usize {
    if threads == 1 {
        return 0;
    }
    let half = (index % 2) as usize;
    let workers = (threads - half).div_ceil(2) as u64;
    half + 2 * ((index / 2) % workers) as usize
}

/// Sample `batch` forests with global indices `start_index..start_index+batch`
/// and absorb them into `acc`: worker `t` of `cfg.threads` samples and
/// absorbs its forests (see the module docs) on the linalg worker pool,
/// then [`ForestAccumulator::end_batch`] folds the batch in. The same
/// forests are sampled for any thread count (seeding is by global index),
/// so an accumulator whose totals are exact sums — every one in this
/// crate — ends in the same state for every thread count.
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
    let threads = cfg.threads.max(1);
    let range = start_index..start_index + batch;
    let workers: Vec<Mutex<&mut A::Worker>> =
        acc.workers(threads).iter_mut().map(Mutex::new).collect();
    pool::run(threads, threads, &|t| {
        // Task `t` alone locks worker `t`, so the lock is uncontended and
        // cannot be poisoned.
        let mut worker = workers[t].lock().unwrap_or_else(PoisonError::into_inner);
        let mut forest = Forest::default();
        for i in range.clone().filter(|&i| worker_of(i, threads) == t) {
            let mut rng = forest_rng(cfg.seed, i);
            sample_forest_into(g, in_root, &mut rng, &mut forest);
            worker.absorb(i, &forest);
        }
    });
    drop(workers);
    acc.end_batch();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;

    /// Toy accumulator: per worker, the forests' indices, parent-pointer
    /// sums (order-insensitive) and a sequence-sensitive checksum.
    #[derive(Debug, Default)]
    struct Tally {
        workers: Vec<WorkerTally>,
    }

    #[derive(Debug, Default)]
    struct WorkerTally {
        indices: Vec<u64>,
        parent_sum: u64,
        checksum: u64,
    }

    impl ForestWorker for WorkerTally {
        fn absorb(&mut self, index: u64, f: &Forest) {
            self.indices.push(index);
            let s: u64 = f
                .bottomup
                .iter()
                .map(|&x| f.parent[x as usize] as u64 + 1)
                .sum();
            self.parent_sum += s;
            self.checksum = splitmix64(self.checksum ^ s);
        }
    }

    impl ForestAccumulator for Tally {
        type Worker = WorkerTally;
        fn workers(&mut self, threads: usize) -> &mut [WorkerTally] {
            let len = self.workers.len().max(threads);
            self.workers.resize_with(len, WorkerTally::default);
            &mut self.workers[..threads]
        }
        fn count(&self) -> u64 {
            self.workers.iter().map(|w| w.indices.len() as u64).sum()
        }
    }

    impl Tally {
        fn parent_sum(&self) -> u64 {
            self.workers.iter().map(|w| w.parent_sum).sum()
        }
        /// The workers' checksums, combined in worker order.
        fn checksum(&self) -> u64 {
            self.workers
                .iter()
                .fold(0, |c, w| splitmix64(c ^ w.checksum))
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
        assert_eq!(a.parent_sum(), b.parent_sum());
        assert_eq!(a.checksum(), b.checksum());
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
        assert_ne!(a.parent_sum(), b.parent_sum());
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
        assert_eq!(split.parent_sum(), whole.parent_sum());
        assert_eq!(split.checksum(), whole.checksum());
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
        assert_eq!(serial.parent_sum(), par.parent_sum());
        assert_eq!(serial.count(), par.count());
    }

    #[test]
    fn each_worker_absorbs_one_half() {
        // Forest i belongs to half i mod 2. Every forest is absorbed once
        // at every thread count, a lone worker absorbs all of them, and
        // with two or more workers, worker t absorbs half t mod 2 only.
        let g = generators::cycle(12);
        let mut in_root = vec![false; 12];
        in_root[0] = true;
        for threads in 1..=4 {
            let cfg = SamplerConfig { seed: 3, threads };
            let mut tally = Tally::default();
            absorb_batch(&g, &in_root, 0, 5, &cfg, &mut tally);
            absorb_batch(&g, &in_root, 5, 12, &cfg, &mut tally);
            let mut all: Vec<u64> = Vec::new();
            for (t, w) in tally.workers.iter().enumerate() {
                if threads > 1 {
                    assert!(
                        w.indices.iter().all(|&i| i % 2 == t as u64 % 2),
                        "{threads} threads, worker {t}: {:?}",
                        w.indices
                    );
                }
                all.extend(&w.indices);
            }
            all.sort_unstable();
            assert_eq!(all, (0..17).collect::<Vec<u64>>(), "{threads} threads");
        }
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
