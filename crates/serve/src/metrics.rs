//! Server-side observability: request counters, the batch occupancy
//! histogram, queue depth, and solver work aggregated across every batched
//! solve — everything the `stats` response reports.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use cfcc_linalg::SolveStats;
use cfcc_util::json::{self, JsonObject};

use crate::poison::lock_recover;

/// Widths at or above this bucket are folded into the last histogram bin.
const MAX_TRACKED_WIDTH: usize = 128;

/// Shared counters; all methods are `&self` and thread-safe.
#[derive(Default)]
pub struct Metrics {
    pub eval_group: AtomicU64,
    pub topk_greedy: AtomicU64,
    pub node_centrality: AtomicU64,
    pub load_graph: AtomicU64,
    pub errors: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_misses: AtomicU64,
    /// Requests refused by admission control (`overloaded` responses).
    pub shed: AtomicU64,
    /// Panics caught and isolated (handler dispatch, factor builds,
    /// batched solves). Nonzero means a request died; the daemon did not.
    pub panics: AtomicU64,
    /// Requests that arrived stamped `retry=<n>` — client backoff retries
    /// actually observed by the server.
    pub retries_observed: AtomicU64,
    /// Iterative solves interrupted mid-sweep by the in-solve stop hook
    /// (deadline expiry or shutdown), as opposed to deadline checks at
    /// batch boundaries.
    pub solver_cancelled: AtomicU64,
    /// Requests currently being served (accepted, not yet answered).
    pub active: AtomicI64,
    /// Batched solve executions by fused column width: histogram[w] =
    /// batches that fused exactly `w` columns (capped at
    /// [`MAX_TRACKED_WIDTH`]).
    occupancy: Mutex<Vec<u64>>,
    /// Jobs that went through the batcher (each one request's RHS block).
    batched_jobs: AtomicU64,
    /// Solve executions (each one `solve_mat` call).
    batches: AtomicU64,
    /// Solver work accumulated across every batched solve (deltas of the
    /// factors' cumulative stats, so shared factors are not double
    /// counted).
    solve: Mutex<SolveStats>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one executed batch: `jobs` requests fused into one
    /// `solve_mat` of `width` columns.
    pub fn record_batch(&self, jobs: usize, width: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
        let mut hist = lock_recover(&self.occupancy);
        let w = width.min(MAX_TRACKED_WIDTH);
        if hist.len() <= w {
            hist.resize(w + 1, 0);
        }
        hist[w] += 1;
    }

    /// Fold the per-solve delta of a factor's cumulative [`SolveStats`]
    /// into the server aggregate.
    pub fn absorb_solve_delta(&self, before: SolveStats, after: SolveStats) {
        let mut agg = lock_recover(&self.solve);
        agg.solves += after.solves - before.solves;
        agg.iterations += after.iterations - before.iterations;
        agg.flops += after.flops - before.flops;
        agg.max_rel_residual = agg.max_rel_residual.max(after.max_rel_residual);
        agg.last_rel_residual = after.last_rel_residual;
        agg.precond_shift = agg.precond_shift.max(after.precond_shift);
    }

    /// Mean fused width over all executed batches.
    pub fn mean_batch_width(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            return 0.0;
        }
        let hist = lock_recover(&self.occupancy);
        let total: u64 = hist.iter().enumerate().map(|(w, &c)| w as u64 * c).sum();
        total as f64 / batches as f64
    }

    /// Render the `stats` JSON fragment covering batching + solver work.
    /// `queue_depth` is sampled by the caller (the queue owns its lock).
    pub fn to_json(
        &self,
        cache: &crate::cache::CacheCounters,
        queue_depth: usize,
        uptime_secs: f64,
        graphs: &[(String, u64, usize, usize)],
    ) -> String {
        let hist = lock_recover(&self.occupancy);
        let occupancy = json::array(hist.iter().enumerate().filter(|(_, &c)| c > 0).map(
            |(w, &c)| {
                JsonObject::new()
                    .int("width", w as i64)
                    .int("batches", c as i64)
                    .render()
            },
        ));
        drop(hist);
        let solve = *lock_recover(&self.solve);
        let graphs_json = json::array(graphs.iter().map(|(name, epoch, n, m)| {
            JsonObject::new()
                .str("name", name)
                .int("epoch", *epoch as i64)
                .int("n", *n as i64)
                .int("m", *m as i64)
                .render()
        }));
        JsonObject::new()
            .num("uptime_seconds", uptime_secs)
            .raw(
                "requests",
                JsonObject::new()
                    .int("eval_group", self.eval_group.load(Ordering::Relaxed) as i64)
                    .int(
                        "topk_greedy",
                        self.topk_greedy.load(Ordering::Relaxed) as i64,
                    )
                    .int(
                        "node_centrality",
                        self.node_centrality.load(Ordering::Relaxed) as i64,
                    )
                    .int("load_graph", self.load_graph.load(Ordering::Relaxed) as i64)
                    .int("errors", self.errors.load(Ordering::Relaxed) as i64)
                    .int("cancelled", self.cancelled.load(Ordering::Relaxed) as i64)
                    .int(
                        "deadline_misses",
                        self.deadline_misses.load(Ordering::Relaxed) as i64,
                    )
                    .int("shed", self.shed.load(Ordering::Relaxed) as i64)
                    .int("panics", self.panics.load(Ordering::Relaxed) as i64)
                    .int(
                        "retries_observed",
                        self.retries_observed.load(Ordering::Relaxed) as i64,
                    )
                    .int(
                        "solver_cancelled",
                        self.solver_cancelled.load(Ordering::Relaxed) as i64,
                    )
                    .int("active", self.active.load(Ordering::Relaxed))
                    .render(),
            )
            .raw(
                "cache",
                JsonObject::new()
                    .int("hits", cache.hits as i64)
                    .int("misses", cache.misses as i64)
                    .int("evictions", cache.evictions as i64)
                    .int("entries", cache.entries as i64)
                    .num("hit_rate", cache.hit_rate())
                    .render(),
            )
            .raw(
                "batching",
                JsonObject::new()
                    .int("batches", self.batches.load(Ordering::Relaxed) as i64)
                    .int(
                        "batched_jobs",
                        self.batched_jobs.load(Ordering::Relaxed) as i64,
                    )
                    .num("mean_width", self.mean_batch_width())
                    .int("queue_depth", queue_depth as i64)
                    .raw("occupancy", occupancy)
                    .render(),
            )
            .raw(
                "solve",
                JsonObject::new()
                    .int("solves", solve.solves as i64)
                    .int("iterations", solve.iterations as i64)
                    .int("flops", solve.flops as i64)
                    .num("max_rel_residual", solve.max_rel_residual)
                    .num("precond_shift", solve.precond_shift)
                    .render(),
            )
            .raw("graphs", graphs_json)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounters;

    #[test]
    fn occupancy_histogram_and_mean_width() {
        let m = Metrics::new();
        m.record_batch(1, 8);
        m.record_batch(3, 24);
        m.record_batch(1, 8);
        assert!((m.mean_batch_width() - 40.0 / 3.0).abs() < 1e-12);
        m.shed.fetch_add(3, Ordering::Relaxed);
        m.panics.fetch_add(1, Ordering::Relaxed);
        m.retries_observed.fetch_add(2, Ordering::Relaxed);
        let j = m.to_json(&CacheCounters::default(), 2, 1.0, &[]);
        assert!(j.contains(r#""queue_depth":2"#));
        assert!(j.contains(r#""shed":3"#));
        assert!(j.contains(r#""panics":1"#));
        assert!(j.contains(r#""retries_observed":2"#));
        assert!(j.contains(r#""solver_cancelled":0"#));
        assert!(j.contains(r#"{"width":8,"batches":2}"#));
        assert!(j.contains(r#"{"width":24,"batches":1}"#));
        assert!(j.contains(r#""batched_jobs":5"#));
    }

    #[test]
    fn solve_deltas_accumulate_without_double_counting() {
        let m = Metrics::new();
        let before = SolveStats {
            solves: 10,
            iterations: 100,
            flops: 1000,
            ..SolveStats::default()
        };
        let after = SolveStats {
            solves: 14,
            iterations: 160,
            flops: 1500,
            max_rel_residual: 1e-9,
            precond_shift: 0.25,
            ..SolveStats::default()
        };
        m.absorb_solve_delta(before, after);
        m.absorb_solve_delta(after, after); // no-op delta
        let j = m.to_json(&CacheCounters::default(), 0, 0.0, &[]);
        assert!(j.contains(r#""solves":4"#));
        assert!(j.contains(r#""iterations":60"#));
        assert!(j.contains(r#""flops":500"#));
        assert!(j.contains(r#""precond_shift":0.25"#));
    }
}
