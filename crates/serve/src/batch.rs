//! The cross-request batching core.
//!
//! Connection threads never solve; they submit a [`SolveJob`] (a
//! right-hand-side block plus a reply channel) and block on the reply. A
//! dedicated batcher thread collects jobs over a short window, groups them
//! by [`FactorKey`], fuses each group's RHS columns into **one** blocked
//! `solve_mat` call against the shared cached factor, and scatters the
//! solution columns back to the per-request responders.
//!
//! Why this wins: the blocked multi-RHS PCG (PR 4) advances all columns in
//! lockstep, sharing each operator and preconditioner sweep across the
//! block — so 8 concurrent 8-column requests fused into one 64-column
//! solve traverse the matrix once per iteration instead of eight times.
//! Batching off (`--no-batching`) degenerates to per-job solves against
//! the same factor mutex, the baseline `tests/daemon.rs` checks batched
//! answers against.
//!
//! Deadlines are enforced twice. At the batch boundary, a job whose
//! deadline already passed is answered with a `deadline` error instead of
//! joining a solve (and a request whose deadline passed before submission
//! never enqueues at all — the handler checks first). **Inside** the
//! solve, the batcher installs a [`StopHook`] on the cached factor set to
//! the earliest deadline in the chunk: when it fires, the PCG sweep
//! returns a typed interruption, expired jobs are answered, and the
//! survivors' solve resumes **warm-started from the partial iterate** —
//! no work is thrown away and no job waits on a slower sibling's full
//! convergence. The same hook path force-cancels in-flight solves when a
//! shutdown drain times out ([`BatchQueue::cancel_inflight`]).
//!
//! A panicking solve (injected fault, or a real bug) is caught per chunk:
//! every job in the chunk gets an `internal` error, the offending factor's
//! cache entry is evicted, and the batcher thread keeps serving.
//!
//! Group solves run through `cfcc_linalg::pool` when several keys are
//! ready at once, so distinct factors solve in parallel while same-key
//! work fuses.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cfcc_linalg::{pool, DenseMatrix, LinalgError, SddFactor, StopCause, StopHook};

use crate::cache::{CacheEntry, FactorCache, FactorKey};
use crate::fault::FaultPlan;
use crate::metrics::Metrics;
use crate::poison::{lock_recover, wait_recover};
use crate::protocol::{ErrorCode, ServeError};

/// What a finished job hands back to its requester.
pub struct SolveOutcome {
    /// Solution block, same shape as the submitted RHS.
    pub x: DenseMatrix,
    /// Total fused width of the batch this job rode in.
    pub batch_width: usize,
    /// Requests fused into that batch (1 = solo).
    pub batch_jobs: usize,
}

/// One request's solve: an RHS block against a cached factor.
pub struct SolveJob {
    pub key: FactorKey,
    /// Resolved at submit time so cache eviction can't strand the job.
    pub entry: Arc<CacheEntry>,
    pub rhs: DenseMatrix,
    pub deadline: Option<Instant>,
    pub reply: Sender<Result<SolveOutcome, ServeError>>,
}

/// What the batcher needs from the server besides the queue itself —
/// passed in by the owning thread so the queue stays free of `Arc` cycles
/// back into the server state.
pub struct BatchCtx<'a> {
    pub metrics: &'a Metrics,
    /// Evicted on a caught solve panic so the (possibly corrupt) factor
    /// is rebuilt instead of reused.
    pub cache: &'a FactorCache,
    pub fault: Arc<FaultPlan>,
}

/// Shared job queue + batcher control.
pub struct BatchQueue {
    jobs: Mutex<VecDeque<SolveJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Set by [`BatchQueue::cancel_inflight`]; polled by every in-flight
    /// solve's stop hook. One-way: only used when a shutdown drain times
    /// out, after which no new solves are accepted anyway.
    force_cancel: Arc<AtomicBool>,
    /// Collection window: after the first job arrives, wait this long for
    /// companions before executing. Zero = execute as soon as drained.
    window: Duration,
    /// Fuse jobs per key (true) or solve each job alone (false — the
    /// measured baseline).
    batching: bool,
    /// Hard cap on fused columns per `solve_mat` call.
    max_batch_cols: usize,
}

impl BatchQueue {
    pub fn new(batching: bool, window: Duration, max_batch_cols: usize) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            force_cancel: Arc::new(AtomicBool::new(false)),
            window,
            batching,
            max_batch_cols: max_batch_cols.max(1),
        }
    }

    /// Enqueue a job and wake the batcher. A job submitted after
    /// [`BatchQueue::stop`] is answered with `shutting_down` immediately.
    pub fn submit(&self, job: SolveJob) {
        {
            let mut jobs = lock_recover(&self.jobs);
            // The shutdown check must happen under the jobs lock: the
            // batcher reads the flag and drains the queue under this same
            // lock, so an unchecked push could land *after* its final
            // drain and strand the job (its requester would block on the
            // reply channel forever). The `batch-stranded-submit` model in
            // cfcc-audit finds that interleaving in one schedule.
            if !self.shutdown.load(Ordering::Relaxed) {
                jobs.push_back(job);
                drop(jobs);
                self.available.notify_all();
                return;
            }
        }
        let _ = job.reply.send(Err(ServeError::new(
            ErrorCode::ShuttingDown,
            "server shutting down",
        )));
    }

    /// Jobs currently waiting (the `stats` queue-depth gauge and the
    /// admission-control depth bound).
    pub fn depth(&self) -> usize {
        lock_recover(&self.jobs).len()
    }

    /// Stop the batcher loop after the current drain.
    pub fn stop(&self) {
        // The store must happen while holding the jobs lock. The batcher's
        // wait loop checks the flag and then releases the lock inside
        // `Condvar::wait` as one atomic step; storing without the lock can
        // fire `notify_all` in the window where the batcher has checked
        // but not yet registered as a waiter — a lost wakeup that parks
        // the batcher (and the shutdown drain behind it) forever. The
        // `batch-unlocked-stop` model in cfcc-audit demonstrates exactly
        // that deadlock.
        let guard = lock_recover(&self.jobs);
        self.shutdown.store(true, Ordering::Relaxed);
        drop(guard);
        self.available.notify_all();
    }

    /// Interrupt every in-flight solve through its stop hook (shutdown
    /// drain timed out; jobs get `shutting_down` errors). Irreversible.
    pub fn cancel_inflight(&self) {
        self.force_cancel.store(true, Ordering::Relaxed);
    }

    fn drain_queue(&self) -> Vec<SolveJob> {
        lock_recover(&self.jobs).drain(..).collect()
    }

    /// The batcher thread body: loop until [`BatchQueue::stop`], then
    /// answer any stragglers with a shutdown error.
    pub fn run_batcher(&self, ctx: &BatchCtx<'_>) {
        loop {
            // Wait for work.
            let mut guard = lock_recover(&self.jobs);
            while guard.is_empty() && !self.shutdown.load(Ordering::Relaxed) {
                guard = wait_recover(&self.available, guard);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                for job in guard.drain(..) {
                    let _ = job.reply.send(Err(ServeError::new(
                        ErrorCode::ShuttingDown,
                        "server shutting down",
                    )));
                }
                return;
            }
            drop(guard);
            // Collection window: let concurrent requests that share a
            // factor catch up so they fuse (under saturation the queue
            // refills on its own and the sleep barely matters).
            if self.batching && !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            let jobs = self.drain_queue();
            if jobs.is_empty() {
                continue;
            }
            self.execute(jobs, ctx);
        }
    }

    /// Group, fuse, solve, scatter.
    fn execute(&self, jobs: Vec<SolveJob>, ctx: &BatchCtx<'_>) {
        // Group by key, preserving arrival order within a group.
        let mut groups: Vec<(FactorKey, Vec<SolveJob>)> = Vec::new();
        for job in jobs {
            if !self.batching {
                // Baseline mode: every job is its own group.
                groups.push((job.key.clone(), vec![job]));
                continue;
            }
            match groups.iter_mut().find(|(k, _)| *k == job.key) {
                Some((_, g)) => g.push(job),
                None => groups.push((job.key.clone(), vec![job])),
            }
        }
        // Split any group that exceeds the fused-column cap.
        let mut chunks: Vec<Vec<SolveJob>> = Vec::new();
        for (_, group) in groups {
            let mut current: Vec<SolveJob> = Vec::new();
            let mut cols = 0usize;
            for job in group {
                let jc = job.rhs.cols();
                if !current.is_empty() && cols + jc > self.max_batch_cols {
                    chunks.push(std::mem::take(&mut current));
                    cols = 0;
                }
                cols += jc;
                current.push(job);
            }
            if !current.is_empty() {
                chunks.push(current);
            }
        }
        // Distinct factors can solve in parallel through the worker pool;
        // same-key chunks are consecutive but rarely co-occur (the cap is
        // far above a window's worth of columns).
        let slots: Vec<Mutex<Option<Vec<SolveJob>>>> =
            chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let threads = slots.len().min(pool::max_workers());
        pool::run(threads, slots.len(), &|i| {
            let Some(chunk) = lock_recover(&slots[i]).take() else {
                // Unreachable by the pool contract (each index runs once);
                // an empty slot means there is simply nothing to solve.
                return;
            };
            // Panic isolation: a chunk that blows up answers its own jobs
            // with `internal`, evicts the (possibly corrupt) factor, and
            // leaves the batcher and its siblings running.
            let key = chunk[0].key.clone();
            let repliers: Vec<Sender<Result<SolveOutcome, ServeError>>> =
                chunk.iter().map(|j| j.reply.clone()).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| self.execute_chunk(chunk, ctx)));
            if outcome.is_err() {
                ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
                ctx.cache.remove(&key);
                let e = ServeError::new(
                    ErrorCode::Internal,
                    "solve panicked; factor evicted — retry the request",
                );
                for reply in &repliers {
                    // Jobs answered before the panic just drop the
                    // duplicate message on their closed receiver.
                    let _ = reply.send(Err(e.clone()));
                }
            }
        });
    }

    /// Solve one fused chunk (all jobs share a key) and scatter the
    /// columns, restarting from the partial iterate whenever an in-solve
    /// deadline expiry drops jobs from the fused block.
    fn execute_chunk(&self, mut jobs: Vec<SolveJob>, ctx: &BatchCtx<'_>) {
        // Deadline check at the batch boundary: expired jobs error out
        // instead of joining the solve.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs.drain(..) {
            if job.deadline.is_some_and(|d| now >= d) {
                ctx.metrics.deadline_misses.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(ServeError::new(
                    ErrorCode::Deadline,
                    "deadline expired before solve",
                )));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            return;
        }
        ctx.fault.on_batched_solve();
        let entry = Arc::clone(&live[0].entry);
        let dim = live[0].rhs.rows();
        let width: usize = live.iter().map(|j| j.rhs.cols()).sum();
        ctx.metrics.record_batch(live.len(), width);

        let mut factor_slot = entry.factor();
        let Some(factor) = factor_slot.as_mut() else {
            let e = ServeError::new(ErrorCode::Internal, "cache entry lost its factor");
            for job in &live {
                let _ = job.reply.send(Err(e.clone()));
            }
            return;
        };
        let before = factor.stats();

        // Warm-startable solution block, column-aligned with `live`.
        let mut x = DenseMatrix::zeros(dim, width);
        loop {
            let fused = fuse_rhs(&live, dim);
            factor.set_stop(chunk_stop_hook(
                live.iter().filter_map(|j| j.deadline).min(),
                Arc::clone(&self.force_cancel),
                Arc::clone(&ctx.fault),
            ));
            let solved = factor.solve_mat_into(&fused, &mut x);
            match solved {
                Ok(()) => {
                    let mut at = 0;
                    for job in &live {
                        let jc = job.rhs.cols();
                        let mut part = DenseMatrix::zeros(dim, jc);
                        for i in 0..dim {
                            part.row_mut(i).copy_from_slice(&x.row(i)[at..at + jc]);
                        }
                        at += jc;
                        let _ = job.reply.send(Ok(SolveOutcome {
                            x: part,
                            batch_width: width,
                            batch_jobs: live.len(),
                        }));
                    }
                    break;
                }
                Err(LinalgError::DeadlineExceeded { .. }) => {
                    // The earliest deadline in the chunk fired mid-sweep.
                    // Answer the expired jobs now, keep the survivors'
                    // partial iterate as the warm start, and resume.
                    ctx.metrics.solver_cancelled.fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    let mut survivors = Vec::with_capacity(live.len());
                    let mut kept_cols: Vec<usize> = Vec::with_capacity(width);
                    let mut at = 0;
                    for job in live.drain(..) {
                        let jc = job.rhs.cols();
                        if job.deadline.is_some_and(|d| now >= d) {
                            ctx.metrics.deadline_misses.fetch_add(1, Ordering::Relaxed);
                            let _ = job.reply.send(Err(ServeError::new(
                                ErrorCode::Deadline,
                                "deadline expired mid-solve",
                            )));
                        } else {
                            kept_cols.extend(at..at + jc);
                            survivors.push(job);
                        }
                        at += jc;
                    }
                    if survivors.is_empty() {
                        break;
                    }
                    let mut next_x = DenseMatrix::zeros(dim, kept_cols.len());
                    for i in 0..dim {
                        let row = x.row(i);
                        let dst = next_x.row_mut(i);
                        for (c, &src) in kept_cols.iter().enumerate() {
                            dst[c] = row[src];
                        }
                    }
                    x = next_x;
                    live = survivors;
                }
                Err(LinalgError::Cancelled { .. }) => {
                    // Force-cancel: the shutdown drain timed out.
                    ctx.metrics.solver_cancelled.fetch_add(1, Ordering::Relaxed);
                    let e = ServeError::new(ErrorCode::ShuttingDown, "solve cancelled by shutdown");
                    for job in &live {
                        let _ = job.reply.send(Err(e.clone()));
                    }
                    break;
                }
                Err(e) => {
                    let e = ServeError::new(ErrorCode::Solver, e.to_string());
                    for job in &live {
                        let _ = job.reply.send(Err(e.clone()));
                    }
                    break;
                }
            }
        }
        // The hook captures this chunk's deadlines: clear it before the
        // factor goes back to the cache, or a stale deadline would cancel
        // some later request's solve.
        factor.set_stop(StopHook::none());
        let after = factor.stats();
        ctx.metrics.absorb_solve_delta(before, after);
    }
}

/// Fuse the live jobs' RHS blocks column-wise (skip the copy for solo
/// jobs).
fn fuse_rhs(live: &[SolveJob], dim: usize) -> DenseMatrix {
    if live.len() == 1 {
        return live[0].rhs.clone();
    }
    let width: usize = live.iter().map(|j| j.rhs.cols()).sum();
    let mut fused = DenseMatrix::zeros(dim, width);
    let mut at = 0;
    for job in live {
        let jc = job.rhs.cols();
        for i in 0..dim {
            fused.row_mut(i)[at..at + jc].copy_from_slice(job.rhs.row(i));
        }
        at += jc;
    }
    fused
}

/// The per-chunk stop hook: earliest deadline in the chunk, the queue's
/// shutdown force-cancel flag, and the fault plan's per-iteration pause.
fn chunk_stop_hook(
    min_deadline: Option<Instant>,
    force_cancel: Arc<AtomicBool>,
    fault: Arc<FaultPlan>,
) -> StopHook {
    StopHook::new(move || {
        fault.iteration_pause();
        if force_cancel.load(Ordering::Relaxed) {
            return Some(StopCause::Cancelled);
        }
        if min_deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopCause::DeadlineExceeded);
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheEntry;
    use std::sync::mpsc::channel;

    fn job(reply: Sender<Result<SolveOutcome, ServeError>>) -> SolveJob {
        SolveJob {
            key: FactorKey {
                graph: "g".into(),
                epoch: 1,
                grounding: vec![0],
                backend: "dense-cholesky",
            },
            entry: Arc::new(CacheEntry::default()),
            rhs: DenseMatrix::zeros(2, 1),
            deadline: None,
            reply,
        }
    }

    #[test]
    fn submit_after_stop_answers_shutting_down() {
        // Regression for the stranded-submit race (see `submit`): a job
        // enqueued after `stop` must get a reply, not wait forever on a
        // batcher that has already drained and exited.
        let q = BatchQueue::new(true, Duration::ZERO, 64);
        q.stop();
        let (tx, rx) = channel();
        q.submit(job(tx));
        let reply = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("submit after stop must answer, not strand the job");
        match reply {
            Err(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            Ok(_) => panic!("job submitted after stop must be rejected"),
        }
        assert_eq!(q.depth(), 0, "rejected job must not sit in the queue");
    }

    #[test]
    fn stop_wakes_and_exits_idle_batcher() {
        // Regression for the lost-wakeup race (see `stop`): stopping an
        // idle batcher must terminate it even though its queue is empty.
        let q = Arc::new(BatchQueue::new(true, Duration::ZERO, 64));
        let (tx, rx) = channel();
        let q2 = Arc::clone(&q);
        let batcher = std::thread::spawn(move || {
            let metrics = Metrics::new();
            let cache = FactorCache::new(2);
            let ctx = BatchCtx {
                metrics: &metrics,
                cache: &cache,
                fault: FaultPlan::none(),
            };
            q2.run_batcher(&ctx);
            let _ = tx.send(());
        });
        // Give the batcher a moment to park on the condvar, then stop.
        std::thread::sleep(Duration::from_millis(20));
        q.stop();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("stop must wake the parked batcher");
        batcher.join().expect("batcher exits cleanly");
    }

    #[test]
    fn depth_survives_a_poisoned_queue_lock() {
        // `stats` must keep answering after a panic poisons the jobs lock.
        let q = Arc::new(BatchQueue::new(true, Duration::ZERO, 64));
        let poisoner = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.jobs.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert_eq!(q.depth(), 0);
        let (tx, rx) = channel();
        q.stop();
        q.submit(job(tx));
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
    }
}
