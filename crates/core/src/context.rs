//! Execution context shared by every CFCM solver: parameters, cooperative
//! cancellation, wall-clock deadlines, and per-iteration progress reporting.
//!
//! [`SolveContext`] is the single entry point for problem validation —
//! [`crate::greedy::run`] and [`crate::greedy::ranked`] call
//! [`SolveContext::check_problem`] before any solver touches the graph, so
//! invalid `k`, disconnected inputs, and out-of-range parameters are
//! rejected uniformly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::engine::GreedyWorkspace;
use crate::result::IterStats;
use crate::{CfcmError, CfcmParams};
use cfcc_graph::Graph;
use cfcc_linalg::{StopCause, StopHook};

/// Cooperative cancellation flag, cheaply cloneable across threads.
///
/// [`crate::greedy::run`] polls the token between picks, and iterative
/// solves poll it every sweep; once cancelled, a run returns promptly with
/// the partial [`crate::Selection`] accumulated so far (fewer than `k`
/// nodes, per-iteration stats intact).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Per-iteration progress callback.
pub type ProgressSink = dyn Fn(&IterStats) + Send + Sync;

/// Everything a [`crate::solver::CfcmSolver`] needs besides the problem
/// instance: tuning parameters plus run control (cancellation, deadline,
/// progress). Construct directly for library use, or let
/// [`crate::SolveSession`] assemble one.
pub struct SolveContext {
    /// Solver tuning parameters.
    pub params: CfcmParams,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    progress: Option<Box<ProgressSink>>,
    /// Persistent greedy execution state (sketches, warm-start solution
    /// blocks, round scratch, aggregated solver stats) — see
    /// [`crate::engine`]. Behind a mutex only so the context stays `Sync`;
    /// solvers access it from one thread at a time.
    workspace: Mutex<GreedyWorkspace>,
}

impl std::fmt::Debug for SolveContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveContext")
            .field("params", &self.params)
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field(
                "progress",
                &self.progress.as_ref().map(|_| "Fn(&IterStats)"),
            )
            .finish()
    }
}

impl Default for SolveContext {
    fn default() -> Self {
        Self::new(CfcmParams::default())
    }
}

impl SolveContext {
    /// A context with the given parameters and no run control attached.
    pub fn new(params: CfcmParams) -> Self {
        Self {
            params,
            cancel: None,
            deadline: None,
            progress: None,
            workspace: Mutex::new(GreedyWorkspace::new()),
        }
    }

    /// The run's persistent [`GreedyWorkspace`] (warm-start state, reusable
    /// buffers, aggregated solver stats).
    pub fn workspace(&self) -> MutexGuard<'_, GreedyWorkspace> {
        self.workspace.lock().expect("workspace mutex poisoned")
    }

    /// Seed the context with a recycled [`GreedyWorkspace`] (builder
    /// style). Persisted sketches are revalidated against the graph by
    /// fingerprint inside the engine, so handing a workspace from a
    /// previous run — even one on a different graph — is always safe and
    /// skips the per-run resample when the graph, sketch width, and seed
    /// match. Pair with [`SolveContext::take_workspace`] to thread one
    /// workspace through a sequence of runs (what
    /// [`crate::SolveSession::run_reusing`] does).
    pub fn with_workspace(mut self, ws: GreedyWorkspace) -> Self {
        self.workspace = Mutex::new(ws);
        self
    }

    /// Take the workspace back out of a finished run, leaving a fresh one
    /// behind — the other half of the recycle loop.
    pub fn take_workspace(&mut self) -> GreedyWorkspace {
        std::mem::take(self.workspace.get_mut().expect("workspace mutex poisoned"))
    }

    /// Attach a cancellation token (builder style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach an absolute wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a deadline `timeout` from now (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attach a per-iteration progress callback (builder style). Every
    /// solver invokes it once per pick, as the pick's [`IterStats`] is
    /// recorded.
    pub fn with_progress<F>(mut self, sink: F) -> Self
    where
        F: Fn(&IterStats) + Send + Sync + 'static,
    {
        self.progress = Some(Box::new(sink));
        self
    }

    /// Attach an already-boxed progress sink (session internals).
    pub(crate) fn with_progress_box(mut self, sink: Box<ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// The uniform precondition check every solver runs first: `k` range,
    /// parameter ranges, then connectivity (cheapest first).
    pub fn check_problem(&self, g: &Graph, k: usize) -> Result<(), CfcmError> {
        let n = g.num_nodes();
        if k == 0 || k >= n {
            return Err(CfcmError::InvalidK { k, n });
        }
        self.params.validate()?;
        if !g.is_connected() {
            return Err(CfcmError::Disconnected);
        }
        Ok(())
    }

    /// The [`StopHook`] mirroring [`SolveContext::interrupted`]: fires
    /// [`StopCause::Cancelled`] when the cancel token trips and
    /// [`StopCause::DeadlineExceeded`] once the deadline passes. Returns
    /// a no-op hook when neither is attached, so unconstrained solves
    /// pay nothing per iteration. [`crate::greedy::run`] hands it to the
    /// run's workspace, so every iterative solve of a greedy pick polls
    /// it each sweep and interruption reaches *inside* in-flight solves
    /// instead of waiting for pick boundaries.
    pub fn stop_hook(&self) -> StopHook {
        match (self.cancel.clone(), self.deadline) {
            (None, None) => StopHook::none(),
            (cancel, deadline) => StopHook::new(move || {
                if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Some(StopCause::Cancelled);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Some(StopCause::DeadlineExceeded);
                }
                None
            }),
        }
    }

    /// Should the run stop early? True once the cancel token fires or the
    /// deadline passes. [`crate::greedy::run`] polls this before every
    /// pick after the first and then returns the partial selection
    /// accumulated so far; solves reach the same condition through
    /// [`SolveContext::stop_hook`].
    pub fn interrupted(&self) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Report one recorded pick to the progress sink, if any.
    /// [`crate::greedy::run`] calls it as each pick lands, and
    /// [`crate::greedy::ranked`] once per node of the finished ranking.
    pub fn emit(&self, iteration: &IterStats) {
        if let Some(sink) = &self.progress {
            sink(iteration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cancel_token_propagates_to_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled() && !t2.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled() && t2.is_cancelled());
    }

    #[test]
    fn interrupted_tracks_cancel_and_deadline() {
        let ctx = SolveContext::default();
        assert!(!ctx.interrupted());

        let token = CancelToken::new();
        let ctx = SolveContext::default().with_cancel(token.clone());
        assert!(!ctx.interrupted());
        token.cancel();
        assert!(ctx.interrupted());

        let past = Instant::now() - Duration::from_secs(1);
        assert!(SolveContext::default().with_deadline(past).interrupted());
        let future = Duration::from_secs(3600);
        assert!(!SolveContext::default().with_timeout(future).interrupted());
    }

    #[test]
    fn check_problem_orders_errors() {
        let g = generators::cycle(6);
        let bad_params = SolveContext::new(CfcmParams::with_epsilon(2.0));
        // k errors trump parameter errors; valid k surfaces the bad epsilon.
        assert!(matches!(
            bad_params.check_problem(&g, 0),
            Err(CfcmError::InvalidK { .. })
        ));
        assert!(matches!(
            bad_params.check_problem(&g, 2),
            Err(CfcmError::InvalidParameter(_))
        ));
        let disconnected = cfcc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            SolveContext::default().check_problem(&disconnected, 2),
            Err(CfcmError::Disconnected)
        );
        assert!(SolveContext::default().check_problem(&g, 2).is_ok());
    }

    #[test]
    fn emit_reaches_the_sink() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let ctx = SolveContext::default().with_progress(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        let it = IterStats {
            chosen: 0,
            forests: 0,
            solves: 0,
            walk_steps: 0,
            seconds: 0.0,
            gain: f64::NAN,
            ridge: 0.0,
        };
        ctx.emit(&it);
        ctx.emit(&it);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
