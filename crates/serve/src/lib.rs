//! # cfcc-serve
//!
//! A resident CFCC query daemon: the factor-once/solve-many economics of
//! the paper's solver line (Xia & Zhang, ICDE 2025), turned into a
//! long-lived service. Everything upstream in this repo is one-shot —
//! every CLI invocation re-reads the graph, re-factors the Laplacian, and
//! exits. The daemon keeps graphs resident across requests
//! ([`registry::GraphRegistry`], epoch-versioned), caches factors in an
//! LRU keyed by `(graph, epoch, grounding set, backend)`
//! ([`cache::FactorCache`]), and **fuses concurrent independent queries
//! that share a factor into one blocked `solve_mat` call**
//! ([`batch::BatchQueue`]) — the shape the blocked multi-RHS PCG from
//! PR 4 was built for.
//!
//! The wire protocol is hand-rolled UTF-8 lines over `std::net` TCP (the
//! build environment is offline — no tokio/hyper): blocking accept
//! threads parse requests and hand solve work to the batcher, which runs
//! groups through `cfcc_linalg::pool`. See [`protocol`] for the line
//! format and the repository README for the full reference.
//!
//! ```no_run
//! use cfcc_serve::{client::Client, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn();
//! let mut c = Client::connect(addr).unwrap();
//! c.request("load_graph name=k dataset=karate").unwrap();
//! let reply = c.request("eval_group graph=k nodes=0,33").unwrap();
//! assert!(reply.last().unwrap().starts_with("ok "));
//! drop(handle); // graceful shutdown on drop
//! ```

#![forbid(unsafe_code)]
// Production serve code must not panic on an absent value or a poisoned
// lock: locks recover through `poison::lock_recover`, everything else
// becomes a protocol error. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod cache;
pub mod cli;
pub mod client;
pub mod fault;
pub mod metrics;
pub mod poison;
pub mod protocol;
pub mod registry;

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfcc_core::cfcc::{group_mask, node_centrality_from_factor, node_centrality_ground};
use cfcc_core::engine::GreedyWorkspace;
use cfcc_core::{CancelToken, CfcmError, CfcmParams, SolveSession};
use cfcc_graph::Node;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::{DenseMatrix, SddFactor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use batch::{BatchCtx, BatchQueue, SolveJob};
use cache::{CacheEntry, FactorCache, FactorKey};
use fault::FaultPlan;
use metrics::Metrics;
use protocol::{ErrorCode, GraphSource, Line, Request, ServeError};
use registry::{GraphRegistry, ResidentGraph};

/// Daemon tuning. `Default` is sized for tests and modest services; see
/// the README ops note for sizing guidance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Fuse same-factor jobs (true) or solve each alone (false).
    pub batching: bool,
    /// Collection window after the first queued job before the batcher
    /// executes — the latency the daemon trades for fusion at low load
    /// (under saturation the queue refills by itself and the window is
    /// mostly irrelevant).
    pub batch_window: Duration,
    /// Cap on fused columns per blocked solve.
    pub max_batch_cols: usize,
    /// LRU capacity of the factor cache, in factors. A dense factor is
    /// `O(n²)` memory, iterative ones `O(n + m)` — size accordingly.
    pub cache_capacity: usize,
    /// Default Hutchinson probes per `eval_group` on iterative backends
    /// (requests may override with `probes=`).
    pub probes: usize,
    /// Worker-pool threads per solve.
    pub threads: usize,
    /// Relative residual target for iterative solves.
    pub rel_tol: f64,
    /// Admission control: shed solve requests once this many jobs wait in
    /// the batch queue (0 = unbounded).
    pub max_queue_depth: usize,
    /// Admission control: shed solve requests once this many requests are
    /// in flight (0 = unbounded). `ping`/`stats`/`shutdown`/`load_graph`
    /// are never shed — health checks must work *especially* under
    /// overload.
    pub max_inflight: usize,
    /// Graceful shutdown: how long to wait for in-flight requests before
    /// force-cancelling their solves through the stop hook.
    pub drain_timeout: Duration,
    /// Fault-injection plan for chaos tests; inert by default (a few
    /// relaxed atomic loads per solve).
    pub fault: Arc<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            batching: true,
            batch_window: Duration::from_millis(2),
            max_batch_cols: 64,
            cache_capacity: 32,
            probes: 16,
            threads: 1,
            rel_tol: 1e-8,
            max_queue_depth: 1024,
            max_inflight: 256,
            drain_timeout: Duration::from_secs(5),
            fault: FaultPlan::none(),
        }
    }
}

/// Everything the connection threads and the batcher share.
struct ServerState {
    cfg: ServeConfig,
    addr: SocketAddr,
    registry: GraphRegistry,
    cache: FactorCache,
    queue: BatchQueue,
    metrics: Metrics,
    shutdown: AtomicBool,
    started: Instant,
    /// Request sequence number — also the default per-request seed, so
    /// concurrent `eval_group`s without explicit seeds draw independent
    /// probe blocks.
    seq: AtomicU64,
    /// Recycled greedy workspaces for `topk_greedy` — sketches persist
    /// across requests and are revalidated by graph fingerprint, so
    /// repeat top-k queries on the same graph skip the re-sketch
    /// (the session-reuse path added alongside this crate).
    workspaces: Mutex<Vec<GreedyWorkspace>>,
    /// Cancel tokens of in-flight `topk_greedy` runs, keyed by request
    /// sequence number — fired when a shutdown drain times out so the
    /// greedy loops return their partial selections instead of holding
    /// the drain hostage.
    inflight_cancels: Mutex<HashMap<u64, CancelToken>>,
}

const WORKSPACE_POOL_CAP: usize = 8;

impl ServerState {
    fn pop_workspace(&self) -> GreedyWorkspace {
        // Pooled workspaces stay warm-start consistent even across aborted
        // runs, and a poisoning panic never leaves one mid-mutation in the
        // pool (it is only pushed back after a completed run) — recover.
        self.workspaces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn push_workspace(&self, ws: GreedyWorkspace) {
        let mut pool = self
            .workspaces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < WORKSPACE_POOL_CAP {
            pool.push(ws);
        }
    }

    /// Flip into shutdown and drain gracefully: stop accepting, let
    /// in-flight requests finish, and only then stop the batcher. `grace`
    /// is how many `active` requests belong to the caller itself (1 when
    /// the `shutdown` verb drains from its own connection thread) and are
    /// therefore not waited on.
    ///
    /// If the drain outlives [`ServeConfig::drain_timeout`], in-flight
    /// work is interrupted through the cooperative stop hooks: greedy runs
    /// return partial selections, batched solves answer `shutting_down` —
    /// nothing blocks shutdown indefinitely.
    fn begin_shutdown(&self, grace: i64) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept loop with a dummy connection; from
        // here on no new requests are admitted.
        let _ = TcpStream::connect(self.addr);
        let drain_until = Instant::now() + self.cfg.drain_timeout;
        while self.metrics.active.load(Ordering::Relaxed) > grace && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(5));
        }
        if self.metrics.active.load(Ordering::Relaxed) > grace {
            // Drain timed out: force the stragglers out through their
            // cooperative cancellation seams.
            for (_, cancel) in self
                .inflight_cancels
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
            {
                cancel.cancel();
            }
            self.queue.cancel_inflight();
            let hard_until = Instant::now() + Duration::from_secs(2);
            while self.metrics.active.load(Ordering::Relaxed) > grace && Instant::now() < hard_until
            {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.queue.stop();
    }

    fn sdd_options(&self) -> SddOptions {
        SddOptions {
            rel_tol: self.cfg.rel_tol,
            max_iter: 50_000,
            threads: self.cfg.threads,
            // Factors are cached and shared: they carry no stop hook of
            // their own. Per-request deadlines are installed (and cleared)
            // around each solve via `SddFactor::set_stop`.
            ..SddOptions::default()
        }
    }

    /// Admission control for the solve verbs: refuse with `overloaded` (+
    /// a backoff hint) rather than queueing without bound. The caller's
    /// own request is already counted in `active`.
    fn admit(&self) -> Result<(), ServeError> {
        let overloaded = (self.cfg.max_inflight > 0
            && self.metrics.active.load(Ordering::Relaxed) > self.cfg.max_inflight as i64)
            || (self.cfg.max_queue_depth > 0 && self.queue.depth() >= self.cfg.max_queue_depth);
        if !overloaded {
            return Ok(());
        }
        self.metrics.shed.fetch_add(1, Ordering::Relaxed);
        let retry_ms = (self.cfg.batch_window.as_millis() as u64 * 2).max(25);
        Err(
            ServeError::new(ErrorCode::Overloaded, "server at capacity, retry later")
                .with_retry_after(retry_ms),
        )
    }
}

/// A bound (not yet serving) daemon. Load graphs programmatically through
/// [`Server::registry`] before [`Server::spawn`]/[`Server::run`] if you
/// want them resident from the first request (benches, examples).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and assemble the shared state.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let queue = BatchQueue::new(cfg.batching, cfg.batch_window, cfg.max_batch_cols);
        let state = Arc::new(ServerState {
            registry: GraphRegistry::new(),
            cache: FactorCache::new(cfg.cache_capacity),
            queue,
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            seq: AtomicU64::new(1),
            workspaces: Mutex::new(Vec::new()),
            inflight_cancels: Mutex::new(HashMap::new()),
            addr,
            cfg,
        });
        Ok(Self { listener, state })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The resident graph registry (programmatic graph loading).
    pub fn registry(&self) -> &GraphRegistry {
        &self.state.registry
    }

    /// Serve in background threads; the returned handle shuts the daemon
    /// down on [`ServerHandle::shutdown`] or drop.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.state.addr;
        let batcher_state = Arc::clone(&self.state);
        let batcher = std::thread::spawn(move || {
            batcher_state.queue.run_batcher(&BatchCtx {
                metrics: &batcher_state.metrics,
                cache: &batcher_state.cache,
                fault: Arc::clone(&batcher_state.cfg.fault),
            });
        });
        let accept_state = Arc::clone(&self.state);
        let listener = self.listener;
        let accept = std::thread::spawn(move || accept_loop(accept_state, listener));
        ServerHandle {
            addr,
            state: self.state,
            accept: Some(accept),
            batcher: Some(batcher),
        }
    }

    /// Serve on the current thread until a `shutdown` request arrives
    /// (the CLI `serve` subcommand's path).
    pub fn run(self) {
        let batcher_state = Arc::clone(&self.state);
        let batcher = std::thread::spawn(move || {
            batcher_state.queue.run_batcher(&BatchCtx {
                metrics: &batcher_state.metrics,
                cache: &batcher_state.cache,
                fault: Arc::clone(&batcher_state.cfg.fault),
            });
        });
        accept_loop(Arc::clone(&self.state), self.listener);
        let _ = batcher.join();
    }
}

/// Handle over a daemon serving in background threads.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently in flight (accepted, not yet answered).
    pub fn active_requests(&self) -> i64 {
        self.state.metrics.active.load(Ordering::Relaxed)
    }

    /// Requests cancelled by client disconnect so far.
    pub fn cancelled_requests(&self) -> u64 {
        self.state.metrics.cancelled.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight requests (up to the configured
    /// drain timeout, after which they are cooperatively cancelled), stop
    /// the batcher, and join both threads.
    pub fn shutdown(&mut self) {
        self.state.begin_shutdown(0);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(state: Arc<ServerState>, listener: TcpListener) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve_connection(state, stream));
    }
}

fn serve_connection(state: Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match protocol::read_line_bounded(&mut reader) {
            Ok(Some(Ok(line))) => line,
            // Oversized or non-UTF-8 line: answer `bad_request` and keep
            // the connection — hostile input must not cost the session.
            Ok(Some(Err(e))) => {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                if writeln!(writer, "{}", e.render())
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
                continue;
            }
            // Clean EOF or transport error: the client is gone.
            Ok(None) | Err(_) => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            let e = ServeError::new(ErrorCode::ShuttingDown, "server shutting down");
            let _ = writeln!(writer, "{}", e.render());
            break;
        }
        state.metrics.active.fetch_add(1, Ordering::Relaxed);
        // Panic isolation: a handler that blows up answers `internal` and
        // the connection (and daemon) keep serving.
        let caught = catch_unwind(AssertUnwindSafe(|| dispatch(&state, line, &mut writer)));
        let (out, stop) = caught.unwrap_or_else(|_| {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
            (
                Err(ServeError::new(
                    ErrorCode::Internal,
                    "request handler panicked — see server log",
                )),
                false,
            )
        });
        let rendered = match &out {
            Ok(l) => l.clone(),
            Err(e) => {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                e.render()
            }
        };
        state.metrics.active.fetch_sub(1, Ordering::Relaxed);
        if state.cfg.fault.should_drop_reply() {
            // Injected mid-stream connection drop (chaos tests).
            break;
        }
        // An empty terminal means the handler already delivered its reply
        // inline (the `shutdown` ack races process exit otherwise).
        let wrote = if rendered.is_empty() {
            Ok(())
        } else {
            writeln!(writer, "{rendered}").and_then(|_| writer.flush())
        };
        if wrote.is_err() || stop {
            break;
        }
    }
}

/// Parse and execute one request. Returns the terminal line (progress
/// lines are written directly by the handler) and whether the connection
/// should close afterwards.
fn dispatch(
    state: &Arc<ServerState>,
    line: &str,
    writer: &mut TcpStream,
) -> (Result<String, ServeError>, bool) {
    let req = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => return (Err(e), false),
    };
    if req.retry_attempt().is_some() {
        state
            .metrics
            .retries_observed
            .fetch_add(1, Ordering::Relaxed);
    }
    match req {
        Request::Ping => (Ok(Line::ok().field("pong", 1).render()), false),
        Request::Stats => (Ok(handle_stats(state)), false),
        Request::Shutdown => {
            // Acknowledge before draining: once `begin_shutdown` returns,
            // the accept loop — and under `cfcm serve`, the whole process —
            // is free to exit, which can beat this thread's reply to the
            // socket. An empty terminal tells the connection loop the
            // reply is already delivered.
            let ack = Line::ok().field("shutdown", 1).render();
            let _ = writeln!(writer, "{ack}").and_then(|_| writer.flush());
            // Drain from this connection thread: our own request is the
            // one unit of `active` grace.
            state.begin_shutdown(1);
            (Ok(String::new()), true)
        }
        Request::LoadGraph { name, source } => {
            state.metrics.load_graph.fetch_add(1, Ordering::Relaxed);
            (handle_load_graph(state, &name, &source), false)
        }
        Request::EvalGroup {
            graph,
            nodes,
            backend,
            probes,
            seed,
            deadline,
            retry: _,
        } => {
            state.metrics.eval_group.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = state.admit() {
                return (Err(e), false);
            }
            (
                handle_eval_group(
                    state,
                    &graph,
                    &nodes,
                    backend.as_deref(),
                    probes,
                    seed,
                    deadline,
                ),
                false,
            )
        }
        Request::NodeCentrality {
            graph,
            node,
            top,
            backend,
            deadline,
            retry: _,
        } => {
            state
                .metrics
                .node_centrality
                .fetch_add(1, Ordering::Relaxed);
            if let Err(e) = state.admit() {
                return (Err(e), false);
            }
            (
                handle_node_centrality(state, &graph, node, top, backend.as_deref(), deadline),
                false,
            )
        }
        Request::TopkGreedy {
            graph,
            k,
            algo,
            epsilon,
            seed,
            backend,
            threads,
            deadline,
            retry: _,
        } => {
            state.metrics.topk_greedy.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = state.admit() {
                return (Err(e), false);
            }
            (
                handle_topk_greedy(
                    state,
                    writer,
                    &graph,
                    k,
                    &algo,
                    epsilon,
                    seed,
                    backend.as_deref(),
                    threads,
                    deadline,
                ),
                false,
            )
        }
    }
}

fn handle_stats(state: &ServerState) -> String {
    let json = state.metrics.to_json(
        &state.cache.counters(),
        state.queue.depth(),
        state.started.elapsed().as_secs_f64(),
        &state.registry.snapshot(),
    );
    Line::ok().field("stats", json).render()
}

fn handle_load_graph(
    state: &ServerState,
    name: &str,
    source: &GraphSource,
) -> Result<String, ServeError> {
    let entry = state.registry.load(name, source)?;
    // Factors of older epochs can never be served again; drop them now
    // rather than waiting for LRU aging.
    state.cache.purge_stale(name, entry.epoch);
    Ok(Line::ok()
        .field("graph", name)
        .field("epoch", entry.epoch)
        .field("n", entry.graph.num_nodes())
        .field("m", entry.graph.num_edges())
        .field("reduced", entry.reduced)
        .render())
}

fn parse_backend(name: Option<&str>) -> Result<SddBackend, ServeError> {
    match name {
        None => Ok(SddBackend::Auto),
        Some(s) => SddBackend::parse(s).ok_or_else(|| {
            ServeError::new(
                ErrorCode::BadRequest,
                format!("unknown backend '{s}' (see --list-backends)"),
            )
        }),
    }
}

fn check_deadline(deadline: Option<Instant>) -> Result<(), ServeError> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(ServeError::new(
            ErrorCode::Deadline,
            "deadline expired before solve",
        ));
    }
    Ok(())
}

fn map_cfcm_error(e: CfcmError) -> ServeError {
    let code = match &e {
        CfcmError::InvalidK { .. } | CfcmError::InvalidParameter(_) => ErrorCode::BadRequest,
        CfcmError::UnknownSolver(_) | CfcmError::Unsupported(_) => ErrorCode::BadRequest,
        // Mid-solve interruptions that escaped with nothing partial to
        // return keep their identity on the wire.
        CfcmError::Interrupted(cfcc_linalg::StopCause::DeadlineExceeded) => ErrorCode::Deadline,
        CfcmError::Interrupted(cfcc_linalg::StopCause::Cancelled) => ErrorCode::Cancelled,
        _ => ErrorCode::Solver,
    };
    ServeError::new(code, e.to_string())
}

/// Build the factor for `key` if the entry is still empty. A failed build
/// removes the entry so later requests retry instead of hitting a
/// permanently empty slot; a *panicking* build (injected fault, or a real
/// bug in a backend) is caught the same way — the requester gets
/// `internal`, the daemon keeps serving.
fn ensure_factor(
    state: &ServerState,
    entry: &Arc<CacheEntry>,
    key: &FactorKey,
    resident: &ResidentGraph,
    mask: &[bool],
    backend: SddBackend,
) -> Result<(), ServeError> {
    let mut slot = entry.factor();
    if slot.is_none() {
        let built = catch_unwind(AssertUnwindSafe(|| {
            state.cfg.fault.on_factor_build();
            sdd::factor_owned(&resident.graph, mask, backend, &state.sdd_options())
        }));
        match built {
            Ok(Ok(f)) => *slot = Some(f),
            Ok(Err(e)) => {
                drop(slot);
                state.cache.remove(key);
                return Err(ServeError::new(ErrorCode::Solver, e.to_string()));
            }
            Err(_) => {
                drop(slot);
                state.cache.remove(key);
                state.metrics.panics.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    ErrorCode::Internal,
                    "factorization panicked; entry evicted — retry the request",
                ));
            }
        }
    }
    Ok(())
}

fn handle_eval_group(
    state: &Arc<ServerState>,
    graph: &str,
    nodes: &[Node],
    backend: Option<&str>,
    probes: Option<usize>,
    seed: Option<u64>,
    deadline: Option<Duration>,
) -> Result<String, ServeError> {
    let t0 = Instant::now();
    let deadline = deadline.map(|d| t0 + d);
    let resident = state.registry.get(graph)?;
    let g = &resident.graph;
    let n = g.num_nodes();
    let mask =
        group_mask(g, nodes).map_err(|e| ServeError::new(ErrorCode::BadNode, e.to_string()))?;
    let kept = n - nodes.len();
    if kept == 0 {
        return Err(ServeError::new(
            ErrorCode::BadNode,
            "grounding every node leaves nothing to solve",
        ));
    }
    check_deadline(deadline)?;
    let backend = parse_backend(backend)?;
    let solver_name = backend.resolve_for_graph(g, kept).name();
    let mut grounding = nodes.to_vec();
    grounding.sort_unstable();
    let key = FactorKey {
        graph: graph.to_string(),
        epoch: resident.epoch,
        grounding,
        backend: solver_name,
    };
    let (entry, hit) = state.cache.get_or_insert(&key);
    ensure_factor(state, &entry, &key, &resident, &mask, backend)?;

    let (trace, method, batch_width, batch_jobs) = if solver_name == "dense-cholesky" {
        // Direct backend: the exact trace reads off the factor; memoized
        // per entry so repeats are pure cache hits.
        let trace = entry.trace_or_compute(|| {
            let mut slot = entry.factor();
            let factor = slot
                .as_mut()
                .ok_or_else(|| ServeError::new(ErrorCode::Internal, "factor missing"))?;
            let before = factor.stats();
            let t = factor
                .trace_inverse()
                .map_err(|e| ServeError::new(ErrorCode::Solver, e.to_string()))?;
            state.metrics.absorb_solve_delta(before, factor.stats());
            Ok::<f64, ServeError>(t)
        })?;
        (trace, "exact", 0, 0)
    } else {
        // Iterative backend: Hutchinson probe block through the batcher,
        // fused with whatever concurrent requests share this factor.
        let p = probes.unwrap_or(state.cfg.probes).clamp(1, 512);
        let seed = seed.unwrap_or_else(|| state.seq.fetch_add(1, Ordering::Relaxed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
        let mut rhs = DenseMatrix::zeros(kept, p);
        for i in 0..kept {
            for j in 0..p {
                rhs.set(i, j, if rng.gen::<bool>() { 1.0 } else { -1.0 });
            }
        }
        let (tx, rx) = mpsc::channel();
        state.queue.submit(SolveJob {
            key,
            entry: Arc::clone(&entry),
            rhs: rhs.clone(),
            deadline,
            reply: tx,
        });
        let outcome = rx
            .recv()
            .map_err(|_| ServeError::new(ErrorCode::Internal, "batcher unavailable"))??;
        let mut est = 0.0;
        for j in 0..p {
            let mut dot = 0.0;
            for i in 0..kept {
                dot += rhs.get(i, j) * outcome.x.get(i, j);
            }
            est += dot;
        }
        est /= p as f64;
        (est, "hutchinson", outcome.batch_width, outcome.batch_jobs)
    };

    Ok(Line::ok()
        .float("cfcc", n as f64 / trace)
        .float("trace", trace)
        .field("method", method)
        .field("cache", if hit { "hit" } else { "miss" })
        .field("batch", batch_width)
        .field("batch_jobs", batch_jobs)
        .float("ms", t0.elapsed().as_secs_f64() * 1e3)
        .render())
}

fn handle_node_centrality(
    state: &Arc<ServerState>,
    graph: &str,
    node: Option<Node>,
    top: Option<usize>,
    backend: Option<&str>,
    deadline: Option<Duration>,
) -> Result<String, ServeError> {
    let t0 = Instant::now();
    let deadline = deadline.map(|d| t0 + d);
    let resident = state.registry.get(graph)?;
    let g = &resident.graph;
    let n = g.num_nodes();
    if let Some(u) = node {
        if u as usize >= n {
            return Err(ServeError::new(
                ErrorCode::BadNode,
                format!("node {u} out of range (n = {n})"),
            ));
        }
    }
    check_deadline(deadline)?;
    let backend = parse_backend(backend)?;
    let v = node_centrality_ground(g);
    let mut mask = vec![false; n];
    mask[v as usize] = true;
    let solver_name = backend.resolve_for_graph(g, n - 1).name();
    let key = FactorKey {
        graph: graph.to_string(),
        epoch: resident.epoch,
        grounding: vec![v],
        backend: solver_name,
    };
    let (entry, hit) = state.cache.get_or_insert(&key);
    ensure_factor(state, &entry, &key, &resident, &mask, backend)?;
    // Deterministic given the factor, so memoized per entry: repeated
    // requests collapse to a cache read. (`diag_inverse` on iterative
    // backends is n solves, in panels — not something to redo per
    // request.)
    let values = entry.centrality_or_compute(|| {
        let mut slot = entry.factor();
        let factor = slot
            .as_mut()
            .ok_or_else(|| ServeError::new(ErrorCode::Internal, "factor missing"))?;
        let before = factor.stats();
        let c = node_centrality_from_factor(n, factor).map_err(map_cfcm_error)?;
        state.metrics.absorb_solve_delta(before, factor.stats());
        Ok::<Vec<f64>, ServeError>(c)
    })?;

    let cache = if hit { "hit" } else { "miss" };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let line = match (node, top) {
        (Some(u), _) => Line::ok()
            .field("node", u)
            .float("centrality", values[u as usize]),
        (None, Some(k)) => {
            let k = k.min(n);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                values[b]
                    .partial_cmp(&values[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(k);
            Line::ok()
                .field("top", k)
                .list("nodes", order.iter().map(|&u| u as Node))
                .list("values", order.iter().map(|&u| values[u]))
        }
        (None, None) => Line::ok().field("n", n).list("values", values.iter()),
    };
    Ok(line.field("cache", cache).float("ms", ms).render())
}

#[allow(clippy::too_many_arguments)]
fn handle_topk_greedy(
    state: &Arc<ServerState>,
    writer: &mut TcpStream,
    graph: &str,
    k: usize,
    algo: &str,
    epsilon: Option<f64>,
    seed: Option<u64>,
    backend: Option<&str>,
    threads: Option<usize>,
    deadline: Option<Duration>,
) -> Result<String, ServeError> {
    let t0 = Instant::now();
    let deadline = deadline.map(|d| t0 + d);
    let resident = state.registry.get(graph)?;
    let g = Arc::clone(&resident.graph);
    check_deadline(deadline)?;
    let backend = parse_backend(backend)?;
    let mut params = CfcmParams::default();
    if let Some(e) = epsilon {
        params.epsilon = e;
    }
    params.seed = seed.unwrap_or_else(|| state.seq.fetch_add(1, Ordering::Relaxed));
    params.threads = threads.unwrap_or(state.cfg.threads).max(1);
    params.backend = backend;

    // Stream per-round progress straight to the socket; a failed write
    // means the client is gone — cancel the run so the slot frees instead
    // of grinding through the remaining rounds for nobody.
    let cancel = CancelToken::new();
    let sink_cancel = cancel.clone();
    let sink_stream = writer.try_clone().map(Mutex::new).map(Arc::new);
    let iter = AtomicU64::new(0);
    let session = SolveSession::new(&g)
        .k(k)
        .solver(algo)
        .params(params)
        .cancel_token(cancel.clone());
    let session = match sink_stream {
        Ok(sink_stream) => session.on_progress(move |it| {
            let i = iter.fetch_add(1, Ordering::Relaxed) + 1;
            let line = Line::progress()
                .field("iter", i)
                .field("chosen", it.chosen)
                .float("gain", it.gain)
                .float("seconds", it.seconds)
                .render();
            let mut s = poison::lock_recover(&sink_stream);
            if writeln!(s, "{line}").and_then(|_| s.flush()).is_err() {
                sink_cancel.cancel();
            }
        }),
        Err(_) => session,
    };
    let session = match deadline {
        Some(d) => session.deadline(d),
        None => session,
    };
    // Register the run's cancel token so a timed-out shutdown drain can
    // interrupt it (the greedy loop returns its partial selection).
    let run_id = state.seq.fetch_add(1, Ordering::Relaxed);
    state
        .inflight_cancels
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(run_id, cancel.clone());
    let mut ws = state.pop_workspace();
    let result = session.run_reusing(&mut ws);
    state.push_workspace(ws);
    state
        .inflight_cancels
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&run_id);

    let sel = result.map_err(map_cfcm_error)?;
    if cancel.is_cancelled() {
        state.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::new(
            ErrorCode::Cancelled,
            "client disconnected mid-run",
        ));
    }
    Ok(Line::ok()
        .list("nodes", sel.nodes.iter())
        .field("complete", sel.nodes.len() == k)
        .field("iters", sel.stats.iterations.len())
        .field("solves", sel.stats.solve.solves)
        .float("ms", t0.elapsed().as_secs_f64() * 1e3)
        .render())
}
