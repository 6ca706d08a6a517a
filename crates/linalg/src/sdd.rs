//! The SDD-solver front door: one factor-once/solve-many surface over
//! every way this crate can solve grounded Laplacian systems
//! `L_{-S} x = b`.
//!
//! The paper's ApproxGreedy only reaches million-node graphs because every
//! solve goes through a sparse SDD solver; the greedy loops themselves
//! never care *which*. An [`SddBackend`] names the backend, and
//! [`factor`] is the one way to build a factor through it:
//!
//! | backend          | kind      | representation | best for |
//! |------------------|-----------|----------------|----------|
//! | `dense-cholesky` | direct    | dense `L_{-S}` + blocked Cholesky | `n ≲ 2k`: exact, amortizes over many RHS |
//! | `sparse-cg`      | iterative | CSR + IC(0) preconditioner | large graphs; never densifies |
//!
//! `sparse-cg` answers [`SddFactor::solve_mat`] through **blocked
//! multi-RHS PCG** ([`crate::cg::pcg_operator_block`]): the whole RHS
//! block advances in lockstep so each operator sweep and each
//! preconditioner sweep is shared across the columns, with converged
//! columns deflating out — a 16-column `solve_mat` costs one traversal of
//! the matrix per iteration, not sixteen.
//!
//! Every solve with more than one right-hand side goes through
//! [`SddFactor::solve_mat_into`] in panels of [`RHS_CHUNK`] columns: the
//! default [`SddFactor::diag_inverse`] (identity panels), the Hutchinson
//! probes of [`crate::trace`], and ApproxGreedy's sketched solves.
//! [`SddFactor::solve_vec_into`] stays the path for genuine single
//! right-hand sides, where a one-column block costs more than plain PCG.
//!
//! # Contract
//!
//! [`factor`] grounds `S`, does whatever setup the backend needs (dense
//! factorization, or CSR assembly + incomplete Cholesky), and returns an
//! [`SddFactor`] over the **compacted** index space `V ∖ S` (same
//! ordering as [`crate::laplacian::laplacian_submatrix_dense`]). The
//! factor owns everything it needs, so it never borrows the graph. It
//! then answers any number of:
//!
//! * [`SddFactor::solve_vec`] / [`SddFactor::solve_mat`] — single and
//!   multi-RHS solves (`A X = B`, RHS as matrix columns);
//! * [`SddFactor::diag_inverse`] / [`SddFactor::trace_inverse`] — the
//!   quantities CFCC evaluation consumes (`C(S) = n / Tr(L_{-S}^{-1})`);
//! * [`SddFactor::stats`] — a cumulative [`SolveStats`] report
//!   (iterations, worst residual, approximate flops).
//!
//! Iterative backends surface non-convergence as
//! [`LinalgError::DidNotConverge`] instead of silent flags, and a
//! grounding that leaves part of the graph unreachable from `S` (which
//! makes `L_{-S}` singular) fails at factor time with
//! [`LinalgError::SingularGrounding`] instead of producing an `inf`/NaN
//! preconditioner. On iterative backends [`SddFactor::solve_vec_into`]
//! honors the incoming `x` as the initial guess (warm start).
//!
//! # Selection
//!
//! Callers hold an [`SddBackend`] (a `CfcmParams` field / `--backend`
//! upstream): `auto` picks `dense-cholesky` up to
//! [`SddBackend::AUTO_DENSE_LIMIT`] unknowns (where the blocked dense
//! layer wins) and `sparse-cg` above it, on every topology.
//! [`SddBackend::resolve`] applies that policy, [`SddBackend::parse`]
//! accepts the names and their aliases, and [`SddBackend::ALL`] lists
//! them (`--list-backends`).

use crate::cg::{pcg_operator, pcg_operator_block, StopCause, StopHook};
use crate::csr::{CsrMatrix, IncompleteCholesky};
use crate::dense::Cholesky;
use crate::error::LinalgError;
use crate::laplacian::laplacian_submatrix_dense;
use crate::DenseMatrix;
use cfcc_graph::{Graph, Node};

/// Column width of every multi-RHS panel: ApproxGreedy's sketched
/// chunks, the identity panels of [`SddFactor::diag_inverse`] and the
/// Hutchinson probe panels of [`crate::trace`]. It bounds the live solver
/// workspace at `O(n · RHS_CHUNK)` while still sharing each blocked-PCG
/// sweep (and each dense triangular pass) over a full panel.
pub const RHS_CHUNK: usize = 16;

/// Cumulative work report of an [`SddFactor`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Right-hand sides solved so far.
    pub solves: u64,
    /// Total Krylov iterations (0 for direct backends).
    pub iterations: u64,
    /// Worst relative residual over all solves (0 for direct backends).
    pub max_rel_residual: f64,
    /// Relative residual of the most recent solve (0 for direct
    /// backends) — lets callers attribute residuals to their own solves
    /// on a shared factor.
    pub last_rel_residual: f64,
    /// Approximate floating-point operations, factorization included.
    pub flops: u64,
    /// Diagonal perturbation the preconditioner needed to factor (the
    /// IC(0) Manteuffel shift `α` in `A + α·diag(A)`): 0 in the M-matrix
    /// common case. A nonzero value means the preconditioner — never the
    /// system being solved — was perturbed to stay positive definite;
    /// solves still converge to the true solution, possibly in more
    /// iterations. Historically this was swallowed.
    pub precond_shift: f64,
}

/// Tuning for a factor and its solves, and for the CG loops of
/// [`crate::cg`] (tolerances only bind iterative solves).
#[derive(Debug, Clone)]
pub struct SddOptions {
    /// Relative residual target of iterative solves: stop when
    /// `‖r‖ ≤ rel_tol · ‖b‖`.
    pub rel_tol: f64,
    /// Iteration cap per right-hand side.
    pub max_iter: usize,
    /// Worker threads for the blocked dense kernels and the blocked
    /// multi-RHS PCG's row updates (reductions stay serial, so results
    /// are bit-identical across thread counts).
    pub threads: usize,
    /// Cooperative cancellation, polled at the top of every iteration of
    /// an iterative solve. A fired hook surfaces as
    /// [`LinalgError::Cancelled`] / [`LinalgError::DeadlineExceeded`]
    /// with the partial work already folded into [`SolveStats`] and the
    /// partial iterate left in `x` for a warm-started retry.
    pub stop: StopHook,
}

impl Default for SddOptions {
    fn default() -> Self {
        Self {
            rel_tol: 1e-8,
            max_iter: 50_000,
            threads: 1,
            stop: StopHook::none(),
        }
    }
}

impl SddOptions {
    /// Options with the given relative tolerance.
    pub fn with_tol(rel_tol: f64) -> Self {
        Self {
            rel_tol,
            ..Self::default()
        }
    }
}

/// A factored grounded Laplacian `L_{-S}`, ready to solve many systems.
///
/// All vectors live in the compacted index space `V ∖ S` (ascending node
/// order); [`SddFactor::kept_nodes`] and [`SddFactor::compact_of`]
/// translate. Methods take `&mut self` because iterative factors
/// accumulate [`SolveStats`] and reuse internal workspaces.
pub trait SddFactor {
    /// Dimension `|V ∖ S|` of the compacted system.
    fn dim(&self) -> usize;

    /// Kept nodes in compact order.
    fn kept_nodes(&self) -> &[Node];

    /// Compact index of original node `u`, if kept.
    fn compact_of(&self, u: Node) -> Option<usize>;

    /// Original node at compact index `i`.
    fn node_of(&self, i: usize) -> Node {
        self.kept_nodes()[i]
    }

    /// Solve `L_{-S} x = b` into `x`. On iterative backends the incoming
    /// `x` is the **initial guess** (warm start — pass zeros for a cold
    /// solve; the greedy loops' nearly-identical successive systems
    /// converge in far fewer iterations from the previous solution);
    /// direct backends overwrite it. Callers must pass finite values.
    fn solve_vec_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError>;

    /// Solve `L_{-S} x = b` into a fresh vector (cold start).
    fn solve_vec(&mut self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_vec_into(b, &mut x)?;
        Ok(x)
    }

    /// Multi-RHS solve `L_{-S} X = B` into a caller-owned block. On
    /// iterative backends every column of `x` carries its **initial
    /// guess** (block warm start — the greedy engine seeds it with the
    /// previous iteration's solutions projected onto the new grounding,
    /// cutting the Krylov iteration count of the nearly-identical
    /// successive systems); direct backends overwrite it. Backends answer
    /// it in one blocked pass (triangular solves or blocked multi-RHS
    /// PCG).
    fn solve_mat_into(&mut self, b: &DenseMatrix, x: &mut DenseMatrix) -> Result<(), LinalgError>;

    /// Multi-RHS solve `L_{-S} X = B` (RHS as the columns of `b`), cold
    /// started. Direct backends amortize the factorization across all
    /// columns in one blocked pass; iterative backends answer with
    /// blocked multi-RHS PCG.
    fn solve_mat(&mut self, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if b.rows() != self.dim() {
            return Err(LinalgError::DimensionMismatch(format!(
                "RHS has {} rows, factor dimension is {}",
                b.rows(),
                self.dim()
            )));
        }
        let mut x = DenseMatrix::zeros(self.dim(), b.cols());
        self.solve_mat_into(b, &mut x)?;
        Ok(x)
    }

    /// `diag(L_{-S}^{-1})` — resistances to the grounded group. Direct
    /// backends read it off the triangular factor; this default solves
    /// the identity in cold-started [`RHS_CHUNK`]-column panels through
    /// [`SddFactor::solve_mat_into`].
    fn diag_inverse(&mut self) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        let mut diag = vec![0.0; n];
        let mut b = DenseMatrix::default();
        let mut x = DenseMatrix::default();
        for j0 in (0..n).step_by(RHS_CHUNK) {
            let c = RHS_CHUNK.min(n - j0);
            b.reshape(n, c);
            b.fill_zero();
            x.reshape(n, c);
            x.fill_zero();
            for t in 0..c {
                b.set(j0 + t, t, 1.0);
            }
            self.solve_mat_into(&b, &mut x)?;
            for (t, d) in diag[j0..j0 + c].iter_mut().enumerate() {
                *d = x.get(j0 + t, t);
            }
        }
        Ok(diag)
    }

    /// `Tr(L_{-S}^{-1})` — the CFCC denominator.
    fn trace_inverse(&mut self) -> Result<f64, LinalgError> {
        Ok(self.diag_inverse()?.iter().sum())
    }

    /// Cumulative work report.
    fn stats(&self) -> SolveStats;

    /// Install (or clear, with [`StopHook::none`]) the cooperative stop
    /// hook polled by subsequent iterative solves — the seam a server
    /// uses to attach per-request deadlines to a long-lived cached
    /// factor. No-op on direct backends. Callers that install a
    /// request-scoped hook must clear it before the factor is reused.
    fn set_stop(&mut self, _stop: StopHook) {}
}

/// Original-node → compact-index map for a kept-node list (`usize::MAX`
/// for grounded nodes) — the one compact-index convention, shared by
/// every backend.
fn compact_pos(num_nodes: usize, keep: &[Node]) -> Vec<usize> {
    let mut pos = vec![usize::MAX; num_nodes];
    for (i, &u) in keep.iter().enumerate() {
        pos[u as usize] = i;
    }
    pos
}

/// `L_{-S}` is positive definite iff every kept node has a path to the
/// grounded set `S`. `sparse-cg` checks this up front (one
/// `O(n + m)` BFS from all of `S`) so an isolated vertex or a component
/// disjoint from `S` fails with a structured
/// [`LinalgError::SingularGrounding`] instead of an `inf`/NaN
/// preconditioner and a garbage non-converged solve. (The dense backend
/// needs no check: its Cholesky factorization rejects the singular
/// matrix on its own.)
fn check_grounding(g: &Graph, in_s: &[bool]) -> Result<(), LinalgError> {
    assert_eq!(in_s.len(), g.num_nodes());
    let roots: Vec<Node> = in_s
        .iter()
        .enumerate()
        .filter_map(|(u, &grounded)| grounded.then_some(u as Node))
        .collect();
    let tree = cfcc_graph::traversal::bfs_from_set(g, &roots);
    match (0..g.num_nodes() as Node).find(|&u| !tree.reached(u)) {
        Some(node) => Err(LinalgError::SingularGrounding {
            node: node as usize,
        }),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// dense-cholesky
// ---------------------------------------------------------------------

/// Direct backend: dense `L_{-S}` + blocked Cholesky.
struct DenseFactor {
    ch: Cholesky,
    keep: Vec<Node>,
    pos: Vec<usize>,
    threads: usize,
    stats: SolveStats,
}

impl DenseFactor {
    fn new(g: &Graph, in_s: &[bool], opts: &SddOptions) -> Result<Self, LinalgError> {
        let (dense, keep) = laplacian_submatrix_dense(g, in_s);
        let n = dense.rows();
        let ch = dense.cholesky_threaded(opts.threads)?;
        let pos = compact_pos(g.num_nodes(), &keep);
        Ok(DenseFactor {
            ch,
            keep,
            pos,
            threads: opts.threads,
            stats: SolveStats {
                flops: (n as u64).pow(3) / 3,
                ..SolveStats::default()
            },
        })
    }
}

impl SddFactor for DenseFactor {
    fn dim(&self) -> usize {
        self.ch.dim()
    }

    fn kept_nodes(&self) -> &[Node] {
        &self.keep
    }

    fn compact_of(&self, u: Node) -> Option<usize> {
        let p = self.pos[u as usize];
        (p != usize::MAX).then_some(p)
    }

    fn solve_vec_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        if b.len() != self.dim() || x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch(format!(
                "vector length vs factor dimension {}",
                self.dim()
            )));
        }
        x.copy_from_slice(b);
        self.ch.solve_vec(x);
        self.stats.solves += 1;
        self.stats.flops += 2 * (self.dim() as u64).pow(2);
        Ok(())
    }

    fn solve_mat_into(&mut self, b: &DenseMatrix, x: &mut DenseMatrix) -> Result<(), LinalgError> {
        if b.rows() != self.dim() || x.rows() != self.dim() || b.cols() != x.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "RHS {}×{} / out {}×{} vs factor dimension {}",
                b.rows(),
                b.cols(),
                x.rows(),
                x.cols(),
                self.dim()
            )));
        }
        // Direct backend: the incoming `x` is pure output (no guess).
        x.data_mut().copy_from_slice(b.data());
        self.ch.solve_mat_in_place(x, self.threads);
        self.stats.solves += b.cols() as u64;
        self.stats.flops += 2 * (self.dim() as u64).pow(2) * b.cols() as u64;
        Ok(())
    }

    fn diag_inverse(&mut self) -> Result<Vec<f64>, LinalgError> {
        self.stats.flops += (self.dim() as u64).pow(3) / 2;
        Ok(self.ch.diag_inverse())
    }

    fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// Shared iterative-backend bookkeeping: fold one PCG run into the
/// cumulative [`SolveStats`] (`flops_per_iter` is the backend's rough
/// per-iteration cost) and map non-convergence to the error contract.
fn record_iterative(
    total: &mut SolveStats,
    run: &crate::cg::CgStats,
    flops_per_iter: u64,
) -> Result<(), LinalgError> {
    total.solves += 1;
    total.iterations += run.iterations as u64;
    total.max_rel_residual = total.max_rel_residual.max(run.rel_residual);
    total.last_rel_residual = run.rel_residual;
    total.flops += run.iterations as u64 * flops_per_iter;
    // An interruption is reported AFTER the partial work is folded into
    // the stats: callers see the true cost of the aborted sweep.
    if let Some(cause) = run.stopped {
        return Err(stop_error(cause, run.iterations));
    }
    if !run.converged {
        return Err(LinalgError::DidNotConverge {
            iterations: run.iterations,
            residual: run.rel_residual,
        });
    }
    Ok(())
}

/// Map a fired [`StopCause`] to the typed error contract.
fn stop_error(cause: StopCause, iterations: usize) -> LinalgError {
    match cause {
        StopCause::Cancelled => LinalgError::Cancelled { iterations },
        StopCause::DeadlineExceeded => LinalgError::DeadlineExceeded { iterations },
    }
}

/// Fold one blocked multi-RHS PCG run (one [`crate::cg::CgStats`] per
/// column) into the cumulative [`SolveStats`]. `flops_per_iter` is the
/// backend's per-iteration cost of a *full-width* sweep; with deflation
/// the true cost shrinks as columns finish, so attribute it per column —
/// a conservative overestimate. Any non-converged column maps to the
/// error contract (worst residual wins).
fn record_block(
    total: &mut SolveStats,
    runs: &[crate::cg::CgStats],
    flops_per_iter: u64,
) -> Result<(), LinalgError> {
    let mut worst: Option<&crate::cg::CgStats> = None;
    let mut stopped: Option<(StopCause, usize)> = None;
    let mut block_res = 0.0f64;
    for run in runs {
        total.solves += 1;
        total.iterations += run.iterations as u64;
        total.max_rel_residual = total.max_rel_residual.max(run.rel_residual);
        block_res = block_res.max(run.rel_residual);
        total.flops += run.iterations as u64 * flops_per_iter;
        if let Some(cause) = run.stopped {
            stopped = Some((cause, run.iterations));
        } else if !run.converged && worst.is_none_or(|w| run.rel_residual > w.rel_residual) {
            worst = Some(run);
        }
    }
    total.last_rel_residual = block_res;
    // Interruption wins over non-convergence: a fired hook freezes every
    // active column, so a "did not converge" column in the same block is
    // just a column the interrupt reached first.
    if let Some((cause, iterations)) = stopped {
        return Err(stop_error(cause, iterations));
    }
    if let Some(w) = worst {
        return Err(LinalgError::DidNotConverge {
            iterations: w.iterations,
            residual: w.rel_residual,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// sparse-cg
// ---------------------------------------------------------------------

/// Iterative backend: CSR `L_{-S}` with an IC(0) incomplete-Cholesky
/// preconditioner. `O(n + m)` memory end to end — the Laplacian is never
/// densified. The substitute for the paper's Kyng–Sachdeva solver.
struct SparseCgFactor {
    csr: CsrMatrix,
    ic: IncompleteCholesky,
    keep: Vec<Node>,
    pos: Vec<usize>,
    cfg: SddOptions,
    stats: SolveStats,
}

impl SparseCgFactor {
    fn new(g: &Graph, in_s: &[bool], opts: &SddOptions) -> Result<Self, LinalgError> {
        check_grounding(g, in_s)?;
        let (csr, keep, pos) = CsrMatrix::grounded_laplacian(g, in_s);
        let ic = IncompleteCholesky::factor(&csr)?;
        Ok(SparseCgFactor::from_parts(csr, ic, keep, pos, opts.clone()))
    }

    /// Assemble a factor from an already-built matrix + preconditioner
    /// (the factor path and the breakdown tests share this), recording
    /// the IC(0) shift in the stats so callers can see the perturbation.
    fn from_parts(
        csr: CsrMatrix,
        ic: IncompleteCholesky,
        keep: Vec<Node>,
        pos: Vec<usize>,
        cfg: SddOptions,
    ) -> Self {
        Self {
            stats: SolveStats {
                // Pattern setup + one pass of multiply-adds per stored
                // lower entry, roughly.
                flops: 4 * csr.nnz() as u64,
                precond_shift: ic.shift(),
                ..SolveStats::default()
            },
            ic,
            keep,
            pos,
            cfg,
            csr,
        }
    }

    /// SpMV + two triangular solves + 5 vector ops per iteration.
    fn flops_per_iter(&self) -> u64 {
        2 * self.csr.nnz() as u64 + 4 * self.ic.nnz_lower() as u64 + 12 * self.csr.dim() as u64
    }
}

impl SddFactor for SparseCgFactor {
    fn dim(&self) -> usize {
        self.csr.dim()
    }

    fn kept_nodes(&self) -> &[Node] {
        &self.keep
    }

    fn compact_of(&self, u: Node) -> Option<usize> {
        let p = self.pos[u as usize];
        (p != usize::MAX).then_some(p)
    }

    fn solve_vec_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        if b.len() != self.dim() || x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch(format!(
                "vector length vs factor dimension {}",
                self.dim()
            )));
        }
        // `x` carries the caller's initial guess (warm start), per the
        // trait contract — do NOT zero it here.
        let csr = &self.csr;
        let ic = &self.ic;
        let stats = pcg_operator(
            |v, out| csr.spmv(v, out),
            |r, z| ic.apply(r, z),
            b,
            x,
            &self.cfg,
        );
        let fpi = self.flops_per_iter();
        record_iterative(&mut self.stats, &stats, fpi)
    }

    fn solve_mat_into(&mut self, b: &DenseMatrix, x: &mut DenseMatrix) -> Result<(), LinalgError> {
        if b.rows() != self.dim() || x.rows() != self.dim() || b.cols() != x.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "RHS {}×{} / guess {}×{} vs factor dimension {}",
                b.rows(),
                b.cols(),
                x.rows(),
                x.cols(),
                self.dim()
            )));
        }
        // Every column of `x` is that column's initial guess (block warm
        // start), per the trait contract.
        let csr = &self.csr;
        let ic = &self.ic;
        let threads = self.cfg.threads;
        let runs = pcg_operator_block(
            |v, out| csr.spmm_threaded(v, out, threads),
            |r, z| ic.apply_block(r, z),
            b,
            x,
            &self.cfg,
        );
        let fpi = self.flops_per_iter();
        record_block(&mut self.stats, &runs, fpi)
    }

    fn stats(&self) -> SolveStats {
        self.stats
    }

    fn set_stop(&mut self, stop: StopHook) {
        self.cfg.stop = stop;
    }
}

// ---------------------------------------------------------------------
// selection policy + front door
// ---------------------------------------------------------------------

/// The SDD backend: a `CfcmParams` field, `--backend` upstream, and the
/// only handle on a backend. `auto` is a policy; [`SddBackend::resolve`]
/// turns it into one of the two concrete backends, and [`factor`] builds
/// a factor through the concrete one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SddBackend {
    /// `dense-cholesky` up to [`SddBackend::AUTO_DENSE_LIMIT`] unknowns,
    /// `sparse-cg` above.
    #[default]
    Auto,
    /// Force `dense-cholesky`.
    DenseCholesky,
    /// Force `sparse-cg`.
    SparseCg,
}

/// Alias table (alias → backend); names are matched case-insensitively.
const ALIASES: [(&str, SddBackend); 4] = [
    ("dense", SddBackend::DenseCholesky),
    ("cholesky", SddBackend::DenseCholesky),
    ("sparse", SddBackend::SparseCg),
    ("ic", SddBackend::SparseCg),
];

impl SddBackend {
    /// Crossover of the `auto` policy: the dense blocked layer wins up to
    /// this many unknowns (factor amortized over many RHS), the CSR path
    /// above (where `O(n³)` and `O(n²)` memory stop being payable).
    pub const AUTO_DENSE_LIMIT: usize = 1536;

    /// Every backend, in listing order: the `auto` policy first.
    pub const ALL: [SddBackend; 3] = [
        SddBackend::Auto,
        SddBackend::DenseCholesky,
        SddBackend::SparseCg,
    ];

    /// Parse a CLI/user name ("auto", a canonical backend name, or an
    /// alias), case-insensitively.
    pub fn parse(name: &str) -> Option<Self> {
        let name = name.to_ascii_lowercase();
        ALIASES
            .iter()
            .find(|(alias, _)| *alias == name)
            .map(|&(_, backend)| backend)
            .or_else(|| Self::ALL.into_iter().find(|b| b.name() == name))
    }

    /// The aliases [`SddBackend::parse`] accepts for this backend besides
    /// its name, in table order (none for `auto`).
    pub fn aliases(self) -> impl Iterator<Item = &'static str> {
        ALIASES
            .into_iter()
            .filter(move |&(_, backend)| backend == self)
            .map(|(alias, _)| alias)
    }

    /// Display name ("auto" or the canonical backend name).
    pub fn name(self) -> &'static str {
        match self {
            SddBackend::Auto => "auto",
            SddBackend::DenseCholesky => "dense-cholesky",
            SddBackend::SparseCg => "sparse-cg",
        }
    }

    /// Backend family: `direct` (factorize once, solve exactly up to
    /// rounding), `iterative` (Krylov iteration to a relative tolerance),
    /// or `policy` for `auto`.
    pub fn kind(self) -> &'static str {
        match self {
            SddBackend::Auto => "policy",
            SddBackend::DenseCholesky => "direct",
            SddBackend::SparseCg => "iterative",
        }
    }

    /// `auto | dense-cholesky | sparse-cg` — for usage strings.
    pub fn name_list() -> String {
        Self::ALL.map(Self::name).join(" | ")
    }

    /// The concrete backend for an `n`-unknown system — never `Auto`:
    /// `auto` resolves to `dense-cholesky` up to
    /// [`SddBackend::AUTO_DENSE_LIMIT`] (blocked factor amortized over
    /// many RHS) and to `sparse-cg` above it, and an explicit backend to
    /// itself. The decision is size-only; resolution never looks at the
    /// graph.
    pub fn resolve(self, n: usize) -> SddBackend {
        match self {
            SddBackend::Auto if n <= Self::AUTO_DENSE_LIMIT => SddBackend::DenseCholesky,
            SddBackend::Auto => SddBackend::SparseCg,
            concrete => concrete,
        }
    }

    /// [`SddBackend::resolve`] for a `kept`-unknown system on `g`; the
    /// graph is ignored. Kept for the benchmark harness under
    /// `perfbench/`, which still spells the resolution this way.
    pub fn resolve_for_graph(self, _g: &Graph, kept: usize) -> SddBackend {
        self.resolve(kept)
    }
}

impl std::fmt::Display for SddBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Factor `L_{-S}` through the chosen backend, resolving `auto` by the
/// number of kept nodes — the one way to build an [`SddFactor`].
pub fn factor(
    g: &Graph,
    in_s: &[bool],
    backend: SddBackend,
    opts: &SddOptions,
) -> Result<Box<dyn SddFactor + Send>, LinalgError> {
    let kept = in_s.iter().filter(|&&s| !s).count();
    Ok(match backend.resolve(kept) {
        SddBackend::DenseCholesky => Box::new(DenseFactor::new(g, in_s, opts)?),
        SddBackend::SparseCg => Box::new(SparseCgFactor::new(g, in_s, opts)?),
        SddBackend::Auto => unreachable!("`resolve` returns a concrete backend"),
    })
}

/// A factor together with the concrete backend that built it — the form
/// a resident service caches across requests, where cache keys and stats
/// want the backend `auto` resolved to, not the policy.
///
/// Produced by [`factor_owned`]. Delegates every [`SddFactor`] method to
/// the wrapped factor.
pub struct OwnedFactor {
    factor: Box<dyn SddFactor + Send>,
    backend: SddBackend,
}

impl OwnedFactor {
    /// The concrete backend that produced this factor (post-`auto`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }
}

impl SddFactor for OwnedFactor {
    fn dim(&self) -> usize {
        self.factor.dim()
    }
    fn kept_nodes(&self) -> &[Node] {
        self.factor.kept_nodes()
    }
    fn compact_of(&self, u: Node) -> Option<usize> {
        self.factor.compact_of(u)
    }
    fn solve_vec_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        self.factor.solve_vec_into(b, x)
    }
    fn solve_mat_into(&mut self, b: &DenseMatrix, x: &mut DenseMatrix) -> Result<(), LinalgError> {
        self.factor.solve_mat_into(b, x)
    }
    fn diag_inverse(&mut self) -> Result<Vec<f64>, LinalgError> {
        self.factor.diag_inverse()
    }
    fn trace_inverse(&mut self) -> Result<f64, LinalgError> {
        self.factor.trace_inverse()
    }
    fn stats(&self) -> SolveStats {
        self.factor.stats()
    }
    fn set_stop(&mut self, stop: StopHook) {
        self.factor.set_stop(stop);
    }
}

/// Factor `L_{-S}` like [`factor`] and record which backend `auto`
/// resolved to, yielding the [`OwnedFactor`] a factor cache holds across
/// requests.
pub fn factor_owned(
    g: &std::sync::Arc<Graph>,
    in_s: &[bool],
    backend: SddBackend,
    opts: &SddOptions,
) -> Result<OwnedFactor, LinalgError> {
    let kept = in_s.iter().filter(|&&s| !s).count();
    let backend = backend.resolve(kept);
    Ok(OwnedFactor {
        factor: factor(g, in_s, backend, opts)?,
        backend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mask(n: usize, grounded: &[usize]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &u in grounded {
            m[u] = true;
        }
        m
    }

    /// The concrete backends, as explicit choices (each resolves to
    /// itself).
    const CONCRETE: [SddBackend; 2] = [SddBackend::DenseCholesky, SddBackend::SparseCg];

    fn sparse(g: &Graph, in_s: &[bool], opts: &SddOptions) -> Box<dyn SddFactor + Send> {
        factor(g, in_s, SddBackend::SparseCg, opts).unwrap()
    }

    #[test]
    fn registry_names_resolve_and_aliases_work() {
        for b in SddBackend::ALL {
            assert_eq!(SddBackend::parse(b.name()), Some(b));
            assert_eq!(SddBackend::parse(&b.name().to_ascii_uppercase()), Some(b));
        }
        assert_eq!(SddBackend::parse("dense"), Some(SddBackend::DenseCholesky));
        assert_eq!(SddBackend::parse("SPARSE"), Some(SddBackend::SparseCg));
        assert_eq!(SddBackend::parse("nope"), None);
        assert!(SddBackend::name_list().starts_with("auto"));
        // Every listed alias parses to its backend.
        let aliases = |b: SddBackend| b.aliases().collect::<Vec<_>>();
        assert_eq!(aliases(SddBackend::DenseCholesky), ["dense", "cholesky"]);
        assert_eq!(aliases(SddBackend::SparseCg), ["sparse", "ic"]);
        assert!(aliases(SddBackend::Auto).is_empty());
        for b in SddBackend::ALL {
            assert!(b.aliases().all(|a| SddBackend::parse(a) == Some(b)));
        }
    }

    #[test]
    fn backend_enum_parses_and_displays() {
        assert_eq!(SddBackend::parse("auto"), Some(SddBackend::Auto));
        assert_eq!(SddBackend::parse("dense"), Some(SddBackend::DenseCholesky));
        assert_eq!(SddBackend::parse("sparse-cg"), Some(SddBackend::SparseCg));
        assert_eq!(SddBackend::parse("IC"), Some(SddBackend::SparseCg));
        assert_eq!(SddBackend::parse("warp"), None);
        // Retired backends and every one of their aliases are unknown.
        for gone in [
            "cg-jacobi",
            "tree-pcg",
            "lsst-pcg",
            "cg",
            "jacobi",
            "tree",
            "lst",
            "vaidya",
            "lsst",
            "akpw",
            "ultrasparsifier",
        ] {
            assert_eq!(SddBackend::parse(gone), None, "{gone}");
        }
        assert_eq!(SddBackend::SparseCg.to_string(), "sparse-cg");
        assert_eq!(
            SddBackend::ALL.map(SddBackend::kind),
            ["policy", "direct", "iterative"]
        );
    }

    #[test]
    fn auto_policy_switches_at_the_limit() {
        let limit = SddBackend::AUTO_DENSE_LIMIT;
        assert_eq!(SddBackend::Auto.resolve(limit), SddBackend::DenseCholesky);
        assert_eq!(SddBackend::Auto.resolve(limit + 1), SddBackend::SparseCg);
        for b in CONCRETE {
            assert_eq!(b.resolve(10), b);
            assert_eq!(b.resolve(limit + 1), b);
        }
    }

    #[test]
    fn all_backends_solve_and_report_stats() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = generators::barabasi_albert(70, 3, &mut rng);
        let in_s = mask(70, &[2, 11]);
        let opts = SddOptions::with_tol(1e-11);
        let b: Vec<f64> = (0..68).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut reference: Option<Vec<f64>> = None;
        for backend in CONCRETE {
            let mut f = factor(&g, &in_s, backend, &opts).unwrap();
            assert_eq!(f.dim(), 68);
            assert_eq!(f.kept_nodes().len(), 68);
            assert_eq!(f.compact_of(2), None);
            assert_eq!(f.node_of(0), 0);
            let x = f.solve_vec(&b).unwrap();
            match &reference {
                None => reference = Some(x),
                Some(r) => {
                    for (a, c) in x.iter().zip(r) {
                        assert!((a - c).abs() < 1e-7, "{}: {a} vs {c}", backend.name());
                    }
                }
            }
            let st = f.stats();
            assert_eq!(st.solves, 1);
            assert!(st.flops > 0);
            if backend == SddBackend::DenseCholesky {
                assert_eq!(st.iterations, 0);
            } else {
                assert!(st.iterations > 0);
                assert!(st.max_rel_residual <= 1e-11);
            }
        }
    }

    /// A grid has cycles, so IC(0) is inexact there and two iterations
    /// cannot reach the tolerance (on a tree such as a path, IC(0) is the
    /// exact factor and PCG would converge in one).
    #[test]
    fn iterative_nonconvergence_is_an_error() {
        let g = generators::grid(30, 30);
        let in_s = mask(900, &[0]);
        let opts = SddOptions {
            rel_tol: 1e-14,
            max_iter: 2,
            ..SddOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(63);
        let b: Vec<f64> = (0..899).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut f = sparse(&g, &in_s, &opts);
        assert!(matches!(
            f.solve_vec(&b),
            Err(LinalgError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn solve_mat_rejects_bad_shapes() {
        let g = generators::cycle(10);
        let in_s = mask(10, &[0]);
        for backend in CONCRETE {
            let mut f = factor(&g, &in_s, backend, &SddOptions::default()).unwrap();
            let bad = DenseMatrix::zeros(4, 2);
            assert!(matches!(
                f.solve_mat(&bad),
                Err(LinalgError::DimensionMismatch(_))
            ));
        }
    }

    #[test]
    fn factor_front_door_resolves_auto_by_kept_count() {
        let g = generators::cycle(30);
        let in_s = mask(30, &[0]);
        let mut f = factor(&g, &in_s, SddBackend::Auto, &SddOptions::default()).unwrap();
        // 29 unknowns → dense: direct solves report zero iterations.
        f.solve_vec(&vec![1.0; 29]).unwrap();
        assert_eq!(f.stats().iterations, 0);
    }

    /// Above the dense limit `auto` routes every topology — the
    /// large-diameter grid and the low-diameter BA graph — to `sparse-cg`;
    /// at the limit it stays dense; explicit backends are never
    /// overridden.
    #[test]
    fn auto_policy_routes_every_large_graph_to_sparse_cg() {
        let grid = generators::grid(45, 45); // 2025 > AUTO_DENSE_LIMIT
        assert_eq!(
            SddBackend::Auto.resolve_for_graph(&grid, 2024),
            SddBackend::SparseCg
        );
        let mut rng = StdRng::seed_from_u64(0x70D0);
        let ba = generators::barabasi_albert(2000, 4, &mut rng);
        assert_eq!(
            SddBackend::Auto.resolve_for_graph(&ba, 1999),
            SddBackend::SparseCg
        );
        for g in [&grid, &ba] {
            assert_eq!(
                SddBackend::Auto.resolve_for_graph(g, SddBackend::AUTO_DENSE_LIMIT),
                SddBackend::DenseCholesky
            );
        }
        assert_eq!(
            SddBackend::DenseCholesky.resolve_for_graph(&ba, 1999),
            SddBackend::DenseCholesky
        );
        // The front door dispatches the policy: a grid factor through
        // `auto` iterates.
        let in_s = mask(grid.num_nodes(), &[0]);
        let mut f = factor(&grid, &in_s, SddBackend::Auto, &SddOptions::default()).unwrap();
        f.solve_vec(&vec![1.0; grid.num_nodes() - 1]).unwrap();
        assert!(f.stats().iterations > 0);
    }

    /// Regression (block warm start): `solve_mat_into` documents that
    /// every column of `x` carries its initial guess; re-solving a block
    /// from its own solutions on `sparse-cg` must converge (nearly)
    /// immediately, and agree with the cold path.
    #[test]
    fn warm_started_block_resolve_takes_fewer_iterations() {
        let mut rng = StdRng::seed_from_u64(0xB77A);
        let g = generators::barabasi_albert(250, 3, &mut rng);
        let in_s = mask(250, &[7]);
        let d = 249;
        let w = 6;
        let mut rhs = DenseMatrix::zeros(d, w);
        for i in 0..d {
            for j in 0..w {
                rhs.set(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let mut f = sparse(&g, &in_s, &SddOptions::with_tol(1e-10));
        let mut x = DenseMatrix::zeros(d, w);
        f.solve_mat_into(&rhs, &mut x).unwrap();
        let cold = f.stats().iterations;
        assert!(cold > 0);
        let cold_x = x.clone();
        // Warm start from the converged block: every column's initial
        // residual already meets the tolerance.
        f.solve_mat_into(&rhs, &mut x).unwrap();
        let warm = f.stats().iterations - cold;
        assert!(
            warm <= w as u64 && warm < cold,
            "warm {warm} vs cold {cold}"
        );
        assert!(x.max_abs_diff(&cold_x) < 1e-8, "warm solutions drifted");
    }

    /// The default `diag_inverse` solves the identity in panels: on
    /// `sparse-cg` it must match the dense factor's diagonal entry by
    /// entry, both for a ragged last panel and for a system narrower than
    /// one panel, with one recorded solve per column.
    #[test]
    fn panel_diag_inverse_matches_dense() {
        let mut rng = StdRng::seed_from_u64(0xD1A6);
        for n in [12, 2 * RHS_CHUNK + 8] {
            let g = generators::barabasi_albert(n, 3, &mut rng);
            let in_s = mask(n, &[0]);
            let opts = SddOptions::with_tol(1e-12);
            let mut dense = factor(&g, &in_s, SddBackend::DenseCholesky, &opts).unwrap();
            let expect = dense.diag_inverse().unwrap();
            let mut f = sparse(&g, &in_s, &opts);
            let diag = f.diag_inverse().unwrap();
            assert_eq!(f.stats().solves, n as u64 - 1);
            for (i, (a, b)) in diag.iter().zip(&expect).enumerate() {
                assert!((a - b).abs() <= 1e-9 * b, "n={n} entry {i}: {a} vs {b}");
            }
        }
    }

    /// Regression (singular-system guard): a grounding that leaves nodes
    /// unreachable from S — a disconnected component or an isolated
    /// vertex — must fail at `sparse-cg`'s factor time with a structured
    /// error, not build a 1/0 preconditioner.
    #[test]
    fn singular_grounding_is_a_structured_factor_error() {
        let factor_sparse = |g: &Graph, in_s: &[bool]| {
            factor(g, in_s, SddBackend::SparseCg, &SddOptions::default())
        };
        // Two components: S touches only the first.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let err = factor_sparse(&g, &mask(6, &[0]))
            .err()
            .expect("sparse-cg must reject singular grounding");
        assert!(
            matches!(err, LinalgError::SingularGrounding { node } if node >= 3),
            "{err:?}"
        );
        // Same graph with every component grounded factors fine.
        factor_sparse(&g, &mask(6, &[0, 3])).unwrap();
        // Isolated vertex (zero grounded degree — the historical inf/NaN
        // inv_diag case).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        assert!(matches!(
            factor_sparse(&g, &mask(4, &[0])),
            Err(LinalgError::SingularGrounding { node: 3 })
        ));
    }

    /// Regression (warm-start contract): `solve_vec_into` documents that
    /// `x` carries the initial guess; re-solving the same system on
    /// `sparse-cg` from its own solution must converge (nearly)
    /// immediately.
    #[test]
    fn warm_started_resolve_takes_fewer_iterations() {
        let mut rng = StdRng::seed_from_u64(0x3A9);
        let g = generators::barabasi_albert(300, 3, &mut rng);
        let in_s = mask(300, &[4]);
        let b: Vec<f64> = (0..299).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut f = sparse(&g, &in_s, &SddOptions::with_tol(1e-10));
        let mut x = vec![0.0; 299];
        f.solve_vec_into(&b, &mut x).unwrap();
        let cold = f.stats().iterations;
        assert!(cold > 0);
        // Warm start from the converged solution: the initial residual
        // already meets the tolerance.
        f.solve_vec_into(&b, &mut x).unwrap();
        let warm = f.stats().iterations - cold;
        assert!(warm < cold && warm <= 1, "warm {warm} vs cold {cold}");
    }

    /// The blocked multi-RHS `solve_mat` must agree with per-column
    /// `solve_vec` solves to well within the tolerance, and record one
    /// solve per column in the stats.
    #[test]
    fn blocked_solve_mat_matches_per_column_solves() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for (trial, g) in [
            generators::barabasi_albert(90, 3, &mut rng),
            generators::grid(10, 9),
        ]
        .into_iter()
        .enumerate()
        {
            let n = g.num_nodes();
            let in_s = mask(n, &[1]);
            let d = n - 1;
            let w = 9;
            let mut rhs = DenseMatrix::zeros(d, w);
            for i in 0..d {
                for j in 0..w {
                    rhs.set(i, j, rng.gen_range(-1.0..1.0));
                }
            }
            // Make one column converge much earlier than the rest, so the
            // deflation path is exercised.
            for i in 0..d {
                rhs.set(i, 3, 1e-3 * rhs.get(i, 3));
            }
            let opts = SddOptions::with_tol(1e-11);
            let mut fb = sparse(&g, &in_s, &opts);
            let x = fb.solve_mat(&rhs).unwrap();
            assert_eq!(fb.stats().solves, w as u64);
            assert!(fb.stats().iterations > 0);
            assert!(fb.stats().max_rel_residual <= 1e-11);
            let mut fc = sparse(&g, &in_s, &opts);
            let mut col = vec![0.0; d];
            for j in 0..w {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = rhs.get(i, j);
                }
                let xc = fc.solve_vec(&col).unwrap();
                let scale = xc.iter().fold(1e-30f64, |m, &v| m.max(v.abs()));
                for (i, &v) in xc.iter().enumerate() {
                    assert!(
                        (x.get(i, j) - v).abs() / scale <= 1e-8,
                        "trial {trial} col {j} row {i}: {} vs {v}",
                        x.get(i, j)
                    );
                }
            }
        }
    }

    /// A blocked solve where columns cannot converge must surface the
    /// error contract, same as the per-column path (on a grid, for the
    /// reason given at `iterative_nonconvergence_is_an_error`).
    #[test]
    fn blocked_nonconvergence_is_an_error() {
        let g = generators::grid(30, 30);
        let in_s = mask(900, &[0]);
        let opts = SddOptions {
            rel_tol: 1e-14,
            max_iter: 2,
            ..SddOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(0xBADC);
        let mut rhs = DenseMatrix::zeros(899, 4);
        for i in 0..899 {
            for j in 0..4 {
                rhs.set(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let mut f = sparse(&g, &in_s, &opts);
        assert!(matches!(
            f.solve_mat(&rhs),
            Err(LinalgError::DidNotConverge { .. })
        ));
    }

    /// Regression (surfaced preconditioner shift): a forced IC(0)
    /// breakdown recovers via the Manteuffel shift, and the perturbation
    /// is visible in `SolveStats.precond_shift` instead of being
    /// swallowed; the healthy path reports zero.
    #[test]
    fn manteuffel_shift_surfaces_in_solve_stats() {
        let g = generators::cycle(12);
        let in_s = mask(12, &[0]);
        let (mut csr, keep, pos) = CsrMatrix::grounded_laplacian(&g, &in_s);
        // Kill the diagonal dominance: plain IC(0) pivots go non-positive
        // and the escalation must land on a nonzero shift.
        csr.scale_diagonal(0.45);
        let ic = IncompleteCholesky::factor(&csr).expect("shift escalation recovers");
        assert!(ic.shift() > 0.0);
        let f = SparseCgFactor::from_parts(csr, ic, keep, pos, SddOptions::default());
        assert_eq!(f.stats().precond_shift, f.ic.shift());
        assert!(f.stats().precond_shift > 0.0);

        // Healthy grounded Laplacian: no shift reported, anywhere.
        let mut f = sparse(&g, &in_s, &SddOptions::default());
        f.solve_vec(&[1.0; 11]).unwrap();
        assert_eq!(f.stats().precond_shift, 0.0);
    }
}
