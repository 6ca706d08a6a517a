//! # cfcc-linalg
//!
//! Linear-algebra substrate for the CFCM reproduction, written from scratch
//! because the target environment has no BLAS/LAPACK binding and no mature
//! sparse SDD solver crate.
//!
//! ## The `SddSolver` backend API
//!
//! Every grounded Laplacian system `L_{-S} x = b` the algorithms solve
//! goes through **one factor-once/solve-many surface**: [`sdd::SddSolver`]
//! produces an [`sdd::SddFactor`] exposing `solve_vec`, `solve_mat`
//! (multi-RHS), `diag_inverse`, and `trace_inverse`, plus a cumulative
//! [`sdd::SolveStats`] report (iterations, worst residual, flops).
//! Backends are registered by name ([`sdd::backends`]) and selected via
//! [`sdd::SddBackend`] (`auto` picks dense up to 1536 unknowns and
//! `sparse-cg` above):
//!
//! | backend          | kind      | storage       | operations |
//! |------------------|-----------|---------------|------------|
//! | `dense-cholesky` | direct    | dense + blocked Cholesky | all, exact; `O(n³)` factor amortized over RHS |
//! | `sparse-cg`      | iterative | CSR + IC(0)   | all, to `rel_tol`; `O(n + m)` memory, never densifies |
//!
//! The iterative backend answers `solve_mat` through **blocked multi-RHS
//! PCG** ([`cg::pcg_operator_block`]): all active right-hand sides advance
//! in lockstep, so each SpMV and each preconditioner sweep is shared
//! across the block, and converged columns deflate out. Every solve with
//! more than one right-hand side — `diag_inverse`, Hutchinson probes,
//! ApproxGreedy's sketches — goes through `solve_mat_into` in panels of
//! [`sdd::RHS_CHUNK`] columns.
//!
//! Consumers in `cfcc-core` (ApproxGreedy, the CFCC evaluators, Schur
//! utilities) dispatch through this seam, so swapping a solver touches no
//! greedy loop.
//!
//! ## Modules
//!
//! * [`sdd`] — the backend trait, registry, and the two backends above.
//! * [`pool`] — the persistent worker pool every parallel kernel runs on:
//!   spawn once, park between jobs, task-index dispatch with
//!   caller-computed partitioning (bit-identical results per thread
//!   count).
//! * [`kernel`] — the blocked dense kernel engine: packed tiled GEMM, SYRK
//!   symmetric updates (including the triangular depth-clipped variant
//!   behind `Cholesky::inverse`), and pool-backed row-panel parallelism
//!   (block sizes and packing layout documented there).
//! * [`dense`] — row-major dense matrices with a *blocked* Cholesky
//!   factorization, multi-RHS triangular solves
//!   (`solve_mat`/`solve_vec`: factor once, solve many), diagonal-only
//!   inverse extraction, and — where an algorithm genuinely consumes
//!   inverse entries — blocked inverses. Used by the `Exact` baseline, the
//!   brute-force optimum, the Schur-complement inversion (`|T| × |T|`
//!   blocks), and as the oracle in estimator tests.
//! * [`csr`] — compressed-sparse-row grounded Laplacians and the IC(0)
//!   incomplete-Cholesky preconditioner behind the `sparse-cg` backend.
//! * [`laplacian`] — dense Laplacians of a [`cfcc_graph::Graph`]: the full
//!   `L` and the grounded submatrix `L_{-S}` on compacted index space.
//! * [`cg`] — the preconditioned-CG loops: single-RHS
//!   ([`cg::pcg_operator`], also behind the nullspace-projected
//!   pseudoinverse solve `L† b`) and blocked multi-RHS
//!   ([`cg::pcg_operator_block`]). This is the substitute for the Julia
//!   Kyng–Sachdeva solver used by the paper's ApproxGreedy baseline.
//! * [`jl`] — Johnson–Lindenstrauss Rademacher sketches (Lemma 3.4).
//! * [`trace`] — exact and Hutchinson traces of `Tr(L_{-S}^{-1})`
//!   through any [`sdd::SddFactor`], which the paper uses to evaluate CFCC
//!   on large graphs.
//! * [`pinv`] — dense pseudoinverse `L†` via `(L + J/n)^{-1} − J/n`, plus
//!   the diagonal-only variant the greedy first pick consumes.

pub mod cg;
pub mod csr;
pub mod dense;
pub mod error;
pub mod jl;
pub mod kernel;
pub mod laplacian;
pub mod pinv;
pub mod pool;
pub mod sdd;
pub mod trace;
pub mod vector;

pub use cg::{CgConfig, CgStats, StopCause, StopHook};
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use sdd::{OwnedFactor, SddBackend, SddFactor, SddOptions, SddSolver, SolveStats};
