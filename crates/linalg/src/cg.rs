//! Preconditioned conjugate gradients for SDD systems.
//!
//! This is the substitute for the nearly-linear Laplacian solver
//! (Kyng–Sachdeva approximate Gaussian elimination) that the paper's
//! ApproxGreedy baseline calls through Julia. One loop per shape:
//!
//! * [`pcg_operator`] — one right-hand side over an abstract SPD operator
//!   and preconditioner: the `sparse-cg` backend's `solve_vec`, and
//!   [`solve_pseudoinverse`] (`x = L† b`) through nullspace-projecting
//!   closures;
//! * [`pcg_operator_block`] — many right-hand sides in lockstep, sharing
//!   each operator and preconditioner sweep: the `sparse-cg` backend's
//!   `solve_mat`, which every multi-RHS solve goes through.

use std::sync::Arc;

use crate::pool::{self, SendPtr};
use crate::vector::{axpy, dot, norm2, project_out_ones, xpby};
use crate::DenseMatrix;
use cfcc_graph::Graph;

/// Why an in-flight solve was interrupted before it could converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The caller's cancel token fired (client gone, shutdown, …).
    Cancelled,
    /// The caller's deadline elapsed mid-sweep.
    DeadlineExceeded,
}

/// Cooperative cancellation hook polled once per CG iteration. The
/// default is a no-op (`None` inside — `check()` is one branch), so
/// solves without a caller-imposed deadline pay nothing. When the hook
/// fires, the solve returns immediately with the partial iterate left in
/// `x` — a warm-startable state, not a poisoned one.
#[derive(Clone, Default)]
pub struct StopHook(Option<Arc<dyn Fn() -> Option<StopCause> + Send + Sync>>);

impl StopHook {
    /// Hook that polls `f` every iteration.
    pub fn new(f: impl Fn() -> Option<StopCause> + Send + Sync + 'static) -> Self {
        Self(Some(Arc::new(f)))
    }

    /// No hook: never fires, costs one branch per poll.
    pub fn none() -> Self {
        Self(None)
    }

    /// Whether a hook is installed at all.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Poll the hook; `None` means keep iterating.
    #[inline]
    pub fn check(&self) -> Option<StopCause> {
        self.0.as_ref().and_then(|f| f())
    }
}

impl std::fmt::Debug for StopHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "StopHook(set)"
        } else {
            "StopHook(none)"
        })
    }
}

/// Convergence controls for CG.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Stop when `‖r‖ ≤ rel_tol · ‖b‖`.
    pub rel_tol: f64,
    /// Hard iteration cap (defaults to 10·√n + 200, set explicitly for
    /// reproducibility in benchmarks).
    pub max_iter: usize,
    /// Worker threads for the blocked multi-RHS loop's elementwise row
    /// updates (the per-row x/r/p recurrences partition over the pool;
    /// reductions stay serial so results are bit-identical across thread
    /// counts).
    pub threads: usize,
    /// Cooperative cancellation, polled at the top of every iteration.
    pub stop: StopHook,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            rel_tol: 1e-8,
            max_iter: 20_000,
            threads: 1,
            stop: StopHook::none(),
        }
    }
}

impl CgConfig {
    /// Config with the given relative tolerance.
    pub fn with_tol(rel_tol: f64) -> Self {
        Self {
            rel_tol,
            ..Self::default()
        }
    }
}

/// Outcome statistics of a CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖r‖/‖b‖`.
    pub rel_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Set when the solve was interrupted by the [`StopHook`] rather than
    /// finishing on its own (`converged` is `false` in that case and the
    /// partial iterate is left in `x` for a warm-started retry).
    pub stopped: Option<StopCause>,
}

/// Preconditioned CG over an abstract SPD operator: `apply` computes
/// `y = A x`, `precond` computes `z = M^{-1} r`. `x` carries the initial
/// guess and receives the solution. This single loop backs the
/// single-RHS solves of the IC(0)-preconditioned `sparse-cg` backend (see
/// [`crate::sdd`]) and the nullspace-projected [`solve_pseudoinverse`].
pub fn pcg_operator<A, M>(
    mut apply: A,
    mut precond: M,
    b: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
) -> CgStats
where
    A: FnMut(&[f64], &mut [f64]),
    M: FnMut(&[f64], &mut [f64]),
{
    let n = b.len();
    assert_eq!(x.len(), n);
    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut r = vec![0.0; n];
    apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    precond(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = dot(&r, &z);
    let mut res = norm2(&r) / b_norm;
    if res <= cfg.rel_tol {
        return CgStats {
            iterations: 0,
            rel_residual: res,
            converged: true,
            stopped: None,
        };
    }
    for it in 1..=cfg.max_iter {
        if let Some(cause) = cfg.stop.check() {
            // Interrupted: the current iterate stays in `x`, ready to be
            // warm-started by a retry.
            return CgStats {
                iterations: it - 1,
                rel_residual: res,
                converged: false,
                stopped: Some(cause),
            };
        }
        apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Numerical breakdown: report divergence rather than looping.
            return CgStats {
                iterations: it,
                rel_residual: res,
                converged: false,
                stopped: None,
            };
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        res = norm2(&r) / b_norm;
        if res <= cfg.rel_tol {
            return CgStats {
                iterations: it,
                rel_residual: res,
                converged: true,
                stopped: None,
            };
        }
        precond(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    CgStats {
        iterations: cfg.max_iter,
        rel_residual: res,
        converged: false,
        stopped: None,
    }
}

/// Dot product of column `s` of `a` with column `s` of `b`, for every
/// column at once — one pass over the row-major storage, so all columns
/// share each cache line.
fn col_dots(a: &DenseMatrix, b: &DenseMatrix, out: &mut [f64]) {
    out.fill(0.0);
    for i in 0..a.rows() {
        for ((o, &av), &bv) in out.iter_mut().zip(a.row(i)).zip(b.row(i)) {
            *o += av * bv;
        }
    }
}

/// Row-partition `0..n` over the worker pool when the elementwise work
/// (`n · row_work` flops-ish) justifies a dispatch; otherwise run inline.
/// Rows are processed independently with identical per-row arithmetic, so
/// results are bit-identical for every thread count.
fn par_rows(threads: usize, n: usize, row_work: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    /// Minimum elementwise operations per pool task.
    const GRAIN: usize = 16 * 1024;
    let t = threads.max(1).min(n).min(1 + n * row_work / GRAIN);
    if t <= 1 {
        f(0, n);
        return;
    }
    pool::run(t, t, &|tix| {
        let r0 = n * tix / t;
        let r1 = n * (tix + 1) / t;
        if r0 < r1 {
            f(r0, r1);
        }
    });
}

/// Drop the columns of `m` whose slot is not in `live` (ascending slot
/// indices into the current width), preserving order — in place, no
/// reallocation. Forward row order is safe: every write lands at or
/// before the position it reads from.
fn compact_columns(m: &mut DenseMatrix, live: &[usize]) {
    let (rows, old_w, new_w) = (m.rows(), m.cols(), live.len());
    debug_assert!(new_w <= old_w);
    let data = m.data_mut();
    for i in 0..rows {
        for (t, &s) in live.iter().enumerate() {
            data[i * new_w + t] = data[i * old_w + s];
        }
    }
    m.reshape(rows, new_w);
}

/// Blocked multi-RHS preconditioned CG over an abstract SPD operator:
/// `apply` computes `Y = A X` and `precond` computes `Z = M⁻¹ R` for
/// *blocks* of column vectors (row-major `n × width` matrices — the width
/// is whatever the passed blocks have, shrinking as columns converge).
///
/// Every right-hand side column of `b` runs its own mathematically
/// independent CG recurrence (scalar `α`/`β` per column — identical
/// iterates to [`pcg_operator`] on that column), but all active columns
/// advance in lockstep so each operator sweep and each preconditioner
/// sweep is shared across the block: the CSR matrix / adjacency lists /
/// triangular factors are traversed **once per iteration** instead of
/// once per iteration *per column*. Converged (or broken-down) columns
/// are deflated out of the block, so late stragglers don't keep paying
/// for finished work.
///
/// `x` carries the initial guess per column and receives the solutions.
/// Returns one [`CgStats`] per column.
pub fn pcg_operator_block<A, M>(
    mut apply: A,
    mut precond: M,
    b: &DenseMatrix,
    x: &mut DenseMatrix,
    cfg: &CgConfig,
) -> Vec<CgStats>
where
    A: FnMut(&DenseMatrix, &mut DenseMatrix),
    M: FnMut(&DenseMatrix, &mut DenseMatrix),
{
    let n = b.rows();
    let c = b.cols();
    assert_eq!(x.rows(), n);
    assert_eq!(x.cols(), c);
    let mut stats = vec![
        CgStats {
            iterations: 0,
            rel_residual: 0.0,
            converged: true,
            stopped: None,
        };
        c
    ];
    if c == 0 {
        return stats;
    }
    let mut b_norm = vec![0.0f64; c];
    col_dots(b, b, &mut b_norm);
    for bn in b_norm.iter_mut() {
        *bn = bn.sqrt().max(f64::MIN_POSITIVE);
    }

    // R = B − A X over the full block, then deflate the already-converged
    // columns before the first iteration.
    let mut r = DenseMatrix::zeros(n, c);
    apply(x, &mut r);
    for i in 0..n {
        for (ri, &bi) in r.row_mut(i).iter_mut().zip(b.row(i)) {
            *ri = bi - *ri;
        }
    }
    let mut res = vec![0.0f64; c];
    col_dots(&r, &r, &mut res);
    // `active[s]` = original column behind compact slot `s`.
    let mut active: Vec<usize> = Vec::with_capacity(c);
    for j in 0..c {
        res[j] = res[j].sqrt() / b_norm[j];
        stats[j].rel_residual = res[j];
        if res[j] <= cfg.rel_tol {
            stats[j].converged = true;
        } else {
            active.push(j);
        }
    }
    if active.is_empty() {
        return stats;
    }
    if active.len() < c {
        compact_columns(&mut r, &active);
    }

    let mut w = active.len();
    let mut z = DenseMatrix::zeros(n, w);
    precond(&r, &mut z);
    let mut p = z.clone();
    let mut ap = DenseMatrix::zeros(n, w);
    let mut rz = vec![0.0f64; w];
    col_dots(&r, &z, &mut rz);
    let mut rz_new = vec![0.0f64; w];
    let mut res: Vec<f64> = active.iter().map(|&j| stats[j].rel_residual).collect();
    let mut pap = vec![0.0f64; w];
    let mut alpha = vec![0.0f64; w];
    // Slots that finished (converged or broke down) but have not been
    // compacted out yet: they ride along with α = β = 0 — their x, r, and
    // recorded stats stay frozen — until a quarter of the block is dead,
    // then one in-place compaction drops them all. Compacting on every
    // event would cost more than it saves when columns finish in quick
    // succession.
    let mut finished = vec![false; w];
    let mut n_finished = 0usize;

    for it in 1..=cfg.max_iter {
        if let Some(cause) = cfg.stop.check() {
            // Interrupted: freeze every still-active column at its current
            // iterate (already scattered into `x`) so a retry warm-starts.
            for (s, &j) in active.iter().enumerate() {
                if !finished[s] {
                    stats[j] = CgStats {
                        iterations: it - 1,
                        rel_residual: res[s],
                        converged: false,
                        stopped: Some(cause),
                    };
                }
            }
            return stats;
        }
        apply(&p, &mut ap);
        col_dots(&p, &ap, &mut pap);
        for s in 0..w {
            if finished[s] {
                alpha[s] = 0.0;
            } else if pap[s] <= 0.0 || !pap[s].is_finite() {
                // Numerical breakdown: report divergence for this column
                // before its direction can corrupt the iterate.
                stats[active[s]] = CgStats {
                    iterations: it,
                    rel_residual: res[s],
                    converged: false,
                    stopped: None,
                };
                finished[s] = true;
                n_finished += 1;
                alpha[s] = 0.0;
            } else {
                alpha[s] = rz[s] / pap[s];
            }
        }
        // x[:, active[s]] += α_s p[:, s]; r[:, s] −= α_s ap[:, s].
        // Rows are independent, so the update row-partitions over the
        // worker pool (bit-identical for every thread count).
        {
            let xw = x.cols();
            let xp = SendPtr::new(x.data_mut());
            let rp = SendPtr::new(r.data_mut());
            let (pm, apm, act, al) = (&p, &ap, &active, &alpha);
            par_rows(cfg.threads, n, 4 * w, &move |r0, r1| {
                for i in r0..r1 {
                    // SAFETY: rows [r0, r1) of x and r are owned
                    // exclusively by this task (disjoint partition).
                    let xr = unsafe { xp.slice(i * xw, xw) };
                    for (s, &j) in act.iter().enumerate() {
                        xr[j] += al[s] * pm.get(i, s);
                    }
                    // SAFETY: as above — row i of r belongs to this task.
                    let rr = unsafe { rp.slice(i * apm.cols(), apm.cols()) };
                    for (s, rv) in rr.iter_mut().enumerate() {
                        *rv -= al[s] * apm.get(i, s);
                    }
                }
            });
        }
        col_dots(&r, &r, &mut res);
        for s in 0..w {
            res[s] = res[s].sqrt() / b_norm[active[s]];
            if !finished[s] && res[s] <= cfg.rel_tol {
                stats[active[s]] = CgStats {
                    iterations: it,
                    rel_residual: res[s],
                    converged: true,
                    stopped: None,
                };
                finished[s] = true;
                n_finished += 1;
            }
        }
        if n_finished == w {
            return stats;
        }
        if 4 * n_finished >= w {
            let keep: Vec<usize> = (0..w).filter(|&s| !finished[s]).collect();
            compact_columns(&mut r, &keep);
            compact_columns(&mut p, &keep);
            active = keep.iter().map(|&s| active[s]).collect();
            rz = keep.iter().map(|&s| rz[s]).collect();
            res = keep.iter().map(|&s| res[s]).collect();
            w = keep.len();
            z.reshape(n, w);
            ap.reshape(n, w);
            rz_new.truncate(w);
            pap.truncate(w);
            alpha.truncate(w);
            finished.truncate(w);
            finished.fill(false);
            n_finished = 0;
        }
        precond(&r, &mut z);
        col_dots(&r, &z, &mut rz_new);
        for s in 0..w {
            // β = 0 parks finished slots on p = z (finite, unused).
            alpha[s] = if finished[s] || rz[s] == 0.0 {
                0.0
            } else {
                rz_new[s] / rz[s]
            };
        }
        {
            let pw = p.cols();
            let pp = SendPtr::new(p.data_mut());
            let (zm, al) = (&z, &alpha);
            par_rows(cfg.threads, n, 2 * w, &move |r0, r1| {
                for i in r0..r1 {
                    let zr = zm.row(i);
                    // SAFETY: rows [r0, r1) of p are owned exclusively by
                    // this task (disjoint partition).
                    let pr = unsafe { pp.slice(i * pw, pw) };
                    for (s, pv) in pr.iter_mut().enumerate() {
                        *pv = zr[s] + al[s] * *pv;
                    }
                }
            });
        }
        rz.copy_from_slice(&rz_new);
    }
    for (s, &j) in active.iter().enumerate() {
        if !finished[s] {
            stats[j] = CgStats {
                iterations: cfg.max_iter,
                rel_residual: res[s],
                converged: false,
                stopped: None,
            };
        }
    }
    stats
}

/// Solve the pseudoinverse system `x = L† b` for `b ⊥ 1` (the component
/// along `1` is projected out of `b` defensively): Jacobi-preconditioned
/// [`pcg_operator`] on the full Laplacian, restricted to `1⊥` by
/// projecting both the operator output and the preconditioned residual,
/// so rounding cannot reintroduce the `1` direction. The returned `x` is
/// mean-zero, including the partial iterate of an interrupted solve.
pub fn solve_pseudoinverse(g: &Graph, b: &[f64], x: &mut [f64], cfg: &CgConfig) -> CgStats {
    let n = g.num_nodes();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let inv_diag: Vec<f64> = (0..n as u32)
        .map(|u| 1.0 / g.degree(u).max(1) as f64)
        .collect();
    let mut bp = b.to_vec();
    project_out_ones(&mut bp);
    project_out_ones(x);
    let stats = pcg_operator(
        |v, out| {
            for (u, o) in out.iter_mut().enumerate() {
                let mut acc = g.degree(u as u32) as f64 * v[u];
                for &w in g.neighbors(u as u32) {
                    acc -= v[w as usize];
                }
                *o = acc;
            }
            project_out_ones(out);
        },
        |r, z| {
            for ((zi, ri), di) in z.iter_mut().zip(r).zip(&inv_diag) {
                *zi = ri * di;
            }
            project_out_ones(z);
        },
        &bp,
        x,
        cfg,
    );
    project_out_ones(x);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::laplacian::laplacian_submatrix_dense;
    use crate::pinv::pseudoinverse_dense;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Jacobi-preconditioned [`pcg_operator`] on the CSR `L_{-S}`.
    fn grounded_pcg(g: &Graph, in_s: &[bool], b: &[f64], x: &mut [f64], cfg: &CgConfig) -> CgStats {
        let (csr, _, _) = CsrMatrix::grounded_laplacian(g, in_s);
        let inv_diag: Vec<f64> = csr.diagonal().iter().map(|&d| 1.0 / d).collect();
        pcg_operator(
            |v, out| csr.spmv(v, out),
            |r, z| {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(&inv_diag) {
                    *zi = ri * di;
                }
            },
            b,
            x,
            cfg,
        )
    }

    #[test]
    fn grounded_solve_matches_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let mut in_s = vec![false; 60];
        in_s[7] = true;
        in_s[23] = true;
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        let ch = dense.cholesky().unwrap();
        let b: Vec<f64> = (0..58).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = vec![0.0; 58];
        let stats = grounded_pcg(&g, &in_s, &b, &mut x, &CgConfig::with_tol(1e-12));
        assert!(stats.converged, "stats: {stats:?}");
        let exact = ch.solve(&b);
        for i in 0..x.len() {
            assert!(
                (x[i] - exact[i]).abs() < 1e-7,
                "i={i} {} vs {}",
                x[i],
                exact[i]
            );
        }
    }

    #[test]
    fn grounded_solve_path_graph_known_solution() {
        // Path 0-1-2 grounded at node 0: L_{-S} = [[2,-1],[-1,1]],
        // inverse = [[1,1],[1,2]]. Solve for b = e_0 → x = (1,1).
        let g = generators::path(3);
        let in_s = vec![true, false, false];
        let mut x = vec![0.0; 2];
        let stats = grounded_pcg(&g, &in_s, &[1.0, 0.0], &mut x, &CgConfig::with_tol(1e-14));
        assert!(stats.converged);
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_rhs_converges_immediately_with_zero_guess() {
        let g = generators::cycle(10);
        let mut in_s = vec![false; 10];
        in_s[0] = true;
        let mut x = vec![0.0; 9];
        let stats = grounded_pcg(&g, &in_s, &[0.0; 9], &mut x, &CgConfig::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn pseudoinverse_solve_matches_dense_pinv() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::barabasi_albert(50, 2, &mut rng);
        let n = g.num_nodes();
        let pinv = pseudoinverse_dense(&g);
        let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // b need not be orthogonal to 1 — solver projects.
        let mut x = vec![0.0; n];
        let stats = solve_pseudoinverse(&g, &b, &mut x, &CgConfig::with_tol(1e-12));
        assert!(stats.converged);
        project_out_ones(&mut b);
        let mut expect = vec![0.0; n];
        pinv.matvec(&b, &mut expect);
        for i in 0..n {
            assert!(
                (x[i] - expect[i]).abs() < 1e-7,
                "i={i}: {} vs {}",
                x[i],
                expect[i]
            );
        }
    }

    /// A stop hook that fires after a few polls interrupts the
    /// pseudoinverse solve mid-sweep: the stats say `stopped`, and the
    /// partial iterate is still mean-zero (a valid warm start).
    #[test]
    fn interrupted_pseudoinverse_keeps_a_mean_zero_iterate() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut rng = StdRng::seed_from_u64(14);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let b: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let polls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&polls);
        let cfg = CgConfig {
            rel_tol: 1e-14,
            stop: StopHook::new(move || {
                (seen.fetch_add(1, Ordering::Relaxed) >= 3).then_some(StopCause::Cancelled)
            }),
            ..CgConfig::default()
        };
        // A guess with a large component along 1, which must not survive.
        let mut x = vec![5.0; 200];
        let stats = solve_pseudoinverse(&g, &b, &mut x, &cfg);
        assert_eq!(stats.stopped, Some(StopCause::Cancelled));
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
        assert!(x.iter().any(|&v| v != 0.0), "partial iterate kept");
        let mean = x.iter().sum::<f64>() / 200.0;
        assert!(mean.abs() < 1e-14, "mean {mean}");
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let mut in_s = vec![false; 200];
        in_s[0] = true;
        let b: Vec<f64> = (0..199).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cfg = CgConfig::with_tol(1e-10);
        let mut cold = vec![0.0; 199];
        let s1 = grounded_pcg(&g, &in_s, &b, &mut cold, &cfg);
        let mut warm = cold.clone();
        let s2 = grounded_pcg(&g, &in_s, &b, &mut warm, &cfg);
        assert!(s2.iterations <= s1.iterations);
        assert!(s2.iterations <= 1);
    }

    #[test]
    fn reports_nonconvergence_when_capped() {
        let mut rng = StdRng::seed_from_u64(19);
        let g = generators::path(500);
        let mut in_s = vec![false; 500];
        in_s[0] = true;
        let b: Vec<f64> = (0..499).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = vec![0.0; 499];
        let cfg = CgConfig {
            rel_tol: 1e-14,
            max_iter: 3,
            ..CgConfig::default()
        };
        let stats = grounded_pcg(&g, &in_s, &b, &mut x, &cfg);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
    }
}
