//! Stochastic trace estimation of `Tr(L_{-S}^{-1})`.
//!
//! `C(S) = n / Tr(L_{-S}^{-1})` (Eq. 3). On graphs too large for a dense
//! inverse the paper evaluates solution quality "employing the conjugate
//! gradient method" (§V-B2); this module implements that evaluation as a
//! Hutchinson estimator — `Tr(M^{-1}) ≈ (1/p) Σ_i z_iᵀ M^{-1} z_i` with
//! Rademacher probes `z_i` — where each application of `M^{-1}` is a
//! solve through an [`SddFactor`], so either registered backend (the
//! CSR/IC(0) sparse solver or dense Cholesky) can carry it.
//!
//! Non-convergence of the underlying solves surfaces as
//! [`LinalgError::DidNotConverge`] — historically it was a silent `bool`
//! a caller could forget to check.

use crate::cg::{CgConfig, CgStats};
use crate::error::LinalgError;
use crate::sdd::{self, SddBackend, SddFactor, SddOptions};
use cfcc_graph::Graph;
use rand::Rng;

/// Result of a trace estimate, with the aggregated solver work:
/// `cg.iterations` sums over all solves, `cg.rel_residual` is the worst
/// one, and `cg.converged` means *every* solve met its tolerance
/// (trivially true on direct backends).
#[derive(Debug, Clone, Copy)]
pub struct TraceEstimate {
    /// Estimated trace.
    pub trace: f64,
    /// Number of probes used (for the exact variant: basis columns).
    pub probes: usize,
    /// Standard error of the probe mean (0 when `probes <= 1`).
    pub std_error: f64,
    /// Aggregated solver statistics across all probes.
    pub cg: CgStats,
}

fn aggregate(total: &mut CgStats, solve: &sdd::SolveStats, before: sdd::SolveStats) {
    total.iterations += (solve.iterations - before.iterations) as usize;
    // Residual of this call's window: exact when the window is a single
    // solve or the factor was fresh; on a reused factor with a multi-solve
    // window, fall back to the factor-lifetime maximum (conservative —
    // over-reporting a residual never hides non-convergence).
    let window = if solve.solves == before.solves + 1 {
        solve.last_rel_residual
    } else {
        solve.max_rel_residual
    };
    total.rel_residual = total.rel_residual.max(window);
}

/// Hutchinson trace of `L_{-S}^{-1}` with `probes` Rademacher probes,
/// each applied through `factor`.
pub fn trace_inverse_hutchinson_factor<R: Rng>(
    factor: &mut dyn SddFactor,
    probes: usize,
    rng: &mut R,
) -> Result<TraceEstimate, LinalgError> {
    assert!(probes >= 1);
    let n = factor.dim();
    let mut z = vec![0.0f64; n];
    let mut x = vec![0.0f64; n];
    let mut acc = cfcc_util::Welford::new();
    let mut cg = CgStats {
        iterations: 0,
        rel_residual: 0.0,
        converged: true,
        stopped: None,
    };
    for _ in 0..probes {
        for zi in z.iter_mut() {
            *zi = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        let before = factor.stats();
        // Cold start each probe: iterative solve_vec_into honors `x` as a
        // warm start, and the previous probe's solution is unrelated to
        // this probe's random RHS.
        x.fill(0.0);
        factor.solve_vec_into(&z, &mut x)?;
        aggregate(&mut cg, &factor.stats(), before);
        let quad: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        acc.push(quad);
    }
    let se = if acc.count() > 1 {
        (acc.variance() / acc.count() as f64).sqrt()
    } else {
        0.0
    };
    Ok(TraceEstimate {
        trace: acc.mean(),
        probes,
        std_error: se,
        cg,
    })
}

/// A single-threaded `sparse-cg` factor of `L_{-S}` solving to `cfg`'s
/// tolerance, iteration cap and stop hook.
fn sparse_factor<'g>(
    g: &'g Graph,
    in_s: &[bool],
    cfg: &CgConfig,
) -> Result<Box<dyn SddFactor + Send + 'g>, LinalgError> {
    let opts = SddOptions {
        rel_tol: cfg.rel_tol,
        max_iter: cfg.max_iter,
        threads: 1,
        stop: cfg.stop.clone(),
    };
    sdd::factor(g, in_s, SddBackend::SparseCg, &opts)
}

/// Hutchinson trace on a graph through the `sparse-cg` backend
/// (backend-pluggable callers should factor once through [`crate::sdd`]
/// and use [`trace_inverse_hutchinson_factor`]).
pub fn trace_inverse_hutchinson<R: Rng>(
    g: &Graph,
    in_s: &[bool],
    probes: usize,
    cfg: &CgConfig,
    rng: &mut R,
) -> Result<TraceEstimate, LinalgError> {
    trace_inverse_hutchinson_factor(sparse_factor(g, in_s, cfg)?.as_mut(), probes, rng)
}

/// Exact trace of `L_{-S}^{-1}` by `|V∖S|` `sparse-cg` solves against
/// basis vectors. `O(n)` solves — exact up to the solver tolerance, used
/// for modest `n` where dense `O(n³)` inversion is already too slow but
/// `O(n · m)` solving is fine. A solve that fails to converge aborts with
/// [`LinalgError::DidNotConverge`].
pub fn trace_inverse_exact_cg(
    g: &Graph,
    in_s: &[bool],
    cfg: &CgConfig,
) -> Result<TraceEstimate, LinalgError> {
    trace_inverse_exact_factor(sparse_factor(g, in_s, cfg)?.as_mut())
}

/// Exact trace through an already-built factor: direct backends read it
/// off the factorization; iterative backends pay one solve per column.
pub fn trace_inverse_exact_factor(
    factor: &mut dyn SddFactor,
) -> Result<TraceEstimate, LinalgError> {
    let n = factor.dim();
    let before = factor.stats();
    let trace = factor.trace_inverse()?;
    let mut cg = CgStats {
        iterations: 0,
        rel_residual: 0.0,
        converged: true,
        stopped: None,
    };
    aggregate(&mut cg, &factor.stats(), before);
    Ok(TraceEstimate {
        trace,
        probes: n,
        std_error: 0.0,
        cg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_submatrix_dense;
    use crate::sdd::{DenseCholeskyBackend, SddSolver};
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_trace(g: &Graph, in_s: &[bool]) -> f64 {
        let (m, _) = laplacian_submatrix_dense(g, in_s);
        m.cholesky().unwrap().inverse().trace()
    }

    #[test]
    fn exact_cg_trace_matches_dense() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let mut in_s = vec![false; 40];
        in_s[0] = true;
        in_s[13] = true;
        let expect = dense_trace(&g, &in_s);
        let est = trace_inverse_exact_cg(&g, &in_s, &CgConfig::with_tol(1e-12)).unwrap();
        assert!(est.cg.converged);
        assert!(est.cg.iterations > 0, "aggregated CG work must be reported");
        assert!(
            (est.trace - expect).abs() / expect < 1e-8,
            "{} vs {expect}",
            est.trace
        );
    }

    /// On a grid, not a path: IC(0) is the exact factor of a tree's
    /// grounded Laplacian, so a path converges in one iteration.
    #[test]
    fn nonconvergence_surfaces_as_error_not_flag() {
        let g = generators::grid(30, 30);
        let mut in_s = vec![false; 900];
        in_s[0] = true;
        let cfg = CgConfig {
            rel_tol: 1e-14,
            max_iter: 3,
            ..CgConfig::default()
        };
        assert!(matches!(
            trace_inverse_exact_cg(&g, &in_s, &cfg),
            Err(LinalgError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn hutchinson_is_statistically_consistent() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let mut in_s = vec![false; 60];
        in_s[5] = true;
        let expect = dense_trace(&g, &in_s);
        let est =
            trace_inverse_hutchinson(&g, &in_s, 400, &CgConfig::with_tol(1e-10), &mut rng).unwrap();
        assert!(est.cg.converged);
        // 5 standard errors (plus slack for the tiny bias of finite tol).
        let tol = 5.0 * est.std_error + 1e-6;
        assert!(
            (est.trace - expect).abs() < tol,
            "estimate {} vs dense {} (tol {tol})",
            est.trace,
            expect
        );
    }

    #[test]
    fn hutchinson_through_the_sparse_backend_agrees() {
        // Same probes (same RNG stream) through sparse-cg and the exact
        // dense-cholesky factor give near-identical estimates: sparse-cg
        // answers every probe solve to its tolerance.
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::barabasi_albert(80, 3, &mut rng);
        let mut in_s = vec![false; 80];
        in_s[7] = true;
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let a = trace_inverse_hutchinson(&g, &in_s, 50, &CgConfig::with_tol(1e-11), &mut rng_a)
            .unwrap();
        let mut f = DenseCholeskyBackend
            .factor(&g, &in_s, &SddOptions::default())
            .unwrap();
        let b = trace_inverse_hutchinson_factor(f.as_mut(), 50, &mut rng_b).unwrap();
        assert!(
            (a.trace - b.trace).abs() / a.trace < 1e-7,
            "{} vs {}",
            a.trace,
            b.trace
        );
    }

    #[test]
    fn hutchinson_single_probe_has_zero_se() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::cycle(12);
        let mut in_s = vec![false; 12];
        in_s[4] = true;
        let est = trace_inverse_hutchinson(&g, &in_s, 1, &CgConfig::default(), &mut rng).unwrap();
        assert_eq!(est.probes, 1);
        assert_eq!(est.std_error, 0.0);
    }

    #[test]
    fn grounding_more_nodes_decreases_trace() {
        // Monotonicity of Tr(L_{-S}^{-1}) — the quantity greedy minimizes.
        let mut rng = StdRng::seed_from_u64(37);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let mut in_s = vec![false; 30];
        in_s[2] = true;
        let t1 = trace_inverse_exact_cg(&g, &in_s, &CgConfig::with_tol(1e-10))
            .unwrap()
            .trace;
        in_s[9] = true;
        let t2 = trace_inverse_exact_cg(&g, &in_s, &CgConfig::with_tol(1e-10))
            .unwrap()
            .trace;
        assert!(t2 < t1);
    }
}
