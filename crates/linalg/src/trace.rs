//! Hutchinson estimates of `Tr(L_{-S}^{-1})` through any [`SddFactor`].
//!
//! `C(S) = n / Tr(L_{-S}^{-1})` (Eq. 3). On graphs too large for a dense
//! inverse the paper evaluates solution quality "employing the conjugate
//! gradient method" (§V-B2). The exact trace is
//! [`SddFactor::trace_inverse`]: the factor reads it off its triangular
//! factor (`dense-cholesky`) or solves the identity in
//! [`RHS_CHUNK`]-column panels (`sparse-cg`). This module adds the
//! stochastic one, [`trace_inverse_hutchinson_factor`]: the Hutchinson
//! estimate `Tr(M^{-1}) ≈ (1/p) Σ_i z_iᵀ M^{-1} z_i` with Rademacher
//! probes `z_i`, solved in panels of [`RHS_CHUNK`] probes.
//!
//! Non-convergence of the underlying solves surfaces as
//! [`LinalgError::DidNotConverge`], and the solver work lands in the
//! factor's [`SddFactor::stats`].

use crate::error::LinalgError;
use crate::sdd::{SddFactor, RHS_CHUNK};
use crate::DenseMatrix;
use rand::Rng;

/// Result of a Hutchinson trace estimate.
#[derive(Debug, Clone, Copy)]
pub struct TraceEstimate {
    /// Estimated trace.
    pub trace: f64,
    /// Number of probes used.
    pub probes: usize,
    /// Standard error of the probe mean (0 when `probes <= 1`).
    pub std_error: f64,
}

/// Hutchinson trace of `L_{-S}^{-1}` with `probes` Rademacher probes,
/// solved through `factor` in cold-started panels of [`RHS_CHUNK`]
/// probes. The probes are drawn one after another, each over all `n`
/// entries, so a seed gives the same probes whatever the panel width.
pub fn trace_inverse_hutchinson_factor<R: Rng>(
    factor: &mut dyn SddFactor,
    probes: usize,
    rng: &mut R,
) -> Result<TraceEstimate, LinalgError> {
    assert!(probes >= 1);
    let n = factor.dim();
    let mut z = DenseMatrix::default();
    let mut x = DenseMatrix::default();
    let mut acc = cfcc_util::Welford::new();
    for p0 in (0..probes).step_by(RHS_CHUNK) {
        let c = RHS_CHUNK.min(probes - p0);
        z.reshape(n, c);
        for t in 0..c {
            for i in 0..n {
                z.set(i, t, if rng.gen::<bool>() { 1.0 } else { -1.0 });
            }
        }
        x.reshape(n, c);
        x.fill_zero();
        factor.solve_mat_into(&z, &mut x)?;
        for t in 0..c {
            acc.push((0..n).map(|i| z.get(i, t) * x.get(i, t)).sum());
        }
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_submatrix_dense;
    use crate::sdd::{self, SddBackend, SddOptions};
    use cfcc_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_trace(g: &Graph, in_s: &[bool]) -> f64 {
        let (m, _) = laplacian_submatrix_dense(g, in_s);
        m.cholesky().unwrap().inverse().trace()
    }

    fn sparse(g: &Graph, in_s: &[bool], opts: &SddOptions) -> Box<dyn SddFactor + Send> {
        sdd::factor(g, in_s, SddBackend::SparseCg, opts).unwrap()
    }

    #[test]
    fn exact_cg_trace_matches_dense() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let mut in_s = vec![false; 40];
        in_s[0] = true;
        in_s[13] = true;
        let expect = dense_trace(&g, &in_s);
        // 38 unknowns: two full identity panels and a ragged one.
        let mut f = sparse(&g, &in_s, &SddOptions::with_tol(1e-12));
        let trace = f.trace_inverse().unwrap();
        assert_eq!(f.stats().solves, 38);
        assert!(f.stats().iterations > 0, "the CG work must be reported");
        assert!(
            (trace - expect).abs() / expect < 1e-8,
            "{trace} vs {expect}"
        );
    }

    /// On a grid, not a path: IC(0) is the exact factor of a tree's
    /// grounded Laplacian, so a path converges in one iteration.
    #[test]
    fn nonconvergence_surfaces_as_error_not_flag() {
        let g = generators::grid(30, 30);
        let mut in_s = vec![false; 900];
        in_s[0] = true;
        let opts = SddOptions {
            rel_tol: 1e-14,
            max_iter: 3,
            ..SddOptions::default()
        };
        assert!(matches!(
            sparse(&g, &in_s, &opts).trace_inverse(),
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
        let mut f = sparse(&g, &in_s, &SddOptions::with_tol(1e-10));
        let est = trace_inverse_hutchinson_factor(f.as_mut(), 400, &mut rng).unwrap();
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
        let mut fa = sparse(&g, &in_s, &SddOptions::with_tol(1e-11));
        let a = trace_inverse_hutchinson_factor(fa.as_mut(), 50, &mut rng_a).unwrap();
        let mut fb =
            sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &SddOptions::default()).unwrap();
        let b = trace_inverse_hutchinson_factor(fb.as_mut(), 50, &mut rng_b).unwrap();
        assert!(
            (a.trace - b.trace).abs() / a.trace < 1e-7,
            "{} vs {}",
            a.trace,
            b.trace
        );
    }

    /// Panels do not change the probes: 37 probes (two full panels and a
    /// ragged one) give the mean of `zᵀ L⁻¹ z` over probes drawn one
    /// after another from the same seed, each solved on its own.
    #[test]
    fn hutchinson_panels_keep_the_probe_order() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::barabasi_albert(70, 3, &mut rng);
        let mut in_s = vec![false; 70];
        in_s[2] = true;
        let mut f =
            sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &SddOptions::default()).unwrap();
        let probes = 37;
        let est =
            trace_inverse_hutchinson_factor(f.as_mut(), probes, &mut StdRng::seed_from_u64(7))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..probes {
            let z: Vec<f64> = (0..69)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let x = f.solve_vec(&z).unwrap();
            sum += z.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>();
        }
        let mean = sum / probes as f64;
        assert_eq!(est.probes, probes);
        assert!((est.trace - mean).abs() <= 1e-12, "{} vs {mean}", est.trace);
    }

    #[test]
    fn hutchinson_single_probe_has_zero_se() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::cycle(12);
        let mut in_s = vec![false; 12];
        in_s[4] = true;
        let mut f = sparse(&g, &in_s, &SddOptions::default());
        let est = trace_inverse_hutchinson_factor(f.as_mut(), 1, &mut rng).unwrap();
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
        let opts = SddOptions::with_tol(1e-10);
        let t1 = sparse(&g, &in_s, &opts).trace_inverse().unwrap();
        in_s[9] = true;
        let t2 = sparse(&g, &in_s, &opts).trace_inverse().unwrap();
        assert!(t2 < t1);
    }
}
