//! Random-walk cost quantities behind the paper's complexity analysis
//! (Lemma 3.7): the expected running time of `RandomForest` is
//! `Tr((I − P_{-S})^{-1})` — the sum over nodes of expected visits before
//! absorption in `S` — which relates to Kemeny's constant and absorbing
//! centralities (paper references 43 and 44).
//!
//! These utilities make that analysis executable: exact absorption cost by
//! dense algebra, sampled absorption cost from Wilson runs, and Kemeny's
//! constant itself. The agreement of the first two *is* Lemma 3.7's
//! statement, and is tested here.

use crate::CfcmError;
use cfcc_forest::sampler::{absorb_batch, ForestAccumulator, ForestWorker, SamplerConfig};
use cfcc_forest::Forest;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::pinv::pseudoinverse_dense;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};

/// Exact expected total Wilson walk length for root set `S`:
/// `Tr((I − P_{-S})^{-1}) = Σ_{u ∉ S} d_u · (L_{-S}^{-1})_{uu}`,
/// via `diag_inverse` of the auto-selected SDD backend (dense Cholesky on
/// small graphs, CSR/IC(0) solves past the dense ceiling).
pub fn absorption_cost_exact(g: &Graph, roots: &[Node]) -> Result<f64, CfcmError> {
    let mask = crate::cfcc::group_mask(g, roots)?;
    let mut factor = sdd::factor(g, &mask, SddBackend::Auto, &SddOptions::with_tol(1e-10))?;
    let diag = factor.diag_inverse()?;
    Ok(factor
        .kept_nodes()
        .iter()
        .zip(&diag)
        .map(|(&u, &duu)| g.degree(u) as f64 * duu)
        .sum())
}

/// Accumulator that only tallies forests and walk steps, per worker.
#[derive(Debug, Default)]
struct StepTally {
    workers: Vec<Steps>,
}

#[derive(Debug, Default)]
struct Steps {
    forests: u64,
    steps: u64,
}

impl ForestWorker for Steps {
    fn absorb(&mut self, _index: u64, f: &Forest) {
        self.forests += 1;
        self.steps += f.walk_steps;
    }
}

impl ForestAccumulator for StepTally {
    type Worker = Steps;
    fn workers(&mut self, threads: usize) -> &mut [Steps] {
        let len = self.workers.len().max(threads);
        self.workers.resize_with(len, Steps::default);
        &mut self.workers[..threads]
    }
    fn count(&self) -> u64 {
        self.workers.iter().map(|w| w.forests).sum()
    }
}

/// Sampled mean Wilson walk length for root set `S` over `samples` forests.
/// Converges to [`absorption_cost_exact`] — the empirical face of
/// Lemma 3.7.
pub fn absorption_cost_sampled(
    g: &Graph,
    roots: &[Node],
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<f64, CfcmError> {
    let mask = crate::cfcc::group_mask(g, roots)?;
    if roots.is_empty() {
        return Err(CfcmError::InvalidParameter("need at least one root".into()));
    }
    let mut tally = StepTally::default();
    let cfg = SamplerConfig { seed, threads };
    absorb_batch(g, &mask, 0, samples, &cfg, &mut tally);
    let steps: u64 = tally.workers.iter().map(|w| w.steps).sum();
    Ok(steps as f64 / tally.count().max(1) as f64)
}

/// Kemeny's constant `K(G) = Σ_v π_v H(u → v)` (independent of `u`),
/// computed from the Laplacian pseudoinverse:
/// `K = 2m · Σ_u π_u L†_uu − ‖L† d‖-cross term` reduces, for unweighted
/// graphs, to `K = Σ_u d_u L†_uu − (dᵀ L† d)/(2m)` — dense, small graphs.
pub fn kemeny_constant_exact(g: &Graph) -> f64 {
    let n = g.num_nodes();
    let pinv = pseudoinverse_dense(g);
    let two_m = g.degree_sum() as f64;
    let d: Vec<f64> = (0..n as Node).map(|u| g.degree(u) as f64).collect();
    let mut pd = vec![0.0; n];
    pinv.matvec(&d, &mut pd);
    let dpd: f64 = d.iter().zip(&pd).map(|(a, b)| a * b).sum();
    let diag_term: f64 = (0..n).map(|u| d[u] * pinv.get(u, u)).sum();
    diag_term - dpd / two_m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Lemma 3.7, empirically: the mean sampled walk length matches
    /// `Tr((I − P_{-S})^{-1})` exactly in expectation.
    #[test]
    fn sampled_absorption_cost_matches_exact() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        for roots in [vec![0u32], vec![0u32, 7, 19]] {
            let exact = absorption_cost_exact(&g, &roots).unwrap();
            let sampled = absorption_cost_sampled(&g, &roots, 20_000, 9, 1).unwrap();
            assert!(
                (sampled - exact).abs() / exact < 0.05,
                "roots {roots:?}: sampled {sampled} vs exact {exact}"
            );
        }
    }

    /// Enlarging the root set strictly reduces the absorption cost — the
    /// mechanism behind SchurCFCM's sampling speed-up (§IV).
    #[test]
    fn more_roots_cost_less() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = generators::scale_free_with_edges(100, 400, &mut rng);
        let hubs = g.nodes_by_degree_desc();
        let c1 = absorption_cost_exact(&g, &hubs[..1]).unwrap();
        let c4 = absorption_cost_exact(&g, &hubs[..4]).unwrap();
        let c16 = absorption_cost_exact(&g, &hubs[..16]).unwrap();
        assert!(c4 < c1);
        assert!(c16 < c4);
    }

    #[test]
    fn path_graph_absorption_is_quadratic() {
        // Rooted at one end of a path, Tr((I−P_{-S})^{-1}) grows ~ n²
        // (the reason road networks are the hard case, §V).
        let g10 = generators::path(10);
        let g20 = generators::path(20);
        let c10 = absorption_cost_exact(&g10, &[0]).unwrap();
        let c20 = absorption_cost_exact(&g20, &[0]).unwrap();
        let ratio = c20 / c10;
        assert!(
            (3.0..5.0).contains(&ratio),
            "expected ~4x growth for 2x nodes, got {ratio}"
        );
    }

    #[test]
    fn kemeny_complete_graph_closed_form() {
        // For K_n: eigenvalues of P are 1 and −1/(n−1) (n−1 times);
        // K = Σ 1/(1−λ) = (n−1)²/n.
        for n in [4usize, 6, 9] {
            let g = generators::complete(n);
            let k = kemeny_constant_exact(&g);
            let expect = (n as f64 - 1.0).powi(2) / n as f64;
            assert!((k - expect).abs() < 1e-9, "n={n}: {k} vs {expect}");
        }
    }

    #[test]
    fn kemeny_positive_and_scale_reasonable() {
        let mut rng = StdRng::seed_from_u64(57);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let k = kemeny_constant_exact(&g);
        // K ≥ (n−1)²/n with equality only for complete-graph-like mixing.
        assert!(k > 0.0);
        assert!(k >= (60.0 - 1.0f64).powi(2) / 60.0 - 1e-9);
        assert!(k < 10_000.0);
    }

    #[test]
    fn rejects_empty_roots() {
        let g = generators::cycle(5);
        assert!(absorption_cost_sampled(&g, &[], 10, 1, 1).is_err());
    }
}
