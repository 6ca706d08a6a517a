//! The deterministic `C(S)` evaluator behind the `cfcc` metric.
//!
//! One Rademacher probe block is drawn once per graph over the full node
//! space; every group is scored on the same probes, restricted to the
//! rows the group keeps (common random numbers, so differences between
//! groups on one graph are not swamped by probe noise). Solves go through
//! a pinned `sparse-cg` factor at a pinned tolerance, so a change to the
//! `auto` routing or to another backend cannot move the evaluator.

use cfcc_core::cfcc::group_mask;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probes per evaluation.
pub const PROBES: usize = 256;
/// Fixed probe seed: the evaluator does not depend on the workload seed.
const PROBE_SEED: u64 = 0xC0FF_EE5E;
/// Relative residual of the evaluator's solves.
pub const EVAL_TOL: f64 = 1e-6;
/// Columns per blocked solve.
const BLOCK: usize = 64;

pub struct Evaluator {
    /// `n × PROBES`, entries ±1.
    probes: DenseMatrix,
    threads: usize,
}

impl Evaluator {
    pub fn new(n: usize, threads: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(PROBE_SEED);
        let mut probes = DenseMatrix::zeros(n, PROBES);
        for i in 0..n {
            for v in probes.row_mut(i) {
                *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
        Self { probes, threads }
    }

    /// Hutchinson estimate of `C(S) = n / Tr(L_{-S}^{-1})`.
    pub fn cfcc(&self, g: &Graph, group: &[Node]) -> Result<f64, String> {
        let n = g.num_nodes();
        assert_eq!(self.probes.rows(), n, "evaluator built for another graph");
        let mask = group_mask(g, group).map_err(|e| e.to_string())?;
        let opts = SddOptions {
            rel_tol: EVAL_TOL,
            threads: self.threads,
            ..SddOptions::default()
        };
        let mut factor =
            sdd::factor(g, &mask, SddBackend::SparseCg, &opts).map_err(|e| e.to_string())?;
        let kept: Vec<Node> = factor.kept_nodes().to_vec();
        let mut trace = 0.0;
        let mut j0 = 0;
        while j0 < PROBES {
            let c = BLOCK.min(PROBES - j0);
            let mut b = DenseMatrix::zeros(kept.len(), c);
            for (i, &u) in kept.iter().enumerate() {
                b.row_mut(i)
                    .copy_from_slice(&self.probes.row(u as usize)[j0..j0 + c]);
            }
            let mut x = DenseMatrix::zeros(kept.len(), c);
            factor
                .solve_mat_into(&b, &mut x)
                .map_err(|e| e.to_string())?;
            trace += b
                .data()
                .iter()
                .zip(x.data())
                .map(|(z, y)| z * y)
                .sum::<f64>();
            j0 += c;
        }
        Ok(n as f64 / (trace / PROBES as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_core::cfcc::cfcc_group_exact;

    #[test]
    fn close_to_exact_and_deterministic() {
        let g = cfcc_datasets::karate::karate();
        let ev = Evaluator::new(g.num_nodes(), 1);
        let group = [0, 33];
        let est = ev.cfcc(&g, &group).unwrap();
        let exact = cfcc_group_exact(&g, &group);
        assert!((est - exact).abs() <= 0.05 * exact, "{est} vs {exact}");
        assert_eq!(est, ev.cfcc(&g, &group).unwrap());
    }
}
