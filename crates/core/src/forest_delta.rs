//! ForestDelta (paper Algorithm 2): estimate the marginal gains
//! `Δ(u, S) = (L_{-S}^{-2})_{uu} / (L_{-S}^{-1})_{uu}` for all `u ∉ S` by
//! sampling spanning forests rooted at `S`.
//!
//! The numerator is sketched: `(L_{-S}^{-2})_{uu} = ‖L_{-S}^{-1} e_u‖² ≈
//! ‖(W L_{-S}^{-1}) e_u‖²` with a JL sketch `W` (Lemma 3.4), and the rows
//! `W L_{-S}^{-1}` come from the forest estimator's BFS prefix sums. The
//! denominator uses the per-node diagonal samples, clamped from below by
//! the Neumann bound `(L_{-S}^{-1})_{uu} ≥ 1/d_u` used in Lemma 3.9's
//! proof.

use crate::adaptive::{gain_halfwidth, sample_until_certified};
use crate::CfcmParams;
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::vector::norm2_sq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::Infallible;

/// Output of one delta-estimation round.
#[derive(Debug, Clone)]
pub struct DeltaEstimates {
    /// `Δ'(u, S)` per node (`NaN` for `u ∈ S`).
    pub deltas: Vec<f64>,
    /// Argmax node.
    pub best: Node,
    /// Forests sampled.
    pub forests: u64,
    /// Random-walk steps performed.
    pub walk_steps: u64,
}

/// Estimate marginal gains for all non-grounded nodes (Algorithm 2).
///
/// `iteration` diversifies the RNG stream across greedy iterations.
pub fn forest_delta(
    g: &Graph,
    in_s: &[bool],
    params: &CfcmParams,
    iteration: u64,
) -> DeltaEstimates {
    let n = g.num_nodes();
    let w = params.width(n);
    let mut sketch_rng =
        StdRng::seed_from_u64(params.seed ^ 0xD317A ^ iteration.wrapping_mul(0x9E37));
    let sketch = JlSketch::sample(w, n, &mut sketch_rng);
    let mut acc = ElectricalAccumulator::new(g, in_s, Some(sketch), DiagMode::Diagonal, None);
    let Ok((deltas, best)) = sample_until_certified::<Infallible>(
        g,
        in_s,
        params.seed ^ 0xDE17A ^ iteration.wrapping_mul(0x85EB),
        params.forest_cap(n, 0, g.max_degree_excluding(in_s)),
        params,
        &mut acc,
        |acc, deltas| {
            compute_deltas(g, in_s, acc, deltas);
            Ok(())
        },
        |acc, u, delta| gain_halfwidth(acc, u, delta, params.delta_confidence),
    );
    DeltaEstimates {
        deltas,
        best,
        forests: acc.num_forests(),
        walk_steps: acc.total_walk_steps(),
    }
}

/// `Δ' = ‖Y e_u‖² / ẑ_u` with the Neumann floor on the denominator.
fn compute_deltas(g: &Graph, in_s: &[bool], acc: &ElectricalAccumulator, out: &mut [f64]) {
    let y = acc.y_matrix();
    let z = acc.diag_means();
    for u in 0..g.num_nodes() {
        if in_s[u] {
            out[u] = f64::NAN;
            continue;
        }
        let floor = 1.0 / g.degree(u as Node) as f64;
        let zu = z[u].max(floor);
        out[u] = norm2_sq(y.row(u)) / zu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::top2_max;
    use crate::exact::exact_deltas;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;

    #[test]
    fn top2_max_skips_nan() {
        // Grounded nodes score NaN and are never ranked.
        assert_eq!(top2_max(&[f64::NAN, 2.0, 5.0, 1.0]), (2, Some(1)));
        assert_eq!(top2_max(&[f64::NAN, 1.0]), (1, None));
    }

    #[test]
    fn estimates_track_exact_deltas() {
        let mut rng = StdRng::seed_from_u64(16);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let s = vec![0u32];
        let mut in_s = vec![false; 40];
        in_s[0] = true;
        let params = CfcmParams::with_epsilon(0.15).seed(321);
        let est = forest_delta(&g, &in_s, &params, 1);
        let exact: Vec<(Node, f64)> = exact_deltas(&g, &s).unwrap();
        // The estimated argmax must be within the exact top-3 and its exact
        // gain within 15% of the exact best (JL + MC noise tolerance).
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top3: Vec<Node> = sorted.iter().take(3).map(|&(u, _)| u).collect();
        assert!(
            top3.contains(&est.best),
            "estimated best {} not in exact top3 {top3:?}",
            est.best
        );
        let exact_of_best = exact.iter().find(|&&(u, _)| u == est.best).unwrap().1;
        assert!(
            exact_of_best >= 0.85 * sorted[0].1,
            "chosen node exact gain {exact_of_best} too far below best {}",
            sorted[0].1
        );
    }

    #[test]
    fn grounded_nodes_are_nan() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let mut in_s = vec![false; 30];
        in_s[4] = true;
        in_s[9] = true;
        let params = CfcmParams::with_epsilon(0.3).seed(5);
        let est = forest_delta(&g, &in_s, &params, 0);
        assert!(est.deltas[4].is_nan());
        assert!(est.deltas[9].is_nan());
        assert!(est
            .deltas
            .iter()
            .enumerate()
            .all(|(u, d)| in_s[u] || d.is_finite()));
    }

    #[test]
    fn deterministic_given_seed_and_iteration() {
        let mut rng = StdRng::seed_from_u64(18);
        let g = generators::barabasi_albert(35, 2, &mut rng);
        let mut in_s = vec![false; 35];
        in_s[2] = true;
        let params = CfcmParams::default().seed(99);
        let a = forest_delta(&g, &in_s, &params, 3);
        let b = forest_delta(&g, &in_s, &params, 3);
        assert_eq!(a.best, b.best);
        assert_eq!(a.forests, b.forests);
        // Different iteration index → different stream (almost surely
        // different walk totals).
        let c = forest_delta(&g, &in_s, &params, 4);
        assert!(c.walk_steps != a.walk_steps || c.best == a.best);
    }
}
