//! ForestDelta (paper Algorithm 2): estimate the marginal gains
//! `Δ(u, S) = (L_{-S}^{-2})_{uu} / (L_{-S}^{-1})_{uu}` for all `u ∉ S` by
//! sampling spanning forests rooted at `S`.
//!
//! Algorithm 2 is SchurDelta (Algorithm 4) with an empty auxiliary root
//! set `T`, and [`crate::schur_delta`] computes it that way: the greedy
//! solvers call [`crate::schur_delta::schur_delta_ws`] with `T = ∅`. This
//! function remains only as the entry point of perfbench's traced replay.

use crate::schur_delta::{schur_delta, SchurDeltaEstimates};
use crate::CfcmParams;
use cfcc_graph::Graph;

/// Estimate marginal gains for all non-grounded nodes (Algorithm 2):
/// [`schur_delta`] with an empty `T`, on a fresh workspace, so the gains
/// of the candidates it solved are exact.
///
/// `iteration` diversifies the RNG stream across greedy iterations.
///
/// # Panics
///
/// If a solve through the round's `L_{-S}` factor fails (an empty
/// estimated Schur complement always inverts).
pub fn forest_delta(
    g: &Graph,
    in_s: &[bool],
    params: &CfcmParams,
    iteration: u64,
) -> SchurDeltaEstimates {
    schur_delta(g, in_s, &[], params, iteration).expect("the round's L_{-S} solves succeed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::top_max;
    use crate::exact::exact_deltas;
    use cfcc_graph::{generators, Node};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top2_max_skips_nan() {
        // Grounded nodes score NaN and are never ranked.
        assert_eq!(top_max(&[f64::NAN, 2.0, 5.0, 1.0], 2), [2, 1]);
        assert_eq!(top_max(&[f64::NAN, 1.0], 2), [1]);
        assert_eq!(top_max(&[f64::NAN; 3], 2), []);
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
