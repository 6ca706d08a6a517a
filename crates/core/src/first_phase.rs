//! Shared first greedy iteration of Algorithms 3 and 5: pick
//! `argmin_u L†_uu` by forest sampling.
//!
//! Lemma 3.5 reduces `L†_uu` (up to a shared constant) to grounded
//! quantities with `S = {s}`:
//!
//! ```text
//! x_u = (L_{-s}^{-1})_{uu} − (2/n)·1ᵀ L_{-s}^{-1} e_u        (x_s = 0)
//! ```
//!
//! where `s` is the maximum-degree node (fast to hit, so Wilson walks are
//! short). Each sampled forest yields one sample of `x_u` per node; the
//! adaptive Bernstein rule stops when the argmin is certified.

use crate::adaptive::{diag_halfwidth, sample_until_certified};
use crate::CfcmParams;
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_graph::{Graph, Node};
use std::convert::Infallible;

/// Outcome of the first phase.
#[derive(Debug, Clone)]
pub struct FirstPhase {
    /// `argmin_u x_u` — the first selected node.
    pub chosen: Node,
    /// Final estimates `x̂_u` (the grounded node `s` has `x_s = 0`).
    pub estimates: Vec<f64>,
    /// Forests sampled.
    pub forests: u64,
    /// Random-walk steps performed.
    pub walk_steps: u64,
}

/// Run the sampling first phase (Lines 1–14 of Algorithm 3 / 1–15 of 5).
pub fn first_phase(g: &Graph, params: &CfcmParams) -> FirstPhase {
    let n = g.num_nodes();
    let s = g.max_degree_node().expect("non-empty graph");
    let mut in_root = vec![false; n];
    in_root[s as usize] = true;

    let mut acc = ElectricalAccumulator::new(g, &in_root, None, DiagMode::FirstPhase, None);
    // Rank by x̂ ascending, negated because the stop rule maximizes; s
    // itself scores 0 (Line 11 of Algorithm 3).
    let Ok((_, chosen)) = sample_until_certified::<Infallible>(
        g,
        &in_root,
        params.seed ^ 0xF157,
        params.forest_cap(n, 0, g.max_degree()),
        params,
        &mut acc,
        |acc, scores| {
            for (u, x) in scores.iter_mut().enumerate() {
                *x = -acc.diag_mean(u as Node);
            }
            Ok(())
        },
        |acc, u, _| diag_halfwidth(acc, u, params.delta_confidence),
    );
    FirstPhase {
        chosen,
        estimates: acc.diag_means(),
        forests: acc.num_forests(),
        walk_steps: acc.total_walk_steps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::top2_max;
    use cfcc_graph::generators;
    use cfcc_linalg::pinv::pseudoinverse_dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top2_min_basic() {
        // The first phase ranks negated estimates: the smallest estimate
        // wins, and of two equal ones the first index (its pick relies on
        // it).
        let top2_min = |xs: &[f64]| top2_max(&xs.iter().map(|x| -x).collect::<Vec<_>>());
        assert_eq!(top2_min(&[3.0, 1.0, 2.0]), (1, Some(2)));
        assert_eq!(top2_min(&[1.0]), (0, None));
        assert_eq!(top2_min(&[2.0, 2.0]), (0, Some(1)));
        assert_eq!(top2_min(&[5.0, 4.0, 3.0, 2.0]), (3, Some(2)));
    }

    #[test]
    fn star_first_phase_picks_hub() {
        let g = generators::star(30);
        let params = CfcmParams::with_epsilon(0.3);
        let fp = first_phase(&g, &params);
        assert_eq!(fp.chosen, 0);
        assert!(fp.forests >= params.min_batch);
    }

    #[test]
    fn matches_exact_argmin_on_random_graphs() {
        // The chosen node should (almost always, with these sample sizes)
        // agree with the dense argmin of L†_uu; we accept top-2 to keep the
        // test robust to ties.
        let mut rng = StdRng::seed_from_u64(14);
        for trial in 0..3u64 {
            let g = generators::barabasi_albert(40, 2, &mut rng);
            let pinv = pseudoinverse_dense(&g);
            let n = g.num_nodes();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| pinv.get(a, a).partial_cmp(&pinv.get(b, b)).unwrap());
            let params = CfcmParams::with_epsilon(0.15).seed(100 + trial);
            let fp = first_phase(&g, &params);
            assert!(
                order[..2].contains(&(fp.chosen as usize)),
                "trial {trial}: chose {} but exact top-2 is {:?}",
                fp.chosen,
                &order[..2]
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(15);
        let g = generators::barabasi_albert(50, 3, &mut rng);
        let params = CfcmParams::default().seed(77);
        let a = first_phase(&g, &params);
        let b = first_phase(&g, &params);
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.forests, b.forests);
        assert_eq!(a.estimates, b.estimates);
    }
}
