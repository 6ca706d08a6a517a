//! Shared first greedy iteration of Algorithms 3 and 5: pick
//! `argmin_u L†_uu` by forest sampling and exact solves.
//!
//! Lemma 3.5 reduces `L†_uu` to grounded quantities with `S = {s}`:
//!
//! ```text
//! L†_uu = x_u + c,   x_u = (L_{-s}^{-1})_{uu} − (2/n)·1ᵀ L_{-s}^{-1} e_u,
//!                    c   = 1ᵀ L_{-s}^{-1} 1 / n²                (x_s = 0)
//! ```
//!
//! where `s` is the maximum-degree node (fast to hit, so Wilson walks are
//! short). Each sampled forest yields one sample of `x_u` per node. The
//! estimates screen the candidates for [`crate::adaptive`]'s exact
//! decision: a factor of `L_{-s}`, built when the phase starts, solves
//! `x = L_{-s}^{-1} e_u` for 16 candidates at a time, and
//! `L†_uu = x_u − (2/n)·1ᵀx + c` exactly (to the solver's tolerance).
//!
//! The constant `c` does not change the ranking, and Algorithm 3 drops
//! it. The phase adds it to the estimates and the exact values alike, so
//! that the stop rule's slack `(ε/2)·|best|` is a share of `L†_uu` itself
//! rather than of a value shifted to 0 at `s`. It costs one solve
//! `L_{-s} y = 1` when the phase starts.
//!
//! The solvers call the fallible [`first_phase_ws`], whose failed solve
//! fails the run; [`first_phase`] is its `expect`ing wrapper.

use crate::adaptive::{sample_until_certified, unit_columns};
use crate::engine::GreedyWorkspace;
use crate::{CfcmError, CfcmParams};
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::sdd::{self, SddFactor};

/// Salt of the first phase's sampler seed.
const SAMPLER_SALT: u64 = 0xF157;

/// Outcome of the first phase.
#[derive(Debug, Clone)]
pub struct FirstPhase {
    /// `argmin_u L†_uu` over the solved candidates — the first selected
    /// node.
    pub chosen: Node,
    /// `L†_uu` per node: exact for the candidates the phase solved, the
    /// forest estimate `x̂_u + c` for the rest.
    pub estimates: Vec<f64>,
    /// Forests sampled.
    pub forests: u64,
    /// Random-walk steps performed.
    pub walk_steps: u64,
}

/// Run the first phase (Lines 1–14 of Algorithm 3 / 1–15 of 5) with its
/// exact decision, on a throwaway workspace.
///
/// # Panics
///
/// If a solve through the `L_{-s}` factor fails; the solvers call
/// [`first_phase_ws`], which returns the error instead.
pub fn first_phase(g: &Graph, params: &CfcmParams) -> FirstPhase {
    first_phase_ws(g, params, &mut GreedyWorkspace::new())
        .expect("the first phase's L_{-s} solves succeed")
}

/// [`first_phase`] that returns a failed solve as a [`CfcmError`] and
/// folds the `L_{-s}` factor's solver work into `ws`'s run statistics.
/// The factor takes `ws`'s options for a greedy pick, so its iterative
/// solves stop with the run (a stopped solve fails the phase with
/// [`CfcmError::Interrupted`]).
pub fn first_phase_ws(
    g: &Graph,
    params: &CfcmParams,
    ws: &mut GreedyWorkspace,
) -> Result<FirstPhase, CfcmError> {
    let (s, in_root, mut acc) = accumulator(g);
    let mut factor = sdd::factor(g, &in_root, params.backend, &ws.factor_options(params))?;
    let decided = decide(g, s, &in_root, params, &mut acc, factor.as_mut());
    ws.absorb_solve_stats(factor.stats());
    let (scores, chosen) = decided?;
    Ok(FirstPhase {
        chosen,
        estimates: scores.iter().map(|x| -x).collect(),
        forests: acc.num_forests(),
        walk_steps: acc.total_walk_steps(),
    })
}

/// The first phase's forests without a decision: all
/// [`CfcmParams::forest_cap`] of them, with no stop rule. Top-CFCC ranks
/// every node by the accumulator's `diag_mean`, which is `L†_uu` less
/// Lemma 3.5's shared constant.
pub(crate) fn sample_to_cap(g: &Graph, params: &CfcmParams) -> ElectricalAccumulator {
    let (_, in_root, mut acc) = accumulator(g);
    let cfg = SamplerConfig {
        seed: params.seed ^ SAMPLER_SALT,
        threads: params.threads,
    };
    absorb_batch(g, &in_root, 0, params.forest_cap(), &cfg, &mut acc);
    acc
}

/// The grounded node `s`, its root mask and an empty first-phase
/// accumulator for forests rooted at it.
fn accumulator(g: &Graph) -> (Node, Vec<bool>, ElectricalAccumulator) {
    let s = g.max_degree_node().expect("non-empty graph");
    let mut in_root = vec![false; g.num_nodes()];
    in_root[s as usize] = true;
    let acc = ElectricalAccumulator::new(g, &in_root, None, DiagMode::FirstPhase, None);
    (s, in_root, acc)
}

/// Sample and decide through `factor = L_{-s}`: scores are `−L†_uu`,
/// because the loop maximizes.
fn decide(
    g: &Graph,
    s: Node,
    in_root: &[bool],
    params: &CfcmParams,
    acc: &mut ElectricalAccumulator,
    factor: &mut dyn SddFactor,
) -> Result<(Vec<f64>, Node), CfcmError> {
    let n = g.num_nodes() as f64;
    let y = factor.solve_vec(&vec![1.0; factor.dim()])?;
    let c = y.iter().sum::<f64>() / (n * n);
    sample_until_certified::<CfcmError>(
        g,
        in_root,
        params.seed ^ SAMPLER_SALT,
        params,
        acc,
        |acc, scores| {
            for (u, x) in scores.iter_mut().enumerate() {
                *x = -(acc.diag_mean(u as Node) + c);
            }
            Ok(())
        },
        |nodes| {
            // x_s = 0, so `s` needs no column: L†_ss = c.
            let kept: Vec<Node> = nodes.iter().copied().filter(|&u| u != s).collect();
            let cols = unit_columns(factor, &kept)?;
            let mut exact = kept.iter().enumerate().map(|(j, &u)| {
                let x = cols.row(j);
                let xu = x[factor.compact_of(u).expect("a kept node")];
                -(xu - 2.0 / n * x.iter().sum::<f64>() + c)
            });
            Ok(nodes
                .iter()
                .map(|&u| {
                    if u == s {
                        -c
                    } else {
                        exact.next().expect("one column per kept node")
                    }
                })
                .collect())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::top_max;
    use cfcc_graph::generators;
    use cfcc_linalg::pinv::pseudoinverse_dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top2_min_basic() {
        // The first phase ranks negated estimates: the smallest estimate
        // wins, and of two equal ones the first index (its pick relies on
        // it).
        let top2_min = |xs: &[f64]| top_max(&xs.iter().map(|x| -x).collect::<Vec<_>>(), 2);
        assert_eq!(top2_min(&[3.0, 1.0, 2.0]), [1, 2]);
        assert_eq!(top2_min(&[1.0]), [0]);
        assert_eq!(top2_min(&[2.0, 2.0]), [0, 1]);
        assert_eq!(top2_min(&[5.0, 4.0, 3.0, 2.0]), [3, 2]);
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
    fn the_pick_carries_its_exact_pseudoinverse_diagonal() {
        // Lemma 3.5 with its constant: the chosen node's L†_uu is the
        // dense pseudoinverse's, and the phase solved through L_{-s}.
        let mut rng = StdRng::seed_from_u64(16);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let pinv = pseudoinverse_dense(&g);
        let mut ws = GreedyWorkspace::new();
        let fp = first_phase_ws(&g, &CfcmParams::with_epsilon(0.3), &mut ws).unwrap();
        let u = fp.chosen as usize;
        assert!((fp.estimates[u] - pinv.get(u, u)).abs() <= 1e-9 * pinv.get(u, u));
        assert!(ws.solve_stats().solves > 1);
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
