//! ForestCFCM (paper Algorithm 3): greedy CFCM with forest-sampled
//! marginal gains — the paper's first contribution.

use crate::context::SolveContext;
use crate::result::Selection;
use crate::schur_cfcm::forest_greedy;
use crate::solver::{CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::Graph;

/// Greedy CFCM via rooted spanning-forest sampling.
///
/// Approximation factor `1 − (k/(k−1))·(1/e) − ε` with probability
/// `1 − 1/n` (paper Theorem 3.11), in nearly-linear expected time for
/// real-world graphs.
///
/// [`ForestSolver`] under a plain-parameter context.
pub fn forest_cfcm(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    ForestSolver.solve(g, k, &SolveContext::new(params.clone()))
}

/// Registry entry for ForestCFCM (paper Algorithm 3): SchurCFCM's loop
/// with an empty `T`, so every round roots its forests at `S` alone.
pub struct ForestSolver;

impl CfcmSolver for ForestSolver {
    fn name(&self) -> &'static str {
        "forest"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::MonteCarlo
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        forest_greedy(g, k, ctx, Vec::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::cfcc_group_exact;
    use crate::exact::exact_greedy;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validates_inputs() {
        let g = generators::cycle(5);
        assert!(forest_cfcm(&g, 0, &CfcmParams::default()).is_err());
        let bad = CfcmParams {
            epsilon: 2.0,
            ..Default::default()
        };
        assert!(forest_cfcm(&g, 2, &bad).is_err());
    }

    #[test]
    fn selects_k_distinct_nodes() {
        let mut rng = StdRng::seed_from_u64(19);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let sel = forest_cfcm(&g, 5, &CfcmParams::with_epsilon(0.3).seed(1)).unwrap();
        assert_eq!(sel.nodes.len(), 5);
        let set: std::collections::HashSet<_> = sel.nodes.iter().collect();
        assert_eq!(set.len(), 5, "nodes must be distinct: {:?}", sel.nodes);
        assert_eq!(sel.stats.iterations.len(), 5);
        assert!(sel.stats.total_forests() > 0);
    }

    #[test]
    fn quality_close_to_exact_greedy() {
        let mut rng = StdRng::seed_from_u64(20);
        let g = generators::barabasi_albert(80, 3, &mut rng);
        let k = 4;
        let exact = exact_greedy(&g, k).unwrap();
        let exact_c = cfcc_group_exact(&g, &exact.nodes);
        let sel = forest_cfcm(&g, k, &CfcmParams::with_epsilon(0.15).seed(2)).unwrap();
        let got_c = cfcc_group_exact(&g, &sel.nodes);
        assert!(
            got_c >= 0.93 * exact_c,
            "ForestCFCM C(S)={got_c} too far below exact greedy {exact_c}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let p = CfcmParams::with_epsilon(0.3).seed(11);
        let a = forest_cfcm(&g, 3, &p).unwrap();
        let b = forest_cfcm(&g, 3, &p).unwrap();
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn selections_bit_identical_across_thread_counts() {
        // Integer accumulator merges: nodes, forests and gains are the same
        // bits at every thread count.
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let run = |threads| {
            let p = CfcmParams::with_epsilon(0.25).seed(12).threads(threads);
            forest_cfcm(&g, 4, &p).unwrap()
        };
        let a = run(1);
        for threads in [2, 4] {
            crate::result::assert_same_run(&a, &run(threads), &format!("threads={threads}"));
        }
    }

    #[test]
    fn forest_stream_is_pinned() {
        // ForestDelta's seed salts and scoring, through SchurDelta with an
        // empty T: picks, per-round forests and walk steps of a run whose
        // rounds each stop at their first checkpoint. (The barbell is
        // symmetric: its exact L†_uu and gains tie in pairs.)
        let g = generators::barbell(8, 4);
        let sel = forest_cfcm(&g, 4, &CfcmParams::with_epsilon(0.3).seed(7)).unwrap();
        assert_eq!(sel.nodes, [10, 7, 15, 9]);
        let forests: Vec<u64> = sel.stats.iterations.iter().map(|it| it.forests).collect();
        assert_eq!(forests, [64, 64, 64, 64]);
        assert_eq!(sel.stats.total_forests(), 256);
        let steps: u64 = sel.stats.iterations.iter().map(|it| it.walk_steps).sum();
        assert_eq!(steps, 52_902);
    }

    #[test]
    fn star_selects_hub_first() {
        let g = generators::star(40);
        let sel = forest_cfcm(&g, 2, &CfcmParams::with_epsilon(0.3)).unwrap();
        assert_eq!(sel.nodes[0], 0);
    }
}
