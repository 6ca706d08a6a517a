//! ForestCFCM (paper Algorithm 3): greedy CFCM with forest-sampled
//! marginal gains — the paper's first contribution.

use crate::context::SolveContext;
use crate::first_phase::first_phase;
use crate::forest_delta::forest_delta;
use crate::result::{IterStats, RunStats, Selection};
use crate::solver::{CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::Graph;
use cfcc_util::Stopwatch;

/// Greedy CFCM via rooted spanning-forest sampling.
///
/// Approximation factor `1 − (k/(k−1))·(1/e) − ε` with probability
/// `1 − 1/n` (paper Theorem 3.11), in nearly-linear expected time for
/// real-world graphs.
///
/// Thin wrapper over [`forest_cfcm_ctx`] with a plain-parameter context.
pub fn forest_cfcm(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    forest_cfcm_ctx(g, k, &SolveContext::from_params(params))
}

/// Context-aware ForestCFCM: honors cancellation/deadline (returning the
/// partial selection accumulated so far) and reports per-iteration progress.
pub fn forest_cfcm_ctx(g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let params = &ctx.params;
    let mut stats = RunStats::default();
    let mut sw = Stopwatch::start();

    // Iteration 1: argmin L†_uu by sampling (Lines 1–14).
    let fp = first_phase(g, params);
    let mut in_s = vec![false; g.num_nodes()];
    in_s[fp.chosen as usize] = true;
    let mut nodes = vec![fp.chosen];
    let it = IterStats {
        chosen: fp.chosen,
        forests: fp.forests,
        walk_steps: fp.walk_steps,
        seconds: sw.lap().as_secs_f64(),
        gain: f64::NAN,
    };
    ctx.emit(&it);
    stats.iterations.push(it);

    // Iterations 2..k: greedy argmax of Δ'(u, S) (Lines 15–18).
    for i in 1..k {
        if ctx.interrupted() {
            break;
        }
        let est = forest_delta(g, &in_s, params, i as u64);
        in_s[est.best as usize] = true;
        nodes.push(est.best);
        let it = IterStats {
            chosen: est.best,
            forests: est.forests,
            walk_steps: est.walk_steps,
            seconds: sw.lap().as_secs_f64(),
            gain: est.deltas[est.best as usize],
        };
        ctx.emit(&it);
        stats.iterations.push(it);
    }
    Ok(Selection { nodes, stats })
}

/// Registry entry for ForestCFCM (paper Algorithm 3).
pub struct ForestSolver;

impl CfcmSolver for ForestSolver {
    fn name(&self) -> &'static str {
        "forest"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::MonteCarlo
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        forest_cfcm_ctx(g, k, ctx)
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
    fn star_selects_hub_first() {
        let g = generators::star(40);
        let sel = forest_cfcm(&g, 2, &CfcmParams::with_epsilon(0.3)).unwrap();
        assert_eq!(sel.nodes[0], 0);
    }
}
