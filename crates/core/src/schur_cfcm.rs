//! SchurCFCM (paper Algorithm 5): greedy CFCM with the auxiliary root set
//! `T` — the paper's flagship algorithm, faster and more accurate than
//! ForestCFCM because (i) Wilson walks absorb sooner on `S ∪ T` and
//! (ii) `L_{-S∪T}^{-1}` is more diagonally dominant than `L_{-S}^{-1}`.

use crate::context::SolveContext;
use crate::first_phase::first_phase;
use crate::forest_delta::forest_delta;
use crate::params::{t_star, top_degree_nodes};
use crate::result::{IterStats, RunStats, Selection};
use crate::schur_delta::schur_delta_ws;
use crate::solver::{CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_util::Stopwatch;

/// Greedy CFCM via forest sampling plus Schur complement.
///
/// `T` holds the `c` highest-degree nodes (`c = params.schur_c`, defaulting
/// to the balance point `|T*|` of §V-A); each iteration uses `T ∖ S_i` as
/// the auxiliary root set. Falls back to plain ForestDelta if `T ∖ S_i`
/// ever empties (only possible for tiny `c`).
///
/// Thin wrapper over [`schur_cfcm_ctx`] with a plain-parameter context.
pub fn schur_cfcm(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    schur_cfcm_ctx(g, k, &SolveContext::from_params(params))
}

/// Context-aware SchurCFCM: honors cancellation/deadline (returning the
/// partial selection accumulated so far) and reports per-iteration progress.
pub fn schur_cfcm_ctx(g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let params = &ctx.params;
    let mut stats = RunStats::default();
    let mut sw = Stopwatch::start();

    let c = params.schur_c.unwrap_or_else(|| t_star(g)).max(1);
    let t_pool = top_degree_nodes(g, c.min(g.num_nodes() - 1));
    // The run's persistent workspace: SchurDelta's |T| × w round buffers
    // are reused across every greedy iteration below.
    let mut ws = ctx.workspace();
    ws.begin_run();

    // First iteration: identical to ForestCFCM (Lines 2–15; the paper omits
    // the Schur machinery here for ease of implementation).
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

    for i in 1..k {
        if ctx.interrupted() {
            break;
        }
        let t_nodes: Vec<Node> = t_pool
            .iter()
            .copied()
            .filter(|&t| !in_s[t as usize])
            .collect();
        let (best, forests, walk_steps, gain) = if t_nodes.is_empty() {
            let est = forest_delta(g, &in_s, params, i as u64);
            (
                est.best,
                est.forests,
                est.walk_steps,
                est.deltas[est.best as usize],
            )
        } else {
            let est = schur_delta_ws(g, &in_s, &t_nodes, params, i as u64, &mut ws)?;
            (
                est.best,
                est.forests,
                est.walk_steps,
                est.deltas[est.best as usize],
            )
        };
        in_s[best as usize] = true;
        nodes.push(best);
        let it = IterStats {
            chosen: best,
            forests,
            walk_steps,
            seconds: sw.lap().as_secs_f64(),
            gain,
        };
        ctx.emit(&it);
        stats.iterations.push(it);
    }
    Ok(Selection { nodes, stats })
}

/// Registry entry for SchurCFCM (paper Algorithm 5, the flagship).
pub struct SchurSolver;

impl CfcmSolver for SchurSolver {
    fn name(&self) -> &'static str {
        "schur"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::MonteCarlo
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        schur_cfcm_ctx(g, k, ctx)
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
        let g = generators::cycle(6);
        assert!(schur_cfcm(&g, 0, &CfcmParams::default()).is_err());
        assert!(schur_cfcm(&g, 6, &CfcmParams::default()).is_err());
    }

    #[test]
    fn selects_k_distinct_nodes() {
        let mut rng = StdRng::seed_from_u64(28);
        let g = generators::barabasi_albert(70, 3, &mut rng);
        let sel = schur_cfcm(&g, 6, &CfcmParams::with_epsilon(0.3).seed(3)).unwrap();
        assert_eq!(sel.nodes.len(), 6);
        let set: std::collections::HashSet<_> = sel.nodes.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn quality_close_to_exact_greedy() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::barabasi_albert(80, 3, &mut rng);
        let k = 4;
        let exact = exact_greedy(&g, k).unwrap();
        let exact_c = cfcc_group_exact(&g, &exact.nodes);
        let sel = schur_cfcm(&g, k, &CfcmParams::with_epsilon(0.15).seed(4)).unwrap();
        let got_c = cfcc_group_exact(&g, &sel.nodes);
        assert!(
            got_c >= 0.93 * exact_c,
            "SchurCFCM C(S)={got_c} too far below exact greedy {exact_c}"
        );
    }

    #[test]
    fn walks_shorter_than_forest_cfcm() {
        // The §IV motivation: adding T to the root set shortens Wilson
        // walks. Compare per-forest walk lengths across the two methods.
        let mut rng = StdRng::seed_from_u64(30);
        let g = generators::scale_free_with_edges(300, 1200, &mut rng);
        let p = CfcmParams::with_epsilon(0.3).seed(5);
        let forest = crate::forest_cfcm::forest_cfcm(&g, 3, &p).unwrap();
        let schur = schur_cfcm(&g, 3, &p).unwrap();
        // Compare mean steps per forest over the delta iterations (skip the
        // shared first phase).
        let mean = |sel: &Selection| {
            let (s, f): (u64, u64) = sel.stats.iterations[1..]
                .iter()
                .fold((0, 0), |(s, f), it| (s + it.walk_steps, f + it.forests));
            s as f64 / f.max(1) as f64
        };
        assert!(
            mean(&schur) < mean(&forest),
            "schur {} vs forest {}",
            mean(&schur),
            mean(&forest)
        );
    }

    #[test]
    fn explicit_small_c_falls_back_when_t_exhausted() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let mut p = CfcmParams::with_epsilon(0.3).seed(6);
        p.schur_c = Some(1); // T may be swallowed by S quickly
        let sel = schur_cfcm(&g, 4, &p).unwrap();
        assert_eq!(sel.nodes.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = generators::barabasi_albert(50, 2, &mut rng);
        let p = CfcmParams::with_epsilon(0.25).seed(7);
        let a = schur_cfcm(&g, 3, &p).unwrap();
        let b = schur_cfcm(&g, 3, &p).unwrap();
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn selections_bit_identical_across_thread_counts() {
        // Thread count must never change what a run computes. The sampler
        // merges exact integer sums and the dense kernels' row-panel split
        // preserves arithmetic order, so selections, forest counts and
        // Monte-Carlo gains are asserted bit for bit, as is the exact path
        // below.
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let run = |threads| {
            let p = CfcmParams::with_epsilon(0.25).seed(11).threads(threads);
            schur_cfcm(&g, 4, &p).unwrap()
        };
        let a = run(1);
        for threads in [2, 4] {
            crate::result::assert_same_run(&a, &run(threads), &format!("threads={threads}"));
        }
        // The dense exact path takes its thread count through the context.
        use crate::context::SolveContext;
        let e1 = crate::exact::exact_greedy_ctx(
            &g,
            4,
            &SolveContext::new(CfcmParams::default().threads(1)),
        )
        .unwrap();
        let e4 = crate::exact::exact_greedy_ctx(
            &g,
            4,
            &SolveContext::new(CfcmParams::default().threads(4)),
        )
        .unwrap();
        assert_eq!(e1.nodes, e4.nodes);
        for (ia, ib) in e1.stats.iterations.iter().zip(&e4.stats.iterations) {
            assert!(
                ia.gain == ib.gain || (ia.gain.is_nan() && ib.gain.is_nan()),
                "exact gains must be bit-identical"
            );
        }
    }
}
