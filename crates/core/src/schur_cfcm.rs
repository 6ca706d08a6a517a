//! SchurCFCM (paper Algorithm 5): greedy CFCM with the auxiliary root set
//! `T` — the paper's flagship algorithm, faster and more accurate than
//! ForestCFCM because (i) Wilson walks absorb sooner on `S ∪ T` and
//! (ii) `L_{-S∪T}^{-1}` is more diagonally dominant than `L_{-S}^{-1}`.
//! Algorithms 3 and 5 differ only in `T`, so ForestCFCM runs this
//! module's loop with an empty `T`.
//!
//! A round that picks a node of `T` leaves the next round's root set
//! `S ∪ (T ∖ S)` unchanged, so that round continues the forests already
//! sampled for it (SchurDelta's forest pool in the run's workspace, see
//! [`crate::schur_delta`]) instead of sampling from scratch. That holds for
//! the pick of the last node of `T ∖ S` too: the round after it has an
//! empty `T` and still continues the pool. On the hep-th proxy most rounds
//! pick from `T`, and this cuts the forests a run samples by about a
//! third. A run in which no pick lands in `T` samples exactly what it
//! would without the pool.
//!
//! The forests of every phase only screen candidates. The first phase
//! and every round evaluate their best-estimated candidates exactly, 16
//! at a time through a factor of the grounded Laplacian, pick the best
//! exact value, and stop sampling once no unsolved estimate beats it by
//! more than the `ε/2` slack (see [`crate::adaptive`]). So each recorded
//! gain is exact, most phases stop within their first few checkpoints,
//! and the run's [`crate::RunStats::solve`] counts the panels.

use crate::context::SolveContext;
use crate::first_phase::first_phase_ws;
use crate::greedy;
use crate::params::{t_star, top_degree_nodes};
use crate::result::{IterStats, Selection};
use crate::schur_delta::schur_delta_ws;
use crate::solver::{CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};

/// Greedy CFCM via forest sampling plus Schur complement.
///
/// `T` holds the `c` highest-degree nodes (`c = params.schur_c`, defaulting
/// to the balance point `|T*|` of §V-A); each iteration uses `T ∖ S_i` as
/// the auxiliary root set.
///
/// [`SchurSolver`] under a plain-parameter context.
pub fn schur_cfcm(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    SchurSolver.solve(g, k, &SolveContext::new(params.clone()))
}

/// The greedy loop of Algorithms 3 and 5 over the pool `T = t_pool()`,
/// built once the problem is validated. The first pick is the sampled
/// first phase (Lines 2–15; the paper omits the Schur machinery there
/// for ease of implementation). Each later round estimates the gains with
/// SchurDelta rooted at `S ∪ (T ∖ S)`, which is ForestDelta rooted at `S`
/// when `T ∖ S` is empty. Both decide among their screened candidates by
/// exact solves, and fold the solver work into the workspace; a failed
/// solve fails the run.
///
/// A round that picks from `T` leaves the root set `S ∪ (T ∖ S)` as it
/// was, so the next round continues SchurDelta's forest pool in the
/// workspace instead of sampling from scratch (see
/// [`crate::schur_delta`]). Each round reports the forests it sampled,
/// which is 0 when the pool was already at the cap.
pub(crate) fn forest_greedy(
    g: &Graph,
    k: usize,
    ctx: &SolveContext,
    t_pool: impl Fn() -> Vec<Node>,
) -> Result<Selection, CfcmError> {
    let params = &ctx.params;
    let mut pool = None;
    greedy::run(
        g,
        k,
        ctx,
        |ws| {
            let fp = first_phase_ws(g, params, ws)?;
            Ok(IterStats {
                forests: fp.forests,
                walk_steps: fp.walk_steps,
                ..IterStats::new(fp.chosen, f64::NAN)
            })
        },
        |i, in_s, ws| {
            let pool = pool.get_or_insert_with(&t_pool);
            let t_nodes: Vec<Node> = pool
                .iter()
                .copied()
                .filter(|&t| !in_s[t as usize])
                .collect();
            let est = schur_delta_ws(g, in_s, &t_nodes, params, i as u64, ws)?;
            Ok(IterStats {
                forests: est.sampled,
                walk_steps: est.walk_steps,
                ridge: est.ridge,
                ..IterStats::new(est.best, est.deltas[est.best as usize])
            })
        },
    )
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
        forest_greedy(g, k, ctx, || {
            let c = ctx.params.schur_c.unwrap_or_else(|| t_star(g)).max(1);
            top_degree_nodes(g, c.min(g.num_nodes() - 1))
        })
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

    /// Whether some SchurDelta round `i` picked from `T` and round `i + 1`
    /// still had a `T ∖ S`, i.e. continued round `i`'s forest pool.
    fn reuses_forest_pool(g: &Graph, sel: &Selection) -> bool {
        let t = top_degree_nodes(g, t_star(g).max(1));
        let s = &sel.nodes;
        (1..s.len() - 1).any(|i| t.contains(&s[i]) && t.iter().any(|u| !s[..=i].contains(u)))
    }

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
    fn explicit_small_c_runs_on_once_t_is_exhausted() {
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
    fn recycled_workspace_neither_keeps_nor_reuses_forests() {
        // The same case as the thread-count test: a round continues the
        // forest pool. Two runs on one recycled workspace each match a
        // fresh run, and neither leaves forests behind.
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let p = CfcmParams::with_epsilon(0.25).seed(11);
        let fresh = schur_cfcm(&g, 4, &p).unwrap();
        assert!(reuses_forest_pool(&g, &fresh));
        let mut ws = crate::engine::GreedyWorkspace::new();
        for run in 0..2 {
            let sel = crate::SolveSession::new(&g)
                .k(4)
                .solver("schur")
                .params(p.clone())
                .run_reusing(&mut ws)
                .unwrap();
            crate::result::assert_same_run(&fresh, &sel, &format!("recycled run {run}"));
            assert_eq!(ws.pooled_forests(), 0, "run {run} left forests behind");
        }
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
        assert!(
            reuses_forest_pool(&g, &a),
            "the case must continue a forest pool"
        );
        for threads in [2, 4] {
            crate::result::assert_same_run(&a, &run(threads), &format!("threads={threads}"));
        }
        // The dense exact path takes its thread count through the context.
        let exact = |threads| {
            let ctx = SolveContext::new(CfcmParams::default().threads(threads));
            crate::exact::ExactSolver.solve(&g, 4, &ctx).unwrap()
        };
        let (e1, e4) = (exact(1), exact(4));
        assert_eq!(e1.nodes, e4.nodes);
        for (ia, ib) in e1.stats.iterations.iter().zip(&e4.stats.iterations) {
            assert!(
                ia.gain == ib.gain || (ia.gain.is_nan() && ib.gain.is_nan()),
                "exact gains must be bit-identical"
            );
        }
    }
}
