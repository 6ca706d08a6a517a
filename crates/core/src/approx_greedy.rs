//! ApproxGreedy — the state-of-the-art baseline (Li et al., WWW 2019)
//! the paper compares against (§II-F).
//!
//! Greedy CFCM where both the numerator and denominator of
//! `Δ(u,S) = ‖L_{-S}^{-1} e_u‖² / (L_{-S}^{-1})_{uu}` are JL-sketched and
//! evaluated through a Laplacian solver:
//!
//! * numerator: solve `L_{-S} y_j = w_j` for the `w` sketch rows, then
//!   `‖…‖² ≈ Σ_j y_j[u]²`;
//! * denominator: with the incidence factorization `L_{-S} = B_{-S}ᵀB_{-S}`,
//!   `(L_{-S}^{-1})_{uu} = ‖B_{-S} L_{-S}^{-1} e_u‖² ≈ Σ_j z_j[u]²` where
//!   `L_{-S} z_j = (Q B_{-S})ᵀ` rows;
//! * first pick: the same trick on `L†` (`L†_uu = ‖B L† e_u‖²`) with
//!   nullspace-projected solves.
//!
//! The original uses the Kyng–Sachdeva nearly-linear solver (Julia); this
//! reproduction dispatches every grounded solve through the pluggable
//! [`cfcc_linalg::sdd`] backend chosen by [`CfcmParams::backend`]
//! (factor once per iteration, then `2w` right-hand sides through
//! `solve_mat_into`): dense Cholesky amortizes its factorization on small
//! graphs, and the CSR/IC(0) `sparse-cg` backend carries the solver to
//! large ones in `O(n + m)` memory — no `n × n` matrix is ever allocated
//! on that path, preserving the baseline's edge-count-dominated scaling
//! that Table II exercises. `sparse-cg` answers each 16-column chunk with
//! **blocked multi-RHS PCG**: the whole chunk advances in lockstep,
//! sharing every SpMV/preconditioner sweep, instead of degenerating into
//! 16 independent CG runs.
//!
//! Iterations run through the persistent execution engine
//! ([`crate::engine::GreedyWorkspace`]): the JL sketch and sketched
//! incidence are sampled once over the full node space, and each round's
//! solves are **warm-started** from the previous round's solutions
//! projected onto the new grounding — `L_{-S}` and `L_{-S∪{v}}` differ by
//! one grounded node, so the projected block is one rank-one correction
//! from converged. The aggregated solver work lands in
//! [`crate::RunStats::solve`].

use crate::context::SolveContext;
use crate::engine::GreedyWorkspace;
use crate::greedy;
use crate::result::{IterStats, Selection};
use crate::solver::{CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::cg::solve_pseudoinverse;
use cfcc_linalg::sdd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ApproxGreedy solver: [`ApproxSolver`] under a plain-parameter context.
pub fn approx_greedy(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    ApproxSolver.solve(g, k, &SolveContext::new(params.clone()))
}

/// First pick: `argmin L†_uu` via `w` sketched incidence solves. The
/// pseudoinverse solves take the options of every greedy pick's factor,
/// so they poll the run's stop hook like the grounded solves of later
/// rounds; a stopped probe leaves a partial sum that ranks nothing, so
/// the pick fails with [`CfcmError::Interrupted`].
fn first_pick(
    g: &Graph,
    w: usize,
    params: &CfcmParams,
    ws: &GreedyWorkspace,
) -> Result<IterStats, CfcmError> {
    let n = g.num_nodes();
    let opts = ws.factor_options(params);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA99);
    let mut diag = vec![0.0f64; n];
    let mut rhs = vec![0.0f64; n];
    let mut x = vec![0.0f64; n];
    let scale = 1.0 / (w as f64).sqrt();
    for _ in 0..w {
        rhs.fill(0.0);
        for (a, b) in g.edges() {
            let s = if rng.gen::<bool>() { scale } else { -scale };
            rhs[a as usize] += s;
            rhs[b as usize] -= s;
        }
        x.fill(0.0);
        let st = solve_pseudoinverse(g, &rhs, &mut x, &opts);
        if let Some(cause) = st.stopped {
            return Err(CfcmError::Interrupted(cause));
        }
        if !st.converged {
            return Err(CfcmError::Numerical(
                "pseudoinverse CG did not converge".into(),
            ));
        }
        for u in 0..n {
            diag[u] += x[u] * x[u];
        }
    }
    let (first, _) = greedy::argmax(n, |u| -diag[u]);
    Ok(IterStats::new(first as Node, f64::NAN))
}

/// A later pick: the sketched gains of every node outside `S`.
fn next_pick(
    g: &Graph,
    in_s: &[bool],
    w: usize,
    params: &CfcmParams,
    ws: &mut GreedyWorkspace,
) -> Result<IterStats, CfcmError> {
    // The persistent sketches are sampled once over the full node space;
    // every round restricts them to its kept rows, so consecutive rounds
    // solve for right-hand sides that differ only by one deleted row —
    // the precondition for the engine's block warm start.
    ws.ensure_sketch(g, w, params.seed);
    // Factor once per round, then push all 2w sketched right-hand sides
    // through the backend's multi-RHS solve — in column chunks of
    // `sdd::RHS_CHUNK`, so the live workspace stays O(n · chunk) (w grows
    // with log n / ε², and explodes under the theoretical bounds). Chunks
    // amortize the dense factorization; on the iterative backends each
    // chunk runs as one blocked multi-RHS PCG (shared SpMV/preconditioner
    // sweeps, converged columns deflated), seeded with the previous
    // round's solutions when warm starts are on.
    // A mid-solve interruption (cancel token, deadline) surfaces as
    // `CfcmError::Interrupted`, and `greedy::run` drops this pick. The
    // workspace stays warm-start consistent: an aborted round never swaps
    // its `prev_*` blocks.
    let mut factor = sdd::factor(g, in_s, params.backend, &ws.factor_options(params))?;
    let (num, den) = ws.sketched_gains(factor.as_mut(), params.warm_start)?;
    let (c, gain) = greedy::argmax(factor.dim(), |c| {
        let floor = 1.0 / g.degree(factor.node_of(c)) as f64;
        num[c] / den[c].max(floor)
    });
    Ok(IterStats::new(factor.node_of(c), gain))
}

/// Registry entry for the ApproxGreedy baseline (Li et al., WWW'19).
pub struct ApproxSolver;

impl CfcmSolver for ApproxSolver {
    fn name(&self) -> &'static str {
        "approx"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::MonteCarlo
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        let params = &ctx.params;
        let w = params.width(g.num_nodes());
        greedy::run(
            g,
            k,
            ctx,
            |ws| first_pick(g, w, params, ws),
            |_, in_s, ws| next_pick(g, in_s, w, params, ws),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::cfcc_group_exact;
    use crate::exact::exact_greedy;
    use cfcc_graph::generators;

    #[test]
    fn validates_inputs() {
        let g = generators::cycle(5);
        assert!(approx_greedy(&g, 0, &CfcmParams::default()).is_err());
    }

    #[test]
    fn close_to_exact_greedy_quality() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let k = 4;
        let exact = exact_greedy(&g, k).unwrap();
        let exact_c = cfcc_group_exact(&g, &exact.nodes);
        let sel = approx_greedy(&g, k, &CfcmParams::with_epsilon(0.15).seed(8)).unwrap();
        let got_c = cfcc_group_exact(&g, &sel.nodes);
        assert!(
            got_c >= 0.9 * exact_c,
            "ApproxGreedy C(S)={got_c} vs exact greedy {exact_c}"
        );
    }

    #[test]
    fn star_first_pick_is_hub() {
        let g = generators::star(30);
        let sel = approx_greedy(&g, 1, &CfcmParams::with_epsilon(0.3).seed(9)).unwrap();
        assert_eq!(sel.nodes, vec![0]);
    }

    #[test]
    fn distinct_nodes_selected() {
        let mut rng = StdRng::seed_from_u64(34);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let sel = approx_greedy(&g, 5, &CfcmParams::with_epsilon(0.3).seed(10)).unwrap();
        let set: std::collections::HashSet<_> = sel.nodes.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
