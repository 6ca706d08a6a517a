//! Heuristic baselines from the paper's evaluation (§V-A): `Degree`
//! (top-k degrees) and `Top-CFCC` (top-k single-node CFCC). Fig. 2 shows
//! these lag the greedy algorithms — single-node rankings cannot capture
//! group effects.
//!
//! Sampled Top-CFCC ranks every node by the first phase's forest
//! estimates of `L†_uu`, so it has no single pick for the first phase's
//! exact decision to settle. It keeps a fixed budget instead: all
//! [`CfcmParams::forest_cap`] forests, with no stop rule and no solve.

use crate::context::SolveContext;
use crate::first_phase::sample_to_cap;
use crate::greedy::ranked;
use crate::result::Selection;
use crate::solver::{dense_capability, Capability, CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::pinv::pseudoinverse_diag;

/// `Degree`: the `k` highest-degree nodes.
pub fn degree_baseline(g: &Graph, k: usize) -> Result<Selection, CfcmError> {
    DegreeSolver.solve(g, k, &SolveContext::default())
}

/// `Top-CFCC` (exact): the `k` nodes with the largest single-node CFCC,
/// ranked by the dense `L†` diagonal — `O(n³)`, small graphs.
pub fn top_cfcc_exact(g: &Graph, k: usize) -> Result<Selection, CfcmError> {
    TopCfccExactSolver.solve(g, k, &SolveContext::default())
}

/// `Top-CFCC` (sampled): same ranking from the forest first-phase
/// estimates of `L†_uu` over a fixed budget of
/// [`CfcmParams::forest_cap`] forests — nearly-linear, any graph size.
pub fn top_cfcc_sampled(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    TopCfccSolver.solve(g, k, &SolveContext::new(params.clone()))
}

/// Nodes by increasing `l_diag` (ties by id): C(u) decreasing ⟺ L†_uu
/// increasing.
fn by_cfcc(l_diag: &[f64]) -> Vec<Node> {
    let mut order: Vec<Node> = (0..l_diag.len() as Node).collect();
    order.sort_by(|&a, &b| {
        l_diag[a as usize]
            .partial_cmp(&l_diag[b as usize])
            .expect("L† diagonal entries are finite")
            .then(a.cmp(&b))
    });
    order
}

/// Registry entry for the `Degree` heuristic.
pub struct DegreeSolver;

impl CfcmSolver for DegreeSolver {
    fn name(&self) -> &'static str {
        "degree"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::Heuristic
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        ranked(g, k, ctx, || Ok((g.nodes_by_degree_desc(), 0, 0)))
    }
}

/// Registry entry for sampled `Top-CFCC` (scales to any graph).
pub struct TopCfccSolver;

impl CfcmSolver for TopCfccSolver {
    fn name(&self) -> &'static str {
        "top-cfcc"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::Heuristic
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        ranked(g, k, ctx, || {
            let acc = sample_to_cap(g, &ctx.params);
            let ranking = by_cfcc(&acc.diag_means());
            Ok((ranking, acc.num_forests(), acc.total_walk_steps()))
        })
    }
}

/// Registry entry for exact `Top-CFCC` (dense `L†`; small graphs only).
pub struct TopCfccExactSolver;

impl CfcmSolver for TopCfccExactSolver {
    fn name(&self) -> &'static str {
        "top-cfcc-exact"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::Heuristic
    }

    fn supports(&self, n: usize, _m: usize, _k: usize) -> Capability {
        dense_capability(self.name(), n, "'top-cfcc'")
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        ranked(g, k, ctx, || Ok((by_cfcc(&pseudoinverse_diag(g)), 0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::{cfcc_group_exact, cfcc_single_exact};
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degree_takes_hubs() {
        let g = generators::star(10);
        let sel = degree_baseline(&g, 2).unwrap();
        assert_eq!(sel.nodes[0], 0);
        assert_eq!(sel.nodes.len(), 2);
    }

    #[test]
    fn top_cfcc_exact_matches_single_node_ranking() {
        let mut rng = StdRng::seed_from_u64(35);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let sel = top_cfcc_exact(&g, 3).unwrap();
        let scores = cfcc_single_exact(&g);
        let mut order: Vec<usize> = (0..30).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        assert_eq!(
            sel.nodes,
            order[..3].iter().map(|&u| u as Node).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sampled_top_cfcc_overlaps_exact() {
        let mut rng = StdRng::seed_from_u64(36);
        let g = generators::barabasi_albert(50, 3, &mut rng);
        let exact = top_cfcc_exact(&g, 5).unwrap();
        let sampled = top_cfcc_sampled(&g, 5, &CfcmParams::with_epsilon(0.15).seed(11)).unwrap();
        let es: std::collections::HashSet<_> = exact.nodes.iter().collect();
        let overlap = sampled.nodes.iter().filter(|u| es.contains(u)).count();
        assert!(
            overlap >= 3,
            "only {overlap}/5 overlap: {:?} vs {:?}",
            sampled.nodes,
            exact.nodes
        );
    }

    #[test]
    fn sampled_top_cfcc_samples_exactly_the_forest_cap() {
        let mut rng = StdRng::seed_from_u64(36);
        let g = generators::barabasi_albert(50, 3, &mut rng);
        let mut p = CfcmParams::with_epsilon(0.3).seed(4);
        p.max_forests = 320;
        let sel = top_cfcc_sampled(&g, 3, &p).unwrap();
        assert_eq!(sel.stats.total_forests(), 320);
        assert_eq!(sel.stats.iterations[0].forests, 320);
        assert_eq!(sel.stats.solve.solves, 0);
    }

    #[test]
    fn heuristics_no_worse_than_random_on_group_cfcc() {
        let mut rng = StdRng::seed_from_u64(37);
        let g = generators::scale_free_with_edges(60, 240, &mut rng);
        let k = 4;
        let deg = degree_baseline(&g, k).unwrap();
        let score_deg = cfcc_group_exact(&g, &deg.nodes);
        // Compare to an arbitrary fixed group of the same size.
        let arbitrary: Vec<Node> = (10..10 + k as Node).collect();
        let score_arb = cfcc_group_exact(&g, &arbitrary);
        assert!(score_deg >= score_arb, "{score_deg} vs {score_arb}");
    }

    #[test]
    fn validates_inputs() {
        let g = generators::cycle(4);
        assert!(degree_baseline(&g, 0).is_err());
        assert!(top_cfcc_exact(&g, 9).is_err());
    }
}
