//! Heuristic baselines from the paper's evaluation (§V-A): `Degree`
//! (top-k degrees) and `Top-CFCC` (top-k single-node CFCC). Fig. 2 shows
//! these lag the greedy algorithms — single-node rankings cannot capture
//! group effects.

use crate::context::SolveContext;
use crate::first_phase::first_phase;
use crate::result::{IterStats, RunStats, Selection};
use crate::solver::{dense_capability, Capability, CfcmSolver, SolverKind};
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_util::Stopwatch;

fn selection_from(nodes: Vec<Node>, seconds: f64) -> Selection {
    let iterations = nodes
        .iter()
        .map(|&u| IterStats {
            chosen: u,
            forests: 0,
            walk_steps: 0,
            seconds: seconds / nodes.len().max(1) as f64,
            gain: f64::NAN,
        })
        .collect();
    Selection {
        nodes,
        stats: RunStats {
            iterations,
            ..RunStats::default()
        },
    }
}

/// `Degree`: the `k` highest-degree nodes.
pub fn degree_baseline(g: &Graph, k: usize) -> Result<Selection, CfcmError> {
    degree_baseline_ctx(g, k, &SolveContext::default())
}

/// Context-aware `Degree` (single-shot ranking; progress fires once per
/// selected node as the finished ranking is reported).
pub fn degree_baseline_ctx(
    g: &Graph,
    k: usize,
    ctx: &SolveContext,
) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let sw = Stopwatch::start();
    let mut nodes = g.nodes_by_degree_desc();
    nodes.truncate(k);
    Ok(emit_all(ctx, selection_from(nodes, sw.seconds())))
}

/// `Top-CFCC` (exact): the `k` nodes with the largest single-node CFCC,
/// ranked by the dense `L†` diagonal — `O(n³)`, small graphs.
pub fn top_cfcc_exact(g: &Graph, k: usize) -> Result<Selection, CfcmError> {
    top_cfcc_exact_ctx(g, k, &SolveContext::default())
}

/// Context-aware exact `Top-CFCC`.
pub fn top_cfcc_exact_ctx(g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let sw = Stopwatch::start();
    let pdiag = cfcc_linalg::pinv::pseudoinverse_diag(g);
    let mut order: Vec<Node> = (0..g.num_nodes() as Node).collect();
    // C(u) decreasing ⟺ L†_uu increasing.
    order.sort_by(|&a, &b| {
        pdiag[a as usize]
            .partial_cmp(&pdiag[b as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    order.truncate(k);
    Ok(emit_all(ctx, selection_from(order, sw.seconds())))
}

/// `Top-CFCC` (sampled): same ranking from the forest first-phase
/// estimates of `L†_uu` — nearly-linear, any graph size.
pub fn top_cfcc_sampled(g: &Graph, k: usize, params: &CfcmParams) -> Result<Selection, CfcmError> {
    top_cfcc_sampled_ctx(g, k, &SolveContext::from_params(params))
}

/// Context-aware sampled `Top-CFCC`.
pub fn top_cfcc_sampled_ctx(
    g: &Graph,
    k: usize,
    ctx: &SolveContext,
) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let sw = Stopwatch::start();
    let fp = first_phase(g, &ctx.params);
    let mut order: Vec<Node> = (0..g.num_nodes() as Node).collect();
    order.sort_by(|&a, &b| {
        fp.estimates[a as usize]
            .partial_cmp(&fp.estimates[b as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    order.truncate(k);
    let mut sel = selection_from(order, sw.seconds());
    if let Some(first) = sel.stats.iterations.first_mut() {
        first.forests = fp.forests;
        first.walk_steps = fp.walk_steps;
    }
    Ok(emit_all(ctx, sel))
}

fn emit_all(ctx: &SolveContext, sel: Selection) -> Selection {
    ctx.emit_all(&sel.stats.iterations);
    sel
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
        degree_baseline_ctx(g, k, ctx)
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
        top_cfcc_sampled_ctx(g, k, ctx)
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
        top_cfcc_exact_ctx(g, k, ctx)
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
