//! CFCC evaluation and resistance-distance utilities (paper §II).
//!
//! * `C(S) = n / Tr(L_{-S}^{-1})` — [`cfcc_group_exact`] (dense, small
//!   graphs), [`cfcc_group_cg`] (`sparse-cg` solves of the identity in
//!   panels, mid-size), [`cfcc_group`] (exact trace through the
//!   configured backend), and [`cfcc_group_hutchinson`] (stochastic
//!   trace, large graphs — how the paper evaluates quality at scale,
//!   §V-B2).
//! * single-node CFCC `C(u) = n / (Tr(L†) + n·L†_uu)` for the Top-CFCC
//!   heuristic and sanity checks.
//! * resistance distances `R(u, v)` and `R(u, S)`.

use crate::engine;
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::laplacian::laplacian_submatrix_dense;
use cfcc_linalg::pinv::pseudoinverse_diag;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::trace::trace_inverse_hutchinson_factor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build the `in_s` mask from a node list, rejecting duplicates/overflow.
pub fn group_mask(g: &Graph, group: &[Node]) -> Result<Vec<bool>, CfcmError> {
    let n = g.num_nodes();
    let mut mask = vec![false; n];
    for &u in group {
        if u as usize >= n {
            return Err(CfcmError::InvalidParameter(format!(
                "node {u} out of range"
            )));
        }
        if mask[u as usize] {
            return Err(CfcmError::InvalidParameter(format!(
                "duplicate node {u} in group"
            )));
        }
        mask[u as usize] = true;
    }
    Ok(mask)
}

/// Exact `Tr(L_{-S}^{-1})` by dense Cholesky — `O(n³)`, small graphs.
pub fn grounded_trace_exact(g: &Graph, group: &[Node]) -> f64 {
    let mask = group_mask(g, group).expect("valid group");
    let (sub, _) = laplacian_submatrix_dense(g, &mask);
    sub.cholesky()
        .expect("L_{-S} of a connected graph is positive definite")
        .trace_inverse()
}

/// Exact group CFCC `C(S)` by dense Cholesky.
pub fn cfcc_group_exact(g: &Graph, group: &[Node]) -> f64 {
    g.num_nodes() as f64 / grounded_trace_exact(g, group)
}

/// `Tr(L_{-S}^{-1})` by `|V∖S|` `sparse-cg` solves of the identity, in
/// panels (exact up to the solver tolerance).
pub fn grounded_trace_cg(g: &Graph, group: &[Node], tol: f64) -> Result<f64, CfcmError> {
    let mask = group_mask(g, group)?;
    let mut factor = sdd::factor(g, &mask, SddBackend::SparseCg, &SddOptions::with_tol(tol))?;
    Ok(factor.trace_inverse()?)
}

/// `Tr(L_{-S}^{-1})` through the SDD backend chosen by
/// [`CfcmParams::backend`]: direct backends read the trace off their
/// factorization, iterative ones solve the identity in panels.
pub fn grounded_trace(g: &Graph, group: &[Node], params: &CfcmParams) -> Result<f64, CfcmError> {
    let mask = group_mask(g, group)?;
    let mut factor = sdd::factor(g, &mask, params.backend, &engine::solve_options(params))?;
    Ok(factor.trace_inverse()?)
}

/// Group CFCC via `sparse-cg` solves of the identity, in panels.
pub fn cfcc_group_cg(g: &Graph, group: &[Node], tol: f64) -> Result<f64, CfcmError> {
    Ok(g.num_nodes() as f64 / grounded_trace_cg(g, group, tol)?)
}

/// Group CFCC through the configured SDD backend (exact trace).
pub fn cfcc_group(g: &Graph, group: &[Node], params: &CfcmParams) -> Result<f64, CfcmError> {
    Ok(g.num_nodes() as f64 / grounded_trace(g, group, params)?)
}

/// Group CFCC via Hutchinson trace estimation — the scalable evaluator.
/// Probe solves run through the backend chosen by
/// [`CfcmParams::backend`] (the CSR/IC(0) sparse solver at scale).
pub fn cfcc_group_hutchinson(
    g: &Graph,
    group: &[Node],
    probes: usize,
    params: &CfcmParams,
) -> Result<f64, CfcmError> {
    let mask = group_mask(g, group)?;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x7ace);
    let mut factor = sdd::factor(g, &mask, params.backend, &engine::solve_options(params))?;
    let est = trace_inverse_hutchinson_factor(factor.as_mut(), probes, &mut rng)?;
    Ok(g.num_nodes() as f64 / est.trace)
}

/// Exact single-node CFCC for every node:
/// `C(u) = n / (Tr(L†) + n·L†_uu)` — dense, small graphs. Only diagonal
/// entries are consumed, so the full pseudoinverse is never formed.
pub fn cfcc_single_exact(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let pdiag = pseudoinverse_diag(g);
    let trace: f64 = pdiag.iter().sum();
    pdiag
        .iter()
        .map(|&duu| n as f64 / (trace + n as f64 * duu))
        .collect()
}

/// The canonical grounding node for [`node_centrality`]: the max-degree
/// node. Any choice is mathematically equivalent (the formula corrects
/// for it); fixing one makes the factor shareable — a service caching
/// factors by grounding set hits the same entry for every
/// `node_centrality` request on a graph.
pub fn node_centrality_ground(g: &Graph) -> Node {
    g.max_degree_node().unwrap_or(0)
}

/// Current-flow closeness centrality of **every** node,
/// `C(u) = n / Σ_w R(u, w)` (Brandes–Fleischer; the networkx
/// `current_flow_closeness_centrality`), via **one** grounded factor.
///
/// Ground a single node `v` and let `M = L_{-v}^{-1}` (padded with a zero
/// row/column at `v`). Then `R(u, w) = M_uu + M_ww − 2·M_uw`, so
///
/// ```text
/// Σ_w R(u, w) = n·M_uu + Tr(M) − 2·(M·1)_u
/// ```
///
/// — everything needed is `diag(M)` ([`cfcc_linalg::sdd::SddFactor::diag_inverse`])
/// plus one extra solve for the row sums `M·1`. This matches the
/// pseudoinverse form `Σ_w R(u, w) = Tr(L†) + n·L†_uu` that
/// [`cfcc_single_exact`] evaluates densely, but runs through any backend.
pub fn node_centrality(g: &Graph, params: &CfcmParams) -> Result<Vec<f64>, CfcmError> {
    let n = g.num_nodes();
    if n < 2 {
        return Err(CfcmError::InvalidParameter(
            "node centrality needs at least 2 nodes".into(),
        ));
    }
    if !g.is_connected() {
        return Err(CfcmError::Disconnected);
    }
    let v = node_centrality_ground(g);
    let mut mask = vec![false; n];
    mask[v as usize] = true;
    let mut factor = sdd::factor(g, &mask, params.backend, &engine::solve_options(params))?;
    node_centrality_from_factor(n, factor.as_mut())
}

/// The algebra of [`node_centrality`] against an already-built factor
/// grounded at exactly one node — the entry point for callers that keep
/// factors resident across requests (the `cfcc-serve` daemon).
pub fn node_centrality_from_factor(
    n: usize,
    factor: &mut dyn cfcc_linalg::SddFactor,
) -> Result<Vec<f64>, CfcmError> {
    let d = factor.dim();
    if d + 1 != n {
        return Err(CfcmError::InvalidParameter(format!(
            "node centrality needs a single-node grounding: factor dimension {d} vs n = {n}"
        )));
    }
    let diag = factor.diag_inverse()?;
    let ones = vec![1.0; d];
    let rowsum = factor.solve_vec(&ones)?;
    let trace: f64 = diag.iter().sum();
    let nf = n as f64;
    // The grounded node's own row of `M` is zero: Σ_w R(v, w) = Tr(M).
    let mut c = vec![nf / trace; n];
    for i in 0..d {
        let u = factor.node_of(i) as usize;
        c[u] = nf / (nf * diag[i] + trace - 2.0 * rowsum[i]);
    }
    Ok(c)
}

/// Resistance `R(u, S) = (L_{-S}^{-1})_{uu}` between a node and a grounded
/// group, via one solve through the `sparse-cg` backend — a single RHS
/// never justifies a dense `O(n³)` factorization. A node or group member
/// outside the graph is an [`CfcmError::InvalidParameter`].
pub fn resistance_to_group_cg(
    g: &Graph,
    u: Node,
    group: &[Node],
    tol: f64,
) -> Result<f64, CfcmError> {
    let mask = group_mask(g, group)?;
    if u as usize >= mask.len() {
        return Err(CfcmError::InvalidParameter(format!(
            "node {u} out of range"
        )));
    }
    if mask[u as usize] {
        return Ok(0.0);
    }
    let mut factor = sdd::factor(g, &mask, SddBackend::SparseCg, &SddOptions::with_tol(tol))?;
    let ci = factor.compact_of(u).expect("u not in S");
    let mut b = vec![0.0; factor.dim()];
    b[ci] = 1.0;
    let x = factor.solve_vec(&b)?;
    Ok(x[ci])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use cfcc_linalg::pinv::pseudoinverse_dense;
    use rand::Rng;

    #[test]
    fn group_mask_rejects_bad_groups() {
        let g = generators::cycle(5);
        assert!(group_mask(&g, &[1, 2]).is_ok());
        assert!(group_mask(&g, &[9]).is_err());
        assert!(group_mask(&g, &[1, 1]).is_err());
    }

    #[test]
    fn exact_and_cg_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::barabasi_albert(50, 2, &mut rng);
        let group = vec![3, 17];
        let a = cfcc_group_exact(&g, &group);
        let b = cfcc_group_cg(&g, &group, 1e-10).unwrap();
        assert!((a - b).abs() / a < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn hutchinson_close_to_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let group = vec![0, 10, 20];
        let exact = cfcc_group_exact(&g, &group);
        let params = CfcmParams::default();
        let est = cfcc_group_hutchinson(&g, &group, 600, &params).unwrap();
        assert!((est - exact).abs() / exact < 0.1, "{est} vs {exact}");
    }

    #[test]
    fn single_node_cfcc_matches_resistance_sum() {
        // C(u) = n / Σ_v R(u,v) by definition.
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::barabasi_albert(20, 2, &mut rng);
        let n = g.num_nodes();
        let c = cfcc_single_exact(&g);
        let pinv = pseudoinverse_dense(&g);
        for (u, &cu) in c.iter().enumerate() {
            let sum_r: f64 = (0..n)
                .map(|v| cfcc_linalg::pinv::resistance_distance(&pinv, u, v))
                .sum();
            assert!((cu - n as f64 / sum_r).abs() < 1e-9);
        }
    }

    #[test]
    fn node_centrality_star_closed_form() {
        // Star on n nodes, center 0: R(0, leaf) = 1, R(leaf, leaf') = 2.
        // C(center) = n/(n−1); C(leaf) = n/(1 + 2(n−2)) = n/(2n−3).
        let n = 9;
        let g = generators::star(n);
        let c = node_centrality(&g, &CfcmParams::default()).unwrap();
        let nf = n as f64;
        assert!((c[0] - nf / (nf - 1.0)).abs() < 1e-10, "center {}", c[0]);
        for &cu in &c[1..] {
            assert!((cu - nf / (2.0 * nf - 3.0)).abs() < 1e-10, "leaf {cu}");
        }
    }

    #[test]
    fn node_centrality_path_closed_form() {
        // Path: R(u, v) = |u − v|, so C(u) = n / Σ_v |u − v|.
        let n = 11;
        let g = generators::path(n);
        let c = node_centrality(&g, &CfcmParams::default()).unwrap();
        for (u, &cu) in c.iter().enumerate() {
            let sum_r: f64 = (0..n).map(|v| (v as f64 - u as f64).abs()).sum();
            assert!((cu - n as f64 / sum_r).abs() < 1e-10, "node {u}: {cu}");
        }
    }

    #[test]
    fn node_centrality_matches_networkx_formula_across_backends() {
        // Parity with the pseudoinverse form the networkx implementation
        // evaluates: C(u) = n / (Tr(L†) + n·L†_uu) (cfcc_single_exact).
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let reference = cfcc_single_exact(&g);
        for backend in [
            cfcc_linalg::SddBackend::DenseCholesky,
            cfcc_linalg::SddBackend::SparseCg,
        ] {
            let params = CfcmParams {
                backend,
                cg_tol: 1e-11,
                ..CfcmParams::default()
            };
            let c = node_centrality(&g, &params).unwrap();
            for (u, (&a, &b)) in reference.iter().zip(&c).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * a.abs(),
                    "{backend:?} node {u}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn node_centrality_rejects_degenerate_inputs() {
        let lonely = cfcc_graph::Graph::from_edges(1, &[]).unwrap();
        assert!(node_centrality(&lonely, &CfcmParams::default()).is_err());
        let split = cfcc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            node_centrality(&split, &CfcmParams::default()),
            Err(CfcmError::Disconnected)
        ));
    }

    #[test]
    fn grounding_a_group_beats_its_members() {
        // C(S) ≥ max_u∈S C({u}) — grounding more nodes can only help.
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let s = vec![4, 9];
        let group = cfcc_group_exact(&g, &s);
        for &u in &s {
            assert!(group >= cfcc_group_exact(&g, &[u]) - 1e-12);
        }
    }

    #[test]
    fn resistance_to_group_matches_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let group = vec![0, 7];
        let mask = group_mask(&g, &group).unwrap();
        let (sub, keep) = laplacian_submatrix_dense(&g, &mask);
        let inv = sub.cholesky().unwrap().inverse();
        for (ci, &u) in keep.iter().enumerate() {
            let r = resistance_to_group_cg(&g, u, &group, 1e-11).unwrap();
            assert!((r - inv.get(ci, ci)).abs() < 1e-7);
        }
        assert_eq!(resistance_to_group_cg(&g, 0, &group, 1e-11).unwrap(), 0.0);
    }

    #[test]
    fn star_center_is_most_centrall() {
        let g = generators::star(12);
        let c = cfcc_single_exact(&g);
        let best = (0..12)
            .max_by(|&a, &b| c[a].partial_cmp(&c[b]).unwrap())
            .unwrap();
        assert_eq!(best, 0);
    }

    #[test]
    fn random_group_never_beats_containing_group() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        for _ in 0..5 {
            let a = rng.gen_range(0..40u32);
            let mut b = rng.gen_range(0..40u32);
            while b == a {
                b = rng.gen_range(0..40u32);
            }
            assert!(cfcc_group_exact(&g, &[a, b]) >= cfcc_group_exact(&g, &[a]) - 1e-12);
        }
    }
}
