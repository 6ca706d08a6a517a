//! Edge-addition CFCC maximization — the open problem the paper's §VI
//! points at ("the edge selection problem for maximizing CFCC … presents an
//! opportunity for future research"), built on this crate's marginal-gain
//! machinery as an extension.
//!
//! **Problem.** Given a *fixed* group `S`, add `k` new edges incident to
//! `S` so as to maximize `C(S) = n / Tr(L_{-S}^{-1})`.
//!
//! **Key identity.** Adding edge `{a, b}` updates the Laplacian by
//! `(e_a − e_b)(e_a − e_b)ᵀ`. Restricted to the grounded system this is a
//! rank-one update `L_{-S}' = L_{-S} + v vᵀ` (with `v` the restriction of
//! `e_a − e_b`; endpoints inside `S` drop out), so by Sherman–Morrison the
//! exact trace drop is
//!
//! ```text
//! Tr(L_{-S}^{-1}) − Tr(L_{-S}'^{-1}) = ‖M v‖² / (1 + vᵀ M v),   M = L_{-S}^{-1}
//! ```
//!
//! which prices every candidate edge in `O(n²)` (one pass over `M`'s rows)
//! and re-prices after acceptance with the standard Sherman–Morrison update
//! of `M`. Trace drops under edge addition are again monotone with
//! diminishing returns, so greedy is the natural heuristic here too.

use crate::error::validate;
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::laplacian::laplacian_submatrix_dense;
use cfcc_linalg::vector::norm2_sq;

/// One accepted edge with its exact objective improvement.
#[derive(Debug, Clone, PartialEq)]
pub struct AddedEdge {
    /// Endpoint inside the group `S`.
    pub group_end: Node,
    /// Endpoint outside the group.
    pub outside_end: Node,
    /// Exact drop of `Tr(L_{-S}^{-1})` achieved by this edge.
    pub trace_drop: f64,
}

/// Result of greedy edge addition.
#[derive(Debug, Clone)]
pub struct EdgeAdditionResult {
    /// Accepted edges in greedy order.
    pub edges: Vec<AddedEdge>,
    /// `Tr(L_{-S}^{-1})` before any additions.
    pub trace_before: f64,
    /// `Tr(L_{-S}^{-1})` after all additions.
    pub trace_after: f64,
}

impl EdgeAdditionResult {
    /// CFCC improvement factor `C_after / C_before`.
    pub fn improvement(&self) -> f64 {
        self.trace_before / self.trace_after
    }
}

/// Greedily add `k` non-existing edges between `S` and `V ∖ S` maximizing
/// `C(S)`. Dense exact variant — `O(k · n · n²)` worst case, small graphs.
pub fn greedy_edge_addition(
    g: &Graph,
    group: &[Node],
    k: usize,
    params: &CfcmParams,
) -> Result<EdgeAdditionResult, CfcmError> {
    validate(g, group.len())?;
    if k == 0 {
        return Err(CfcmError::InvalidParameter("k must be >= 1".into()));
    }
    let mask = crate::cfcc::group_mask(g, group)?;
    let (sub, keep) = laplacian_submatrix_dense(g, &mask);
    // M = L_{-S}^{-1} is Sherman–Morrison-maintained across accepted
    // edges — the genuine inverse consumer of this module.
    let mut m = sub
        .cholesky_threaded(params.threads)
        .map_err(|e| CfcmError::Numerical(format!("L_-S not SPD: {e}")))?
        .inverse_threaded(params.threads);
    let trace_before = m.trace();
    let d = keep.len();

    // Candidate edges: (s ∈ S, u ∉ S) pairs not already present. Since both
    // endpoints matter only through v = e_u |_{V∖S} (the S endpoint is
    // grounded away), the gain of (s, u) is ‖M e_u‖² / (1 + M_uu) for every
    // s — so each outside node u is priced once and connected to the least
    // loaded group node (round-robin) when accepted.
    let mut existing: Vec<std::collections::HashSet<Node>> = group
        .iter()
        .map(|&s| g.neighbors(s).iter().copied().collect())
        .collect();
    let mut edges = Vec::with_capacity(k);
    let mut col = vec![0.0f64; d]; // reusable Sherman–Morrison workspace
    for pick in 0..k {
        // Price every outside node.
        let mut best: Option<(usize, f64)> = None;
        for (cu, &u) in keep.iter().enumerate() {
            // Skip nodes already adjacent to every group member.
            if existing.iter().all(|nb| nb.contains(&u)) {
                continue;
            }
            let gain = norm2_sq(m.row(cu)) / (1.0 + m.get(cu, cu));
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((cu, gain));
            }
        }
        let Some((cu, gain)) = best else {
            break; // graph saturated
        };
        let u = keep[cu];
        // Attach to the first group node not yet adjacent to u.
        let (si, _) = group
            .iter()
            .enumerate()
            .find(|&(si, _)| !existing[si].contains(&u))
            .expect("some group node is free by the filter above");
        existing[si].insert(u);
        edges.push(AddedEdge {
            group_end: group[si],
            outside_end: u,
            trace_drop: gain,
        });

        // Sherman–Morrison update of M for v = e_{cu}:
        // M' = M − (M e_cu)(e_cuᵀ M) / (1 + M_cucu)
        if pick + 1 < k {
            let denom = 1.0 + m.get(cu, cu);
            for (i, ci) in col.iter_mut().enumerate() {
                *ci = m.get(i, cu);
            }
            for i in 0..d {
                let ci = col[i] / denom;
                if ci == 0.0 {
                    continue;
                }
                let row = m.row_mut(i);
                for (j, &cj) in col.iter().enumerate() {
                    row[j] -= ci * cj;
                }
            }
        }
    }
    let trace_after = if edges.is_empty() {
        trace_before
    } else {
        // Recompute exactly on the augmented graph for an honest report.
        let mut all_edges: Vec<(Node, Node)> = g.edges().collect();
        for e in &edges {
            all_edges.push((e.group_end, e.outside_end));
        }
        let g2 = Graph::from_edges(g.num_nodes(), &all_edges)
            .map_err(|e| CfcmError::InvalidParameter(e.to_string()))?;
        crate::cfcc::grounded_trace_exact(&g2, group)
    };
    Ok(EdgeAdditionResult {
        edges,
        trace_before,
        trace_after,
    })
}

/// Sampled pricing of outside nodes for large graphs: the same gain
/// formula with `(L_{-S}^{-1})_{uu}` and `‖L_{-S}^{-1} e_u‖²` replaced by
/// their forest/JL estimates — reuses the ForestDelta machinery, since
/// `gain(u) = Δ(u, S) · z_u / (1 + z_u)`.
pub fn sampled_edge_gains(
    g: &Graph,
    group: &[Node],
    params: &CfcmParams,
) -> Result<Vec<(Node, f64)>, CfcmError> {
    validate(g, group.len())?;
    let mask = crate::cfcc::group_mask(g, group)?;
    let n = g.num_nodes();
    let w = params.width(n);
    use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
    use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
    use cfcc_linalg::jl::JlSketch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xEDCE);
    let sketch = JlSketch::sample(w, n, &mut rng);
    let mut acc = ElectricalAccumulator::new(g, &mask, Some(sketch), DiagMode::Diagonal, None);
    let cfg = SamplerConfig {
        seed: params.seed ^ 0xADDE,
        threads: params.threads,
    };
    absorb_batch(g, &mask, 0, params.max_forests.min(2048), &cfg, &mut acc);
    let y = acc.y_matrix();
    let z = acc.diag_means();
    Ok((0..n as Node)
        .filter(|&u| !mask[u as usize])
        .map(|u| {
            let floor = 1.0 / g.degree(u) as f64;
            let zu = z[u as usize].max(floor);
            (u, norm2_sq(y.row(u as usize)) / (1.0 + zu))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::grounded_trace_exact;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::cycle(6);
        let p = CfcmParams::default();
        assert!(greedy_edge_addition(&g, &[0], 0, &p).is_err());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(greedy_edge_addition(&disconnected, &[0], 1, &p).is_err());
    }

    #[test]
    fn trace_drop_predictions_are_exact() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let group = vec![0u32, 5];
        let p = CfcmParams::default();
        let res = greedy_edge_addition(&g, &group, 3, &p).unwrap();
        assert_eq!(res.edges.len(), 3);
        // The cumulative predicted drops must match the recomputed traces.
        let predicted: f64 = res.edges.iter().map(|e| e.trace_drop).sum();
        let actual = res.trace_before - res.trace_after;
        assert!(
            (predicted - actual).abs() < 1e-6,
            "predicted {predicted} vs actual {actual}"
        );
        assert!(res.improvement() > 1.0);
    }

    #[test]
    fn added_edges_touch_the_group() {
        let mut rng = StdRng::seed_from_u64(63);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let group = vec![2u32, 9];
        let res = greedy_edge_addition(&g, &group, 4, &CfcmParams::default()).unwrap();
        for e in &res.edges {
            assert!(group.contains(&e.group_end));
            assert!(!group.contains(&e.outside_end));
        }
    }

    #[test]
    fn first_pick_is_globally_optimal() {
        // Greedy's first accepted edge must beat every alternative edge.
        let mut rng = StdRng::seed_from_u64(67);
        let g = generators::barabasi_albert(18, 2, &mut rng);
        let group = vec![1u32];
        let res = greedy_edge_addition(&g, &group, 1, &CfcmParams::default()).unwrap();
        let base = grounded_trace_exact(&g, &group);
        let mut best_alt = f64::INFINITY;
        for u in 0..18u32 {
            if u == 1 || g.has_edge(1, u) {
                continue;
            }
            let mut edges: Vec<(u32, u32)> = g.edges().collect();
            edges.push((1, u));
            let g2 = Graph::from_edges(18, &edges).unwrap();
            best_alt = best_alt.min(grounded_trace_exact(&g2, &group));
        }
        assert!(
            (res.trace_after - best_alt).abs() < 1e-8,
            "greedy {} vs best alternative {best_alt} (base {base})",
            res.trace_after
        );
    }

    #[test]
    fn sampled_gains_rank_like_exact() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let group = vec![0u32];
        let mut p = CfcmParams::with_epsilon(0.15).seed(3);
        p.max_forests = 2048;
        p.min_batch = 2048;
        let sampled = sampled_edge_gains(&g, &group, &p).unwrap();
        // Exact gains.
        let mask = crate::cfcc::group_mask(&g, &group).unwrap();
        let (sub, keep) = laplacian_submatrix_dense(&g, &mask);
        let m = sub.cholesky().unwrap().inverse();
        let mut exact: Vec<(u32, f64)> = keep
            .iter()
            .enumerate()
            .map(|(c, &u)| (u, norm2_sq(m.row(c)) / (1.0 + m.get(c, c))))
            .collect();
        exact.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut sampled_sorted = sampled.clone();
        sampled_sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        // Sampled argmax lands in the exact top tier.
        let exact_top: Vec<u32> = exact.iter().take(3).map(|&(u, _)| u).collect();
        assert!(
            exact_top.contains(&sampled_sorted[0].0),
            "sampled best {} not in exact top3 {exact_top:?}",
            sampled_sorted[0].0
        );
    }

    use cfcc_graph::Graph;
}
