//! Exhaustive CFCM optimum for tiny graphs (paper Fig. 1's `Optimum` line).
//!
//! Enumerates all `C(n, k)` groups in a DFS over ascending node ids, but
//! instead of factorizing `L_{-S}` per leaf (`O(C(n,k)·n³)`), it maintains
//! `M = L_{-S}^{-1}` along the DFS path with `O(n²)` rank-one removal
//! updates and reads each leaf's trace in `O(n)` from the parent's `M`:
//!
//! ```text
//! Tr(L_{-(S∪u)}^{-1}) = Tr(M) − ‖M e_u‖² / M_uu
//! ```
//!
//! Total cost ≈ `C(n, k−1)·n²`, which makes Dolphins-sized (62 nodes, k=5)
//! instances take seconds instead of hours.

use crate::context::SolveContext;
use crate::greedy::ranked;
use crate::result::Selection;
use crate::solver::{Capability, CfcmSolver, SolverKind};
use crate::CfcmError;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::dense::DenseMatrix;
use cfcc_linalg::laplacian::laplacian_submatrix_dense;
use cfcc_linalg::vector::norm2_sq;

/// Result of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// The optimal group (sorted ascending).
    pub nodes: Vec<Node>,
    /// Its grounded trace `Tr(L_{-S*}^{-1})`.
    pub trace: f64,
    /// Its CFCC value `C(S*)`.
    pub cfcc: f64,
    /// Number of groups examined.
    pub examined: u64,
}

/// Exhaustively find `S* = argmax_{|S|=k} C(S)`.
///
/// Practical for `n ≲ 80, k ≤ 5` (the paper's Fig. 1 regime).
pub fn optimum_cfcm(g: &Graph, k: usize) -> Result<Optimum, CfcmError> {
    optimum_cfcm_ctx(g, k, &SolveContext::default())
}

/// Context-aware exhaustive search. Cancellation is polled between
/// depth-1 branches; an interrupted run returns the best group found so
/// far (possibly empty, if no complete group was examined yet).
pub fn optimum_cfcm_ctx(g: &Graph, k: usize, ctx: &SolveContext) -> Result<Optimum, CfcmError> {
    ctx.check_problem(g, k)?;
    let n = g.num_nodes();
    let mut best_trace = f64::INFINITY;
    let mut best: Vec<Node> = Vec::new();
    let mut examined = 0u64;

    // Depth 1: every singleton gets a fresh dense inverse.
    for first in 0..n as Node {
        if ctx.interrupted() {
            break;
        }
        // A fresh maintained inverse per depth-1 branch — the DFS reads
        // M's rows directly and updates it with rank-one removals, the
        // genuine inverse-consuming pattern.
        let mask = crate::cfcc::group_mask(g, &[first])?;
        let (sub, keep) = laplacian_submatrix_dense(g, &mask);
        let m = sub
            .cholesky_threaded(ctx.params.threads)
            .map_err(|e| CfcmError::Numerical(format!("L_-S not SPD: {e}")))?
            .inverse_threaded(ctx.params.threads);
        let mut prefix = vec![first];
        if k == 1 {
            examined += 1;
            let tr = m.trace();
            if tr < best_trace {
                best_trace = tr;
                best = prefix.clone();
            }
            continue;
        }
        dfs(
            k,
            &m,
            &keep,
            &mut prefix,
            first,
            &mut best_trace,
            &mut best,
            &mut examined,
        );
    }
    best.sort_unstable();
    Ok(Optimum {
        nodes: best,
        trace: best_trace,
        cfcc: n as f64 / best_trace,
        examined,
    })
}

/// Registry entry for the exhaustive optimum. Its [`CfcmSolver::supports`]
/// hint encodes the practicality wall (`n ≤ 80`, `k ≤ 5`); the optimal
/// group is reported in ascending node order.
pub struct OptimumSolver;

/// Largest node count the exhaustive search accepts through the registry.
pub const OPTIMUM_MAX_NODES: usize = 80;
/// Largest group size the exhaustive search accepts through the registry.
pub const OPTIMUM_MAX_K: usize = 5;

impl CfcmSolver for OptimumSolver {
    fn name(&self) -> &'static str {
        "optimum"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::Exact
    }

    fn supports(&self, n: usize, _m: usize, k: usize) -> Capability {
        if n > OPTIMUM_MAX_NODES || k > OPTIMUM_MAX_K {
            Capability::Unsupported(format!(
                "optimum is exhaustive; limited to n <= {OPTIMUM_MAX_NODES}, \
                 k <= {OPTIMUM_MAX_K} (got n={n}, k={k})"
            ))
        } else {
            Capability::Supported
        }
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        ranked(g, k, ctx, || Ok((optimum_cfcm_ctx(g, k, ctx)?.nodes, 0, 0)))
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    k: usize,
    m: &DenseMatrix,
    nodes: &[Node],
    prefix: &mut Vec<Node>,
    min_node: Node,
    best_trace: &mut f64,
    best: &mut Vec<Node>,
    examined: &mut u64,
) {
    let d = m.rows();
    let last_level = prefix.len() + 1 == k;
    for c in 0..d {
        let u = nodes[c];
        // Ascending enumeration avoids revisiting permutations.
        if u <= min_node {
            continue;
        }
        // Keep n − k ≥ 1 nodes ungrounded.
        if d == 1 {
            break;
        }
        if last_level {
            *examined += 1;
            let tr = m.trace() - norm2_sq(m.row(c)) / m.get(c, c);
            if tr < *best_trace {
                *best_trace = tr;
                prefix.push(u);
                *best = prefix.clone();
                prefix.pop();
            }
        } else {
            let child = crate::exact::remove_index(m, c);
            let child_nodes: Vec<Node> = nodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != c)
                .map(|(_, &x)| x)
                .collect();
            prefix.push(u);
            dfs(
                k,
                &child,
                &child_nodes,
                prefix,
                u,
                best_trace,
                best,
                examined,
            );
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::cfcc_group_exact;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force oracle: enumerate groups and evaluate each from scratch.
    fn naive_optimum(g: &Graph, k: usize) -> (Vec<Node>, f64) {
        let n = g.num_nodes();
        let mut best = (Vec::new(), f64::NEG_INFINITY);
        let mut group = Vec::with_capacity(k);
        fn rec(
            g: &Graph,
            n: usize,
            k: usize,
            start: usize,
            group: &mut Vec<Node>,
            best: &mut (Vec<Node>, f64),
        ) {
            if group.len() == k {
                let c = cfcc_group_exact(g, group);
                if c > best.1 {
                    *best = (group.clone(), c);
                }
                return;
            }
            for u in start..n {
                group.push(u as Node);
                rec(g, n, k, u + 1, group, best);
                group.pop();
            }
        }
        rec(g, n, k, 0, &mut group, &mut best);
        best
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..3 {
            let g = generators::barabasi_albert(12 + trial, 2, &mut rng);
            for k in 1..=3 {
                let fast = optimum_cfcm(&g, k).unwrap();
                let (naive_nodes, naive_cfcc) = naive_optimum(&g, k);
                assert!(
                    (fast.cfcc - naive_cfcc).abs() < 1e-8,
                    "k={k}: {} vs {naive_cfcc}",
                    fast.cfcc
                );
                assert_eq!(fast.nodes, naive_nodes, "k={k}");
            }
        }
    }

    #[test]
    fn examined_counts_all_combinations() {
        let g = generators::cycle(8);
        let opt = optimum_cfcm(&g, 2).unwrap();
        assert_eq!(opt.examined, 28); // C(8,2)
        let opt3 = optimum_cfcm(&g, 3).unwrap();
        assert_eq!(opt3.examined, 56); // C(8,3)
    }

    #[test]
    fn star_optimum_contains_hub() {
        let g = generators::star(10);
        let opt = optimum_cfcm(&g, 2).unwrap();
        assert!(opt.nodes.contains(&0));
    }

    #[test]
    fn optimum_at_least_greedy() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::barabasi_albert(18, 2, &mut rng);
        for k in 1..=3 {
            let opt = optimum_cfcm(&g, k).unwrap();
            let greedy = crate::exact::exact_greedy(&g, k).unwrap();
            let greedy_c = cfcc_group_exact(&g, &greedy.nodes);
            assert!(opt.cfcc >= greedy_c - 1e-9, "k={k}");
        }
    }

    #[test]
    fn cfcc_and_trace_consistent() {
        let g = generators::cycle(10);
        let opt = optimum_cfcm(&g, 2).unwrap();
        assert!((opt.cfcc - 10.0 / opt.trace).abs() < 1e-12);
    }

    #[test]
    fn already_elapsed_deadline_yields_empty_result() {
        use crate::context::SolveContext;
        use std::time::{Duration, Instant};
        let g = generators::cycle(10);
        let past = Instant::now() - Duration::from_secs(1);
        let ctx = SolveContext::default().with_deadline(past);
        // Interrupted before any depth-1 branch: no group examined.
        let opt = optimum_cfcm_ctx(&g, 2, &ctx).unwrap();
        assert!(opt.nodes.is_empty());
        assert_eq!(opt.examined, 0);
        let sel = OptimumSolver.solve(&g, 2, &ctx).unwrap();
        assert!(sel.nodes.is_empty());
        assert!(sel.stats.iterations.is_empty());
    }
}
