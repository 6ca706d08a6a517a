//! The EXACT greedy baseline (paper §V-A).
//!
//! Greedy CFCM with exact marginal gains. The paper's description inverts
//! `L_{-S}` per iteration (`O(k n³)`); we keep the algebra exact but pay the
//! cube only once: after the first pick, the inverse `M = L_{-S}^{-1}` is
//! maintained under node removal with the Schur-complement rank-one update
//!
//! ```text
//! (L_{-(S∪u)})^{-1} = M_{-u,-u} − M_{-u,u} · M_{u,-u} / M_{uu}
//! ```
//!
//! making each subsequent iteration `O(n²)`. The marginal gain itself is
//! `Δ(u,S) = (L_{-S}^{-2})_{uu} / (L_{-S}^{-1})_{uu} = ‖M e_u‖² / M_{uu}`
//! (Eq. 5), and equals exactly the trace drop of the update above.

use crate::context::SolveContext;
use crate::greedy;
use crate::result::{IterStats, Selection};
use crate::solver::{dense_capability, Capability, CfcmSolver, SolverKind};
use crate::CfcmError;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::dense::DenseMatrix;
use cfcc_linalg::laplacian::laplacian_submatrix_dense;
use cfcc_linalg::pinv::pseudoinverse_diag;
use cfcc_linalg::vector::norm2_sq;

/// Exact greedy CFCM solver: [`ExactSolver`] under a default context (the
/// dense baseline takes no tuning parameters).
pub fn exact_greedy(g: &Graph, k: usize) -> Result<Selection, CfcmError> {
    ExactSolver.solve(g, k, &SolveContext::default())
}

/// Registry entry for the dense exact greedy baseline.
pub struct ExactSolver;

impl CfcmSolver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn kind(&self) -> SolverKind {
        SolverKind::Exact
    }

    fn supports(&self, n: usize, _m: usize, _k: usize) -> Capability {
        dense_capability(self.name(), n, "'schur' or 'approx'")
    }

    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError> {
        let threads = ctx.params.threads;
        // M = L_{-S}^{-1} with `kept[c]` the node of compact index c, the
        // compact index of the previous round's pick, and a ping-pong
        // buffer for the rank-one removal updates (no per-round
        // allocation beyond the first).
        let (mut m, mut kept, mut last) = (DenseMatrix::zeros(0, 0), Vec::new(), None);
        let mut scratch = DenseMatrix::zeros(0, 0);
        greedy::run(
            g,
            k,
            ctx,
            // Iteration 1: argmin_u L†_uu (Eq. 4: the trace term is
            // shared). Only the diagonal is consumed, so no full
            // pseudoinverse is formed.
            |_| {
                let pdiag = pseudoinverse_diag(g);
                let (first, _) = greedy::argmax(pdiag.len(), |u| -pdiag[u]);
                Ok(IterStats::new(first as Node, f64::NAN))
            },
            |_, in_s, _| {
                match last {
                    // Forming M once is the genuine inverse consumer here:
                    // every later round reads M's entries and maintains it
                    // with the O(n²) rank-one removal update instead of
                    // refactorizing.
                    None => {
                        let (sub, keep) = laplacian_submatrix_dense(g, in_s);
                        m = sub
                            .cholesky_threaded(threads)
                            .map_err(|e| CfcmError::Numerical(format!("L_-S not SPD: {e}")))?
                            .inverse_threaded(threads);
                        kept = keep;
                    }
                    // Ground the previous round's pick.
                    Some(c) => {
                        let d = m.rows();
                        scratch.reshape(d - 1, d - 1);
                        remove_index_into(&m, c, &mut scratch);
                        std::mem::swap(&mut m, &mut scratch);
                        kept.remove(c);
                    }
                }
                // Δ(c) = ‖M e_c‖² / M_cc — symmetric M, so row c is column c.
                let (c, gain) = greedy::argmax(m.rows(), |c| norm2_sq(m.row(c)) / m.get(c, c));
                last = Some(c);
                Ok(IterStats::new(kept[c], gain))
            },
        )
    }
}

/// Rank-one removal update: the inverse of the submatrix obtained by
/// deleting row/column `c` from the matrix whose inverse is `m`.
pub fn remove_index(m: &DenseMatrix, c: usize) -> DenseMatrix {
    let d = m.rows();
    let mut out = DenseMatrix::zeros(d - 1, d - 1);
    remove_index_into(m, c, &mut out);
    out
}

/// [`remove_index`] writing into a caller-owned `(d−1) × (d−1)` buffer —
/// the greedy loops ping-pong two buffers instead of allocating per
/// iteration. `out` is resized by truncation bookkeeping on the caller
/// side; only its leading `(d−1)²` entries are written.
pub fn remove_index_into(m: &DenseMatrix, c: usize, out: &mut DenseMatrix) {
    let d = m.rows();
    debug_assert!(c < d);
    debug_assert_eq!(out.rows(), d - 1);
    debug_assert_eq!(out.cols(), d - 1);
    let mcc = m.get(c, c);
    for i in 0..d - 1 {
        let oi = if i < c { i } else { i + 1 };
        let mic = m.get(oi, c);
        let row_src = m.row(oi);
        let crow = m.row(c);
        let row_dst = out.row_mut(i);
        let scale = mic / mcc;
        // Split at the removed column: both halves are contiguous copies.
        for (dst, (&src, &cj)) in row_dst[..c]
            .iter_mut()
            .zip(row_src[..c].iter().zip(crow[..c].iter()))
        {
            *dst = src - scale * cj;
        }
        for (dst, (&src, &cj)) in row_dst[c..]
            .iter_mut()
            .zip(row_src[c + 1..].iter().zip(crow[c + 1..].iter()))
        {
            *dst = src - scale * cj;
        }
    }
}

/// Exact marginal gains `Δ(u, S)` for every `u ∉ S` (test oracle and
/// reference for Fig. 5): returns `(node, gain)` pairs. A degenerate
/// group (disconnecting `S`, duplicates, out-of-range nodes) surfaces as
/// [`CfcmError`] instead of panicking.
pub fn exact_deltas(g: &Graph, group: &[Node]) -> Result<Vec<(Node, f64)>, CfcmError> {
    let mask = crate::cfcc::group_mask(g, group)?;
    let (sub, keep) = laplacian_submatrix_dense(g, &mask);
    let inv = sub
        .cholesky()
        .map_err(|e| CfcmError::Numerical(format!("L_-S not SPD: {e}")))?
        .inverse();
    Ok(keep
        .iter()
        .enumerate()
        .map(|(c, &u)| (u, norm2_sq(inv.row(c)) / inv.get(c, c)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfcc::{cfcc_group_exact, grounded_trace_exact};
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::cycle(6);
        assert!(exact_greedy(&g, 0).is_err());
        assert!(exact_greedy(&g, 6).is_err());
    }

    #[test]
    fn k1_picks_min_pinv_diagonal() {
        let g = generators::star(9);
        let sel = exact_greedy(&g, 1).unwrap();
        assert_eq!(sel.nodes, vec![0], "star hub has minimal L†_uu");
    }

    #[test]
    fn gains_equal_trace_drops() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let sel = exact_greedy(&g, 4).unwrap();
        for i in 1..4 {
            let before = grounded_trace_exact(&g, &sel.nodes[..i]);
            let after = grounded_trace_exact(&g, &sel.nodes[..i + 1]);
            let gain = sel.stats.iterations[i].gain;
            assert!(
                (before - after - gain).abs() < 1e-8,
                "iter {i}: drop {} vs gain {gain}",
                before - after
            );
        }
    }

    #[test]
    fn remove_index_matches_recomputation() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::barabasi_albert(20, 2, &mut rng);
        let mask = crate::cfcc::group_mask(&g, &[0]).unwrap();
        let (sub, keep) = laplacian_submatrix_dense(&g, &mask);
        let inv = sub.cholesky().unwrap().inverse();
        // remove compact index 3 (node keep[3]) via update vs direct.
        let updated = remove_index(&inv, 3);
        let mask2 = crate::cfcc::group_mask(&g, &[0, keep[3]]).unwrap();
        let (sub2, _) = laplacian_submatrix_dense(&g, &mask2);
        let direct = sub2.cholesky().unwrap().inverse();
        assert!(updated.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn greedy_is_at_least_as_good_as_each_iteration_alternative() {
        // At each step, swapping the chosen node for any other single node
        // cannot increase the trace drop (greedy optimality per step).
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let sel = exact_greedy(&g, 3).unwrap();
        let s2 = &sel.nodes[..2];
        let chosen_gain = sel.stats.iterations[2].gain;
        for (u, gain) in exact_deltas(&g, s2).unwrap() {
            if u == sel.nodes[2] {
                continue;
            }
            assert!(
                gain <= chosen_gain + 1e-9,
                "node {u} gain {gain} beats chosen {chosen_gain}"
            );
        }
    }

    #[test]
    fn cfcc_improves_monotonically_along_selection() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::barabasi_albert(30, 3, &mut rng);
        let sel = exact_greedy(&g, 5).unwrap();
        let mut prev = 0.0;
        for i in 1..=5 {
            let c = cfcc_group_exact(&g, sel.prefix(i));
            assert!(c > prev, "C(S) must grow with k");
            prev = c;
        }
    }

    #[test]
    fn barbell_first_pick_is_on_the_bridge() {
        // In a barbell, the most current-flow-central node sits on the path
        // between the cliques.
        let g = generators::barbell(6, 3);
        let sel = exact_greedy(&g, 1).unwrap();
        let bridge: Vec<Node> = (6..9).collect();
        assert!(
            bridge.contains(&sel.nodes[0]),
            "expected a bridge node, got {}",
            sel.nodes[0]
        );
    }
}
