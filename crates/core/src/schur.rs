//! Schur complement machinery (paper §IV-A).
//!
//! * the exact dense Schur complement, a test oracle (Definition 4.1,
//!   Lemma 4.3);
//! * the estimated Schur complement `S̃_T(L_{-S})` assembled from empirical
//!   rooted probabilities via Eq. (15);
//! * robust inversion: the estimate is symmetrized and Cholesky-factorized,
//!   with an escalating ridge fallback — sampling noise can push the
//!   estimate indefinite even though the true Schur complement is SPD.

use crate::CfcmError;
use cfcc_forest::rooted::RootedCounts;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::dense::DenseMatrix;

/// Exact Schur complement `S_T(M) = M_TT − M_TU · M_UU^{-1} · M_UT` of a
/// dense matrix over index sets `t_idx` (kept) and `u_idx` (eliminated) —
/// the test oracle for the estimated complement.
///
/// `M_UU` must be symmetric positive definite, as every block of a
/// grounded Laplacian of a connected graph is. It is Cholesky-factorized
/// and applied to the `|T|`-column block `M_UT` by two blocked triangular
/// solves, then a single GEMM accumulates `−M_TU · X`; no explicit
/// `M_UU^{-1}` is formed. An `M_UU` that is not positive definite
/// surfaces as [`CfcmError::Numerical`] instead of panicking.
pub fn schur_complement_dense(
    m: &DenseMatrix,
    t_idx: &[usize],
    u_idx: &[usize],
) -> Result<DenseMatrix, CfcmError> {
    let t = t_idx.len();
    let u = u_idx.len();
    let mut mtt = DenseMatrix::zeros(t, t);
    let mut mtu = DenseMatrix::zeros(t, u);
    let mut mut_ = DenseMatrix::zeros(u, t);
    let mut muu = DenseMatrix::zeros(u, u);
    for (i, &ti) in t_idx.iter().enumerate() {
        for (j, &tj) in t_idx.iter().enumerate() {
            mtt.set(i, j, m.get(ti, tj));
        }
        for (j, &uj) in u_idx.iter().enumerate() {
            mtu.set(i, j, m.get(ti, uj));
        }
    }
    for (i, &ui) in u_idx.iter().enumerate() {
        for (j, &tj) in t_idx.iter().enumerate() {
            mut_.set(i, j, m.get(ui, tj));
        }
        for (j, &uj) in u_idx.iter().enumerate() {
            muu.set(i, j, m.get(ui, uj));
        }
    }
    if u == 0 {
        return Ok(mtt);
    }
    let ch = muu
        .cholesky()
        .map_err(|e| CfcmError::Numerical(format!("M_UU not positive definite: {e}")))?;
    // X = M_UU^{-1} M_UT (in place of M_UT), then S = M_TT − M_TU · X.
    ch.solve_mat_in_place(&mut mut_, 1);
    mtt.gemm_acc(&mtu, &mut_, -1.0, 1);
    Ok(mtt)
}

/// Estimated Schur complement `S̃_T(L_{-S})` from rooted counts (Eq. 15):
///
/// ```text
/// S̃_ij = L_{t_i t_j} − Σ_{(u, t_i) ∈ E, u ∈ U} F̃_{u t_j}
/// ```
///
/// `in_root` marks `S ∪ T`; `t_nodes` orders the columns/rows.
pub fn estimated_schur(
    g: &Graph,
    in_root: &[bool],
    t_nodes: &[Node],
    rooted: &RootedCounts,
    num_forests: u64,
) -> DenseMatrix {
    let t = t_nodes.len();
    assert!(num_forests > 0);
    let inv_n = 1.0 / num_forests as f64;
    let mut sigma = DenseMatrix::zeros(t, t);
    for (i, &ti) in t_nodes.iter().enumerate() {
        sigma.set(i, i, g.degree(ti) as f64);
        for &v in g.neighbors(ti) {
            if let Some(j) = rooted.index().index_of(v) {
                // v ∈ T: the Laplacian off-diagonal −1 survives grounding.
                sigma.add_to(i, j, -1.0);
            } else if !in_root[v as usize] {
                // v ∈ U: subtract its empirical rooted-probability row.
                for (s, &count) in sigma.row_mut(i).iter_mut().zip(rooted.row(v)) {
                    *s -= f64::from(count) * inv_n;
                }
            }
            // v ∈ S: column removed by grounding — contributes nothing.
        }
    }
    sigma
}

/// Symmetrize and invert an estimated Schur complement, escalating a ridge
/// until Cholesky succeeds. Returns the inverse and the ridge used.
pub fn invert_estimated_schur(mut sigma: DenseMatrix) -> Result<(DenseMatrix, f64), CfcmError> {
    sigma.symmetrize();
    let t = sigma.rows();
    let scale = (0..t)
        .map(|i| sigma.get(i, i).abs())
        .fold(1e-12f64, f64::max);
    let mut ridge = 0.0f64;
    for attempt in 0..14 {
        let mut trial = sigma.clone();
        if ridge > 0.0 {
            trial.add_ridge(ridge);
        }
        match trial.cholesky() {
            Ok(ch) => return Ok((ch.inverse(), ridge)),
            Err(_) => {
                // Escalate from a negligible perturbation up past the
                // diagonal scale (Gershgorin guarantees success by then).
                ridge = if attempt == 0 {
                    1e-10 * scale
                } else {
                    ridge * 30.0
                };
            }
        }
    }
    Err(CfcmError::Numerical(
        "estimated Schur complement stayed indefinite after ridge escalation".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
    use cfcc_forest::rooted::RootIndex;
    use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
    use cfcc_graph::generators;
    use cfcc_linalg::laplacian::{laplacian_dense, laplacian_submatrix_dense};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Lemma 4.3: `S_T(L_{-S}) = (S_{S∪T}(L))_{-S}`.
    #[test]
    fn schur_of_submatrix_equals_submatrix_of_schur() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::barabasi_albert(18, 2, &mut rng);
        let n = g.num_nodes();
        let s = vec![0usize, 4];
        let t = [1usize, 2, 7];
        let u: Vec<usize> = (0..n)
            .filter(|i| !s.contains(i) && !t.contains(i))
            .collect();

        // Left side: S_T(L_{-S}) — indices of T within L_{-S}.
        let mut in_s = vec![false; n];
        for &x in &s {
            in_s[x] = true;
        }
        let (l_minus_s, keep) = laplacian_submatrix_dense(&g, &in_s);
        let pos = |node: usize| keep.iter().position(|&x| x as usize == node).unwrap();
        let t_in_sub: Vec<usize> = t.iter().map(|&x| pos(x)).collect();
        let u_in_sub: Vec<usize> = u.iter().map(|&x| pos(x)).collect();
        let left = schur_complement_dense(&l_minus_s, &t_in_sub, &u_in_sub).unwrap();

        // Right side: (S_{S∪T}(L))_{-S} — Schur of the full Laplacian onto
        // S∪T, then drop rows/cols of S.
        let l = laplacian_dense(&g);
        let st: Vec<usize> = s.iter().chain(t.iter()).copied().collect();
        let full_schur = schur_complement_dense(&l, &st, &u).unwrap();
        // Rows/cols of T within `st` order are positions |S|..|S|+|T|.
        let toff = s.len();
        let mut right = DenseMatrix::zeros(t.len(), t.len());
        for i in 0..t.len() {
            for j in 0..t.len() {
                right.set(i, j, full_schur.get(toff + i, toff + j));
            }
        }
        assert!(left.max_abs_diff(&right) < 1e-9);
    }

    /// Eq. 15 with exact probabilities equals the dense Schur complement:
    /// check by sampling many forests.
    #[test]
    fn estimated_schur_converges_to_exact() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::barabasi_albert(16, 2, &mut rng);
        let n = g.num_nodes();
        let s_nodes = [0u32];
        let t_nodes = vec![1u32, 3u32];
        let mut in_root = vec![false; n];
        for &x in s_nodes.iter().chain(t_nodes.iter()) {
            in_root[x as usize] = true;
        }
        // Exact S_T(L_{-S}).
        let mut in_s = vec![false; n];
        in_s[0] = true;
        let (l_minus_s, keep) = laplacian_submatrix_dense(&g, &in_s);
        let pos = |node: u32| keep.iter().position(|&x| x == node).unwrap();
        let t_idx: Vec<usize> = t_nodes.iter().map(|&x| pos(x)).collect();
        let u_idx: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter(|&(_, &x)| !t_nodes.contains(&x))
            .map(|(i, _)| i)
            .collect();
        let exact = schur_complement_dense(&l_minus_s, &t_idx, &u_idx).unwrap();

        // Estimated from forests.
        let idx = Arc::new(RootIndex::new(n, &t_nodes));
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, Some(idx));
        absorb_batch(
            &g,
            &in_root,
            0,
            30_000,
            &SamplerConfig {
                seed: 3,
                threads: 1,
            },
            &mut acc,
        );
        let est = estimated_schur(
            &g,
            &in_root,
            &t_nodes,
            acc.rooted().unwrap(),
            acc.num_forests(),
        );
        assert!(
            est.max_abs_diff(&exact) < 0.1,
            "diff {} too large",
            est.max_abs_diff(&exact)
        );
    }

    #[test]
    fn invert_handles_spd_directly() {
        let spd = DenseMatrix::from_rows(&[&[3.0, -1.0], &[-1.0, 2.0]]);
        let (inv, ridge) = invert_estimated_schur(spd.clone()).unwrap();
        assert_eq!(ridge, 0.0);
        assert!(spd.matmul(&inv).max_abs_diff(&DenseMatrix::identity(2)) < 1e-10);
    }

    #[test]
    fn invert_applies_ridge_to_indefinite_estimate() {
        // Symmetric but indefinite (eigenvalues 3, −1).
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let (_, ridge) = invert_estimated_schur(m).unwrap();
        assert!(ridge > 0.0);
    }
}
