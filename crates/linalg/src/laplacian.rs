//! Dense Laplacian builders for small graphs: the full `L` and the
//! grounded submatrix `L_{-S}` (exact baselines, the `dense-cholesky`
//! backend, test oracles).
//!
//! `L_{-S}` lives on the *compacted* index space (`V \ S` relabelled
//! `0..n-|S|` in increasing node order), the ordering every SDD factor
//! and the CSR builder [`crate::csr::CsrMatrix::grounded_laplacian`]
//! share. The diagonal keeps the **full** degree `d_u` of `G` (grounding
//! removes rows/columns, not degree mass), which is exactly why `L_{-S}`
//! is positive definite for connected `G`.

use crate::dense::DenseMatrix;
use cfcc_graph::{Graph, Node};

/// Dense Laplacian `L = D − A` of `g`.
pub fn laplacian_dense(g: &Graph) -> DenseMatrix {
    let n = g.num_nodes();
    let mut l = DenseMatrix::zeros(n, n);
    for u in 0..n as Node {
        l.set(u as usize, u as usize, g.degree(u) as f64);
        for &v in g.neighbors(u) {
            l.set(u as usize, v as usize, -1.0);
        }
    }
    l
}

/// Dense grounded submatrix `L_{-S}`, rows/columns restricted to `V \ S` in
/// increasing node order. Returns the matrix and the kept nodes.
pub fn laplacian_submatrix_dense(g: &Graph, in_s: &[bool]) -> (DenseMatrix, Vec<Node>) {
    assert_eq!(in_s.len(), g.num_nodes());
    let keep: Vec<Node> = (0..g.num_nodes() as Node)
        .filter(|&u| !in_s[u as usize])
        .collect();
    let mut pos = vec![usize::MAX; g.num_nodes()];
    for (i, &u) in keep.iter().enumerate() {
        pos[u as usize] = i;
    }
    let k = keep.len();
    let mut m = DenseMatrix::zeros(k, k);
    for (i, &u) in keep.iter().enumerate() {
        m.set(i, i, g.degree(u) as f64);
        for &v in g.neighbors(u) {
            let j = pos[v as usize];
            if j != usize::MAX {
                m.set(i, j, -1.0);
            }
        }
    }
    (m, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use cfcc_graph::generators;

    #[test]
    fn dense_laplacian_rows_sum_to_zero() {
        let g = generators::cycle(6);
        let l = laplacian_dense(&g);
        for i in 0..6 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
            assert_eq!(l.get(i, i), 2.0);
        }
    }

    /// The CSR operator `sparse-cg` iterates with applies exactly the
    /// dense `L_{-S}`, column by column.
    #[test]
    fn submatrix_matches_dense_operator() {
        let g = generators::barbell(3, 2);
        let n = g.num_nodes();
        let mut in_s = vec![false; n];
        in_s[0] = true;
        in_s[4] = true;
        let (dense, keep) = laplacian_submatrix_dense(&g, &in_s);
        let (csr, csr_keep, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        assert_eq!(csr.dim(), n - 2);
        assert_eq!(csr_keep, keep);
        let mut x = vec![0.0; csr.dim()];
        let mut y = vec![0.0; csr.dim()];
        for j in 0..csr.dim() {
            x.fill(0.0);
            x[j] = 1.0;
            csr.spmv(&x, &mut y);
            for (i, &yi) in y.iter().enumerate() {
                assert_eq!(yi, dense.get(i, j));
            }
        }
    }

    #[test]
    fn diagonal_keeps_full_degree() {
        // Grounding a neighbor must NOT reduce the diagonal degree.
        let g = generators::star(5);
        let mut in_s = vec![false; 5];
        in_s[0] = true; // ground the hub
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        for i in 0..4 {
            assert_eq!(dense.get(i, i), 1.0);
        }
        let (csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        assert_eq!(csr.diagonal(), vec![1.0; 4]);
    }

    #[test]
    fn submatrix_is_positive_definite_for_connected_graph() {
        let g = generators::cycle(8);
        let mut in_s = vec![false; 8];
        in_s[3] = true;
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        assert!(dense.cholesky().is_ok());
    }

    /// Both builders share the compact index space: kept nodes ascend,
    /// and the CSR's node → compact map inverts the kept-node list.
    #[test]
    fn compact_index_roundtrip() {
        let g = generators::path(5);
        let in_s = vec![false, true, false, true, false];
        let (dense, keep) = laplacian_submatrix_dense(&g, &in_s);
        assert_eq!(dense.rows(), 3);
        assert_eq!(keep, vec![0, 2, 4]);
        let (_, csr_keep, pos) = CsrMatrix::grounded_laplacian(&g, &in_s);
        assert_eq!(csr_keep, keep);
        for (i, &u) in keep.iter().enumerate() {
            assert_eq!(pos[u as usize], i);
        }
        assert_eq!(pos[1], usize::MAX);
        assert_eq!(pos[3], usize::MAX);
    }
}
