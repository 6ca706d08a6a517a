//! Laplacian matrices and grounded-submatrix operators.
//!
//! Two representations coexist:
//!
//! * dense `L` / `L_{-S}` builders for small graphs (exact baselines, test
//!   oracles), and
//! * [`LaplacianSubmatrix`] — a matrix-free operator applying `L_{-S}` on a
//!   *compacted* index space (`V \ S` relabelled `0..n-|S|`), which is what
//!   the CG solver iterates with. The diagonal keeps the **full** degree
//!   `d_u` of `G` (grounding removes rows/columns, not degree mass), which is
//!   exactly why `L_{-S}` is positive definite for connected `G`.

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

/// Matrix-free operator for `L_{-S}` over the compacted space `V \ S`.
#[derive(Debug, Clone)]
pub struct LaplacianSubmatrix<'g> {
    graph: &'g Graph,
    /// Kept (non-grounded) nodes, ascending.
    keep: Vec<Node>,
    /// Original node → compact index (`usize::MAX` for grounded nodes).
    pos: Vec<usize>,
}

impl<'g> LaplacianSubmatrix<'g> {
    /// Build the operator from a grounded-set mask (`in_s[u]` ⇒ `u ∈ S`).
    pub fn new(graph: &'g Graph, in_s: &[bool]) -> Self {
        assert_eq!(in_s.len(), graph.num_nodes());
        let keep: Vec<Node> = (0..graph.num_nodes() as Node)
            .filter(|&u| !in_s[u as usize])
            .collect();
        let mut pos = vec![usize::MAX; graph.num_nodes()];
        for (i, &u) in keep.iter().enumerate() {
            pos[u as usize] = i;
        }
        Self { graph, keep, pos }
    }

    /// Dimension of the compacted operator (`|V \ S|`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.keep.len()
    }

    /// Kept nodes in compact order.
    pub fn kept_nodes(&self) -> &[Node] {
        &self.keep
    }

    /// Compact index of original node `u`, if kept.
    #[inline]
    pub fn compact_of(&self, u: Node) -> Option<usize> {
        let p = self.pos[u as usize];
        (p != usize::MAX).then_some(p)
    }

    /// Original node at compact index `i`.
    #[inline]
    pub fn node_of(&self, i: usize) -> Node {
        self.keep[i]
    }

    /// `y = L_{-S} x` on compact vectors.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        for (i, &u) in self.keep.iter().enumerate() {
            let mut acc = self.graph.degree(u) as f64 * x[i];
            for &v in self.graph.neighbors(u) {
                let j = self.pos[v as usize];
                if j != usize::MAX {
                    acc -= x[j];
                }
            }
            y[i] = acc;
        }
    }

    /// Diagonal of `L_{-S}` (the full degrees) — the Jacobi preconditioner.
    pub fn diagonal(&self) -> Vec<f64> {
        self.keep
            .iter()
            .map(|&u| self.graph.degree(u) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn submatrix_matches_dense_operator() {
        let g = generators::barbell(3, 2);
        let n = g.num_nodes();
        let mut in_s = vec![false; n];
        in_s[0] = true;
        in_s[4] = true;
        let (dense, keep) = laplacian_submatrix_dense(&g, &in_s);
        let op = LaplacianSubmatrix::new(&g, &in_s);
        assert_eq!(op.dim(), n - 2);
        assert_eq!(op.kept_nodes(), keep.as_slice());
        // Apply to a few basis vectors and compare columns.
        let mut x = vec![0.0; op.dim()];
        let mut y = vec![0.0; op.dim()];
        for j in 0..op.dim() {
            x.fill(0.0);
            x[j] = 1.0;
            op.apply(&x, &mut y);
            for (i, &yi) in y.iter().enumerate() {
                assert!((yi - dense.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diagonal_keeps_full_degree() {
        // Grounding a neighbor must NOT reduce the diagonal degree.
        let g = generators::star(5);
        let mut in_s = vec![false; 5];
        in_s[0] = true; // ground the hub
        let op = LaplacianSubmatrix::new(&g, &in_s);
        assert_eq!(op.diagonal(), vec![1.0; 4]);
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        for i in 0..4 {
            assert_eq!(dense.get(i, i), 1.0);
        }
    }

    #[test]
    fn submatrix_is_positive_definite_for_connected_graph() {
        let g = generators::cycle(8);
        let mut in_s = vec![false; 8];
        in_s[3] = true;
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        assert!(dense.cholesky().is_ok());
    }

    #[test]
    fn compact_index_roundtrip() {
        let g = generators::path(5);
        let in_s = vec![false, true, false, true, false];
        let op = LaplacianSubmatrix::new(&g, &in_s);
        assert_eq!(op.dim(), 3);
        assert_eq!(op.compact_of(0), Some(0));
        assert_eq!(op.compact_of(1), None);
        assert_eq!(op.node_of(1), 2);
        assert_eq!(op.node_of(2), 4);
    }
}
