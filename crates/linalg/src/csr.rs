//! Compressed-sparse-row Laplacian submatrices and the IC(0) incomplete
//! Cholesky preconditioner — the storage layer of the `sparse-cg` SDD
//! backend (see [`crate::sdd`]).
//!
//! The point of this module is that **nothing here ever densifies**: the
//! grounded Laplacian `L_{-S}` is held as CSR (`O(n + m)` memory), the
//! preconditioner reuses exactly the lower-triangular sparsity pattern of
//! `L_{-S}` (zero fill-in), and every operation — SpMV, factorization,
//! triangular solves — is linear in the number of stored entries. This is
//! what lets ApproxGreedy and the CG evaluators run on graphs far past the
//! dense `n ≈ 2k` ceiling.
//!
//! `L_{-S}` of a connected graph is a symmetric M-matrix, for which IC(0)
//! is known not to break down in exact arithmetic (Meijerink–van der
//! Vorst, 1977). Rounding can still push a pivot non-positive on nearly
//! singular systems, so [`IncompleteCholesky::factor`] retries with an
//! escalating Manteuffel diagonal shift `A + α·diag(A)` before giving up.

use crate::error::LinalgError;
use crate::pool::{self, SendPtr};
use crate::DenseMatrix;
use cfcc_graph::{Graph, Node};

/// Symmetric sparse matrix in CSR layout, rows sorted by column index.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Build the grounded Laplacian `L_{-S}` over the compacted index
    /// space `V ∖ S` (same ordering as
    /// [`crate::laplacian::laplacian_submatrix_dense`]). Returns the
    /// matrix, the kept nodes in compact order, and the original-node →
    /// compact-index map (`usize::MAX` for grounded nodes). `O(n + m)`
    /// time and memory.
    pub fn grounded_laplacian(g: &Graph, in_s: &[bool]) -> (Self, Vec<Node>, Vec<usize>) {
        assert_eq!(in_s.len(), g.num_nodes());
        let keep: Vec<Node> = (0..g.num_nodes() as Node)
            .filter(|&u| !in_s[u as usize])
            .collect();
        let mut pos = vec![usize::MAX; g.num_nodes()];
        for (i, &u) in keep.iter().enumerate() {
            pos[u as usize] = i;
        }
        let n = keep.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        row_ptr.push(0);
        for &u in &keep {
            row.clear();
            row.push((pos[u as usize] as u32, g.degree(u) as f64));
            for &v in g.neighbors(u) {
                let j = pos[v as usize];
                if j != usize::MAX {
                    row.push((j as u32, -1.0));
                }
            }
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &row {
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        (
            Self {
                n,
                row_ptr,
                col_idx,
                vals,
            },
            keep,
            pos,
        )
    }

    /// Dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * x[self.col_idx[idx] as usize];
            }
            *yi = acc;
        }
    }

    /// `Y = A X` for a block of column vectors (row-major `n × w`
    /// matrices). The sparse pattern is traversed **once** for all `w`
    /// columns — the multi-RHS sharing the blocked PCG relies on: every
    /// loaded `(col, val)` pair feeds `w` multiply-adds on adjacent
    /// memory instead of one. Output rows are partitioned across the
    /// worker pool; every output row is one independent gather, so
    /// results are bit-identical for every thread count.
    pub fn spmm_threaded(&self, x: &DenseMatrix, y: &mut DenseMatrix, threads: usize) {
        debug_assert_eq!(x.rows(), self.n);
        debug_assert_eq!(y.rows(), self.n);
        debug_assert_eq!(x.cols(), y.cols());
        let w = x.cols();
        /// Minimum multiply-adds per pool task.
        const GRAIN: usize = 16 * 1024;
        let t = threads.max(1).min(self.n).min(1 + self.nnz() * w / GRAIN);
        let yp = SendPtr::new(y.data_mut());
        pool::run(t, t, &move |tix| {
            let r0 = self.n * tix / t;
            let r1 = self.n * (tix + 1) / t;
            for i in r0..r1 {
                // SAFETY: rows [r0, r1) of y are owned exclusively by
                // this task (disjoint partition over output rows).
                let yr = unsafe { yp.slice(i * w, w) };
                yr.fill(0.0);
                for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                    let v = self.vals[idx];
                    let xr = x.row(self.col_idx[idx] as usize);
                    for (ys, &xs) in yr.iter_mut().zip(xr) {
                        *ys += v * xs;
                    }
                }
            }
        });
    }

    /// Test-only hook: scale the diagonal entries by `f` (used to force
    /// IC(0) breakdown, which a grounded-Laplacian M-matrix never does on
    /// its own).
    #[cfg(test)]
    pub(crate) fn scale_diagonal(&mut self, f: f64) {
        for i in 0..self.n {
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[idx] as usize == i {
                    self.vals[idx] *= f;
                }
            }
        }
    }

    /// Diagonal entries: the full degrees of the kept nodes.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[idx] as usize == i {
                    *di = self.vals[idx];
                }
            }
        }
        d
    }
}

/// Zero-fill incomplete Cholesky `A ≈ L Lᵀ` on the lower-triangular
/// pattern of a [`CsrMatrix`], with column lists for the transpose solve.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    n: usize,
    /// Strictly-lower factor entries, CSR by row (columns ascending).
    low_ptr: Vec<usize>,
    low_col: Vec<u32>,
    low_val: Vec<f64>,
    /// Diagonal of `L`.
    diag: Vec<f64>,
    /// Strictly-lower pattern by column: `(row, index into low_val)`.
    csc_ptr: Vec<usize>,
    csc_row: Vec<u32>,
    csc_idx: Vec<usize>,
    /// Manteuffel shift `α` that made the factorization succeed (0 in the
    /// M-matrix common case).
    shift: f64,
}

impl IncompleteCholesky {
    /// Factor with escalating diagonal shifts until the pivots stay
    /// positive. For grounded Laplacians the first attempt (`α = 0`)
    /// succeeds; the fallback covers near-singular estimates.
    pub fn factor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        let mut alpha = 0.0f64;
        let mut last = LinalgError::NotPositiveDefinite { row: 0, pivot: 0.0 };
        for attempt in 0..10 {
            match Self::try_factor(a, alpha) {
                Ok(ic) => return Ok(ic),
                Err(e) => {
                    last = e;
                    alpha = if attempt == 0 { 1e-4 } else { alpha * 10.0 };
                }
            }
        }
        Err(last)
    }

    /// The shift `α` used (0 unless breakdown forced a perturbation).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Stored strictly-lower entries.
    pub fn nnz_lower(&self) -> usize {
        self.low_val.len()
    }

    fn try_factor(a: &CsrMatrix, alpha: f64) -> Result<Self, LinalgError> {
        let n = a.n;
        // Strictly-lower pattern of A (columns ascending within each row).
        let mut low_ptr = Vec::with_capacity(n + 1);
        let mut low_col: Vec<u32> = Vec::new();
        let mut low_a: Vec<f64> = Vec::new();
        let mut diag_a = vec![0.0f64; n];
        low_ptr.push(0);
        for (i, da) in diag_a.iter_mut().enumerate() {
            for idx in a.row_ptr[i]..a.row_ptr[i + 1] {
                let j = a.col_idx[idx] as usize;
                if j < i {
                    low_col.push(j as u32);
                    low_a.push(a.vals[idx]);
                } else if j == i {
                    *da = a.vals[idx] * (1.0 + alpha);
                }
            }
            low_ptr.push(low_col.len());
        }
        // Column lists over the same pattern (CSC of the strict lower
        // part) — used both during factorization (scatter updates) and by
        // the backward `Lᵀ` solve.
        let mut csc_ptr = vec![0usize; n + 1];
        for &c in &low_col {
            csc_ptr[c as usize + 1] += 1;
        }
        for k in 0..n {
            csc_ptr[k + 1] += csc_ptr[k];
        }
        let mut cursor = csc_ptr.clone();
        let mut csc_row = vec![0u32; low_col.len()];
        let mut csc_idx = vec![0usize; low_col.len()];
        for i in 0..n {
            for (off, &c) in low_col[low_ptr[i]..low_ptr[i + 1]].iter().enumerate() {
                let c = c as usize;
                csc_row[cursor[c]] = i as u32;
                csc_idx[cursor[c]] = low_ptr[i] + off;
                cursor[c] += 1;
            }
        }

        // Up-looking factorization with a dense scatter workspace:
        // L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j].
        let mut low_val = vec![0.0f64; low_a.len()];
        let mut diag = vec![0.0f64; n];
        let mut w = vec![0.0f64; n];
        let mut in_row = vec![false; n];
        for i in 0..n {
            let (lo, hi) = (low_ptr[i], low_ptr[i + 1]);
            for idx in lo..hi {
                let j = low_col[idx] as usize;
                w[j] = low_a[idx];
                in_row[j] = true;
            }
            let mut dii = diag_a[i];
            for idx in lo..hi {
                let j = low_col[idx] as usize;
                let lij = w[j] / diag[j];
                low_val[idx] = lij;
                dii -= lij * lij;
                // Finalizing column j of row i touches every later column
                // j' of row i with (j', j) in the pattern: subtract
                // L[i][j]·L[j'][j]. Rows in csc[j] are > j and the marker
                // restricts them to this row's pattern (hence < i, already
                // factored); a target outside the pattern is dropped fill
                // (MIC-style diagonal compensation of those drops cannot
                // preserve row sums in this up-looking pass — the
                // symmetric drop belongs to an already-finalized row — and
                // measured worse).
                for t in csc_ptr[j]..csc_ptr[j + 1] {
                    let r = csc_row[t] as usize;
                    if in_row[r] {
                        w[r] -= lij * low_val[csc_idx[t]];
                    }
                }
            }
            for idx in lo..hi {
                in_row[low_col[idx] as usize] = false;
            }
            if dii <= f64::MIN_POSITIVE {
                return Err(LinalgError::NotPositiveDefinite { row: i, pivot: dii });
            }
            diag[i] = dii.sqrt();
        }
        Ok(Self {
            n,
            low_ptr,
            low_col,
            low_val,
            diag,
            csc_ptr,
            csc_row,
            csc_idx,
            shift: alpha,
        })
    }

    /// Apply the preconditioner: `z = (L Lᵀ)^{-1} r` by one forward and
    /// one backward sparse triangular solve.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        debug_assert_eq!(z.len(), self.n);
        // Forward: L y = r (rows ascending; row entries are columns < i).
        for i in 0..self.n {
            let mut acc = r[i];
            for idx in self.low_ptr[i]..self.low_ptr[i + 1] {
                acc -= self.low_val[idx] * z[self.low_col[idx] as usize];
            }
            z[i] = acc / self.diag[i];
        }
        // Backward: Lᵀ z = y (columns of L below i via the CSC lists).
        for i in (0..self.n).rev() {
            let mut acc = z[i];
            for t in self.csc_ptr[i]..self.csc_ptr[i + 1] {
                acc -= self.low_val[self.csc_idx[t]] * z[self.csc_row[t] as usize];
            }
            z[i] = acc / self.diag[i];
        }
    }

    /// Blocked [`IncompleteCholesky::apply`]: `Z = (L Lᵀ)⁻¹ R` for a block
    /// of columns, traversing the triangular factors once for all columns.
    pub fn apply_block(&self, r: &DenseMatrix, z: &mut DenseMatrix) {
        debug_assert_eq!(r.rows(), self.n);
        debug_assert_eq!(z.rows(), self.n);
        debug_assert_eq!(r.cols(), z.cols());
        let w = r.cols();
        let zd = z.data_mut();
        // Forward: L Y = R.
        for i in 0..self.n {
            let base = i * w;
            for (s, &rv) in r.row(i).iter().enumerate() {
                zd[base + s] = rv;
            }
            for idx in self.low_ptr[i]..self.low_ptr[i + 1] {
                let lv = self.low_val[idx];
                let jb = self.low_col[idx] as usize * w;
                for s in 0..w {
                    zd[base + s] -= lv * zd[jb + s];
                }
            }
            let inv_d = 1.0 / self.diag[i];
            for s in 0..w {
                zd[base + s] *= inv_d;
            }
        }
        // Backward: Lᵀ Z = Y.
        for i in (0..self.n).rev() {
            let base = i * w;
            for t in self.csc_ptr[i]..self.csc_ptr[i + 1] {
                let lv = self.low_val[self.csc_idx[t]];
                let jb = self.csc_row[t] as usize * w;
                for s in 0..w {
                    zd[base + s] -= lv * zd[jb + s];
                }
            }
            let inv_d = 1.0 / self.diag[i];
            for s in 0..w {
                zd[base + s] *= inv_d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_submatrix_dense;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn csr_memory_is_linear_in_edges() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::barabasi_albert(500, 3, &mut rng);
        let in_s = {
            let mut m = vec![false; 500];
            m[0] = true;
            m
        };
        let (csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        // nnz ≤ n + 2m — never the n² of a dense representation.
        assert!(csr.nnz() <= csr.dim() + 2 * g.num_edges());
    }

    #[test]
    fn ic0_factors_grounded_laplacian_without_shift() {
        let mut rng = StdRng::seed_from_u64(47);
        for trial in 0..4u64 {
            let g = match trial {
                0 => generators::barabasi_albert(120, 3, &mut rng),
                1 => generators::path(200),
                2 => generators::grid(12, 12),
                _ => generators::erdos_renyi_gnm(150, 600, &mut rng),
            };
            let n = g.num_nodes();
            let mut in_s = vec![false; n];
            in_s[0] = true;
            let (csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
            let ic = IncompleteCholesky::factor(&csr).unwrap();
            assert_eq!(ic.shift(), 0.0, "M-matrix IC(0) must not need a shift");
            assert!(ic.nnz_lower() <= csr.nnz() / 2 + csr.dim());
        }
    }

    #[test]
    fn ic0_is_exact_on_trees() {
        // A tree's grounded Laplacian, ordered by the compact (BFS-free)
        // order, has a Cholesky factor with the same pattern as its lower
        // triangle only when eliminations create no fill between siblings;
        // on a path graph IC(0) IS the exact factor, so the preconditioner
        // solves the system in one application.
        let g = generators::path(40);
        let mut in_s = vec![false; 40];
        in_s[0] = true;
        let (csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        let ic = IncompleteCholesky::factor(&csr).unwrap();
        let mut rng = StdRng::seed_from_u64(49);
        let b: Vec<f64> = (0..csr.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut z = vec![0.0; csr.dim()];
        ic.apply(&b, &mut z);
        let mut az = vec![0.0; csr.dim()];
        csr.spmv(&z, &mut az);
        for (a, b) in az.iter().zip(&b) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ic0_preconditioner_is_spd_approximation() {
        // z = M^{-1} r must satisfy zᵀr > 0 (SPD preconditioner) and be
        // closer to A^{-1} r than the Jacobi guess in the A-norm.
        let mut rng = StdRng::seed_from_u64(53);
        let g = generators::barabasi_albert(90, 2, &mut rng);
        let mut in_s = vec![false; 90];
        in_s[5] = true;
        let (csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        let (dense, _) = laplacian_submatrix_dense(&g, &in_s);
        let exact = dense.cholesky().unwrap();
        let ic = IncompleteCholesky::factor(&csr).unwrap();
        let d = csr.dim();
        let b: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut z = vec![0.0; d];
        ic.apply(&b, &mut z);
        let zb: f64 = z.iter().zip(&b).map(|(a, c)| a * c).sum();
        assert!(zb > 0.0);
        let x = exact.solve(&b);
        let err_ic: f64 = z.iter().zip(&x).map(|(a, c)| (a - c) * (a - c)).sum();
        let diag = csr.diagonal();
        let err_jac: f64 = b
            .iter()
            .zip(&diag)
            .zip(&x)
            .map(|((bi, di), xi)| (bi / di - xi) * (bi / di - xi))
            .sum();
        assert!(
            err_ic < err_jac,
            "IC(0) should beat Jacobi: {err_ic} vs {err_jac}"
        );
    }

    #[test]
    fn shift_fallback_rescues_an_indefinite_perturbation() {
        // Kill the diagonal dominance so the plain IC(0) pivot goes
        // non-positive, and check the Manteuffel escalation recovers.
        let g = generators::cycle(12);
        let mut in_s = vec![false; 12];
        in_s[0] = true;
        let (mut csr, _, _) = CsrMatrix::grounded_laplacian(&g, &in_s);
        for i in 0..csr.n {
            for idx in csr.row_ptr[i]..csr.row_ptr[i + 1] {
                if csr.col_idx[idx] as usize == i {
                    csr.vals[idx] *= 0.45; // below the off-diagonal mass
                }
            }
        }
        // Escalation may legitimately give up (Err) — it must not panic;
        // when it succeeds, a shift must have been applied.
        if let Ok(ic) = IncompleteCholesky::factor(&csr) {
            assert!(ic.shift() > 0.0, "must have shifted");
        }
    }
}
