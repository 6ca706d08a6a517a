//! Row-major dense matrices with a blocked Cholesky factorization.
//!
//! # DESIGN — the dense layer after the blocked-kernel rebuild
//!
//! All `O(n³)` work routes through the packed kernels in [`crate::kernel`]
//! (tiled GEMM, SYRK, blocked triangular solves); see that module for block
//! sizes and packing layout. The seed's scalar loops survive only as the
//! `*_naive` reference kernels that the property tests
//! (`tests/blocked_vs_naive.rs`) compare against.
//!
//! **Factor vs inverse.** Callers should *factor once and solve many*:
//!
//! * `A⁻¹ B` → [`Cholesky::solve_mat`] (two blocked triangular solves;
//!   never forms `A⁻¹`);
//! * `A⁻¹ b` → [`Cholesky::solve_vec`];
//! * `diag(A⁻¹)` → [`Cholesky::diag_inverse`] (`n³/2` via the triangular
//!   factor only); `Tr(A⁻¹)` → [`Cholesky::trace_inverse`].
//!
//! Form an explicit [`Cholesky::inverse`] only when the algorithm truly
//! consumes arbitrary inverse *entries* — the greedy baselines' rank-one
//! maintained `M = L_{-S}^{-1}` (`remove_index`) and the `Σ̃^{-1}` whose
//! entries SchurDelta's quadratic forms read. Even then the inverse is built from blocked kernels
//! (`L⁻¹` by a blocked forward solve of `I`, then `L⁻ᵀL⁻¹` by SYRK).

use crate::error::LinalgError;
use crate::kernel::{self, View, NB};
use crate::vector;

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for DenseMatrix {
    /// The empty `0 × 0` matrix — the natural seed for workspace buffers
    /// that [`DenseMatrix::reshape`] to their first real size on use.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a slice of rows (each `cols` long).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Add to an element.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major data, mutable (workspace reuse in hot loops).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reset every entry to zero (reusable output buffers).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshape in place (contents unspecified afterwards); shrinking never
    /// reallocates, so workspace buffers can follow a shrinking problem —
    /// e.g. the greedy loops' rank-one removal ping-pong.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = vector::dot(self.row(i), x);
        }
    }

    /// Matrix product `A · B` via the blocked packed kernels.
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        self.matmul_threaded(b, 1)
    }

    /// [`DenseMatrix::matmul`] with `threads` scoped row panels.
    /// Bit-identical to the serial product for every thread count.
    pub fn matmul_threaded(&self, b: &DenseMatrix, threads: usize) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut out, threads);
        out
    }

    /// `out = A · B` into a caller-owned buffer (workspace reuse); `out`
    /// must already have shape `self.rows × b.cols`.
    pub fn matmul_into(&self, b: &DenseMatrix, out: &mut DenseMatrix, threads: usize) {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        assert_eq!(out.rows, self.rows);
        assert_eq!(out.cols, b.cols);
        out.fill_zero();
        kernel::gemm_acc(
            &mut out.data,
            0,
            out.cols,
            View::new(&self.data, 0, self.cols),
            View::new(&b.data, 0, b.cols),
            self.rows,
            b.cols,
            self.cols,
            1.0,
            threads,
        );
    }

    /// `self += alpha · A · B` (accumulating GEMM on an existing matrix).
    pub fn gemm_acc(&mut self, a: &DenseMatrix, b: &DenseMatrix, alpha: f64, threads: usize) {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert_eq!(self.rows, a.rows);
        assert_eq!(self.cols, b.cols);
        kernel::gemm_acc(
            &mut self.data,
            0,
            self.cols,
            View::new(&a.data, 0, a.cols),
            View::new(&b.data, 0, b.cols),
            a.rows,
            b.cols,
            a.cols,
            alpha,
            threads,
        );
    }

    /// Pre-rebuild reference product (`ikj` scalar loops with the zero
    /// branch) — retained as the property-test baseline.
    pub fn matmul_naive(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                for j in 0..b.cols {
                    orow[j] += aik * brow[j];
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `AᵀA` via a SYRK on the transposed view (lower triangle computed,
    /// then mirrored).
    pub fn gram(&self) -> DenseMatrix {
        let n = self.cols;
        let mut out = DenseMatrix::zeros(n, n);
        kernel::syrk_lower_acc(
            &mut out.data,
            0,
            n,
            View::new(&self.data, 0, self.cols).t(),
            n,
            self.rows,
            1.0,
            1,
        );
        kernel::mirror_lower(&mut out.data, 0, n, n);
        out
    }

    /// Max absolute entry difference with `other` (test helper).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2` (square matrices only).
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                self.data[i * n + j] = v;
                self.data[j * n + i] = v;
            }
        }
    }

    /// Add `lambda` to the diagonal.
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Blocked right-looking Cholesky factorization `A = L Lᵀ` of a
    /// symmetric positive-definite matrix (lower triangle referenced).
    ///
    /// Panels of [`NB`] columns: scalar factorization of the diagonal
    /// block, a vectorized triangular solve of the panel below it, and a
    /// SYRK trailing update carrying all the `O(n³)` flops.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        self.cholesky_threaded(1)
    }

    /// [`DenseMatrix::cholesky`] with the trailing SYRK updates split
    /// across `threads` scoped row panels (bit-identical results).
    pub fn cholesky_threaded(&self, threads: usize) -> Result<Cholesky, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        // Copy the lower triangle; the strict upper stays zero.
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            l[i * n..i * n + i + 1].copy_from_slice(&self.data[i * n..i * n + i + 1]);
        }
        let mut panel = Vec::new();
        for k0 in (0..n).step_by(NB) {
            let k1 = (k0 + NB).min(n);
            // Diagonal block: scalar Cholesky on rows/cols k0..k1 (all
            // contributions from columns < k0 were subtracted by earlier
            // trailing updates).
            for i in k0..k1 {
                for j in k0..=i {
                    let mut sum = l[i * n + j];
                    sum -= vector::dot(&l[i * n + k0..i * n + j], &l[j * n + k0..j * n + j]);
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            return Err(LinalgError::NotPositiveDefinite { row: i, pivot: sum });
                        }
                        l[i * n + i] = sum.sqrt();
                    } else {
                        l[i * n + j] = sum / l[j * n + j];
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Panel solve: L21 · L11ᵀ = A21, row-wise forward substitution
            // over contiguous row segments.
            for i in k1..n {
                for j in k0..k1 {
                    let s = vector::dot(&l[i * n + k0..i * n + j], &l[j * n + k0..j * n + j]);
                    l[i * n + j] = (l[i * n + j] - s) / l[j * n + j];
                }
            }
            // Trailing update: A22.lower −= L21 · L21ᵀ. L21 is copied to a
            // scratch panel (the kernels may not read and write `l` at
            // once), which doubles as its packing.
            let m2 = n - k1;
            let nb = k1 - k0;
            panel.clear();
            panel.reserve(m2 * nb);
            for i in k1..n {
                panel.extend_from_slice(&l[i * n + k0..i * n + k1]);
            }
            kernel::syrk_lower_acc(
                &mut l,
                k1 * n + k1,
                n,
                View::new(&panel, 0, nb),
                m2,
                nb,
                -1.0,
                threads,
            );
        }
        Ok(Cholesky { n, l })
    }

    /// Pre-rebuild scalar Cholesky — retained as the property-test
    /// baseline.
    pub fn cholesky_naive(&self) -> Result<Cholesky, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.data[i * n + j];
                sum -= vector::dot(&l[i * n..i * n + j], &l[j * n..j * n + j]);
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { row: i, pivot: sum });
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }
}

/// Blocked forward substitution `L Y = B` on a row-major multi-RHS buffer
/// (`b` is `n × r`). `l` holds the lower-triangular factor row-major.
fn forward_solve_mat(l: &[f64], n: usize, b: &mut [f64], r: usize, threads: usize) {
    let mut block = Vec::new();
    for k0 in (0..n).step_by(NB) {
        let k1 = (k0 + NB).min(n);
        // Diagonal block: row-wise substitution with contiguous axpys.
        for i in k0..k1 {
            let (head, tail) = b.split_at_mut(i * r);
            let bi = &mut tail[..r];
            for t in k0..i {
                let c = l[i * n + t];
                if c != 0.0 {
                    for (x, &y) in bi.iter_mut().zip(&head[t * r..t * r + r]) {
                        *x -= c * y;
                    }
                }
            }
            let inv = 1.0 / l[i * n + i];
            for x in bi.iter_mut() {
                *x *= inv;
            }
        }
        if k1 == n {
            break;
        }
        // Trailing update: B[k1.., :] −= L[k1.., k0..k1] · Y[k0..k1, :].
        // The solved block is copied out so the kernel's B operand does not
        // alias its output rows.
        block.clear();
        block.extend_from_slice(&b[k0 * r..k1 * r]);
        kernel::gemm_acc(
            b,
            k1 * r,
            r,
            View::new(l, k1 * n + k0, n),
            View::new(&block, 0, r),
            n - k1,
            r,
            k1 - k0,
            -1.0,
            threads,
        );
    }
}

/// Blocked forward solve `L T = I` specialized to the identity RHS:
/// `T = L^{-1}` is itself lower triangular, so every block step only
/// touches columns `0..k1` — half the flops of the general multi-RHS
/// solve. `b` must hold the identity on entry.
fn forward_solve_identity(l: &[f64], n: usize, b: &mut [f64], threads: usize) {
    let mut block = Vec::new();
    for k0 in (0..n).step_by(NB) {
        let k1 = (k0 + NB).min(n);
        // Diagonal block rows, restricted to the live columns 0..k1.
        for i in k0..k1 {
            let (head, tail) = b.split_at_mut(i * n);
            let bi = &mut tail[..k1];
            for t in k0..i {
                let c = l[i * n + t];
                if c != 0.0 {
                    for (x, &y) in bi.iter_mut().zip(&head[t * n..t * n + k1]) {
                        *x -= c * y;
                    }
                }
            }
            let inv = 1.0 / l[i * n + i];
            for x in bi.iter_mut() {
                *x *= inv;
            }
        }
        if k1 == n {
            break;
        }
        // Trailing update on columns 0..k1 only: rows ≥ k1 of T are zero
        // there until their own block solves them.
        let nb = k1 - k0;
        block.clear();
        block.reserve(nb * k1);
        for i in k0..k1 {
            block.extend_from_slice(&b[i * n..i * n + k1]);
        }
        kernel::gemm_acc(
            b,
            k1 * n,
            n,
            View::new(l, k1 * n + k0, n),
            View::new(&block, 0, k1),
            n - k1,
            k1,
            nb,
            -1.0,
            threads,
        );
    }
}

/// Blocked backward substitution `Lᵀ X = Y` on a row-major multi-RHS
/// buffer (`b` is `n × r`), `l` as in [`forward_solve_mat`].
fn backward_solve_lt_mat(l: &[f64], n: usize, b: &mut [f64], r: usize, threads: usize) {
    let mut block = Vec::new();
    let nblocks = n.div_ceil(NB);
    for bi in (0..nblocks).rev() {
        let k0 = bi * NB;
        let k1 = (k0 + NB).min(n);
        // Diagonal block, bottom-up.
        for i in (k0..k1).rev() {
            let (head, tail) = b.split_at_mut((i + 1) * r);
            let bi_row = &mut head[i * r..];
            for t in (i + 1)..k1 {
                let c = l[t * n + i];
                if c != 0.0 {
                    let yt = &tail[(t - i - 1) * r..(t - i) * r];
                    for (x, &y) in bi_row.iter_mut().zip(yt) {
                        *x -= c * y;
                    }
                }
            }
            let inv = 1.0 / l[i * n + i];
            for x in bi_row.iter_mut() {
                *x *= inv;
            }
        }
        if k0 == 0 {
            break;
        }
        // Propagate up: B[..k0, :] −= L[k0..k1, ..k0]ᵀ · X[k0..k1, :].
        block.clear();
        block.extend_from_slice(&b[k0 * r..k1 * r]);
        kernel::gemm_acc(
            b,
            0,
            r,
            View::new(l, k0 * n, n).t(),
            View::new(&block, 0, r),
            k0,
            r,
            k1 - k0,
            -1.0,
            threads,
        );
    }
}

/// Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Lower-triangular factor, row-major, upper part zero.
    l: Vec<f64>,
}

impl Cholesky {
    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry of the factor.
    pub fn factor_get(&self, i: usize, j: usize) -> f64 {
        self.l[i * self.n + j]
    }

    /// Solve `A x = b` in place (`b` becomes `x`).
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let l = &self.l;
        // forward: L y = b
        for i in 0..n {
            let s = vector::dot(&l[i * n..i * n + i], &b[..i]);
            b[i] = (b[i] - s) / l[i * n + i];
        }
        // backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
    }

    /// Alias of [`Cholesky::solve_in_place`] matching the `solve_mat` /
    /// `solve_vec` naming of the factor-once/solve-many surface.
    pub fn solve_vec(&self, b: &mut [f64]) {
        self.solve_in_place(b);
    }

    /// Solve returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Multi-RHS solve `A X = B` in place (`b` becomes `X`), via blocked
    /// forward + backward triangular substitution — factor once, solve
    /// many, never forming `A⁻¹`.
    pub fn solve_mat_in_place(&self, b: &mut DenseMatrix, threads: usize) {
        assert_eq!(b.rows, self.n, "RHS row count must match the factor");
        forward_solve_mat(&self.l, self.n, &mut b.data, b.cols, threads);
        backward_solve_lt_mat(&self.l, self.n, &mut b.data, b.cols, threads);
    }

    /// Multi-RHS solve returning a fresh matrix.
    pub fn solve_mat(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut x = b.clone();
        self.solve_mat_in_place(&mut x, 1);
        x
    }

    /// `Tr(A^{-1}) = ‖L^{-1}‖_F²` via triangular inversion only — roughly
    /// 3× cheaper than forming the full inverse. This is the kernel behind
    /// exact CFCC evaluation (`C(S) = n / Tr(L_{-S}^{-1})`).
    pub fn trace_inverse(&self) -> f64 {
        self.diag_inverse().iter().sum()
    }

    /// `diag(A^{-1})` without forming `A^{-1}`: with `T = L^{-1}`,
    /// `(A^{-1})_{jj} = ‖T e_j‖²` — one discarded triangular column per
    /// index. Backs every "diagonal-only" consumer (first greedy pick,
    /// single-node CFCC, absorption costs).
    pub fn diag_inverse(&self) -> Vec<f64> {
        let n = self.n;
        let mut diag = vec![0.0f64; n];
        // Column j of T = L^{-1}, discarded after accumulation.
        let mut col = vec![0.0f64; n];
        for j in 0..n {
            col[j] = 1.0 / self.l[j * n + j];
            diag[j] += col[j] * col[j];
            for i in (j + 1)..n {
                let s = vector::dot(&self.l[i * n + j..i * n + i], &col[j..i]);
                col[i] = -s / self.l[i * n + i];
                diag[j] += col[i] * col[i];
            }
        }
        diag
    }

    /// Full inverse `A^{-1} = L^{-ᵀ} L^{-1}` from the blocked kernels:
    /// `T = L^{-1}` by a blocked forward solve of the identity, then
    /// `TᵀT` by SYRK. Reach for this **only** when inverse entries are
    /// consumed directly (rank-one maintenance, Σ̃⁻¹ quadratic forms) —
    /// otherwise use [`Cholesky::solve_mat`].
    pub fn inverse(&self) -> DenseMatrix {
        self.inverse_threaded(1)
    }

    /// [`Cholesky::inverse`] with `threads` pool-backed row panels.
    pub fn inverse_threaded(&self, threads: usize) -> DenseMatrix {
        let n = self.n;
        let mut t = DenseMatrix::identity(n);
        forward_solve_identity(&self.l, n, &mut t.data, threads);
        let mut inv = DenseMatrix::zeros(n, n);
        // T = L⁻¹ is lower triangular, so the TᵀT SYRK runs through the
        // depth-clipped kernel: panels entirely inside T's known-zero
        // upper region are skipped (~half the SYRK flops on the
        // maintained-inverse setup), with bit-identical results.
        kernel::syrk_lower_tri_acc(
            &mut inv.data,
            0,
            n,
            View::new(&t.data, 0, n).t(),
            n,
            n,
            1.0,
            threads,
        );
        kernel::mirror_lower(&mut inv.data, 0, n, n);
        inv
    }

    /// Pre-rebuild scalar inverse — retained as the property-test
    /// baseline.
    pub fn inverse_naive(&self) -> DenseMatrix {
        let n = self.n;
        // T = L^{-1} (lower triangular), column by column.
        let mut t = vec![0.0f64; n * n];
        for j in 0..n {
            t[j * n + j] = 1.0 / self.l[j * n + j];
            for i in (j + 1)..n {
                let mut s = 0.0;
                for k in j..i {
                    s += self.l[i * n + k] * t[k * n + j];
                }
                t[i * n + j] = -s / self.l[i * n + i];
            }
        }
        // inv = Tᵀ T, exploiting that T is lower triangular:
        // inv_{ij} = Σ_{k ≥ max(i,j)} T_{ki} T_{kj}
        let mut inv = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut s = 0.0;
                for k in j..n {
                    s += t[k * n + i] * t[k * n + j];
                }
                inv.set(i, j, s);
                inv.set(j, i, s);
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.5], &[0.5, -0.5, 2.0]])
    }

    #[test]
    fn matvec_and_matmul() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![0.0; 2];
        a.matvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn transpose_and_gram() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        let g = a.gram();
        let expect = t.matmul(&t.transpose());
        assert!(g.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let n = 3;
        let mut rec = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += ch.factor_get(i, k) * ch.factor_get(j, k);
                }
                rec.set(i, j, s);
            }
        }
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn cholesky_solve_and_inverse() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
        let inv = ch.inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)) < 1e-10);
    }

    #[test]
    fn solve_mat_matches_per_column_solves() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[3.0, 0.25]]);
        let x = ch.solve_mat(&b);
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| b.get(i, j)).collect();
            let want = ch.solve(&col);
            for (i, &w) in want.iter().enumerate() {
                assert!((x.get(i, j) - w).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            a.cholesky_naive(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn symmetrize_and_ridge() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 3.0);
        a.add_ridge(0.5);
        assert_eq!(a.get(0, 0), 1.5);
    }

    #[test]
    fn trace_and_diag_inverse_match_full_inverse() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let inv = ch.inverse();
        assert!((ch.trace_inverse() - inv.trace()).abs() < 1e-12);
        for (i, d) in ch.diag_inverse().iter().enumerate() {
            assert!((d - inv.get(i, i)).abs() < 1e-12);
        }
    }
}
