//! Blocked dense kernels: packed tiled GEMM, SYRK-style symmetric updates,
//! and the pool-backed row-panel parallelism behind them.
//!
//! # DESIGN
//!
//! The workspace has no BLAS binding, so this module implements the
//! BLIS-style three-loop blocking scheme (the same structure faer-rs uses)
//! in portable safe Rust and relies on LLVM's autovectorizer for the inner
//! micro-kernel:
//!
//! * **Micro-tile** `MR × NR = 4 × 8`: the accumulator is a `[[f64; 8]; 4]`
//!   register block — 8 ymm registers on AVX2, updated with 32 FMAs per
//!   depth step from one packed A column (4 contiguous values, one
//!   broadcast each) and one packed B row (8 contiguous values, two vector
//!   loads).
//! * **Cache blocking** `MC × KC × NC = 128 × 256 × 512`: a `KC`-deep B
//!   panel (`KC·NR` doubles per micro-column, streamed from L2) is reused
//!   against `MC`-row A panels packed to fit L1-friendly `KC·MR` strips.
//! * **Packing layout**: A panels are stored micro-row-major
//!   (`ap[p·MR + r]` for depth `p`, row `r`), B panels micro-column-major
//!   (`bp[p·NR + c]`), both zero-padded to full tiles so the micro-kernel
//!   has no edge branches. There is deliberately **no** `a == 0.0` skip —
//!   the seed's zero-branch defeated vectorization and branch prediction on
//!   dense data.
//! * **Parallelism**: the persistent worker pool ([`crate::pool`]) splits
//!   the *output rows* into contiguous panels (rows are the contiguous
//!   unit of our row-major storage — the transpose view of a column-panel
//!   split). Each task runs the identical serial pipeline on its panel, so
//!   results are **bit-identical for every thread count**: each output
//!   element is produced by exactly one task using the same accumulation
//!   order, and the partition depends only on the `threads` argument,
//!   never on scheduling. Workers are spawned once and parked between
//!   calls — there is **no per-call thread spawn** anywhere in the GEMM /
//!   SYRK hot path.
//! * **Small-case bypass**: problems under `SMALL_FLOPS` flops skip the
//!   packing machinery entirely — tests and `|T| × |T|` Schur blocks stay
//!   allocation-free.
//!
//! Callers should prefer *factorize once, solve many* ([`crate::dense`]'s
//! `solve_mat`) over forming explicit inverses; see the module notes in
//! [`crate::dense`] for when an inverse is genuinely required.

use crate::pool::{self, SendPtr};

/// Micro-tile rows (register-block height).
pub const MR: usize = 4;
/// Micro-tile columns (register-block width).
pub const NR: usize = 8;
/// Rows of a packed A block (L2 blocking).
pub const MC: usize = 128;
/// Depth of packed panels (L1/L2 blocking).
pub const KC: usize = 256;
/// Columns of a packed B panel (L3 blocking).
pub const NC: usize = 512;
/// Panel width of the blocked Cholesky / triangular solves.
pub const NB: usize = 64;

/// Flop threshold (`2·m·n·k`) below which the packed pipeline is skipped
/// in favor of a branch-free direct triple loop.
const SMALL_FLOPS: usize = 64 * 1024;

/// `MR × NR` register-tile update: `acc += Ap · Bp` over `kc` depth steps.
///
/// The accumulator is copied to a local before the loop and the packed
/// strips are read through fixed-size array references — both are load
/// bearing: they let LLVM keep the whole tile in vector registers and
/// fully unroll the `MR × NR` body regardless of the inlining context
/// (slice-indexed variants of this loop de-vectorize when inlined into
/// larger drivers, costing ~4×).
#[inline(always)]
fn micro_kernel(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    let mut local = *acc;
    let (a_tiles, _) = ap.as_chunks::<MR>();
    let (b_tiles, _) = bp.as_chunks::<NR>();
    for (a, b) in a_tiles.iter().zip(b_tiles).take(kc) {
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                local[r][c] += ar * b[c];
            }
        }
    }
    *acc = local;
}

/// Pack an `mc × kc` panel of `A` (element `(i, p)` at
/// `a[off + i·stride + p]`, or `a[off + p·stride + i]` when `trans`) into
/// micro-row-major strips, zero-padding the row remainder.
fn pack_a(
    a: &[f64],
    off: usize,
    stride: usize,
    trans: bool,
    mc: usize,
    kc: usize,
    ap: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(MR);
    ap.clear();
    ap.resize(panels * kc * MR, 0.0);
    for ib in 0..panels {
        let r0 = ib * MR;
        let rows = MR.min(mc - r0);
        let dst = &mut ap[ib * kc * MR..(ib + 1) * kc * MR];
        if trans {
            for p in 0..kc {
                let src = &a[off + p * stride + r0..off + p * stride + r0 + rows];
                dst[p * MR..p * MR + rows].copy_from_slice(src);
            }
        } else {
            for (r, row) in (0..rows).map(|r| (r, off + (r0 + r) * stride)) {
                for p in 0..kc {
                    dst[p * MR + r] = a[row + p];
                }
            }
        }
    }
}

/// Pack a `kc × nc` panel of `B` (element `(p, j)` at
/// `b[off + p·stride + j]`, or `b[off + j·stride + p]` when `trans`) into
/// micro-column-major strips, zero-padding the column remainder.
fn pack_b(
    b: &[f64],
    off: usize,
    stride: usize,
    trans: bool,
    kc: usize,
    nc: usize,
    bp: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(NR);
    bp.clear();
    bp.resize(panels * kc * NR, 0.0);
    for jb in 0..panels {
        let c0 = jb * NR;
        let cols = NR.min(nc - c0);
        let dst = &mut bp[jb * kc * NR..(jb + 1) * kc * NR];
        if trans {
            for (c, col) in (0..cols).map(|c| (c, off + (c0 + c) * stride)) {
                for p in 0..kc {
                    dst[p * NR + c] = b[col + p];
                }
            }
        } else {
            for p in 0..kc {
                let src = &b[off + p * stride + c0..off + p * stride + c0 + cols];
                dst[p * NR..p * NR + cols].copy_from_slice(src);
            }
        }
    }
}

/// Strided read-only matrix view (row-major; `trans` swaps the roles of
/// the two indices, giving a free transpose).
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f64],
    off: usize,
    stride: usize,
    trans: bool,
}

impl<'a> View<'a> {
    /// View of `data` starting at flat offset `off` with row stride
    /// `stride`.
    pub fn new(data: &'a [f64], off: usize, stride: usize) -> Self {
        Self {
            data,
            off,
            stride,
            trans: false,
        }
    }

    /// The transposed view (no copy).
    pub fn t(self) -> Self {
        Self {
            trans: !self.trans,
            ..self
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if self.trans { (j, i) } else { (i, j) };
        self.data[self.off + i * self.stride + j]
    }

    /// Shift the view's origin by `(di, dj)` in *logical* (post-transpose)
    /// coordinates.
    fn shifted(self, di: usize, dj: usize) -> Self {
        let (di, dj) = if self.trans { (dj, di) } else { (di, dj) };
        Self {
            off: self.off + di * self.stride + dj,
            ..self
        }
    }
}

/// Serial packed GEMM on one output panel:
/// `C[..m, ..n] += alpha · A[m×k] · B[k×n]`, `C` strided at
/// `c[c_off + i·c_stride + j]`.
#[allow(clippy::too_many_arguments)]
fn gemm_chunk(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    b: View<'_>,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
) {
    if 2 * m * n * k <= SMALL_FLOPS {
        // Direct branch-free ikj loop; no packing, no allocation.
        for i in 0..m {
            let crow = &mut c[c_off + i * c_stride..c_off + i * c_stride + n];
            for p in 0..k {
                let aip = alpha * a.at(i, p);
                if b.trans {
                    for (j, cij) in crow.iter_mut().enumerate() {
                        *cij += aip * b.at(p, j);
                    }
                } else {
                    let brow = &b.data[b.off + p * b.stride..b.off + p * b.stride + n];
                    for (cij, &bpj) in crow.iter_mut().zip(brow) {
                        *cij += aip * bpj;
                    }
                }
            }
        }
        return;
    }
    let mut ap = Vec::new();
    let mut bp = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let bv = b.shifted(pc, jc);
            pack_b(bv.data, bv.off, bv.stride, bv.trans, kc, nc, &mut bp);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let av = a.shifted(ic, pc);
                // `pack_a`'s `trans` means "stored (p, i)", i.e. a
                // transposed logical view.
                pack_a(av.data, av.off, av.stride, av.trans, mc, kc, &mut ap);
                for jb in 0..nc.div_ceil(NR) {
                    let bpan = &bp[jb * kc * NR..(jb + 1) * kc * NR];
                    let j0 = jc + jb * NR;
                    let cols = NR.min(nc - jb * NR);
                    for ib in 0..mc.div_ceil(MR) {
                        let apan = &ap[ib * kc * MR..(ib + 1) * kc * MR];
                        let mut acc = [[0.0f64; NR]; MR];
                        micro_kernel(kc, apan, bpan, &mut acc);
                        let i0 = ic + ib * MR;
                        let rows = MR.min(mc - ib * MR);
                        for (r, accr) in acc.iter().take(rows).enumerate() {
                            let crow = &mut c[c_off + (i0 + r) * c_stride + j0..][..cols];
                            for (cij, &v) in crow.iter_mut().zip(accr.iter()) {
                                *cij += alpha * v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `C[..m, ..n] += alpha · A · B` with `threads` row panels.
///
/// Results are bit-identical for every `threads` value — the row split
/// never divides the accumulation (depth) loop.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    b: View<'_>,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    threads: usize,
) {
    let t = threads
        .max(1)
        .min(m)
        .min(1 + 2 * m * n * k / (4 * SMALL_FLOPS));
    if t <= 1 {
        gemm_chunk(c, c_off, c_stride, a, b, m, n, k, alpha);
        return;
    }
    // Split output rows at row starts: task i owns rows r_i..r_{i+1} (the
    // last task also owns the buffer tail past its final row, matching the
    // historical scoped-thread split). Panels never alias, and the bounds
    // depend only on (m, t), so results are bit-identical for every thread
    // count and pool size.
    let len = c.len();
    let base = SendPtr::new(c);
    pool::run(t, t, &move |tix| {
        let r0 = m * tix / t;
        let r1 = m * (tix + 1) / t;
        if r0 == r1 {
            return;
        }
        let start = c_off + r0 * c_stride;
        let end = if r1 == m { len } else { c_off + r1 * c_stride };
        // SAFETY: tasks receive disjoint row panels [r0, r1) of the output
        // (ranges [start, end) are non-overlapping and within `c`), and
        // `pool::run` blocks until every task completes.
        let panel = unsafe { base.slice(start, end - start) };
        gemm_chunk(
            panel,
            0,
            c_stride,
            a.shifted(r0, 0),
            b,
            r1 - r0,
            n,
            k,
            alpha,
        );
    });
}

/// Symmetric rank-k update on the **lower** triangle:
/// `C[..m, ..m].lower += alpha · A[m×k] · Aᵀ` (`C` strided; the strict
/// upper triangle is left untouched).
///
/// This is the trailing update of the blocked Cholesky and the engine
/// behind [`crate::dense::DenseMatrix::gram`]. Row panels are area-balanced
/// across `threads`; determinism is unaffected by the split.
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower_acc(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    m: usize,
    k: usize,
    alpha: f64,
    threads: usize,
) {
    syrk_lower_acc_impl(c, c_off, c_stride, a, m, k, alpha, threads, false);
}

/// [`syrk_lower_acc`] specialized to a **lower-triangular** `A`
/// (`A[i, p] = 0` for `p < i`): depth panels that fall entirely into the
/// known-zero region of a row block are skipped instead of multiplied.
/// With `A = L^{-ᵀ}` this is the `L^{-ᵀ}L^{-¹}` product of
/// [`crate::dense::Cholesky::inverse`], where the clip removes about half
/// the SYRK flops. Skipped products are exact zeros, so the result is
/// bit-identical to the unclipped kernel.
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower_tri_acc(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    m: usize,
    k: usize,
    alpha: f64,
    threads: usize,
) {
    syrk_lower_acc_impl(c, c_off, c_stride, a, m, k, alpha, threads, true);
}

#[allow(clippy::too_many_arguments)]
fn syrk_lower_acc_impl(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    m: usize,
    k: usize,
    alpha: f64,
    threads: usize,
    tri: bool,
) {
    let t = threads.max(1).min(m).min(1 + m * m * k / (4 * SMALL_FLOPS));
    if t <= 1 {
        syrk_chunk(c, c_off, c_stride, a, 0, m, k, alpha, tri);
        return;
    }
    // Area-balanced split: chunk boundaries at m·√(i/t) so each row panel
    // of the triangle carries a comparable flop count. The bounds depend
    // only on (m, t) — bit-identical results per thread count.
    let mut bounds: Vec<usize> = (0..=t)
        .map(|i| ((m as f64) * (i as f64 / t as f64).sqrt()).round() as usize)
        .collect();
    bounds[t] = m;
    let len = c.len();
    let base = SendPtr::new(c);
    let bounds = &bounds;
    pool::run(t, t, &move |tix| {
        let (r0, r1) = (bounds[tix], bounds[tix + 1]);
        if r0 == r1 {
            return;
        }
        let start = c_off + r0 * c_stride;
        let end = if r1 == m { len } else { c_off + r1 * c_stride };
        // SAFETY: tasks receive disjoint row panels [r0, r1) of the output
        // triangle; `pool::run` blocks until every task completes.
        let panel = unsafe { base.slice(start, end - start) };
        syrk_chunk(panel, 0, c_stride, a, r0, r1 - r0, k, alpha, tri);
    });
}

/// Serial SYRK on output rows `row0..row0 + m` of the full update (the
/// view `c` starts at logical row `row0`, column 0). With `tri`, `A` is
/// known lower triangular (`A[gi, p] = 0` for `p < gi`): depth ranges that
/// only hit the zero region are clipped away — exact zeros, so clipping
/// never changes the result.
#[allow(clippy::too_many_arguments)]
fn syrk_chunk(
    c: &mut [f64],
    c_off: usize,
    c_stride: usize,
    a: View<'_>,
    row0: usize,
    m: usize,
    k: usize,
    alpha: f64,
    tri: bool,
) {
    if 2 * m * (row0 + m) * k <= SMALL_FLOPS {
        for i in 0..m {
            let gi = row0 + i;
            let p0 = if tri { gi.min(k) } else { 0 };
            for j in 0..=gi {
                let mut s = 0.0;
                for p in p0..k {
                    s += a.at(gi, p) * a.at(j, p);
                }
                c[c_off + i * c_stride + j] += alpha * s;
            }
        }
        return;
    }
    let mut ap = Vec::new();
    let mut bp = Vec::new();
    let n = row0 + m; // columns 0..=row of each output row
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // B = Aᵀ restricted to columns jc..jc+nc.
            let bv = a.t().shifted(pc, jc);
            pack_b(bv.data, bv.off, bv.stride, bv.trans, kc, nc, &mut bp);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                // Skip A panels entirely above the diagonal.
                if jc > row0 + ic + mc - 1 {
                    continue;
                }
                // Triangular clip: every A entry of this row block at
                // depths < row0 + ic is a known zero, so a depth panel
                // ending at or before the block's first row contributes
                // nothing.
                if tri && pc + kc <= row0 + ic {
                    continue;
                }
                let av = a.shifted(row0 + ic, pc);
                pack_a(av.data, av.off, av.stride, av.trans, mc, kc, &mut ap);
                for jb in 0..nc.div_ceil(NR) {
                    let bpan = &bp[jb * kc * NR..(jb + 1) * kc * NR];
                    let j0 = jc + jb * NR;
                    let cols = NR.min(nc - jb * NR);
                    for ib in 0..mc.div_ceil(MR) {
                        let i0 = ic + ib * MR;
                        let gi_last = row0 + i0 + MR.min(mc - ib * MR) - 1;
                        if j0 > gi_last {
                            continue; // tile strictly above the diagonal
                        }
                        if tri && pc + kc <= row0 + i0 {
                            continue; // tile fully inside A's zero region
                        }
                        let apan = &ap[ib * kc * MR..(ib + 1) * kc * MR];
                        let mut acc = [[0.0f64; NR]; MR];
                        micro_kernel(kc, apan, bpan, &mut acc);
                        let rows = MR.min(mc - ib * MR);
                        for (r, accr) in acc.iter().take(rows).enumerate() {
                            let gi = row0 + i0 + r;
                            if j0 > gi {
                                continue;
                            }
                            let wcols = cols.min(gi - j0 + 1);
                            let crow = &mut c[c_off + (i0 + r) * c_stride + j0..][..wcols];
                            for (cij, &v) in crow.iter_mut().zip(accr.iter()) {
                                *cij += alpha * v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Copy the lower triangle onto the upper one: `C[i, j] = C[j, i]` for
/// `j > i` (square strided view) — finishes a SYRK into a full symmetric
/// matrix.
pub fn mirror_lower(c: &mut [f64], c_off: usize, c_stride: usize, n: usize) {
    for i in 0..n {
        for j in (i + 1)..n {
            c[c_off + i * c_stride + j] = c[c_off + j * c_stride + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 29) as f64 - 13.0) * scale)
            .collect()
    }

    fn gemm_ref(a: &[f64], b: &[f64], m: usize, n: usize, k: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_reference_across_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 16),
            (5, 9, 7),
            (17, 33, 65),
            (130, 70, 129),
        ] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let want = gemm_ref(&a, &b, m, n, k);
            for threads in [1, 3] {
                let mut c = vec![1.0; m * n];
                gemm_acc(
                    &mut c,
                    0,
                    n,
                    View::new(&a, 0, k),
                    View::new(&b, 0, n),
                    m,
                    n,
                    k,
                    1.0,
                    threads,
                );
                for (got, w) in c.iter().zip(&want) {
                    assert!((got - (w + 1.0)).abs() < 1e-9, "m={m} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn transposed_views_match() {
        let (m, n, k) = (13, 21, 17);
        let at = seq(k * m, 0.1); // stored k×m, logical A = atᵀ
        let b = seq(k * n, 0.3);
        let mut c = vec![0.0; m * n];
        gemm_acc(
            &mut c,
            0,
            n,
            View::new(&at, 0, m).t(),
            View::new(&b, 0, n),
            m,
            n,
            k,
            2.0,
            1,
        );
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += at[p * m + i] * b[p * n + j];
                }
                assert!((c[i * n + j] - 2.0 * s).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn syrk_touches_only_lower_triangle() {
        let (m, k) = (37, 19);
        let a = seq(m * k, 0.2);
        let mut c = vec![7.0; m * m];
        syrk_lower_acc(&mut c, 0, m, View::new(&a, 0, k), m, k, 1.0, 2);
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * a[j * k + p];
                }
                if j <= i {
                    assert!((c[i * m + j] - (7.0 + s)).abs() < 1e-9);
                } else {
                    assert_eq!(c[i * m + j], 7.0, "upper triangle must be untouched");
                }
            }
        }
        mirror_lower(&mut c, 0, m, m);
        for i in 0..m {
            for j in i + 1..m {
                assert_eq!(c[i * m + j], c[j * m + i]);
            }
        }
    }

    #[test]
    fn triangular_syrk_matches_full_syrk_on_lower_triangular_input() {
        // A lower triangular (zeros above the diagonal): the depth-clipped
        // kernel must agree with the unclipped one on every shape, through
        // both the direct and the packed path, at every thread count.
        for &n in &[5, 37, 130, 300] {
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..=i {
                    a[i * n + j] = ((i * 31 + j * 17) % 23) as f64 * 0.1 - 1.0;
                }
            }
            // Logical operand is Aᵀ·? No: C += Tᵀ T with T = a lower
            // triangular, i.e. the SYRK operand is A = Tᵀ viewed with
            // A[i, p] = T[p, i] = 0 for p < i.
            let mut full = vec![0.5; n * n];
            syrk_lower_acc(&mut full, 0, n, View::new(&a, 0, n).t(), n, n, 1.0, 1);
            for threads in [1, 3] {
                let mut clipped = vec![0.5; n * n];
                syrk_lower_tri_acc(
                    &mut clipped,
                    0,
                    n,
                    View::new(&a, 0, n).t(),
                    n,
                    n,
                    1.0,
                    threads,
                );
                for (i, (&got, &want)) in clipped.iter().zip(&full).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-9,
                        "n={n} threads={threads} flat={i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The pool-backed kernels must agree bit for bit with a
    /// scoped-thread baseline using the identical row partition — the
    /// contract the pool migration must preserve.
    #[test]
    fn pool_gemm_matches_scoped_thread_baseline() {
        let (m, n, k) = (150, 90, 120);
        let a = seq(m * k, 0.21);
        let b = seq(k * n, 0.13);
        for t in [2, 4] {
            // Baseline: std::thread::scope with the same row split.
            let mut scoped = vec![0.0f64; m * n];
            std::thread::scope(|scope| {
                let mut rest = scoped.as_mut_slice();
                let mut done = 0usize;
                for tix in 0..t {
                    let r0 = m * tix / t;
                    let r1 = m * (tix + 1) / t;
                    if r0 == r1 {
                        continue;
                    }
                    let (head, tail) = rest.split_at_mut((r1 - done) * n);
                    rest = tail;
                    done = r1;
                    let av = View::new(&a, r0 * k, k);
                    let bv = View::new(&b, 0, n);
                    scope.spawn(move || {
                        gemm_chunk(head, 0, n, av, bv, r1 - r0, n, k, 1.0);
                    });
                }
            });
            let mut pooled = vec![0.0f64; m * n];
            gemm_acc(
                &mut pooled,
                0,
                n,
                View::new(&a, 0, k),
                View::new(&b, 0, n),
                m,
                n,
                k,
                1.0,
                t,
            );
            assert_eq!(pooled, scoped, "pool vs scoped threads={t}");
        }
    }

    #[test]
    fn threaded_results_are_bit_identical() {
        let (m, n, k) = (160, 96, 140);
        let a = seq(m * k, 0.17);
        let b = seq(k * n, 0.09);
        let mut base = vec![0.0; m * n];
        gemm_acc(
            &mut base,
            0,
            n,
            View::new(&a, 0, k),
            View::new(&b, 0, n),
            m,
            n,
            k,
            1.0,
            1,
        );
        for threads in [2, 4, 7] {
            let mut c = vec![0.0; m * n];
            gemm_acc(
                &mut c,
                0,
                n,
                View::new(&a, 0, k),
                View::new(&b, 0, n),
                m,
                n,
                k,
                1.0,
                threads,
            );
            assert_eq!(c, base, "threads={threads} must be bit-identical");
        }
        let mut s1 = vec![0.0; m * m];
        syrk_lower_acc(&mut s1, 0, m, View::new(&a, 0, k), m, k, -1.0, 1);
        for threads in [2, 5] {
            let mut st = vec![0.0; m * m];
            syrk_lower_acc(&mut st, 0, m, View::new(&a, 0, k), m, k, -1.0, threads);
            assert_eq!(st, s1, "syrk threads={threads} must be bit-identical");
        }
    }
}
