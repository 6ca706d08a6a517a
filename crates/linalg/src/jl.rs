//! Johnson–Lindenstrauss Rademacher sketches (paper Lemma 3.4).
//!
//! A sketch is a `w × d` matrix with i.i.d. entries `±1/√w`. Both the
//! forest-based estimators and the ApproxGreedy baseline use it to compress
//! the columns of `L_{-S}^{-1}` before taking squared norms.
//!
//! Storage is *node-major* (`d` rows of `w` sketch coordinates): the forest
//! estimators walk nodes in forest order and need all `w` coordinates of a
//! node at once, so this layout keeps the inner loop contiguous. Every
//! entry is `±1/√w`, so the sketch keeps one `i8` sign per entry and the
//! common scale once: consumers sum signs in integer lanes and scale at
//! the end, which is exact.

use rand::Rng;

/// Practical sketch width: `max(floor, ceil(alpha · log2 d))`, capped.
///
/// The theoretical bound `w ≥ 24 (ε/7)^{-2} ln d` exceeds 10⁴ for any
/// realistic ε and is never used by practical implementations; the paper's
/// running times are only achievable with `O(log n)` widths.
pub fn practical_width(d: usize, epsilon: f64) -> usize {
    let alpha = (2.0 / epsilon).max(2.0); // width grows as ε shrinks
    let w = (alpha * (d.max(2) as f64).log2()).ceil() as usize;
    w.clamp(8, 64)
}

/// A `w × d` Rademacher JL sketch, stored node-major as signs.
#[derive(Debug, Clone)]
pub struct JlSketch {
    w: usize,
    d: usize,
    /// `1/√w`: entry `(j, u)` of the sketch is `signs[u*w + j] · scale`.
    scale: f64,
    /// `signs[u*w..(u+1)*w]` = signs (`±1`) of the column for coordinate `u`.
    signs: Vec<i8>,
}

impl JlSketch {
    /// Sample a sketch with the given width `w` over `d` coordinates: one
    /// `gen::<bool>()` per entry, coordinate-major.
    pub fn sample<R: Rng>(w: usize, d: usize, rng: &mut R) -> Self {
        assert!(w > 0);
        let signs = (0..w * d)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect();
        Self {
            w,
            d,
            scale: 1.0 / (w as f64).sqrt(),
            signs,
        }
    }

    /// Sketch width `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Number of coordinates `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The common entry magnitude `1/√w`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The `w` signs of coordinate `u`'s column (a column of the `w × d`
    /// matrix, contiguous in this layout); the values are `signs · scale`.
    #[inline]
    pub fn signs(&self, u: usize) -> &[i8] {
        &self.signs[u * self.w..(u + 1) * self.w]
    }

    /// The columns `keep`, in that order: a `w × keep.len()` sketch with
    /// the same signs and scale. A column subset of a Rademacher sketch is
    /// a Rademacher sketch of the kept coordinates.
    pub fn columns(&self, keep: &[usize]) -> Self {
        Self {
            w: self.w,
            d: keep.len(),
            scale: self.scale,
            signs: keep.iter().flat_map(|&u| self.signs(u)).copied().collect(),
        }
    }

    /// Row `j` of the sketch as a dense vector (strided gather).
    pub fn row(&self, j: usize) -> Vec<f64> {
        assert!(j < self.w);
        (0..self.d)
            .map(|u| f64::from(self.signs[u * self.w + j]) * self.scale)
            .collect()
    }

    /// Apply to a vector: `y = Q x` with `y ∈ R^w`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.d);
        assert_eq!(y.len(), self.w);
        y.fill(0.0);
        for (u, &xu) in x.iter().enumerate() {
            if xu == 0.0 {
                continue;
            }
            let v = xu * self.scale;
            for (yj, &s) in y.iter_mut().zip(self.signs(u)) {
                *yj += f64::from(s) * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn widths_are_sane() {
        assert!(practical_width(1000, 0.2) >= 8);
        assert!(practical_width(1000, 0.2) <= 64);
        assert!(practical_width(1000, 0.1) >= practical_width(1000, 0.3));
    }

    #[test]
    fn entries_are_pm_inv_sqrt_w() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = JlSketch::sample(16, 10, &mut rng);
        assert_eq!(q.scale(), 1.0 / 4.0);
        for u in 0..10 {
            assert!(q.signs(u).iter().all(|&s| s == 1 || s == -1));
        }
        // Both signs occur: the entries are not a constant column.
        assert!((0..10).any(|u| q.signs(u).contains(&1)));
        assert!((0..10).any(|u| q.signs(u).contains(&-1)));
    }

    #[test]
    fn sign_stream_is_one_bool_per_entry_coordinate_major() {
        // Entry (j, u) is the (u·w + j)-th `gen::<bool>()` of the stream.
        let q = JlSketch::sample(8, 5, &mut StdRng::seed_from_u64(4));
        let mut rng = StdRng::seed_from_u64(4);
        for u in 0..5 {
            for &s in q.signs(u) {
                assert_eq!(s == 1, rng.gen::<bool>());
            }
        }
    }

    #[test]
    fn column_subset_keeps_signs_and_scale() {
        let q = JlSketch::sample(8, 6, &mut StdRng::seed_from_u64(5));
        let sub = q.columns(&[4, 0, 5]);
        assert_eq!((sub.width(), sub.dim()), (8, 3));
        assert_eq!(sub.scale(), q.scale());
        for (i, &u) in [4, 0, 5].iter().enumerate() {
            assert_eq!(sub.signs(i), q.signs(u), "column {u}");
        }
        assert_eq!(q.columns(&[]).dim(), 0);
    }

    #[test]
    fn row_column_consistent_with_apply() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = JlSketch::sample(8, 20, &mut rng);
        let x: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 8];
        q.apply(&x, &mut y);
        for (j, &yj) in y.iter().enumerate() {
            let row = q.row(j);
            let naive: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((yj - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_preservation_statistical() {
        // E‖Qx‖² = ‖x‖²; with w = 64 the relative error over a few vectors
        // should be modest. Fixed seed keeps this deterministic.
        let mut rng = StdRng::seed_from_u64(3);
        let q = JlSketch::sample(64, 500, &mut rng);
        let mut worst: f64 = 0.0;
        for t in 0..5 {
            let x: Vec<f64> = (0..500).map(|i| ((i * (t + 1)) as f64).cos()).collect();
            let norm_x: f64 = x.iter().map(|v| v * v).sum();
            let mut y = vec![0.0; 64];
            q.apply(&x, &mut y);
            let norm_y: f64 = y.iter().map(|v| v * v).sum();
            worst = worst.max(((norm_y - norm_x) / norm_x).abs());
        }
        assert!(worst < 0.5, "JL distortion too large: {worst}");
    }
}
