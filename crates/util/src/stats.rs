//! Online statistics: a Welford mean/variance accumulator.
//!
//! Used where real-valued samples stream in and must not be stored, such
//! as the Hutchinson trace estimator's per-probe quadratic forms. (The
//! forest estimators' samples are integers; they keep exact integer
//! moments instead.)

/// Numerically stable online mean/variance (Welford's algorithm).
#[derive(Debug, Default, Clone, Copy)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (0 when empty).
    #[inline]
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs = [1.0, 4.0, 9.0, 16.0, 25.0, -3.0, 0.5];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (m, v) = naive(&xs);
        assert!((w.mean() - m).abs() < 1e-12);
        assert!((w.variance() - v).abs() < 1e-12);
        assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(2.0);
        a.push(4.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Welford::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = Welford::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..10 {
            w.push(3.25);
        }
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.mean(), 3.25);
    }
}
