//! Empirical Bernstein confidence bound (paper Lemma 3.6).
//!
//! For i.i.d. samples `X_i ∈ [0, X_sup]` with empirical variance `X_var`
//! over `n` samples, with probability ≥ 1 − δ,
//!
//! ```text
//! |X̄ − E X̄| ≤ sqrt(2·X_var·ln(3/δ)/n) + 3·X_sup·ln(3/δ)/n
//! ```
//!
//! The adaptive sampling loop (`cfcc_core::adaptive`) compares this
//! half-width against the relative error target (Line 17 of Algorithm 2 /
//! Line 13 of Algorithm 3) and stops early when it is met. Its forest cap
//! is a practical budget (`CfcmParams::max_forests`); the paper's
//! Hoeffding-style worst-case bound `r` (Lemma 3.9) is not implemented.

/// Bernstein half-width `f(n, X_var, X_sup, δ)` from Lemma 3.6.
#[inline]
pub fn bernstein_halfwidth(n: u64, variance: f64, sup: f64, delta: f64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let log_term = (3.0 / delta).ln();
    let nf = n as f64;
    (2.0 * variance.max(0.0) * log_term / nf).sqrt() + 3.0 * sup * log_term / nf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halfwidth_shrinks_with_samples() {
        let a = bernstein_halfwidth(100, 1.0, 5.0, 0.01);
        let b = bernstein_halfwidth(10_000, 1.0, 5.0, 0.01);
        assert!(b < a);
        assert!(b > 0.0);
    }

    #[test]
    fn zero_samples_is_infinite() {
        assert!(bernstein_halfwidth(0, 1.0, 1.0, 0.1).is_infinite());
    }

    #[test]
    fn zero_variance_leaves_range_term() {
        let h = bernstein_halfwidth(1000, 0.0, 2.0, 0.05);
        let expect = 3.0 * 2.0 * (3.0f64 / 0.05).ln() / 1000.0;
        assert!((h - expect).abs() < 1e-12);
    }

    #[test]
    fn bernstein_covers_true_mean_empirically() {
        // Uniform[0,1] samples: the bound must cover the true mean 0.5 in
        // the vast majority of repetitions.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut covered = 0;
        let reps = 200;
        for _ in 0..reps {
            let mut w = cfcc_util::Welford::new();
            for _ in 0..300 {
                w.push(rng.gen::<f64>());
            }
            let h = bernstein_halfwidth(w.count(), w.variance(), 1.0, 0.05);
            if (w.mean() - 0.5).abs() <= h {
                covered += 1;
            }
        }
        assert!(covered >= reps * 95 / 100, "covered {covered}/{reps}");
    }
}
