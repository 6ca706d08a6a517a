//! Wall-clock stopwatch for the solvers' per-iteration timings and the
//! example harnesses.

use std::time::{Duration, Instant};

/// A restartable stopwatch. All tables in the paper report wall-clock
/// seconds, so that is the only metric exposed.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Start (or restart) timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Reset the start point and return the elapsed duration before reset.
    pub fn lap(&mut self) -> Duration {
        let e = self.start.elapsed();
        self.start = Instant::now();
        e
    }
}

/// Format seconds the way the paper's Table II does: 4 significant digits,
/// switching to plain decimals for small values (`0.328`, `4.824`, `1130`).
pub fn fmt_seconds(secs: f64) -> String {
    if !secs.is_finite() {
        return "-".to_string();
    }
    if secs >= 1000.0 {
        format!("{:.0}", secs)
    } else if secs >= 100.0 {
        format!("{:.1}", secs)
    } else if secs >= 10.0 {
        format!("{:.2}", secs)
    } else {
        format!("{:.3}", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.seconds();
        let b = sw.seconds();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn lap_resets() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = sw.lap();
        assert!(lap.as_micros() >= 1000);
        // After a lap the elapsed counter restarts near zero.
        assert!(sw.seconds() < lap.as_secs_f64() + 0.5);
    }

    #[test]
    fn seconds_formatting_matches_table_style() {
        assert_eq!(fmt_seconds(0.328), "0.328");
        assert_eq!(fmt_seconds(4.824), "4.824");
        assert_eq!(fmt_seconds(33.7), "33.70");
        assert_eq!(fmt_seconds(274.6), "274.6");
        assert_eq!(fmt_seconds(1130.4), "1130");
        assert_eq!(fmt_seconds(f64::NAN), "-");
    }
}
