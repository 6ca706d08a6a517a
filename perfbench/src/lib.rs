//! The repository's benchmark: SchurCFCM and ApproxGreedy on the hep-th
//! proxy, the `cfcc-serve` daemon under a hit/miss traffic mix, and a
//! traced replay of each that times the layers' public functions.
//!
//! See `README.md` in this directory for the metric table, the layer map
//! and how to run it.

pub mod eval;
pub mod json;
pub mod serve;
pub mod solver;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cfcc_util::json::{escape, number, JsonObject};

/// Worker threads for every solve, pinned to the 2-core reference box.
pub const THREADS: usize = 2;
/// Concurrent client connections of the serve workload.
pub const CLIENTS: usize = 2;

/// End-to-end metrics with units, emitted by every untraced run. An
/// operation is one `SolveSession::run` on the solver workloads and one
/// `eval_group` round trip on the serve workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("throughput_rps", "1/s"),
    ("cfcc", "score"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with units, emitted by every traced run. A metric
/// of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("forest.forests", "count"),
    ("forest.walk_steps_per_forest", "count"),
    ("forest.wilson_s", "s"),
    ("forest.absorb_batch_s", "s"),
    ("forest.absorb_batch_1t_s", "s"),
    ("forest.absorb_share", "ratio"),
    ("forest.parallel_speedup", "ratio"),
    ("core.first_phase_s", "s"),
    ("core.schur_delta_s", "s"),
    ("core.sigma_s", "s"),
    ("core.schur_delta_self_s", "s"),
    ("core.sketched_gains_s", "s"),
    ("core.eval_s", "s"),
    ("linalg.pinv_s", "s"),
    ("linalg.factor_s", "s"),
    ("linalg.factors", "count"),
    ("linalg.solve_s", "s"),
    ("linalg.rhs", "count"),
    ("linalg.pcg_iterations", "count"),
    ("linalg.iters_per_rhs", "count"),
    ("linalg.us_per_block_iteration", "us"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.direct_solve_ms", "ms"),
    ("serve.direct_factor_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.mean_batch_width", "columns"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.iterations_per_request", "count"),
    ("serve.shed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SchurHepth,
    ApproxHepth,
    ServeHamsterster,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SchurHepth,
        Workload::ApproxHepth,
        Workload::ServeHamsterster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SchurHepth => "schur-hepth",
            Workload::ApproxHepth => "approx-hepth",
            Workload::ServeHamsterster => "serve-hamsterster",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    /// Workload seed: drives the solver seeds and the request mix.
    pub seed: u64,
    /// Measured time; every run still completes its minimum work.
    pub seconds: f64,
    /// Traced replay (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Run on tiny inputs (karate) — for the benchmark's own tests.
    pub tiny: bool,
    /// Where to write the stamped result file (none: do not write).
    pub out_dir: Option<PathBuf>,
}

/// Metric values by name; only names from the two tables are accepted.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every per-layer metric at 0, for a traced run to fill in.
    pub fn per_layer_zeroed() -> Self {
        Self(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Counts operations and failed output checks. A failed check never
/// aborts the run; it is counted and reported.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Record one operation whose output check passed or failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure inside an operation that is counted on its own.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub options: Options,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Comparison stamp: seed, nproc, threads, clients, revision, backend,
    /// and the input's shape.
    pub stamp: Vec<(&'static str, String)>,
    /// Free-form lines printed above the result (sample counts, spans).
    pub notes: Vec<String>,
    /// Spans of a traced run, as JSON.
    pub spans_json: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The metric table this run emits (end-to-end or per-layer).
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.options.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for &(name, unit) in self.table() {
            let v = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{} did not set {name}", self.options.workload.name()));
            let v = if v.is_finite() { v } else { 0.0 };
            metrics = metrics.raw(
                name,
                JsonObject::new()
                    .raw("value", number(v))
                    .str("unit", unit)
                    .render(),
            );
        }
        JsonObject::new()
            .bool("correct", self.correct())
            .int("attempted", self.checks.attempted.max(1))
            .int("failed", self.checks.failed)
            .raw("metrics", metrics.render())
            .render()
    }

    /// The stamp as a JSON object.
    pub fn stamp_json(&self) -> String {
        self.stamp
            .iter()
            .fold(JsonObject::new(), |o, (k, v)| o.raw(k, escape(v)))
            .render()
    }

    /// Write `<out_dir>/<workload>-seed<seed>-trace<0|1>.json` holding the
    /// stamp, the result and (traced runs) the spans.
    pub fn write_file(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.options.out_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.options.workload.name(),
            self.options.seed,
            u8::from(self.options.trace)
        ));
        let body = JsonObject::new()
            .raw("stamp", self.stamp_json())
            .raw("result", self.result_json())
            .raw(
                "problems",
                cfcc_util::json::array(self.checks.problems.iter().map(|p| escape(p))),
            )
            .raw(
                "spans",
                self.spans_json.clone().unwrap_or_else(|| "null".into()),
            )
            .render();
        std::fs::write(&path, body + "\n")?;
        Ok(Some(path))
    }
}

/// Run one workload.
pub fn run(options: &Options) -> Report {
    let mut report = Report {
        options: options.clone(),
        checks: Checks::default(),
        metrics: if options.trace {
            Metrics::per_layer_zeroed()
        } else {
            Metrics::default()
        },
        stamp: vec![
            ("workload", options.workload.name().to_string()),
            ("seed", options.seed.to_string()),
            ("nproc", nproc().to_string()),
            ("threads", THREADS.to_string()),
            ("git_rev", git_revision()),
            ("trace", u8::from(options.trace).to_string()),
        ],
        notes: Vec::new(),
        spans_json: None,
    };
    // Each workload reads `peak_rss_mb` itself, right after its measured
    // phase and before the benchmark's own off-the-clock work.
    match options.workload {
        Workload::SchurHepth | Workload::ApproxHepth => solver::run(options, &mut report),
        Workload::ServeHamsterster => serve::run(options, &mut report),
    }
    report
}

/// Time `f` `reps` times and return the median duration and the last value.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// git checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A per-repetition seed: repetition 0 uses the workload seed itself.
pub fn derive_seed(seed: u64, rep: u64) -> u64 {
    if rep == 0 {
        seed
    } else {
        cfcc_forest::sampler::splitmix64(seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_known() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
        let mut m = Metrics::default();
        m.set("solve_s", 1.0);
        assert_eq!(m.get("solve_s"), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_is_a_bug() {
        Metrics::default().set("nope", 1.0);
    }
}
