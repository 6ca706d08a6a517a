//! # cfcc-bench
//!
//! Shared harness utilities for the table/figure regeneration targets
//! (`benches/table2.rs`, `benches/fig1.rs` … `benches/ablation.rs`) and the
//! criterion microbenchmarks.
//!
//! ## Presets
//!
//! The environment variable `CFCC_PRESET` selects the workload ladder:
//!
//! * `smoke` (default) — minutes on a 2-core box; used by `cargo bench`.
//! * `paper` — the scale of the checked-in `BENCH_*.json` reports.
//! * `full`  — largest ladder (hours); for completeness.
//!
//! All randomized algorithms run with fixed seeds, so outputs are
//! reproducible per preset.

#![forbid(unsafe_code)]

pub mod report;

use cfcc_core::{CfcmParams, Selection, SolveSession};
use cfcc_datasets::DatasetSpec;
use cfcc_graph::Graph;
use cfcc_util::Stopwatch;

/// Workload preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// CI-sized smoke ladder.
    Smoke,
    /// The ladder of the checked-in `BENCH_*.json` reports.
    Paper,
    /// Largest ladder.
    Full,
}

impl Preset {
    /// Read from `CFCC_PRESET` (default `smoke`).
    pub fn from_env() -> Preset {
        match std::env::var("CFCC_PRESET")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "paper" => Preset::Paper,
            "full" => Preset::Full,
            _ => Preset::Smoke,
        }
    }

    /// Short name for banners.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Smoke => "smoke",
            Preset::Paper => "paper",
            Preset::Full => "full",
        }
    }

    /// Group size `k` used in Table II style timing runs.
    pub fn k(self) -> usize {
        match self {
            Preset::Smoke => 10,
            _ => 20,
        }
    }

    /// ε grid for Table II.
    pub fn epsilons(self) -> &'static [f64] {
        match self {
            Preset::Smoke => &[0.3],
            _ => &[0.3, 0.2, 0.15],
        }
    }

    /// Largest node count for which the dense EXACT baseline runs.
    pub fn exact_limit(self) -> usize {
        match self {
            Preset::Smoke => 1_100,
            Preset::Paper => 2_200,
            Preset::Full => 4_500,
        }
    }

    /// Largest node count for which the ApproxGreedy baseline runs.
    pub fn approx_limit(self) -> usize {
        match self {
            Preset::Smoke => 1_100,
            Preset::Paper => 4_500,
            Preset::Full => 40_000,
        }
    }

    /// Scale factor for a dataset so the harness fits the preset budget.
    /// `cap` is the target node ceiling for this experiment tier.
    pub fn scale_for(self, spec: &DatasetSpec, cap: usize) -> f64 {
        if spec.paper_nodes <= cap {
            1.0
        } else {
            (cap as f64 / spec.paper_nodes as f64).min(1.0)
        }
    }

    /// Node ceiling for Table II rows.
    pub fn table2_cap(self) -> usize {
        match self {
            Preset::Smoke => 2_100,
            Preset::Paper => 36_000,
            Preset::Full => 220_000,
        }
    }

    /// Node ceiling for the Fig. 2/3 effectiveness runs.
    pub fn effectiveness_cap(self) -> usize {
        match self {
            Preset::Smoke => 1_600,
            Preset::Paper => 22_000,
            Preset::Full => 110_000,
        }
    }
}

/// Load a dataset at the preset's scale for the given node cap, returning
/// the graph and the scale used.
pub fn load(spec: &DatasetSpec, preset: Preset, cap: usize) -> (Graph, f64) {
    let scale = preset.scale_for(spec, cap);
    (cfcc_datasets::generate(spec, scale), scale)
}

/// Run a registered solver by name on the harness path. All table/figure
/// targets dispatch through `cfcc_core::registry` via this helper — no
/// per-algorithm match anywhere in the harness.
pub fn run_solver(name: &str, g: &Graph, k: usize, params: &CfcmParams) -> Selection {
    SolveSession::new(g)
        .k(k)
        .solver(name)
        .params(params.clone())
        .run()
        .unwrap_or_else(|e| panic!("solver '{name}' failed: {e}"))
}

/// [`run_solver`] plus wall-clock seconds of the whole run.
pub fn timed_solver(name: &str, g: &Graph, k: usize, params: &CfcmParams) -> (Selection, f64) {
    let sw = Stopwatch::start();
    let sel = run_solver(name, g, k, params);
    (sel, sw.seconds())
}

/// Baseline CFCM parameters for harness runs at the given ε. The SDD
/// backend for grounded solves follows `CFCC_BACKEND`
/// (auto|dense-cholesky|sparse-cg, default auto), so every
/// table/figure target can be re-run per backend without code changes.
pub fn params_for(epsilon: f64, threads: usize) -> CfcmParams {
    let mut p = CfcmParams::with_epsilon(epsilon)
        .seed(0xBEEF)
        .threads(threads)
        .backend(backend_from_env());
    p.max_forests = 2048;
    p
}

/// SDD backend selection from `CFCC_BACKEND` (default `auto`). Unknown
/// names fail loudly — a bench silently falling back would record the
/// wrong experiment.
pub fn backend_from_env() -> cfcc_linalg::SddBackend {
    match std::env::var("CFCC_BACKEND") {
        Ok(name) => cfcc_linalg::SddBackend::parse(&name)
            .unwrap_or_else(|| panic!("CFCC_BACKEND='{name}' is not a registered SDD backend")),
        Err(_) => cfcc_linalg::SddBackend::Auto,
    }
}

/// Number of worker threads for sampling (leave one core for the OS).
pub fn harness_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().saturating_sub(0).max(1))
}

/// Print the standard banner for a regeneration target.
pub fn banner(target: &str, paper_ref: &str, preset: Preset) {
    println!("==========================================================");
    println!("{target} — regenerates {paper_ref}");
    println!(
        "preset = {} (set CFCC_PRESET=smoke|paper|full); seeds fixed",
        preset.name()
    );
    println!("==========================================================");
}

/// Format a ratio like the paper's speed-up factors.
pub fn fmt_ratio(r: f64) -> String {
    if !r.is_finite() {
        "-".into()
    } else if r >= 100.0 {
        format!("{r:.0}x")
    } else {
        format!("{r:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parsing_defaults_to_smoke() {
        // Do not mutate the environment (tests run in parallel);
        // just check the default path and names.
        assert_eq!(Preset::Smoke.name(), "smoke");
        assert_eq!(Preset::Paper.k(), 20);
        assert_eq!(Preset::Smoke.k(), 10);
        assert_eq!(Preset::Smoke.epsilons(), &[0.3]);
        assert_eq!(Preset::Paper.epsilons().len(), 3);
    }

    #[test]
    fn scale_caps_nodes() {
        let spec = cfcc_datasets::spec("gowalla").unwrap();
        let s = Preset::Smoke.scale_for(spec, 2000);
        assert!(s < 0.02);
        let spec_small = cfcc_datasets::spec("euroroads").unwrap();
        assert_eq!(Preset::Smoke.scale_for(spec_small, 2000), 1.0);
    }

    #[test]
    fn load_respects_cap() {
        let spec = cfcc_datasets::spec("hamsterster").unwrap();
        let (g, scale) = load(spec, Preset::Smoke, 1000);
        assert!(g.num_nodes() <= 1001);
        assert!(scale <= 0.51);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(370.0), "370x");
        assert_eq!(fmt_ratio(2.53), "2.5x");
        assert_eq!(fmt_ratio(f64::NAN), "-");
    }

    #[test]
    fn run_solver_goes_through_the_registry() {
        let g = cfcc_datasets::karate();
        let p = params_for(0.3, 1);
        for name in ["schur", "exact", "degree"] {
            let sel = run_solver(name, &g, 2, &p);
            assert_eq!(sel.nodes.len(), 2, "{name}");
        }
        let (sel, secs) = timed_solver("forest", &g, 2, &p);
        assert_eq!(sel.nodes.len(), 2);
        assert!(secs >= 0.0);
    }
}
