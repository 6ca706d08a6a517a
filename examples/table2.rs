//! Regenerates the paper's **Table II**: running time (seconds) of EXACT,
//! APPROX (ApproxGreedy), FORESTCFCM and SCHURCFCM with various ε on a
//! dataset ladder, plus the per-graph statistics columns (n, m, τ, |T*|).
//! Seeds are fixed, so the selections are reproducible.
//!
//! `CFCC_PRESET` picks the ladder:
//! * `smoke` (default): four proxies of at most 2,100 nodes, `k = 10`,
//!   ε = 0.3; about 30 s on a 2-core box.
//! * `paper`: the paper's small and medium datasets at up to 36,000
//!   nodes, `k = 20`, ε ∈ {0.3, 0.2, 0.15}.
//!
//! Run: `CFCC_PRESET=paper cargo run --release --example table2`

use cfcc_core::params::t_star;
use cfcc_core::{CfcmParams, SolveSession};
use cfcc_graph::diameter::diameter;
use cfcc_util::table::Table;
use cfcc_util::timing::fmt_seconds;
use cfcc_util::Stopwatch;

/// One workload ladder.
struct Preset {
    name: &'static str,
    datasets: Vec<&'static str>,
    k: usize,
    epsilons: &'static [f64],
    /// Datasets larger than this many nodes are generated at the scale
    /// that fits it.
    node_cap: usize,
    /// Largest node count for which the dense EXACT baseline runs.
    exact_limit: usize,
    /// Largest node count for which ApproxGreedy runs.
    approx_limit: usize,
}

impl Preset {
    fn from_env() -> Preset {
        let name = std::env::var("CFCC_PRESET").unwrap_or_default();
        match name.to_lowercase().as_str() {
            "" | "smoke" => Preset {
                name: "smoke",
                datasets: vec!["euroroads", "hamsterster", "gr-qc", "web-epa"],
                k: 10,
                epsilons: &[0.3],
                node_cap: 2_100,
                exact_limit: 1_100,
                approx_limit: 1_100,
            },
            "paper" => Preset {
                name: "paper",
                datasets: [
                    cfcc_datasets::suites::TABLE2_SMALL.as_slice(),
                    cfcc_datasets::suites::TABLE2_MEDIUM.as_slice(),
                ]
                .concat(),
                k: 20,
                epsilons: &[0.3, 0.2, 0.15],
                node_cap: 36_000,
                exact_limit: 2_200,
                approx_limit: 4_500,
            },
            other => panic!("CFCC_PRESET='{other}' is not smoke or paper"),
        }
    }
}

fn main() {
    let preset = Preset::from_env();
    println!(
        "table2 — regenerates Table II (running times); preset = {} \
         (set CFCC_PRESET=smoke|paper), k = {}",
        preset.name, preset.k
    );
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let params = |epsilon: f64| {
        let mut p = CfcmParams::with_epsilon(epsilon)
            .seed(0xBEEF)
            .threads(threads);
        p.max_forests = 2048;
        p
    };

    let mut header: Vec<String> = ["Network", "Node", "Edge", "tau", "|T*|", "EXACT", "APPROX"]
        .map(String::from)
        .to_vec();
    for solver in ["Forest", "Schur"] {
        header.extend(preset.epsilons.iter().map(|e| format!("{solver}(e={e})")));
    }
    header.push("paper n/m".into());
    let mut table = Table::new(header);

    for name in &preset.datasets {
        let spec = cfcc_datasets::spec(name).expect("known dataset");
        let scale = (preset.node_cap as f64 / spec.paper_nodes as f64).min(1.0);
        let g = cfcc_datasets::generate(spec, scale);
        let n = g.num_nodes();
        let m = g.num_edges();
        let tau = diameter(&g, 1200);
        let tstar = t_star(&g);
        eprintln!("[table2] {name}: n={n} m={m} tau={tau} |T*|={tstar} (scale {scale:.3})");

        // Wall-clock seconds of one run, or NaN ('-') above `limit` nodes.
        let time = |solver: &str, epsilon: f64, limit: usize| -> f64 {
            if n > limit {
                return f64::NAN;
            }
            let sw = Stopwatch::start();
            SolveSession::new(&g)
                .k(preset.k)
                .solver(solver)
                .params(params(epsilon))
                .run()
                .unwrap_or_else(|e| panic!("{solver} on {name}: {e}"));
            sw.seconds()
        };
        let mut row: Vec<String> = vec![
            name.to_string(),
            n.to_string(),
            m.to_string(),
            tau.to_string(),
            tstar.to_string(),
            fmt_seconds(time("exact", 0.2, preset.exact_limit)),
            fmt_seconds(time("approx", 0.2, preset.approx_limit)),
        ];
        for solver in ["forest", "schur"] {
            for &e in preset.epsilons {
                row.push(fmt_seconds(time(solver, e, usize::MAX)));
            }
        }
        row.push(format!("{}/{}", spec.paper_nodes, spec.paper_edges));
        // Stream the row immediately (long runs stay inspectable/killable),
        // then add it to the final aligned table.
        eprintln!("[table2] row: {}", row.join(" | "));
        table.row(row);
    }
    println!("{table}");
    println!(
        "Note: '-' marks baselines skipped at this preset (EXACT > {} nodes, APPROX > {} nodes),",
        preset.exact_limit, preset.approx_limit
    );
    println!("mirroring the paper's own '-' entries where a baseline became infeasible.");
}
