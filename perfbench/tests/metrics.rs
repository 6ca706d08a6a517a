//! Every workload, untraced and traced, on a tiny input (karate): the run
//! passes its output checks and emits exactly the metrics `BENCHMARK.json`
//! names, each with its unit.

use cfcc_perfbench::json::Json;
use cfcc_perfbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny_run(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        tiny: true,
        out_dir: None,
    })
}

/// `(name, unit)` pairs of a run's result line.
fn emitted(report: &Report) -> Vec<(String, String)> {
    let result = Json::parse(&report.result_json()).expect("result line parses");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn check(workload: Workload) {
    for trace in [false, true] {
        let report = tiny_run(workload, trace);
        assert!(
            report.correct(),
            "{} trace={trace}: {:?}",
            workload.name(),
            report.checks.problems
        );
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(
            emitted(&report),
            declared(section),
            "{} trace={trace}",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(END_TO_END));
    assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    // `approx-hepth` runs by hand only: see the README's Workloads section.
    for w in benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn schur_emits_every_metric() {
    check(Workload::SchurHepth);
}

#[test]
fn approx_emits_every_metric() {
    check(Workload::ApproxHepth);
}

#[test]
fn serve_emits_every_metric() {
    check(Workload::ServeHamsterster);
}

#[test]
fn traced_layers_read_zero_where_unused() {
    let schur = tiny_run(Workload::SchurHepth, true);
    assert!(schur.metrics.get("forest.forests").unwrap() > 0.0);
    assert_eq!(schur.metrics.get("linalg.rhs"), Some(0.0));
    let approx = tiny_run(Workload::ApproxHepth, true);
    assert_eq!(approx.metrics.get("forest.forests"), Some(0.0));
    assert!(approx.metrics.get("linalg.rhs").unwrap() > 0.0);
}
