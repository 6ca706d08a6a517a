//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--workload all` it runs every workload untraced and traced in child
//! processes (so peak RSS stays per workload), each printing its metrics
//! by name with their units. Exits non-zero if an output check fails.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cfcc_perfbench::{eval, run, solver, Options, Workload};

const USAGE: &str = "usage: perfbench --workload <schur-hepth|approx-hepth|serve-hamsterster|all> \
--seed <n> --seconds <n> --trace <0|1> [--evaluator-error]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    evaluator_error: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        evaluator_error: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--evaluator-error" => args.evaluator_error = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() && !args.evaluator_error {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.evaluator_error {
        return evaluator_error(args.seed);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        out_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
    });
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.checks.problems {
        println!("# FAILED CHECK: {problem}");
    }
    println!("# stamp {}", report.stamp_json());
    match report.write_file() {
        Ok(Some(path)) => println!("# result file {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("could not write the result file: {e}"),
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload untraced and traced, each in a child process that
/// prints its own result; fail if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            println!("== {} trace={trace}", workload.name());
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            all_ok &= match status {
                Ok(s) => s.success(),
                Err(e) => {
                    eprintln!("{}: {e}", workload.name());
                    false
                }
            };
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure the `cfcc` evaluator against a per-column CG trace (exact to
/// the CG tolerance) on the group SchurCFCM returns on hep-th.
fn evaluator_error(seed: u64) -> ExitCode {
    let g = solver::input_graph(false);
    let sel = cfcc_core::SolveSession::new(&g)
        .k(solver::K)
        .solver("schur")
        .params(solver::params(seed))
        .run();
    let Ok(sel) = sel else {
        eprintln!("solve failed: {sel:?}");
        return ExitCode::FAILURE;
    };
    let t = Instant::now();
    let est = eval::Evaluator::new(g.num_nodes(), cfcc_perfbench::THREADS).cfcc(&g, &sel.nodes);
    let est_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let exact = cfcc_core::cfcc::cfcc_group_cg(&g, &sel.nodes, 1e-8);
    let exact_s = t.elapsed().as_secs_f64();
    match (est, exact) {
        (Ok(est), Ok(exact)) => {
            println!(
                "group {:?}: evaluator {est:.6} in {est_s:.2} s, per-column CG {exact:.6} in \
                 {exact_s:.2} s, relative error {:.2e}",
                sel.nodes,
                (est - exact).abs() / exact
            );
            ExitCode::SUCCESS
        }
        (a, b) => {
            eprintln!("evaluation failed: {a:?} / {b:?}");
            ExitCode::FAILURE
        }
    }
}
