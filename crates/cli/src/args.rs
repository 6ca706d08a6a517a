//! Hand-rolled argument parsing for the `cfcm` binary.
//!
//! Solver names are not enumerated here: `--algo` accepts any name or
//! alias registered in `cfcc_core::registry`, so new solvers become
//! CLI-selectable the moment they are registered.

use cfcc_core::registry;
use cfcc_linalg::SddBackend;
use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Canonical name of the solver to run (validated against the
    /// registry at parse time).
    pub algo: String,
    /// Group size.
    pub k: usize,
    /// Error parameter ε.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (forest sampling and the blocked dense kernels).
    pub threads: usize,
    /// SDD solver backend for grounded Laplacian systems.
    pub backend: SddBackend,
    /// Edge-list path (mutually exclusive with `dataset`).
    pub graph_path: Option<String>,
    /// Bundled dataset name.
    pub dataset: Option<String>,
    /// Proxy scale factor for bundled datasets.
    pub scale: f64,
    /// Evaluate C(S) of the result: the exact trace through `backend` up
    /// to 4096 nodes, a 64-probe Hutchinson estimate above.
    pub evaluate: bool,
    /// Wall-clock budget for the solve, in seconds (deadline).
    pub timeout_secs: Option<f64>,
    /// Emit the report as a JSON object instead of the text block.
    pub json: bool,
    /// Print the dataset registry and exit.
    pub list_datasets: bool,
    /// Print the solver registry and exit.
    pub list_solvers: bool,
    /// Print the SDD backend registry and exit.
    pub list_backends: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            algo: "schur".into(),
            k: 10,
            epsilon: 0.2,
            seed: 0x5EED,
            threads: 1,
            backend: SddBackend::Auto,
            graph_path: None,
            dataset: None,
            scale: 1.0,
            evaluate: false,
            timeout_secs: None,
            json: false,
            list_datasets: false,
            list_solvers: false,
            list_backends: false,
            help: false,
        }
    }
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
cfcm — current-flow group closeness maximization (Xia & Zhang, ICDE 2025)

USAGE:
    cfcm [OPTIONS] (--graph <edge-list> | --dataset <name>)
    cfcm serve [SERVE-OPTIONS]          resident query daemon (cfcm serve --help)
    cfcm client --addr <a> <request…>   one protocol request (cfcm client --help)

OPTIONS:
    --algo <name>      solver name or alias from the registry
                       (see --list-solvers; default: schur)
    --k <int>          group size (default: 10)
    --epsilon <float>  error parameter in (0,1) (default: 0.2)
    --seed <int>       RNG seed (default: 0x5EED)
    --threads <int>    worker threads: forest sampling + dense kernels (default: 1)
    --backend <name>   SDD solver backend for grounded Laplacian systems
                       (see --list-backends; default: auto — dense up to
                       1536 unknowns, sparse CSR/IC(0) above); aliases:
                       dense, cholesky (dense-cholesky), sparse, ic
                       (sparse-cg)
    --graph <path>     whitespace edge-list file ('#'/'%' comments ok)
    --dataset <name>   bundled dataset (see --list-datasets)
    --scale <float>    proxy scale for bundled datasets in (0,1] (default: 1.0)
    --timeout <secs>   wall-clock budget; iterative solvers return their
                       partial selection when the budget is exhausted
                       (checked between greedy picks, and inside the
                       iterative solves of ApproxGreedy, ForestCFCM and
                       SchurCFCM: a pick whose solves are interrupted is
                       dropped, so such a run can end with no selection;
                       dense-cholesky solves and single-shot heuristics
                       run to completion)
    --evaluate         also compute C(S) of the selection: exact trace
                       through --backend up to 4096 nodes, 64-probe
                       Hutchinson estimate above
    --json             print the report as a JSON object
    --list-datasets    print the dataset registry and exit
    --list-solvers     print the solver registry and exit
    --list-backends    print the SDD backend registry and exit
    --help             this text
";

/// Parse an argument vector (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, ParseError> {
    let mut out = CliArgs::default();
    let mut it = args.into_iter();
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .ok_or_else(|| ParseError(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => {
                let v = need(&mut it, "--algo")?;
                out.algo = registry::by_name(&v)
                    .map(|s| s.name().to_string())
                    .ok_or_else(|| {
                        ParseError(format!(
                            "unknown algorithm '{v}' (available: {})",
                            registry::name_list()
                        ))
                    })?;
            }
            "--k" => {
                let v = need(&mut it, "--k")?;
                out.k = v.parse().map_err(|e| ParseError(format!("--k: {e}")))?;
            }
            "--epsilon" => {
                let v = need(&mut it, "--epsilon")?;
                out.epsilon = v
                    .parse()
                    .map_err(|e| ParseError(format!("--epsilon: {e}")))?;
            }
            "--seed" => {
                let v = need(&mut it, "--seed")?;
                out.seed = parse_u64(&v).map_err(|e| ParseError(format!("--seed: {e}")))?;
            }
            "--threads" => {
                let v = need(&mut it, "--threads")?;
                out.threads = v
                    .parse()
                    .map_err(|e| ParseError(format!("--threads: {e}")))?;
            }
            "--backend" => {
                let v = need(&mut it, "--backend")?;
                out.backend = SddBackend::parse(&v).ok_or_else(|| {
                    ParseError(format!(
                        "unknown backend '{v}' (available: {})",
                        SddBackend::name_list()
                    ))
                })?;
            }
            "--graph" => out.graph_path = Some(need(&mut it, "--graph")?),
            "--dataset" => out.dataset = Some(need(&mut it, "--dataset")?),
            "--scale" => {
                let v = need(&mut it, "--scale")?;
                out.scale = v.parse().map_err(|e| ParseError(format!("--scale: {e}")))?;
            }
            "--timeout" => {
                let v = need(&mut it, "--timeout")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|e| ParseError(format!("--timeout: {e}")))?;
                // Upper bound keeps Duration::from_secs_f64 from
                // panicking on absurd values (a year exceeds any solve).
                if !secs.is_finite() || secs <= 0.0 || secs > 31_536_000.0 {
                    return Err(ParseError(
                        "--timeout must be a positive number of seconds (max 31536000)".into(),
                    ));
                }
                out.timeout_secs = Some(secs);
            }
            "--evaluate" => out.evaluate = true,
            "--json" => out.json = true,
            "--list-datasets" => out.list_datasets = true,
            "--list-solvers" => out.list_solvers = true,
            "--list-backends" => out.list_backends = true,
            "--help" | "-h" => out.help = true,
            other => return Err(ParseError(format!("unknown argument '{other}'"))),
        }
    }
    if !out.help && !out.list_datasets && !out.list_solvers && !out.list_backends {
        match (&out.graph_path, &out.dataset) {
            (None, None) => {
                return Err(ParseError("one of --graph or --dataset is required".into()))
            }
            (Some(_), Some(_)) => {
                return Err(ParseError(
                    "--graph and --dataset are mutually exclusive".into(),
                ))
            }
            _ => {}
        }
        if out.k == 0 {
            return Err(ParseError("--k must be >= 1".into()));
        }
        if !(0.0 < out.epsilon && out.epsilon < 1.0) {
            return Err(ParseError("--epsilon must be in (0,1)".into()));
        }
        if !(0.0 < out.scale && out.scale <= 1.0) {
            return Err(ParseError("--scale must be in (0,1]".into()));
        }
    }
    Ok(out)
}

/// Accept decimal or 0x-prefixed hex seeds.
fn parse_u64(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
    } else {
        s.parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<CliArgs, ParseError> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_full_invocation() {
        let a = parse(&[
            "--algo",
            "forest",
            "--k",
            "5",
            "--epsilon",
            "0.3",
            "--seed",
            "0xFF",
            "--threads",
            "2",
            "--dataset",
            "karate",
            "--evaluate",
            "--json",
            "--timeout",
            "2.5",
        ])
        .unwrap();
        assert_eq!(a.algo, "forest");
        assert_eq!(a.k, 5);
        assert_eq!(a.epsilon, 0.3);
        assert_eq!(a.seed, 255);
        assert_eq!(a.threads, 2);
        assert_eq!(a.dataset.as_deref(), Some("karate"));
        assert!(a.evaluate);
        assert!(a.json);
        assert_eq!(a.timeout_secs, Some(2.5));
    }

    #[test]
    fn requires_a_graph_source() {
        let err = parse(&["--k", "3"]).unwrap_err();
        assert!(err.0.contains("required"));
    }

    #[test]
    fn rejects_both_sources() {
        let err = parse(&["--graph", "x.txt", "--dataset", "karate"]).unwrap_err();
        assert!(err.0.contains("mutually exclusive"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--dataset", "karate", "--epsilon", "2.0"]).is_err());
        assert!(parse(&["--dataset", "karate", "--k", "0"]).is_err());
        assert!(parse(&["--dataset", "karate", "--scale", "0"]).is_err());
        assert!(parse(&["--dataset", "karate", "--timeout", "0"]).is_err());
        assert!(parse(&["--dataset", "karate", "--timeout", "nan"]).is_err());
        assert!(parse(&["--dataset", "karate", "--timeout", "1e300"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--algo", "nope", "--dataset", "karate"]).is_err());
        assert!(parse(&["--k"]).is_err(), "missing value");
    }

    #[test]
    fn unknown_algo_error_lists_the_registry() {
        let err = parse(&["--algo", "nope", "--dataset", "karate"]).unwrap_err();
        assert!(err.0.contains("schur"), "error should list names: {err}");
    }

    #[test]
    fn help_and_lists_do_not_require_source() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["--list-datasets"]).unwrap().list_datasets);
        assert!(parse(&["--list-solvers"]).unwrap().list_solvers);
        assert!(parse(&["--list-backends"]).unwrap().list_backends);
    }

    #[test]
    fn backend_names_and_aliases_parse() {
        let a = parse(&["--dataset", "karate", "--backend", "sparse-cg"]).unwrap();
        assert_eq!(a.backend, SddBackend::SparseCg);
        let a = parse(&["--dataset", "karate", "--backend", "dense"]).unwrap();
        assert_eq!(a.backend, SddBackend::DenseCholesky);
        let a = parse(&["--dataset", "karate", "--backend", "ic"]).unwrap();
        assert_eq!(a.backend, SddBackend::SparseCg);
        let a = parse(&["--dataset", "karate"]).unwrap();
        assert_eq!(a.backend, SddBackend::Auto);
        for unknown in ["warp", "tree-pcg", "lsst-pcg", "cg-jacobi"] {
            let err = parse(&["--dataset", "karate", "--backend", unknown]).unwrap_err();
            assert!(err.0.contains("unknown backend"), "{unknown}: {err}");
            assert!(err.0.contains("sparse-cg"), "lists backends: {err}");
        }
    }

    #[test]
    fn algo_names_and_aliases_canonicalize_through_the_registry() {
        for name in registry::names() {
            let a = parse(&["--algo", name, "--dataset", "karate"]).unwrap();
            assert_eq!(a.algo, name);
        }
        let a = parse(&["--algo", "SCHURCFCM", "--dataset", "karate"]).unwrap();
        assert_eq!(a.algo, "schur");
        let a = parse(&["--algo", "opt", "--dataset", "karate", "--k", "3"]).unwrap();
        assert_eq!(a.algo, "optimum");
    }
}
