//! Graph loading, registry-driven solver dispatch, and report assembly
//! for the CLI. There is no per-algorithm match here: solvers come from
//! `cfcc_core::registry` and run through a `SolveSession`.

use crate::args::CliArgs;
use cfcc_core::{cfcc, registry, CfcmParams, RunStats, SolveSession};
use cfcc_graph::traversal::largest_connected_component;
use cfcc_graph::Graph;
use cfcc_linalg::SddBackend;
use cfcc_util::json::{self, JsonObject};
use cfcc_util::Stopwatch;
use std::time::Duration;

/// What a CLI run produces (rendered by the binary, inspected by tests).
#[derive(Debug, Clone)]
pub struct Report {
    /// Canonical name of the solver that ran.
    pub algo: String,
    /// Solver family label (exact / monte-carlo / heuristic).
    pub kind: String,
    /// SDD backend selection the run's solves went through (`auto` shows
    /// the name it resolves to for this graph size): ApproxGreedy's
    /// sketched solves, the forest solvers' exact-decision panels, and the
    /// C(S) evaluation. `None` when nothing ran through a backend: the
    /// solver did no SDD solve (the heuristics, the dense exact solvers)
    /// and C(S) was not evaluated.
    pub backend: Option<String>,
    /// Graph statistics after LCC extraction: (nodes, edges).
    pub graph_stats: (usize, usize),
    /// Whether the input graph was disconnected and reduced to its LCC.
    pub reduced_to_lcc: bool,
    /// Selected nodes (in original labels where the input was a file).
    pub nodes: Vec<u64>,
    /// Wall-clock seconds of the solve.
    pub seconds: f64,
    /// Forests sampled (Monte-Carlo algorithms only).
    pub forests: u64,
    /// Whether the run stopped early (deadline) with a partial selection.
    pub partial: bool,
    /// Per-iteration statistics of the run (internal node ids).
    pub stats: RunStats,
    /// Evaluated C(S), when requested.
    pub cfcc: Option<f64>,
    /// How C(S) was computed: `"exact-trace"` (read off the dense factor,
    /// or identity panels through `sparse-cg`) or `"hutchinson-64"`
    /// (stochastic estimate at scale, percent-level probe noise).
    pub cfcc_method: Option<&'static str>,
}

impl Report {
    /// Render as the CLI's stdout block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "algorithm : {} ({})\ngraph     : {} nodes, {} edges{}\n",
            self.algo,
            self.kind,
            self.graph_stats.0,
            self.graph_stats.1,
            if self.reduced_to_lcc {
                " (largest connected component)"
            } else {
                ""
            }
        ));
        if let Some(backend) = &self.backend {
            out.push_str(&format!("backend   : {backend}\n"));
        }
        out.push_str(&format!("time      : {:.3}s\n", self.seconds));
        if self.forests > 0 {
            out.push_str(&format!("forests   : {}\n", self.forests));
        }
        out.push_str(&format!(
            "selection : {:?}{}\n",
            self.nodes,
            if self.partial {
                " (partial: timeout hit)"
            } else {
                ""
            }
        ));
        if let Some(c) = self.cfcc {
            match self.cfcc_method {
                Some("hutchinson-64") => out.push_str(&format!(
                    "C(S)      : {c:.6} (Hutchinson estimate, 64 probes)\n"
                )),
                _ => out.push_str(&format!("C(S)      : {c:.6}\n")),
            }
        }
        out
    }

    /// Render as a machine-consumable JSON object (one line).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .str("algorithm", &self.algo)
            .str("kind", &self.kind)
            .raw(
                "backend",
                self.backend.as_deref().map_or("null".into(), json::escape),
            )
            .int("nodes", self.graph_stats.0 as i128)
            .int("edges", self.graph_stats.1 as i128)
            .bool("reduced_to_lcc", self.reduced_to_lcc)
            .num("seconds", self.seconds)
            .int("forests", i128::from(self.forests))
            .bool("partial", self.partial)
            .raw(
                "selection",
                json::array(self.nodes.iter().map(|u| u.to_string())),
            )
            .raw("stats", self.stats.to_json_with_labels(&self.nodes));
        obj = match self.cfcc {
            Some(c) => obj.num("cfcc", c),
            None => obj.raw("cfcc", "null"),
        };
        obj = match self.cfcc_method {
            Some(m) => obj.str("cfcc_method", m),
            None => obj.raw("cfcc_method", "null"),
        };
        obj.render()
    }
}

/// Load the graph requested by the CLI (edge list or bundled dataset),
/// returning the LCC, original labels per node, and whether reduction
/// happened.
pub fn load_graph(args: &CliArgs) -> Result<(Graph, Vec<u64>, bool), String> {
    let (raw, labels) = if let Some(path) = &args.graph_path {
        cfcc_graph::io::read_edge_list_file(path).map_err(|e| e.to_string())?
    } else {
        let name = args.dataset.as_deref().expect("validated");
        let g = cfcc_datasets::by_name(name, args.scale)
            .ok_or_else(|| format!("unknown dataset '{name}' (try --list-datasets)"))?;
        let labels = (0..g.num_nodes() as u64).collect();
        (g, labels)
    };
    if raw.is_connected() {
        return Ok((raw, labels, false));
    }
    let (lcc, remap) = largest_connected_component(&raw);
    let mut lcc_labels = vec![0u64; lcc.num_nodes()];
    for (old, new) in remap.iter().enumerate() {
        if let Some(new) = new {
            lcc_labels[*new as usize] = labels[old];
        }
    }
    Ok((lcc, lcc_labels, true))
}

/// Execute a parsed CLI invocation.
pub fn execute(args: &CliArgs) -> Result<Report, String> {
    let (g, labels, reduced) = load_graph(args)?;
    let solver = registry::resolve(&args.algo).map_err(|e| e.to_string())?;
    let params = CfcmParams::with_epsilon(args.epsilon)
        .seed(args.seed)
        .threads(args.threads)
        .backend(args.backend);
    let mut session = SolveSession::new(&g)
        .k(args.k)
        .solver_impl(solver)
        .params(params.clone());
    if let Some(secs) = args.timeout_secs {
        session = session.timeout(Duration::from_secs_f64(secs));
    }

    let sw = Stopwatch::start();
    let sel = session.run().map_err(|e| e.to_string())?;
    let seconds = sw.seconds();

    if sel.nodes.is_empty() {
        // Only possible when the deadline fired before the first pick
        // finished (a greedy solver's first-pick solves) or before any
        // complete group was examined (exhaustive search). Evaluating C(∅)
        // would mean CG solves on the singular full Laplacian — fail
        // clearly.
        return Err(format!(
            "'{}' was interrupted before finding any selection; raise --timeout",
            solver.name()
        ));
    }
    let (cfcc_value, cfcc_method) = if args.evaluate {
        // Exact trace through the configured backend on modest graphs;
        // past that, the paper's Hutchinson estimator (n solves would
        // dominate the whole run). The report labels which one ran.
        let mut eval_params = params.clone();
        eval_params.cg_tol = eval_params.cg_tol.min(1e-8);
        let (c, method) = if g.num_nodes() <= 4096 {
            (
                cfcc::cfcc_group(&g, &sel.nodes, &eval_params),
                "exact-trace",
            )
        } else {
            (
                cfcc::cfcc_group_hutchinson(&g, &sel.nodes, 64, &eval_params),
                "hutchinson-64",
            )
        };
        (Some(c.map_err(|e| e.to_string())?), Some(method))
    } else {
        (None, None)
    };
    let backend = (args.evaluate || sel.stats.solve.solves > 0).then(|| match args.backend {
        SddBackend::Auto => auto_label(g.num_nodes(), args.k),
        other => other.name().to_string(),
    });
    Ok(Report {
        algo: solver.name().to_string(),
        kind: solver.kind().label().to_string(),
        backend,
        graph_stats: (g.num_nodes(), g.num_edges()),
        reduced_to_lcc: reduced,
        nodes: sel.nodes.iter().map(|&u| labels[u as usize]).collect(),
        seconds,
        forests: sel.stats.total_forests(),
        partial: sel.nodes.len() < args.k,
        stats: sel.stats,
        cfcc: cfcc_value,
        cfcc_method,
    })
}

/// Human-readable name of the backend(s) `auto` resolves to for a run
/// with `n` nodes and budget `k`. Greedy factors run at n−1 … n−k kept
/// unknowns; within `k` of the dense limit the policy can genuinely
/// switch mid-run, so only name a single backend when the whole range
/// resolves to it. The policy is size-only, so this needs no graph
/// sniff.
fn auto_label(n: usize, k: usize) -> String {
    let auto = SddBackend::Auto;
    let first = auto.resolve(n.saturating_sub(1)).name();
    let last = auto.resolve(n.saturating_sub(k)).name();
    if first == last {
        format!("auto ({first})")
    } else {
        format!("auto ({first} then {last})")
    }
}

/// Render the dataset registry for `--list-datasets`.
pub fn render_dataset_list() -> String {
    let mut t =
        cfcc_util::table::Table::new(["name", "paper n", "paper m", "tau", "|T*|", "topology"]);
    for s in cfcc_datasets::all_specs() {
        t.row([
            s.name.to_string(),
            s.paper_nodes.to_string(),
            s.paper_edges.to_string(),
            if s.paper_tau > 0 {
                s.paper_tau.to_string()
            } else {
                "-".into()
            },
            if s.paper_t_star > 0 {
                s.paper_t_star.to_string()
            } else {
                "-".into()
            },
            format!("{:?}", s.topology),
        ]);
    }
    t.render()
}

/// Render the SDD backends for `--list-backends`: each name with its
/// kind, and the `auto` policy's limit.
pub fn render_backend_list() -> String {
    let mut t = cfcc_util::table::Table::new(["name", "kind", "aliases"]);
    for b in SddBackend::ALL {
        let kind = match b {
            SddBackend::Auto => format!(
                "{}: dense-cholesky up to {} unknowns, sparse-cg above",
                b.kind(),
                SddBackend::AUTO_DENSE_LIMIT
            ),
            _ => b.kind().to_string(),
        };
        let aliases: Vec<&str> = b.aliases().collect();
        let aliases = if aliases.is_empty() {
            "-".into()
        } else {
            aliases.join(", ")
        };
        t.row([b.name().to_string(), kind, aliases]);
    }
    t.render()
}

/// Render the solver registry for `--list-solvers`.
pub fn render_solver_list() -> String {
    let mut t = cfcc_util::table::Table::new(["name", "kind", "aliases"]);
    for s in registry::all() {
        let aliases: Vec<&str> = registry::aliases()
            .iter()
            .filter(|(_, canonical)| *canonical == s.name())
            .map(|(alias, _)| *alias)
            .collect();
        t.row([
            s.name().to_string(),
            s.kind().label().to_string(),
            if aliases.is_empty() {
                "-".into()
            } else {
                aliases.join(", ")
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn args(v: &[&str]) -> CliArgs {
        parse_args(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn runs_on_bundled_dataset() {
        let a = args(&[
            "--dataset",
            "karate",
            "--algo",
            "exact",
            "--k",
            "3",
            "--evaluate",
        ]);
        let r = execute(&a).unwrap();
        assert_eq!(r.graph_stats, (34, 78));
        assert_eq!(r.nodes.len(), 3);
        assert!(r.cfcc.unwrap() > 0.0);
        assert!(!r.reduced_to_lcc);
        assert!(!r.partial);
        let text = r.render();
        assert!(text.contains("C(S)"));
        assert!(text.contains("exact"));
    }

    #[test]
    fn runs_monte_carlo_and_reports_forests() {
        let a = args(&[
            "--dataset",
            "dolphins",
            "--algo",
            "schur",
            "--k",
            "3",
            "--epsilon",
            "0.3",
        ]);
        let r = execute(&a).unwrap();
        assert_eq!(r.nodes.len(), 3);
        assert!(r.forests > 0);
        assert!(r.render().contains("forests"));
        assert_eq!(r.stats.iterations.len(), 3);
    }

    #[test]
    fn optimum_is_guarded_by_capability() {
        let a = args(&[
            "--dataset",
            "hamsterster",
            "--scale",
            "0.1",
            "--algo",
            "optimum",
        ]);
        let err = execute(&a).unwrap_err();
        assert!(
            err.contains("exhaustive"),
            "capability hint surfaces: {err}"
        );
    }

    #[test]
    fn every_registered_solver_runs_through_the_cli() {
        for solver in registry::all() {
            let a = args(&[
                "--dataset",
                "karate",
                "--algo",
                solver.name(),
                "--k",
                "2",
                "--epsilon",
                "0.3",
            ]);
            let r = execute(&a).unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert_eq!(r.nodes.len(), 2, "{}", solver.name());
            assert_eq!(r.algo, solver.name());
        }
    }

    #[test]
    fn json_report_is_emitted_and_structured() {
        let a = args(&[
            "--dataset",
            "karate",
            "--algo",
            "forest",
            "--k",
            "2",
            "--epsilon",
            "0.3",
            "--evaluate",
            "--json",
        ]);
        let r = execute(&a).unwrap();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""algorithm":"forest""#));
        assert!(j.contains(r#""kind":"monte-carlo""#));
        assert!(j.contains(r#""selection":["#));
        assert!(j.contains(r#""iterations":["#));
        assert!(j.contains(r#""cfcc":"#));
        assert!(!j.contains("NaN"), "NaN gains must serialize as null: {j}");
    }

    #[test]
    fn loads_edge_list_with_original_labels_and_lcc() {
        // Disconnected file with sparse labels: LCC is the triangle.
        let dir = std::env::temp_dir().join("cfcm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "# comment\n100 200\n200 300\n300 100\n7 8\n").unwrap();
        let a = args(&[
            "--graph",
            path.to_str().unwrap(),
            "--algo",
            "degree",
            "--k",
            "1",
        ]);
        let r = execute(&a).unwrap();
        assert!(r.reduced_to_lcc);
        assert_eq!(r.graph_stats, (3, 3));
        assert!(
            [100u64, 200, 300].contains(&r.nodes[0]),
            "selection must be reported in original labels, got {:?}",
            r.nodes
        );
        // The JSON report must use the same label space everywhere:
        // per-iteration `chosen` ids match the `selection` array.
        let j = r.to_json();
        let expect = format!(r#""selection":[{}]"#, r.nodes[0]);
        assert!(j.contains(&expect), "{j}");
        let expect = format!(r#""chosen":{}"#, r.nodes[0]);
        assert!(
            j.contains(&expect),
            "iteration ids must be re-labeled to input ids: {j}"
        );
    }

    #[test]
    fn unknown_dataset_is_reported() {
        let a = args(&["--dataset", "nope", "--k", "2"]);
        assert!(execute(&a).unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn dataset_list_renders() {
        let text = render_dataset_list();
        assert!(text.contains("karate"));
        assert!(text.contains("soc-livejournal"));
    }

    #[test]
    fn backend_list_names_every_alias_on_its_backends_row() {
        let text = render_backend_list();
        assert!(text.lines().next().unwrap().contains("aliases"), "{text}");
        for b in SddBackend::ALL {
            let row = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(b.name()))
                .unwrap_or_else(|| panic!("no row for {}: {text}", b.name()));
            for alias in b.aliases() {
                assert!(row.contains(alias), "{alias} missing from {row:?}");
            }
        }
        assert!(text.contains("dense, cholesky") && text.contains("sparse, ic"));
    }

    #[test]
    fn backend_list_renders_registry_and_auto_policy() {
        let text = render_backend_list();
        for b in SddBackend::ALL {
            assert!(text.contains(b.name()), "missing {}", b.name());
        }
        assert!(text.contains("direct"));
        assert!(text.contains("iterative"));
        assert!(
            text.contains("dense-cholesky up to 1536 unknowns, sparse-cg above"),
            "auto policy row must name both sides of the limit: {text}"
        );
    }

    #[test]
    fn auto_label_routes_large_graphs_to_sparse_cg() {
        // Above the dense limit every graph routes to sparse-cg — the
        // label the CLI reports for a 257×257 grid run (n = 66049, k = 16).
        assert_eq!(auto_label(66049, 16), "auto (sparse-cg)");
        // Small graphs stay dense.
        assert_eq!(auto_label(34, 2), "auto (dense-cholesky)");
        // Straddling the limit names both, in run order.
        let limit = SddBackend::AUTO_DENSE_LIMIT;
        assert_eq!(
            auto_label(limit + 2, 2),
            "auto (sparse-cg then dense-cholesky)"
        );
    }

    #[test]
    fn explicit_backend_runs_and_is_reported() {
        for backend in ["sparse-cg", "dense-cholesky"] {
            let a = args(&[
                "--dataset",
                "karate",
                "--algo",
                "approx",
                "--k",
                "2",
                "--epsilon",
                "0.3",
                "--backend",
                backend,
                "--evaluate",
            ]);
            let r = execute(&a).unwrap();
            assert_eq!(r.nodes.len(), 2, "{backend}");
            assert_eq!(r.backend.as_deref(), Some(backend));
            assert!(r.render().contains(backend));
            assert!(r.to_json().contains(&format!(r#""backend":"{backend}""#)));
            assert!(r.cfcc.unwrap() > 0.0);
        }
        // Auto reports the resolved name alongside the policy.
        let a = args(&["--dataset", "karate", "--algo", "approx", "--k", "2"]);
        let r = execute(&a).unwrap();
        assert_eq!(r.backend.as_deref(), Some("auto (dense-cholesky)"));
    }

    #[test]
    fn backend_is_reported_only_when_something_solved_through_it() {
        // Degree ranks by degree and does no SDD solve: no label in text,
        // `null` in JSON.
        let degree = ["--dataset", "karate", "--algo", "degree", "--k", "2"];
        let r = execute(&args(&degree)).unwrap();
        assert_eq!(r.stats.solve.solves, 0);
        assert_eq!(r.backend, None);
        assert!(!r.render().contains("backend"), "{}", r.render());
        assert!(r.to_json().contains(r#""backend":null"#));
        // Evaluating C(S) solves through the backend, so it is named.
        let r = execute(&args(&[&degree[..], &["--evaluate"]].concat())).unwrap();
        assert_eq!(r.backend.as_deref(), Some("auto (dense-cholesky)"));
        // ApproxGreedy solves through the backend on its own, and so does
        // SchurCFCM: its forest phases decide through exact panels.
        for algo in ["approx", "schur"] {
            let r = execute(&args(&[
                "--dataset",
                "karate",
                "--algo",
                algo,
                "--k",
                "2",
                "--json",
            ]))
            .unwrap();
            assert!(r.stats.solve.solves > 0, "{algo}");
            assert!(r.to_json().contains(r#""backend":"auto (dense-cholesky)""#));
        }
    }

    #[test]
    fn schur_json_reports_each_rounds_ridge() {
        let r = execute(&args(&[
            "--dataset",
            "karate",
            "--algo",
            "schur",
            "--k",
            "3",
            "--json",
        ]))
        .unwrap();
        let j = r.to_json();
        assert_eq!(j.matches(r#""ridge":"#).count(), 3, "{j}");
        assert!(j.contains(r#""ridge":0}"#), "{j}");
    }

    #[test]
    fn solver_list_renders_every_registered_name() {
        let text = render_solver_list();
        for solver in registry::all() {
            assert!(text.contains(solver.name()), "missing {}", solver.name());
        }
        assert!(text.contains("monte-carlo"));
    }
}
