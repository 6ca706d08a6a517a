//! Integration tests for the solver registry and the `SolveSession` front
//! door: name/alias resolution, uniform validation, end-to-end solves for
//! every registered solver, progress reporting, and cooperative
//! cancellation with partial results.

use cfcc_core::solver::DENSE_MAX_NODES;
use cfcc_core::{
    registry, CancelToken, CfcmError, CfcmParams, IterStats, SolveContext, SolveSession,
};
use cfcc_datasets::karate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[test]
fn every_registered_name_and_alias_resolves() {
    for solver in registry::all() {
        let found = registry::by_name(solver.name())
            .unwrap_or_else(|| panic!("name {} must resolve", solver.name()));
        assert_eq!(found.name(), solver.name());
        // Case-insensitive.
        let upper = solver.name().to_ascii_uppercase();
        assert_eq!(registry::by_name(&upper).unwrap().name(), solver.name());
    }
    for (alias, canonical) in registry::aliases() {
        let found =
            registry::by_name(alias).unwrap_or_else(|| panic!("alias {alias} must resolve"));
        assert_eq!(found.name(), *canonical, "alias {alias}");
        assert!(
            registry::by_name(canonical).is_some(),
            "alias {alias} points at unregistered solver {canonical}"
        );
    }
    assert!(registry::by_name("no-such-solver").is_none());
}

#[test]
fn all_solvers_select_k_distinct_in_range_nodes_on_karate() {
    let g = karate();
    let k = 3;
    let ctx = SolveContext::new(CfcmParams::with_epsilon(0.3).seed(7));
    for solver in registry::all() {
        assert!(
            solver
                .supports(g.num_nodes(), g.num_edges(), k)
                .is_supported(),
            "{} should support karate-sized problems",
            solver.name()
        );
        let sel = solver
            .solve(&g, k, &ctx)
            .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
        assert_eq!(sel.nodes.len(), k, "{}", solver.name());
        let distinct: std::collections::HashSet<_> = sel.nodes.iter().collect();
        assert_eq!(distinct.len(), k, "{} repeated a node", solver.name());
        assert!(
            sel.nodes.iter().all(|&u| (u as usize) < g.num_nodes()),
            "{} selected out-of-range nodes: {:?}",
            solver.name(),
            sel.nodes
        );
        assert_eq!(
            sel.stats.iterations.len(),
            k,
            "{} must report one IterStats per selected node",
            solver.name()
        );
    }
}

#[test]
fn uniform_validation_rejects_bad_inputs_for_every_solver() {
    let g = karate();
    let bad_eps = SolveContext::new(CfcmParams::with_epsilon(0.0));
    let good = SolveContext::default();
    let disconnected = cfcc_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
    for solver in registry::all() {
        assert!(
            matches!(solver.solve(&g, 0, &good), Err(CfcmError::InvalidK { .. })),
            "{} must reject k=0",
            solver.name()
        );
        // Historically only the Monte-Carlo solvers validated parameters;
        // the SolveContext entry point now rejects them uniformly.
        assert!(
            matches!(
                solver.solve(&g, 2, &bad_eps),
                Err(CfcmError::InvalidParameter(_))
            ),
            "{} must reject epsilon=0",
            solver.name()
        );
        assert_eq!(
            solver.solve(&disconnected, 2, &good).unwrap_err(),
            CfcmError::Disconnected,
            "{} must reject disconnected graphs",
            solver.name()
        );
    }
}

#[test]
fn progress_callbacks_fire_once_per_iteration() {
    let g = karate();
    let k = 4;
    for solver in registry::all() {
        let seen: Arc<Mutex<Vec<u32>>> = Arc::default();
        let seen2 = seen.clone();
        let sel = SolveSession::new(&g)
            .k(k)
            .solver(solver.name())
            .epsilon(0.3)
            .seed(11)
            .on_progress(move |it: &IterStats| seen2.lock().unwrap().push(it.chosen))
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            sel.nodes,
            "{}: progress must report each iteration's chosen node in order",
            solver.name()
        );
    }
}

#[test]
fn cancellation_stops_a_long_forest_run_early_with_stats_intact() {
    // A workload big enough that iterations take a visible amount of
    // time, but no bigger: the uncancelled comparison run below pays for
    // every iteration, and at 0.5 scale / k = 10 this test alone took
    // ~85 s in debug mode for the same assertions.
    let g = cfcc_datasets::by_name("hamsterster", 0.25).unwrap();
    let k = 6;
    let stop_after = 2usize;

    let token = CancelToken::new();
    let t2 = token.clone();
    let fired = Arc::new(AtomicUsize::new(0));
    let f2 = fired.clone();
    let start = Instant::now();
    let sel = SolveSession::new(&g)
        .k(k)
        .solver("forest")
        .epsilon(0.2)
        .seed(3)
        .cancel_token(token)
        .on_progress(move |_| {
            if f2.fetch_add(1, Ordering::Relaxed) + 1 == stop_after {
                t2.cancel();
            }
        })
        .run()
        .unwrap();
    let elapsed = start.elapsed();

    // Cancelled mid-run: the partial selection has exactly the iterations
    // that completed, with their stats intact.
    assert_eq!(sel.nodes.len(), stop_after, "elapsed {elapsed:?}");
    assert_eq!(sel.stats.iterations.len(), stop_after);
    assert_eq!(fired.load(Ordering::Relaxed), stop_after);
    for (node, it) in sel.nodes.iter().zip(&sel.stats.iterations) {
        assert_eq!(*node, it.chosen);
    }
    assert!(sel.stats.total_forests() > 0);
    assert!(sel.stats.total_seconds() > 0.0);

    // "Promptly": a full k=6 run does ~3x the sampling work of the two
    // completed iterations; the cancelled run must not have done it. A
    // direct uncancelled run of the same prefix length bounds the time
    // loosely from above (same seeds, same workload).
    let full = SolveSession::new(&g)
        .k(k)
        .solver("forest")
        .epsilon(0.2)
        .seed(3)
        .run()
        .unwrap();
    assert_eq!(full.nodes.len(), k);
    assert!(
        sel.stats.total_forests() < full.stats.total_forests() / 2,
        "cancelled run sampled {} forests vs {} for the full run",
        sel.stats.total_forests(),
        full.stats.total_forests()
    );
    // The cancelled prefix matches the full run's prefix (same seed).
    assert_eq!(sel.nodes, full.nodes[..stop_after]);
}

#[test]
fn deadline_yields_partial_selection() {
    let g = karate();
    // An already-elapsed deadline: the first iteration still completes
    // (cooperative checks sit at iteration boundaries), the rest are
    // skipped.
    let sel = SolveSession::new(&g)
        .k(5)
        .solver("schur")
        .epsilon(0.3)
        .deadline(Instant::now() - Duration::from_millis(1))
        .run()
        .unwrap();
    assert_eq!(sel.nodes.len(), 1);
    assert_eq!(sel.stats.iterations.len(), 1);
}

#[test]
fn session_reports_unknown_solver_and_capability_limits() {
    let g = karate();
    assert!(matches!(
        SolveSession::new(&g).k(2).solver("bogus").run(),
        Err(CfcmError::UnknownSolver(_))
    ));
    // Capability walls surface as Unsupported before any work starts:
    // optimum's k > 5, and exact's dense n x n limit one node past it.
    let big = cfcc_graph::generators::cycle(DENSE_MAX_NODES + 1);
    for (graph, k, solver) in [(&g, 6, "optimum"), (&big, 2, "exact")] {
        assert!(
            matches!(
                SolveSession::new(graph).k(k).solver(solver).run(),
                Err(CfcmError::Unsupported(_))
            ),
            "{solver} on n={}, k={k}",
            graph.num_nodes()
        );
    }
}

#[test]
fn session_builder_matches_free_function_results() {
    let g = karate();
    let params = CfcmParams::with_epsilon(0.25).seed(9);
    let via_session = SolveSession::new(&g)
        .k(3)
        .solver("schurcfcm") // alias
        .params(params.clone())
        .run()
        .unwrap();
    let via_free = cfcc_core::schur_cfcm::schur_cfcm(&g, 3, &params).unwrap();
    assert_eq!(via_session.nodes, via_free.nodes);
}
