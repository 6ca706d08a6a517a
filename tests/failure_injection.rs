//! Failure-injection tests: every public entry point confronted with
//! invalid, degenerate, or adversarial inputs must fail loudly and
//! precisely — never hang, never return garbage silently.

use cfcc_core::{
    approx_greedy::approx_greedy, cfcc, exact::exact_greedy, forest_cfcm::forest_cfcm, heuristics,
    kemeny, optimum::optimum_cfcm, schur_cfcm::schur_cfcm, CfcmError, CfcmParams,
};
use cfcc_graph::{generators, Graph, GraphError};

fn disconnected() -> Graph {
    Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap()
}

#[test]
fn all_solvers_reject_bad_k() {
    let g = generators::cycle(8);
    let p = CfcmParams::default();
    for k in [0usize, 8, 100] {
        assert!(
            matches!(exact_greedy(&g, k), Err(CfcmError::InvalidK { .. })),
            "exact k={k}"
        );
        assert!(
            matches!(forest_cfcm(&g, k, &p), Err(CfcmError::InvalidK { .. })),
            "forest k={k}"
        );
        assert!(
            matches!(schur_cfcm(&g, k, &p), Err(CfcmError::InvalidK { .. })),
            "schur k={k}"
        );
        assert!(
            matches!(approx_greedy(&g, k, &p), Err(CfcmError::InvalidK { .. })),
            "approx k={k}"
        );
        assert!(
            matches!(optimum_cfcm(&g, k), Err(CfcmError::InvalidK { .. })),
            "optimum k={k}"
        );
        assert!(heuristics::degree_baseline(&g, k).is_err(), "degree k={k}");
    }
}

#[test]
fn all_solvers_reject_disconnected_graphs() {
    let g = disconnected();
    let p = CfcmParams::default();
    assert_eq!(exact_greedy(&g, 2).unwrap_err(), CfcmError::Disconnected);
    assert_eq!(forest_cfcm(&g, 2, &p).unwrap_err(), CfcmError::Disconnected);
    assert_eq!(schur_cfcm(&g, 2, &p).unwrap_err(), CfcmError::Disconnected);
    assert_eq!(
        approx_greedy(&g, 2, &p).unwrap_err(),
        CfcmError::Disconnected
    );
    assert_eq!(optimum_cfcm(&g, 2).unwrap_err(), CfcmError::Disconnected);
    assert_eq!(
        heuristics::top_cfcc_sampled(&g, 2, &p).unwrap_err(),
        CfcmError::Disconnected
    );
}

#[test]
fn invalid_epsilon_rejected_before_any_sampling() {
    let g = generators::cycle(10);
    for eps in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        let p = CfcmParams::with_epsilon(eps);
        assert!(
            matches!(forest_cfcm(&g, 2, &p), Err(CfcmError::InvalidParameter(_))),
            "epsilon {eps} must be rejected"
        );
        assert!(matches!(
            schur_cfcm(&g, 2, &p),
            Err(CfcmError::InvalidParameter(_))
        ));
    }
}

#[test]
fn group_mask_rejects_duplicates_and_out_of_range() {
    let g = generators::cycle(5);
    assert!(matches!(
        cfcc::group_mask(&g, &[1, 1]),
        Err(CfcmError::InvalidParameter(_))
    ));
    assert!(matches!(
        cfcc::group_mask(&g, &[99]),
        Err(CfcmError::InvalidParameter(_))
    ));
    // Evaluation APIs route through the same validation.
    assert!(cfcc::cfcc_group_cg(&g, &[2, 2], 1e-8).is_err());
    assert!(cfcc::cfcc_group_hutchinson(&g, &[9], 4, &CfcmParams::default()).is_err());
    // A bad query node is rejected like a bad group, not a panic.
    assert!(matches!(
        cfcc::resistance_to_group_cg(&g, 0, &[7], 1e-8),
        Err(CfcmError::InvalidParameter(_))
    ));
    assert!(matches!(
        cfcc::resistance_to_group_cg(&g, 99, &[1], 1e-8),
        Err(CfcmError::InvalidParameter(_))
    ));
}

#[test]
fn kemeny_utilities_validate_roots() {
    let g = generators::cycle(6);
    assert!(kemeny::absorption_cost_sampled(&g, &[], 16, 1, 1).is_err());
    assert!(kemeny::absorption_cost_exact(&g, &[7]).is_err());
}

#[test]
fn graph_construction_errors_are_precise() {
    match Graph::from_edges(3, &[(0, 7)]) {
        Err(GraphError::NodeOutOfRange {
            node: 7,
            num_nodes: 3,
        }) => {}
        other => panic!("unexpected {other:?}"),
    }
    // Edge-list parse errors carry line numbers.
    let err = cfcc_graph::io::read_edge_list("0 1\nbroken\n".as_bytes()).unwrap_err();
    assert!(matches!(err, GraphError::Parse { line: 2, .. }));
}

#[test]
fn single_edge_graph_works_end_to_end() {
    // Smallest legal CFCM instance: n=2, k=1.
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    let sel = exact_greedy(&g, 1).unwrap();
    assert_eq!(sel.nodes.len(), 1);
    let score = cfcc::cfcc_group_exact(&g, &sel.nodes);
    // Tr(L_{-S}^{-1}) = 1 → C(S) = 2.
    assert!((score - 2.0).abs() < 1e-12);
    let p = CfcmParams::with_epsilon(0.3).seed(1);
    let f = forest_cfcm(&g, 1, &p).unwrap();
    assert_eq!(f.nodes.len(), 1);
}

#[test]
fn k_equals_n_minus_one_is_legal_everywhere() {
    let g = generators::cycle(6);
    let p = CfcmParams::with_epsilon(0.3).seed(2);
    for sel in [
        exact_greedy(&g, 5).unwrap(),
        forest_cfcm(&g, 5, &p).unwrap(),
        schur_cfcm(&g, 5, &p).unwrap(),
    ] {
        assert_eq!(sel.nodes.len(), 5);
        let set: std::collections::HashSet<_> = sel.nodes.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(cfcc::cfcc_group_exact(&g, &sel.nodes).is_finite());
    }
}

#[test]
fn tiny_forest_budgets_still_terminate_and_select() {
    // Starve the sampler: one forest per batch, cap of two. The estimates
    // are terrible but the algorithm must terminate with a valid group.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let g = generators::barabasi_albert(30, 2, &mut rng);
    let mut p = CfcmParams::with_epsilon(0.999_9).seed(3);
    p.min_batch = 1;
    p.max_forests = 2;
    let sel = forest_cfcm(&g, 4, &p).unwrap();
    assert_eq!(sel.nodes.len(), 4);
    let set: std::collections::HashSet<_> = sel.nodes.iter().collect();
    assert_eq!(set.len(), 4);
    // Schur path exercises the ridge fallback with such noisy F̃ estimates.
    let sel2 = schur_cfcm(&g, 4, &p).unwrap();
    assert_eq!(sel2.nodes.len(), 4);
}

#[test]
fn star_grounded_at_center_keeps_cg_exact() {
    // After grounding the hub, L_{-S} is the identity — CG must converge
    // in one iteration and the trace equal n-1 exactly.
    let g = generators::star(20);
    let trace = cfcc::grounded_trace_cg(&g, &[0], 1e-12).unwrap();
    assert!((trace - 19.0).abs() < 1e-9);
}
