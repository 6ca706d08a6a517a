//! End-to-end pipeline tests across all crates: every algorithm against
//! every other on shared workloads, quality vs the exhaustive optimum,
//! determinism, and thread-count independence.

use cfcc_core::{
    approx_greedy::approx_greedy, cfcc::cfcc_group_exact, exact::exact_greedy,
    forest_cfcm::forest_cfcm, heuristics, optimum::optimum_cfcm, schur_cfcm::schur_cfcm,
    CfcmParams,
};
use cfcc_datasets::{contiguous_usa, karate};

#[test]
fn karate_all_algorithms_near_optimum() {
    let g = karate();
    let k = 3;
    let opt = optimum_cfcm(&g, k).unwrap();
    let params = CfcmParams::with_epsilon(0.15).seed(42);

    let exact = exact_greedy(&g, k).unwrap();
    let approx = approx_greedy(&g, k, &params).unwrap();
    let forest = forest_cfcm(&g, k, &params).unwrap();
    let schur = schur_cfcm(&g, k, &params).unwrap();

    for (name, sel) in [
        ("exact", &exact),
        ("approx", &approx),
        ("forest", &forest),
        ("schur", &schur),
    ] {
        let c = cfcc_group_exact(&g, &sel.nodes);
        // Paper Fig. 1: all greedy variants nearly match the optimum.
        assert!(
            c >= 0.95 * opt.cfcc,
            "{name}: C(S)={c} vs optimum {}",
            opt.cfcc
        );
    }
}

#[test]
fn karate_greedy_beats_heuristics() {
    let g = karate();
    let k = 4;
    let exact = exact_greedy(&g, k).unwrap();
    let degree = heuristics::degree_baseline(&g, k).unwrap();
    let topc = heuristics::top_cfcc_exact(&g, k).unwrap();
    let ce = cfcc_group_exact(&g, &exact.nodes);
    let cd = cfcc_group_exact(&g, &degree.nodes);
    let ct = cfcc_group_exact(&g, &topc.nodes);
    assert!(ce >= cd - 1e-12, "greedy {ce} vs degree {cd}");
    assert!(ce >= ct - 1e-12, "greedy {ce} vs top-cfcc {ct}");
}

#[test]
fn usa_exact_greedy_approximation_bound_vs_optimum() {
    // Theorem 3.11-style sanity: greedy should be well within the
    // (1 - (k/(k-1))/e) trace-gap guarantee against the optimum.
    let g = contiguous_usa();
    let k = 3;
    let opt = optimum_cfcm(&g, k).unwrap();
    let greedy = exact_greedy(&g, k).unwrap();
    let c_greedy = cfcc_group_exact(&g, &greedy.nodes);
    assert!(
        c_greedy >= 0.9 * opt.cfcc,
        "greedy {c_greedy} vs optimum {}",
        opt.cfcc
    );
}

#[test]
fn thread_count_does_not_change_selection() {
    let g = cfcc_datasets::by_name("dolphins", 1.0).unwrap();
    let base = CfcmParams::with_epsilon(0.2).seed(7);
    let serial = forest_cfcm(&g, 4, &base.clone().threads(1)).unwrap();
    let parallel = forest_cfcm(&g, 4, &base.threads(4)).unwrap();
    assert_eq!(serial.nodes, parallel.nodes);

    let base = CfcmParams::with_epsilon(0.2).seed(7);
    let s1 = schur_cfcm(&g, 4, &base.clone().threads(1)).unwrap();
    let s2 = schur_cfcm(&g, 4, &base.threads(3)).unwrap();
    assert_eq!(s1.nodes, s2.nodes);
}

#[test]
fn forest_solvers_pick_exact_greedys_nodes_on_fig1_graphs() {
    // Fig. 1's graphs and parameters (examples/fig1.rs): every forest
    // phase decides by exact solves among its screened candidates, so both
    // forest solvers select exact greedy's nodes, at 1 and 2 threads.
    let k = 5;
    for name in cfcc_datasets::suites::TINY {
        let g = cfcc_datasets::by_name(name, 1.0).unwrap();
        let exact = exact_greedy(&g, k).unwrap();
        for threads in [1, 2] {
            let mut params = CfcmParams::with_epsilon(0.2).seed(0xBEEF).threads(threads);
            params.max_forests = 2048;
            let forest = forest_cfcm(&g, k, &params).unwrap();
            let schur = schur_cfcm(&g, k, &params).unwrap();
            assert_eq!(
                forest.nodes, exact.nodes,
                "forest on {name}, {threads} threads"
            );
            assert_eq!(
                schur.nodes, exact.nodes,
                "schur on {name}, {threads} threads"
            );
        }
    }
}

#[test]
fn forest_and_schur_agree_on_clear_structure() {
    // A barbell has an unambiguous best group: the bridge region.
    let g = cfcc_graph::generators::barbell(10, 3);
    let params = CfcmParams::with_epsilon(0.2).seed(3);
    let forest = forest_cfcm(&g, 1, &params).unwrap();
    let schur = schur_cfcm(&g, 1, &params).unwrap();
    let exact = exact_greedy(&g, 1).unwrap();
    let bridge: Vec<u32> = (10..13).collect();
    assert!(bridge.contains(&exact.nodes[0]));
    assert!(
        bridge.contains(&forest.nodes[0]),
        "forest chose {}",
        forest.nodes[0]
    );
    assert!(
        bridge.contains(&schur.nodes[0]),
        "schur chose {}",
        schur.nodes[0]
    );
}

#[test]
fn selections_are_reported_with_stats() {
    let g = karate();
    let params = CfcmParams::with_epsilon(0.3).seed(1);
    let sel = schur_cfcm(&g, 3, &params).unwrap();
    assert_eq!(sel.stats.iterations.len(), 3);
    assert!(sel.stats.total_forests() > 0);
    assert!(sel.stats.total_walk_steps() > 0);
    assert!(sel.stats.total_seconds() > 0.0);
    // Marginal gains are present for iterations ≥ 2 and decreasing-ish
    // (supermodularity up to MC noise).
    let g1 = sel.stats.iterations[1].gain;
    let g2 = sel.stats.iterations[2].gain;
    assert!(g1.is_finite() && g2.is_finite());
    assert!(g2 <= 1.5 * g1, "gains should not explode: {g1} then {g2}");
}

#[test]
fn larger_epsilon_is_not_slower() {
    // ε controls the adaptive budget: ε=0.4 must sample no more forests
    // than ε=0.15 on the same workload.
    let g = cfcc_datasets::by_name("zebra", 1.0).unwrap();
    let loose = forest_cfcm(&g, 3, &CfcmParams::with_epsilon(0.4).seed(5)).unwrap();
    let tight = forest_cfcm(&g, 3, &CfcmParams::with_epsilon(0.15).seed(5)).unwrap();
    assert!(
        loose.stats.total_forests() <= tight.stats.total_forests(),
        "loose {} vs tight {}",
        loose.stats.total_forests(),
        tight.stats.total_forests()
    );
}
