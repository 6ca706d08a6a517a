//! Integration of the dataset suite with the solvers: every registry entry
//! generates a usable workload and the full pipeline runs on representative
//! proxies at reduced scale.

use cfcc_core::{
    cfcc, forest_cfcm::forest_cfcm, params::t_star, schur_cfcm::schur_cfcm, CfcmParams,
};
use cfcc_graph::diameter::diameter_double_sweep;

#[test]
fn all_small_specs_generate_connected_graphs() {
    for spec in cfcc_datasets::all_specs() {
        if spec.paper_nodes > 10_000 {
            continue; // large tiers covered at reduced scale below
        }
        let g = cfcc_datasets::generate(spec, 1.0);
        assert!(g.is_connected(), "{} must be connected", spec.name);
        assert_eq!(g.num_nodes(), spec.paper_nodes, "{} node count", spec.name);
    }
}

#[test]
fn large_specs_generate_at_reduced_scale() {
    for name in ["gowalla", "com-dblp", "skitter"] {
        let spec = cfcc_datasets::spec(name).unwrap();
        let scale = 2_000.0 / spec.paper_nodes as f64;
        let g = cfcc_datasets::generate(spec, scale);
        assert!(g.is_connected(), "{name} proxy must be connected");
        assert!(g.num_nodes() >= 1_000);
        // Density is preserved under scaling.
        let paper_density = spec.paper_edges as f64 / spec.paper_nodes as f64;
        let got_density = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (got_density - paper_density).abs() / paper_density < 0.25,
            "{name}: density {got_density} vs paper {paper_density}"
        );
    }
}

#[test]
fn road_proxy_is_structurally_roadlike() {
    let g = cfcc_datasets::by_name("euroroads", 1.0).unwrap();
    // Euroroads in the paper: n=1039, m=1305, τ=62, max degree small.
    assert_eq!(g.num_nodes(), 1039);
    assert!(g.max_degree() <= 12, "road max degree {}", g.max_degree());
    assert!(diameter_double_sweep(&g, 0, 4) >= 25);
    // |T*| should be tiny, like the paper's 7.
    let c = t_star(&g);
    assert!(c <= 25, "|T*|={c} too large for a road network");
}

#[test]
fn scale_free_proxy_t_star_in_paper_ballpark() {
    // Hamsterster paper |T*| = 58 at n=2000; the proxy should land within
    // a factor ~3 (topology-matched, not edge-identical).
    let g = cfcc_datasets::by_name("hamsterster", 1.0).unwrap();
    let c = t_star(&g);
    assert!((15..=180).contains(&c), "|T*|={c}");
}

#[test]
fn end_to_end_on_euroroads_proxy() {
    // Half-scale proxy (n ≈ 520) and dense exact evaluation: the
    // full-scale variant of this test evaluated three groups through
    // per-node CG solves on a large-diameter road network — ~3 minutes of
    // debug-mode test time for the same assertions. Road structure (low
    // max degree, long diameter) is preserved under dataset scaling, and
    // the release-mode `table2` example covers the full-scale graph.
    let g = cfcc_datasets::by_name("euroroads", 0.5).unwrap();
    let mut params = CfcmParams::with_epsilon(0.3).seed(17);
    // Half the default forest budget: random walks mix slowly on road
    // topologies, and the adaptive stop rarely needs the full ceiling for
    // the coarse assertions below.
    params.max_forests = 2048;
    let k = 5;
    let forest = forest_cfcm(&g, k, &params).unwrap();
    let schur = schur_cfcm(&g, k, &params).unwrap();
    let cf = cfcc::cfcc_group_exact(&g, &forest.nodes);
    let cs = cfcc::cfcc_group_exact(&g, &schur.nodes);
    // Both must decisively beat a random-ish group of the same size.
    let arbitrary: Vec<u32> = (100..100 + k as u32).collect();
    let ca = cfcc::cfcc_group_exact(&g, &arbitrary);
    assert!(cf > ca, "forest {cf} vs arbitrary {ca}");
    assert!(cs > ca, "schur {cs} vs arbitrary {ca}");
    // And land within 10% of each other.
    assert!(
        (cf - cs).abs() / cf.max(cs) < 0.1,
        "forest {cf} vs schur {cs}"
    );
}

#[test]
fn end_to_end_on_scaled_social_proxy() {
    let spec = cfcc_datasets::spec("facebook").unwrap();
    let g = cfcc_datasets::generate(spec, 0.2); // ~800 nodes, density kept
    let params = CfcmParams::with_epsilon(0.3).seed(19);
    let sel = schur_cfcm(&g, 8, &params).unwrap();
    assert_eq!(sel.nodes.len(), 8);
    let score = cfcc::cfcc_group_exact(&g, &sel.nodes);
    let exact = cfcc_core::exact::exact_greedy(&g, 8).unwrap();
    let best = cfcc::cfcc_group_exact(&g, &exact.nodes);
    assert!(score >= 0.95 * best, "schur {score} vs exact-greedy {best}");
}
