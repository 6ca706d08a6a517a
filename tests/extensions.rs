//! Integration tests for the beyond-the-paper extensions:
//! edge-addition CFCM and the random-walk cost utilities, exercised
//! together with the core pipeline on real (Karate) and proxy datasets.

use cfcc_core::{
    cfcc, edge_addition, exact::exact_greedy, kemeny, schur_cfcm::schur_cfcm, CfcmParams,
};
use cfcc_datasets::karate;

#[test]
fn edge_addition_improves_a_cfcm_selection() {
    // Select a group with SchurCFCM, then reinforce it with 3 new edges:
    // C(S) must strictly improve and match the predicted trace drops.
    let g = karate();
    let params = CfcmParams::with_epsilon(0.2).seed(23);
    let sel = schur_cfcm(&g, 3, &params).unwrap();
    let before = cfcc::cfcc_group_exact(&g, &sel.nodes);
    let res = edge_addition::greedy_edge_addition(&g, &sel.nodes, 3, &params).unwrap();
    assert_eq!(res.edges.len(), 3);
    assert!(res.improvement() > 1.0);
    let after = g.num_nodes() as f64 / res.trace_after;
    assert!(after > before, "C(S) {before} -> {after}");
    // All additions attach the group to previously non-adjacent nodes.
    for e in &res.edges {
        assert!(!g.has_edge(e.group_end, e.outside_end));
    }
}

#[test]
fn edge_gains_prefer_electrically_remote_nodes() {
    // On a barbell grounded in one clique, the best new edge reaches into
    // the far clique (largest resistance to S).
    let g = cfcc_graph::generators::barbell(6, 4);
    let group = vec![0u32, 1];
    let params = CfcmParams::default();
    let res = edge_addition::greedy_edge_addition(&g, &group, 1, &params).unwrap();
    let far_clique: Vec<u32> = (10..16).collect();
    assert!(
        far_clique.contains(&res.edges[0].outside_end),
        "expected a far-clique endpoint, got {:?}",
        res.edges[0]
    );
}

#[test]
fn absorption_cost_explains_schur_speedup_on_karate() {
    // Lemma 3.7 chain: exact absorption cost with S alone exceeds the cost
    // with S ∪ T, and the sampled Wilson costs agree with both.
    let g = karate();
    let exact1 = exact_greedy(&g, 1).unwrap();
    let s = exact1.nodes.clone();
    let mut st = s.clone();
    for &t in cfcc_core::params::top_degree_nodes(&g, 4).iter() {
        if !st.contains(&t) {
            st.push(t);
        }
    }
    let cost_s = kemeny::absorption_cost_exact(&g, &s).unwrap();
    let cost_st = kemeny::absorption_cost_exact(&g, &st).unwrap();
    assert!(cost_st < cost_s);
    let sampled_s = kemeny::absorption_cost_sampled(&g, &s, 8000, 7, 2).unwrap();
    let sampled_st = kemeny::absorption_cost_sampled(&g, &st, 8000, 7, 2).unwrap();
    assert!(
        (sampled_s - cost_s).abs() / cost_s < 0.08,
        "{sampled_s} vs {cost_s}"
    );
    assert!(
        (sampled_st - cost_st).abs() / cost_st < 0.08,
        "{sampled_st} vs {cost_st}"
    );
}

#[test]
fn kemeny_constant_scales_with_bottlenecks() {
    // A barbell mixes far slower than a same-size scale-free graph.
    let barbell = cfcc_graph::generators::barbell(15, 2);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let sf = cfcc_graph::generators::scale_free_with_edges(32, 107, &mut rng);
    let k_barbell = kemeny::kemeny_constant_exact(&barbell);
    let k_sf = kemeny::kemeny_constant_exact(&sf);
    assert!(
        k_barbell > 2.0 * k_sf,
        "barbell K={k_barbell} should dwarf scale-free K={k_sf}"
    );
}

#[test]
fn sampled_edge_gains_available_at_scale() {
    let g = cfcc_datasets::by_name("dolphins", 1.0).unwrap();
    let mut params = CfcmParams::with_epsilon(0.2).seed(9);
    params.min_batch = 1024;
    params.max_forests = 1024;
    let gains = edge_addition::sampled_edge_gains(&g, &[0, 5], &params).unwrap();
    assert_eq!(gains.len(), g.num_nodes() - 2);
    assert!(gains.iter().all(|&(_, g)| g.is_finite() && g >= 0.0));
}
