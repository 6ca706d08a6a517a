//! Integration tests for the beyond-the-paper extensions: the
//! random-walk cost utilities, exercised together with the core pipeline
//! on real (Karate) and generated graphs.

use cfcc_core::{exact::exact_greedy, kemeny};
use cfcc_datasets::karate;

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
