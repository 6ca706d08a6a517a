//! Cross-crate randomized property tests on the core mathematical
//! invariants the algorithms rely on.
//!
//! Originally written against `proptest`; the offline build environment has
//! no registry access, so each property is exercised over a deterministic
//! seeded case ladder instead (same invariants, same case counts).

use cfcc_graph::{generators, Graph, Node};
use cfcc_linalg::laplacian::laplacian_submatrix_dense;
use cfcc_linalg::pinv::{pseudoinverse_dense, resistance_distance};
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::vector::norm2_sq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Case generator: a connected scale-free graph with 8..40 nodes plus a
/// per-case RNG for auxiliary picks.
fn arb_graph(case: u64) -> (Graph, StdRng) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ case);
    let n = rng.gen_range(8usize..40);
    let g = generators::barabasi_albert(n, 2, &mut rng);
    (g, rng)
}

/// Resistance distance is a metric: symmetric, zero diagonal, triangle
/// inequality.
#[test]
fn resistance_is_a_metric() {
    for case in 0..CASES {
        let (g, mut rng) = arb_graph(case);
        let n = g.num_nodes();
        let p = pseudoinverse_dense(&g);
        let (i, j, l) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
        );
        let rij = resistance_distance(&p, i, j);
        let rji = resistance_distance(&p, j, i);
        assert!((rij - rji).abs() < 1e-9);
        assert!(resistance_distance(&p, i, i).abs() < 1e-9);
        assert!(rij >= -1e-12);
        let ril = resistance_distance(&p, i, l);
        let rlj = resistance_distance(&p, l, j);
        assert!(rij <= ril + rlj + 1e-9, "triangle: {rij} > {ril} + {rlj}");
    }
}

/// Eq. (1) ≡ Eq. (2): R(i,j) = (L_{-i}^{-1})_{jj}.
#[test]
fn eq1_equals_eq2() {
    for case in 0..CASES {
        let (g, mut rng) = arb_graph(case);
        let n = g.num_nodes();
        let i = rng.gen_range(0..n);
        let p = pseudoinverse_dense(&g);
        let mut in_s = vec![false; n];
        in_s[i] = true;
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_s);
        let inv = sub.cholesky().unwrap().inverse();
        for (cj, &j) in keep.iter().enumerate() {
            let r1 = resistance_distance(&p, i, j as usize);
            let r2 = inv.get(cj, cj);
            assert!((r1 - r2).abs() < 1e-7, "i={i} j={j}: {r1} vs {r2}");
        }
    }
}

/// Tr(L_{-S}^{-1}) is monotone decreasing under adding nodes to S, and the
/// marginal drops are supermodular (diminishing in S).
#[test]
fn trace_monotone_and_supermodular() {
    let mut done = 0u64;
    let mut case = 0u64;
    while done < CASES {
        let (g, mut rng) = arb_graph(0x5_0000 + case);
        case += 1;
        let n = g.num_nodes();
        let mut nodes: Vec<Node> = (0..3).map(|_| rng.gen_range(0..n) as Node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() != 3 {
            continue; // rejection sampling, as prop_assume did
        }
        done += 1;
        let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
        let tr = |s: &[Node]| cfcc_core::cfcc::grounded_trace_exact(&g, s);
        // monotone: adding b to {a} decreases the trace.
        let t_a = tr(&[a]);
        let t_ab = tr(&[a, b]);
        assert!(t_ab < t_a + 1e-12);
        // supermodular marginals of Tr (Eq. 5 gains diminish):
        // gain of c given {a} ≥ gain of c given {a,b}.
        let gain_small = t_a - tr(&[a, c]);
        let gain_large = t_ab - tr(&[a, b, c]);
        assert!(
            gain_small >= gain_large - 1e-9,
            "supermodularity violated: {gain_small} < {gain_large}"
        );
    }
}

/// The `sparse-cg` backend's PCG agrees with the dense Cholesky solve on
/// L_{-S}.
#[test]
fn cg_matches_dense() {
    for case in 0..CASES {
        let (g, mut rng) = arb_graph(0x6_0000 + case);
        let n = g.num_nodes();
        let mut in_s = vec![false; n];
        in_s[rng.gen_range(0..n)] = true;
        let (sub, _) = laplacian_submatrix_dense(&g, &in_s);
        let ch = sub.cholesky().unwrap();
        let mut factor = sdd::factor(
            &g,
            &in_s,
            SddBackend::SparseCg,
            &SddOptions::with_tol(1e-12),
        )
        .unwrap();
        let b: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = factor.solve_vec(&b).unwrap();
        let exact = ch.solve(&b);
        for i in 0..x.len() {
            assert!((x[i] - exact[i]).abs() < 1e-6);
        }
    }
}

/// Wilson's sampler returns a valid spanning forest rooted exactly at S.
#[test]
fn wilson_forest_valid() {
    for case in 0..CASES {
        let (g, mut rng) = arb_graph(0x7_0000 + case);
        let n = g.num_nodes();
        let mut in_root = vec![false; n];
        in_root[rng.gen_range(0..n)] = true;
        in_root[rng.gen_range(0..n)] = true;
        let mut wilson_rng = rand::rngs::SmallRng::seed_from_u64(rng.gen_range(0u64..100));
        let f = cfcc_forest::sample_forest(&g, &in_root, &mut wilson_rng);
        f.validate(&g, &in_root);
    }
}

/// The rank-one removal identity behind Exact/Optimum:
/// Tr(L_{-(S∪u)}^{-1}) = Tr(M) − ‖M e_u‖²/M_uu.
#[test]
fn rank_one_trace_identity() {
    let mut done = 0u64;
    let mut case = 0u64;
    while done < CASES {
        let (g, mut rng) = arb_graph(0x8_0000 + case);
        case += 1;
        let n = g.num_nodes();
        let s = rng.gen_range(0..n) as Node;
        let u = rng.gen_range(0..n) as Node;
        if s == u {
            continue;
        }
        done += 1;
        let mut in_s = vec![false; n];
        in_s[s as usize] = true;
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_s);
        let m = sub.cholesky().unwrap().inverse();
        let cu = keep.iter().position(|&x| x == u).unwrap();
        let predicted = m.trace() - norm2_sq(m.row(cu)) / m.get(cu, cu);
        let actual = cfcc_core::cfcc::grounded_trace_exact(&g, &[s, u]);
        assert!((predicted - actual).abs() < 1e-8, "{predicted} vs {actual}");
    }
}

/// Generator invariants: scale-free proxies are connected, with the
/// requested node count and near-requested edge count.
#[test]
fn generator_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9_0000 ^ case);
        let n = rng.gen_range(16usize..200);
        let m_target = 3 * n;
        let g = generators::scale_free_with_edges(n, m_target, &mut rng);
        assert_eq!(g.num_nodes(), n);
        assert!(g.is_connected());
        let err = (g.num_edges() as f64 - m_target as f64).abs() / m_target as f64;
        assert!(err < 0.05, "edges {} vs target {m_target}", g.num_edges());
        assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }
}
