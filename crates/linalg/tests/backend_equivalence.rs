//! Backend-equivalence property tests for the SDD front door
//! (`sdd::factor`): `dense-cholesky` and the CSR/IC(0) `sparse-cg`
//! backend must agree to ≤ 1e-8 *relative* error on `solve_mat`
//! (multi-column RHS — `sparse-cg` answers it with blocked multi-RHS
//! PCG), `diag_inverse`, and `trace_inverse` over random connected graphs
//! (seeded loops — the offline stand-in for proptest).

use cfcc_graph::{generators, Graph};
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected test graph per trial (generators guarantee
/// connectivity for these families).
fn trial_graph(trial: u64, rng: &mut StdRng) -> Graph {
    match trial % 4 {
        0 => generators::barabasi_albert(60 + 9 * trial as usize, 3, rng),
        1 => generators::erdos_renyi_gnm(80, 320, rng),
        2 => generators::grid(9, 8),
        _ => generators::watts_strogatz(90, 6, 0.2, rng),
    }
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

#[test]
fn backends_agree_on_solve_mat_diag_and_trace() {
    let mut rng = StdRng::seed_from_u64(0x5DD0);
    let opts = SddOptions::with_tol(1e-12);
    for trial in 0..8u64 {
        let g = trial_graph(trial, &mut rng);
        let n = g.num_nodes();
        let mut in_s = vec![false; n];
        in_s[rng.gen_range(0..n as u32) as usize] = true;
        if trial % 2 == 0 {
            in_s[rng.gen_range(0..n as u32) as usize] = true;
        }
        let d = in_s.iter().filter(|&&s| !s).count();
        let mut rhs = DenseMatrix::zeros(d, 5);
        for i in 0..d {
            for j in 0..5 {
                rhs.set(i, j, rng.gen_range(-1.0..1.0));
            }
        }

        // Reference: the direct dense factorization.
        let mut fd = sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &opts).unwrap();
        let x_ref = fd.solve_mat(&rhs).unwrap();
        let diag_ref = fd.diag_inverse().unwrap();
        let trace_ref = fd.trace_inverse().unwrap();

        let mut f = sdd::factor(&g, &in_s, SddBackend::SparseCg, &opts).unwrap();
        assert_eq!(f.dim(), d);
        let x = f.solve_mat(&rhs).unwrap();
        let scale = x_ref
            .data()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for i in 0..d {
            for j in 0..5 {
                assert!(
                    (x.get(i, j) - x_ref.get(i, j)).abs() / scale <= 1e-8,
                    "trial {trial}: solve_mat[{i}][{j}] {} vs {}",
                    x.get(i, j),
                    x_ref.get(i, j)
                );
            }
        }
        let diag = f.diag_inverse().unwrap();
        for i in 0..d {
            assert!(
                rel_err(diag[i], diag_ref[i]) <= 1e-8,
                "trial {trial}: diag_inverse[{i}] {} vs {}",
                diag[i],
                diag_ref[i]
            );
        }
        let trace = f.trace_inverse().unwrap();
        assert!(
            rel_err(trace, trace_ref) <= 1e-8,
            "trial {trial}: trace {trace} vs {trace_ref}"
        );
    }
}

#[test]
fn backends_agree_after_regrounding_a_larger_set() {
    // Greedy-style usage: refactor with a grown S and re-check agreement
    // (the compact index space shifts under the callers' feet — the
    // factors must present the same kept-node ordering).
    let mut rng = StdRng::seed_from_u64(0x5DD1);
    let g = generators::barabasi_albert(70, 2, &mut rng);
    let opts = SddOptions::with_tol(1e-12);
    let mut in_s = vec![false; 70];
    for step in 0..3 {
        in_s[7 * (step + 1)] = true;
        let mut traces = Vec::new();
        let mut kepts = Vec::new();
        for backend in [SddBackend::DenseCholesky, SddBackend::SparseCg] {
            let mut f = sdd::factor(&g, &in_s, backend, &opts).unwrap();
            kepts.push(f.kept_nodes().to_vec());
            traces.push(f.trace_inverse().unwrap());
        }
        assert_eq!(kepts[0], kepts[1]);
        for t in &traces[1..] {
            assert!(rel_err(*t, traces[0]) <= 1e-8, "step {step}: {traces:?}");
        }
    }
}

#[test]
fn sparse_backend_handles_a_path_graph_ill_conditioning() {
    // Path graphs are the CG-hostile case (condition number ~ n²); the
    // IC(0) preconditioner must still reach the tolerance quickly.
    let g = generators::path(600);
    let mut in_s = vec![false; 600];
    in_s[0] = true;
    let mut f = sdd::factor(
        &g,
        &in_s,
        SddBackend::SparseCg,
        &SddOptions::with_tol(1e-10),
    )
    .unwrap();
    let b = vec![1.0; 599];
    let x = f.solve_vec(&b).unwrap();
    // Grounded path solution against e.g. the known closed form of the
    // all-ones RHS: x_i = sum over j of min(i,j) relation; just check the
    // residual directly instead.
    let mut fd = sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &SddOptions::default()).unwrap();
    let x_ref = fd.solve_vec(&b).unwrap();
    let scale = x_ref.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    for i in 0..599 {
        assert!((x[i] - x_ref[i]).abs() / scale <= 1e-8, "i={i}");
    }
    // IC(0) is exact on a path, so PCG needs only a handful of iterations
    // where Jacobi-CG needs O(n).
    assert!(
        f.stats().iterations <= 5,
        "IC(0) on a tree should converge immediately, took {}",
        f.stats().iterations
    );
}
