//! Property tests for the blocked kernel engine: seeded random matrices
//! across sizes straddling every block boundary (`MR`/`NR` tiles, `NB`
//! panels, `MC`/`KC`/`NC` cache blocks), compared against the retained
//! naive reference kernels to ≤ 1e-9 *relative* error, plus bit-level
//! determinism across thread counts.

use cfcc_linalg::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes chosen to hit remainder tiles and cross the panel width `NB = 64`
/// and the `MC = 128` row block.
const SIZES: &[usize] = &[1, 2, 3, 5, 17, 31, 64, 65, 97, 130, 150];

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m.set(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    m
}

/// Random SPD matrix: `AᵀA + n·I` for a random square `A`.
fn random_spd(rng: &mut StdRng, n: usize) -> DenseMatrix {
    let a = random_matrix(rng, n, n);
    let mut spd = a.gram();
    spd.add_ridge(n as f64);
    spd
}

fn rel_diff(got: &DenseMatrix, want: &DenseMatrix) -> f64 {
    let scale = want.data().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    got.max_abs_diff(want) / scale
}

#[test]
fn blocked_gemm_matches_naive_reference() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for &n in SIZES {
        // Rectangular shapes around n exercise non-square panels too.
        let (m, k) = (n + 3, (2 * n).max(1));
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let want = a.matmul_naive(&b);
        for threads in [1, 4] {
            let got = a.matmul_threaded(&b, threads);
            assert!(
                rel_diff(&got, &want) < 1e-9,
                "gemm m={m} n={n} k={k} threads={threads}"
            );
        }
    }
}

#[test]
fn blocked_syrk_matches_naive_gram() {
    let mut rng = StdRng::seed_from_u64(0x57AC);
    for &n in SIZES {
        let a = random_matrix(&mut rng, n + 7, n);
        let want = a.transpose().matmul_naive(&a);
        let got = a.gram();
        assert!(rel_diff(&got, &want) < 1e-9, "syrk/gram n={n}");
    }
}

#[test]
fn blocked_cholesky_matches_naive_on_random_spd() {
    let mut rng = StdRng::seed_from_u64(0xC401);
    for &n in SIZES {
        let spd = random_spd(&mut rng, n);
        let blocked = spd.cholesky().expect("blocked SPD factor");
        let naive = spd.cholesky_naive().expect("naive SPD factor");
        for i in 0..n {
            for j in 0..=i {
                let (b, v) = (blocked.factor_get(i, j), naive.factor_get(i, j));
                assert!(
                    (b - v).abs() <= 1e-9 * v.abs().max(1.0),
                    "L[{i},{j}] blocked {b} vs naive {v} (n={n})"
                );
            }
        }
        // And the factor actually reconstructs A.
        let l = DenseMatrix::from_vec(
            n,
            n,
            (0..n * n)
                .map(|ix| blocked.factor_get(ix / n, ix % n))
                .collect(),
        );
        let rec = l.matmul(&l.transpose());
        assert!(rel_diff(&rec, &spd) < 1e-9, "reconstruction n={n}");
    }
}

#[test]
fn blocked_solve_mat_matches_naive_inverse_product() {
    let mut rng = StdRng::seed_from_u64(0x501E);
    for &n in SIZES {
        let spd = random_spd(&mut rng, n);
        let b = random_matrix(&mut rng, n, (n / 2).max(1));
        let ch = spd.cholesky().unwrap();
        let x = ch.solve_mat(&b);
        // Oracle: naive inverse times B with the naive product.
        let want = spd
            .cholesky_naive()
            .unwrap()
            .inverse_naive()
            .matmul_naive(&b);
        assert!(rel_diff(&x, &want) < 1e-9, "solve_mat n={n}");
        // Residual check independent of the oracle.
        let ax = spd.matmul(&x);
        assert!(rel_diff(&ax, &b) < 1e-9, "residual n={n}");
    }
}

#[test]
fn blocked_inverse_matches_naive_inverse() {
    let mut rng = StdRng::seed_from_u64(0x1EF5);
    for &n in SIZES {
        let spd = random_spd(&mut rng, n);
        let got = spd.cholesky().unwrap().inverse();
        let want = spd.cholesky_naive().unwrap().inverse_naive();
        assert!(rel_diff(&got, &want) < 1e-9, "inverse n={n}");
    }
}

#[test]
fn kernels_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xDE7E);
    let n = 140;
    let a = random_matrix(&mut rng, n, n);
    let b = random_matrix(&mut rng, n, n);
    let spd = random_spd(&mut rng, n);
    let rhs = random_matrix(&mut rng, n, 40);
    let serial_mm = a.matmul_threaded(&b, 1);
    let serial_ch = spd.cholesky_threaded(1).unwrap();
    let serial_inv = serial_ch.inverse_threaded(1);
    // The blocked forward and backward triangular solves.
    let solve = |threads| {
        let mut x = rhs.clone();
        serial_ch.solve_mat_in_place(&mut x, threads);
        x
    };
    let serial_solve = solve(1);
    for threads in [2, 4] {
        assert_eq!(
            a.matmul_threaded(&b, threads).data(),
            serial_mm.data(),
            "matmul threads={threads}"
        );
        let ch = spd.cholesky_threaded(threads).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    ch.factor_get(i, j),
                    serial_ch.factor_get(i, j),
                    "cholesky factor threads={threads} at ({i},{j})"
                );
            }
        }
        assert_eq!(
            ch.inverse_threaded(threads).data(),
            serial_inv.data(),
            "inverse threads={threads}"
        );
        assert_eq!(
            solve(threads).data(),
            serial_solve.data(),
            "solve_mat_in_place threads={threads}"
        );
    }
}
