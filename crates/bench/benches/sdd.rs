//! SDD backend ladder (BENCH_PR4): two sections over the unified
//! `SddSolver` registry.
//!
//! 1. **Dense vs sparse** (`sdd_factor_solve16`, carried over from
//!    BENCH_PR3): factor `L_{-S}` + 16 right-hand sides through
//!    `solve_mat`, `dense-cholesky` vs `sparse-cg`, n = 512…8192.
//! 2. **Blocked multi-RHS vs per-column**
//!    (`solve16_block_vs_col_sparse-cg`): the same 16-RHS workload
//!    answered by one blocked `solve_mat` (lockstep PCG, shared sweeps,
//!    deflation) vs sixteen independent `solve_vec` runs on an identical
//!    `sparse-cg` factor — baseline column = per-column, blocked column =
//!    `solve_mat`.
//!
//! * `CFCC_PRESET=smoke` (default): tiny sizes — the CI regression gate.
//! * `CFCC_PRESET=paper`: the full ladder; emits `BENCH_PR4.json` at the
//!   workspace root (override with `CFCC_BENCH_OUT`; setting it also
//!   forces emission under `smoke`).

use cfcc_bench::report::BenchReport;
use cfcc_bench::{banner, fmt_ratio, Preset};
use cfcc_graph::generators;
use cfcc_linalg::sdd::{by_name, SddOptions};
use cfcc_linalg::DenseMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Best-of-`reps` wall clock in milliseconds.
fn time_ms<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e3
}

fn random_rhs(rng: &mut SmallRng, rows: usize, cols: usize) -> DenseMatrix {
    let mut rhs = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            rhs.set(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    rhs
}

fn main() {
    let preset = Preset::from_env();
    banner(
        "sdd",
        "the SDD backend ladder: dense vs sparse, blocked vs per-column (BENCH_PR4)",
        preset,
    );
    let sizes: &[usize] = match preset {
        Preset::Smoke => &[256, 512],
        _ => &[512, 1024, 2048, 4096, 8192],
    };
    const W: usize = 16; // right-hand sides per factorization
    let opts = SddOptions::with_tol(1e-8);
    let mut report = BenchReport::new();

    // ---- 1. dense vs sparse: factor + 16-RHS solve_mat -----------------
    println!(
        "{:<32} {:>6} {:>12} {:>12} {:>9}",
        "workload", "n", "dense (ms)", "sparse (ms)", "speedup"
    );
    for &n in sizes {
        let reps = if n >= 2048 { 1 } else { 2 };
        let mut rng = SmallRng::seed_from_u64(0x5DD + n as u64);
        let g = generators::barabasi_albert(n, 4, &mut rng);
        let mut in_s = vec![false; n];
        in_s[0] = true;
        let rhs = random_rhs(&mut rng, n - 1, W);
        let run = |backend: &str| {
            let b = by_name(backend).expect("registered backend");
            time_ms(reps, || {
                let mut f = b.factor(&g, &in_s, &opts).expect("factor");
                f.solve_mat(&rhs).expect("solve")
            })
        };
        let dense_ms = run("dense-cholesky");
        let sparse_ms = run("sparse-cg");
        report.push("sdd_factor_solve16", n, dense_ms, sparse_ms);
        println!(
            "{:<32} {:>6} {:>12.2} {:>12.2} {:>9}",
            "sdd_factor_solve16",
            n,
            dense_ms,
            sparse_ms,
            fmt_ratio(dense_ms / sparse_ms)
        );
    }

    // ---- 2. blocked multi-RHS solve_mat vs per-column solve_vec --------
    println!(
        "\n{:<32} {:>6} {:>12} {:>12} {:>9}",
        "workload", "n", "col (ms)", "block (ms)", "speedup"
    );
    for &n in sizes {
        let reps = if n >= 2048 { 1 } else { 2 };
        let mut rng = SmallRng::seed_from_u64(0xB10C + n as u64);
        let g = generators::barabasi_albert(n, 4, &mut rng);
        let mut in_s = vec![false; n];
        in_s[0] = true;
        let d = n - 1;
        let rhs = random_rhs(&mut rng, d, W);
        let b = by_name("sparse-cg").expect("registered backend");
        // Factor outside the timed region: both sides solve through an
        // identical, already-built factor (cold start per column).
        let mut fc = b.factor(&g, &in_s, &opts).expect("factor");
        let col_ms = time_ms(reps, || {
            let mut col = vec![0.0; d];
            for j in 0..W {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = rhs.get(i, j);
                }
                fc.solve_vec(&col).expect("solve");
            }
        });
        let mut fb = b.factor(&g, &in_s, &opts).expect("factor");
        let block_ms = time_ms(reps, || fb.solve_mat(&rhs).expect("solve"));
        let name = "solve16_block_vs_col_sparse-cg";
        report.push(name, n, col_ms, block_ms);
        println!(
            "{:<32} {:>6} {:>12.2} {:>12.2} {:>9}",
            name,
            n,
            col_ms,
            block_ms,
            fmt_ratio(col_ms / block_ms)
        );
    }

    let out = std::env::var("CFCC_BENCH_OUT").ok();
    let emit = out.is_some() || preset != Preset::Smoke;
    if emit {
        let path = out
            .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR4.json").into());
        report
            .write(&path, "sdd", preset.name())
            .expect("write bench report");
        println!("\nwrote {path}");
    } else {
        println!("\nsmoke preset: report not written (set CFCC_BENCH_OUT to force)");
    }
}
