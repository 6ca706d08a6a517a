//! Breakdown-path tests for mid-solve cancellation on the iterative
//! `sparse-cg` backend:
//!
//! * a hook that fires on the very first poll interrupts at iteration 0
//!   with a typed error, not a poisoned result;
//! * hooks firing at arbitrary points across the convergence range —
//!   including mid-deflation, while the blocked PCG is retiring converged
//!   columns — leave the partial iterate warm-start consistent: clearing
//!   the hook and re-solving the same buffers converges to the dense
//!   reference, in no more (and near convergence strictly fewer)
//!   iterations than a cold solve;
//! * both installation seams behave identically: `SddOptions::stop` at
//!   factor time and `SddFactor::set_stop` on a live factor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfcc_graph::generators;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::{DenseMatrix, LinalgError, StopCause, StopHook};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITERATIVE: [SddBackend; 1] = [SddBackend::SparseCg];

/// A hook that fires `cause` on the `nth` poll (1-based) and counts.
fn nth_poll_hook(nth: u64, cause: StopCause) -> (StopHook, Arc<AtomicU64>) {
    let count = Arc::new(AtomicU64::new(0));
    let probe = Arc::clone(&count);
    let hook = StopHook::new(move || {
        if probe.fetch_add(1, Ordering::Relaxed) + 1 >= nth {
            Some(cause)
        } else {
            None
        }
    });
    (hook, count)
}

#[test]
fn immediate_cancel_interrupts_at_iteration_zero() {
    let mut rng = StdRng::seed_from_u64(0xCA0);
    let g = generators::barabasi_albert(120, 3, &mut rng);
    let mut in_s = vec![false; 120];
    in_s[7] = true;
    let b = vec![1.0; 119];
    for backend in ITERATIVE {
        // Seam 1: the hook rides in at factor time through SddOptions.
        let opts = SddOptions {
            stop: StopHook::new(|| Some(StopCause::Cancelled)),
            ..SddOptions::with_tol(1e-10)
        };
        let mut f = sdd::factor(&g, &in_s, backend, &opts).unwrap();
        let err = f.solve_vec(&b).unwrap_err();
        assert!(
            matches!(err, LinalgError::Cancelled { iterations: 0 }),
            "{backend}: {err:?}"
        );
        assert!(err.is_interruption(), "{backend}");
        // The aborted solve still folded its (zero) partial work into the
        // cumulative stats instead of losing the accounting.
        assert_eq!(f.stats().solves, 1, "{backend}");
        assert_eq!(f.stats().iterations, 0, "{backend}");

        // Seam 2: same behavior when installed on a live factor, and a
        // deadline cause keeps its identity.
        let mut f = sdd::factor(&g, &in_s, backend, &SddOptions::with_tol(1e-10)).unwrap();
        f.set_stop(StopHook::new(|| Some(StopCause::DeadlineExceeded)));
        let err = f.solve_vec(&b).unwrap_err();
        assert!(
            matches!(err, LinalgError::DeadlineExceeded { iterations: 0 }),
            "{backend}: {err:?}"
        );
        // Clearing the hook restores the factor for reuse.
        f.set_stop(StopHook::none());
        f.solve_vec(&b).unwrap();
    }
}

#[test]
fn aborted_block_solve_resumes_from_the_partial_iterate() {
    let mut rng = StdRng::seed_from_u64(0xCA1);
    let g = generators::grid(18, 17);
    let n = 18 * 17;
    let mut in_s = vec![false; n];
    in_s[0] = true;
    in_s[151] = true;
    let d = n - 2;
    // Columns of very different scales so they converge (and deflate) at
    // different iterations — abort points then land mid-compaction.
    let w = 8;
    let mut rhs = DenseMatrix::zeros(d, w);
    for j in 0..w {
        let scale = 10f64.powi(j as i32 - 4);
        for i in 0..d {
            rhs.set(i, j, scale * rng.gen_range(-1.0..1.0f64));
        }
    }
    let opts = SddOptions::with_tol(1e-10);
    let mut x_ref = DenseMatrix::zeros(d, w);
    sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &SddOptions::default())
        .unwrap()
        .solve_mat_into(&rhs, &mut x_ref)
        .unwrap();
    let ref_scale = x_ref
        .data()
        .iter()
        .fold(f64::MIN_POSITIVE, |m, &v| m.max(v.abs()));

    for backend in ITERATIVE {
        // Cold run with a counting, never-firing hook: `cold_iters` is the
        // stats yardstick, `total_polls` the number of block sweeps (the
        // hook fires once per sweep, not once per column-iteration).
        let mut f = sdd::factor(&g, &in_s, backend, &opts).unwrap();
        let (hook, polls) = nth_poll_hook(u64::MAX, StopCause::Cancelled);
        f.set_stop(hook);
        let mut x = DenseMatrix::zeros(d, w);
        f.solve_mat_into(&rhs, &mut x).unwrap();
        let cold_iters = f.stats().iterations;
        let total_polls = polls.load(Ordering::Relaxed) as usize;
        assert!(
            total_polls > 4,
            "{backend}: trivial convergence ({total_polls})"
        );

        // Abort at poll counts spanning start, middle (deflation
        // territory), and near-convergence.
        let aborts = [1, 2, total_polls / 4, total_polls / 2, total_polls - 1];
        for &nth in aborts.iter().filter(|&&k| k >= 1) {
            let mut f = sdd::factor(&g, &in_s, backend, &opts).unwrap();
            let (hook, polls) = nth_poll_hook(nth as u64, StopCause::DeadlineExceeded);
            f.set_stop(hook);
            let mut x = DenseMatrix::zeros(d, w);
            let err = f.solve_mat_into(&rhs, &mut x).unwrap_err();
            assert!(
                matches!(err, LinalgError::DeadlineExceeded { .. }),
                "{backend} abort@{nth}: {err:?}"
            );
            assert!(polls.load(Ordering::Relaxed) >= nth as u64, "{backend}");
            let aborted_iters = f.stats().iterations;

            // Resume: clear the hook and re-solve the same buffers. The
            // partial iterate is the warm start; the result must match the
            // dense reference and never redo the completed sweeps.
            f.set_stop(StopHook::none());
            f.solve_mat_into(&rhs, &mut x).unwrap();
            let resumed_iters = f.stats().iterations - aborted_iters;
            for i in 0..d {
                for j in 0..w {
                    assert!(
                        (x.get(i, j) - x_ref.get(i, j)).abs() / ref_scale <= 1e-7,
                        "{backend} abort@{nth}: x[{i}][{j}] {} vs {}",
                        x.get(i, j),
                        x_ref.get(i, j)
                    );
                }
            }
            assert!(
                resumed_iters <= cold_iters + 2,
                "{backend} abort@{nth}: resume took {resumed_iters} vs cold {cold_iters}"
            );
            if nth >= total_polls - 1 {
                // Aborted on the brink of convergence: the resume must be
                // decisively cheaper than starting over.
                assert!(
                    resumed_iters < cold_iters / 2,
                    "{backend} abort@{nth}: near-converged resume took {resumed_iters} \
                     vs cold {cold_iters} — warm start not honored"
                );
            }
        }
    }
}

#[test]
fn direct_backend_ignores_stop_hooks() {
    // dense-cholesky has no iterations to interrupt; a firing hook must
    // not break it (set_stop is a documented no-op there).
    let g = generators::cycle(40);
    let mut in_s = vec![false; 40];
    in_s[3] = true;
    let opts = SddOptions {
        stop: StopHook::new(|| Some(StopCause::Cancelled)),
        ..SddOptions::default()
    };
    let mut f = sdd::factor(&g, &in_s, SddBackend::DenseCholesky, &opts).unwrap();
    f.set_stop(StopHook::new(|| Some(StopCause::Cancelled)));
    f.solve_vec(&vec![1.0; 39]).unwrap();
}
