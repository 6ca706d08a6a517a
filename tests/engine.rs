//! Cross-crate tests of the persistent execution engine: warm-started
//! greedy iterations must do measurably less solver work than cold ones
//! (observable through the aggregated `RunStats::solve`), and the
//! worker-pool execution layer must keep results bit-identical across
//! thread counts all the way up at the solver level.

use cfcc_core::approx_greedy::approx_greedy;
use cfcc_core::{CfcmParams, RunStats};
use cfcc_graph::generators;
use cfcc_linalg::SddBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(g: &cfcc_graph::Graph, k: usize, params: CfcmParams) -> (Vec<u32>, RunStats) {
    let sel = approx_greedy(g, k, &params).unwrap();
    (sel.nodes, sel.stats)
}

/// Regression (warm-start exploitation): across a k-step ApproxGreedy run
/// the total blocked-PCG iterations — aggregated over every per-iteration
/// factor by the engine's `SolveStats` roll-up — must drop when the
/// previous round's solutions seed the next round's solves on
/// `sparse-cg`. Selections must not change: both runs solve the same
/// systems to the same tolerance.
#[test]
fn warm_started_approx_greedy_needs_fewer_total_pcg_iterations() {
    let mut rng = StdRng::seed_from_u64(0x77A2);
    let g = generators::barabasi_albert(600, 3, &mut rng);
    let mut params = CfcmParams::with_epsilon(0.3)
        .seed(21)
        .backend(SddBackend::SparseCg);
    params.jl_width = Some(8);
    let (warm_nodes, warm) = run(&g, 5, params.clone().warm_start(true));
    let (cold_nodes, cold) = run(&g, 5, params.warm_start(false));
    assert_eq!(warm_nodes, cold_nodes, "selections must agree");
    assert_eq!(
        warm.solve.solves, cold.solve.solves,
        "same number of right-hand sides either way"
    );
    assert!(
        warm.solve.iterations < cold.solve.iterations,
        "warm {} must need fewer total PCG iterations than cold {}",
        warm.solve.iterations,
        cold.solve.iterations
    );
    // Rounds 3..k all warm-start one grounding away; the savings should
    // be substantial, not marginal.
    assert!(
        (warm.solve.iterations as f64) < 0.9 * cold.solve.iterations as f64,
        "warm {} vs cold {} — win too small",
        warm.solve.iterations,
        cold.solve.iterations
    );
}

/// The aggregated solver stats flow through to the JSON report.
#[test]
fn aggregated_solver_stats_surface_in_run_stats_json() {
    let mut rng = StdRng::seed_from_u64(0x77A3);
    let g = generators::barabasi_albert(200, 3, &mut rng);
    let mut params = CfcmParams::with_epsilon(0.3)
        .seed(5)
        .backend(SddBackend::SparseCg);
    params.jl_width = Some(6);
    let sel = approx_greedy(&g, 3, &params).unwrap();
    assert!(sel.stats.solve.solves > 0);
    assert!(sel.stats.solve.iterations > 0);
    let j = sel.stats.to_json();
    assert!(j.contains(&format!(
        r#""solver_iterations":{}"#,
        sel.stats.solve.iterations
    )));
    assert!(j.contains(&format!(r#""solver_solves":{}"#, sel.stats.solve.solves)));
}

/// Regression (pool determinism at the solver level): the worker pool
/// must not change a single bit of any result — identical selections
/// *and* bit-identical gains for 1/2/4 threads, dense and sparse paths.
#[test]
fn thread_counts_are_bit_identical_through_the_pool() {
    let mut rng = StdRng::seed_from_u64(0x77A4);
    let g = generators::barabasi_albert(220, 3, &mut rng);
    for backend in [SddBackend::DenseCholesky, SddBackend::SparseCg] {
        let base = {
            let mut p = CfcmParams::with_epsilon(0.3).seed(9).backend(backend);
            p.jl_width = Some(6);
            p
        };
        let (nodes1, stats1) = run(&g, 4, base.clone().threads(1));
        for threads in [2, 4] {
            let (nodes_t, stats_t) = run(&g, 4, base.clone().threads(threads));
            assert_eq!(nodes_t, nodes1, "{backend} threads={threads}");
            for (a, b) in stats1.iterations.iter().zip(&stats_t.iterations) {
                assert!(
                    a.gain == b.gain || (a.gain.is_nan() && b.gain.is_nan()),
                    "{backend} threads={threads}: gains must be bit-identical ({} vs {})",
                    a.gain,
                    b.gain
                );
            }
            assert_eq!(
                stats_t.solve.iterations, stats1.solve.iterations,
                "{backend} threads={threads}: identical PCG trajectories"
            );
        }
    }
}
