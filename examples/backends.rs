//! Tour of the unified `SddSolver` backend API: factor one grounded
//! Laplacian through every registered backend, compare their answers and
//! work reports, then run ApproxGreedy end to end per backend.
//!
//! ```sh
//! cargo run --release --example backends
//! CFCC_BACKEND=sparse-cg cargo run --release --example backends
//! ```

use cfcc_core::approx_greedy::approx_greedy;
use cfcc_core::CfcmParams;
use cfcc_graph::generators;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_util::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xBAC);
    let n = 2_000;
    let g = generators::barabasi_albert(n, 3, &mut rng);
    let mut in_s = vec![false; n];
    in_s[0] = true;

    // One factor per backend, same trace query through each.
    println!("Tr(L_-S^-1) on a {n}-node Barabási–Albert graph, every backend:\n");
    let mut t = Table::new(["backend", "kind", "trace", "iterations", "max residual"]);
    for backend in sdd::backends() {
        let start = Instant::now();
        let mut f = backend
            .factor(&g, &in_s, &SddOptions::with_tol(1e-10))
            .expect("factor");
        // Hutchinson probes: cheap enough to demo on every backend.
        let est = cfcc_linalg::trace::trace_inverse_hutchinson_factor(
            f.as_mut(),
            32,
            &mut StdRng::seed_from_u64(1),
        )
        .expect("trace probes");
        let stats = f.stats();
        t.row([
            backend.name().to_string(),
            backend.kind().label().to_string(),
            format!(
                "{:.3} ± {:.3} ({:?})",
                est.trace,
                est.std_error,
                start.elapsed()
            ),
            stats.iterations.to_string(),
            format!("{:.2e}", stats.max_rel_residual),
        ]);
    }
    println!("{}", t.render());

    // The same selection problem through each backend: identical groups,
    // different cost profiles. CFCC_BACKEND overrides the ladder.
    println!("\nApproxGreedy (k = 4) per backend:\n");
    let choices: Vec<SddBackend> = match std::env::var("CFCC_BACKEND") {
        Ok(name) => vec![SddBackend::parse(&name).expect("known backend")],
        Err(_) => vec![
            SddBackend::Auto,
            SddBackend::DenseCholesky,
            SddBackend::SparseCg,
        ],
    };
    for backend in choices {
        let mut params = CfcmParams::with_epsilon(0.3).seed(7).backend(backend);
        params.jl_width = Some(6);
        let start = Instant::now();
        let sel = approx_greedy(&g, 4, &params).expect("approx greedy");
        println!(
            "  {:<14} -> {:?} in {:?}",
            backend.name(),
            sel.nodes,
            start.elapsed()
        );
    }
    println!(
        "\n(auto = dense-cholesky up to {} unknowns, sparse-cg beyond)",
        SddBackend::AUTO_DENSE_LIMIT
    );
}
