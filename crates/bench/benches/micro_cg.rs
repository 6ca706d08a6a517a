//! Criterion microbenchmark: preconditioned-CG solve cost on a scale-free
//! vs a road-like Laplacian of equal size — the conditioning gap that
//! makes the ApproxGreedy baseline degrade on high-diameter graphs. Each
//! solve is one cold `solve_vec_into` through the `sparse-cg` backend.

use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_cg(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let n = 5_000;
    let scale_free = cfcc_graph::generators::scale_free_with_edges(n, 20_000, &mut rng);
    let road = cfcc_graph::generators::geometric_with_edges(n, 6_500, &mut rng);
    let mut group = c.benchmark_group("pcg_solve");
    group.sample_size(10);
    for (name, g) in [("scale_free", &scale_free), ("road", &road)] {
        let mut in_s = vec![false; g.num_nodes()];
        in_s[g.max_degree_node().unwrap() as usize] = true;
        let mut factor = sdd::factor(g, &in_s, SddBackend::SparseCg, &SddOptions::with_tol(1e-8))
            .expect("connected proxy");
        let b: Vec<f64> = (0..factor.dim())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        group.bench_function(name, |bch| {
            let mut x = vec![0.0; b.len()];
            bch.iter(|| {
                x.fill(0.0);
                factor.solve_vec_into(&b, &mut x).expect("solve");
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cg);
criterion_main!(benches);
