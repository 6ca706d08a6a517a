//! Ablation studies for the reproduction's design choices (not in the
//! paper's figures, but probing its §IV claims directly):
//!
//! 1. **|T| sensitivity** — SchurCFCM runtime/quality at |T| ∈
//!    {1, T*/4, T*, 4·T*}: the balance-point rule should sit near the
//!    runtime sweet spot.
//! 2. **Walk shortening** — mean Wilson walk steps per forest with root set
//!    S vs S∪T (the mechanism behind Schur's speed-up).
//! 3. **Adaptive stop savings** — forests sampled with the Bernstein rule
//!    vs the fixed cap.
//!
//! Run: `cargo bench -p cfcc-bench --bench ablation`

use cfcc_bench::{banner, harness_threads, params_for, run_solver, timed_solver, Preset};
use cfcc_core::{cfcc, params::t_star};
use cfcc_util::table::Table;
use cfcc_util::timing::fmt_seconds;

fn main() {
    let preset = Preset::from_env();
    banner(
        "ablation",
        "design-choice ablations (ours, §IV mechanisms)",
        preset,
    );
    let threads = harness_threads();
    let (scale, k) = match preset {
        Preset::Smoke => (0.5, 8),
        Preset::Paper => (1.0, 20),
        Preset::Full => (1.0, 20),
    };
    let g = cfcc_datasets::by_name("hamsterster", scale).expect("dataset");
    let n = g.num_nodes();
    println!(
        "workload: hamsterster proxy, n={n}, m={}, k={k}\n",
        g.num_edges()
    );

    // --- 1. |T| sensitivity ---
    let tstar = t_star(&g);
    let t_grid = [1usize, (tstar / 4).max(2), tstar, 4 * tstar];
    let mut table = Table::new(["|T|", "time (s)", "C(S)", "note"]);
    for &c in &t_grid {
        let mut p = params_for(0.2, threads);
        p.schur_c = Some(c);
        let (sel, t) = timed_solver("schur", &g, k, &p);
        let score = cfcc::cfcc_group_cg(&g, &sel.nodes, 1e-8).expect("eval");
        let note = if c == tstar {
            "= T* (balance rule)"
        } else {
            ""
        };
        table.row([
            c.to_string(),
            fmt_seconds(t),
            format!("{score:.4}"),
            note.to_string(),
        ]);
    }
    println!("ablation 1 — |T| sensitivity (SchurCFCM):\n{table}");

    // --- 2. walk shortening ---
    let p = params_for(0.2, threads);
    let forest = run_solver("forest", &g, k, &p);
    let schur = run_solver("schur", &g, k, &p);
    let mean_steps = |sel: &cfcc_core::Selection| {
        let (s, f) = sel.stats.iterations[1..]
            .iter()
            .fold((0u64, 0u64), |(s, f), it| {
                (s + it.walk_steps, f + it.forests)
            });
        s as f64 / f.max(1) as f64
    };
    let mut table = Table::new(["algorithm", "mean walk steps / forest", "total forests"]);
    table.row([
        "Forest (roots = S)".to_string(),
        format!("{:.0}", mean_steps(&forest)),
        forest.stats.total_forests().to_string(),
    ]);
    table.row([
        "Schur (roots = S ∪ T)".to_string(),
        format!("{:.0}", mean_steps(&schur)),
        schur.stats.total_forests().to_string(),
    ]);
    println!("ablation 2 — Wilson walk shortening:\n{table}");

    // --- 3. adaptive stop savings ---
    let mut fixed = params_for(0.2, threads);
    fixed.min_batch = fixed.max_forests; // disables doubling → full cap upfront
    let (sel_fixed, t_fixed) = timed_solver("schur", &g, k, &fixed);
    let adaptive = params_for(0.2, threads);
    let (sel_adaptive, t_adaptive) = timed_solver("schur", &g, k, &adaptive);
    let mut table = Table::new(["strategy", "forests", "time (s)", "C(S)"]);
    table.row([
        "fixed cap".to_string(),
        sel_fixed.stats.total_forests().to_string(),
        fmt_seconds(t_fixed),
        format!(
            "{:.4}",
            cfcc::cfcc_group_cg(&g, &sel_fixed.nodes, 1e-8).unwrap()
        ),
    ]);
    table.row([
        "adaptive (Bernstein)".to_string(),
        sel_adaptive.stats.total_forests().to_string(),
        fmt_seconds(t_adaptive),
        format!(
            "{:.4}",
            cfcc::cfcc_group_cg(&g, &sel_adaptive.nodes, 1e-8).unwrap()
        ),
    ]);
    println!("ablation 3 — adaptive stopping (paper §III-D):\n{table}");
}
