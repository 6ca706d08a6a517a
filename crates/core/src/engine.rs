//! The persistent greedy execution engine: cross-iteration state that the
//! greedy solvers reuse instead of rebuilding every round.
//!
//! # DESIGN
//!
//! The paper's ApproxGreedy amortizes cost *within* one iteration (one
//! factorization, `2w` sketched right-hand sides), but a greedy run is a
//! *sequence* of nearly identical iterations: `L_{-S}` and `L_{-S∪{v}}`
//! differ by one grounded node. Treating every round as a cold universe
//! throws that structure away. [`GreedyWorkspace`] — owned by
//! [`crate::SolveContext`], one per run — keeps four things alive across
//! iterations:
//!
//! * **Persistent sketches.** The JL sketch `W` and the sketched
//!   incidence `(Q B)ᵀ` are sampled **once over the full node space** and
//!   restricted to the kept nodes each round, instead of being resampled
//!   per iteration. A row subset of a Rademacher matrix is a Rademacher
//!   matrix, so each round sees a correctly distributed sketch of its
//!   compact space; note, though, that because the grounding chosen in
//!   round `t` depends on the sketch, rounds are no longer statistically
//!   independent — one unlucky draw biases every round the same way
//!   rather than failing independently per round (the classical
//!   per-round JL guarantee becomes a heuristic across rounds, the trade
//!   the warm start buys; cross-backend selection tests and the
//!   exact-greedy quality gates hold). Consecutive iterations now solve
//!   for right-hand sides that differ only by one deleted row — which is
//!   what makes warm starts meaningful.
//! * **Warm-started solution blocks.** The previous iteration's `2w`
//!   solutions are kept and projected onto the new grounding (the newly
//!   grounded row is dropped; everything else carries over) to seed the
//!   backend's block warm-start entry point
//!   [`SddFactor::solve_mat_into`]. On the iterative backends the blocked
//!   PCG then starts from a residual that is one rank-one correction away
//!   from converged, cutting the Krylov iteration count of rounds `3..k`
//!   sharply (`tests/engine.rs` asserts fewer total PCG iterations than
//!   a cold run).
//! * **SchurDelta's forest pool.** When a SchurCFCM round picks a node
//!   of `T`, the next round's root set `S ∪ T` is the same set, and the
//!   forests sampled for it stay valid (Lemma 4.2, Eq. 11): the `L_UU^{-1}`
//!   estimators and `F̃` do not change, and the new `Σ` is the old one
//!   without the picked root's row and column. The workspace keeps one
//!   pool of forests per root set (see [`crate::schur_delta`]); the next
//!   round drops the picked root's column and keeps sampling the same
//!   stream instead of starting over. The rule has no exception: after a
//!   pick of the last node of `T ∖ S` the next round's `T` is empty (a
//!   ForestDelta round) and it continues the pool like any other. As with
//!   the persistent sketches, rounds that share a pool are not
//!   statistically independent: later rounds read the samples that chose
//!   the earlier picks, so one unlucky batch of forests can steer several
//!   picks rather than one. A pool
//!   holds at most [`CfcmParams::forest_cap`] forests, only one pool
//!   exists at a time, and it never outlives the run: `begin_run` and the
//!   end of [`crate::greedy::run`] drop it.
//! * **Round scratch.** The chunked RHS/solution buffers and SchurDelta's
//!   dense round buffers are reused across iterations instead of being
//!   reallocated.
//!
//! The workspace also carries the run's **stop hook** and
//! **aggregates [`SolveStats`] across every factor of the run**. Every
//! factor a greedy pick builds (ApproxGreedy's rounds, the first phase's
//! `L_{-s}`, each SchurDelta round's `L_{-S}`) takes its options from
//! `GreedyWorkspace::factor_options`: [`solve_options`] plus that hook,
//! which [`crate::greedy::run`] sets from the run's cancel token and
//! deadline, so a stop reaches inside every iterative solve of the run.
//! The solver work is observable end to end:
//! [`crate::RunStats::solve`] carries the totals into reports and the
//! regression tests. The forest solvers' exact decisions
//! ([`crate::adaptive`]) count there too: the first phase's `L_{-s}`
//! factor and each SchurDelta round's `L_{-S}` factor live for one call
//! only (a round's `S` differs from the last one's, and its panels solve
//! cold for unit vectors, so there is nothing to warm-start), and each
//! folds its stats in when the call ends.

use crate::schur_delta::ForestPool;
use crate::{CfcmError, CfcmParams};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::sdd::{SddFactor, SddOptions, SolveStats, RHS_CHUNK};
use cfcc_linalg::vector::norm2_sq;
use cfcc_linalg::{DenseMatrix, StopHook};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SDD solver options derived from solver parameters — the one place the
/// CG tolerance and the worker-pool thread count are wired together, used
/// by the greedy picks (through `GreedyWorkspace::factor_options`, which
/// adds the run's stop hook) and the `cfcc` evaluators alike.
pub fn solve_options(params: &CfcmParams) -> SddOptions {
    SddOptions {
        rel_tol: params.cg_tol,
        threads: params.threads,
        ..SddOptions::default()
    }
}

/// Reusable dense buffers for SchurDelta rounds — held by the workspace
/// so SchurCFCM's greedy loop re-fills the same allocations at every
/// checkpoint and every iteration (the `|T|` shrinks as `T ∖ S` loses
/// nodes; shrinking a buffer never reallocates).
#[derive(Default)]
pub(crate) struct SchurScratch {
    /// The round's sketch `W` as its `±1.0` signs (`w × n`).
    pub w_signs: DenseMatrix,
    /// Rooted counts `C = Ñ·F̃` as `f64` (`n × |T|`; zero rows on `S ∪ T`).
    pub counts: DenseMatrix,
    /// `W·C` in sign units (`w × |T|`): integers, so exact in any order.
    pub wc: DenseMatrix,
    /// `(W·F̃ + Q)ᵀ ∈ R^{|T| × w}`, rows contiguous per root.
    pub wfq_t: DenseMatrix,
    /// `G · wfq_t ∈ R^{|T| × w}`.
    pub ht: DenseMatrix,
    /// `C · G` (`n × |T|`), for the `fᵀ G f` quadratic forms.
    pub cg: DenseMatrix,
    /// The sketched voltages `Y` (`n × w`), corrected in place.
    pub y: DenseMatrix,
}

impl SchurScratch {
    /// Shape the buffers for a round with `t_len` roots and the round's
    /// sketch `W` (`n` nodes, width `w`), and load `W`'s signs.
    pub fn begin_round(&mut self, sketch: &JlSketch, t_len: usize) {
        let (n, w) = (sketch.dim(), sketch.width());
        self.w_signs.reshape(w, n);
        for u in 0..n {
            for (j, &s) in sketch.signs(u).iter().enumerate() {
                self.w_signs.set(j, u, f64::from(s));
            }
        }
        self.counts.reshape(n, t_len);
        self.wc.reshape(w, t_len);
        self.wfq_t.reshape(t_len, w);
        self.ht.reshape(t_len, w);
        self.cg.reshape(n, t_len);
    }
}

/// Cross-iteration state of one greedy run. Obtain it through
/// [`crate::SolveContext::workspace`]; see the module docs for what is
/// persisted and why.
#[derive(Default)]
pub struct GreedyWorkspace {
    /// JL sketch `W` over the full node space (`w × n`), sampled once.
    sketch: Option<JlSketch>,
    /// Full-space sketched incidence `(Q B)ᵀ` (`n × w`), sampled once.
    den_rhs: Option<DenseMatrix>,
    /// Identity of the persisted sketches: `(graph fingerprint, w, seed)`.
    /// Sketches survive across runs (service reuse) and are resampled
    /// only when this key changes — a different graph, width, or seed.
    sketch_key: Option<(u64, usize, u64)>,
    /// How many times the sketches have been (re)sampled over this
    /// workspace's lifetime — lets reuse tests observe that consecutive
    /// runs on the same graph skip the `O(w·(n+m))` resample.
    resamples: u64,
    /// Previous iteration's solution blocks (`d_prev × w` each) and the
    /// compact-order kept nodes they are indexed by.
    prev_num: DenseMatrix,
    prev_den: DenseMatrix,
    prev_kept: Vec<Node>,
    /// Current iteration's solution blocks, filled chunk by chunk and
    /// swapped into `prev_*` at the end of the round.
    cur_num: DenseMatrix,
    cur_den: DenseMatrix,
    /// Chunked RHS / solution scratch (`d × RHS_CHUNK`).
    rhs_chunk: DenseMatrix,
    x_chunk: DenseMatrix,
    /// SchurDelta round buffers.
    pub(crate) schur: SchurScratch,
    /// SchurDelta's forests for the current root set `S ∪ T`, if any.
    pub(crate) forest_pool: Option<ForestPool>,
    /// The run's stop hook, polled by every iterative solve of the run's
    /// factors: set by [`crate::greedy::run`], cleared by `begin_run` and
    /// at the end of the run.
    pub(crate) stop: StopHook,
    /// Aggregated solver work across every factor this run touched.
    solve: SolveStats,
}

impl GreedyWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new run: drop warm-start state, SchurDelta's forest pool and
    /// the stop hook from any previous run and reset the aggregated solver
    /// stats.
    /// Sketches are **kept** — they are validated against the graph by
    /// fingerprint in [`GreedyWorkspace::ensure_sketch`], so a workspace
    /// recycled across requests (see [`crate::SolveSession::run_reusing`])
    /// skips the per-run resample instead of re-sketching every time.
    pub fn begin_run(&mut self) {
        self.prev_kept.clear();
        self.forest_pool = None;
        self.stop = StopHook::none();
        self.solve = SolveStats::default();
    }

    /// Options for a factor that a greedy pick builds: [`solve_options`]
    /// with the run's stop hook, so its iterative solves stop when the run
    /// is cancelled or its deadline passes (a bare workspace has no hook).
    pub(crate) fn factor_options(&self, params: &CfcmParams) -> SddOptions {
        SddOptions {
            stop: self.stop.clone(),
            ..solve_options(params)
        }
    }

    /// Forests in SchurDelta's pool (0 when there is none, as after every
    /// run) — lets reuse tests observe that a recycled workspace carries
    /// no forests from one run into the next.
    pub fn pooled_forests(&self) -> u64 {
        self.forest_pool.as_ref().map_or(0, ForestPool::forests)
    }

    /// Times the sketches have been (re)sampled over this workspace's
    /// lifetime (1 after any number of same-graph/same-seed runs).
    pub fn sketch_resamples(&self) -> u64 {
        self.resamples
    }

    /// Aggregated [`SolveStats`] across every factor absorbed so far.
    pub fn solve_stats(&self) -> SolveStats {
        self.solve
    }

    /// Fold one factor's cumulative stats into the run aggregate. Call
    /// once per factor, after its last solve.
    pub fn absorb_solve_stats(&mut self, s: SolveStats) {
        self.solve.solves += s.solves;
        self.solve.iterations += s.iterations;
        self.solve.max_rel_residual = self.solve.max_rel_residual.max(s.max_rel_residual);
        self.solve.last_rel_residual = s.last_rel_residual;
        self.solve.flops += s.flops;
        self.solve.precond_shift = self.solve.precond_shift.max(s.precond_shift);
    }

    /// Sample the persistent sketches for graph `g` at width `w`
    /// (idempotent while the `(graph, w, seed)` identity matches — across
    /// runs, not just within one). The RNG stream is derived from `seed`
    /// alone, so runs stay deterministic, and a reused workspace produces
    /// exactly the sketch a fresh one would: resampling from the same seed
    /// and keeping the old sample are indistinguishable.
    pub fn ensure_sketch(&mut self, g: &Graph, w: usize, seed: u64) {
        let n = g.num_nodes();
        let key = (graph_fingerprint(g), w, seed);
        if self.sketch.is_some() && self.sketch_key == Some(key) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE2617E);
        self.sketch = Some(JlSketch::sample(w, n, &mut rng));
        let scale = 1.0 / (w as f64).sqrt();
        let mut den = DenseMatrix::zeros(n, w);
        for j in 0..w {
            for (a, b) in g.edges() {
                let s = if rng.gen::<bool>() { scale } else { -scale };
                den.add_to(a as usize, j, s);
                den.add_to(b as usize, j, -s);
            }
        }
        self.den_rhs = Some(den);
        self.sketch_key = Some(key);
        self.resamples += 1;
        // New sketches invalidate any previous solutions as warm starts.
        self.prev_kept.clear();
    }

    /// If the previous iteration's kept set is exactly `kept` plus one
    /// newly grounded node, return that node's previous compact index
    /// (the row to drop when projecting old solutions onto the new
    /// grounding).
    fn warm_shift(&self, kept: &[Node]) -> Option<usize> {
        if self.prev_kept.len() != kept.len() + 1 {
            return None;
        }
        let mut i = 0;
        while i < kept.len() && self.prev_kept[i] == kept[i] {
            i += 1;
        }
        debug_assert!(
            kept[i..]
                .iter()
                .zip(&self.prev_kept[i + 1..])
                .all(|(a, b)| a == b),
            "kept sets differ by more than one grounding"
        );
        Some(i)
    }

    /// One greedy iteration's `2w` sketched solves through `factor`:
    /// numerator solves `L_{-S} Y = Wᵀ` and denominator solves
    /// `L_{-S} Z = (Q B)ᵀ`, both restricted to the kept rows, in
    /// [`RHS_CHUNK`]-column chunks. With `warm` (and a previous round one
    /// grounding away) every chunk's initial guess is the previous
    /// round's solution block with the newly grounded row dropped —
    /// the block warm start. Returns the per-node accumulators
    /// `num[i] = Σ_j Y[i,j]²` and `den[i] = Σ_j Z[i,j]²` over the compact
    /// space, and retains the solutions to seed the next round.
    ///
    /// [`GreedyWorkspace::ensure_sketch`] must have been called for this
    /// graph first.
    pub fn sketched_gains(
        &mut self,
        factor: &mut dyn SddFactor,
        warm: bool,
    ) -> Result<(Vec<f64>, Vec<f64>), CfcmError> {
        let sketch = self.sketch.as_ref().expect("ensure_sketch first");
        let w = sketch.width();
        let d = factor.dim();
        let kept: Vec<Node> = factor.kept_nodes().to_vec();
        let shift = if warm { self.warm_shift(&kept) } else { None };
        self.cur_num.reshape(d, w);
        self.cur_den.reshape(d, w);
        let mut num = vec![0.0f64; d];
        let mut den = vec![0.0f64; d];
        let mut j0 = 0;
        while j0 < w {
            let c = (w - j0).min(RHS_CHUNK);
            self.rhs_chunk.reshape(d, c);
            self.x_chunk.reshape(d, c);
            // Numerator chunk: rows of W (as columns) on the kept nodes.
            let sketch = self.sketch.as_ref().unwrap();
            let scale = sketch.scale();
            for (i, &u) in kept.iter().enumerate() {
                let signs = &sketch.signs(u as usize)[j0..j0 + c];
                for (x, &s) in self.rhs_chunk.row_mut(i).iter_mut().zip(signs) {
                    *x = f64::from(s) * scale;
                }
            }
            seed_guess(&self.prev_num, shift, &mut self.x_chunk, j0, c);
            // On a failed or interrupted solve the round is abandoned
            // without swapping `prev_*` — they still describe the
            // `prev_kept` grounding, so the workspace stays reusable for
            // a retry — but the factor's partial work is absorbed first
            // so aborted sweeps show up in the run's stats.
            if let Err(e) = factor.solve_mat_into(&self.rhs_chunk, &mut self.x_chunk) {
                self.absorb_solve_stats(factor.stats());
                return Err(CfcmError::from(e));
            }
            for (i, acc) in num.iter_mut().enumerate() {
                let row = self.x_chunk.row(i);
                *acc += norm2_sq(row);
                self.cur_num.row_mut(i)[j0..j0 + c].copy_from_slice(row);
            }
            // Denominator chunk: sketched incidence columns on the kept
            // nodes.
            let den_rhs = self.den_rhs.as_ref().unwrap();
            for (i, &u) in kept.iter().enumerate() {
                self.rhs_chunk
                    .row_mut(i)
                    .copy_from_slice(&den_rhs.row(u as usize)[j0..j0 + c]);
            }
            seed_guess(&self.prev_den, shift, &mut self.x_chunk, j0, c);
            if let Err(e) = factor.solve_mat_into(&self.rhs_chunk, &mut self.x_chunk) {
                self.absorb_solve_stats(factor.stats());
                return Err(CfcmError::from(e));
            }
            for (i, acc) in den.iter_mut().enumerate() {
                let row = self.x_chunk.row(i);
                *acc += norm2_sq(row);
                self.cur_den.row_mut(i)[j0..j0 + c].copy_from_slice(row);
            }
            j0 += c;
        }
        std::mem::swap(&mut self.prev_num, &mut self.cur_num);
        std::mem::swap(&mut self.prev_den, &mut self.cur_den);
        self.prev_kept = kept;
        self.absorb_solve_stats(factor.stats());
        Ok((num, den))
    }
}

/// FNV-1a over the node count, edge count, and edge list — the identity
/// under which persisted sketches stay valid. `O(m)`, a factor `w` cheaper
/// than resampling the sketched incidence, which is the point: recycled
/// workspaces (daemon requests, repeated sessions) pay a hash, not a
/// resample. Collisions would need two different graphs with identical
/// FNV streams — vanishingly unlikely and at worst a quality (not
/// soundness) issue, since sketches are random projections to begin with.
fn graph_fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(PRIME)
    }
    let mut h = mix(mix(OFFSET, g.num_nodes() as u64), g.num_edges() as u64);
    for (a, b) in g.edges() {
        h = mix(h, (u64::from(a) << 32) | u64::from(b));
    }
    h
}

/// Seed `x` (a `d × c` chunk covering sketch columns `j0..j0+c`) from the
/// previous round's solutions: row `i` of the new compact space maps to
/// previous row `i` (before the dropped row) or `i + 1` (after it). With
/// no usable previous round, the guess is zero (cold start).
fn seed_guess(prev: &DenseMatrix, shift: Option<usize>, x: &mut DenseMatrix, j0: usize, c: usize) {
    match shift {
        None => x.fill_zero(),
        Some(dropped) => {
            for i in 0..x.rows() {
                let pi = if i < dropped { i } else { i + 1 };
                x.row_mut(i).copy_from_slice(&prev.row(pi)[j0..j0 + c]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use cfcc_linalg::sdd::{self, SddBackend};

    #[test]
    fn solve_options_carry_tolerance_and_threads() {
        let p = CfcmParams {
            cg_tol: 1e-9,
            threads: 3,
            ..CfcmParams::default()
        };
        let o = solve_options(&p);
        assert_eq!(o.rel_tol, 1e-9);
        assert_eq!(o.threads, 3);
        assert!(!o.stop.is_set());
        // A pick's factor options add the run's hook, until the next run.
        let mut ws = GreedyWorkspace::new();
        assert!(!ws.factor_options(&p).stop.is_set());
        ws.stop = StopHook::new(|| None);
        let o = ws.factor_options(&p);
        assert_eq!((o.rel_tol, o.threads), (1e-9, 3));
        assert!(o.stop.is_set());
        ws.begin_run();
        assert!(!ws.factor_options(&p).stop.is_set());
    }

    #[test]
    fn ensure_sketch_is_idempotent_and_resets_on_reshape() {
        let g = generators::cycle(30);
        let mut ws = GreedyWorkspace::new();
        ws.ensure_sketch(&g, 8, 7);
        let col0: Vec<i8> = ws.sketch.as_ref().unwrap().signs(3).to_vec();
        ws.ensure_sketch(&g, 8, 7);
        assert_eq!(ws.sketch.as_ref().unwrap().signs(3), &col0[..]);
        ws.ensure_sketch(&g, 12, 7);
        assert_eq!(ws.sketch.as_ref().unwrap().width(), 12);
    }

    #[test]
    fn sketches_survive_begin_run_and_track_graph_identity() {
        let g = generators::cycle(30);
        let mut ws = GreedyWorkspace::new();
        ws.ensure_sketch(&g, 8, 7);
        assert_eq!(ws.sketch_resamples(), 1);
        // A new run on the same graph/width/seed reuses the sample.
        ws.begin_run();
        ws.ensure_sketch(&g, 8, 7);
        assert_eq!(ws.sketch_resamples(), 1);
        // Same shape but different edges: fingerprint forces a resample.
        let g2 = generators::path(30);
        ws.ensure_sketch(&g2, 8, 7);
        assert_eq!(ws.sketch_resamples(), 2);
        // Different seed: the persisted sample no longer matches.
        ws.ensure_sketch(&g2, 8, 9);
        assert_eq!(ws.sketch_resamples(), 3);
    }

    #[test]
    fn warm_shift_maps_the_dropped_row() {
        let mut ws = GreedyWorkspace::new();
        ws.prev_kept = vec![0, 1, 3, 5, 6];
        assert_eq!(ws.warm_shift(&[0, 1, 3, 6]), Some(3));
        assert_eq!(ws.warm_shift(&[1, 3, 5, 6]), Some(0));
        assert_eq!(ws.warm_shift(&[0, 1, 3, 5]), Some(4));
        assert_eq!(ws.warm_shift(&[0, 1, 3, 5, 6]), None); // same length
        ws.prev_kept.clear();
        assert_eq!(ws.warm_shift(&[0, 1]), None);
    }

    #[test]
    fn sketched_gains_warm_start_cuts_iterations_and_keeps_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6A1);
        let g = generators::barabasi_albert(300, 3, &mut rng);
        let n = g.num_nodes();
        let params = CfcmParams {
            cg_tol: 1e-9,
            ..CfcmParams::default()
        };
        let opts = solve_options(&params);
        let mut in_s = vec![false; n];
        in_s[5] = true;

        // Cold workspace: two successive groundings, no warm start.
        let mut cold = GreedyWorkspace::new();
        cold.ensure_sketch(&g, 8, 3);
        let mut f = sdd::factor(&g, &in_s, SddBackend::SparseCg, &opts).unwrap();
        cold.sketched_gains(f.as_mut(), false).unwrap();
        in_s[17] = true;
        let mut f = sdd::factor(&g, &in_s, SddBackend::SparseCg, &opts).unwrap();
        let (num_c, den_c) = cold.sketched_gains(f.as_mut(), false).unwrap();
        let cold_iters = cold.solve_stats().iterations;

        // Warm workspace: same rounds, second one warm-started.
        in_s[17] = false;
        let mut warm = GreedyWorkspace::new();
        warm.ensure_sketch(&g, 8, 3);
        let mut f = sdd::factor(&g, &in_s, SddBackend::SparseCg, &opts).unwrap();
        warm.sketched_gains(f.as_mut(), true).unwrap();
        in_s[17] = true;
        let mut f = sdd::factor(&g, &in_s, SddBackend::SparseCg, &opts).unwrap();
        let (num_w, den_w) = warm.sketched_gains(f.as_mut(), true).unwrap();
        let warm_iters = warm.solve_stats().iterations;

        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} must beat cold {cold_iters}"
        );
        // Both converge to the same tolerance: the accumulators agree.
        for (a, b) in num_c.iter().zip(&num_w) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
        for (a, b) in den_c.iter().zip(&den_w) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }
}
