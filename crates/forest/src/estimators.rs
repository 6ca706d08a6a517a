//! Forest-based electrical estimators.
//!
//! Per sampled forest with root set `S` (or `S ∪ T`), this module extracts:
//!
//! * **Sketched voltage rows** `Y ≈ W · L_{-S}^{-1}` — per BFS-tree edge
//!   `(x, p_x)` it accumulates the signed subtree sums
//!   `δ_j(x) = [π_x = p_x]·sw_j(x) − [π_{p_x} = x]·sw_j(p_x)`, whose
//!   expectation is the weighted current through that edge (Lemma 3.2 +
//!   linearity); BFS-path prefix sums then telescope to voltages
//!   (Lemma 3.3 with the fixed path `P_{v,S}` = BFS path).
//! * **Diagonal samples** `X_f(u)` with `E[X_f(u)] = (L_{-S}^{-1})_{uu}`:
//!   along `u`'s BFS path, count forest-path traversals of each edge in both
//!   directions, using O(1) Euler-tour ancestor tests. Each node's sample
//!   variance is kept too ([`ElectricalAccumulator::diag_variance`]); the
//!   estimator tests set their tolerances from it.
//! * **First-phase samples** `x_u = X_f(u) − (2/n) · Φ̂₁(u)` implementing
//!   Lemma 3.5's reduction of `L†_uu` to `L_{-s}^{-1}` quantities. The
//!   shared `1ᵀL^{-1}1/n²` term is rank-preserving and not sampled;
//!   Algorithm 3 omits it, and `cfcc_core::first_phase` adds it from one
//!   solve.
//! * **Rooted counts** for the Schur complement (Lemma 4.2) when an
//!   auxiliary root index is supplied.
//!
//! # Integer layout
//!
//! The JL sketch is Rademacher, so every subtree sum `sw_j(x)` is an
//! integer multiple of `1/√w`. The accumulator keeps `sw` in `i32` lanes
//! and the edge deltas in `i64` lanes, and applies `(1/√w) / Ñ` once, in
//! [`ElectricalAccumulator::y_matrix_into`]. Diagonal samples are integers
//! and first-phase samples are integers over `n`, so their moments are
//! exact integer sums (`Σx` in `i64`, `Σx²` in `i128`). Every merge is an
//! exact integer sum: no estimate depends on how the forests were split
//! across threads.

use crate::forest::{EulerTour, Forest};
use crate::rooted::{RootIndex, RootedCounts};
use crate::sampler::ForestAccumulator;
use cfcc_graph::traversal::{bfs_from_set, NO_PARENT};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::DenseMatrix;
use std::sync::Arc;

/// What the accumulator's per-node samples estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagMode {
    /// `z_u ≈ (L_{-S}^{-1})_{uu}` (Algorithms 2 and 4).
    Diagonal,
    /// `x_u ≈ (L_{-s}^{-1})_{uu} − (2/n) · 1ᵀL_{-s}^{-1}e_u`
    /// (Algorithm 3 / 5 first phase).
    FirstPhase,
}

/// Immutable sampling context shared by accumulator clones.
#[derive(Debug)]
struct Ctx {
    n: usize,
    w: usize,
    in_root: Vec<bool>,
    bfs_parent: Vec<Node>,
    bfs_order: Vec<Node>,
    sketch: Option<JlSketch>,
    mode: DiagMode,
    /// Integer samples are this multiple of the estimates (`n` in the
    /// first phase, 1 otherwise).
    sample_unit: f64,
}

/// Streaming estimator state; implements [`ForestAccumulator`].
#[derive(Debug)]
pub struct ElectricalAccumulator {
    ctx: Arc<Ctx>,
    num_forests: u64,
    total_walk_steps: u64,
    /// `n × w` node-major edge deltas in units of `1/√w` (empty when no
    /// sketch).
    edge_acc: Vec<i64>,
    /// Per-node `Σx` and `Σx²` over the integer samples (`X_f(u)`, or
    /// `n·x_u` in the first phase); roots stay 0.
    diag_sum: Vec<i64>,
    diag_sumsq: Vec<i128>,
    rooted: Option<RootedCounts>,
    // ---- scratch reused across forests ----
    /// `n × w` subtree sign sums; all zero between forests.
    sw: Vec<i32>,
    /// First phase: all-ones voltage prefix sums `Φ̂₁` (integers).
    yones: Vec<i64>,
    /// Rooted tracking: the root of every non-root node's tree.
    root_of: Vec<Node>,
    tour: EulerTour,
}

impl ElectricalAccumulator {
    /// Build an accumulator for forests of `g` rooted at `in_root`.
    ///
    /// * `sketch` — optional JL sketch over node ids (only non-root
    ///   coordinates are ever read).
    /// * `mode` — diagonal or first-phase samples.
    /// * `root_index` — track rooted counts for these roots (SchurDelta).
    pub fn new(
        g: &Graph,
        in_root: &[bool],
        sketch: Option<JlSketch>,
        mode: DiagMode,
        root_index: Option<Arc<RootIndex>>,
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(in_root.len(), n);
        let roots: Vec<Node> = (0..n as Node).filter(|&u| in_root[u as usize]).collect();
        assert!(!roots.is_empty(), "root set must be non-empty");
        let bfs = bfs_from_set(g, &roots);
        assert_eq!(
            bfs.order.len(),
            n,
            "graph must be connected to the root set"
        );
        if let Some(q) = &sketch {
            assert_eq!(q.dim(), n, "sketch must span all node ids");
        }
        let w = sketch.as_ref().map_or(0, |q| q.width());
        let ctx = Arc::new(Ctx {
            n,
            w,
            in_root: in_root.to_vec(),
            bfs_parent: bfs.parent,
            bfs_order: bfs.order,
            sketch,
            mode,
            sample_unit: match mode {
                DiagMode::Diagonal => 1.0,
                DiagMode::FirstPhase => n as f64,
            },
        });
        Self::from_ctx(ctx, root_index.map(|idx| RootedCounts::new(n, idx)))
    }

    fn from_ctx(ctx: Arc<Ctx>, rooted: Option<RootedCounts>) -> Self {
        let n = ctx.n;
        let w = ctx.w;
        let first_phase = ctx.mode == DiagMode::FirstPhase;
        Self {
            num_forests: 0,
            total_walk_steps: 0,
            edge_acc: vec![0; n * w],
            diag_sum: vec![0; n],
            diag_sumsq: vec![0; n],
            root_of: if rooted.is_some() {
                vec![NO_PARENT; n]
            } else {
                Vec::new()
            },
            rooted,
            sw: vec![0; n * w],
            yones: if first_phase { vec![0; n] } else { Vec::new() },
            tour: EulerTour::default(),
            ctx,
        }
    }

    /// Forests absorbed so far (`Ñ` in the paper).
    pub fn num_forests(&self) -> u64 {
        self.num_forests
    }

    /// Total random-walk steps over all forests (the Lemma 3.7 cost metric).
    pub fn total_walk_steps(&self) -> u64 {
        self.total_walk_steps
    }

    /// Sketch width `w` (0 when not sketching).
    pub fn width(&self) -> usize {
        self.ctx.w
    }

    /// Mean diagonal/first-phase estimate of node `u` (0 for roots and
    /// before any forest).
    pub fn diag_mean(&self, u: Node) -> f64 {
        if self.num_forests == 0 {
            return 0.0;
        }
        self.diag_sum[u as usize] as f64 / (self.num_forests as f64 * self.ctx.sample_unit)
    }

    /// [`ElectricalAccumulator::diag_mean`] of every node.
    pub fn diag_means(&self) -> Vec<f64> {
        (0..self.ctx.n as Node).map(|u| self.diag_mean(u)).collect()
    }

    /// Unbiased sample variance of node `u`'s samples (0 for fewer than two
    /// forests).
    pub fn diag_variance(&self, u: Node) -> f64 {
        let k = self.num_forests;
        if k < 2 {
            return 0.0;
        }
        let (sum, sumsq) = (
            i128::from(self.diag_sum[u as usize]),
            self.diag_sumsq[u as usize],
        );
        // k·Σx² − (Σx)² = k(k−1)·variance, exact in integers.
        let unit = self.ctx.sample_unit;
        (i128::from(k) * sumsq - sum * sum) as f64 / (k as f64 * (k - 1) as f64 * unit * unit)
    }

    /// The root set the forests are rooted at.
    pub fn in_root(&self) -> &[bool] {
        &self.ctx.in_root
    }

    /// The JL sketch `W`, if sketching.
    pub fn sketch(&self) -> Option<&JlSketch> {
        self.ctx.sketch.as_ref()
    }

    /// Rooted counts (SchurDelta), if tracked.
    pub fn rooted(&self) -> Option<&RootedCounts> {
        self.rooted.as_ref()
    }

    /// Stop tracking `roots` in the rooted counts (see
    /// [`RootedCounts::untrack`]). The root set is unchanged, so every
    /// other estimate, and every later forest, is what it would be had
    /// `roots` never been tracked.
    pub fn untrack_roots(&mut self, roots: &[Node]) {
        self.rooted
            .as_mut()
            .expect("rooted tracking enabled")
            .untrack(roots);
    }

    /// The sketched voltage matrix `Y ≈ W L_{-S}^{-1}`, written into `y`
    /// (reshaped to `n × w`, node-major): row `u` is `Y·e_u`. Root rows are
    /// zero.
    ///
    /// The integer deltas are scaled by `(1/√w) / Ñ` here, once. For
    /// `w = 4^k` that factor is a power of two times `1/Ñ`, so the result
    /// is bit-identical to summing the `±1/√w` entries in `f64`.
    pub fn y_matrix_into(&self, y: &mut DenseMatrix) {
        let ctx = &*self.ctx;
        let (n, w) = (ctx.n, ctx.w);
        let sketch = ctx.sketch.as_ref().expect("no sketch configured");
        assert!(self.num_forests > 0, "no forests absorbed");
        let unit = sketch.scale() * (1.0 / self.num_forests as f64);
        y.reshape(n, w);
        let data = y.data_mut();
        for &u in &ctx.bfs_order {
            let ui = u as usize;
            let p = ctx.bfs_parent[ui];
            if p == NO_PARENT {
                data[ui * w..ui * w + w].fill(0.0); // root: zero voltage
                continue;
            }
            let (dst, src) = split_rows(data, ui, p as usize, w);
            let acc = &self.edge_acc[ui * w..ui * w + w];
            for ((d, &s), &a) in dst.iter_mut().zip(src).zip(acc) {
                *d = s + a as f64 * unit;
            }
        }
    }

    /// [`ElectricalAccumulator::y_matrix_into`] into a new matrix.
    pub fn y_matrix(&self) -> DenseMatrix {
        let mut y = DenseMatrix::default();
        self.y_matrix_into(&mut y);
        y
    }

    fn absorb_inner(&mut self, f: &Forest) {
        let ctx = &*self.ctx;
        let w = ctx.w;
        debug_assert_eq!(f.parent.len(), ctx.n);
        self.num_forests += 1;
        self.total_walk_steps += f.walk_steps;

        // ---- sketched subtree sums and per-BFS-edge deltas, one pass ----
        // Children come first, so when `x` is reached its row holds the sum
        // over its children; adding `x`'s own signs makes `sw(x)` final.
        if let Some(q) = &ctx.sketch {
            for &x in &f.bottomup {
                let xi = x as usize;
                let p = f.parent[xi];
                let pi = p as usize;
                for (s, &sign) in self.sw[xi * w..xi * w + w].iter_mut().zip(q.signs(xi)) {
                    *s += i32::from(sign);
                }
                let swx = &self.sw[xi * w..xi * w + w];
                if p == ctx.bfs_parent[xi] {
                    // Forest edge x → π_x runs along BFS edge (x, p_x).
                    for (e, &s) in self.edge_acc[xi * w..xi * w + w].iter_mut().zip(swx) {
                        *e += i64::from(s);
                    }
                } else if ctx.bfs_parent[pi] == x {
                    // It runs against BFS edge (π_x, p_{π_x} = x).
                    for (e, &s) in self.edge_acc[pi * w..pi * w + w].iter_mut().zip(swx) {
                        *e -= i64::from(s);
                    }
                }
                if !ctx.in_root[pi] {
                    let (dst, src) = split_rows(&mut self.sw, pi, xi, w);
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
                self.sw[xi * w..xi * w + w].fill(0);
            }
        }

        f.euler_tour_into(&mut self.tour);
        let tour = &self.tour;

        // ---- first phase: all-ones voltage prefix sums along BFS order ----
        let first_phase = ctx.mode == DiagMode::FirstPhase;
        if first_phase {
            for &u in &ctx.bfs_order {
                let ui = u as usize;
                let pb = ctx.bfs_parent[ui];
                if pb == NO_PARENT {
                    self.yones[ui] = 0;
                    continue;
                }
                let pbi = pb as usize;
                let mut delta = 0i64;
                if f.parent[ui] == pb {
                    delta += i64::from(tour.subtree_size(u));
                }
                if !ctx.in_root[pbi] && f.parent[pbi] == u {
                    delta -= i64::from(tour.subtree_size(pb));
                }
                self.yones[ui] = self.yones[pbi] + delta;
            }
        }

        // ---- diagonal samples via Euler-tour ancestor tests ----
        let n = ctx.n as i64;
        for &u in &f.bottomup {
            let ui = u as usize;
            let mut x_acc = 0i64;
            let mut a = u;
            while !ctx.in_root[a as usize] {
                let b = ctx.bfs_parent[a as usize];
                debug_assert_ne!(b, NO_PARENT);
                if f.parent[a as usize] == b && tour.is_ancestor_or_self(a, u) {
                    x_acc += 1;
                }
                if !ctx.in_root[b as usize]
                    && f.parent[b as usize] == a
                    && tour.is_ancestor_or_self(b, u)
                {
                    x_acc -= 1;
                }
                a = b;
            }
            // First phase: n·x_u = n·X_f(u) − 2·Φ̂₁(u), an integer.
            let sample = if first_phase {
                n * x_acc - 2 * self.yones[ui]
            } else {
                x_acc
            };
            self.diag_sum[ui] += sample;
            self.diag_sumsq[ui] += i128::from(sample) * i128::from(sample);
        }

        // ---- rooted counts for the Schur complement ----
        if let Some(counts) = &mut self.rooted {
            for x in f.topdown() {
                let p = f.parent[x as usize];
                let root = if ctx.in_root[p as usize] {
                    p
                } else {
                    self.root_of[p as usize]
                };
                self.root_of[x as usize] = root;
                counts.record(x, root);
            }
        }
    }
}

/// Borrow two distinct `w`-rows of a node-major buffer (`dst = row a`,
/// `src = row b`). Requires `a != b`.
#[inline]
fn split_rows<T>(buf: &mut [T], a: usize, b: usize, w: usize) -> (&mut [T], &[T]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = buf.split_at_mut(b * w);
        (&mut lo[a * w..a * w + w], &hi[..w])
    } else {
        let (lo, hi) = buf.split_at_mut(a * w);
        let dst = &mut hi[..w];
        (dst, &lo[b * w..b * w + w])
    }
}

/// `a += b` lane by lane.
fn add_lanes<T: Copy + std::ops::AddAssign>(a: &mut [T], b: &[T]) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

impl ForestAccumulator for ElectricalAccumulator {
    fn absorb(&mut self, forest: &Forest) {
        self.absorb_inner(forest);
    }

    fn merge(&mut self, other: Self) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx),
            "merging incompatible accumulators"
        );
        self.num_forests += other.num_forests;
        self.total_walk_steps += other.total_walk_steps;
        add_lanes(&mut self.edge_acc, &other.edge_acc);
        add_lanes(&mut self.diag_sum, &other.diag_sum);
        add_lanes(&mut self.diag_sumsq, &other.diag_sumsq);
        if let (Some(mine), Some(theirs)) = (&mut self.rooted, other.rooted) {
            mine.merge(theirs);
        }
    }

    fn fresh(&self) -> Self {
        Self::from_ctx(
            self.ctx.clone(),
            self.rooted.as_ref().map(RootedCounts::fresh),
        )
    }

    fn count(&self) -> u64 {
        self.num_forests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{absorb_batch, SamplerConfig};
    use crate::wilson::sample_forest_into;
    use cfcc_graph::generators;
    use cfcc_linalg::laplacian::laplacian_submatrix_dense;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn mask(n: usize, roots: &[Node]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &r in roots {
            m[r as usize] = true;
        }
        m
    }

    #[test]
    fn diagonal_estimates_match_dense() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let in_root = mask(30, &[0, 9]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, None);
        let cfg = SamplerConfig {
            seed: 77,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 30_000, &cfg, &mut acc);
        for (ci, &u) in keep.iter().enumerate() {
            let expect = inv.get(ci, ci);
            let got = acc.diag_mean(u);
            let se = (acc.diag_variance(u) / acc.num_forests() as f64).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * se + 0.02,
                "u={u}: got {got} expect {expect} (se {se})"
            );
        }
    }

    #[test]
    fn sketched_voltages_match_dense() {
        let mut rng = SmallRng::seed_from_u64(37);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let n = g.num_nodes();
        let in_root = mask(n, &[3]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let sketch = JlSketch::sample(6, n, &mut rng);
        let sketch_copy = sketch.clone();
        let mut acc =
            ElectricalAccumulator::new(&g, &in_root, Some(sketch), DiagMode::Diagonal, None);
        let cfg = SamplerConfig {
            seed: 99,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 40_000, &cfg, &mut acc);
        let y = acc.y_matrix();
        // expected: (W L^{-1})_{j,u} = Σ_v W_{jv} inv[cv][cu]
        for (cu, &u) in keep.iter().enumerate() {
            let col = y.row(u as usize);
            for (j, &got) in col.iter().enumerate().take(6) {
                let mut expect = 0.0;
                for (cv, &v) in keep.iter().enumerate() {
                    let entry = f64::from(sketch_copy.signs(v as usize)[j]) * sketch_copy.scale();
                    expect += entry * inv.get(cv, cu);
                }
                assert!(
                    (got - expect).abs() < 0.05,
                    "u={u} j={j}: got {got} expect {expect}"
                );
            }
        }
    }

    #[test]
    fn first_phase_matches_dense_reduction() {
        // x_u should estimate (L_{-s}^{-1})_{uu} − (2/n)·1ᵀL_{-s}^{-1}e_u.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::barabasi_albert(24, 2, &mut rng);
        let n = g.num_nodes();
        let s = g.max_degree_node().unwrap();
        let in_root = mask(n, &[s]);
        let (sub, keep) = laplacian_submatrix_dense(&g, &in_root);
        let inv = sub.cholesky().unwrap().inverse();
        let scale = 2.0 / n as f64;
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::FirstPhase, None);
        let cfg = SamplerConfig {
            seed: 1234,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, 40_000, &cfg, &mut acc);
        for (cu, &u) in keep.iter().enumerate() {
            let ones_col: f64 = (0..keep.len()).map(|cv| inv.get(cv, cu)).sum();
            let expect = inv.get(cu, cu) - scale * ones_col;
            let got = acc.diag_mean(u);
            let se = (acc.diag_variance(u) / acc.num_forests() as f64).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * se + 0.03,
                "u={u}: got {got} expect {expect} se {se}"
            );
        }
    }

    #[test]
    fn parallel_merge_matches_serial_means() {
        // Integer lanes and moments merge exactly: every estimate is the
        // same bits at every thread count, in both modes.
        let mut rng = SmallRng::seed_from_u64(43);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let in_root = mask(40, &[0]);
        let sketch = JlSketch::sample(34, 40, &mut rng);
        for mode in [DiagMode::Diagonal, DiagMode::FirstPhase] {
            let run = |threads| {
                let mut acc =
                    ElectricalAccumulator::new(&g, &in_root, Some(sketch.clone()), mode, None);
                let cfg = SamplerConfig { seed: 5, threads };
                absorb_batch(&g, &in_root, 0, 333, &cfg, &mut acc);
                acc
            };
            let serial = run(1);
            for threads in [2, 3, 4] {
                let (par, at) = (run(threads), format!("{mode:?}, {threads} threads"));
                assert_eq!(serial.num_forests(), par.num_forests(), "{at}");
                assert_eq!(serial.y_matrix(), par.y_matrix(), "{at}");
                for u in 0..40 {
                    let (a, b) = (&serial, &par);
                    assert_eq!(a.diag_mean(u), b.diag_mean(u), "{at}, node {u}");
                    assert_eq!(a.diag_variance(u), b.diag_variance(u), "{at}, node {u}");
                }
            }
        }
    }

    #[test]
    fn rooted_tracking_through_accumulator() {
        let mut rng = SmallRng::seed_from_u64(47);
        let g = generators::barabasi_albert(20, 2, &mut rng);
        let t_nodes = vec![1u32, 2u32];
        let in_root = mask(20, &[0, 1, 2]);
        let idx = Arc::new(RootIndex::new(20, &t_nodes));
        let mut acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, Some(idx));
        absorb_batch(&g, &in_root, 0, 500, &SamplerConfig::default(), &mut acc);
        let rooted = acc.rooted().unwrap();
        // Probabilities per node sum to ≤ 1 (the remainder roots in S).
        for u in 0..20u32 {
            if in_root[u as usize] {
                continue;
            }
            let total = rooted.row(u).iter().sum::<u32>() as f64 / acc.num_forests() as f64;
            assert!((0.0..=1.0 + 1e-9).contains(&total), "u={u} total {total}");
        }
    }

    #[test]
    fn untracking_a_root_equals_never_tracking_it() {
        // Forests rooted at S ∪ T = {0} ∪ {5, 9, 17}: absorb N tracking T,
        // drop t = 9, absorb M more. Tracking a root only adds its column,
        // so this must be bit for bit the N + M forests tracked without 9.
        let mut rng = SmallRng::seed_from_u64(59);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let in_root = mask(60, &[0, 5, 9, 17]);
        let sketch = JlSketch::sample(16, 60, &mut rng);
        let (n_first, m_more) = (96, 160);
        for threads in [1, 2] {
            let cfg = SamplerConfig { seed: 8, threads };
            let acc = |t_nodes: &[Node]| {
                let idx = Arc::new(RootIndex::new(60, t_nodes));
                let sk = Some(sketch.clone());
                ElectricalAccumulator::new(&g, &in_root, sk, DiagMode::Diagonal, Some(idx))
            };
            let mut dropped = acc(&[5, 9, 17]);
            absorb_batch(&g, &in_root, 0, n_first, &cfg, &mut dropped);
            dropped.untrack_roots(&[9]);
            absorb_batch(&g, &in_root, n_first, m_more, &cfg, &mut dropped);
            let mut never = acc(&[5, 17]);
            absorb_batch(&g, &in_root, 0, n_first + m_more, &cfg, &mut never);

            let at = format!("{threads} threads");
            assert_eq!(dropped.num_forests(), never.num_forests(), "{at}");
            assert_eq!(dropped.total_walk_steps(), never.total_walk_steps(), "{at}");
            assert_eq!(dropped.y_matrix(), never.y_matrix(), "{at}");
            let (rd, rn) = (dropped.rooted().unwrap(), never.rooted().unwrap());
            assert_eq!(rd.index().nodes(), rn.index().nodes(), "{at}");
            for u in 0..60 {
                assert_eq!(dropped.diag_mean(u), never.diag_mean(u), "{at}, node {u}");
                assert_eq!(
                    dropped.diag_variance(u),
                    never.diag_variance(u),
                    "{at}, node {u}"
                );
                assert_eq!(rd.row(u), rn.row(u), "{at}, node {u}");
            }
        }
    }

    /// The accumulator before the integer layout, kept as a reference: three
    /// `n × w` `f64` passes (copy the sketch columns, add children into
    /// parents, then the per-BFS-edge deltas), per-node root tallies, and
    /// diagonal samples from ancestor sets found by walking up the forest.
    struct ThreePassOracle {
        in_root: Vec<bool>,
        bfs_parent: Vec<Node>,
        bfs_order: Vec<Node>,
        sketch: JlSketch,
        forests: u64,
        edge_acc: Vec<f64>,
        sw: Vec<f64>,
        diag_sum: Vec<f64>,
        tally: Vec<HashMap<Node, u32>>,
    }

    impl ThreePassOracle {
        fn new(g: &Graph, in_root: &[bool], sketch: JlSketch) -> Self {
            let n = g.num_nodes();
            let roots: Vec<Node> = (0..n as Node).filter(|&u| in_root[u as usize]).collect();
            let bfs = bfs_from_set(g, &roots);
            let w = sketch.width();
            Self {
                in_root: in_root.to_vec(),
                bfs_parent: bfs.parent,
                bfs_order: bfs.order,
                sketch,
                forests: 0,
                edge_acc: vec![0.0; n * w],
                sw: vec![0.0; n * w],
                diag_sum: vec![0.0; n],
                tally: vec![HashMap::new(); n],
            }
        }

        fn absorb(&mut self, f: &Forest) {
            let w = self.sketch.width();
            let scale = self.sketch.scale();
            self.forests += 1;
            for &x in &f.bottomup {
                let xi = x as usize;
                for (v, &s) in self.sw[xi * w..xi * w + w]
                    .iter_mut()
                    .zip(self.sketch.signs(xi))
                {
                    *v = f64::from(s) * scale;
                }
            }
            for &x in &f.bottomup {
                let p = f.parent[x as usize];
                if !f.is_root(p) {
                    let (dst, src) = split_rows(&mut self.sw, p as usize, x as usize, w);
                    for j in 0..w {
                        dst[j] += src[j];
                    }
                }
            }
            for &x in &f.bottomup {
                let xi = x as usize;
                let pb = self.bfs_parent[xi] as usize;
                for j in 0..w {
                    if f.parent[xi] as usize == pb {
                        self.edge_acc[xi * w + j] += self.sw[xi * w + j];
                    }
                    if !self.in_root[pb] && f.parent[pb] == x {
                        self.edge_acc[xi * w + j] -= self.sw[pb * w + j];
                    }
                }
            }
            for &u in &f.bottomup {
                let mut ancestors = vec![u];
                while !f.is_root(*ancestors.last().unwrap()) {
                    ancestors.push(f.parent[*ancestors.last().unwrap() as usize]);
                }
                let root = *ancestors.last().unwrap();
                *self.tally[u as usize].entry(root).or_insert(0) += 1;
                let mut x = 0i64;
                let mut a = u;
                while !self.in_root[a as usize] {
                    let b = self.bfs_parent[a as usize];
                    if f.parent[a as usize] == b && ancestors.contains(&a) {
                        x += 1;
                    }
                    if f.parent[b as usize] == a && ancestors.contains(&b) {
                        x -= 1;
                    }
                    a = b;
                }
                self.diag_sum[u as usize] += x as f64;
            }
        }

        fn y_matrix(&self) -> DenseMatrix {
            let w = self.sketch.width();
            let inv = 1.0 / self.forests as f64;
            let mut y = DenseMatrix::zeros(self.bfs_parent.len(), w);
            for &u in &self.bfs_order {
                let p = self.bfs_parent[u as usize];
                if p == NO_PARENT {
                    continue;
                }
                for j in 0..w {
                    let v = y.get(p as usize, j) + self.edge_acc[u as usize * w + j] * inv;
                    y.set(u as usize, j, v);
                }
            }
            y
        }
    }

    #[test]
    fn integer_accumulator_matches_three_pass_oracle() {
        let mut rng = SmallRng::seed_from_u64(53);
        let ba = generators::barabasi_albert(80, 2, &mut rng);
        let grid = generators::grid(9, 9);
        for (g, roots) in [(&ba, [0u32, 7, 33, 51]), (&grid, [0, 40, 80, 13])] {
            let n = g.num_nodes();
            let in_root = mask(n, &roots);
            // S is the first root; T the others.
            let t_nodes = &roots[1..];
            for w in [6usize, 16, 34, 64] {
                let sketch = JlSketch::sample(w, n, &mut rng);
                let index = Arc::new(RootIndex::new(n, t_nodes));
                let mut acc = ElectricalAccumulator::new(
                    g,
                    &in_root,
                    Some(sketch.clone()),
                    DiagMode::Diagonal,
                    Some(index),
                );
                let mut oracle = ThreePassOracle::new(g, &in_root, sketch);
                let mut f = Forest::default();
                for _ in 0..300 {
                    sample_forest_into(g, &in_root, &mut rng, &mut f);
                    acc.absorb(&f);
                    oracle.absorb(&f);
                }
                let (got, want) = (acc.y_matrix(), oracle.y_matrix());
                if w.is_power_of_two() && w.trailing_zeros() % 2 == 0 {
                    // 1/√w is a power of two: the f64 sums were exact too.
                    assert_eq!(got, want, "w={w}");
                } else {
                    let scale = want.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let diff = got.max_abs_diff(&want);
                    assert!(diff <= 1e-12 * scale, "w={w}: diff {diff} scale {scale}");
                }
                let rooted = acc.rooted().unwrap();
                for u in 0..n as Node {
                    for (ti, &c) in rooted.row(u).iter().enumerate() {
                        let want = oracle.tally[u as usize].get(&t_nodes[ti]);
                        assert_eq!(c, want.copied().unwrap_or(0), "u={u} t={}", t_nodes[ti]);
                    }
                    let mean = oracle.diag_sum[u as usize] / oracle.forests as f64;
                    assert_eq!(acc.diag_mean(u), mean, "u={u}");
                }
            }
        }
    }
}
