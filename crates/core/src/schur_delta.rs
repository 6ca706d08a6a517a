//! SchurDelta (paper Algorithm 4): marginal gains via forests rooted at
//! the *enlarged* set `S ∪ T`.
//!
//! With `U = V ∖ (S ∪ T)` and `Σ = S_T(L_{-S})`, Eq. (11) block-decomposes
//!
//! ```text
//! L_{-S}^{-1} = [ L_UU^{-1} + F Σ^{-1} Fᵀ    F Σ^{-1}  ]
//!               [ Σ^{-1} Fᵀ                 Σ^{-1}     ]
//! ```
//!
//! where `F_{ut} = Pr(ρ_u = t)` (Lemma 4.2). The forests rooted at `S ∪ T`
//! supply three things at once: the `L_UU^{-1}` estimators (same machinery
//! as ForestDelta, but with much shorter walks — the paper's speed-up),
//! the rooted probabilities `F̃`, and, through Eq. (15), the estimated
//! `Σ̃` — inverted densely since `|T| ≪ n`.
//!
//! # Forest pool
//!
//! The forests depend on the root set `S ∪ T` only. When a SchurCFCM round
//! picks `t ∈ T`, the next round has `S' = S ∪ {t}` and `T' = T ∖ {t}`, so
//! `S' ∪ T'` is the same set and the old forests stay valid for it: the
//! `L_UU^{-1}` estimators and `F̃` do not change, and `Σ'` is `Σ` without
//! `t`'s row and column. [`schur_delta_ws`] therefore keeps its forests in
//! the run's [`GreedyWorkspace`], one pool per root set: the accumulator
//! (with its sketch `W` and rooted counts), the sketch `Q`, and the
//! sampler seed of the round that started the pool. A round with the same
//! root set drops the picked roots' columns from the rooted counts and
//! from `Q`, scores the pool as it is, and continues the doubling schedule
//! and the sampler's forest stream from there, up to the same cap. A new
//! root set starts a new pool, exactly as a round without a pool would.
//!
//! # Empty `T`: ForestDelta
//!
//! ForestDelta (Algorithm 2) is this estimator with `T = ∅`: the forests
//! are rooted at `S` alone, `Σ̃` is `0 × 0`, every correction below has an
//! empty inner dimension, and each gain is `‖Y_u‖² / max(ẑ_u, 1/d_u)`,
//! the sketched numerator over the diagonal samples clamped from below by
//! the Neumann bound `(L_{-S}^{-1})_{uu} ≥ 1/d_u` of Lemma 3.9's proof.
//! ForestCFCM's rounds, and SchurCFCM's once `T ∖ S` is empty, all run
//! through [`schur_delta_ws`]. The one branch on an empty `T` picks the
//! seed salts of a new pool: SchurDelta's (`0x5C47A` for the sketches,
//! `0x5DE17` for the sampler) or ForestDelta's (`0xD317A` and `0xDE17A`),
//! so both algorithms keep the streams they always drew.
//!
//! # Exact decision
//!
//! The estimates `Δ'` only screen the candidates: [`crate::adaptive`]
//! solves the 16 best-estimated ones at a time for their exact gains
//! `Δ(u, S) = ‖x‖² / x_u` with `x = L_{-S}^{-1} e_u`, one
//! [`RHS_CHUNK`](cfcc_linalg::sdd::RHS_CHUNK)-column panel through a
//! factor of `L_{-S}` built at the call's first panel, and picks the best
//! of them. The exact gain depends on `S` alone; `T` only steers the
//! sampling, so an empty `T` decides the same way. The factor's solver
//! work is folded into the workspace's run statistics.

use crate::adaptive::{sample_until_certified, unit_columns};
use crate::engine::{GreedyWorkspace, SchurScratch};
use crate::schur::{estimated_schur, invert_estimated_schur};
use crate::{CfcmError, CfcmParams};
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_forest::rooted::RootIndex;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::sdd::{self, SddFactor};
use cfcc_linalg::vector::{dot, norm2_sq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Output of one Schur delta-estimation round.
#[derive(Debug, Clone)]
pub struct SchurDeltaEstimates {
    /// `Δ(u, S)` per node (`NaN` for `u ∈ S`): exact (to the solver's
    /// tolerance) for the candidates the round solved, the forest estimate
    /// `Δ'` for the rest.
    pub deltas: Vec<f64>,
    /// The solved candidate with the largest exact gain.
    pub best: Node,
    /// Forests the estimates average over: the pool's size, never 0.
    pub forests: u64,
    /// Forests this call sampled into the pool (0 when the pool was
    /// already at the cap).
    pub sampled: u64,
    /// Random-walk steps of the forests this call sampled.
    pub walk_steps: u64,
    /// Ridge added to the estimated Schur complement at the round's last
    /// checkpoint (0 in the common case).
    pub ridge: f64,
}

/// SchurDelta's forests for one root set `S ∪ T`, held by the run's
/// [`GreedyWorkspace`] and continued by every round that shares the root
/// set (see the module docs).
pub(crate) struct ForestPool {
    /// `CfcmParams::seed` of the round that started the pool.
    params_seed: u64,
    /// The sampler seed of the pool's forest stream.
    seed: u64,
    /// The forests, with the sketch `W` and the rooted counts of the
    /// current `T`.
    acc: ElectricalAccumulator,
    /// The sketch `Q` over the current `T`.
    sketch_q: JlSketch,
}

impl ForestPool {
    /// An empty pool for the round `iteration`: the sketches and the
    /// sampler seed are the ones a round without a pool would draw, with
    /// ForestDelta's salts when `T` is empty (see the module docs).
    fn new(
        g: &Graph,
        in_root: &[bool],
        t_nodes: &[Node],
        params: &CfcmParams,
        iteration: u64,
    ) -> Self {
        let (n, w) = (g.num_nodes(), params.width(g.num_nodes()));
        let (sketch_salt, sampler_salt) = if t_nodes.is_empty() {
            (0xD317A, 0xDE17A)
        } else {
            (0x5C47A, 0x5DE17)
        };
        let mut sketch_rng =
            StdRng::seed_from_u64(params.seed ^ sketch_salt ^ iteration.wrapping_mul(0x9E37));
        let sketch_w = JlSketch::sample(w, n, &mut sketch_rng);
        let sketch_q = JlSketch::sample(w, t_nodes.len(), &mut sketch_rng);
        let index = Arc::new(RootIndex::new(n, t_nodes));
        Self {
            params_seed: params.seed,
            seed: params.seed ^ sampler_salt ^ iteration.wrapping_mul(0x85EB),
            acc: ElectricalAccumulator::new(
                g,
                in_root,
                Some(sketch_w),
                DiagMode::Diagonal,
                Some(index),
            ),
            sketch_q,
        }
    }

    /// Forests in the pool.
    pub(crate) fn forests(&self) -> u64 {
        self.acc.num_forests()
    }

    /// The roots whose columns the pool tracks, in column order.
    fn tracked(&self) -> &[Node] {
        self.acc
            .rooted()
            .expect("rooted tracking enabled")
            .index()
            .nodes()
    }

    /// Whether a round rooted at `in_root = S ∪ T` can continue this pool:
    /// the same root set, seed and width, and a `T` that is the tracked
    /// roots outside `S`, in order.
    fn continues(
        &self,
        in_s: &[bool],
        t_nodes: &[Node],
        in_root: &[bool],
        params: &CfcmParams,
    ) -> bool {
        self.params_seed == params.seed
            && self.acc.width() == params.width(in_root.len())
            && self.acc.in_root() == in_root
            && self
                .tracked()
                .iter()
                .filter(|&&t| !in_s[t as usize])
                .eq(t_nodes)
    }

    /// Drop the tracked roots that joined `S` from the rooted counts and
    /// from `Q`.
    fn untrack_picked(&mut self, in_s: &[bool]) {
        let tracked = self.tracked();
        let (picked, keep): (Vec<usize>, Vec<usize>) =
            (0..tracked.len()).partition(|&i| in_s[tracked[i] as usize]);
        if picked.is_empty() {
            return;
        }
        let picked: Vec<Node> = picked.iter().map(|&i| tracked[i]).collect();
        self.sketch_q = self.sketch_q.columns(&keep);
        self.acc.untrack_roots(&picked);
    }
}

/// Estimate marginal gains with the auxiliary root set `T` (Algorithm 4,
/// or Algorithm 2 when `T` is empty), with a fresh (throwaway) workspace.
/// Greedy loops should prefer [`schur_delta_ws`] with the run's persistent
/// [`crate::engine::GreedyWorkspace`], which reuses the dense round
/// buffers and continues the forest pool across iterations.
pub fn schur_delta(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    params: &CfcmParams,
    iteration: u64,
) -> Result<SchurDeltaEstimates, CfcmError> {
    let mut ws = GreedyWorkspace::new();
    schur_delta_ws(g, in_s, t_nodes, params, iteration, &mut ws)
}

/// [`schur_delta`] against the run's persistent workspace: the
/// `|T| × w` round buffers live in `ws` and are re-shaped (never
/// reallocated while shrinking) across greedy iterations, and the forests
/// live in `ws`'s pool. A call whose root set `S ∪ T`, seed and sketch
/// width match the pool's continues it (see the module docs); any other
/// call drops the pool and starts a new one from this `iteration`'s
/// seeds, so it computes what [`schur_delta`] computes. A pool is meant
/// for one run on one graph: call [`GreedyWorkspace::begin_run`] before
/// reusing `ws` elsewhere.
///
/// `in_s` marks `S`; `t_nodes` must be disjoint from `S` and may be
/// empty, which makes the round ForestDelta's (see the module docs). The
/// round after a pick of the last node of `T ∖ S` has an empty `T` and
/// the same root set, so it continues the pool like any other.
pub fn schur_delta_ws(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    params: &CfcmParams,
    iteration: u64,
    ws: &mut GreedyWorkspace,
) -> Result<SchurDeltaEstimates, CfcmError> {
    debug_assert!(
        t_nodes.iter().all(|&t| !in_s[t as usize]),
        "T must be disjoint from S"
    );
    let mut in_root = in_s.to_vec();
    for &t in t_nodes {
        in_root[t as usize] = true;
    }
    // Options of L_{-S}'s factor: the run's stop hook comes with them.
    let opts = ws.factor_options(params);

    if !ws
        .forest_pool
        .as_ref()
        .is_some_and(|pool| pool.continues(in_s, t_nodes, &in_root, params))
    {
        // Drop the old pool before building the next: only one is alive.
        ws.forest_pool = None;
    }
    let pool = ws
        .forest_pool
        .get_or_insert_with(|| ForestPool::new(g, &in_root, t_nodes, params, iteration));
    pool.untrack_picked(in_s);
    let (forests_before, steps_before) = (pool.acc.num_forests(), pool.acc.total_walk_steps());
    // Dense round buffers live in the run's persistent workspace: each
    // adaptive round — and each greedy iteration — re-fills the same
    // allocations instead of creating new ones.
    let sketch_w = pool.acc.sketch().expect("the pool sketches");
    ws.schur.begin_round(sketch_w, t_nodes.len());
    let mut ridge = 0.0f64;
    // L_{-S}, factored at the call's first panel.
    let mut factor: Option<Box<dyn SddFactor + Send>> = None;
    let decided = sample_until_certified::<CfcmError>(
        g,
        &in_root,
        pool.seed,
        params,
        &mut pool.acc,
        |acc, deltas| {
            ridge = compute_schur_deltas(
                g,
                in_s,
                t_nodes,
                acc,
                &pool.sketch_q,
                params.threads,
                &mut ws.schur,
                deltas,
            )?;
            Ok(())
        },
        |nodes| {
            if factor.is_none() {
                factor = Some(sdd::factor(g, in_s, params.backend, &opts)?);
            }
            exact_gains(factor.as_deref_mut().expect("factored above"), nodes)
        },
    );
    let (forests, walk_steps) = (pool.acc.num_forests(), pool.acc.total_walk_steps());
    if let Some(f) = &factor {
        ws.absorb_solve_stats(f.stats());
    }
    let (deltas, best) = decided?;
    Ok(SchurDeltaEstimates {
        deltas,
        best,
        forests,
        sampled: forests - forests_before,
        walk_steps: walk_steps - steps_before,
        ridge,
    })
}

/// The exact gains `Δ(u, S) = ‖x‖² / x_u`, `x = L_{-S}^{-1} e_u`, of the
/// candidates `nodes` (all outside `S`), through `factor = L_{-S}`.
fn exact_gains(factor: &mut dyn SddFactor, nodes: &[Node]) -> Result<Vec<f64>, CfcmError> {
    let cols = unit_columns(factor, nodes)?;
    Ok(nodes
        .iter()
        .enumerate()
        .map(|(j, &u)| {
            let x = cols.row(j);
            norm2_sq(x) / x[factor.compact_of(u).expect("a candidate outside S")]
        })
        .collect())
}

/// Assemble Δ' for all `u ∉ S` from the current accumulator state. The
/// dense buffers come from the run's persistent [`SchurScratch`], whose
/// `w_signs` holds this round's sketch `W`; every product below is one
/// blocked GEMM, bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
fn compute_schur_deltas(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    acc: &ElectricalAccumulator,
    sketch_q: &JlSketch,
    threads: usize,
    ws: &mut SchurScratch,
    deltas: &mut [f64],
) -> Result<f64, CfcmError> {
    let n = g.num_nodes();
    let rooted = acc.rooted().expect("rooted tracking enabled");
    let inv_n = 1.0 / acc.num_forests() as f64;

    // Σ̃ and its inverse G — the quadratic forms below read G's entries
    // directly, so this is a genuine inverse consumer (|T| × |T|, small).
    let mut in_root = in_s.to_vec();
    for &t in t_nodes {
        in_root[t as usize] = true;
    }
    let sigma = estimated_schur(g, &in_root, t_nodes, rooted, acc.num_forests());
    let (gmat, ridge) = invert_estimated_schur(sigma)?;

    // C = Ñ·F̃ as f64; counts are integers, so the copy is exact.
    for u in 0..n {
        let row = ws.counts.row_mut(u);
        for (c, &k) in row.iter_mut().zip(rooted.row(u as Node)) {
            *c = f64::from(k);
        }
    }
    // wfq_t = (W·F̃ + Q)ᵀ. W·C sums integers (exact in any order); the
    // sketch scale and 1/Ñ are applied once, per entry.
    ws.w_signs.matmul_into(&ws.counts, &mut ws.wc, threads);
    let scale = sketch_q.scale();
    let unit = scale * inv_n;
    for ti in 0..t_nodes.len() {
        let q = sketch_q.signs(ti);
        for (j, v) in ws.wfq_t.row_mut(ti).iter_mut().enumerate() {
            *v = ws.wc.get(j, ti) * unit + f64::from(q[j]) * scale;
        }
    }
    // ht = G · wfq_t ∈ R^{|T| × w}; row t is the column `H e_t` of
    // H = (W F̃ + Q) Σ̃^{-1}.
    gmat.matmul_into(&ws.wfq_t, &mut ws.ht, threads);
    // Y's column correction: Y e_u += H·f_u for every u, i.e. Y += F̃·Hᵀ
    // (rows of S ∪ T have f_u = 0 and stay as they are).
    acc.y_matrix_into(&mut ws.y);
    ws.y.gemm_acc(&ws.counts, &ws.ht, inv_n, threads);
    // Quadratic forms f_uᵀ G f_u = (C·G)_u · C_u / Ñ².
    ws.counts.matmul_into(&gmat, &mut ws.cg, threads);

    for u in 0..n as Node {
        let ui = u as usize;
        if in_s[ui] {
            deltas[ui] = f64::NAN;
            continue;
        }
        if let Some(ti) = rooted.index().index_of(u) {
            // u = t ∈ T: bottom-right block of Eq. (11).
            let zt = gmat.get(ti, ti).max(f64::MIN_POSITIVE);
            deltas[ui] = norm2_sq(ws.ht.row(ti)) / zt;
            continue;
        }
        // u ∈ U: top-left block.
        let quad = dot(ws.counts.row(ui), ws.cg.row(ui)) * inv_n * inv_n;
        let floor = 1.0 / g.degree(u) as f64;
        let zu = acc.diag_mean(u).max(floor) + quad.max(0.0);
        deltas[ui] = norm2_sq(ws.y.row(ui)) / zu;
    }
    Ok(ridge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_deltas;
    use crate::params::{t_star, top_degree_nodes};
    use cfcc_graph::generators;
    use rand::rngs::StdRng;

    fn run_case(seed: u64, n: usize, s: Vec<Node>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, 2, &mut rng);
        let mut in_s = vec![false; n];
        for &x in &s {
            in_s[x as usize] = true;
        }
        let c = t_star(&g).max(2);
        let t_nodes: Vec<Node> = top_degree_nodes(&g, c + s.len())
            .into_iter()
            .filter(|&t| !in_s[t as usize])
            .take(c)
            .collect();
        let params = CfcmParams::with_epsilon(0.15).seed(seed ^ 0xA);
        let est = schur_delta(&g, &in_s, &t_nodes, &params, 1).unwrap();
        let exact: Vec<(Node, f64)> = exact_deltas(&g, &s).unwrap();
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top3: Vec<Node> = sorted.iter().take(3).map(|&(u, _)| u).collect();
        assert!(
            top3.contains(&est.best),
            "estimated best {} not in exact top3 {top3:?}",
            est.best
        );
        let exact_of_best = exact.iter().find(|&&(u, _)| u == est.best).unwrap().1;
        assert!(
            exact_of_best >= 0.85 * sorted[0].1,
            "chosen {} gain {exact_of_best} vs best {}",
            est.best,
            sorted[0].1
        );
    }

    #[test]
    fn tracks_exact_deltas_small() {
        run_case(24, 40, vec![0]);
    }

    #[test]
    fn tracks_exact_deltas_larger_group() {
        run_case(25, 50, vec![1, 8]);
    }

    #[test]
    fn grounded_nodes_are_nan_and_t_nodes_scored() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let mut in_s = vec![false; 30];
        in_s[5] = true;
        let t_nodes: Vec<Node> = top_degree_nodes(&g, 4)
            .into_iter()
            .filter(|&t| t != 5)
            .take(3)
            .collect();
        let params = CfcmParams::with_epsilon(0.3).seed(2);
        let est = schur_delta(&g, &in_s, &t_nodes, &params, 0).unwrap();
        assert!(est.deltas[5].is_nan());
        for &t in &t_nodes {
            assert!(
                est.deltas[t as usize].is_finite(),
                "T node {t} must be scored"
            );
        }
    }

    /// A BA graph with `S = {s}` and `T` the next four top-degree nodes.
    fn pool_case() -> (Graph, Vec<bool>, Vec<Node>) {
        let mut rng = StdRng::seed_from_u64(34);
        let g = generators::barabasi_albert(50, 2, &mut rng);
        let top = top_degree_nodes(&g, 5);
        let mut in_s = vec![false; 50];
        in_s[top[0] as usize] = true;
        (g, in_s, top[1..].to_vec())
    }

    #[test]
    fn a_pick_in_t_continues_a_full_pool_without_sampling() {
        let (g, mut in_s, t_nodes) = pool_case();
        let mut params = CfcmParams::with_epsilon(0.3).seed(3);
        params.max_forests = params.min_batch;
        let mut ws = GreedyWorkspace::new();
        let first = schur_delta_ws(&g, &in_s, &t_nodes, &params, 1, &mut ws).unwrap();
        assert_eq!((first.forests, first.sampled), (64, 64));
        // Picking t ∈ T leaves S ∪ T as it was; the pool is at the cap.
        let t = t_nodes[1];
        in_s[t as usize] = true;
        let rest: Vec<Node> = t_nodes.iter().copied().filter(|&u| u != t).collect();
        let second = schur_delta_ws(&g, &in_s, &rest, &params, 2, &mut ws).unwrap();
        assert_eq!((second.forests, second.sampled), (64, 0));
        assert_eq!(second.walk_steps, 0);
        assert!(second.deltas[second.best as usize].is_finite());
        assert!(second.deltas[t as usize].is_nan());
        assert!(rest.iter().all(|&u| second.deltas[u as usize].is_finite()));
        // The pool never outlives a run.
        assert_eq!(ws.pooled_forests(), 64);
        ws.begin_run();
        assert_eq!(ws.pooled_forests(), 0);
    }

    #[test]
    fn a_pick_of_the_last_node_of_t_continues_the_pool_with_an_empty_t() {
        let (g, mut in_s, t_nodes) = pool_case();
        let mut params = CfcmParams::with_epsilon(0.3).seed(5);
        params.max_forests = params.min_batch;
        let mut ws = GreedyWorkspace::new();
        let t = t_nodes[0];
        schur_delta_ws(&g, &in_s, &[t], &params, 1, &mut ws).unwrap();
        // Picking the only node of T leaves the root set S ∪ T as it was:
        // the round with an empty T scores the full pool as ForestDelta.
        in_s[t as usize] = true;
        let next = schur_delta_ws(&g, &in_s, &[], &params, 2, &mut ws).unwrap();
        assert_eq!((next.forests, next.sampled), (64, 0));
        assert_eq!(next.walk_steps, 0);
        assert!(next.deltas[t as usize].is_nan());
        assert!(next.deltas[next.best as usize].is_finite());
    }

    #[test]
    fn a_pick_outside_t_starts_a_new_pool() {
        let (g, mut in_s, t_nodes) = pool_case();
        let params = CfcmParams::with_epsilon(0.3).seed(4);
        let mut ws = GreedyWorkspace::new();
        schur_delta_ws(&g, &in_s, &t_nodes, &params, 1, &mut ws).unwrap();
        let u = (0..50).find(|&u| !in_s[u] && !t_nodes.contains(&(u as Node)));
        in_s[u.unwrap()] = true;
        let pooled = schur_delta_ws(&g, &in_s, &t_nodes, &params, 2, &mut ws).unwrap();
        assert_eq!(pooled.forests, pooled.sampled);
        assert_eq!(ws.pooled_forests(), pooled.forests);
        // A new pool is exactly a call without one.
        let fresh = schur_delta(&g, &in_s, &t_nodes, &params, 2).unwrap();
        assert_eq!((pooled.best, pooled.forests), (fresh.best, fresh.forests));
        assert_eq!(pooled.walk_steps, fresh.walk_steps);
        for (a, b) in pooled.deltas.iter().zip(&fresh.deltas) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = generators::barabasi_albert(35, 2, &mut rng);
        let mut in_s = vec![false; 35];
        in_s[3] = true;
        let t_nodes: Vec<Node> = top_degree_nodes(&g, 5)
            .into_iter()
            .filter(|&t| t != 3)
            .take(4)
            .collect();
        let params = CfcmParams::default().seed(55);
        let a = schur_delta(&g, &in_s, &t_nodes, &params, 2).unwrap();
        let b = schur_delta(&g, &in_s, &t_nodes, &params, 2).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.forests, b.forests);
    }
}
