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

use crate::adaptive::{batch_schedule, Candidate, StopRule};
use crate::engine::{GreedyWorkspace, SchurScratch};
use crate::forest_delta::top2_max;
use crate::schur::{estimated_schur, invert_estimated_schur};
use crate::{CfcmError, CfcmParams};
use cfcc_forest::bernstein::bernstein_halfwidth;
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_forest::rooted::RootIndex;
use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::vector::{dot, norm2_sq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Output of one Schur delta-estimation round.
#[derive(Debug, Clone)]
pub struct SchurDeltaEstimates {
    /// `Δ'(u, S)` per node (`NaN` for `u ∈ S`).
    pub deltas: Vec<f64>,
    /// Argmax node.
    pub best: Node,
    /// Forests sampled.
    pub forests: u64,
    /// Random-walk steps performed.
    pub walk_steps: u64,
    /// Ridge added to the estimated Schur complement (0 in the common case).
    pub ridge: f64,
}

/// Estimate marginal gains with the auxiliary root set `T` (Algorithm 4),
/// with a fresh (throwaway) workspace. Greedy loops should prefer
/// [`schur_delta_ws`] with the run's persistent
/// [`crate::engine::GreedyWorkspace`] so the dense round buffers are
/// reused across iterations instead of reallocated.
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
/// reallocated while shrinking) across greedy iterations.
///
/// `in_s` marks `S`; `t_nodes` must be disjoint from `S` and non-empty.
pub fn schur_delta_ws(
    g: &Graph,
    in_s: &[bool],
    t_nodes: &[Node],
    params: &CfcmParams,
    iteration: u64,
    ws: &mut GreedyWorkspace,
) -> Result<SchurDeltaEstimates, CfcmError> {
    let n = g.num_nodes();
    assert!(!t_nodes.is_empty());
    debug_assert!(
        t_nodes.iter().all(|&t| !in_s[t as usize]),
        "T must be disjoint from S"
    );
    let mut in_root = in_s.to_vec();
    for &t in t_nodes {
        in_root[t as usize] = true;
    }

    let w = params.width(n);
    let mut sketch_rng =
        StdRng::seed_from_u64(params.seed ^ 0x5C47A ^ iteration.wrapping_mul(0x9E37));
    let sketch_w = JlSketch::sample(w, n, &mut sketch_rng);
    let sketch_q = JlSketch::sample(w, t_nodes.len(), &mut sketch_rng);
    // Dense round buffers live in the run's persistent workspace: each
    // adaptive round — and each greedy iteration — re-fills the same
    // allocations instead of creating new ones.
    ws.schur.begin_round(&sketch_w, t_nodes.len());
    let index = Arc::new(RootIndex::new(n, t_nodes));
    let mut acc =
        ElectricalAccumulator::new(g, &in_root, Some(sketch_w), DiagMode::Diagonal, Some(index));
    let cfg = SamplerConfig {
        seed: params.seed ^ 0x5DE17 ^ iteration.wrapping_mul(0x85EB),
        threads: params.threads,
    };
    let dmax = g.max_degree_excluding(&in_root);
    let cap = params.forest_cap(n, 0, dmax);
    let mut rule = StopRule::new();
    let mut sampled = 0u64;
    let mut deltas = vec![f64::NAN; n];
    let mut last_ridge = 0.0f64;
    for total in batch_schedule(params.min_batch, cap) {
        absorb_batch(g, &in_root, sampled, total - sampled, &cfg, &mut acc);
        sampled = total;
        last_ridge = compute_schur_deltas(
            g,
            in_s,
            t_nodes,
            &acc,
            &sketch_q,
            params.threads,
            &mut ws.schur,
            &mut deltas,
        )?;
        let (best, second) = top2_max(&deltas);
        let mk = |u: Node| Candidate {
            node: u,
            score: deltas[u as usize],
            halfwidth: if in_root[u as usize] {
                // t ∈ T: denominator comes from Σ̃^{-1}, treated via the
                // stability criterion only.
                0.0
            } else {
                let hz = bernstein_halfwidth(
                    acc.num_forests(),
                    acc.diag_variance(u),
                    acc.diag_sup(u).max(1.0),
                    params.delta_confidence,
                );
                let z = acc.diag_mean(u).max(f64::MIN_POSITIVE);
                deltas[u as usize] * (hz / z).min(1.0)
            },
        };
        if rule.check(mk(best), second.map(mk), params.epsilon) {
            break;
        }
    }
    let (best, _) = top2_max(&deltas);
    Ok(SchurDeltaEstimates {
        deltas,
        best,
        forests: acc.num_forests(),
        walk_steps: acc.total_walk_steps(),
        ridge: last_ridge,
    })
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
