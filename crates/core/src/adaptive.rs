//! The one sampling loop of the Monte-Carlo phases: forests screen the
//! candidates, exact solves decide.
//!
//! Both forest phases (the first pick of Algorithms 3 and 5, and every
//! SchurDelta round) sample in doubling batches through
//! `sample_until_certified`. After each checkpoint the forests' estimates
//! only choose which candidates to evaluate exactly: 16 candidates that
//! have no exact value yet are solved as one [`RHS_CHUNK`]-column panel
//! through a factor of the grounded Laplacian, and the pick is the best
//! exact value. Sampling stops once no unsolved candidate's unbiased
//! estimate exceeds that value by more than the slack `(ε/2)·|best|`.
//!
//! # Two estimates per candidate
//!
//! A phase scores every candidate twice. The *unbiased* estimate is
//! SchurDelta's `⟨Ŷ^A_u, Ŷ^B_u⟩ / ẑ_u` over two independent halves of the
//! forests (see [`crate::schur_delta`]). The *optimistic* one adds the
//! halves' spread `‖(Ŷ^A_u − Ŷ^B_u)/2‖² / ẑ_u`, and with equal halves it
//! is `‖Ŷ_u‖² / ẑ_u` of all the forests, which a node's Monte-Carlo
//! variance biases upward. The stop rule reads the unbiased estimates, so
//! noisy nodes no longer hold the sampling open. A panel holds the 12
//! best unsolved candidates by the unbiased estimate plus the
//! [`RHS_CHUNK`]` / 4` best of the rest by the optimistic one, so that a
//! strong node whose unbiased estimate is low at a small checkpoint still
//! gets solved. A phase without halves (the first phase) passes one
//! estimate for both, and its panels are the 16 best.
//!
//! One checkpoint is enough to stop, because the pick itself is exact:
//! the estimates no longer have to tell near-ties apart, only to show that
//! no candidate outside the solved ones is likely to beat the pick by more
//! than the `ε` guarantee tolerates. Exact values do not change as forests
//! arrive, so they persist for the whole call and a node is solved at
//! most once. The practical cap [`crate::CfcmParams::forest_cap`] (the
//! `max_forests` field) preserves termination. The paper's worst-case
//! sample bound (Lemma 3.9) is not implemented; it is astronomically
//! larger than any cap a run can afford.

use crate::CfcmParams;
use cfcc_forest::estimators::ElectricalAccumulator;
use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::sdd::{SddFactor, RHS_CHUNK};
use cfcc_linalg::{DenseMatrix, LinalgError};

/// Doubling batch schedule: total sample targets after each checkpoint.
pub fn batch_schedule(min_batch: u64, cap: u64) -> Vec<u64> {
    let mut totals = Vec::new();
    let mut t = min_batch.max(1);
    loop {
        totals.push(t.min(cap));
        if t >= cap {
            break;
        }
        t = t.saturating_mul(2);
    }
    totals.dedup();
    totals
}

/// Panel columns for the best optimistic estimates that the unbiased
/// ones leave out (see the module docs).
const OPTIMISTIC_COLUMNS: usize = RHS_CHUNK / 4;

/// Sample forests rooted at `in_root` into `acc` in doubling batches of
/// the RNG stream `seed`, until an exact evaluation settles the pick or
/// [`CfcmParams::forest_cap`] forests are in (see the module docs).
///
/// After every batch, `score(acc, unbiased, optimistic)` rewrites each
/// node's two estimates from `acc` (bigger is better; `NaN` marks a
/// non-candidate in both). The next panel (the 12 highest unbiased
/// estimates without an exact value, then the 4 highest optimistic
/// estimates of the rest, first index on ties) then gets exact values
/// from a single `exact(nodes)` call, in the estimates' units. Sampling
/// stops when every unsolved candidate's unbiased estimate is at most
/// `best + (ε/2)·|best|`, with `best` the largest exact value so far.
///
/// Returns the last unbiased estimates with the exact values written over
/// the solved nodes', and the node of the best exact value (first index
/// on ties). Only a failing `score` or `exact` fails the sampling.
///
/// An `acc` that already holds forests (SchurDelta's pool, see
/// [`crate::schur_delta`]) is scored at its current count first; the
/// schedule and the stream's global forest index continue from there, so
/// a pool already at the cap samples nothing and still decides exactly.
pub(crate) fn sample_until_certified<E>(
    g: &Graph,
    in_root: &[bool],
    seed: u64,
    params: &CfcmParams,
    acc: &mut ElectricalAccumulator,
    mut score: impl FnMut(&ElectricalAccumulator, &mut [f64], &mut [f64]) -> Result<(), E>,
    mut exact: impl FnMut(&[Node]) -> Result<Vec<f64>, E>,
) -> Result<(Vec<f64>, Node), E> {
    let cfg = SamplerConfig {
        seed,
        threads: params.threads,
    };
    let n = g.num_nodes();
    let mut unbiased = vec![f64::NAN; n];
    let mut optimistic = vec![f64::NAN; n];
    // Exact values of the solved nodes, NaN for the rest.
    let mut solved = vec![f64::NAN; n];
    // The unsolved candidates' unbiased and optimistic estimates.
    let mut open = vec![f64::NAN; n];
    let mut open_optimistic = vec![f64::NAN; n];
    let start = acc.num_forests();
    let schedule = batch_schedule(params.min_batch, params.forest_cap())
        .into_iter()
        .filter(|&total| total > start);
    let mut sampled = start;
    for total in (start > 0).then_some(start).into_iter().chain(schedule) {
        absorb_batch(g, in_root, sampled, total - sampled, &cfg, acc);
        sampled = total;
        score(acc, &mut unbiased, &mut optimistic)?;
        for u in 0..n {
            let unsolved = solved[u].is_nan();
            open[u] = if unsolved { unbiased[u] } else { f64::NAN };
            open_optimistic[u] = if unsolved { optimistic[u] } else { f64::NAN };
        }
        let panel = next_panel(&open, &mut open_optimistic);
        if !panel.is_empty() {
            for (&u, v) in panel.iter().zip(exact(&panel)?) {
                solved[u as usize] = v;
                open[u as usize] = f64::NAN;
            }
        }
        let best = solved[argbest(&solved) as usize];
        let bar = best + params.epsilon / 2.0 * best.abs();
        if !open.iter().any(|&x| x > bar) {
            break;
        }
    }
    for (x, &v) in unbiased.iter_mut().zip(&solved) {
        if !v.is_nan() {
            *x = v;
        }
    }
    Ok((unbiased, argbest(&solved)))
}

/// The next panel from the unsolved candidates' estimates: the
/// `RHS_CHUNK − RHS_CHUNK / 4` highest `unbiased`, then the
/// `RHS_CHUNK / 4` highest `optimistic` of the rest (first index on ties
/// in both). `optimistic` is clobbered. With equal estimates this is the
/// 16 highest, in order.
fn next_panel(unbiased: &[f64], optimistic: &mut [f64]) -> Vec<Node> {
    let mut panel = top_max(unbiased, RHS_CHUNK - OPTIMISTIC_COLUMNS);
    for &u in &panel {
        optimistic[u as usize] = f64::NAN;
    }
    panel.extend(top_max(optimistic, OPTIMISTIC_COLUMNS));
    panel
}

/// The node of the best exact value. The first checkpoint solves the
/// leading candidates, and every phase has at least one.
fn argbest(solved: &[f64]) -> Node {
    *top_max(solved, 1)
        .first()
        .expect("at least one candidate has an exact value")
}

/// Indices of the (at most) `m` largest non-`NaN` values, largest first;
/// the first index wins ties.
pub(crate) fn top_max(xs: &[f64], m: usize) -> Vec<Node> {
    let by_value = |&a: &usize, &b: &usize| xs[b].total_cmp(&xs[a]).then(a.cmp(&b));
    let mut idx: Vec<usize> = (0..xs.len()).filter(|&i| !xs[i].is_nan()).collect();
    if idx.len() > m && m > 0 {
        idx.select_nth_unstable_by(m - 1, by_value);
    }
    idx.truncate(m);
    idx.sort_unstable_by(by_value);
    idx.into_iter().map(|i| i as Node).collect()
}

/// The columns `x = L_{-S}^{-1} e_u` for the kept nodes `nodes` (at most
/// [`RHS_CHUNK`]), solved as one cold-started panel through `factor`: row
/// `j` of the result is the column of `nodes[j]`, in compact order.
pub(crate) fn unit_columns(
    factor: &mut dyn SddFactor,
    nodes: &[Node],
) -> Result<DenseMatrix, LinalgError> {
    let (d, c) = (factor.dim(), nodes.len());
    let mut b = DenseMatrix::zeros(d, c);
    for (j, &u) in nodes.iter().enumerate() {
        let i = factor.compact_of(u).expect("a unit column of a kept node");
        b.set(i, j, 1.0);
    }
    let mut x = DenseMatrix::zeros(d, c);
    factor.solve_mat_into(&b, &mut x)?;
    Ok(x.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_forest::estimators::DiagMode;
    use cfcc_graph::generators;
    use std::collections::HashSet;
    use std::convert::Infallible;

    #[test]
    fn schedule_doubles_to_cap() {
        assert_eq!(batch_schedule(64, 512), vec![64, 128, 256, 512]);
        assert_eq!(batch_schedule(100, 300), vec![100, 200, 300]);
        assert_eq!(batch_schedule(64, 64), vec![64]);
        assert_eq!(batch_schedule(0, 10), vec![1, 2, 4, 8, 10]);
    }

    /// A path rooted at node 0, an empty accumulator, and parameters with
    /// the schedule `[1, 2, 4, 8]`.
    fn case(n: usize) -> (Graph, Vec<bool>, ElectricalAccumulator, CfcmParams) {
        let g = generators::path(n);
        let mut in_root = vec![false; n];
        in_root[0] = true;
        let acc = ElectricalAccumulator::new(&g, &in_root, None, DiagMode::Diagonal, None);
        let mut p = CfcmParams::with_epsilon(0.2);
        p.min_batch = 1;
        p.max_forests = 8;
        (g, in_root, acc, p)
    }

    /// Run the loop with one scripted estimate (of the node and the forest
    /// count) for both, and exact values, recording every `exact` call.
    fn run(
        n: usize,
        acc: Option<ElectricalAccumulator>,
        estimate: impl Fn(usize, u64) -> f64,
        value: impl Fn(Node) -> f64,
    ) -> (Vec<f64>, Node, Vec<Vec<Node>>, u64) {
        let both = |u, forests| {
            let x = estimate(u, forests);
            (x, x)
        };
        run_screen(n, acc, both, value)
    }

    /// [`run`] with scripted `(unbiased, optimistic)` estimates.
    fn run_screen(
        n: usize,
        acc: Option<ElectricalAccumulator>,
        estimates: impl Fn(usize, u64) -> (f64, f64),
        value: impl Fn(Node) -> f64,
    ) -> (Vec<f64>, Node, Vec<Vec<Node>>, u64) {
        let (g, in_root, fresh, p) = case(n);
        let mut acc = acc.unwrap_or(fresh);
        let mut calls = Vec::new();
        let (scores, best) = sample_until_certified::<Infallible>(
            &g,
            &in_root,
            7,
            &p,
            &mut acc,
            |acc, unbiased, optimistic| {
                for u in 0..n {
                    (unbiased[u], optimistic[u]) = if u == 0 {
                        (f64::NAN, f64::NAN)
                    } else {
                        estimates(u, acc.num_forests())
                    };
                }
                Ok(())
            },
            |nodes| {
                calls.push(nodes.to_vec());
                Ok(nodes.iter().map(|&u| value(u)).collect())
            },
        )
        .unwrap();
        (scores, best, calls, acc.num_forests())
    }

    #[test]
    fn a_panel_is_12_unbiased_picks_and_4_optimistic_ones_and_the_stop_reads_unbiased() {
        // Unbiased estimates lead with nodes 1..=12 (5.0) and sit at 1.05
        // elsewhere; optimistic ones grow with the node. The panel is
        // nodes 1..=12, then the 4 best optimistic estimates of the rest.
        // After it, no unsolved unbiased estimate clears 1 + 0.1, so one
        // checkpoint decides, although optimistic estimates of 100 remain.
        let estimates = |u: usize, _| {
            let unbiased = if u <= 12 { 5.0 } else { 1.05 };
            (unbiased, 100.0 + u as f64)
        };
        let (scores, best, calls, forests) =
            run_screen(40, None, estimates, |u| if u == 38 { 2.0 } else { 1.0 });
        let mut panel: Vec<Node> = (1..=12).collect();
        panel.extend([39, 38, 37, 36]);
        assert_eq!(calls, [panel]);
        assert_eq!((best, forests), (38, 1));
        assert_eq!(scores[38], 2.0);
        assert_eq!(
            scores[20], 1.05,
            "unsolved nodes carry the unbiased estimate"
        );
        // Equal estimates make the panel the 16 best, in order.
        let (_, _, calls, _) = run(40, None, |u, _| 100.0 - u as f64, |_| 1.0);
        assert_eq!(calls[0], (1..=16).collect::<Vec<Node>>());
    }

    #[test]
    fn the_pick_is_the_exact_best_not_the_estimated_best() {
        // Node 1 leads the estimates; node 3 is exactly best, and no
        // estimate outside the first panel clears the slack.
        let (scores, best, calls, forests) = run(
            30,
            None,
            |u, _| 10.0 - u as f64,
            |u| if u == 3 { 9.5 } else { 1.0 },
        );
        assert_eq!(best, 3);
        assert_eq!(scores[3], 9.5);
        assert_eq!(scores[1], 1.0, "solved nodes carry their exact value");
        assert_eq!(scores[20], -10.0, "unsolved nodes keep their estimate");
        assert!(scores[0].is_nan());
        assert_eq!((calls.len(), forests), (1, 1), "one checkpoint decides");
    }

    #[test]
    fn an_unsolved_estimate_above_the_slack_keeps_sampling_to_the_cap() {
        // 79 candidates estimated at 10, each exactly 1: every checkpoint
        // leaves unsolved estimates above 1 + 0.1, so each solves a new
        // panel, up to the cap.
        let (scores, best, calls, forests) = run(80, None, |_, _| 10.0, |_| 1.0);
        assert_eq!(forests, 8);
        assert_eq!(calls.len(), 4);
        assert!(calls.iter().all(|c| c.len() == RHS_CHUNK));
        assert_eq!(best, 1, "the first index wins ties");
        assert_eq!(scores[1], 1.0);
        assert_eq!(scores[79], 10.0);
        // Within the slack: unsolved estimates at 1.05 stop the sampling.
        let below = |u: usize, _| if u <= RHS_CHUNK { 5.0 } else { 1.05 };
        let (_, _, calls, forests) = run(80, None, below, |_| 1.0);
        assert_eq!((calls.len(), forests), (1, 1));
    }

    #[test]
    fn a_node_that_reenters_the_top_16_is_not_solved_again() {
        // The leading estimates shift with the forest count, so nodes
        // solved at one checkpoint lead again at the next; none of them is
        // solved twice.
        let estimate = |u: usize, f: u64| {
            if (u as u64 + f).is_multiple_of(3) {
                20.0
            } else {
                10.0
            }
        };
        let (_, _, calls, forests) = run(80, None, estimate, |_| 1.0);
        assert_eq!((calls.len(), forests), (4, 8));
        let mut seen = HashSet::new();
        for call in &calls {
            for &u in call {
                assert!(seen.insert(u), "node {u} solved twice");
            }
        }
    }

    #[test]
    fn a_pool_at_the_cap_samples_nothing_and_still_decides_exactly() {
        let (g, in_root, mut acc, p) = case(10);
        let cfg = SamplerConfig {
            seed: 7,
            threads: 1,
        };
        absorb_batch(&g, &in_root, 0, p.forest_cap(), &cfg, &mut acc);
        let (_, best, calls, forests) = run(
            10,
            Some(acc),
            |u, _| u as f64,
            |u| if u == 2 { 50.0 } else { 1.0 },
        );
        assert_eq!(forests, 8);
        assert_eq!(calls.len(), 1);
        assert_eq!(best, 2);
    }
}
