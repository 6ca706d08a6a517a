//! Shared adaptive-stopping logic for the Monte-Carlo phases.
//!
//! Algorithms 2–5 sample in doubling batches and stop once the empirical
//! Bernstein half-widths (Lemma 3.6) certify the current winner; all of
//! them run through one loop, `sample_until_certified`. The rule
//! implemented here is slightly more conservative than the paper's
//! per-node check and is purely an *early exit*: the hard cap from
//! [`crate::CfcmParams::forest_cap`] preserves termination and the
//! worst-case sample bound.
//!
//! A candidate is accepted when, across two consecutive batch checkpoints:
//!
//! 1. the argbest is unchanged,
//! 2. its score moved by at most `ε/4` relatively, and
//! 3. either the Bernstein interval separates it from the runner-up, or
//!    both intervals are already below `ε/2` of the leading score.

use crate::CfcmParams;
use cfcc_forest::bernstein::bernstein_halfwidth;
use cfcc_forest::estimators::ElectricalAccumulator;
use cfcc_forest::sampler::{absorb_batch, SamplerConfig};
use cfcc_graph::{Graph, Node};

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

/// One scored candidate at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Node id.
    pub node: u32,
    /// Score (marginal gain Δ', or negated first-phase objective so that
    /// "bigger is better" uniformly).
    pub score: f64,
    /// Bernstein half-width attached to the score's denominator estimate.
    pub halfwidth: f64,
}

/// Rolling stop-rule state.
#[derive(Debug, Default, Clone)]
pub struct StopRule {
    prev: Option<Candidate>,
}

impl StopRule {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed this checkpoint's best and runner-up; returns true to stop.
    pub fn check(&mut self, best: Candidate, second: Option<Candidate>, epsilon: f64) -> bool {
        let decision = match self.prev {
            Some(prev) if prev.node == best.node => {
                let rel_change = if best.score != 0.0 {
                    ((best.score - prev.score) / best.score).abs()
                } else {
                    0.0
                };
                let stable = rel_change <= epsilon / 4.0;
                let separated = match second {
                    Some(s) => {
                        let gap = best.score - s.score;
                        gap >= best.halfwidth + s.halfwidth
                            || best.halfwidth + s.halfwidth
                                <= epsilon / 2.0 * best.score.abs().max(f64::MIN_POSITIVE)
                    }
                    None => true,
                };
                stable && separated
            }
            _ => false,
        };
        self.prev = Some(best);
        decision
    }
}

/// Sample forests rooted at `in_root` into `acc` in doubling batches of
/// the RNG stream `seed`, until the stop rule certifies the best score or
/// `cap` forests are in. After every batch, `score` rewrites each node's
/// score from `acc` (bigger is better; `NaN` marks a non-candidate) and
/// `halfwidth(acc, u, score)` bounds a candidate's error. Returns the last
/// scores and their argmax; only a failing `score` fails the sampling.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_until_certified<E>(
    g: &Graph,
    in_root: &[bool],
    seed: u64,
    cap: u64,
    params: &CfcmParams,
    acc: &mut ElectricalAccumulator,
    mut score: impl FnMut(&ElectricalAccumulator, &mut [f64]) -> Result<(), E>,
    halfwidth: impl Fn(&ElectricalAccumulator, Node, f64) -> f64,
) -> Result<(Vec<f64>, Node), E> {
    let cfg = SamplerConfig {
        seed,
        threads: params.threads,
    };
    let mut rule = StopRule::new();
    let mut scores = vec![f64::NAN; g.num_nodes()];
    let mut sampled = 0;
    for total in batch_schedule(params.min_batch, cap) {
        absorb_batch(g, in_root, sampled, total - sampled, &cfg, acc);
        sampled = total;
        score(acc, &mut scores)?;
        let (best, second) = top2_max(&scores);
        let mk = |u: Node| Candidate {
            node: u,
            score: scores[u as usize],
            halfwidth: halfwidth(acc, u, scores[u as usize]),
        };
        if rule.check(mk(best), second.map(mk), params.epsilon) {
            break;
        }
    }
    let best = top2_max(&scores).0;
    Ok((scores, best))
}

/// Bernstein half-width of node `u`'s diagonal estimate at `confidence`.
pub(crate) fn diag_halfwidth(acc: &ElectricalAccumulator, u: Node, confidence: f64) -> f64 {
    bernstein_halfwidth(
        acc.num_forests(),
        acc.diag_variance(u),
        acc.diag_sup(u).max(1.0),
        confidence,
    )
}

/// The diagonal's half-width propagated to a gain `Δ' = num / z` with
/// denominator `z = (L_{-S}^{-1})_{uu}`: `|∂(num/z)/∂z| · h_z = Δ'/z · h_z`
/// (first order), at most `Δ'`.
pub(crate) fn gain_halfwidth(
    acc: &ElectricalAccumulator,
    u: Node,
    gain: f64,
    confidence: f64,
) -> f64 {
    let z = acc.diag_mean(u).max(f64::MIN_POSITIVE);
    gain * (diag_halfwidth(acc, u, confidence) / z).min(1.0)
}

/// Indices of the two largest non-`NaN` values; the first index wins ties.
pub(crate) fn top2_max(xs: &[f64]) -> (Node, Option<Node>) {
    let mut best: Option<usize> = None;
    let mut second: Option<usize> = None;
    for (i, &x) in xs.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if x > xs[b] => {
                second = best;
                best = Some(i);
            }
            _ => {
                if second.is_none_or(|s| x > xs[s]) {
                    second = Some(i);
                }
            }
        }
    }
    (
        best.expect("at least one candidate") as Node,
        second.map(|s| s as Node),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_doubles_to_cap() {
        assert_eq!(batch_schedule(64, 512), vec![64, 128, 256, 512]);
        assert_eq!(batch_schedule(100, 300), vec![100, 200, 300]);
        assert_eq!(batch_schedule(64, 64), vec![64]);
        assert_eq!(batch_schedule(0, 10), vec![1, 2, 4, 8, 10]);
    }

    #[test]
    fn never_stops_on_first_checkpoint() {
        let mut rule = StopRule::new();
        let best = Candidate {
            node: 3,
            score: 10.0,
            halfwidth: 0.01,
        };
        assert!(!rule.check(best, None, 0.2));
        // Second checkpoint with the same stable winner stops.
        assert!(rule.check(best, None, 0.2));
    }

    #[test]
    fn requires_stable_argbest() {
        let mut rule = StopRule::new();
        rule.check(
            Candidate {
                node: 1,
                score: 5.0,
                halfwidth: 0.0,
            },
            None,
            0.2,
        );
        // Winner changed → no stop.
        assert!(!rule.check(
            Candidate {
                node: 2,
                score: 5.0,
                halfwidth: 0.0
            },
            None,
            0.2
        ));
        // Now stable → stop.
        assert!(rule.check(
            Candidate {
                node: 2,
                score: 5.0,
                halfwidth: 0.0
            },
            None,
            0.2
        ));
    }

    #[test]
    fn requires_score_stability() {
        let mut rule = StopRule::new();
        rule.check(
            Candidate {
                node: 1,
                score: 10.0,
                halfwidth: 0.0,
            },
            None,
            0.2,
        );
        // Score jumped 50% → keep sampling.
        assert!(!rule.check(
            Candidate {
                node: 1,
                score: 20.0,
                halfwidth: 0.0
            },
            None,
            0.2
        ));
    }

    #[test]
    fn requires_separation_from_runner_up() {
        let mut rule = StopRule::new();
        let second = Some(Candidate {
            node: 9,
            score: 9.9,
            halfwidth: 1.0,
        });
        rule.check(
            Candidate {
                node: 1,
                score: 10.0,
                halfwidth: 1.0,
            },
            second,
            0.2,
        );
        // Overlapping intervals and wide halfwidths → no stop.
        assert!(!rule.check(
            Candidate {
                node: 1,
                score: 10.0,
                halfwidth: 1.0
            },
            second,
            0.2
        ));
        // Tight halfwidths (≤ ε/2·score even though gap < widths) → stop.
        let tight_second = Some(Candidate {
            node: 9,
            score: 9.9,
            halfwidth: 0.2,
        });
        let mut rule2 = StopRule::new();
        rule2.check(
            Candidate {
                node: 1,
                score: 10.0,
                halfwidth: 0.2,
            },
            tight_second,
            0.2,
        );
        assert!(rule2.check(
            Candidate {
                node: 1,
                score: 10.0,
                halfwidth: 0.2
            },
            tight_second,
            0.2
        ));
    }
}
