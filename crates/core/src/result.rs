//! Result types: the selected group and per-iteration run statistics.
//!
//! All three types serialize to JSON via hand-rolled `to_json` methods
//! (`cfcc_util::json`; the offline build has no serde), so CLI reports and
//! harness outputs are machine-consumable.

use cfcc_graph::Node;
use cfcc_linalg::SolveStats;
use cfcc_util::json::{self, JsonObject};

/// Statistics of one greedy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterStats {
    /// Node chosen in this iteration.
    pub chosen: Node,
    /// Spanning forests sampled (0 for deterministic baselines).
    pub forests: u64,
    /// Total random-walk steps during sampling.
    pub walk_steps: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Estimated marginal gain Δ'(chosen, S) — `NaN` in the first iteration
    /// where the objective is `argmin L†_uu` instead.
    pub gain: f64,
}

impl IterStats {
    /// An iteration that chose `chosen` at estimated gain `gain` and
    /// sampled no forests; [`crate::greedy::run`] fills in `seconds`.
    pub fn new(chosen: Node, gain: f64) -> Self {
        Self {
            chosen,
            forests: 0,
            walk_steps: 0,
            seconds: 0.0,
            gain,
        }
    }

    /// JSON object (`gain` is `null` in the first iteration, where it is
    /// NaN by construction).
    pub fn to_json(&self) -> String {
        self.to_json_with_chosen(u64::from(self.chosen))
    }

    /// JSON object with `chosen` replaced by `chosen_as` — for consumers
    /// (e.g. CLI reports) that re-label internal node ids back to the
    /// original input ids.
    pub fn to_json_with_chosen(&self, chosen_as: u64) -> String {
        JsonObject::new()
            .int("chosen", i128::from(chosen_as))
            .int("forests", i128::from(self.forests))
            .int("walk_steps", i128::from(self.walk_steps))
            .num("seconds", self.seconds)
            .num("gain", self.gain)
            .render()
    }
}

/// Aggregate statistics of one CFCM run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Per-iteration details, in selection order.
    pub iterations: Vec<IterStats>,
    /// Linear-solver work aggregated across **every** factor of the run
    /// (all greedy rounds together) — the observable the warm-start
    /// engine's iteration-count win is measured by. Zero for solvers that
    /// never touch the SDD backends (forest sampling, heuristics).
    pub solve: SolveStats,
}

impl RunStats {
    /// Total forests sampled across iterations.
    pub fn total_forests(&self) -> u64 {
        self.iterations.iter().map(|i| i.forests).sum()
    }

    /// Total random-walk steps across iterations.
    pub fn total_walk_steps(&self) -> u64 {
        self.iterations.iter().map(|i| i.walk_steps).sum()
    }

    /// Total wall-clock seconds across iterations.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|i| i.seconds).sum()
    }

    /// JSON object with aggregates and the per-iteration detail array.
    pub fn to_json(&self) -> String {
        self.render_json(None)
    }

    /// Like [`RunStats::to_json`] but with each iteration's `chosen`
    /// re-labeled through `labels` (positional: iterations are in
    /// selection order, so `labels[i]` is the external id of the node
    /// chosen in iteration `i`). Lengths must match.
    pub fn to_json_with_labels(&self, labels: &[u64]) -> String {
        debug_assert_eq!(labels.len(), self.iterations.len());
        self.render_json(Some(labels))
    }

    fn render_json(&self, labels: Option<&[u64]>) -> String {
        let iterations = json::array(self.iterations.iter().enumerate().map(|(i, it)| {
            match labels.and_then(|l| l.get(i)) {
                Some(&label) => it.to_json_with_chosen(label),
                None => it.to_json(),
            }
        }));
        JsonObject::new()
            .int("total_forests", i128::from(self.total_forests()))
            .int("total_walk_steps", i128::from(self.total_walk_steps()))
            .num("total_seconds", self.total_seconds())
            .int("solver_solves", i128::from(self.solve.solves))
            .int("solver_iterations", i128::from(self.solve.iterations))
            .raw("iterations", iterations)
            .render()
    }
}

/// A selected node group with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Selected nodes in the order the greedy chose them.
    pub nodes: Vec<Node>,
    /// Per-run statistics.
    pub stats: RunStats,
}

impl Selection {
    /// The group as a sorted vector (canonical set form).
    pub fn sorted_nodes(&self) -> Vec<Node> {
        let mut v = self.nodes.clone();
        v.sort_unstable();
        v
    }

    /// Prefix of the selection of length `k` (greedy selections are
    /// nested, so this is the solution the same run would give for
    /// smaller budgets — what the paper's Figures 1–3 sweep).
    pub fn prefix(&self, k: usize) -> &[Node] {
        &self.nodes[..k.min(self.nodes.len())]
    }

    /// JSON object: the selected nodes (greedy order) plus run stats.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw(
                "nodes",
                json::array(self.nodes.iter().map(|u| u.to_string())),
            )
            .raw("stats", self.stats.to_json())
            .render()
    }
}

/// Assert that two runs chose the same nodes from the same forests with
/// bit-equal gains (thread-count invariance tests).
#[cfg(test)]
pub(crate) fn assert_same_run(a: &Selection, b: &Selection, what: &str) {
    assert_eq!(a.nodes, b.nodes, "{what}: nodes");
    assert_eq!(a.stats.iterations.len(), b.stats.iterations.len(), "{what}");
    for (i, (x, y)) in a
        .stats
        .iterations
        .iter()
        .zip(&b.stats.iterations)
        .enumerate()
    {
        assert_eq!(x.forests, y.forests, "{what}: forests, iteration {i}");
        assert_eq!(
            x.walk_steps, y.walk_steps,
            "{what}: walk steps, iteration {i}"
        );
        assert_eq!(
            x.gain.to_bits(),
            y.gain.to_bits(),
            "{what}: gain {} vs {}, iteration {i}",
            x.gain,
            y.gain
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel() -> Selection {
        Selection {
            nodes: vec![5, 2, 9],
            stats: RunStats {
                iterations: vec![
                    IterStats {
                        chosen: 5,
                        forests: 10,
                        walk_steps: 100,
                        seconds: 0.5,
                        gain: f64::NAN,
                    },
                    IterStats {
                        chosen: 2,
                        forests: 20,
                        walk_steps: 150,
                        seconds: 0.25,
                        gain: 1.5,
                    },
                    IterStats {
                        chosen: 9,
                        forests: 30,
                        walk_steps: 200,
                        seconds: 0.25,
                        gain: 0.5,
                    },
                ],
                ..RunStats::default()
            },
        }
    }

    #[test]
    fn aggregates() {
        let s = sel();
        assert_eq!(s.stats.total_forests(), 60);
        assert_eq!(s.stats.total_walk_steps(), 450);
        assert!((s.stats.total_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_and_prefix() {
        let s = sel();
        assert_eq!(s.sorted_nodes(), vec![2, 5, 9]);
        assert_eq!(s.prefix(2), &[5, 2]);
        assert_eq!(s.prefix(10), &[5, 2, 9]);
    }

    #[test]
    fn json_round_structure() {
        let s = sel();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""nodes":[5,2,9]"#));
        assert!(j.contains(r#""total_forests":60"#));
        // First-iteration NaN gain must serialize as null, not NaN.
        assert!(j.contains(r#""gain":null"#));
        assert!(!j.contains("NaN"));
        assert!(j.contains(r#""gain":1.5"#));
    }
}
