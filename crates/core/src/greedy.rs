//! The one greedy loop every CFCM solver picks through.
//!
//! A greedy solver supplies two picks: the first (`argmin_u L†_uu`, the
//! shared trace term of Eq. 4) and a per-round one (`argmax_u Δ(u, S)`).
//! [`run`] owns everything around them: validation, the selection and its
//! `S` mask, per-pick timing and progress, run control, and the run's
//! solver statistics. Single-shot rankings (Degree, Top-CFCC, the
//! exhaustive optimum) report through [`ranked`] instead.

use crate::context::SolveContext;
use crate::engine::GreedyWorkspace;
use crate::result::{IterStats, RunStats, Selection};
use crate::CfcmError;
use cfcc_graph::{Graph, Node};
use cfcc_linalg::StopHook;
use cfcc_util::Stopwatch;

/// Select `k` nodes greedily: `first(ws)` makes the first pick, and
/// `round(i, in_s, ws)` each later one, given the mask `in_s` of the `i`
/// nodes picked so far; both get the run's workspace, which aggregates
/// the solver work of their factors into [`RunStats::solve`]. A pick
/// reports its [`IterStats`]; `run` fills in `seconds` and `solves` (the
/// right-hand sides the workspace's [`RunStats::solve`] gained during the
/// pick), records the pick and sends it to the progress sink.
///
/// Run control: the workspace carries the context's stop hook for the
/// run, so the iterative solves of every factor a pick builds stop once
/// the run is cancelled or its deadline passes. Once a pick is recorded,
/// a cancel or an elapsed deadline ends the run before the next one. A
/// pick that fails with [`CfcmError::Interrupted`] (its solves were
/// stopped) is dropped, and the run returns the picks before it,
/// possibly none. Any other error fails the run.
pub fn run(
    g: &Graph,
    k: usize,
    ctx: &SolveContext,
    first: impl FnOnce(&mut GreedyWorkspace) -> Result<IterStats, CfcmError>,
    mut round: impl FnMut(usize, &[bool], &mut GreedyWorkspace) -> Result<IterStats, CfcmError>,
) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let mut ws = ctx.workspace();
    ws.begin_run();
    ws.stop = ctx.stop_hook();
    let mut in_s = vec![false; g.num_nodes()];
    let mut nodes = Vec::with_capacity(k);
    let mut stats = RunStats::default();
    let mut sw = Stopwatch::start();
    // Right-hand sides solved before the current pick.
    let mut solved = ws.solve_stats().solves;
    let mut pick = first(&mut ws);
    let done = loop {
        let mut it = match pick {
            Ok(it) => it,
            Err(CfcmError::Interrupted(_)) => break Ok(()),
            Err(e) => break Err(e),
        };
        it.seconds = sw.lap().as_secs_f64();
        let total = ws.solve_stats().solves;
        it.solves = total - solved;
        solved = total;
        in_s[it.chosen as usize] = true;
        nodes.push(it.chosen);
        ctx.emit(&it);
        stats.iterations.push(it);
        if nodes.len() == k || ctx.interrupted() {
            break Ok(());
        }
        pick = round(nodes.len(), &in_s, &mut ws);
    };
    // SchurDelta's forests and the stop hook belong to this run: a
    // recycled workspace must neither hold them nor feed them to the next
    // run.
    ws.forest_pool = None;
    ws.stop = StopHook::none();
    done?;
    stats.solve = ws.solve_stats();
    Ok(Selection { nodes, stats })
}

/// The [`Selection`] of a single-shot ranking: validate the problem, run
/// `rank`, and report the first `k` ranked nodes as picks without gains,
/// each with an equal share of the ranking's time. `rank` returns the
/// ranking plus the forests and walk steps it sampled, which the first
/// pick carries. Run control is up to `rank`.
pub fn ranked(
    g: &Graph,
    k: usize,
    ctx: &SolveContext,
    rank: impl FnOnce() -> Result<(Vec<Node>, u64, u64), CfcmError>,
) -> Result<Selection, CfcmError> {
    ctx.check_problem(g, k)?;
    let sw = Stopwatch::start();
    let (mut nodes, forests, walk_steps) = rank()?;
    nodes.truncate(k);
    let seconds = sw.seconds() / nodes.len().max(1) as f64;
    let mut iterations: Vec<IterStats> = nodes
        .iter()
        .map(|&u| IterStats {
            seconds,
            ..IterStats::new(u, f64::NAN)
        })
        .collect();
    if let Some(first) = iterations.first_mut() {
        first.forests = forests;
        first.walk_steps = walk_steps;
    }
    for it in &iterations {
        ctx.emit(it);
    }
    Ok(Selection {
        nodes,
        stats: RunStats {
            iterations,
            ..RunStats::default()
        },
    })
}

/// The first index of the largest `gain(i)` over `0..d`, and that gain.
pub(crate) fn argmax(d: usize, gain: impl Fn(usize) -> f64) -> (usize, f64) {
    let mut best = (0, f64::NEG_INFINITY);
    for i in 0..d {
        let x = gain(i);
        if x > best.1 {
            best = (i, x);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CancelToken;
    use cfcc_graph::generators;
    use cfcc_linalg::{SolveStats, StopCause};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting_ctx() -> (SolveContext, Arc<AtomicUsize>) {
        let events = Arc::new(AtomicUsize::new(0));
        let seen = events.clone();
        let ctx = SolveContext::default().with_progress(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        (ctx, events)
    }

    #[test]
    fn interrupted_pick_is_dropped_and_the_run_keeps_its_picks() {
        let g = generators::path(10);
        for stop_at in [3, 1] {
            let (ctx, events) = counting_ctx();
            // Pick number i + 1 is node i, and pick `stop_at` is stopped.
            let pick = |i: usize| {
                if i + 1 == stop_at {
                    Err(CfcmError::Interrupted(StopCause::Cancelled))
                } else {
                    Ok(IterStats::new(i as Node, 1.0))
                }
            };
            let sel = run(&g, 5, &ctx, |_| pick(0), |i, _, _| pick(i)).unwrap();
            let kept = stop_at - 1;
            assert_eq!(sel.nodes, (0..kept as Node).collect::<Vec<_>>());
            assert_eq!(sel.stats.iterations.len(), kept);
            assert_eq!(events.load(Ordering::Relaxed), kept);
        }
    }

    #[test]
    fn other_pick_errors_fail_the_run() {
        let g = generators::path(10);
        let err = run(
            &g,
            4,
            &SolveContext::default(),
            |_| Ok(IterStats::new(0, f64::NAN)),
            |_, _, _| Err(CfcmError::Numerical("singular".into())),
        )
        .unwrap_err();
        assert_eq!(err, CfcmError::Numerical("singular".into()));
    }

    #[test]
    fn k1_never_calls_the_round() {
        let g = generators::path(10);
        let rounds = AtomicUsize::new(0);
        let sel = run(
            &g,
            1,
            &SolveContext::default(),
            |_| Ok(IterStats::new(4, f64::NAN)),
            |_, _, _| {
                rounds.fetch_add(1, Ordering::Relaxed);
                Ok(IterStats::new(5, 1.0))
            },
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![4]);
        // Exact greedy forms its dense L_{-S}^{-1} in its first round, so
        // a k = 1 run never pays for it.
        assert_eq!(rounds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn the_workspace_holds_the_stop_hook_for_the_run_only() {
        let g = generators::path(10);
        let ctx = SolveContext::default().with_cancel(CancelToken::new());
        let sel = run(
            &g,
            2,
            &ctx,
            |ws| {
                assert!(ws.stop.is_set());
                Ok(IterStats::new(0, f64::NAN))
            },
            |_, _, ws| {
                assert!(ws.factor_options(&ctx.params).stop.is_set());
                Ok(IterStats::new(1, 1.0))
            },
        )
        .unwrap();
        assert_eq!(sel.nodes, [0, 1]);
        assert!(!ctx.workspace().stop.is_set());
        // Without a cancel token or deadline there is no hook to poll.
        let ctx = SolveContext::default();
        let first = |ws: &mut GreedyWorkspace| {
            assert!(!ws.stop.is_set());
            Ok(IterStats::new(0, f64::NAN))
        };
        run(&g, 1, &ctx, first, |_, _, _| unreachable!()).unwrap();
    }

    #[test]
    fn each_pick_reports_the_solves_its_factors_added() {
        let g = generators::path(10);
        let solved = |ws: &mut GreedyWorkspace, solves| {
            ws.absorb_solve_stats(SolveStats {
                solves,
                ..SolveStats::default()
            });
        };
        let sel = run(
            &g,
            3,
            &SolveContext::default(),
            |ws| {
                solved(ws, 17);
                Ok(IterStats::new(0, f64::NAN))
            },
            |i, _, ws| {
                solved(ws, 16 * (i as u64 - 1));
                Ok(IterStats::new(i as Node, 1.0))
            },
        )
        .unwrap();
        let solves: Vec<u64> = sel.stats.iterations.iter().map(|it| it.solves).collect();
        assert_eq!(solves, [17, 0, 16]);
        assert_eq!(sel.stats.solve.solves, 33);
    }

    #[test]
    fn argmax_keeps_the_first_of_ties() {
        let xs = [1.0, 3.0, 3.0, f64::NAN, 2.0];
        assert_eq!(argmax(xs.len(), |i| xs[i]), (1, 3.0));
    }
}
