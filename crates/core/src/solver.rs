//! The unified solver abstraction: every CFCM algorithm in this crate —
//! the paper's Monte-Carlo methods, the deterministic baselines, and the
//! heuristics — implements [`CfcmSolver`], so callers (CLI, benches,
//! serving layers) can select algorithms at runtime through
//! [`crate::registry`] instead of hard-coding per-algorithm dispatch.
//!
//! # Adding a new solver
//!
//! 1. Implement the algorithm as a context-aware function
//!    `fn my_algo_ctx(g: &Graph, k: usize, ctx: &SolveContext) ->
//!    Result<Selection, CfcmError>` in its own module. Call
//!    [`SolveContext::check_problem`] first, poll
//!    [`SolveContext::interrupted`] between greedy iterations (returning the
//!    partial selection when it fires), and report each iteration through
//!    [`SolveContext::emit`].
//! 2. Add a unit struct in the same module and implement [`CfcmSolver`] for
//!    it: a stable [`CfcmSolver::name`], its [`SolverKind`], and — when the
//!    algorithm has hard practicality limits — a [`CfcmSolver::supports`]
//!    override returning [`Capability::Unsupported`] with a reason.
//! 3. Register the struct in [`crate::registry`]'s `SOLVERS` table (plus
//!    any aliases). Registry tests assert that every registered solver
//!    resolves and solves; nothing else is required.

use crate::context::SolveContext;
use crate::result::Selection;
use crate::CfcmError;
use cfcc_graph::Graph;

/// Algorithm family, for capability-based selection and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Deterministic, exact objective evaluation (dense algebra).
    Exact,
    /// Randomized with an approximation guarantee (forest sampling / JL).
    MonteCarlo,
    /// Fast ranking heuristic with no group-level guarantee.
    Heuristic,
}

impl SolverKind {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Exact => "exact",
            SolverKind::MonteCarlo => "monte-carlo",
            SolverKind::Heuristic => "heuristic",
        }
    }
}

/// A solver's self-assessment for a problem size (`n` nodes, `m` edges,
/// group size `k`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// The solver handles this size comfortably.
    Supported,
    /// The solver cannot reasonably run at this size; the reason is
    /// user-facing (session front doors refuse to start such runs).
    Unsupported(String),
}

impl Capability {
    /// True unless the solver declared itself unsupported.
    pub fn is_supported(&self) -> bool {
        !matches!(self, Capability::Unsupported(_))
    }
}

/// Largest node count accepted by the solvers built on dense `n × n`
/// algebra (`exact`, `top-cfcc-exact`): one such matrix takes 800 MB at
/// this size, and the cost grows quadratically beyond it.
pub const DENSE_MAX_NODES: usize = 10_000;

/// The [`CfcmSolver::supports`] answer of the dense `n × n` solver `name`:
/// unsupported above [`DENSE_MAX_NODES`], with a reason naming `instead`.
pub(crate) fn dense_capability(name: &str, n: usize, instead: &str) -> Capability {
    if n > DENSE_MAX_NODES {
        Capability::Unsupported(format!(
            "{name} inverts a dense n x n matrix; limited to \
             n <= {DENSE_MAX_NODES} (got n={n}) — use {instead}"
        ))
    } else {
        Capability::Supported
    }
}

/// A CFCM algorithm with a stable name, runtime-selectable through
/// [`crate::registry`].
pub trait CfcmSolver: Send + Sync {
    /// Canonical registry name (lower-case, stable across releases).
    fn name(&self) -> &'static str;

    /// Algorithm family.
    fn kind(&self) -> SolverKind;

    /// Capability hint for a problem of `n` nodes, `m` edges, group size
    /// `k`. The default accepts everything; solvers with hard practicality
    /// walls (e.g. exhaustive search) override it.
    fn supports(&self, n: usize, m: usize, k: usize) -> Capability {
        let _ = (n, m, k);
        Capability::Supported
    }

    /// Solve the CFCM instance under the given context: validate through
    /// [`SolveContext::check_problem`], honor cancellation/deadline, and
    /// report per-iteration progress.
    fn solve(&self, g: &Graph, k: usize, ctx: &SolveContext) -> Result<Selection, CfcmError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(SolverKind::Exact.label(), "exact");
        assert_eq!(SolverKind::MonteCarlo.label(), "monte-carlo");
        assert_eq!(SolverKind::Heuristic.label(), "heuristic");
    }

    #[test]
    fn capability_predicate() {
        assert!(Capability::Supported.is_supported());
        assert!(!Capability::Unsupported("too big".into()).is_supported());
    }
}
