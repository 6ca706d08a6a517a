//! Error type for factorizations and iterative solvers.

use std::fmt;

/// Errors from dense factorizations and iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Cholesky hit a non-positive pivot: the matrix is not positive
    /// definite (within `pivot` of zero at row `row`).
    NotPositiveDefinite {
        /// Row where factorization failed.
        row: usize,
        /// Offending pivot value.
        pivot: f64,
    },
    /// Iterative solver did not reach the requested tolerance.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The grounded system `L_{-S}` is singular: `node` has no path to the
    /// grounded set `S` (an isolated vertex, or a whole connected component
    /// disjoint from `S`). Detected at factor time so iterative backends
    /// fail cleanly instead of building an `inf`/NaN preconditioner.
    SingularGrounding {
        /// A kept node with no path to the grounded set.
        node: usize,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch(String),
    /// An in-flight solve was cancelled through the
    /// [`StopHook`](crate::StopHook) (client disconnect, shutdown, …).
    /// The iterate completed so far is left behind for a warm-started
    /// retry; cumulative [`SolveStats`](crate::SolveStats) include the
    /// partial work.
    Cancelled {
        /// Iterations completed before the cancel fired.
        iterations: usize,
    },
    /// An in-flight solve ran past its deadline and was interrupted
    /// mid-sweep through the [`StopHook`](crate::StopHook). Like
    /// [`Cancelled`](Self::Cancelled), the partial iterate is preserved.
    DeadlineExceeded {
        /// Iterations completed before the deadline fired.
        iterations: usize,
    },
}

impl LinalgError {
    /// Whether this error is an interruption (cancel/deadline) rather
    /// than a numerical failure — interruptions leave solver state
    /// warm-startable and are usually mapped to partial results upstream.
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            LinalgError::Cancelled { .. } | LinalgError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { row, pivot } => {
                write!(
                    f,
                    "matrix not positive definite at row {row} (pivot {pivot:e})"
                )
            }
            LinalgError::DidNotConverge {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "solver did not converge after {iterations} iterations (residual {residual:e})"
                )
            }
            LinalgError::SingularGrounding { node } => {
                write!(
                    f,
                    "grounded Laplacian is singular: node {node} has no path to the grounded set"
                )
            }
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::Cancelled { iterations } => {
                write!(f, "solve cancelled after {iterations} iterations")
            }
            LinalgError::DeadlineExceeded { iterations } => {
                write!(f, "solve deadline exceeded after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = LinalgError::NotPositiveDefinite {
            row: 3,
            pivot: -1e-9,
        };
        assert!(e.to_string().contains("row 3"));
        let c = LinalgError::DidNotConverge {
            iterations: 100,
            residual: 0.5,
        };
        assert!(c.to_string().contains("100"));
    }
}
