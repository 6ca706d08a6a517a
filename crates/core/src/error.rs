//! Error type for the CFCM solvers.

use std::fmt;

/// Errors from CFCM algorithm entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum CfcmError {
    /// `k` must satisfy `1 ≤ k < n`.
    InvalidK {
        /// Requested group size.
        k: usize,
        /// Graph size.
        n: usize,
    },
    /// CFCM is defined on connected graphs (extract the LCC first).
    Disconnected,
    /// A parameter was out of range (message explains).
    InvalidParameter(String),
    /// A linear-algebra subroutine failed (e.g. an estimated Schur
    /// complement stayed indefinite after regularization).
    Numerical(String),
    /// No registered solver under this name (see `registry::all`).
    UnknownSolver(String),
    /// The selected solver declared itself unable to run at this problem
    /// size (its `supports` capability hint).
    Unsupported(String),
    /// The run was interrupted mid-solve by its cancel token or deadline
    /// (see [`crate::SolveContext::stop_hook`]). Greedy loops catch this
    /// and return the partial selection accumulated so far; it only
    /// escapes from entry points with nothing partial to return.
    Interrupted(cfcc_linalg::StopCause),
}

impl fmt::Display for CfcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfcmError::InvalidK { k, n } => {
                write!(f, "group size k={k} must satisfy 1 <= k < n={n}")
            }
            CfcmError::Disconnected => {
                write!(
                    f,
                    "graph must be connected (run on the largest connected component)"
                )
            }
            CfcmError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CfcmError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            CfcmError::UnknownSolver(name) => {
                write!(
                    f,
                    "unknown solver '{name}' (see registry::all for the available names)"
                )
            }
            CfcmError::Unsupported(msg) => write!(f, "solver unsupported here: {msg}"),
            CfcmError::Interrupted(cause) => {
                let what = match cause {
                    cfcc_linalg::StopCause::Cancelled => "cancelled",
                    cfcc_linalg::StopCause::DeadlineExceeded => "deadline exceeded",
                };
                write!(f, "run interrupted: {what}")
            }
        }
    }
}

impl std::error::Error for CfcmError {}

impl From<cfcc_linalg::LinalgError> for CfcmError {
    fn from(e: cfcc_linalg::LinalgError) -> Self {
        match e {
            cfcc_linalg::LinalgError::Cancelled { .. } => {
                CfcmError::Interrupted(cfcc_linalg::StopCause::Cancelled)
            }
            cfcc_linalg::LinalgError::DeadlineExceeded { .. } => {
                CfcmError::Interrupted(cfcc_linalg::StopCause::DeadlineExceeded)
            }
            other => CfcmError::Numerical(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveContext;
    use cfcc_graph::{generators, Graph};

    #[test]
    fn validates_k_range() {
        let g = generators::cycle(5);
        let ctx = SolveContext::default();
        assert!(ctx.check_problem(&g, 1).is_ok());
        assert!(ctx.check_problem(&g, 4).is_ok());
        assert_eq!(
            ctx.check_problem(&g, 0),
            Err(CfcmError::InvalidK { k: 0, n: 5 })
        );
        assert_eq!(
            ctx.check_problem(&g, 5),
            Err(CfcmError::InvalidK { k: 5, n: 5 })
        );
    }

    #[test]
    fn validates_connectivity() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            SolveContext::default().check_problem(&g, 1),
            Err(CfcmError::Disconnected)
        );
    }

    #[test]
    fn display_strings() {
        assert!(CfcmError::InvalidK { k: 3, n: 2 }
            .to_string()
            .contains("k=3"));
        assert!(CfcmError::Disconnected.to_string().contains("connected"));
        assert!(CfcmError::Numerical("x".into()).to_string().contains('x'));
    }
}
