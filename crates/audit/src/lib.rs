//! `cfcc-audit` — the in-repo soundness toolkit.
//!
//! The build environment is offline, so — following the `crates/compat`
//! rand precedent — the workspace's static analysis lives in-repo
//! instead of pulling external tools:
//!
//! * [`lint`] — `cfcc-lint`, a source-level workspace invariant linter
//!   (SAFETY comments, thread-spawn confinement, panic-free request/hot
//!   paths, `Instant`-free solver loops, FactorCache lock order), run in
//!   CI via `cargo run -p cfcc-audit -- lint`.
//! * [`model`] — `cfcc-model`, a deterministic interleaving explorer
//!   (mini-loom: DFS over schedule decision points, bounded preemptions,
//!   state-hash pruning) with shim `Mutex`/`Condvar`/atomic types.
//! * [`protocols`] — small models of the three highest-risk concurrency
//!   protocols (pool park/dispatch, FactorCache thundering herd,
//!   BatchQueue shutdown/drain), exhaustively checked by the test suite
//!   in `crates/audit/tests/` and by `cargo run -p cfcc-audit -- model`.
//!
//! `#![forbid(unsafe_code)]`: the toolkit that audits unsafe must not
//! add any.

#![forbid(unsafe_code)]

pub mod lint;
pub mod model;
pub mod protocols;
