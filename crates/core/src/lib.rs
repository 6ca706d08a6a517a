//! # cfcc-core
//!
//! Current Flow Closeness Maximization (CFCM) — a from-scratch Rust
//! implementation of *"Fast Maximization of Current Flow Group Closeness
//! Centrality"* (Xia & Zhang, ICDE 2025).
//!
//! For a connected undirected graph `G` with `n` nodes, the current-flow
//! closeness centrality of a node group `S` is `C(S) = n / Tr(L_{-S}^{-1})`
//! and CFCM asks for the size-`k` group maximizing it. The crate provides:
//!
//! * the paper's two Monte-Carlo greedy algorithms —
//!   [`forest_cfcm::forest_cfcm`] (spanning-forest sampling) and
//!   [`schur_cfcm::schur_cfcm`] (forest sampling + Schur complement), both
//!   with the `1 − (k/(k−1))·(1/e) − ε` approximation profile. They share
//!   one gain estimator, [`schur_delta::schur_delta_ws`]: ForestDelta
//!   (Algorithm 2) is SchurDelta (Algorithm 4) with an empty `T`. Their
//!   forests screen the candidates, and exact solves of the best-estimated
//!   ones decide each pick ([`adaptive`]);
//! * every baseline from the paper's evaluation:
//!   [`exact::exact_greedy`] (dense algebra with incremental rank-one
//!   updates), [`optimum::optimum_cfcm`] (exhaustive search for tiny
//!   graphs), [`approx_greedy::approx_greedy`] (the Li et al. WWW'19
//!   state-of-the-art method on top of a hand-rolled PCG Laplacian solver),
//!   and the [`heuristics`] (Degree, Top-CFCC);
//! * [`cfcc`] — exact and CG/Hutchinson evaluation of `C(S)`, single-node
//!   CFCC, and resistance-distance utilities.
//!
//! All algorithms share one front door: the [`SolveSession`] builder, which
//! resolves solvers by name through the [`registry`], validates the problem
//! uniformly, and supports progress reporting, cooperative cancellation,
//! and wall-clock deadlines.
//!
//! ## Quick start
//!
//! ```
//! use cfcc_core::{cfcc, SolveSession};
//! use cfcc_graph::generators;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::barabasi_albert(200, 3, &mut rng);
//!
//! // Maximize C(S) over groups of size 5 with the paper's flagship
//! // algorithm (SchurCFCM).
//! let sel = SolveSession::new(&g)
//!     .k(5)
//!     .epsilon(0.3)
//!     .solver("schur")
//!     .run()
//!     .unwrap();
//! assert_eq!(sel.nodes.len(), 5);
//! let score = cfcc::cfcc_group_exact(&g, &sel.nodes);
//! assert!(score > 0.0);
//! ```
//!
//! Long runs stay controllable — attach a progress callback, a deadline,
//! or a [`CancelToken`] (cancelled runs return the partial selection
//! accumulated so far, per-iteration stats intact):
//!
//! ```
//! use cfcc_core::{CancelToken, SolveSession};
//! use cfcc_graph::generators;
//! use std::time::Duration;
//!
//! let g = generators::barbell(10, 4);
//! let token = CancelToken::new();
//! let sel = SolveSession::new(&g)
//!     .k(3)
//!     .solver("forest")
//!     .epsilon(0.3)
//!     .cancel_token(token.clone())
//!     .timeout(Duration::from_secs(60))
//!     .on_progress(|it| println!("picked {} (gain {})", it.chosen, it.gain))
//!     .run()
//!     .unwrap();
//! assert!(!sel.nodes.is_empty());
//! ```
//!
//! Runtime selection across every solver goes through the registry:
//!
//! ```
//! use cfcc_core::{registry, SolveContext};
//! use cfcc_graph::generators;
//!
//! let g = generators::cycle(12);
//! for solver in registry::all() {
//!     if solver.supports(g.num_nodes(), g.num_edges(), 2).is_supported() {
//!         let sel = solver.solve(&g, 2, &SolveContext::default()).unwrap();
//!         assert_eq!(sel.nodes.len(), 2, "{}", solver.name());
//!     }
//! }
//! ```
//!
//! To add a new solver, see the [`solver`] module docs.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod approx_greedy;
pub mod cfcc;
pub mod context;
pub mod engine;
pub mod error;
pub mod exact;
pub mod first_phase;
pub mod forest_cfcm;
pub mod forest_delta;
pub mod greedy;
pub mod heuristics;
pub mod kemeny;
pub mod optimum;
pub mod params;
pub mod registry;
pub mod result;
pub mod schur;
pub mod schur_cfcm;
pub mod schur_delta;
pub mod session;
pub mod solver;

pub use context::{CancelToken, SolveContext};
pub use error::CfcmError;
pub use params::CfcmParams;
pub use result::{IterStats, RunStats, Selection};
pub use session::SolveSession;
pub use solver::{Capability, CfcmSolver, SolverKind};
