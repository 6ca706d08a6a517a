//! # cfcc-forest
//!
//! Uniform rooted spanning-forest machinery — the sampling engine behind
//! both ForestCFCM and SchurCFCM:
//!
//! * [`wilson`] — Algorithm 1 of the paper (`RandomForest`): loop-erased
//!   random walks with cycle popping, producing the parent map **and** a
//!   children-before-parents node order (the paper's `L_DFS`) in one pass.
//! * [`forest`] — the sampled [`forest::Forest`] structure: parent pointers,
//!   bottom-up order, root lookup, depths, and Euler-tour ancestor tests.
//! * [`estimators`] — streaming accumulators that turn forests into the
//!   paper's unbiased electrical estimators: BFS-path voltage
//!   prefix sums for `W·L_{-S}^{-1}`, all-ones row sums for `1ᵀL_{-S}^{-1}`,
//!   and per-node diagonal samples for `(L_{-S}^{-1})_{uu}`.
//! * [`rooted`] — rooted-probability counters `Ñ(ρ_u = t)` (Lemma 4.2),
//!   feeding SchurCFCM's Schur-complement estimation.
//! * [`sampler`] — deterministic (seeded) serial/parallel batch driver with
//!   doubling batch sizes, mirroring the `2^{r'}` loop of Algorithms 2–5;
//!   forest `i` belongs to half `i mod 2`, and each worker absorbs one
//!   half into state it alone writes.

#![forbid(unsafe_code)]

pub mod estimators;
pub mod forest;
pub mod rooted;
pub mod sampler;
pub mod wilson;

pub use forest::Forest;
pub use sampler::{absorb_batch, ForestAccumulator, ForestWorker, SamplerConfig};
pub use wilson::{sample_forest, sample_forest_into};
