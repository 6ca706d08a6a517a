//! # cfcc-datasets
//!
//! The evaluation-graph suite for the CFCM reproduction.
//!
//! The paper evaluates on KONECT / SNAP / NetworkRepository datasets that
//! cannot be redistributed here; in their place this crate provides:
//!
//! * **Real classics, embedded exactly**: Zachary's Karate club (34 nodes,
//!   78 edges) and Knuth's Contiguous-USA state-adjacency graph (49 nodes,
//!   107 edges) — both in the paper's tiny-graph figure and both public
//!   domain folklore graphs.
//! * **Seeded synthetic proxies** for every other dataset, matched on node
//!   count, edge count, and topology class (scale-free preferential
//!   attachment for social/collaboration/web graphs; geometric/road-like
//!   for Euroroads and Amazon). Proxies carry the paper's original `n`,
//!   `m`, and diameter `τ` so harnesses can print them side by side.
//!
//! Every proxy is generated from a fixed per-dataset seed — calling
//! [`by_name`] twice yields identical graphs.

#![forbid(unsafe_code)]

pub mod karate;
pub mod registry;
pub mod usa;

pub use karate::karate;
pub use registry::{all_specs, by_name, generate, spec, suites, DatasetSpec, Topology};
pub use usa::contiguous_usa;
