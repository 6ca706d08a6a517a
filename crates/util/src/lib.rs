//! Shared utilities for the `cfcm` workspace.
//!
//! This crate deliberately has no dependencies; it provides:
//!
//! * [`fx`] — the Fx hash function plus `HashMap`/`HashSet` aliases keyed on
//!   it. The default SipHash tables are measurably slower for the small
//!   integer keys that dominate this workspace (node ids, edge ids).
//! * [`stats`] — a Welford online mean/variance accumulator for streamed
//!   real-valued samples.
//! * [`timing`] — a tiny wall-clock stopwatch.
//! * [`table`] — fixed-width text tables matching the paper's row formats.
//! * [`json`] — minimal JSON emission for machine-consumable reports.

#![forbid(unsafe_code)]

pub mod fx;
pub mod json;
pub mod stats;
pub mod table;
pub mod timing;

pub use fx::{FxHashMap, FxHashSet};
pub use stats::Welford;
pub use timing::Stopwatch;
