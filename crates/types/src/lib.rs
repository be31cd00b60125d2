//! Fundamental types shared by every crate in the Eclat reproduction.
//!
//! This crate deliberately has **zero dependencies**: it defines the small,
//! hot vocabulary types — [`ItemId`], [`Tid`], [`Itemset`] — together with
//! the counting substrate every algorithm in the workspace shares:
//!
//! * [`TriangleMatrix`] — the upper-triangular 2-itemset count array the
//!   paper uses in Eclat's initialization phase (§5.1),
//! * [`hash`] — a fast deterministic multiplicative hasher (an `FxHash`
//!   workalike, written in-repo so we stay inside the offline crate set),
//! * [`OpMeter`] — cheap operation counters that feed the simulated-cluster
//!   cost model,
//! * [`MinSupport`] — the fraction ↔ absolute-count support conversion with
//!   explicit rounding semantics.

pub mod frequent;
pub mod hash;
pub mod item;
pub mod itemset;
pub mod json;
pub mod meter;
pub mod rule;
pub mod stats;
pub mod support;
pub mod triangle;

pub use frequent::{Counted, FrequentSet};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use item::{ItemId, Tid};
pub use itemset::{Itemset, KSubsets};
pub use meter::OpMeter;
pub use rule::Rule;
pub use stats::{
    ClassStats, ClusterStats, KernelStats, LevelCounts, MiningStats, PhaseStats, ProcStats,
};
pub use support::MinSupport;
pub use triangle::TriangleMatrix;
