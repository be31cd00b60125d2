//! Sorted transaction-id lists (tid-lists) and their intersection kernels.
//!
//! §4.2 of the paper: *"The vertical (or inverted) layout … consists of a
//! list of items, with each item followed by its tid-list — the list of all
//! the transaction identifiers containing the item. … if the tid-list is
//! sorted in increasing order, then the support of a candidate k-itemset
//! can be computed by simply intersecting the tid-lists of any two (k−1)-
//! subsets."*
//!
//! This crate provides the [`TidList`] type with four metered kernels:
//!
//! * [`TidList::intersect`] — the two-pointer merge, optionally the
//!   paper's **short-circuited** intersection (§5.3): stop as soon as the
//!   upper bound on the result cardinality drops below the minimum
//!   support;
//! * [`TidList::intersect_adaptive`] — galloping (exponential search) on
//!   size-skewed operands, the merge otherwise;
//! * [`TidList::difference`] — set difference, the d-Eclat *diffset*
//!   kernel, with the diffset form of the same bound;
//! * [`TidList::union`] — the multi-way diffset look-ahead's union.
//!
//! Each reports the element comparisons it performs, feeding the
//! simulated-cluster cost model.
//!
//! On top of the kernels sits the [`TidSet`] trait — support, one join
//! and one multi-way look-ahead fold (each metered, each with an optional
//! §5.3 bound), and a byte-size hook. Four types here implement it:
//! [`TidList`], the galloping wrapper [`GallopList`], the fixed-width
//! bitmap [`BitmapSet`] (word `AND` + popcount joins for dense classes),
//! and the mid-recursion switching [`AdaptiveSet`], whose diffset arm is
//! how d-Eclat [`diffset::DiffSet`]s are mined; the sequence miner's
//! `PairSet` is the fifth. The mining recursion in the `eclat` crate is
//! generic over the trait, so every algorithm variant can run on any
//! representation.

pub mod adaptive;
pub mod bitmap;
pub mod diffset;
mod list;
pub mod set;

pub use adaptive::AdaptiveSet;
pub use bitmap::BitmapSet;
pub use list::TidList;
pub use set::{GallopList, TidSet};
