//! **eclat-seq** — SPADE-style sequential pattern mining on the
//! workspace's vertical-mining machinery.
//!
//! Zaki's SPADE is Eclat's sibling: replace transactions with
//! *sequences* of timestamped events, tid-lists with `(sid, eid)`
//! occurrence lists, and the single intersection with two join forms —
//! itemset extension (same event) and temporal extension (later event).
//! Everything else carries over: prefix equivalence classes partition
//! the search space into independent subtrees (§4.1 of the source
//! paper), a greedy weighted schedule spreads them over processors
//! (§5.2.1), and joins short-circuit against minsup (§5.3).
//!
//! The crate leans on that sharing deliberately:
//!
//! * [`PairSet`] implements the `tidlist::TidSet` trait — the I-extension
//!   *is* a `TidSet::join`, bounded/metered surface included — and adds
//!   the inherent temporal-join family for S-extensions;
//! * prefix classes run through the itemset pipeline's executor,
//!   `eclat::pipeline::ExecutionPolicy::run_tasks`, so parallel runs are
//!   byte-identical to serial ones, op counts included;
//! * [`mine_stats`] emits the same [`mining_types::stats::MiningStats`]
//!   shape as the itemset pipeline, with `algorithm = "spade"`.
//!
//! ```
//! use eclat_seq::{mine, SeqDb, SeqPattern};
//! use mining_types::MinSupport;
//!
//! // Three customers; every one buys 2 and then 3.
//! let db = SeqDb::of(&[
//!     &[&[1, 2], &[3], &[1]],
//!     &[&[1], &[2], &[3]],
//!     &[&[2], &[3]],
//! ]);
//! let fs = mine(&db, MinSupport::from_fraction(0.99), &eclat::pipeline::Serial);
//! assert_eq!(fs[&SeqPattern::of(&[&[2], &[3]])], 3);
//! ```
//!
//! The oracle for all of this is [`reference::mine_reference`], a naive
//! GSP-style level-wise miner sharing no code with the kernel; the
//! proptest suite pins SPADE ≡ reference on random databases.

pub mod db;
pub mod kernel;
pub mod mine;
pub mod pairset;
pub mod pattern;
pub mod reference;
pub mod stats;

pub use db::SeqDb;
pub use kernel::{AtomKind, FrequentSequences, SeqConfig, SeqMember};
pub use mine::{mine, mine_stats, mine_with};
pub use pairset::PairSet;
pub use pattern::SeqPattern;
pub use stats::{SeqStats, SEQ_SCHEMA_VERSION};
