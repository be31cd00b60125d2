//! # eclat-repro — facade crate
//!
//! One-stop re-export of the whole workspace: a faithful, production-grade
//! Rust reproduction of
//!
//! > M. J. Zaki, S. Parthasarathy, W. Li.
//! > *A Localized Algorithm for Parallel Association Mining.* SPAA 1997.
//!
//! ## Quick start
//!
//! ```
//! use eclat_repro::prelude::*;
//!
//! // 1. Generate a small Quest-style market-basket database.
//! let params = QuestParams::tiny(2_000, 42);
//! let txns = QuestGenerator::new(params).generate_all();
//! let db = HorizontalDb::from_transactions(txns);
//!
//! // 2. Mine frequent itemsets with sequential Eclat at 1 % support
//! //    (singletons included so the result is downward closed).
//! let minsup = MinSupport::from_percent(1.0);
//! let mut meter = mining_types::OpMeter::new();
//! let frequent = eclat::sequential::mine_with(
//!     &db,
//!     minsup,
//!     &eclat::EclatConfig::with_singletons(),
//!     &mut meter,
//! );
//! assert!(!frequent.is_empty());
//!
//! // 3. Turn them into association rules at 60 % confidence.
//! let rules = assoc_rules::generate(&frequent, 0.6);
//! for r in rules.iter().take(3) {
//!     println!("{r}");
//! }
//! ```
//!
//! See the crate-level docs of each member for the full story:
//!
//! * [`eclat`] — the paper's contribution (sequential, shared-memory parallel,
//!   simulated-cluster, and hybrid variants, plus the clique clustering
//!   and MaxEclat companions of its reference \[18\]),
//! * [`apriori`] / [`parbase`] — the baselines it is compared against
//!   (Apriori, Count/Candidate Distribution, shared-memory CCPD, the
//!   Partition algorithm, sampling with Toivonen's negative border),
//! * [`tidlist`] — the vertical-layout intersection kernels,
//! * [`questgen`] — the IBM-Quest synthetic data generator,
//! * [`dbstore`] — horizontal/vertical layouts and the binary format,
//! * [`memchannel`] — the simulated DEC Memory Channel cluster,
//! * [`eclat_net`] — the *real* distributed runtime (coordinator/worker
//!   mining over TCP, mirroring the simulated phases),
//! * [`wire`] — the shared length-prefixed frame codec,
//! * [`assoc_rules`] — rule generation.

pub use apriori;
pub use assoc_rules;
pub use dbstore;
pub use eclat;
pub use eclat_net;
pub use eclat_seq;
pub use memchannel;
pub use mining_types;
pub use parbase;
pub use questgen;
pub use tidlist;
pub use wire;

/// Convenient glob-import of the most common types.
pub mod prelude {
    pub use crate::{apriori, assoc_rules, eclat};
    pub use dbstore::{HorizontalDb, VerticalDb};
    pub use memchannel::{ClusterConfig, CostModel};
    pub use mining_types::{ItemId, Itemset, MinSupport, Tid};
    pub use questgen::{QuestGenerator, QuestParams};
    pub use tidlist::TidList;
}
