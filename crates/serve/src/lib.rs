//! `assoc-serve` — concurrent query serving over mined itemsets and rules.
//!
//! The mining pipeline (Eclat and friends) produces a
//! [`mining_types::FrequentSet`] and [`assoc_rules`] turns it into ranked
//! rules; this crate is the **read path** that turns those artifacts into
//! a service:
//!
//! * [`index`] — a read-optimized prefix-trie index answering four query
//!   shapes: exact support, subset/superset enumeration, top-k rules for
//!   an antecedent ("items bought with X"), and top-k frequent
//!   k-itemsets;
//! * [`store`] — serves one index per generation behind an `Arc`
//!   (readers never block, reloads swap a pointer) with a bounded LRU
//!   [`cache`] in front, instrumented with hit/miss counters;
//! * [`protocol`] — a length-prefixed binary wire format with strict
//!   decoding and explicit frame-size limits;
//! * [`server`] — a std-only thread-pool TCP server (no async runtime;
//!   the build is offline/vendored) with per-connection read timeouts and
//!   graceful shutdown;
//! * [`client`] — the matching blocking client;
//! * [`stats`] — cache/server counters exported through
//!   [`mining_types::json`], same machinery as the mining stats layer.
//!
//! The CLI front end is `eclat serve` / `eclat query`; the closed-loop
//! load generator lives in the bench crate (`servload`).

pub mod cache;
pub mod client;
pub mod index;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod store;

pub use cache::{CacheStats, QueryCache};
pub use client::Client;
pub use index::{Dataset, Index, RuleEntry};
pub use metrics::ServeMetrics;
pub use protocol::{Query, Response};
pub use server::{start, ServerConfig, ServerHandle};
pub use stats::{QueryStat, ServeStats, ServerCounters};
pub use store::{Store, DEFAULT_CACHE_ENTRIES};
