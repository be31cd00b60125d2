//! **Eclat** — the paper's contribution: localized (parallel) association
//! mining via equivalence-class clustering and vertical tid-list
//! intersections.
//!
//! One generic recursive kernel ([`compute::compute_frequent`], Figure 3
//! of the paper) serves every variant. It is parameterized over the
//! members' vertical representation ([`tidlist::TidSet`]): plain
//! tid-lists, d-Eclat diffsets, word-wise bitmaps, or the mid-recursion
//! [`tidlist::AdaptiveSet`] switcher — selected per run through
//! [`compute::Representation`] in [`EclatConfig`].
//! [`EclatConfig::default`] picks bitmaps or diffsets per class by
//! density; [`EclatConfig::paper`] mines on the paper's tid-lists, and
//! the simulated cluster runs that reproduce the paper use it. All
//! pairwise candidate generation funnels through one loop
//! (`compute::join_level`), so operation metering is comparable across
//! variants and representations.
//!
//! The drivers share the three-phase [`pipeline`] (§7's three scans:
//! initialization/`L2` counting → vertical transformation → asynchronous
//! per-class mining), parameterized by an execution policy:
//!
//! * [`sequential`] — the pipeline under the single-processor
//!   [`pipeline::Serial`] policy (§5, specialized to one processor);
//! * [`parallel`] — the pipeline under the shared-memory
//!   [`pipeline::Rayon`] policy: classes are independent (§4.1), so the
//!   greedy class schedule shards them over one thread per core — the API
//!   a downstream user wants on a modern multicore box;
//! * [`cluster`] — the paper's distributed algorithm, phase for phase
//!   (Figure 2: initialization / transformation / asynchronous / final
//!   reduction), composing the pipeline's phase helpers around the
//!   simulated DEC Memory Channel cluster of the [`memchannel`] crate,
//!   producing both the mining result and a virtual
//!   [`memchannel::Timeline`];
//! * [`hybrid`] — the future-work extension of §8.1/§9: the same
//!   simulation with the database partitioned among *hosts* only, whose
//!   processors split the host's block and classes, eliminating
//!   intra-host disk contention.
//!
//! Companion algorithms from the paper's reference \[18\]: [`clique`]
//! (maximal-clique itemset clustering) and [`maximal`] (MaxEclat with
//! look-ahead for maximal frequent itemsets) — both reuse the shared
//! kernel loop for their pairwise joins.
//!
//! Supporting modules: [`equivalence`] (prefix-class partitioning, §4.1,
//! generic over the representation), [`schedule`] (greedy least-loaded
//! class scheduling with `C(s,2)` weights, §5.2.1), and [`transform`]
//! (horizontal → vertical transformation with §6.3's offset placement).
//! [`pipeline::ExecutionPolicy`] is the one executor: a thread count with
//! class mining, pair counting and generic weighted tasks
//! ([`pipeline::ExecutionPolicy::run_tasks`], reused by the `eclat-seq`
//! sequence miner) on top of it.

pub mod clique;
pub mod cluster;
pub mod compute;
pub mod equivalence;
pub mod hybrid;
pub mod maximal;
pub mod parallel;
pub mod pipeline;
pub mod schedule;
pub mod sequential;
pub mod transform;

pub use compute::{EclatConfig, Representation, DEFAULT_DENSITY_PERMILLE};
pub use schedule::ScheduleHeuristic;
