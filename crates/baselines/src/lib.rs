//! Parallel Apriori baselines on the simulated cluster.
//!
//! * [`count_dist`] — **Count Distribution** (§3.1), the algorithm the
//!   paper beats by an order of magnitude. The CCPD variant the paper
//!   actually ran (*"we assume that CCPD and Count Distribution refer to
//!   the same algorithm"*, §3) is the same structure with hash-tree
//!   optimizations; the short-circuited subset counting is inherent in
//!   our combination enumeration and the triangular-`L2` optimization is
//!   available as a switch.
//! * [`ccpd_shm`] — **CCPD on real shared memory** \[16\]: one shared
//!   candidate hash tree with atomic counts, one scoped thread per
//!   logical partition as processors — the runnable multicore baseline.
//! * [`candidate_dist`] — **Candidate Distribution** (§3.2): Count
//!   Distribution up to a chosen pass `l`, then candidates are
//!   partitioned by equivalence class, the database is selectively
//!   replicated, and processors proceed independently with asynchronous
//!   pruning-information broadcasts. The paper reports it performs
//!   *worse* than Count Distribution — ablation A5 reproduces that.

pub mod candidate_dist;
pub mod ccpd_shm;
pub mod count_dist;

pub use candidate_dist::{mine_candidate_dist, CandidateDistConfig};
pub use ccpd_shm::{mine_ccpd_shm, CcpdShmConfig};
pub use count_dist::{mine_count_dist, CdReport, CountDistConfig};
