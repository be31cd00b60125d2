//! Shared-memory parallel Eclat on every core.
//!
//! The paper's central observation — equivalence classes are independent
//! (§4.1) — maps directly onto task parallelism: after the transformation
//! pass, the classes are split over the threads by the §5.2.1 greedy
//! least-loaded `C(s,2)` schedule and the per-thread results are merged. This is the variant a downstream user runs on a modern
//! multicore machine; the [`crate::cluster`] variant is the paper's 1997
//! message-passing algorithm under the simulated cost model.
//!
//! The implementation is the shared three-phase [`pipeline`] under the
//! [`Rayon`] execution policy (one thread per available core): blocked
//! counting in phase 1 (each thread counts a transaction block into a
//! private triangular matrix — the shared-memory analogue of the paper's
//! per-processor partial counts plus sum-reduction), one contiguous run
//! of the `L2` lists per thread in phase 2 (each thread scans the whole
//! database for its own pairs, into lists the calling thread allocated),
//! one greedy class shard per thread in phase 3. Per-thread operation meters are merged
//! into the caller's meter, so a parallel run reports the same counts as
//! a serial one.

use crate::compute::EclatConfig;
use crate::pipeline::{self, Rayon};
use dbstore::HorizontalDb;
use mining_types::{FrequentSet, MinSupport, OpMeter};

/// Mine frequent itemsets (size ≥ 2) on every available core.
pub fn mine(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let mut meter = OpMeter::new();
    mine_with(db, minsup, &EclatConfig::default(), &mut meter)
}

/// Mine with explicit configuration and metering.
///
/// Work done on the pipeline's threads (block counting, per-class mining)
/// is metered into thread-local meters and merged into `meter`, so the counts
/// are comparable with [`crate::sequential::mine_with`].
pub fn mine_with(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> FrequentSet {
    pipeline::run(db, minsup, cfg, meter, &Rayon)
}

/// [`mine_with`] that also returns the structured [`mining_types::MiningStats`] report.
/// Class stats come back in class order, so the stats are identical to a
/// sequential run's (wall-clock seconds aside).
pub fn mine_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> (FrequentSet, mining_types::MiningStats) {
    pipeline::run_stats(db, minsup, cfg, meter, &Rayon, "parallel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use apriori::reference::random_db;

    #[test]
    fn matches_sequential_eclat() {
        for seed in [1u64, 5, 9] {
            let db = random_db(seed, 200, 14, 6);
            for pct in [4.0, 10.0] {
                let minsup = MinSupport::from_percent(pct);
                assert_eq!(
                    mine(&db, minsup),
                    sequential::mine(&db, minsup),
                    "seed {seed} pct {pct}"
                );
            }
        }
    }

    #[test]
    fn singleton_config_matches_sequential() {
        let db = random_db(2, 120, 10, 5);
        let minsup = MinSupport::from_percent(8.0);
        let cfg = EclatConfig::with_singletons();
        let mut m_par = OpMeter::new();
        let mut m_seq = OpMeter::new();
        assert_eq!(
            mine_with(&db, minsup, &cfg, &mut m_par),
            sequential::mine_with(&db, minsup, &cfg, &mut m_seq)
        );
    }

    #[test]
    fn empty_database() {
        let db = HorizontalDb::of(&[]);
        assert!(mine(&db, MinSupport::from_percent(1.0)).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let db = random_db(11, 300, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let a = mine(&db, minsup);
        let b = mine(&db, minsup);
        assert_eq!(a, b);
    }

    #[test]
    fn per_task_meters_are_merged_into_the_caller() {
        // Regression: the per-thread meters (block counting, transform,
        // per-class mining) used to be discarded, leaving the caller
        // blind. The merged meter must match a serial run's counts.
        let db = random_db(4, 250, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::default();
        let mut m_par = OpMeter::new();
        let mut m_seq = OpMeter::new();
        let fs_par = mine_with(&db, minsup, &cfg, &mut m_par);
        let fs_seq = sequential::mine_with(&db, minsup, &cfg, &mut m_seq);
        assert_eq!(fs_par, fs_seq);
        assert!(m_par.record > 0, "counting scans must be metered");
        assert!(m_par.pair_incr > 0, "triangular pass must be metered");
        assert!(m_par.tid_cmp > 0, "per-class mining must be metered");
        assert!(m_par.cand_gen > 0);
        // Identical work, different schedule — counts agree exactly.
        assert_eq!(m_par.record, m_seq.record);
        assert_eq!(m_par.pair_incr, m_seq.pair_incr);
        assert_eq!(m_par.cand_gen, m_seq.cand_gen);
        assert_eq!(m_par.tid_cmp, m_seq.tid_cmp);
    }
}
