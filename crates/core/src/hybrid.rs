//! Hybrid parallelization — the paper's §8.1/§9 future work, implemented.
//!
//! *"To solve the local disk contention problem, we plan to … implement a
//! hybrid parallelization where the database is partitioned only among
//! the hosts. Within each host … the Compute_Frequent procedure could be
//! carried out in parallel."*
//!
//! The same four-phase simulation as [`crate::cluster`], with one
//! partition owner per host instead of per processor:
//!
//! * the database is block-partitioned into `H` host blocks, not `T`
//!   processor blocks; within a host, the `P` processors scan disjoint
//!   *sub-ranges* of the host block, so the host disk serves the same
//!   total bytes but the per-transaction CPU work is spread over `P`
//!   processors;
//! * equivalence classes are scheduled onto *hosts*; inside a host they
//!   are sharded over the local processors (`shard_classes`, the same
//!   cost model as the host schedule), so intra-host sharing needs no
//!   Memory Channel traffic at all;
//! * only host leaders (the first processor of each host) take part in
//!   the triangle reduction and the tid-list exchange — cross-host bytes
//!   drop accordingly.
//!
//! With one processor per host this is exactly the flat cluster.

use crate::cluster::{simulate, ClusterReport};
use crate::compute::EclatConfig;
use dbstore::HorizontalDb;
use memchannel::{ClusterConfig, CostModel};
use mining_types::MinSupport;

/// Run hybrid Eclat: host-level partitioning + intra-host work sharing.
pub fn mine_hybrid(
    db: &HorizontalDb,
    minsup: MinSupport,
    cluster: &ClusterConfig,
    cost: &CostModel,
    cfg: &EclatConfig,
) -> ClusterReport {
    simulate(
        db,
        minsup,
        cluster,
        cost,
        cfg,
        cluster.procs_per_host,
        "hybrid",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::mine_cluster;
    use crate::schedule::ScheduleHeuristic;
    use crate::sequential;
    use apriori::reference::random_db;
    use mining_types::OpMeter;

    fn cost() -> CostModel {
        CostModel::dec_alpha_1997()
    }

    #[test]
    fn hybrid_matches_sequential() {
        let db = random_db(6, 300, 14, 6);
        let minsup = MinSupport::from_percent(4.0);
        let expect = sequential::mine(&db, minsup);
        for (hh, pp) in [(1, 1), (2, 2), (1, 4), (2, 3)] {
            let report = mine_hybrid(
                &db,
                minsup,
                &ClusterConfig::new(hh, pp),
                &cost(),
                &EclatConfig::paper(),
            );
            assert_eq!(report.frequent, expect, "H={hh} P={pp}");
        }
        // With singletons, including a database with no frequent pair.
        let cfg = EclatConfig::with_singletons();
        let no_pairs = dbstore::HorizontalDb::of(&[&[0], &[0, 1], &[1], &[2]]);
        for (db, percent) in [(random_db(2, 150, 10, 5), 8.0), (no_pairs, 50.0)] {
            let minsup = MinSupport::from_percent(percent);
            let expect = sequential::mine_with(&db, minsup, &cfg, &mut OpMeter::new());
            assert!(!expect.of_size(1).is_empty());
            let report = mine_hybrid(&db, minsup, &ClusterConfig::new(2, 2), &cost(), &cfg);
            assert_eq!(report.frequent, expect, "singletons at {percent} %");
        }
    }

    #[test]
    fn hybrid_beats_flat_cluster_with_many_procs_per_host() {
        // The whole point: with P=4 on one host the flat variant pays 4×
        // disk contention on the same block; hybrid reads each byte once.
        let db = random_db(3, 600, 14, 6);
        let minsup = MinSupport::from_percent(3.0);
        let topo = ClusterConfig::new(2, 4);
        let flat = mine_cluster(&db, minsup, &topo, &cost(), &EclatConfig::paper());
        let hybrid = mine_hybrid(&db, minsup, &topo, &cost(), &EclatConfig::paper());
        assert_eq!(flat.frequent, hybrid.frequent);
        assert!(
            hybrid.total_secs() < flat.total_secs(),
            "hybrid {} >= flat {}",
            hybrid.total_secs(),
            flat.total_secs()
        );
    }

    #[test]
    fn hybrid_with_single_proc_per_host_equals_flat() {
        // With P=1 every host is one processor, so the hybrid runs the
        // flat cluster's simulation step for step: same result, timeline,
        // schedule, exchange and stats (the variant label aside).
        let no_pairs = dbstore::HorizontalDb::of(&[&[0], &[0, 1], &[1], &[2]]);
        let cells = [(random_db(8, 300, 12, 6), 5.0), (no_pairs, 50.0)];
        for (db, percent) in &cells {
            let minsup = MinSupport::from_percent(*percent);
            for heuristic in [
                ScheduleHeuristic::GreedyPairs,
                ScheduleHeuristic::SupportWeighted,
                ScheduleHeuristic::RoundRobin,
            ] {
                for base in [EclatConfig::paper(), EclatConfig::with_singletons()] {
                    let cfg = EclatConfig { heuristic, ..base };
                    for hosts in [1, 2, 3, 8] {
                        let topo = ClusterConfig::new(hosts, 1);
                        let flat = mine_cluster(db, minsup, &topo, &cost(), &cfg);
                        let mut hybrid = mine_hybrid(db, minsup, &topo, &cost(), &cfg);
                        let cell = format!("{percent} % {heuristic:?} H={hosts} {cfg:?}");
                        assert_eq!(hybrid.frequent, flat.frequent, "{cell}");
                        assert_eq!(hybrid.timeline, flat.timeline, "{cell}");
                        assert_eq!(hybrid.assignment, flat.assignment, "{cell}");
                        assert_eq!(hybrid.exchange_rounds, flat.exchange_rounds, "{cell}");
                        assert_eq!(hybrid.num_l2, flat.num_l2, "{cell}");
                        assert_eq!(hybrid.stats.variant, "hybrid");
                        hybrid.stats.variant = flat.stats.variant.clone();
                        assert_eq!(
                            hybrid.stats.to_json(true),
                            flat.stats.to_json(true),
                            "{cell}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_stats_match_sequential_stats() {
        let db = random_db(11, 240, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::paper();
        let (_, seq) = crate::pipeline::run_stats(
            &db,
            minsup,
            &cfg,
            &mut OpMeter::new(),
            &crate::pipeline::Serial,
            "sequential",
        );
        let report = mine_hybrid(&db, minsup, &ClusterConfig::new(2, 2), &cost(), &cfg);
        let stats = &report.stats;
        assert_eq!(stats.variant, "hybrid");
        assert_eq!(stats.levels, seq.levels);
        assert_eq!(stats.classes, seq.classes);
        assert_eq!(stats.kernel_totals(), seq.kernel_totals());
        assert_eq!(stats.num_frequent, seq.num_frequent);
        let cs = stats.cluster.as_ref().expect("cluster split present");
        assert_eq!(cs.procs.len(), 4);
    }

    #[test]
    fn no_frequent_pairs() {
        let db = dbstore::HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let report = mine_hybrid(
            &db,
            MinSupport::from_fraction(0.6),
            &ClusterConfig::new(2, 2),
            &cost(),
            &EclatConfig::paper(),
        );
        assert!(report.frequent.is_empty());
    }
}
