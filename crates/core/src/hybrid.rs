//! Hybrid parallelization — the paper's §8.1/§9 future work, implemented.
//!
//! *"To solve the local disk contention problem, we plan to … implement a
//! hybrid parallelization where the database is partitioned only among
//! the hosts. Within each host … the Compute_Frequent procedure could be
//! carried out in parallel."*
//!
//! Differences from [`crate::cluster`]:
//!
//! * the database is block-partitioned into `H` host blocks, not `T`
//!   processor blocks; within a host, the `P` processors scan disjoint
//!   *sub-ranges* of the host block, so the host disk serves the same
//!   total bytes but the per-transaction CPU work is spread over `P`
//!   processors;
//! * equivalence classes are scheduled onto *hosts*; inside a host they
//!   are re-balanced over the local processors (LPT on the same weights),
//!   so intra-host sharing needs no Memory Channel traffic at all;
//! * only host leaders (the first processor of each host) participate in
//!   the tid-list exchange — cross-host bytes drop accordingly.

use crate::compute::EclatConfig;
use crate::equivalence::classes_of_l2;
use crate::pipeline::{self, ExecutionPolicy, Serial};
use crate::schedule::{schedule_weights, shard_classes, Assignment};
use crate::transform::{build_pair_tidlists, count_items, count_pairs, index_pairs};
use dbstore::{BlockPartition, HorizontalDb};
use memchannel::collective::{broadcast_all, lockstep_exchange, BarrierSeq};
use memchannel::{ClusterConfig, CostModel, TraceRecorder, BROADCAST};
use mining_types::stats::MiningStats;
use mining_types::{FrequentSet, ItemId, MinSupport, OpMeter};
use tidlist::TidList;

use crate::cluster::{
    reduce_and_report, result_bytes, ClusterReport, PHASE_ASYNC, PHASE_INIT, PHASE_TRANSFORM,
};

/// Run hybrid Eclat: host-level partitioning + intra-host work sharing.
pub fn mine_hybrid(
    db: &HorizontalDb,
    minsup: MinSupport,
    cluster: &ClusterConfig,
    cost: &CostModel,
    cfg: &EclatConfig,
) -> ClusterReport {
    let t = cluster.total();
    let h = cluster.hosts;
    let ppn = cluster.procs_per_host;
    let n = db.num_transactions();
    let threshold = minsup.count_threshold(n);
    let host_partition = BlockPartition::equal_blocks(n, h);
    let mut recorders: Vec<TraceRecorder> = (0..t)
        .map(|p| TraceRecorder::new(p, cost.clone()))
        .collect();
    let mut barriers = BarrierSeq::new();
    let mut out = FrequentSet::new();
    let mut stats = MiningStats::new("eclat", "hybrid", &cfg.representation.to_string());
    stats.transactions = n as u64;
    stats.threshold = u64::from(threshold);
    let mut init_ops = OpMeter::new();
    let mut transform_ops = OpMeter::new();
    let mut async_ops = OpMeter::new();

    // ---------------- Initialization ----------------
    // Each host's block is sub-split across its processors; every
    // processor reads and counts its own sub-range.
    let mut global_tri: Option<mining_types::TriangleMatrix> = None;
    for host in 0..h {
        let hb = host_partition.block(host);
        let sub = BlockPartition::equal_blocks(hb.len(), ppn);
        for (local, p) in cluster.procs_on_host(host).enumerate() {
            let rec = &mut recorders[p];
            rec.phase(PHASE_INIT);
            let r = sub.block(local);
            let range = hb.start + r.start..hb.start + r.end;
            rec.disk_read(db.byte_size_range(range.clone()));
            let mut meter = OpMeter::new();
            let tri = count_pairs(db, range.clone(), &mut meter);
            if cfg.include_singletons {
                // Piggybacked singleton counting, metered per sub-range;
                // the global counts are assembled once below.
                let _ = count_items(db, range, &mut meter);
            }
            rec.compute(&meter);
            init_ops.merge(&meter);
            match &mut global_tri {
                Some(g) => g.merge_from(&tri),
                None => global_tri = Some(tri),
            }
        }
    }
    let global_tri = global_tri.expect("non-empty cluster");
    let tri_bytes = (global_tri.cells() as u64) * 4;
    // Only host leaders push partial arrays over the Memory Channel;
    // intra-host merging is shared memory (modelled as local copies).
    {
        let id = barriers.next_id();
        for host in 0..h {
            for (local, p) in cluster.procs_on_host(host).enumerate() {
                let rec = &mut recorders[p];
                if local == 0 {
                    // leader merges P-1 local arrays then broadcasts
                    rec.local_copy(tri_bytes * (ppn as u64 - 1));
                    rec.send_tagged(BROADCAST, tri_bytes, id);
                }
                rec.barrier(id);
                rec.local_copy(tri_bytes);
            }
        }
    }

    let l2: Vec<(ItemId, ItemId, u32)> = global_tri.frequent_pairs(threshold).collect();
    let num_l2 = l2.len();
    stats.record_level(2, global_tri.cells() as u64, num_l2 as u64);
    if cfg.include_singletons {
        let (counted, inserted) =
            pipeline::insert_frequent_singletons(db, threshold, &mut OpMeter::new(), &mut out);
        stats.record_level(1, counted, inserted);
    }
    if l2.is_empty() {
        let bytes = result_bytes(&out);
        let no_classes = Assignment {
            owner: vec![],
            load: vec![0; h],
        };
        return reduce_and_report(
            cluster,
            cost,
            recorders,
            &mut barriers,
            (&vec![0; t], bytes),
            &[(PHASE_INIT, init_ops)],
            stats,
            out,
            (no_classes, 0, 0),
        );
    }

    // ---------------- Transformation ----------------
    let pairs_only: Vec<(ItemId, ItemId)> = l2.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut class_ranges: Vec<std::ops::Range<usize>> = Vec::new();
    {
        let mut start = 0usize;
        for i in 1..=pairs_only.len() {
            if i == pairs_only.len() || pairs_only[i].0 != pairs_only[start].0 {
                class_ranges.push(start..i);
                start = i;
            }
        }
    }
    let weights: Vec<u64> = class_ranges
        .iter()
        .map(|r| mining_types::itemset::choose2(r.len()))
        .collect();
    // Schedule classes to HOSTS.
    let host_assignment = schedule_weights(&weights, h, cfg.heuristic);
    let mut slot_host = vec![0usize; pairs_only.len()];
    for (ci, r) in class_ranges.iter().enumerate() {
        for s in r.clone() {
            slot_host[s] = host_assignment.owner[ci];
        }
    }

    let idx = index_pairs(&pairs_only);
    // Per-host partial tid-lists; each processor builds its sub-range and
    // the host leader stitches them (tid order = processor order within
    // the host block).
    let mut host_partials: Vec<Vec<TidList>> = Vec::with_capacity(h);
    for host in 0..h {
        let hb = host_partition.block(host);
        let sub = BlockPartition::equal_blocks(hb.len(), ppn);
        let mut merged: Vec<TidList> = vec![TidList::new(); pairs_only.len()];
        for (local, p) in cluster.procs_on_host(host).enumerate() {
            let rec = &mut recorders[p];
            rec.phase(PHASE_TRANSFORM);
            let r = sub.block(local);
            let range = hb.start + r.start..hb.start + r.end;
            rec.disk_read(db.byte_size_range(range.clone()));
            let mut meter = OpMeter::new();
            let lists = build_pair_tidlists(db, range, &idx, &mut meter);
            rec.compute(&meter);
            transform_ops.merge(&meter);
            let bytes: u64 = lists.iter().map(|l| l.byte_size()).sum();
            rec.local_copy(bytes);
            for (slot, part) in lists.into_iter().enumerate() {
                merged[slot].append_partial(&part);
            }
        }
        host_partials.push(merged);
    }
    broadcast_all(&mut recorders, &vec![(num_l2 as u64) * 4; t], &mut barriers);

    // Exchange between host leaders only. Build a leader-level byte
    // matrix; non-leader recorders just hit the same barriers.
    let leader_of = |host: usize| host * ppn;
    let outgoing_host: Vec<Vec<u64>> = (0..h)
        .map(|src| {
            (0..h)
                .map(|dst| {
                    if src == dst {
                        0
                    } else {
                        (0..pairs_only.len())
                            .filter(|&s| slot_host[s] == dst)
                            .map(|s| host_partials[src][s].byte_size())
                            .sum()
                    }
                })
                .collect()
        })
        .collect();
    // Expand to the processor-indexed matrix expected by the collective:
    // leaders carry host traffic, everyone else zero.
    let outgoing: Vec<Vec<u64>> = (0..t)
        .map(|p| {
            let mut row = vec![0u64; t];
            if p % ppn == 0 {
                let src = p / ppn;
                for dst in 0..h {
                    row[leader_of(dst)] = outgoing_host[src][dst];
                }
            }
            row
        })
        .collect();
    let exchange_rounds =
        lockstep_exchange(&mut recorders, &outgoing, cfg.buffer_bytes, &mut barriers);

    // Assemble global tid-lists per owning host, write to its disk
    // (leader does the write).
    let mut host_lists: Vec<Vec<(usize, TidList)>> = vec![Vec::new(); h];
    for (s, &owner) in slot_host.iter().enumerate() {
        let mut global = TidList::new();
        for partials in &host_partials {
            global.append_partial(&partials[s]);
        }
        host_lists[owner].push((s, global));
    }
    for (host, lists) in host_lists.iter().enumerate() {
        let bytes: u64 = lists.iter().map(|(_, l)| 4 + l.byte_size()).sum();
        if bytes > 0 {
            recorders[leader_of(host)].disk_write(bytes);
        }
    }
    drop(host_partials);

    // ---------------- Asynchronous phase ----------------
    // Within each host, the host's classes are LPT-balanced over its
    // processors; the shared class queue needs no MC traffic.
    let mut local_results: Vec<FrequentSet> = Vec::new();
    for (host, lists) in host_lists.iter_mut().enumerate() {
        let slots = std::mem::take(lists);
        let pairs_with_lists: Vec<(ItemId, ItemId, TidList)> = slots
            .into_iter()
            .map(|(s, l)| (pairs_only[s].0, pairs_only[s].1, l))
            .collect();
        let classes = classes_of_l2(pairs_with_lists);
        // Intra-host re-balance: the same LPT cost model as the host
        // schedule, applied at processor granularity (shared with the
        // TCP worker's in-host thread sharding).
        let shards = shard_classes(&classes, ppn, cfg.heuristic);
        let mut slots: Vec<Option<crate::equivalence::EquivalenceClass>> =
            classes.into_iter().map(Some).collect();
        for (local, p) in cluster.procs_on_host(host).enumerate() {
            let rec = &mut recorders[p];
            rec.phase(PHASE_ASYNC);
            let my_classes: Vec<crate::equivalence::EquivalenceClass> = shards[local]
                .iter()
                .map(|&ci| slots[ci].take().expect("each class is mined exactly once"))
                .collect();
            let bytes: u64 = my_classes.iter().map(|c| c.byte_size()).sum();
            if bytes > 0 {
                rec.disk_read(bytes);
            }
            let mut meter = OpMeter::new();
            let mut local_out = FrequentSet::new();
            let mut class_stats = Vec::new();
            Serial.mine_classes(
                my_classes,
                threshold,
                cfg,
                &mut meter,
                &mut local_out,
                &mut class_stats,
            );
            rec.compute(&meter);
            async_ops.merge(&meter);
            for cs in class_stats {
                stats.add_class(cs);
            }
            local_results.push(local_out);
        }
    }

    // ---------------- Final reduction ----------------
    let sizes: Vec<u64> = local_results.iter().map(result_bytes).collect();
    let total: u64 = sizes.iter().sum();
    for fs in local_results {
        out.merge(fs);
    }
    reduce_and_report(
        cluster,
        cost,
        recorders,
        &mut barriers,
        (&sizes, total),
        &[
            (PHASE_INIT, init_ops),
            (PHASE_TRANSFORM, transform_ops),
            (PHASE_ASYNC, async_ops),
        ],
        stats,
        out,
        (host_assignment, exchange_rounds, num_l2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::mine_cluster;
    use crate::sequential;
    use apriori::reference::random_db;

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
                &EclatConfig::default(),
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
        let flat = mine_cluster(&db, minsup, &topo, &cost(), &EclatConfig::default());
        let hybrid = mine_hybrid(&db, minsup, &topo, &cost(), &EclatConfig::default());
        assert_eq!(flat.frequent, hybrid.frequent);
        assert!(
            hybrid.total_secs() < flat.total_secs(),
            "hybrid {} >= flat {}",
            hybrid.total_secs(),
            flat.total_secs()
        );
    }

    #[test]
    fn hybrid_with_single_proc_per_host_similar_to_flat() {
        let db = random_db(8, 300, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let topo = ClusterConfig::new(3, 1);
        let flat = mine_cluster(&db, minsup, &topo, &cost(), &EclatConfig::default());
        let hybrid = mine_hybrid(&db, minsup, &topo, &cost(), &EclatConfig::default());
        assert_eq!(flat.frequent, hybrid.frequent);
        // with P=1 the two algorithms are structurally the same; times
        // should be within a small factor
        let ratio = hybrid.total_secs() / flat.total_secs();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hybrid_stats_match_sequential_stats() {
        let db = random_db(11, 240, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::default();
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
            &EclatConfig::default(),
        );
        assert!(report.frequent.is_empty());
    }
}
