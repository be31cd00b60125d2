//! The paper's distributed Eclat on the simulated Memory Channel cluster
//! (Figure 2), phase for phase. The database is split into one block per
//! *partition owner*: a processor here (§3), a host in the §8.1 hybrid of
//! [`crate::hybrid`]. An owner's block is split evenly over its
//! processors, and its first processor is its *leader*.
//!
//! 1. **Initialization** — each processor scans its share of the block
//!    once and counts all 2-itemsets into a local upper-triangular array;
//!    each leader merges its owner's arrays in shared memory, and a §6.2
//!    sum-reduction of the leaders' arrays over the shared region
//!    produces global `L2`.
//! 2. **Transformation** — `L2` is partitioned into equivalence classes,
//!    scheduled greedily onto owners (§5.2.1); each processor scans its
//!    share a second time building *partial* tid-lists, every processor
//!    broadcasts its partial counts (the offset-placement information of
//!    §6.3), and the lock-step 2 MB-buffer exchange between leaders
//!    routes every owner's partial lists to their class's owner; owners
//!    concatenate partials in processor order — lists arrive globally
//!    sorted for free — and their leaders write them to disk.
//! 3. **Asynchronous phase** — an owner's classes are split over its
//!    processors, and each processor reads its classes back (the third
//!    and final scan) and mines them independently with the recursive
//!    kernel: no communication, no synchronization.
//! 4. **Final reduction** — local result sets are aggregated.
//!
//! With one processor per owner every processor is its own leader: the
//! leader's merge copies nothing, and each processor mines all of its
//! owner's classes. The real mining computation executes once per
//! simulated processor; the recorded traces replay against the cost
//! model to produce the virtual [`Timeline`] reported in Table 2 /
//! Figure 7.

use crate::compute::EclatConfig;
use crate::equivalence::classes_of_l2;
use crate::pipeline::{self, ExecutionPolicy, Serial};
use crate::schedule::{schedule_l2, shard_classes, Assignment};
use crate::transform::{build_pair_tidlists, count_items, count_pairs, index_pairs};
use dbstore::{BlockPartition, HorizontalDb};
use memchannel::collective::{broadcast_all, lockstep_exchange, sum_reduce, BarrierSeq};
use memchannel::{ClusterConfig, CostModel, Timeline, TraceRecorder};
use mining_types::stats::MiningStats;
use mining_types::{FrequentSet, ItemId, MinSupport, OpMeter};
use tidlist::TidList;

pub use crate::pipeline::{PHASE_ASYNC, PHASE_INIT, PHASE_REDUCE, PHASE_TRANSFORM};

/// Result of a simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The mined frequent itemsets (identical to sequential Eclat's).
    pub frequent: FrequentSet,
    /// The replayed virtual timeline.
    pub timeline: Timeline,
    /// The class→owner assignment used (owners are processors in the
    /// flat cluster, hosts in the hybrid).
    pub assignment: Assignment,
    /// Write/read rounds of the lock-step exchange.
    pub exchange_rounds: usize,
    /// Number of frequent 2-itemsets (the scheduling input size).
    pub num_l2: usize,
    /// The structured stats report (same schema as live runs, plus the
    /// per-processor cluster split; phase seconds are simulated).
    pub stats: MiningStats,
}

impl ClusterReport {
    /// Total virtual execution time in seconds (Table 2's `Total`).
    pub fn total_secs(&self) -> f64 {
        self.timeline.total_secs()
    }

    /// Initialization + transformation time in seconds (Table 2's
    /// `Setup` break-up).
    pub fn setup_secs(&self) -> f64 {
        self.timeline.phase_secs(PHASE_INIT) + self.timeline.phase_secs(PHASE_TRANSFORM)
    }
}

/// Bytes of a serialized frequent-itemset result (`k` items + support).
fn result_bytes(fs: &FrequentSet) -> u64 {
    fs.iter().map(|(is, _)| is.len() as u64 * 4 + 4).sum()
}

/// Run Eclat on the simulated cluster, one database block per processor.
pub fn mine_cluster(
    db: &HorizontalDb,
    minsup: MinSupport,
    cluster: &ClusterConfig,
    cost: &CostModel,
    cfg: &EclatConfig,
) -> ClusterReport {
    simulate(db, minsup, cluster, cost, cfg, 1, "cluster")
}

/// The four phases of this module's doc, with one partition
/// owner per `procs_per_owner` consecutive processors; `variant` only
/// labels the stats report.
pub(crate) fn simulate(
    db: &HorizontalDb,
    minsup: MinSupport,
    cluster: &ClusterConfig,
    cost: &CostModel,
    cfg: &EclatConfig,
    procs_per_owner: usize,
    variant: &str,
) -> ClusterReport {
    let t = cluster.total();
    let owners = t / procs_per_owner;
    let leader = |owner: usize| owner * procs_per_owner;
    let n = db.num_transactions();
    let threshold = minsup.count_threshold(n);
    let partition = BlockPartition::equal_blocks(n, owners);
    // Processor `p`'s share of its owner's block.
    let shares: Vec<std::ops::Range<usize>> = (0..t)
        .map(|p| {
            let block = partition.block(p / procs_per_owner);
            let share = BlockPartition::equal_blocks(block.len(), procs_per_owner)
                .block(p % procs_per_owner);
            block.start + share.start..block.start + share.end
        })
        .collect();
    let mut recorders: Vec<TraceRecorder> = (0..t)
        .map(|p| TraceRecorder::new(p, cost.clone()))
        .collect();
    let mut barriers = BarrierSeq::new();
    let mut out = FrequentSet::new();
    let mut stats = MiningStats::new("eclat", variant, &cfg.representation.to_string());
    stats.transactions = n as u64;
    stats.threshold = u64::from(threshold);
    // Per-phase op totals, merged across the per-processor meters (the
    // shares partition the database, so the merged counts equal a
    // sequential run's).
    let mut init_ops = OpMeter::new();
    let mut transform_ops = OpMeter::new();
    let mut async_ops = OpMeter::new();

    // ---------------- Initialization phase ----------------
    let mut global_tri: Option<mining_types::TriangleMatrix> = None;
    for (rec, share) in recorders.iter_mut().zip(&shares) {
        rec.phase(PHASE_INIT);
        rec.disk_read(db.byte_size_range(share.clone()));
        let mut meter = OpMeter::new();
        let tri = count_pairs(db, share.clone(), &mut meter);
        if cfg.include_singletons {
            // Piggybacked singleton counting: meter its per-share cost
            // here; the counts themselves are assembled once below.
            let _ = count_items(db, share.clone(), &mut meter);
        }
        rec.compute(&meter);
        init_ops.merge(&meter);
        match &mut global_tri {
            Some(g) => g.merge_from(&tri),
            None => global_tri = Some(tri),
        }
    }
    let global_tri = global_tri.expect("at least one processor");
    // Each leader merges its owner's other arrays in shared memory; the
    // leaders' arrays then meet in the §6.2 sum-reduction.
    let tri_bytes = (global_tri.cells() as u64) * 4;
    let mut contributed = vec![0; t];
    for owner in 0..owners {
        recorders[leader(owner)].local_copy(tri_bytes * (procs_per_owner as u64 - 1));
        contributed[leader(owner)] = tri_bytes;
    }
    sum_reduce(&mut recorders, &contributed, tri_bytes, &mut barriers);

    let l2: Vec<(ItemId, ItemId, u32)> = global_tri.frequent_pairs(threshold).collect();
    let num_l2 = l2.len();
    stats.record_level(2, global_tri.cells() as u64, num_l2 as u64);

    if cfg.include_singletons {
        // The per-share cost was already metered above; the assembled
        // global counts are not charged twice.
        let (counted, inserted) =
            pipeline::insert_frequent_singletons(db, threshold, &mut OpMeter::new(), &mut out);
        stats.record_level(1, counted, inserted);
    }

    // Equivalence-class scheduling (concurrent on all processors in the
    // paper — each works from the same global L2, so we compute it once).
    let plan = schedule_l2(&l2, owners, cfg.heuristic);
    if l2.is_empty() {
        // Nothing to transform or mine; close out the trace.
        let bytes = result_bytes(&out);
        return reduce_and_report(
            cluster,
            cost,
            recorders,
            &mut barriers,
            (&vec![0; t], bytes),
            &[(PHASE_INIT, init_ops)],
            stats,
            out,
            (plan.assignment, 0, 0),
        );
    }

    // ---------------- Transformation phase ----------------
    let pairs: Vec<(ItemId, ItemId)> = l2.iter().map(|&(a, b, _)| (a, b)).collect();
    let idx = index_pairs(&pairs);
    // Per-owner partial tid-lists: its processors' lists concatenated in
    // processor (= tid) order through shared memory.
    let mut partials: Vec<Vec<TidList>> = vec![vec![TidList::new(); num_l2]; owners];
    for (p, (rec, share)) in recorders.iter_mut().zip(&shares).enumerate() {
        rec.phase(PHASE_TRANSFORM);
        rec.disk_read(db.byte_size_range(share.clone()));
        let mut meter = OpMeter::new();
        let lists = build_pair_tidlists(db, share.clone(), &idx, &mut meter);
        rec.compute(&meter);
        transform_ops.merge(&meter);
        // Local tid-list transformation: write every partial list into
        // the memory-mapped region at its offset (§6.3).
        rec.local_copy(lists.iter().map(|l| l.byte_size()).sum());
        for (merged, list) in partials[p / procs_per_owner].iter_mut().zip(&lists) {
            merged.append_partial(list);
        }
    }
    // Broadcast of partial counts (offset-placement info, §6.2 end).
    broadcast_all(&mut recorders, &vec![(num_l2 as u64) * 4; t], &mut barriers);

    // Leaders exchange their owners' partial lists, each to the leader
    // of its class's owner (the collective ignores the diagonal).
    let mut outgoing = vec![vec![0u64; t]; t];
    for (owner, lists) in partials.iter().enumerate() {
        for (list, &dst) in lists.iter().zip(&plan.slot_owner) {
            outgoing[leader(owner)][leader(dst)] += list.byte_size();
        }
    }
    let exchange_rounds =
        lockstep_exchange(&mut recorders, &outgoing, cfg.buffer_bytes, &mut barriers);

    // Concatenate partials in owner order → global tid-lists, sized at
    // their supports, which each owner's leader writes to its local disk.
    let mut owned: Vec<Vec<(ItemId, ItemId, TidList)>> = vec![Vec::new(); owners];
    for (s, &owner) in plan.slot_owner.iter().enumerate() {
        let mut global = TidList::with_capacity(l2[s].2 as usize);
        for part in &partials {
            global.append_partial(&part[s]);
        }
        debug_assert_eq!(global.support(), l2[s].2);
        owned[owner].push((pairs[s].0, pairs[s].1, global));
    }
    drop(partials);
    for (owner, lists) in owned.iter().enumerate() {
        let bytes: u64 = lists.iter().map(|(_, _, l)| 4 + l.byte_size()).sum();
        if bytes > 0 {
            recorders[leader(owner)].disk_write(bytes);
        }
    }

    // ---------------- Asynchronous phase ----------------
    let mut local_results: Vec<FrequentSet> = Vec::with_capacity(t);
    for (owner, lists) in owned.into_iter().enumerate() {
        // The owner's classes (complete: scheduling is class-granular),
        // split over its processors by the same cost model.
        let classes = classes_of_l2(lists);
        let shards = shard_classes(&classes, procs_per_owner, cfg.heuristic);
        let mut classes: Vec<_> = classes.into_iter().map(Some).collect();
        for (shard, rec) in shards.iter().zip(&mut recorders[leader(owner)..]) {
            rec.phase(PHASE_ASYNC);
            let mine: Vec<_> = shard
                .iter()
                .map(|&c| classes[c].take().expect("each class is mined exactly once"))
                .collect();
            // Read back the lists as written: a length word plus the tids.
            let bytes: u64 = mine
                .iter()
                .flat_map(|c| &c.members)
                .map(|m| 4 + m.tids.byte_size())
                .sum();
            if bytes > 0 {
                rec.disk_read(bytes);
            }
            let mut meter = OpMeter::new();
            let mut local = FrequentSet::new();
            let mut class_stats = Vec::new();
            Serial.mine_classes(
                mine,
                threshold,
                cfg,
                &mut meter,
                &mut local,
                &mut class_stats,
            );
            rec.compute(&meter);
            async_ops.merge(&meter);
            for cs in class_stats {
                stats.add_class(cs);
            }
            local_results.push(local);
        }
    }

    // ---------------- Final reduction phase ----------------
    let result_sizes: Vec<u64> = local_results.iter().map(result_bytes).collect();
    let total_result: u64 = result_sizes.iter().sum();
    for local in local_results {
        out.merge(local);
    }
    reduce_and_report(
        cluster,
        cost,
        recorders,
        &mut barriers,
        (&result_sizes, total_result),
        &[
            (PHASE_INIT, init_ops),
            (PHASE_TRANSFORM, transform_ops),
            (PHASE_ASYNC, async_ops),
        ],
        stats,
        out,
        (plan.assignment, exchange_rounds, num_l2),
    )
}

/// The end every simulated run shares, whichever phase it stops after:
/// the final reduction, in which processor `p` sends `sizes[p]` result
/// bytes and each processor receives `total`; the replay of the recorded
/// traces against the cost model; and the report. `phase_ops` holds the
/// merged op counts of the phases before the reduction, which moves no
/// ops; every phase takes its seconds from the replayed timeline.
/// `schedule` is the report's class assignment, exchange rounds and
/// `|L2|`.
#[allow(clippy::too_many_arguments)]
fn reduce_and_report(
    cluster: &ClusterConfig,
    cost: &CostModel,
    mut recorders: Vec<TraceRecorder>,
    barriers: &mut BarrierSeq,
    (sizes, total): (&[u64], u64),
    phase_ops: &[(&str, OpMeter)],
    mut stats: MiningStats,
    frequent: FrequentSet,
    schedule: (Assignment, usize, usize),
) -> ClusterReport {
    for rec in recorders.iter_mut() {
        rec.phase(PHASE_REDUCE);
    }
    sum_reduce(&mut recorders, sizes, total, barriers);
    let traces: Vec<_> = recorders.into_iter().map(|r| r.finish()).collect();
    let timeline = memchannel::des::replay(cluster, cost, &traces);
    for &(label, ops) in phase_ops {
        stats.push_phase(label, timeline.phase_secs(label), ops);
    }
    stats.push_phase(
        PHASE_REDUCE,
        timeline.phase_secs(PHASE_REDUCE),
        OpMeter::new(),
    );
    stats.sort_classes();
    stats.num_frequent = frequent.len() as u64;
    stats.cluster = Some(memchannel::stats::cluster_stats(&timeline, &traces));
    let (assignment, exchange_rounds, num_l2) = schedule;
    ClusterReport {
        frequent,
        timeline,
        assignment,
        exchange_rounds,
        num_l2,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use apriori::reference::random_db;

    fn cost() -> CostModel {
        CostModel::dec_alpha_1997()
    }

    #[test]
    fn cluster_matches_sequential_on_every_topology() {
        let db = random_db(4, 240, 14, 6);
        let minsup = MinSupport::from_percent(5.0);
        let expect = sequential::mine(&db, minsup);
        for (h, p) in [(1, 1), (2, 1), (1, 4), (2, 2), (4, 2), (3, 3)] {
            let report = mine_cluster(
                &db,
                minsup,
                &ClusterConfig::new(h, p),
                &cost(),
                &EclatConfig::paper(),
            );
            assert_eq!(report.frequent, expect, "H={h} P={p}");
            assert!(report.total_secs() > 0.0);
        }
    }

    #[test]
    fn phases_appear_in_the_timeline() {
        let db = random_db(1, 200, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let report = mine_cluster(
            &db,
            minsup,
            &ClusterConfig::new(2, 2),
            &cost(),
            &EclatConfig::paper(),
        );
        let tl = &report.timeline;
        for phase in [PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC, PHASE_REDUCE] {
            assert!(
                tl.phase_ns(phase) > 0.0,
                "phase {phase} missing from timeline"
            );
        }
        assert!(report.setup_secs() > 0.0);
        assert!(report.setup_secs() < report.total_secs());
        assert!(report.num_l2 > 0);
    }

    #[test]
    fn more_processors_do_not_change_results_but_speed_up_async() {
        let db = random_db(9, 400, 14, 6);
        let minsup = MinSupport::from_percent(4.0);
        let seq = mine_cluster(
            &db,
            minsup,
            &ClusterConfig::sequential(),
            &cost(),
            &EclatConfig::paper(),
        );
        let par = mine_cluster(
            &db,
            minsup,
            &ClusterConfig::new(4, 1),
            &cost(),
            &EclatConfig::paper(),
        );
        assert_eq!(seq.frequent, par.frequent);
        assert!(
            par.timeline.phase_ns(PHASE_ASYNC) <= seq.timeline.phase_ns(PHASE_ASYNC),
            "async phase must not slow down with more hosts"
        );
    }

    #[test]
    fn singletons_supported() {
        let db = random_db(2, 150, 10, 5);
        let minsup = MinSupport::from_percent(8.0);
        let report = mine_cluster(
            &db,
            minsup,
            &ClusterConfig::new(2, 1),
            &cost(),
            &EclatConfig::with_singletons(),
        );
        let ap = apriori::mine(&db, minsup);
        assert_eq!(report.frequent, ap);
    }

    #[test]
    fn no_frequent_pairs_terminates_cleanly() {
        let db = dbstore::HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let report = mine_cluster(
            &db,
            MinSupport::from_fraction(0.6),
            &ClusterConfig::new(2, 1),
            &cost(),
            &EclatConfig::paper(),
        );
        assert!(report.frequent.is_empty());
        assert_eq!(report.num_l2, 0);
    }

    #[test]
    fn representations_agree_on_the_cluster() {
        use crate::compute::Representation;
        let db = random_db(8, 180, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let expect = sequential::mine(&db, minsup);
        for repr in [
            Representation::Diffset,
            Representation::AutoSwitch { depth: 2 },
        ] {
            let report = mine_cluster(
                &db,
                minsup,
                &ClusterConfig::new(2, 2),
                &cost(),
                &EclatConfig::with_representation(repr),
            );
            assert_eq!(report.frequent, expect, "{repr:?}");
        }
    }

    #[test]
    fn cluster_stats_match_sequential_stats() {
        let db = random_db(6, 220, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::paper();
        let (_, seq) = pipeline::run_stats(
            &db,
            minsup,
            &cfg,
            &mut OpMeter::new(),
            &pipeline::Serial,
            "sequential",
        );
        let report = mine_cluster(&db, minsup, &ClusterConfig::new(2, 2), &cost(), &cfg);
        let stats = &report.stats;
        assert_eq!(stats.variant, "cluster");
        // The cluster partitions the same work: merged levels, per-class
        // kernels, and totals all match the sequential report.
        assert_eq!(stats.levels, seq.levels);
        assert_eq!(stats.classes, seq.classes);
        assert_eq!(stats.kernel_totals(), seq.kernel_totals());
        assert_eq!(stats.num_frequent, seq.num_frequent);
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC, PHASE_REDUCE]
        );
        // Phase seconds come from the simulated timeline, not wall clock.
        for p in &stats.phases {
            assert!(p.secs > 0.0, "phase {} has no simulated time", p.label);
        }
        let cs = stats.cluster.as_ref().expect("cluster split present");
        assert_eq!(cs.procs.len(), 4);
        assert!(cs.load_imbalance >= 1.0);
        assert!((cs.total_secs - report.total_secs()).abs() < 1e-9);
        assert!(cs.procs.iter().any(|p| p.bytes_sent > 0));
    }

    #[test]
    fn empty_l2_report_still_carries_stats() {
        let db = dbstore::HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let report = mine_cluster(
            &db,
            MinSupport::from_fraction(0.6),
            &ClusterConfig::new(2, 1),
            &cost(),
            &EclatConfig::with_singletons(),
        );
        let stats = &report.stats;
        assert_eq!(stats.num_frequent, report.frequent.len() as u64);
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec![PHASE_INIT, PHASE_REDUCE]);
        assert!(stats.levels.iter().any(|l| l.size == 1));
        assert!(stats.cluster.is_some());
    }

    #[test]
    fn determinism() {
        let db = random_db(5, 200, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let run = || {
            mine_cluster(
                &db,
                minsup,
                &ClusterConfig::new(2, 2),
                &cost(),
                &EclatConfig::paper(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.frequent, b.frequent);
        assert_eq!(a.timeline, b.timeline);
    }
}
