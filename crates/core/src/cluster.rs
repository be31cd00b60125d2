//! The paper's distributed Eclat on the simulated Memory Channel cluster
//! (Figure 2), phase for phase:
//!
//! 1. **Initialization** — each processor scans its local block once,
//!    counts all 2-itemsets into a local upper-triangular array, and a
//!    §6.2 sum-reduction over the shared region produces global `L2`.
//! 2. **Transformation** — `L2` is partitioned into equivalence classes,
//!    scheduled greedily onto processors (§5.2.1); each processor scans
//!    its block a second time building *partial* tid-lists, broadcasts
//!    its partial counts (the offset-placement information of §6.3), and
//!    the lock-step 2 MB-buffer exchange routes every partial list to its
//!    class's owner; owners concatenate partials in processor order —
//!    lists arrive globally sorted for free — and write them to disk.
//! 3. **Asynchronous phase** — each processor reads its own vertical
//!    partition back (the third and final scan) and mines its classes
//!    independently with the recursive kernel: no communication, no
//!    synchronization.
//! 4. **Final reduction** — local result sets are aggregated.
//!
//! The real mining computation executes once per simulated processor;
//! the recorded traces replay against the cost model to produce the
//! virtual [`Timeline`] reported in Table 2 / Figure 7.

use crate::compute::EclatConfig;
use crate::equivalence::classes_of_l2;
use crate::pipeline::{self, ExecutionPolicy, Serial};
use crate::schedule::{schedule_l2, Assignment};
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
    /// The class→processor assignment used.
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
pub(crate) fn result_bytes(fs: &FrequentSet) -> u64 {
    fs.iter().map(|(is, _)| is.len() as u64 * 4 + 4).sum()
}

/// Run Eclat on the simulated cluster.
pub fn mine_cluster(
    db: &HorizontalDb,
    minsup: MinSupport,
    cluster: &ClusterConfig,
    cost: &CostModel,
    cfg: &EclatConfig,
) -> ClusterReport {
    let t = cluster.total();
    let n = db.num_transactions();
    let threshold = minsup.count_threshold(n);
    let partition = BlockPartition::equal_blocks(n, t);
    let mut recorders: Vec<TraceRecorder> = (0..t)
        .map(|p| TraceRecorder::new(p, cost.clone()))
        .collect();
    let mut barriers = BarrierSeq::new();
    let mut out = FrequentSet::new();
    let mut stats = MiningStats::new("eclat", "cluster", &cfg.representation.to_string());
    stats.transactions = n as u64;
    stats.threshold = u64::from(threshold);
    // Per-phase op totals, merged across the per-processor meters (the
    // blocks partition the database, so the merged counts equal a
    // sequential run's).
    let mut init_ops = OpMeter::new();
    let mut transform_ops = OpMeter::new();
    let mut async_ops = OpMeter::new();

    // ---------------- Initialization phase ----------------
    let mut global_tri: Option<mining_types::TriangleMatrix> = None;
    for (p, rec) in recorders.iter_mut().enumerate() {
        rec.phase(PHASE_INIT);
        let block = partition.block(p);
        rec.disk_read(db.byte_size_range(block.clone()));
        let mut meter = OpMeter::new();
        let tri = count_pairs(db, block.clone(), &mut meter);
        if cfg.include_singletons {
            // Piggybacked singleton counting: meter its per-block cost
            // here; the counts themselves are assembled once below.
            let _ = count_items(db, block, &mut meter);
        }
        rec.compute(&meter);
        init_ops.merge(&meter);
        match &mut global_tri {
            Some(g) => g.merge_from(&tri),
            None => global_tri = Some(tri),
        }
    }
    let global_tri = global_tri.expect("at least one processor");
    // §6.2 sum-reduction of the triangular arrays.
    let tri_bytes = (global_tri.cells() as u64) * 4;
    sum_reduce(
        &mut recorders,
        &vec![tri_bytes; t],
        tri_bytes,
        &mut barriers,
    );

    let l2: Vec<(ItemId, ItemId, u32)> = global_tri.frequent_pairs(threshold).collect();
    let num_l2 = l2.len();
    stats.record_level(2, global_tri.cells() as u64, num_l2 as u64);

    if cfg.include_singletons {
        // The per-block cost was already metered above; the assembled
        // global counts are not charged twice.
        let (counted, inserted) =
            pipeline::insert_frequent_singletons(db, threshold, &mut OpMeter::new(), &mut out);
        stats.record_level(1, counted, inserted);
    }

    if l2.is_empty() {
        // Nothing to transform or mine; close out the trace.
        let bytes = result_bytes(&out);
        let no_classes = Assignment {
            owner: vec![],
            load: vec![0; t],
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

    // ---------------- Transformation phase ----------------
    // Equivalence-class scheduling (concurrent on all processors in the
    // paper — each works from the same global L2, so we compute it once).
    let pairs_only: Vec<(ItemId, ItemId)> = l2.iter().map(|&(a, b, _)| (a, b)).collect();
    let plan = schedule_l2(&l2, t, cfg.heuristic);
    let assignment = plan.assignment;
    let slot_owner = plan.slot_owner;

    let idx = index_pairs(&pairs_only);
    // Per-processor partial tid-lists, and the trace of the second scan.
    let mut partials: Vec<Vec<TidList>> = Vec::with_capacity(t);
    for (p, rec) in recorders.iter_mut().enumerate() {
        rec.phase(PHASE_TRANSFORM);
        let block = partition.block(p);
        rec.disk_read(db.byte_size_range(block.clone()));
        let mut meter = OpMeter::new();
        let lists = build_pair_tidlists(db, block, &idx, &mut meter);
        rec.compute(&meter);
        transform_ops.merge(&meter);
        // Local tid-list transformation: write every partial list into
        // the memory-mapped region at its offset (§6.3).
        let local_bytes: u64 = lists.iter().map(|l| l.byte_size()).sum();
        rec.local_copy(local_bytes);
        partials.push(lists);
    }
    // Broadcast of partial counts (offset-placement info, §6.2 end).
    let count_bytes = (num_l2 as u64) * 4;
    broadcast_all(&mut recorders, &vec![count_bytes; t], &mut barriers);

    // Outgoing byte matrix for the lock-step exchange.
    let outgoing: Vec<Vec<u64>> = (0..t)
        .map(|p| {
            (0..t)
                .map(|q| {
                    if p == q {
                        0
                    } else {
                        (0..pairs_only.len())
                            .filter(|&s| slot_owner[s] == q)
                            .map(|s| partials[p][s].byte_size())
                            .sum()
                    }
                })
                .collect()
        })
        .collect();
    let exchange_rounds =
        lockstep_exchange(&mut recorders, &outgoing, cfg.buffer_bytes, &mut barriers);

    // Concatenate partials in processor order → global tid-lists, owned
    // per processor; write them to local disk.
    let mut owned_lists: Vec<Vec<(usize, TidList)>> = vec![Vec::new(); t];
    for (s, &owner) in slot_owner.iter().enumerate() {
        let mut global = TidList::new();
        for part in partials.iter() {
            global.append_partial(&part[s]);
        }
        debug_assert!(global.support() >= threshold);
        owned_lists[owner].push((s, global));
    }
    for (p, rec) in recorders.iter_mut().enumerate() {
        let bytes: u64 = owned_lists[p].iter().map(|(_, l)| 4 + l.byte_size()).sum();
        if bytes > 0 {
            rec.disk_write(bytes);
        }
    }
    drop(partials);

    // ---------------- Asynchronous phase ----------------
    let mut local_results: Vec<FrequentSet> = Vec::with_capacity(t);
    for p in 0..t {
        let rec = &mut recorders[p];
        rec.phase(PHASE_ASYNC);
        let bytes: u64 = owned_lists[p].iter().map(|(_, l)| 4 + l.byte_size()).sum();
        if bytes > 0 {
            rec.disk_read(bytes);
        }
        let mut meter = OpMeter::new();
        // owned slots grouped into complete classes (scheduling is
        // class-granular, so a class's slots share one owner)
        let slots = std::mem::take(&mut owned_lists[p]);
        let pairs_with_lists: Vec<(ItemId, ItemId, TidList)> = slots
            .into_iter()
            .map(|(s, l)| (pairs_only[s].0, pairs_only[s].1, l))
            .collect();
        let mut local = FrequentSet::new();
        let mut class_stats = Vec::new();
        Serial.mine_classes(
            classes_of_l2(pairs_with_lists),
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
        (assignment, exchange_rounds, num_l2),
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
pub(crate) fn reduce_and_report(
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
                &EclatConfig::default(),
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
            &EclatConfig::default(),
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
            &EclatConfig::default(),
        );
        let par = mine_cluster(
            &db,
            minsup,
            &ClusterConfig::new(4, 1),
            &cost(),
            &EclatConfig::default(),
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
            &EclatConfig::default(),
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
        let cfg = EclatConfig::default();
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
                &EclatConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.frequent, b.frequent);
        assert_eq!(a.timeline, b.timeline);
    }
}
