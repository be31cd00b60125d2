//! The shared three-phase Eclat pipeline.
//!
//! Every variant in this crate runs the same §7 structure — *"The first
//! scan for building L2, the second for transforming the database, and
//! the third for obtaining the frequent itemsets"* — and historically
//! each driver carried its own copy of the glue. This module owns the
//! three phases once:
//!
//! 1. **Initialization** ([`ExecutionPolicy::count_pairs`] →
//!    [`frequent_l2`], plus [`insert_frequent_singletons`]) — triangular
//!    pair counting on the horizontal layout (§5.1);
//! 2. **Transformation** ([`vertical_classes`]) — build the `L2`
//!    tid-lists and group them into prefix equivalence classes (§5.2.2,
//!    §4.1);
//! 3. **Asynchronous phase** ([`ExecutionPolicy::mine_classes`] →
//!    [`mine_class`]) — per-class recursive mining (§5.3), dispatched to
//!    the representation picked by [`EclatConfig::representation`].
//!
//! [`run`] composes the phases under an [`ExecutionPolicy`], which is
//! nothing but a thread count: [`Serial`] reproduces the sequential
//! algorithm, [`Rayon`] and [`FixedThreads`] the shared-memory one on the
//! greedy class shards. The cluster and hybrid variants interleave the
//! phases with the simulated communication/cost model, so they call the
//! phase helpers directly instead of [`run`] — but their per-class mining
//! is the same `Serial.mine_classes` used here, representation dispatch
//! included.

use crate::compute::{compute_frequent_stats, EclatConfig, Representation};
use crate::equivalence::{classes_of_l2, EquivalenceClass};
use crate::schedule::{schedule_weights, shard_classes, ScheduleHeuristic};
use crate::transform::{build_pair_tidlists, count_items, count_pairs, index_pairs};
use dbstore::HorizontalDb;
use mining_types::stats::{ClassStats, KernelStats, MiningStats, PhaseStats};
use mining_types::{FrequentSet, ItemId, Itemset, MinSupport, OpMeter, TriangleMatrix};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;
use tidlist::{AdaptiveSet, BitmapSet, GallopList, TidSet};

/// Trace/stats label of the initialization phase (§5.1 counting).
pub const PHASE_INIT: &str = "init";
/// Trace/stats label of the vertical-transformation phase (§5.2.2).
pub const PHASE_TRANSFORM: &str = "transform";
/// Trace/stats label of the asynchronous per-class mining phase (§5.3).
pub const PHASE_ASYNC: &str = "async";
/// Trace/stats label of the final result reduction (cluster variants).
pub const PHASE_REDUCE: &str = "reduce";

/// How the phases map onto compute resources: a thread count. Every other
/// method is provided on top of [`ExecutionPolicy::threads`] and one
/// scoped-thread helper in which the calling thread works the first shard
/// and only the other `P − 1` shards get spawned threads, so a one-thread
/// policy spawns nothing. Results come back in input order whatever the
/// schedule, and per-thread meters merge into the caller's, so every
/// thread count reports a serial run's output and operation counts.
pub trait ExecutionPolicy {
    /// Threads the policy runs on (at least 1).
    fn threads(&self) -> usize;

    /// Phase 1: triangular counts of all 2-itemsets over the whole
    /// database, one contiguous transaction block per thread; the partial
    /// triangles sum-merge (the reduction the cluster variants perform
    /// across processors). All counting work is merged into `meter`.
    fn count_pairs(&self, db: &HorizontalDb, meter: &mut OpMeter) -> TriangleMatrix {
        let blocks = blocks(0..db.num_transactions(), self.threads());
        let mut parts = on_threads(blocks, |r| {
            let mut m = OpMeter::new();
            (count_pairs(db, r, &mut m), m)
        })
        .into_iter();
        let (mut tri, m) = parts.next().expect("at least one block");
        meter.merge(&m);
        for (t, m) in parts {
            tri.merge_from(&t);
            meter.merge(&m);
        }
        tri
    }

    /// Phase 3: mine every `L2` class (members are recorded too), merging
    /// all per-thread metering into `meter`, all results into `out`, and
    /// appending one [`ClassStats`] per class to `stats` in class order.
    /// One thread mines each class straight into `out`; more threads split
    /// the classes by the §5.2.1 greedy `C(s,2)` rule
    /// ([`shard_classes`]) and mine the shards through [`mine_shards`].
    fn mine_classes(
        &self,
        classes: Vec<EquivalenceClass>,
        threshold: u32,
        cfg: &EclatConfig,
        meter: &mut OpMeter,
        out: &mut FrequentSet,
        stats: &mut Vec<ClassStats>,
    ) {
        if self.threads() == 1 {
            for (i, class) in classes.into_iter().enumerate() {
                let _span = eclat_obs::trace::span_arg("class", i as u64);
                stats.push(mine_class(class, threshold, cfg, meter, out));
            }
            return;
        }
        let shards = shard_classes(&classes, self.threads(), cfg.heuristic);
        let slots = slots(classes);
        let fetch = |i: usize| Ok(take(&slots[i]));
        let reports = mine_shards(&shards, &fetch, threshold, cfg, out, stats)
            .expect("in-memory fetch cannot fail");
        for r in &reports {
            meter.merge(&r.ops);
        }
    }

    /// Run independent tasks and return their results in task order;
    /// `f(i, task)` receives the task's index. The tasks are split over
    /// the threads by `heuristic` on `weights` (`weights[i]` is the
    /// §5.2.1 load estimate of `tasks[i]`).
    fn run_tasks<T, R, F>(
        &self,
        tasks: Vec<T>,
        weights: &[u64],
        heuristic: ScheduleHeuristic,
        f: F,
    ) -> Vec<R>
    where
        Self: Sized,
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        assert_eq!(
            tasks.len(),
            weights.len(),
            "one weight per task (got {} tasks, {} weights)",
            tasks.len(),
            weights.len()
        );
        let assignment = schedule_weights(weights, self.threads(), heuristic);
        let shards: Vec<Vec<usize>> = (0..self.threads())
            .map(|p| assignment.classes_of(p))
            .collect();
        let slots = slots(tasks);
        let mut tagged: Vec<(usize, R)> = on_threads(shards, |ids| {
            ids.into_iter()
                .map(|i| (i, f(i, take(&slots[i]))))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        tagged.sort_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

/// One thread — the paper's algorithm on one processor. Nothing is
/// spawned; every class is mined straight into the caller's result set.
pub struct Serial;

impl ExecutionPolicy for Serial {
    fn threads(&self) -> usize {
        1
    }
}

/// One thread per available core — the shared-memory variant on a
/// multicore machine; the same policy as `FixedThreads::new(0)`.
pub struct Rayon;

impl ExecutionPolicy for Rayon {
    fn threads(&self) -> usize {
        all_cores()
    }
}

/// Exactly `P` threads — the shape a cluster *host* takes in the paper's
/// hybrid model (§8.1): the host owns a set of scheduled classes and its
/// local processors share them, so a distributed worker can be told to
/// act as a P-processor host.
pub struct FixedThreads {
    threads: usize,
}

impl FixedThreads {
    /// A policy running on `threads` threads; `0` means one per
    /// available core, as [`Rayon`].
    pub fn new(threads: usize) -> FixedThreads {
        FixedThreads {
            threads: if threads == 0 { all_cores() } else { threads },
        }
    }
}

impl ExecutionPolicy for FixedThreads {
    fn threads(&self) -> usize {
        self.threads
    }
}

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `work` on every input: the calling thread works `inputs[0]`, one
/// scoped thread each of the others. Results come back in input order.
fn on_threads<I: Send, R: Send>(inputs: Vec<I>, work: impl Fn(I) -> R + Sync) -> Vec<R> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = inputs.map(|i| scope.spawn(move || work(i))).collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.push(work(first));
        for h in spawned {
            results.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        results
    })
}

/// Split `range` into one contiguous block per thread — a single block
/// when it is too short to give every thread two transactions.
fn blocks(range: Range<usize>, threads: usize) -> Vec<Range<usize>> {
    if threads <= 1 || range.len() < 2 * threads {
        return vec![range];
    }
    let chunk = range.len().div_ceil(threads);
    let end = range.end;
    range
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(end))
        .collect()
}

/// One slot per item, so each shard's thread takes its own items by index.
fn slots<T>(items: Vec<T>) -> Vec<Mutex<Option<T>>> {
    items.into_iter().map(|t| Mutex::new(Some(t))).collect()
}

fn take<T>(slot: &Mutex<Option<T>>) -> T {
    slot.lock()
        .expect("slot poisoned")
        .take()
        .expect("each item is taken exactly once")
}

/// Phase 2's tid-list construction on `threads` threads: each thread
/// scans a contiguous sub-range of `range` (ascending tids), then the
/// per-slot partial lists are stitched in sub-range order — the
/// intra-host variant of the §6.3 offset placement, so every list comes
/// out identical to a serial scan. Meters merge to the serial counts.
pub fn build_pair_tidlists_blocked(
    db: &HorizontalDb,
    range: Range<usize>,
    idx: &mining_types::FxHashMap<(ItemId, ItemId), usize>,
    threads: usize,
    meter: &mut OpMeter,
) -> Vec<tidlist::TidList> {
    let mut parts = on_threads(blocks(range, threads), |r| {
        let mut m = OpMeter::new();
        (build_pair_tidlists(db, r, idx, &mut m), m)
    })
    .into_iter();
    let (mut lists, m) = parts.next().expect("at least one block");
    meter.merge(&m);
    for (part, m) in parts {
        meter.merge(&m);
        for (slot, p) in part.into_iter().enumerate() {
            lists[slot].append_partial(&p);
        }
    }
    lists
}

/// What one thread of [`mine_shards`] did: wall-clock spent mining,
/// wall-clock spent fetching classes (disk faults in an out-of-core run,
/// ~0 in-memory), and the merged operation counts of its shard.
#[derive(Clone, Debug, Default)]
pub struct ThreadReport {
    /// Seconds this thread spent inside the mining kernel.
    pub compute_secs: f64,
    /// Seconds this thread spent fetching classes (out-of-core faults).
    pub fetch_secs: f64,
    /// Merged kernel operation counts for the shard.
    pub ops: OpMeter,
}

/// Phase 3 across explicit per-thread shards with a pluggable class
/// source — the execution core shared by [`ExecutionPolicy::mine_classes`]
/// (in-memory) and the distributed worker's out-of-core path (classes
/// faulted back from a spill store).
///
/// `shards[t]` holds the class indices thread `t` mines (the caller mines
/// `shards[0]`); `fetch(i)` materialises class `i` (the wall-clock it
/// takes — lock wait plus any disk fault — is accounted to that thread's
/// `fetch_secs`). Results merge into `out`; per-class stats land in
/// `stats` in ascending class-index order (= class order, matching the
/// serial pipeline); the returned reports are indexed by thread.
///
/// # Errors
/// The first `fetch` error aborts that thread's shard and is returned.
pub fn mine_shards<F>(
    shards: &[Vec<usize>],
    fetch: &F,
    threshold: u32,
    cfg: &EclatConfig,
    out: &mut FrequentSet,
    stats: &mut Vec<ClassStats>,
) -> Result<Vec<ThreadReport>, String>
where
    F: Fn(usize) -> Result<EquivalenceClass, String> + Sync,
{
    type ShardOut = Result<(FrequentSet, Vec<(usize, ClassStats)>, ThreadReport), String>;
    let results = on_threads(
        shards.iter().enumerate().collect(),
        |(t, ids)| -> ShardOut {
            let _shard_span = eclat_obs::trace::span_arg("mine:shard", t as u64);
            let mut local = FrequentSet::new();
            let mut tagged = Vec::with_capacity(ids.len());
            let mut rep = ThreadReport::default();
            for &i in ids {
                let t_fetch = Instant::now();
                let class = fetch(i)?;
                rep.fetch_secs += t_fetch.elapsed().as_secs_f64();
                let _class_span = eclat_obs::trace::span_arg("class", i as u64);
                let t_mine = Instant::now();
                tagged.push((
                    i,
                    mine_class(class, threshold, cfg, &mut rep.ops, &mut local),
                ));
                rep.compute_secs += t_mine.elapsed().as_secs_f64();
            }
            Ok((local, tagged, rep))
        },
    );
    let mut reports = Vec::with_capacity(shards.len());
    let mut all_tagged: Vec<(usize, ClassStats)> = Vec::new();
    for r in results {
        let (local, tagged, rep) = r?;
        out.merge(local);
        all_tagged.extend(tagged);
        reports.push(rep);
    }
    all_tagged.sort_by_key(|&(i, _)| i);
    stats.extend(all_tagged.into_iter().map(|(_, cs)| cs));
    Ok(reports)
}

/// Extract the frequent pair list from phase 1's triangular counts.
pub fn frequent_l2(tri: &TriangleMatrix, threshold: u32) -> Vec<(ItemId, ItemId)> {
    tri.frequent_pairs(threshold)
        .map(|(a, b, _)| (a, b))
        .collect()
}

/// Piggybacked singleton pass (only when `cfg.include_singletons`): count
/// 1-itemsets over the horizontal layout and record the frequent ones.
/// Returns `(items_counted, items_frequent)` — the level-1 candidate and
/// frequent counts for the stats report.
pub fn insert_frequent_singletons(
    db: &HorizontalDb,
    threshold: u32,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> (u64, u64) {
    let counts = count_items(db, 0..db.num_transactions(), meter);
    let mut inserted = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c >= threshold {
            out.insert(Itemset::single(ItemId(i as u32)), c);
            inserted += 1;
        }
    }
    (counts.len() as u64, inserted)
}

/// Phase 2: vertical transformation — one ordered scan building the `L2`
/// tid-lists, grouped into prefix equivalence classes.
pub fn vertical_classes(
    db: &HorizontalDb,
    l2: &[(ItemId, ItemId)],
    meter: &mut OpMeter,
) -> Vec<EquivalenceClass> {
    let idx = index_pairs(l2);
    let lists = build_pair_tidlists(db, 0..db.num_transactions(), &idx, meter);
    classes_of_l2(
        l2.iter()
            .zip(lists)
            .map(|(&(a, b), tl)| (a, b, tl))
            .collect(),
    )
}

/// Phase 3 for one class: record its members (they are frequent by
/// construction), then run the recursive kernel on the configured
/// representation. Returns the per-class work statistics.
pub fn mine_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> ClassStats {
    for m in &class.members {
        out.insert(m.itemset.clone(), m.tids.support());
    }
    let mut stats = ClassStats {
        prefix: class.prefix.items().iter().map(|i| i.0).collect(),
        members: class.members.len() as u64,
        kernel: KernelStats::new(),
    };
    compute_class(class, threshold, cfg, meter, out, &mut stats.kernel);
    stats
}

/// Run the recursive kernel on a tid-list `L2` class in the
/// representation `on_representation` picks, filling the kernel work
/// counters. The class members themselves must already be recorded by
/// the caller ([`mine_class`] does both).
pub fn compute_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    stats: &mut KernelStats,
) {
    struct Frequent<'a> {
        threshold: u32,
        cfg: &'a EclatConfig,
        meter: &'a mut OpMeter,
        out: &'a mut FrequentSet,
        stats: &'a mut KernelStats,
    }
    impl ClassKernel for Frequent<'_> {
        fn run<S: TidSet>(self, class: EquivalenceClass<S>) {
            compute_frequent_stats(
                class,
                self.threshold,
                self.cfg,
                self.meter,
                self.out,
                self.stats,
            );
        }
    }
    on_representation(
        class,
        cfg,
        Frequent {
            threshold,
            cfg,
            meter,
            out,
            stats,
        },
    );
}

/// A per-class kernel that runs on any representation — what
/// [`on_representation`] hands the converted class to.
pub(crate) trait ClassKernel {
    /// Mine `class`, whatever its members' vertical representation.
    fn run<S: TidSet>(self, class: EquivalenceClass<S>);
}

/// The one mapping from [`EclatConfig::representation`] to a [`TidSet`]:
/// convert a tid-list `L2` class and run `kernel` on it.
///
/// - `TidList` keeps the class as it is, or wraps it in [`GallopList`]
///   under `cfg.gallop`.
/// - `Diffset` wraps each member as an [`AdaptiveSet`] with fuel 0: the
///   first join below `L2` converts to `d(xy·z) = t(xy) − t(xz)` and the
///   subtree continues on diffsets, which is exactly d-Eclat.
///   `AutoSwitch { depth }` delays the conversion `depth` further levels.
/// - `Bitmap` converts the class to [`BitmapSet`]s sharing one frame.
/// - `AutoDensity` takes the bitmap arm for dense classes
///   ([`class_is_dense`]) and the diffset arm otherwise.
pub(crate) fn on_representation(
    class: EquivalenceClass,
    cfg: &EclatConfig,
    kernel: impl ClassKernel,
) {
    let fuel = |class: EquivalenceClass, fuel: u32| {
        class.map_members(|tids| AdaptiveSet::with_fuel(tids, fuel))
    };
    match cfg.representation {
        Representation::TidList if cfg.gallop => kernel.run(class.map_members(GallopList)),
        Representation::TidList => kernel.run(class),
        Representation::Diffset => kernel.run(fuel(class, 0)),
        Representation::AutoSwitch { depth } => kernel.run(fuel(class, depth)),
        Representation::AutoDensity { permille } if !class_is_dense(&class, permille) => {
            kernel.run(fuel(class, 0))
        }
        Representation::Bitmap | Representation::AutoDensity { .. } => {
            let (base, words) = BitmapSet::frame_of(class.members.iter().map(|m| &m.tids));
            kernel.run(class.map_members(|tids| BitmapSet::from_tidlist(&tids, base, words)))
        }
    }
}

/// The `auto-density` decision: a class is dense when its average member
/// density over the class's word-aligned tid window reaches
/// `permille / 1000`, i.e. `Σ support · 1000 ≥ permille · members · span`.
/// Integer arithmetic throughout so the decision is exactly reproducible
/// across hosts; an empty window (all members empty) counts as dense —
/// the zero-width bitmap is free.
pub(crate) fn class_is_dense(class: &EquivalenceClass, permille: u32) -> bool {
    let (_, words) = BitmapSet::frame_of(class.members.iter().map(|m| &m.tids));
    let span = words as u64 * 64;
    let sum: u64 = class
        .members
        .iter()
        .map(|m| u64::from(m.tids.support()))
        .sum();
    sum * 1000 >= u64::from(permille) * class.members.len() as u64 * span
}

/// The full three-phase pipeline under a policy. This is the whole
/// sequential/parallel algorithm; the cluster variants compose the phase
/// helpers themselves around the communication model.
pub fn run(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    policy: &impl ExecutionPolicy,
) -> FrequentSet {
    run_stats(db, minsup, cfg, meter, policy, "").0
}

/// [`run`] that also produces the structured [`MiningStats`] report:
/// per-phase wall-clock/op deltas, per-level candidate/frequent counts,
/// and per-class kernel work. `variant` labels the report
/// (`"sequential"` / `"parallel"`); live runs have no simulated cluster,
/// so `stats.cluster` is `None`.
pub fn run_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    policy: &impl ExecutionPolicy,
    variant: &str,
) -> (FrequentSet, MiningStats) {
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut stats = MiningStats::new("eclat", variant, &cfg.representation.to_string());
    stats.transactions = db.num_transactions() as u64;
    stats.threshold = u64::from(threshold);
    let mut out = FrequentSet::new();
    let start_ops = *meter;

    // --- Phase 1 (initialization, §5.1).
    let span_init = eclat_obs::trace::span(PHASE_INIT);
    let t_init = Instant::now();
    let tri = policy.count_pairs(db, meter);
    let l2 = frequent_l2(&tri, threshold);
    stats.record_level(2, tri.cells() as u64, l2.len() as u64);
    if cfg.include_singletons {
        let (counted, inserted) = insert_frequent_singletons(db, threshold, meter, &mut out);
        stats.record_level(1, counted, inserted);
    }
    stats.phases.push(PhaseStats {
        label: PHASE_INIT.to_string(),
        secs: t_init.elapsed().as_secs_f64(),
        ops: meter.since(&start_ops),
    });
    drop(span_init);
    if l2.is_empty() {
        stats.num_frequent = out.len() as u64;
        stats.total_ops = meter.since(&start_ops);
        return (out, stats);
    }

    // --- Phase 2 (transformation, §5.2.2).
    let span_transform = eclat_obs::trace::span(PHASE_TRANSFORM);
    let t_transform = Instant::now();
    let ops_before_transform = *meter;
    let classes = vertical_classes(db, &l2, meter);
    stats.phases.push(PhaseStats {
        label: PHASE_TRANSFORM.to_string(),
        secs: t_transform.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_transform),
    });
    drop(span_transform);

    // --- Phase 3 (asynchronous, §5.3).
    let span_async = eclat_obs::trace::span(PHASE_ASYNC);
    let t_async = Instant::now();
    let ops_before_async = *meter;
    let mut class_stats = Vec::new();
    policy.mine_classes(classes, threshold, cfg, meter, &mut out, &mut class_stats);
    stats.phases.push(PhaseStats {
        label: PHASE_ASYNC.to_string(),
        secs: t_async.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_async),
    });
    drop(span_async);
    for cs in class_stats {
        stats.add_class(cs);
    }
    stats.sort_classes();
    stats.num_frequent = out.len() as u64;
    stats.total_ops = meter.since(&start_ops);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apriori::reference::random_db;
    use std::collections::HashSet;
    use std::thread::{current, ThreadId};

    #[test]
    fn serial_and_rayon_policies_agree() {
        let db = random_db(17, 150, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let cfg = EclatConfig::default();
        let mut m_serial = OpMeter::new();
        let mut m_rayon = OpMeter::new();
        let a = run(&db, minsup, &cfg, &mut m_serial, &Serial);
        let b = run(&db, minsup, &cfg, &mut m_rayon, &Rayon);
        assert_eq!(a, b);
        // Same work, different schedule: the merged parallel meter must
        // report the same candidate count as the serial one.
        assert_eq!(m_serial.cand_gen, m_rayon.cand_gen);
        assert_eq!(m_serial.record, m_rayon.record);
    }

    #[test]
    fn fixed_threads_policy_matches_serial_for_any_p() {
        let db = random_db(17, 150, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let cfg = EclatConfig::default();
        let mut m_serial = OpMeter::new();
        let expect = run(&db, minsup, &cfg, &mut m_serial, &Serial);
        for p in [1, 2, 3, 8] {
            let mut m = OpMeter::new();
            let fs = run(&db, minsup, &cfg, &mut m, &FixedThreads::new(p));
            assert_eq!(fs, expect, "P={p}");
            // Merged per-thread meters must equal the serial counts.
            assert_eq!(m, m_serial, "P={p}");
        }
        assert_eq!(
            FixedThreads::new(0).threads(),
            Rayon.threads(),
            "0 means every core"
        );
    }

    fn square_all(policy: &impl ExecutionPolicy, n: u64) -> Vec<u64> {
        let tasks: Vec<u64> = (0..n).collect();
        let weights: Vec<u64> = tasks.iter().map(|&t| t + 1).collect();
        policy.run_tasks(tasks, &weights, ScheduleHeuristic::GreedyPairs, |i, t| {
            assert_eq!(i as u64, t, "task index lines up with the task");
            t * t
        })
    }

    #[test]
    fn all_policies_preserve_task_order() {
        let expect: Vec<u64> = (0..37).map(|t| t * t).collect();
        assert_eq!(square_all(&Serial, 37), expect);
        assert_eq!(square_all(&Rayon, 37), expect);
        for p in [1, 2, 3, 8] {
            assert_eq!(square_all(&FixedThreads::new(p), 37), expect, "P={p}");
        }
        assert!(square_all(&Serial, 0).is_empty());
        assert!(square_all(&FixedThreads::new(4), 0).is_empty());
    }

    #[test]
    fn fixed_threads_runs_every_task_once() {
        let counter = std::sync::atomic::AtomicU64::new(0);
        let tasks: Vec<u64> = (0..100).collect();
        let weights = vec![1u64; 100];
        let out = FixedThreads::new(7).run_tasks(
            tasks,
            &weights,
            ScheduleHeuristic::RoundRobin,
            |_, t| {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                t
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    fn task_threads(policy: &impl ExecutionPolicy, weights: &[u64]) -> Vec<ThreadId> {
        let tasks = vec![(); weights.len()];
        policy.run_tasks(tasks, weights, ScheduleHeuristic::GreedyPairs, |_, ()| {
            current().id()
        })
    }

    #[test]
    fn caller_thread_works_the_first_shard() {
        let caller = current().id();
        let weights = [5u64, 1, 4, 2, 3, 1];
        // One thread: every task runs on the caller, nothing is spawned.
        for ids in [
            task_threads(&Serial, &weights),
            task_threads(&FixedThreads::new(1), &weights),
        ] {
            assert!(ids.iter().all(|&id| id == caller));
        }

        // Two threads: exactly the first greedy shard runs on the caller,
        // the other on one spawned thread.
        let ids = task_threads(&FixedThreads::new(2), &weights);
        let first = schedule_weights(&weights, 2, ScheduleHeuristic::GreedyPairs).classes_of(0);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id == caller, first.contains(&i), "task {i}");
        }
        let spawned: HashSet<_> = ids.iter().filter(|&&id| id != caller).collect();
        assert_eq!(spawned.len(), 1);

        // Classes too: a class is fetched on the thread that mines it.
        let fetched = Mutex::new(Vec::new());
        let fetch = |i: usize| {
            fetched.lock().unwrap().push((i, current().id()));
            Ok(EquivalenceClass {
                prefix: Itemset::of(&[i as u32]),
                members: vec![],
            })
        };
        let shards = [vec![0usize, 2], vec![1]];
        let cfg = EclatConfig::default();
        mine_shards(
            &shards,
            &fetch,
            1,
            &cfg,
            &mut FrequentSet::new(),
            &mut Vec::new(),
        )
        .unwrap();
        for (i, id) in fetched.into_inner().unwrap() {
            assert_eq!(id == caller, shards[0].contains(&i), "class {i}");
        }
    }

    #[test]
    fn fixed_threads_stats_match_serial() {
        let db = random_db(29, 200, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::default();
        let (fs_s, seq) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "x");
        let (fs_p, par) = run_stats(
            &db,
            minsup,
            &cfg,
            &mut OpMeter::new(),
            &FixedThreads::new(3),
            "x",
        );
        assert_eq!(fs_s, fs_p);
        assert_eq!(seq.total_ops, par.total_ops);
        assert_eq!(seq.levels, par.levels);
        // Class stats come back in class order despite the LPT sharding.
        assert_eq!(seq.classes, par.classes);
        for (a, b) in seq.phases.iter().zip(&par.phases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn blocked_transform_matches_serial_scan() {
        let db = random_db(41, 300, 12, 6);
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut OpMeter::new());
        let l2 = frequent_l2(&tri, 5);
        assert!(!l2.is_empty());
        let idx = index_pairs(&l2);
        let mut m_serial = OpMeter::new();
        let serial = build_pair_tidlists(&db, 0..db.num_transactions(), &idx, &mut m_serial);
        for threads in [1, 2, 5] {
            let mut m = OpMeter::new();
            let blocked =
                build_pair_tidlists_blocked(&db, 0..db.num_transactions(), &idx, threads, &mut m);
            assert_eq!(blocked, serial, "threads={threads}");
            assert_eq!(m, m_serial, "threads={threads}");
        }
    }

    #[test]
    fn mine_shards_propagates_fetch_errors() {
        let cfg = EclatConfig::default();
        let fetch = |_i: usize| Err("spill store gone".to_string());
        let err = mine_shards(
            &[vec![0usize]],
            &fetch,
            1,
            &cfg,
            &mut FrequentSet::new(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("spill store gone"));
    }

    #[test]
    fn representations_agree_end_to_end() {
        // A random database, and a dense correlated one where every
        // transaction shares a core pattern, so deep tid-lists stay long
        // while diffsets stay near-empty.
        let dense = HorizontalDb::from_transactions(
            (0..100u32)
                .map(|i| {
                    let mut t: Vec<ItemId> = (0..6).map(ItemId).collect();
                    if i % 10 == 0 {
                        t.push(ItemId(6 + (i / 10) % 3));
                    }
                    t
                })
                .collect(),
        );
        let inputs = [
            (random_db(23, 120, 10, 5), MinSupport::from_percent(8.0)),
            (dense, MinSupport::from_percent(50.0)),
        ];
        for (db, minsup) in &inputs {
            let mut m_base = OpMeter::new();
            let base = run(db, *minsup, &EclatConfig::default(), &mut m_base, &Serial);
            for repr in [
                Representation::Diffset,
                Representation::AutoSwitch { depth: 1 },
                Representation::AutoSwitch { depth: 3 },
                Representation::Bitmap,
                Representation::AutoDensity { permille: 8 },
                Representation::AutoDensity { permille: 1000 },
                Representation::AutoDensity { permille: 0 },
            ] {
                let cfg = EclatConfig::with_representation(repr);
                let mut m = OpMeter::new();
                let fs = run(db, *minsup, &cfg, &mut m, &Serial);
                assert_eq!(fs, base, "{repr:?}");
                // Every kernel walks the same candidate lattice.
                assert_eq!(m.cand_gen, m_base.cand_gen, "{repr:?}");
                if repr == Representation::Diffset && db.num_transactions() == 100 {
                    assert!(
                        m.tid_cmp < m_base.tid_cmp,
                        "diffsets should touch fewer elements on dense data: {} vs {}",
                        m.tid_cmp,
                        m_base.tid_cmp
                    );
                }
            }
        }
        // An empty class yields nothing under any representation.
        for repr in [Representation::TidList, Representation::Diffset] {
            let mut out = FrequentSet::new();
            let empty = EquivalenceClass {
                prefix: Itemset::of(&[0]),
                members: vec![],
            };
            let cfg = EclatConfig::with_representation(repr);
            compute_class(
                empty,
                1,
                &cfg,
                &mut OpMeter::new(),
                &mut out,
                &mut KernelStats::new(),
            );
            assert!(out.is_empty(), "{repr:?}");
        }
    }

    #[test]
    fn gallop_kernel_agrees_with_merge_kernel() {
        let db = random_db(23, 120, 10, 5);
        let minsup = MinSupport::from_percent(8.0);
        let base = run(
            &db,
            minsup,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &Serial,
        );
        let cfg = EclatConfig {
            gallop: true,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        assert_eq!(run(&db, minsup, &cfg, &mut meter, &Serial), base);
        assert!(meter.tid_cmp > 0, "galloping joins must stay metered");
    }

    #[test]
    fn run_stats_reports_phases_levels_and_classes() {
        let db = random_db(17, 150, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let cfg = EclatConfig::default();
        let mut meter = OpMeter::new();
        let (fs, stats) = run_stats(&db, minsup, &cfg, &mut meter, &Serial, "sequential");
        assert_eq!(fs, run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial));
        assert_eq!(stats.variant, "sequential");
        assert_eq!(stats.representation, "tidlist");
        assert_eq!(stats.transactions, 150);
        assert_eq!(stats.num_frequent, fs.len() as u64);
        assert_eq!(stats.total_ops, meter);
        // The three live phases in order, with ops attributed to each.
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec![PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC]);
        assert!(stats.phases[0].ops.pair_incr > 0, "counting in init");
        assert!(stats.phases[2].ops.tid_cmp > 0, "joins in async");
        // Level 2 comes from the triangle; deeper levels from the kernel.
        assert_eq!(stats.levels[0].size, 2);
        assert!(stats.levels[0].candidates >= stats.levels[0].frequent);
        let l2_frequent = stats.levels[0].frequent;
        assert_eq!(
            l2_frequent,
            fs.iter().filter(|(is, _)| is.len() == 2).count() as u64
        );
        // Classes are sorted by prefix and their frequent counts plus L2
        // plus singletons account for the whole output.
        assert!(!stats.classes.is_empty());
        for w in stats.classes.windows(2) {
            assert!(w[0].prefix < w[1].prefix);
        }
        let kernel_frequent: u64 = stats.classes.iter().map(|c| c.kernel.frequent).sum();
        assert_eq!(kernel_frequent + l2_frequent, stats.num_frequent);
        assert!(stats.cluster.is_none(), "live run has no simulated cluster");
    }

    #[test]
    fn run_stats_parallel_equals_sequential() {
        let db = random_db(29, 200, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::default();
        let (fs_s, seq) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "x");
        let (fs_p, par) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Rayon, "x");
        assert_eq!(fs_s, fs_p);
        // Everything except wall-clock seconds is schedule-independent.
        assert_eq!(seq.total_ops, par.total_ops);
        assert_eq!(seq.levels, par.levels);
        assert_eq!(seq.classes, par.classes);
        assert_eq!(seq.kernel_totals(), par.kernel_totals());
        for (a, b) in seq.phases.iter().zip(&par.phases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn run_stats_empty_l2_still_reports() {
        let db = dbstore::HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let (fs, stats) = run_stats(
            &db,
            MinSupport::from_fraction(0.6),
            &EclatConfig::with_singletons(),
            &mut OpMeter::new(),
            &Serial,
            "sequential",
        );
        assert_eq!(stats.num_frequent, fs.len() as u64);
        assert_eq!(stats.phases.len(), 1, "only init runs");
        assert_eq!(stats.phases[0].label, PHASE_INIT);
        // Level 1 recorded from the singleton pass, level 2 all-infrequent.
        assert!(stats.levels.iter().any(|l| l.size == 1));
        let l2 = stats.levels.iter().find(|l| l.size == 2).unwrap();
        assert_eq!(l2.frequent, 0);
    }

    #[test]
    fn empty_database_under_both_policies() {
        let db = dbstore::HorizontalDb::of(&[]);
        let cfg = EclatConfig::default();
        for policy in [&Serial as &dyn ExecutionPolicy, &Rayon] {
            let mut out = FrequentSet::new();
            let mut meter = OpMeter::new();
            let tri = policy.count_pairs(&db, &mut meter);
            assert!(frequent_l2(&tri, 1).is_empty());
            policy.mine_classes(vec![], 1, &cfg, &mut meter, &mut out, &mut Vec::new());
            assert!(out.is_empty());
        }
        assert!(run(
            &db,
            MinSupport::from_percent(1.0),
            &cfg,
            &mut OpMeter::new(),
            &Rayon
        )
        .is_empty());
    }
}
