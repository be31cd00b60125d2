//! MaxEclat — maximal frequent itemset mining with look-ahead, the
//! hybrid search of the paper's reference \[18\].
//!
//! Instead of materializing every frequent itemset, MaxEclat hunts the
//! *maximal* ones (those with no frequent superset). Within an
//! equivalence class it first tries the **look-ahead** jump: join the
//! current node with *all* remaining extensions at once; if that long
//! itemset is frequent, the entire sub-lattice below it is frequent and
//! is skipped in one step. Only on failure does it fall back to the
//! one-extension-at-a-time recursion.
//!
//! The look-ahead runs on any [`EclatConfig::representation`]: it is
//! built on the [`TidSet`] multi-way fold ([`TidSet::fold_join`]), which
//! for the switching representation tracks the representation per join
//! depth — tid-list intersections, the tid-list → diffset conversion, and
//! diffset differences can mix inside one fold (see
//! `tidlist::AdaptiveSet`'s `fold_join`).
//!
//! Output: the maximal frequent itemsets of size ≥ 2 with their exact
//! supports. Cross-checked against `FrequentSet::maximal()` of the full
//! miner.

use crate::compute::{join_level, EclatConfig, JoinHandler};
use crate::equivalence::{ClassMember, EquivalenceClass};
use crate::pipeline::{
    self, ClassKernel, ExecutionPolicy, Serial, PHASE_ASYNC, PHASE_INIT, PHASE_REDUCE,
    PHASE_TRANSFORM,
};
use dbstore::HorizontalDb;
use mining_types::stats::{ClassStats, KernelStats, MiningStats, PhaseStats};
use mining_types::{FrequentSet, Itemset, MinSupport, OpMeter};
use std::time::Instant;
use tidlist::TidSet;

/// Mine the maximal frequent itemsets (size ≥ 2).
pub fn mine_maximal(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let mut meter = OpMeter::new();
    mine_maximal_with(db, minsup, &EclatConfig::default(), &mut meter)
}

/// [`mine_maximal`] with configuration and metering. Runs on whatever
/// [`EclatConfig::representation`] the config selects.
pub fn mine_maximal_with(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> FrequentSet {
    mine_maximal_stats(db, minsup, cfg, meter).0
}

/// [`mine_maximal_with`] that also produces the structured
/// [`MiningStats`] report (algorithm `"maxeclat"`): per-phase
/// wall-clock/op deltas, per-class kernel work including look-ahead
/// candidates, short-circuit hits, and `AdaptiveSet` switch events.
pub fn mine_maximal_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> (FrequentSet, MiningStats) {
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut stats = MiningStats::new("maxeclat", "sequential", &cfg.representation.to_string());
    stats.transactions = db.num_transactions() as u64;
    stats.threshold = u64::from(threshold);
    let start_ops = *meter;

    // --- Phase 1 (initialization, §5.1): triangular counts of all pairs.
    let t_init = Instant::now();
    let tri = Serial.count_pairs(db, meter);
    let l2 = pipeline::frequent_l2(&tri, threshold);
    stats.record_level(2, tri.cells() as u64, l2.len() as u64);
    stats.phases.push(PhaseStats {
        label: PHASE_INIT.to_string(),
        secs: t_init.elapsed().as_secs_f64(),
        ops: meter.since(&start_ops),
    });
    if l2.is_empty() {
        stats.total_ops = meter.since(&start_ops);
        return (FrequentSet::new(), stats);
    }

    // --- Phase 2 (transformation, §5.2.2): vertical tid-lists for L2.
    let t_transform = Instant::now();
    let ops_before_transform = *meter;
    let classes = pipeline::vertical_classes(db, &l2, meter);
    stats.phases.push(PhaseStats {
        label: PHASE_TRANSFORM.to_string(),
        secs: t_transform.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_transform),
    });

    // --- Phase 3 (asynchronous, §5.3): hybrid max search per class.
    // Collect candidate-maximal itemsets from every class, then filter
    // globally (a class's local maximal can be subsumed by another
    // class's result only if it is a subset — prefix classes make that
    // impossible for same-first-item sets, but e.g. {B,C} ∈ [B] is
    // subsumed by {A,B,C} ∈ [A], so the global pass is required).
    let t_async = Instant::now();
    let ops_before_async = *meter;
    let mut candidates: Vec<(Itemset, u32)> = Vec::new();
    for class in classes {
        let mut cs = ClassStats {
            prefix: class.prefix.items().iter().map(|i| i.0).collect(),
            members: class.members.len() as u64,
            kernel: KernelStats::new(),
        };
        max_class(
            class,
            threshold,
            cfg,
            meter,
            &mut candidates,
            &mut cs.kernel,
        );
        stats.add_class(cs);
    }
    stats.sort_classes();
    stats.phases.push(PhaseStats {
        label: PHASE_ASYNC.to_string(),
        secs: t_async.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_async),
    });

    // --- Phase 4 (reduction): global maximality filter.
    let t_reduce = Instant::now();
    let ops_before_reduce = *meter;
    let mut out = FrequentSet::new();
    for (i, (is, sup)) in candidates.iter().enumerate() {
        let subsumed = candidates
            .iter()
            .enumerate()
            .any(|(j, (other, _))| j != i && other.len() > is.len() && is.is_subset_of(other));
        if !subsumed {
            out.insert(is.clone(), *sup);
        }
    }
    stats.phases.push(PhaseStats {
        label: PHASE_REDUCE.to_string(),
        secs: t_reduce.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_reduce),
    });
    stats.num_frequent = out.len() as u64;
    stats.total_ops = meter.since(&start_ops);
    (out, stats)
}

/// One class of the max search, on the representation
/// [`pipeline::on_representation`] picks — the same dispatch the full
/// miner uses.
fn max_class(
    class: EquivalenceClass,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    found: &mut Vec<(Itemset, u32)>,
    stats: &mut KernelStats,
) {
    if class.size() == 1 {
        // a lone 2-itemset is maximal within its class
        let m = &class.members[0];
        found.push((m.itemset.clone(), m.tids.support()));
        return;
    }
    struct MaxSearch<'a> {
        minsup: u32,
        cfg: &'a EclatConfig,
        meter: &'a mut OpMeter,
        found: &'a mut Vec<(Itemset, u32)>,
        stats: &'a mut KernelStats,
    }
    impl ClassKernel for MaxSearch<'_> {
        fn run<S: TidSet>(self, class: EquivalenceClass<S>) {
            max_search(
                class,
                self.minsup,
                self.cfg,
                self.meter,
                self.found,
                self.stats,
            );
        }
    }
    pipeline::on_representation(
        class,
        cfg,
        MaxSearch {
            minsup,
            cfg,
            meter,
            found,
            stats,
        },
    );
}

/// Recursive hybrid search over one class, generic over the members'
/// representation. Pushes locally-maximal frequent itemsets into `found`.
fn max_search<S: TidSet>(
    class: EquivalenceClass<S>,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    found: &mut Vec<(Itemset, u32)>,
    stats: &mut KernelStats,
) {
    let members = class.members;
    debug_assert!(members.len() >= 2);
    let parent_switched = members[0].tids.is_switched();

    // --- Look-ahead: fold the whole class at once. The fold is the
    // representation-aware multi-way join: the §5.3 short-circuit applies
    // per fold step when enabled.
    let union_size = (members[0].itemset.len() + members.len() - 1) as u64;
    stats.record_candidate(union_size);
    let rest: Vec<&S> = members[1..].iter().map(|m| &m.tids).collect();
    let all = members[0]
        .tids
        .fold_join(&rest, cfg.short_circuit.then_some(minsup), meter)
        .filter(|t| t.support() >= minsup);
    if let Some(all) = all {
        // The whole class joins into one frequent itemset — maximal for
        // this subtree; everything below is subsumed.
        stats.record_frequent(union_size);
        if !parent_switched && all.is_switched() {
            stats.record_switch();
        }
        let mut union = members[0].itemset.clone();
        for m in &members[1..] {
            union = union.union(&m.itemset);
        }
        found.push((union, all.support()));
        return;
    }
    stats.record_infrequent(cfg.short_circuit);

    // --- Fall back: one level of pairwise joins (through the shared
    // kernel loop), then recurse per class.
    let mut handler = ExtendTracker {
        next: Vec::new(),
        extended: vec![false; members.len()],
        stats,
        parent_switched,
        short_circuit: cfg.short_circuit,
    };
    join_level(&members, minsup, cfg, meter, &mut handler);
    let ExtendTracker { next, extended, .. } = handler;
    // Members that extended nowhere are locally maximal.
    for (i, m) in members.iter().enumerate() {
        if !extended[i] {
            found.push((m.itemset.clone(), m.tids.support()));
        }
    }
    drop(members);
    for sub in crate::equivalence::repartition(next) {
        if sub.size() == 1 {
            let m = &sub.members[0];
            found.push((m.itemset.clone(), m.tids.support()));
        } else {
            max_search(sub, minsup, cfg, meter, found, stats);
        }
    }
}

/// `join_level` handler for the fallback level: collect frequent joins,
/// remember which members extended at all (the rest are locally maximal),
/// and feed the kernel stats — candidates, outcomes, and `AdaptiveSet`
/// switch events, the same accounting the full miner does.
struct ExtendTracker<'a, S> {
    next: Vec<ClassMember<S>>,
    extended: Vec<bool>,
    stats: &'a mut KernelStats,
    parent_switched: bool,
    short_circuit: bool,
}

impl<S: TidSet> JoinHandler<S> for ExtendTracker<'_, S> {
    fn accept(&mut self, candidate: &Itemset, _meter: &mut OpMeter) -> bool {
        self.stats.record_candidate(candidate.len() as u64);
        true
    }

    fn on_result(&mut self, i: usize, j: usize, candidate: Itemset, joined: Option<S>) {
        match joined {
            Some(tids) => {
                self.stats.record_frequent(candidate.len() as u64);
                if !self.parent_switched && tids.is_switched() {
                    self.stats.record_switch();
                }
                self.extended[i] = true;
                self.extended[j] = true;
                self.next.push(ClassMember {
                    itemset: candidate,
                    tids,
                });
            }
            None => self.stats.record_infrequent(self.short_circuit),
        }
    }
}

/// Maximal elements of a full frequent set (test oracle; also generally
/// useful to consumers who mined everything and want the frontier).
pub fn maximal_of(fs: &FrequentSet) -> FrequentSet {
    let all: Vec<(&Itemset, u32)> = fs.iter().collect();
    let mut out = FrequentSet::new();
    for &(is, sup) in &all {
        if is.len() < 2 {
            continue;
        }
        let subsumed = all
            .iter()
            .any(|&(other, _)| other.len() > is.len() && is.is_subset_of(other));
        if !subsumed {
            out.insert(is.clone(), sup);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Representation;
    use apriori::reference::random_db;
    use mining_types::ItemId;

    /// All representations exercised by the cross-representation tests.
    fn all_representations() -> Vec<Representation> {
        vec![
            Representation::TidList,
            Representation::Diffset,
            Representation::AutoSwitch { depth: 0 },
            Representation::AutoSwitch { depth: 2 },
            Representation::Bitmap,
            Representation::AutoDensity { permille: 8 },
            // Extreme thresholds force the all-diffset / all-bitmap arms.
            Representation::AutoDensity { permille: 1000 },
            Representation::AutoDensity { permille: 0 },
        ]
    }

    #[test]
    fn matches_maximal_of_full_mining() {
        for seed in [1u64, 8, 30] {
            let db = random_db(seed, 200, 12, 6);
            for pct in [5.0, 10.0, 20.0] {
                let minsup = MinSupport::from_percent(pct);
                let max_direct = mine_maximal(&db, minsup);
                let full = crate::sequential::mine(&db, minsup);
                let max_oracle = maximal_of(&full);
                assert_eq!(max_direct, max_oracle, "seed {seed} pct {pct}");
            }
        }
    }

    #[test]
    fn every_representation_matches_the_oracle() {
        for seed in [1u64, 8] {
            let db = random_db(seed, 200, 12, 6);
            for pct in [5.0, 15.0] {
                let minsup = MinSupport::from_percent(pct);
                let oracle = maximal_of(&crate::sequential::mine(&db, minsup));
                for repr in all_representations() {
                    for short_circuit in [true, false] {
                        let cfg = EclatConfig {
                            representation: repr,
                            short_circuit,
                            ..Default::default()
                        };
                        let got = mine_maximal_with(&db, minsup, &cfg, &mut OpMeter::new());
                        assert_eq!(
                            got, oracle,
                            "seed {seed} pct {pct} {repr:?} sc {short_circuit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gallop_config_matches_the_oracle() {
        let db = random_db(8, 200, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let oracle = maximal_of(&crate::sequential::mine(&db, minsup));
        let cfg = EclatConfig {
            gallop: true,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        assert_eq!(mine_maximal_with(&db, minsup, &cfg, &mut meter), oracle);
        assert!(meter.tid_cmp > 0);
    }

    /// Dense look-ahead-heavy database: all transactions share one long
    /// core pattern, so the look-ahead jumps straight to the top.
    fn dense_db() -> HorizontalDb {
        let txns: Vec<Vec<ItemId>> = (0..200)
            .map(|i| {
                let mut t: Vec<ItemId> = (0..8u32).map(ItemId).collect();
                t.push(ItemId(8 + (i % 7) as u32));
                t
            })
            .collect();
        HorizontalDb::from_transactions(txns)
    }

    #[test]
    fn lookahead_pays_on_dense_data() {
        let db = dense_db();
        let minsup = MinSupport::from_percent(50.0);
        let mut m_max = OpMeter::new();
        let max = mine_maximal_with(&db, minsup, &EclatConfig::default(), &mut m_max);
        // the 8-item core is the unique maximal set
        assert_eq!(max.len(), 1);
        let (top, sup) = max.iter().next().unwrap();
        assert_eq!(top, &Itemset::of(&[0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(sup, 200);
        let mut m_full = OpMeter::new();
        crate::sequential::mine_with(&db, minsup, &EclatConfig::default(), &mut m_full);
        assert!(
            m_max.tid_cmp * 5 < m_full.tid_cmp,
            "lookahead {} vs full {}",
            m_max.tid_cmp,
            m_full.tid_cmp
        );
    }

    #[test]
    fn dense_lookahead_agrees_across_representations() {
        let db = dense_db();
        let minsup = MinSupport::from_percent(50.0);
        let oracle = maximal_of(&crate::sequential::mine(&db, minsup));
        for repr in all_representations() {
            let cfg = EclatConfig::with_representation(repr);
            let got = mine_maximal_with(&db, minsup, &cfg, &mut OpMeter::new());
            assert_eq!(got, oracle, "{repr:?}");
        }
    }

    #[test]
    fn maximal_stats_report_switch_events_on_diffsets() {
        let db = dense_db();
        let minsup = MinSupport::from_percent(50.0);
        let cfg = EclatConfig::with_representation(Representation::Diffset);
        let (fs, stats) = mine_maximal_stats(&db, minsup, &cfg, &mut OpMeter::new());
        assert_eq!(fs.len(), 1);
        assert_eq!(stats.algorithm, "maxeclat");
        assert_eq!(stats.representation, "diffset");
        let totals = stats.kernel_totals();
        assert!(
            totals.switch_events > 0,
            "diffset look-ahead must record the tidlist → diffset switch"
        );
        assert!(totals.joins > 0);
        // The four live phases in order.
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC, PHASE_REDUCE]
        );
        // The JSON surface carries the algorithm and switch events.
        let json = stats.to_json(false);
        assert!(json.contains("\"algorithm\":\"maxeclat\""), "{json}");
        assert!(json.contains("\"switch_events\""), "{json}");
    }

    #[test]
    fn no_member_of_output_subsumes_another() {
        let db = random_db(12, 300, 14, 6);
        let minsup = MinSupport::from_percent(5.0);
        let max = mine_maximal(&db, minsup);
        let v: Vec<_> = max.iter().collect();
        for (i, (a, _)) in v.iter().enumerate() {
            for (j, (b, _)) in v.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset_of(b), "{a} ⊆ {b}");
                }
            }
        }
    }

    #[test]
    fn empty_database() {
        let db = HorizontalDb::of(&[]);
        assert!(mine_maximal(&db, MinSupport::from_percent(1.0)).is_empty());
        for repr in all_representations() {
            let cfg = EclatConfig::with_representation(repr);
            assert!(mine_maximal_with(
                &db,
                MinSupport::from_percent(1.0),
                &cfg,
                &mut OpMeter::new()
            )
            .is_empty());
        }
    }
}
