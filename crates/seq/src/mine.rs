//! The SPADE pipeline: the itemset miner's three phases, re-targeted at
//! sequences.
//!
//! 1. **Initialization** — two horizontal scans: frequent-1 counting
//!    (distinct sids per item) and frequent-2 counting. The 2-sequence
//!    scan counts both forms at once per sid: items `x < y` co-occurring
//!    in one event (I-candidates, a triangle) and ordered item pairs
//!    `x → y` with an `x`-event strictly before a `y`-event
//!    (S-candidates, a full matrix — the diagonal finds repeats).
//! 2. **Transformation** — one ordered scan building each frequent
//!    item's `(sid, eid)` occurrence list ([`PairSet`]).
//! 3. **Asynchronous phase** — one task per prefix class `⟨{x}⟩`: the
//!    task joins the item lists into the class's 2-sequence members
//!    (equality/temporal [`PairSet`] joins) and runs the recursive
//!    kernel. Tasks are independent, so they run under any
//!    [`ExecutionPolicy`] through its greedy weighted `run_tasks`; results
//!    and meters merge in class order, so every thread count is
//!    byte-identical.

use crate::db::SeqDb;
use crate::kernel::{class_weight, recurse, AtomKind, FrequentSequences, SeqConfig, SeqMember};
use crate::pairset::PairSet;
use crate::pattern::SeqPattern;
use eclat::pipeline::{ExecutionPolicy, PHASE_ASYNC, PHASE_INIT, PHASE_TRANSFORM};
use mining_types::stats::{ClassStats, KernelStats, MiningStats};
use mining_types::{ItemId, MinSupport, OpMeter};
use tidlist::TidSet;

/// What the initialization scans found: the frequent items (ascending)
/// with their supports, and per-class partner lists for the frequent
/// 2-sequences.
struct InitCounts {
    /// Frequent items, ascending, with distinct-sid supports.
    items: Vec<(ItemId, u32)>,
    /// Per frequent item `x` (same index as `items`): frequent I-pair
    /// partners `y > x` and frequent S-pair partners (any `y`), both as
    /// indices into `items`.
    classes: Vec<ClassSpec>,
    /// 2-sequence cells examined (the level-2 candidate count).
    l2_candidates: u64,
    /// Frequent 2-sequences found.
    l2_frequent: u64,
}

/// One prefix class `⟨{x}⟩`, by indices into the frequent-item list.
struct ClassSpec {
    item: usize,
    i_partners: Vec<usize>,
    s_partners: Vec<usize>,
}

impl ClassSpec {
    fn members(&self) -> usize {
        self.i_partners.len() + self.s_partners.len()
    }
}

/// Frequent-1 scan: distinct sids per item, one stamp pass per sequence.
/// Counters are indexed by the item's rank among the items that occur
/// ([`SeqDb::items`]), never by its value.
fn count_items(db: &SeqDb, threshold: u32, meter: &mut OpMeter) -> Vec<(ItemId, u32)> {
    let alphabet = db.items();
    let mut counts = vec![0u32; alphabet.len()];
    let mut stamp = vec![0u32; alphabet.len()];
    for (sid, seq) in db.sequences().iter().enumerate() {
        let mark = sid as u32 + 1;
        for (_, items) in seq {
            for item in items {
                let slot = alphabet
                    .binary_search(item)
                    .expect("every item of the database is in its alphabet");
                if stamp[slot] != mark {
                    stamp[slot] = mark;
                    counts[slot] += 1;
                    meter.pair_incr += 1;
                }
            }
        }
    }
    alphabet
        .iter()
        .zip(counts)
        .filter(|&(_, c)| c >= threshold)
        .map(|(&item, c)| (item, c))
        .collect()
}

/// Index of `item` among the frequent items (ascending), if frequent.
fn frequent_index(items: &[(ItemId, u32)], item: ItemId) -> Option<usize> {
    items.binary_search_by_key(&item, |&(i, _)| i).ok()
}

/// Frequent-2 scan over the frequent items, counting each sid once per
/// cell. `x → y` holds in a sid iff `x`'s earliest event precedes `y`'s
/// latest; `{x, y}` holds iff some single event contains both.
fn count_l2(
    db: &SeqDb,
    items: &[(ItemId, u32)],
    threshold: u32,
    meter: &mut OpMeter,
) -> InitCounts {
    let k = items.len();
    let mut i_counts = vec![0u32; k * k]; // x < y at x*k + y
    let mut i_stamp = vec![0u32; k * k];
    let mut s_counts = vec![0u32; k * k]; // x → y at x*k + y
    let mut min_eid = vec![0u32; k];
    let mut max_eid = vec![0u32; k];
    let mut item_stamp = vec![0u32; k];
    let mut present: Vec<usize> = Vec::new();
    let mut event_fidx: Vec<usize> = Vec::new();
    for (sid, seq) in db.sequences().iter().enumerate() {
        let mark = sid as u32 + 1;
        present.clear();
        for &(eid, ref evt_items) in seq {
            event_fidx.clear();
            for &item in evt_items {
                let Some(fi) = frequent_index(items, item) else {
                    continue;
                };
                event_fidx.push(fi);
                if item_stamp[fi] != mark {
                    item_stamp[fi] = mark;
                    present.push(fi);
                    min_eid[fi] = eid;
                }
                max_eid[fi] = eid;
            }
            // I-candidates: frequent item pairs sharing this event
            // (event items ascend, and so do their frequent indices).
            for a in 0..event_fidx.len() {
                for b in a + 1..event_fidx.len() {
                    let cell = event_fidx[a] * k + event_fidx[b];
                    if i_stamp[cell] != mark {
                        i_stamp[cell] = mark;
                        i_counts[cell] += 1;
                        meter.pair_incr += 1;
                    }
                }
            }
        }
        // S-candidates: ordered pairs over the items present in this sid.
        for &x in &present {
            for &y in &present {
                if min_eid[x] < max_eid[y] {
                    s_counts[x * k + y] += 1;
                    meter.pair_incr += 1;
                }
            }
        }
    }
    let mut classes = Vec::with_capacity(k);
    let mut l2_frequent = 0u64;
    for x in 0..k {
        let i_partners: Vec<usize> = (x + 1..k)
            .filter(|&y| i_counts[x * k + y] >= threshold)
            .collect();
        let s_partners: Vec<usize> = (0..k)
            .filter(|&y| s_counts[x * k + y] >= threshold)
            .collect();
        l2_frequent += (i_partners.len() + s_partners.len()) as u64;
        if !i_partners.is_empty() || !s_partners.is_empty() {
            classes.push(ClassSpec {
                item: x,
                i_partners,
                s_partners,
            });
        }
    }
    InitCounts {
        items: items.to_vec(),
        classes,
        l2_candidates: mining_types::itemset::choose2(k) + (k * k) as u64,
        l2_frequent,
    }
}

/// Transformation scan: every frequent item's `(sid, eid)` occurrence
/// list, sorted by construction (sids then eids ascend).
fn build_item_lists(db: &SeqDb, items: &[(ItemId, u32)], meter: &mut OpMeter) -> Vec<PairSet> {
    let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); items.len()];
    for (sid, seq) in db.sequences().iter().enumerate() {
        for &(eid, ref evt_items) in seq {
            for &item in evt_items {
                if let Some(fi) = frequent_index(items, item) {
                    lists[fi].push((sid as u32, eid));
                    meter.record += 1;
                }
            }
        }
    }
    lists.into_iter().map(PairSet::from_sorted).collect()
}

/// One class task: join the item lists into the class's 2-sequence
/// members, record them, and run the recursive kernel. Returns the
/// class-local results so the caller can merge in class order.
fn mine_class(
    spec: &ClassSpec,
    items: &[(ItemId, u32)],
    lists: &[PairSet],
    threshold: u32,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
) -> (FrequentSequences, ClassStats) {
    let x = items[spec.item].0;
    let prefix = SeqPattern::single(x);
    let lx = &lists[spec.item];
    let mut out = FrequentSequences::new();
    let mut members: Vec<SeqMember> = Vec::with_capacity(spec.members());
    for &yi in &spec.i_partners {
        let y = items[yi].0;
        members.push(SeqMember {
            kind: AtomKind::Itemset,
            item: y,
            pattern: prefix.i_extend(y),
            pairs: lx
                .join(&lists[yi], None, meter)
                .expect("unbounded join always completes"),
        });
    }
    for &yi in &spec.s_partners {
        let y = items[yi].0;
        members.push(SeqMember {
            kind: AtomKind::Sequence,
            item: y,
            pattern: prefix.s_extend(y),
            pairs: lx
                .temporal_join(&lists[yi], None, meter)
                .expect("unbounded join always completes"),
        });
    }
    for m in &members {
        debug_assert!(m.pairs.support() >= threshold, "counted frequent");
        out.insert(m.pattern.clone(), m.pairs.support());
        meter.record += 1;
    }
    let mut stats = ClassStats {
        prefix: vec![x.0],
        members: members.len() as u64,
        kernel: KernelStats::new(),
    };
    // maxlen is enforced inside the recursion (the members here are
    // 2-sequences; `mine_stats` never builds classes when maxlen < 2).
    recurse(&members, threshold, cfg, meter, &mut out, &mut stats.kernel);
    (out, stats)
}

/// Mine `db` at `minsup` under `policy` with default settings.
pub fn mine(db: &SeqDb, minsup: MinSupport, policy: &impl ExecutionPolicy) -> FrequentSequences {
    mine_with(
        db,
        minsup,
        &SeqConfig::default(),
        &mut OpMeter::new(),
        policy,
    )
}

/// [`mine`] with explicit config and operation metering.
pub fn mine_with(
    db: &SeqDb,
    minsup: MinSupport,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
    policy: &impl ExecutionPolicy,
) -> FrequentSequences {
    mine_stats(db, minsup, cfg, meter, policy, "sequential").0
}

/// [`mine_with`] that also produces the structured [`MiningStats`]
/// report (`algorithm = "spade"`): per-phase wall-clock/op deltas,
/// per-level candidate/frequent counts, per-class kernel work.
pub fn mine_stats(
    db: &SeqDb,
    minsup: MinSupport,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
    policy: &impl ExecutionPolicy,
    variant: &str,
) -> (FrequentSequences, MiningStats) {
    let threshold = minsup.count_threshold(db.num_sequences()).max(1);
    let mut stats = MiningStats::new("spade", variant, "pairlist");
    stats.transactions = db.num_sequences() as u64;
    stats.threshold = u64::from(threshold);
    let mut out = FrequentSequences::new();

    // --- Phase 1 (initialization): frequent-1/2 counting.
    let span = eclat_obs::trace::span(PHASE_INIT);
    let before = *meter;
    let items = count_items(db, threshold, meter);
    stats.record_level(1, db.items().len() as u64, items.len() as u64);
    let init = count_l2(db, &items, threshold, meter);
    stats.record_level(2, init.l2_candidates, init.l2_frequent);
    for &(item, support) in &init.items {
        out.insert(SeqPattern::single(item), support);
        meter.record += 1;
    }
    stats.push_phase(PHASE_INIT, span.finish(), meter.since(&before));
    let under_maxlen = cfg.maxlen.is_none_or(|k| k >= 2);
    if init.classes.is_empty() || !under_maxlen {
        stats.num_frequent = out.len() as u64;
        return (out, stats);
    }

    // --- Phase 2 (transformation): vertical occurrence lists.
    let span = eclat_obs::trace::span(PHASE_TRANSFORM);
    let before = *meter;
    let lists = build_item_lists(db, &init.items, meter);
    stats.push_phase(PHASE_TRANSFORM, span.finish(), meter.since(&before));

    // --- Phase 3 (asynchronous): one independent task per class.
    let span = eclat_obs::trace::span(PHASE_ASYNC);
    let before = *meter;
    let weights: Vec<u64> = init
        .classes
        .iter()
        .map(|c| class_weight(c.members()))
        .collect();
    let items_ref = &init.items;
    let lists_ref = &lists;
    let results: Vec<(FrequentSequences, OpMeter, ClassStats)> =
        policy.run_tasks(init.classes, &weights, cfg.heuristic, |i, spec| {
            let _span = eclat_obs::trace::span_arg("class", i as u64);
            let mut m = OpMeter::new();
            let (local, cs) = mine_class(&spec, items_ref, lists_ref, threshold, cfg, &mut m);
            (local, m, cs)
        });
    let mut class_stats = Vec::with_capacity(results.len());
    for (local, m, cs) in results {
        out.extend(local);
        meter.merge(&m);
        class_stats.push(cs);
    }
    stats.push_phase(PHASE_ASYNC, span.finish(), meter.since(&before));
    for cs in class_stats {
        stats.add_class(cs);
    }
    stats.sort_classes();
    stats.num_frequent = out.len() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclat::pipeline::{FixedThreads, Rayon, Serial};

    /// The module-doc example database: three customers.
    fn sample() -> SeqDb {
        SeqDb::of(&[
            &[&[1, 2], &[3], &[1]],
            &[&[1], &[2], &[3]],
            &[&[2], &[1, 3]],
        ])
    }

    #[test]
    fn mines_expected_patterns_on_sample() {
        let db = sample();
        let fs = mine(&db, MinSupport::from_fraction(0.99), &Serial);
        // All three customers: items 1, 2, 3 and the sequences they
        // share. 2 → 3 holds in all sids; {1,2} only in sid 0.
        assert_eq!(fs[&SeqPattern::single(ItemId(1))], 3);
        assert_eq!(fs[&SeqPattern::of(&[&[2], &[3]])], 3);
        assert!(!fs.contains_key(&SeqPattern::of(&[&[1, 2]])));
        for (p, &s) in &fs {
            assert!(s >= 3, "{p} has support {s}");
        }
    }

    #[test]
    fn repeats_are_found() {
        let db = SeqDb::of(&[&[&[5], &[5]], &[&[5], &[0], &[5]]]);
        let fs = mine(&db, MinSupport::from_fraction(0.99), &Serial);
        assert_eq!(fs[&SeqPattern::of(&[&[5], &[5]])], 2);
    }

    #[test]
    fn policies_agree_with_serial() {
        let db = sample();
        let minsup = MinSupport::from_percent(50.0);
        let cfg = SeqConfig::default();
        let mut m_serial = OpMeter::new();
        let expect = mine_with(&db, minsup, &cfg, &mut m_serial, &Serial);
        let mut m_rayon = OpMeter::new();
        assert_eq!(mine_with(&db, minsup, &cfg, &mut m_rayon, &Rayon), expect);
        assert_eq!(m_serial, m_rayon, "merged meters match serial");
        for p in [1, 2, 3] {
            let mut m = OpMeter::new();
            assert_eq!(
                mine_with(&db, minsup, &cfg, &mut m, &FixedThreads::new(p)),
                expect,
                "P={p}"
            );
            assert_eq!(m, m_serial, "P={p}");
        }
    }

    #[test]
    fn maxlen_caps_pattern_length() {
        let db = sample();
        let minsup = MinSupport::from_percent(50.0);
        let full = mine(&db, minsup, &Serial);
        for maxlen in 1..=4u32 {
            let cfg = SeqConfig {
                maxlen: Some(maxlen),
                ..SeqConfig::default()
            };
            let capped = mine_with(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
            let expect: FrequentSequences = full
                .iter()
                .filter(|(p, _)| p.len_items() <= maxlen as usize)
                .map(|(p, &s)| (p.clone(), s))
                .collect();
            assert_eq!(capped, expect, "maxlen={maxlen}");
        }
    }

    #[test]
    fn stats_report_phases_levels_classes() {
        let db = sample();
        let mut meter = OpMeter::new();
        let (fs, stats) = mine_stats(
            &db,
            MinSupport::from_percent(50.0),
            &SeqConfig::default(),
            &mut meter,
            &Serial,
            "sequential",
        );
        assert_eq!(stats.algorithm, "spade");
        assert_eq!(stats.representation, "pairlist");
        assert_eq!(stats.transactions, 3);
        assert_eq!(stats.num_frequent, fs.len() as u64);
        assert_eq!(stats.total_ops, meter);
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec![PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC]);
        assert!(stats.phases[2].ops.tid_cmp > 0, "joins in async");
        // Levels 1 and 2 from the scans; classes sorted by prefix item.
        assert!(stats.levels.iter().any(|l| l.size == 1));
        assert!(stats.levels.iter().any(|l| l.size == 2));
        assert!(!stats.classes.is_empty());
        for w in stats.classes.windows(2) {
            assert!(w[0].prefix < w[1].prefix);
        }
        // num_frequent decomposes into L1 + L2 + kernel output.
        let l1 = stats.levels.iter().find(|l| l.size == 1).unwrap().frequent;
        let l2 = stats.levels.iter().find(|l| l.size == 2).unwrap().frequent;
        let kernel: u64 = stats.classes.iter().map(|c| c.kernel.frequent).sum();
        assert_eq!(l1 + l2 + kernel, stats.num_frequent);
    }

    #[test]
    fn stats_identical_across_policies() {
        let db = sample();
        let minsup = MinSupport::from_percent(50.0);
        let cfg = SeqConfig::default();
        let (fs_s, seq) = mine_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "x");
        for (fs_p, par) in [
            mine_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Rayon, "x"),
            mine_stats(
                &db,
                minsup,
                &cfg,
                &mut OpMeter::new(),
                &FixedThreads::new(3),
                "x",
            ),
        ] {
            assert_eq!(fs_s, fs_p);
            assert_eq!(seq.total_ops, par.total_ops);
            assert_eq!(seq.levels, par.levels);
            assert_eq!(seq.classes, par.classes);
            for (a, b) in seq.phases.iter().zip(&par.phases) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.ops, b.ops);
            }
        }
    }

    #[test]
    fn empty_database_yields_nothing() {
        let db = SeqDb::of(&[]);
        assert!(mine(&db, MinSupport::from_percent(10.0), &Serial).is_empty());
        let (fs, stats) = mine_stats(
            &db,
            MinSupport::from_percent(10.0),
            &SeqConfig::default(),
            &mut OpMeter::new(),
            &Rayon,
            "parallel",
        );
        assert!(fs.is_empty());
        assert_eq!(stats.num_frequent, 0);
        assert_eq!(stats.phases.len(), 1, "only init runs");
    }

    #[test]
    fn maxlen_one_skips_transform_entirely() {
        let db = sample();
        let cfg = SeqConfig {
            maxlen: Some(1),
            ..SeqConfig::default()
        };
        let (fs, stats) = mine_stats(
            &db,
            MinSupport::from_percent(50.0),
            &cfg,
            &mut OpMeter::new(),
            &Serial,
            "sequential",
        );
        assert!(fs.keys().all(|p| p.len_items() == 1));
        assert_eq!(stats.phases.len(), 1);
    }
}
