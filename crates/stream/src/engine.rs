//! The incremental mining engine: batch ingest, delta counting, and
//! class-localized re-mining.

use crate::stats::BatchStats;
use assoc_rules::Rule;
use dbstore::binfmt::ResultsSnapshot;
use dbstore::{HorizontalDb, VerticalDb};
use eclat::equivalence::classes_of_l2;
use eclat::pipeline::ExecutionPolicy;
use eclat::EclatConfig;
use mining_types::{
    Counted, FrequentSet, ItemId, Itemset, MinSupport, OpMeter, Tid, TriangleMatrix,
};
use std::collections::BTreeMap;
use tidlist::TidList;

/// Everything mined so far — the state a query server boots from.
///
/// After every [`StreamEngine::ingest_batch`] this equals the output of
/// a full re-mine of all transactions seen so far (same itemsets, same
/// supports, same rules); the golden replay tests pin that equality
/// byte-for-byte through the snapshot serializer.
#[derive(Clone, Debug)]
pub struct MinedState {
    /// Transactions ingested so far (support denominator).
    pub num_transactions: u32,
    /// Absolute support threshold at this size (minsup is a fraction,
    /// so the threshold rises as transactions accumulate).
    pub threshold: u32,
    /// The complete downward-closed frequent set (singletons included).
    pub frequent: FrequentSet,
    /// Rules regenerated over `frequent` after the last batch.
    pub rules: Vec<Rule>,
    /// Batches ingested (bumped once per batch; 0 = nothing ingested).
    pub generation: u64,
}

impl MinedState {
    fn empty(minsup: MinSupport) -> MinedState {
        MinedState {
            num_transactions: 0,
            threshold: minsup.count_threshold(0),
            frequent: FrequentSet::new(),
            rules: Vec::new(),
            generation: 0,
        }
    }

    /// Reference answer: mine `db` from scratch with the same config the
    /// engine uses (singletons forced on — rule generation needs the
    /// downward-closed set). The golden tests and `streambench` compare
    /// every incremental batch against this.
    pub fn full_mine(
        db: &HorizontalDb,
        minsup: MinSupport,
        confidence: f64,
        cfg: &EclatConfig,
    ) -> MinedState {
        let mut cfg = cfg.clone();
        cfg.include_singletons = true;
        let frequent = eclat::sequential::mine_with(db, minsup, &cfg, &mut OpMeter::new());
        let rules = assoc_rules::generate(&frequent, confidence);
        MinedState {
            num_transactions: db.num_transactions() as u32,
            threshold: minsup.count_threshold(db.num_transactions()),
            frequent,
            rules,
            generation: 0,
        }
    }

    /// Storage form of this state (for [`dbstore::binfmt::write_results`]).
    pub fn to_snapshot(&self) -> ResultsSnapshot {
        ResultsSnapshot {
            num_transactions: self.num_transactions,
            frequent: self.frequent.clone(),
            rules: self.rules.clone(),
            generation: self.generation,
        }
    }
}

/// Per-class persisted state: the member fingerprint (extension item +
/// pair support at the last merge) and every frequent itemset rooted at
/// this class's prefix item, at the threshold it was last validated
/// against.
#[derive(Clone, Debug)]
struct ClassState {
    /// `(extension item, pair support)` for each current member — the
    /// fingerprint that would detect carry-over drift (checked in debug
    /// builds when a clean class is revalidated).
    members: Vec<(ItemId, u32)>,
    /// All frequent itemsets with this prefix item, members included,
    /// sorted by itemset.
    results: Vec<Counted>,
}

/// The incremental miner.
///
/// Holds the accumulated vertical database (per-item tid-lists), the
/// delta-maintained item counts and `L2` triangle, and one
/// `ClassState` per live equivalence class. Each
/// [`StreamEngine::ingest_batch`] runs the four spans
/// `stream:ingest` → `stream:delta` → `stream:remine` → `stream:merge`
/// and leaves [`StreamEngine::state`] equal to a full re-mine of the
/// prefix.
///
/// ## The dirty-set rule
///
/// After delta-counting a batch, a class (keyed by its prefix item `a`)
/// must be re-mined iff **any pair `{a, x}` frequent at the new
/// threshold gained tids in the batch**. Everything else carries over:
///
/// * an untouched class's member tid-lists are bit-identical to the
///   previous mine, so its previous results filtered to the new
///   threshold *are* the full re-mine (the threshold only rises —
///   `ceil(fraction · |D|)` is monotone in `|D|` — and the per-class
///   Eclat recursion is complete for its prefix, so filtering the old
///   superset is exact);
/// * a pair newly frequent without gaining tids is impossible (its
///   count is unchanged and the threshold did not fall), so every
///   *newly created* class is dirty by construction;
/// * a class whose pairs all dropped below the new threshold dies: no
///   superset itemset can reach the threshold its own 2-subsets miss.
///
/// This is at pair granularity, strictly tighter than (and bounded by)
/// the item-granular rule "classes containing any changed frequent
/// item" — [`BatchStats::dirty_bound`] reports the item-granular count
/// so the bench can assert `classes_dirty <= dirty_bound`.
pub struct StreamEngine {
    minsup: MinSupport,
    confidence: f64,
    cfg: EclatConfig,
    vertical: VerticalDb,
    item_counts: Vec<u32>,
    tri: TriangleMatrix,
    next_tid: u32,
    classes: BTreeMap<u32, ClassState>,
    state: MinedState,
    meter: OpMeter,
}

impl StreamEngine {
    /// A fresh engine over an (initially) `num_items`-wide universe.
    /// The universe widens automatically when a batch mentions a larger
    /// item id. Singletons are always mined (rule generation needs the
    /// complete downward-closed set, matching the `mine --out` snapshot
    /// semantics).
    pub fn new(num_items: u32, minsup: MinSupport, confidence: f64, cfg: EclatConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&confidence),
            "confidence must be in [0,1]"
        );
        let mut cfg = cfg;
        cfg.include_singletons = true;
        StreamEngine {
            minsup,
            confidence,
            cfg,
            vertical: VerticalDb::from_lists(vec![TidList::new(); num_items as usize]),
            item_counts: vec![0; num_items as usize],
            tri: TriangleMatrix::new(num_items as usize),
            next_tid: 0,
            classes: BTreeMap::new(),
            state: MinedState::empty(minsup),
            meter: OpMeter::new(),
        }
    }

    /// The mined state after the last batch.
    pub fn state(&self) -> &MinedState {
        &self.state
    }

    /// Batches ingested so far.
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// Transactions ingested so far.
    pub fn num_transactions(&self) -> usize {
        self.next_tid as usize
    }

    /// Cumulative intersection/scan work meter.
    pub fn meter(&self) -> &OpMeter {
        &self.meter
    }

    /// Current item universe width.
    pub fn num_items(&self) -> u32 {
        self.vertical.num_items()
    }

    /// Widen every delta structure to `n` items, preserving all counts.
    fn grow_items(&mut self, n: usize) {
        let old = self.tri.num_items();
        if n <= old {
            return;
        }
        self.vertical.grow_items(n as u32);
        self.item_counts.resize(n, 0);
        let mut wider = TriangleMatrix::new(n);
        for (a, b, c) in self.tri.frequent_pairs(1) {
            wider.add(a, b, c);
        }
        self.tri = wider;
    }

    /// Ingest one batch of transactions and re-mine exactly the dirty
    /// classes. Transactions are normalized (sorted, deduplicated) the
    /// same way [`HorizontalDb::from_transactions`] normalizes, so the
    /// incremental state tracks a full re-mine of the concatenated
    /// prefix. Returns the per-batch statistics.
    pub fn ingest_batch(
        &mut self,
        batch: &[Vec<ItemId>],
        policy: &impl ExecutionPolicy,
    ) -> BatchStats {
        let batch_index = self.state.generation; // 0-based index of this batch
        let mut stats = BatchStats::new(batch_index, batch.len() as u64);

        // -- ingest: append to the vertical database, delta-count ------
        let span = eclat_obs::trace::span_arg("stream:ingest", batch_index);
        let (delta, changed) = {
            let widest = batch
                .iter()
                .flat_map(|t| t.iter().map(|i| i.0 as usize + 1))
                .max()
                .unwrap_or(0);
            self.grow_items(widest);
            let mut delta = TriangleMatrix::new(self.tri.num_items());
            // An item is changed iff it shares a normalized batch
            // transaction with another item: exactly the items whose
            // delta-triangle row or column is nonzero.
            let mut changed = vec![false; self.tri.num_items()];
            let mut txn: Vec<ItemId> = Vec::new();
            for raw in batch {
                txn.clear();
                txn.extend_from_slice(raw);
                txn.sort_unstable();
                txn.dedup();
                let tid = Tid(self.next_tid);
                self.next_tid += 1;
                for &it in &txn {
                    self.item_counts[it.index()] += 1;
                    changed[it.index()] |= txn.len() >= 2;
                }
                self.vertical.append_transaction(tid, &txn);
                delta.count_transaction(&txn);
            }
            (delta, changed)
        };
        stats.ingest_secs = span.finish();

        // -- delta: merge counts, find the frequent pairs + dirty set --
        let span = eclat_obs::trace::span_arg("stream:delta", batch_index);
        self.tri.merge_from(&delta);
        let threshold = self.minsup.count_threshold(self.next_tid as usize);
        debug_assert!(
            threshold >= self.state.threshold,
            "the count threshold is monotone in |D|"
        );
        // Frequent pairs at the new threshold, grouped into classes by
        // prefix item; `changed` marks pairs that gained tids this batch.
        let mut grouped: BTreeMap<u32, Vec<(ItemId, u32, bool)>> = BTreeMap::new();
        for (a, b, support) in self.tri.frequent_pairs(threshold) {
            let changed = delta.get(a, b) > 0;
            grouped.entry(a.0).or_default().push((b, support, changed));
        }
        for (&a, members) in &grouped {
            stats.classes_total += 1;
            if members.iter().any(|m| m.2) {
                stats.classes_dirty += 1;
            }
            // The coarser, item-granular bound: the class is in the dirty
            // set if any member pair touches a changed item. A pair can
            // only change when both its items share a batch transaction.
            if changed[a as usize] || members.iter().any(|&(b, _, _)| changed[b.index()]) {
                stats.dirty_bound += 1;
            }
        }
        stats.changed_pairs = count_changed_pairs(&delta);
        stats.delta_secs = span.finish();

        // -- remine: rebuild + mine only the dirty classes -------------
        let span = eclat_obs::trace::span_arg("stream:remine", batch_index);
        let mut remined_by_prefix: BTreeMap<u32, Vec<Counted>> = BTreeMap::new();
        {
            let mut dirty_pairs: Vec<(ItemId, ItemId, TidList)> = Vec::new();
            for (&a, members) in &grouped {
                if !members.iter().any(|m| m.2) {
                    continue;
                }
                let ta = self.vertical.tidlist(ItemId(a));
                for &(b, support, _) in members {
                    let tl = ta
                        .intersect(self.vertical.tidlist(b), None, &mut self.meter)
                        .expect("unbounded intersection always completes");
                    debug_assert_eq!(tl.support(), support, "triangle and tid-lists agree");
                    dirty_pairs.push((ItemId(a), b, tl));
                }
            }
            let classes = classes_of_l2(dirty_pairs);
            let mut remined = FrequentSet::new();
            let mut class_stats = Vec::new();
            policy.mine_classes(
                classes,
                threshold,
                &self.cfg,
                &mut self.meter,
                &mut remined,
                &mut class_stats,
            );
            // Every itemset mined from class `a` starts with item `a`,
            // so the merged result set splits back by first item.
            for c in remined.sorted() {
                let first = c.itemset.first().expect("class results are non-empty").0;
                remined_by_prefix.entry(first).or_default().push(c);
            }
        }
        stats.remine_secs = span.finish();

        // -- merge: carry clean classes, swap dirty ones, regen rules --
        let span = eclat_obs::trace::span_arg("stream:merge", batch_index);
        stats.classes_dropped = self
            .classes
            .keys()
            .filter(|k| !grouped.contains_key(k))
            .count() as u64;
        let mut next: BTreeMap<u32, ClassState> = BTreeMap::new();
        for (&a, members) in &grouped {
            let fingerprint: Vec<(ItemId, u32)> = members.iter().map(|&(b, s, _)| (b, s)).collect();
            let dirty = members.iter().any(|m| m.2);
            if dirty {
                if !self.classes.contains_key(&a) {
                    stats.classes_born += 1;
                }
                let results = remined_by_prefix.remove(&a).unwrap_or_default();
                let state = ClassState {
                    members: fingerprint,
                    results,
                };
                next.insert(a, state);
            } else {
                // Clean: every member is unchanged and was frequent
                // before (threshold never falls), so the class must
                // pre-exist and its previous results filtered to the
                // new threshold are exactly the re-mine.
                let old = self
                    .classes
                    .remove(&a)
                    .expect("clean class must already exist");
                debug_assert!(
                    fingerprint.iter().all(|m| old.members.contains(m)),
                    "clean members must be unchanged since the last mine"
                );
                stats.classes_carried += 1;
                let results: Vec<Counted> = old
                    .results
                    .into_iter()
                    .filter(|c| c.support >= threshold)
                    .collect();
                next.insert(
                    a,
                    ClassState {
                        members: fingerprint,
                        results,
                    },
                );
            }
        }
        self.classes = next;

        let mut frequent = FrequentSet::new();
        for (i, &c) in self.item_counts.iter().enumerate() {
            if c >= threshold {
                frequent.insert(Itemset::single(ItemId(i as u32)), c);
            }
        }
        for class in self.classes.values() {
            for c in &class.results {
                frequent.insert(c.itemset.clone(), c.support);
            }
        }
        let rules = assoc_rules::generate(&frequent, self.confidence);
        self.state = MinedState {
            num_transactions: self.next_tid,
            threshold,
            frequent,
            rules,
            generation: self.state.generation + 1,
        };
        stats.merge_secs = span.finish();

        stats.total_transactions = self.next_tid as u64;
        stats.threshold = u64::from(threshold);
        stats.itemsets = self.state.frequent.len() as u64;
        stats.rules = self.state.rules.len() as u64;
        stats.generation = self.state.generation;
        stats
    }
}

/// Number of distinct pairs that gained count this batch.
fn count_changed_pairs(delta: &TriangleMatrix) -> u64 {
    delta.frequent_pairs(1).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclat::pipeline::{FixedThreads, Rayon, Serial};

    fn txns(raw: &[&[u32]]) -> Vec<Vec<ItemId>> {
        raw.iter()
            .map(|t| t.iter().copied().map(ItemId).collect())
            .collect()
    }

    fn assert_state_matches_full(engine: &StreamEngine, prefix: &[Vec<ItemId>]) {
        let db = HorizontalDb::from_transactions(prefix.to_vec());
        let full = MinedState::full_mine(&db, engine.minsup, engine.confidence, &engine.cfg);
        assert_eq!(
            engine.state().frequent,
            full.frequent,
            "incremental != full at {} txns",
            prefix.len()
        );
        assert_eq!(engine.state().rules, full.rules);
        assert_eq!(engine.state().threshold, full.threshold);
        assert_eq!(engine.state().num_transactions, full.num_transactions);
    }

    #[test]
    fn single_batch_equals_full_mine() {
        let data = txns(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[1, 2, 3]]);
        let mut e = StreamEngine::new(
            4,
            MinSupport::from_fraction(0.4),
            0.5,
            EclatConfig::default(),
        );
        e.ingest_batch(&data, &Serial);
        assert_state_matches_full(&e, &data);
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn incremental_batches_equal_full_mine_of_prefix() {
        let data = txns(&[
            &[0, 1, 2],
            &[0, 1],
            &[1, 2],
            &[0, 2],
            &[1, 2, 3],
            &[0, 1, 3],
            &[3],
            &[0, 1, 2, 3],
            &[2, 3],
            &[0, 3],
        ]);
        let mut e = StreamEngine::new(
            4,
            MinSupport::from_fraction(0.3),
            0.5,
            EclatConfig::default(),
        );
        for (i, chunk) in data.chunks(3).enumerate() {
            let stats = e.ingest_batch(chunk, &Serial);
            let seen = data.len().min((i + 1) * 3);
            assert_state_matches_full(&e, &data[..seen]);
            assert!(stats.classes_dirty <= stats.dirty_bound);
            assert_eq!(stats.generation, (i + 1) as u64);
        }
    }

    #[test]
    fn untouched_class_is_carried_not_remined() {
        // Batch 1 establishes two classes: {0,1} and {2,3}. Batch 2
        // touches only items 0/1, so class 2 must carry over.
        let first = txns(&[&[0, 1], &[0, 1], &[2, 3], &[2, 3]]);
        let second = txns(&[&[0, 1], &[0, 1]]);
        let mut e = StreamEngine::new(
            4,
            MinSupport::from_fraction(0.3),
            0.5,
            EclatConfig::default(),
        );
        e.ingest_batch(&first, &Serial);
        let stats = e.ingest_batch(&second, &Serial);
        assert_eq!(stats.classes_total, 2);
        assert_eq!(stats.classes_dirty, 1, "only class 0 saw new tids");
        assert_eq!(stats.classes_carried, 1);
        let mut all = first.clone();
        all.extend(second);
        assert_state_matches_full(&e, &all);
    }

    #[test]
    fn border_crossings_kill_and_create_classes() {
        // 50% minsup over 4 txns needs count >= 2; over 8 txns count >= 4.
        // The {2,3} pair (count 2) is frequent after batch 1, then falls
        // below threshold after batch 2 without losing a single tid —
        // the rising-threshold border crossing. Meanwhile {4,5} becomes
        // newly frequent, creating a class (prefix 4) that never existed.
        let first = txns(&[&[0, 1], &[0, 1], &[2, 3], &[2, 3]]);
        let second = txns(&[&[0, 1, 4, 5], &[0, 1, 4, 5], &[4, 5], &[4, 5]]);
        let mut e = StreamEngine::new(
            6,
            MinSupport::from_fraction(0.5),
            0.5,
            EclatConfig::default(),
        );
        let s1 = e.ingest_batch(&first, &Serial);
        assert_eq!(s1.classes_total, 2);
        let s2 = e.ingest_batch(&second, &Serial);
        assert_eq!(s2.classes_dropped, 1, "class 2 dies at the new threshold");
        assert!(s2.classes_born >= 1, "class 4 never existed before");
        let mut all = first.clone();
        all.extend(second);
        assert_state_matches_full(&e, &all);
        assert!(e
            .state()
            .frequent
            .support_of(&Itemset::of(&[2, 3]))
            .is_none());
    }

    #[test]
    fn item_universe_grows_mid_stream() {
        let first = txns(&[&[0, 1], &[0, 1]]);
        let second = txns(&[&[0, 7], &[0, 7], &[1, 7]]);
        let mut e = StreamEngine::new(
            2,
            MinSupport::from_fraction(0.4),
            0.5,
            EclatConfig::default(),
        );
        e.ingest_batch(&first, &Serial);
        assert_eq!(e.num_items(), 2);
        e.ingest_batch(&second, &Serial);
        assert_eq!(e.num_items(), 8);
        let mut all = first.clone();
        all.extend(second);
        assert_state_matches_full(&e, &all);
    }

    #[test]
    fn empty_and_degenerate_batches_are_harmless() {
        let mut e = StreamEngine::new(
            3,
            MinSupport::from_fraction(0.5),
            0.5,
            EclatConfig::default(),
        );
        let stats = e.ingest_batch(&[], &Serial);
        assert_eq!(stats.transactions, 0);
        assert_eq!(e.num_transactions(), 0);
        // Unsorted, duplicated input is normalized like HorizontalDb does.
        let messy = vec![vec![ItemId(2), ItemId(0), ItemId(2)], vec![]];
        e.ingest_batch(&messy, &Serial);
        assert_state_matches_full(&e, &txns(&[&[0, 2], &[]]));
    }

    #[test]
    fn policies_agree() {
        let data = txns(&[
            &[0, 1, 2],
            &[0, 1],
            &[1, 2],
            &[0, 2],
            &[1, 2, 3],
            &[0, 1, 3],
        ]);
        let minsup = MinSupport::from_fraction(0.3);
        let mut serial = StreamEngine::new(4, minsup, 0.5, EclatConfig::default());
        let mut rayon = StreamEngine::new(4, minsup, 0.5, EclatConfig::default());
        let mut fixed = StreamEngine::new(4, minsup, 0.5, EclatConfig::default());
        for chunk in data.chunks(2) {
            serial.ingest_batch(chunk, &Serial);
            rayon.ingest_batch(chunk, &Rayon);
            fixed.ingest_batch(chunk, &FixedThreads::new(2));
        }
        assert_eq!(serial.state().frequent, rayon.state().frequent);
        assert_eq!(serial.state().frequent, fixed.state().frequent);
        assert_eq!(serial.state().rules, rayon.state().rules);
        assert_eq!(serial.state().rules, fixed.state().rules);
    }

    /// `dirty_bound` read off the delta triangle's rows: a class counts
    /// when its prefix or a member's extension has a nonzero row entry.
    fn dirty_bound_by_triangle_rows(engine: &StreamEngine, batch: &[Vec<ItemId>]) -> u64 {
        let n = engine.tri.num_items();
        let mut delta = TriangleMatrix::new(n);
        for raw in batch {
            let mut txn = raw.clone();
            txn.sort_unstable();
            txn.dedup();
            delta.count_transaction(&txn);
        }
        let changed = |i: ItemId| (0..n as u32).any(|o| o != i.0 && delta.get(i, ItemId(o)) > 0);
        let mut grouped: BTreeMap<u32, Vec<ItemId>> = BTreeMap::new();
        for (a, b, _) in engine.tri.frequent_pairs(engine.state.threshold) {
            grouped.entry(a.0).or_default().push(b);
        }
        grouped
            .iter()
            .filter(|(&a, members)| members.iter().any(|&b| changed(ItemId(a)) || changed(b)))
            .count() as u64
    }

    #[test]
    fn dirty_bound_matches_the_triangle_rows() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut e = StreamEngine::new(
            12,
            MinSupport::from_fraction(0.02),
            0.5,
            EclatConfig::default(),
        );
        let mut bounds = Vec::new();
        for round in 0..8 {
            // Unsorted, duplicated, empty and single-item transactions;
            // item 14 widens the universe mid-stream. Every other batch
            // meets items 6–14 only alone, which changes none of them.
            let batch: Vec<Vec<ItemId>> = (0..30)
                .map(|i| {
                    let (len, lo, span) = match (round % 2, i % 2) {
                        (1, 0) => (draw(5), 0, 6),
                        (1, _) => (1, 6, 9),
                        _ => (draw(8), 0, 15),
                    };
                    (0..len).map(|_| ItemId((lo + draw(span)) as u32)).collect()
                })
                .collect();
            let stats = e.ingest_batch(&batch, &Serial);
            assert_eq!(stats.dirty_bound, dirty_bound_by_triangle_rows(&e, &batch));
            assert!(stats.classes_dirty <= stats.dirty_bound);
            bounds.push(stats.dirty_bound);
        }
        assert!(bounds.iter().any(|&b| b > 0), "{bounds:?}");
    }

    #[test]
    fn snapshot_round_trips_generation() {
        let data = txns(&[&[0, 1], &[0, 1], &[1, 2]]);
        let mut e = StreamEngine::new(
            3,
            MinSupport::from_fraction(0.5),
            0.6,
            EclatConfig::default(),
        );
        e.ingest_batch(&data, &Serial);
        let snap = e.state().to_snapshot();
        assert_eq!(snap.generation, 1);
        let mut buf = Vec::new();
        dbstore::binfmt::write_results(&snap, &mut buf).unwrap();
        let (back, _) = dbstore::binfmt::read_results(&mut buf.as_slice()).unwrap();
        assert_eq!(back, snap);
    }
}
