//! Horizontal → vertical transformation helpers (§5.2.2 / §6.3).
//!
//! Two pieces: the triangular `L2` counting pass of the initialization
//! phase (§5.1 — *"we use an upper triangular array … Each processor
//! computes local support of each 2-itemset from its local database
//! partition"*), and the construction of per-2-itemset tid-lists from a
//! (block of a) horizontal database.
//!
//! The tid-lists come from one block kernel (`fill_pair_tidlists`):
//! for each block of 4 096 tids it sets one bit per (paired item,
//! transaction) in a 64-word row per item, ANDs the two rows of every
//! frequent pair, and appends the tids of the set bits — born sorted,
//! because blocks and bits are visited in tid order. [`index_pairs`]
//! gives it the rows: a rank per paired item and two ranks per pair. The
//! [`OpMeter`] prices the paper's scan, which probes every item pair of
//! every transaction, not the kernel (`meter_scan`), so the cost model
//! is the same whichever kernel built the lists.

use dbstore::HorizontalDb;
use mining_types::{ItemId, OpMeter, Tid, TriangleMatrix};
use std::ops::Range;
use tidlist::TidList;

/// Count all 2-itemsets of the block `range` into a triangular matrix.
pub fn count_pairs(db: &HorizontalDb, range: Range<usize>, meter: &mut OpMeter) -> TriangleMatrix {
    let _span = eclat_obs::trace::span_arg("scan:count_pairs", range.len() as u64);
    let mut tri = TriangleMatrix::new(db.num_items() as usize);
    for (_tid, items) in db.iter_range(range) {
        meter.record += 1;
        meter.pair_incr += (items.len() * items.len().saturating_sub(1) / 2) as u64;
        tri.count_transaction(items);
    }
    tri
}

/// Item counts of the block `range` (for the optional singleton output).
pub fn count_items(db: &HorizontalDb, range: Range<usize>, meter: &mut OpMeter) -> Vec<u32> {
    let mut counts = vec![0u32; db.num_items() as usize];
    for (_tid, items) in db.iter_range(range) {
        meter.record += 1;
        for &it in items {
            counts[it.index()] += 1;
        }
    }
    counts
}

/// Tids per block of the pair kernel: each paired item gets one row of
/// `BLOCK_TIDS / 64` words per block.
const BLOCK_TIDS: usize = 4096;
const BLOCK_WORDS: usize = BLOCK_TIDS / 64;

/// `PairIndex::rank` of an item that is in no indexed pair.
const UNPAIRED: u32 = u32::MAX;

/// What the pair kernel needs to know about the frequent 2-itemsets: a
/// rank (the row of its block bitmap) per item that occurs in a pair, and
/// the two ranks of every pair slot. Built by [`index_pairs`].
#[derive(Clone, Debug)]
pub struct PairIndex {
    /// `rank[item]`: the item's row, or [`UNPAIRED`]; items above the
    /// largest paired item have no entry.
    rank: Vec<u32>,
    /// The ranks of each slot's two items, in slot order.
    slots: Vec<(u32, u32)>,
    /// Number of ranked items: the rows of a block bitmap.
    rows: usize,
}

impl PairIndex {
    /// Number of pair slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Index frequent pairs `(a, b)` (with `a < b`) in slot order: the result
/// vectors of [`build_pair_tidlists`] are aligned with `frequent_pairs`.
/// Paired items are ranked in item order.
pub fn index_pairs(frequent_pairs: &[(ItemId, ItemId)]) -> PairIndex {
    let mut rank = Vec::new();
    for &(a, b) in frequent_pairs {
        assert!(a < b, "pairs must be ordered ({a:?},{b:?})");
        if rank.len() <= b.index() {
            rank.resize(b.index() + 1, UNPAIRED);
        }
        rank[a.index()] = 0;
        rank[b.index()] = 0;
    }
    let mut rows = 0;
    for r in rank.iter_mut().filter(|r| **r != UNPAIRED) {
        *r = rows;
        rows += 1;
    }
    let slots = frequent_pairs
        .iter()
        .map(|&(a, b)| (rank[a.index()], rank[b.index()]))
        .collect();
    PairIndex {
        rank,
        slots,
        rows: rows as usize,
    }
}

/// Build the partial tid-lists of the indexed frequent 2-itemsets over
/// the block `range`, aligned with the pair slots of `pairs`.
///
/// This is the second database scan of Eclat (§5.2.2 step one: *"each
/// processor scans its local database and constructs partial tid-lists
/// for all the frequent 2-itemsets"*), run by the module's block kernel.
/// The meter prices the paper's scan, not the kernel.
pub fn build_pair_tidlists(
    db: &HorizontalDb,
    range: Range<usize>,
    pairs: &PairIndex,
    meter: &mut OpMeter,
) -> Vec<TidList> {
    let mut lists = vec![TidList::new(); pairs.len()];
    fill_pair_tidlists(db, range.clone(), pairs, 0, &mut lists);
    meter_scan(db, range, &lists, meter);
    lists
}

/// The one pair kernel: append to `lists[i]` the tids in `range` whose
/// transaction holds both items of slot `first + i`. Per block of
/// [`BLOCK_TIDS`] tids it sets one bit per (paired item, transaction) in
/// the item's row, ANDs the two rows of every slot, and appends the tids
/// of the set bits — in ascending order, so the lists come out sorted.
pub(crate) fn fill_pair_tidlists(
    db: &HorizontalDb,
    range: Range<usize>,
    idx: &PairIndex,
    first: usize,
    lists: &mut [TidList],
) {
    let _span = eclat_obs::trace::span_arg("scan:tidlists", range.len() as u64);
    if lists.is_empty() {
        return;
    }
    let slots = &idx.slots[first..first + lists.len()];
    let mut rows = vec![0u64; idx.rows * BLOCK_WORDS];
    for start in range.clone().step_by(BLOCK_TIDS) {
        let block = start..(start + BLOCK_TIDS).min(range.end);
        for (offset, (_, items)) in db.iter_range(block.clone()).enumerate() {
            let (word, bit) = (offset / 64, 1u64 << (offset % 64));
            for item in items {
                match idx.rank.get(item.index()) {
                    Some(&r) if r != UNPAIRED => rows[r as usize * BLOCK_WORDS + word] |= bit,
                    _ => {}
                }
            }
        }
        let words = block.len().div_ceil(64);
        for (list, &(a, b)) in lists.iter_mut().zip(slots) {
            let row_a = &rows[a as usize * BLOCK_WORDS..][..words];
            let row_b = &rows[b as usize * BLOCK_WORDS..][..words];
            for (w, (&x, &y)) in row_a.iter().zip(row_b).enumerate() {
                let mut both = x & y;
                while both != 0 {
                    let tid = start + w * 64 + both.trailing_zeros() as usize;
                    list.push(Tid(tid as u32));
                    both &= both - 1;
                }
            }
        }
        rows.fill(0);
    }
}

/// Charge the paper's scan of `range` (§5.2.2) that built `lists` from
/// empty, in closed form: one `record` per transaction and per tid
/// appended, one `pair_incr` per item pair of a transaction — what a scan
/// probing every pair of every transaction counts, whatever kernel built
/// the lists, so the cost model and its pinned counts do not depend on it.
pub(crate) fn meter_scan(
    db: &HorizontalDb,
    range: Range<usize>,
    lists: &[TidList],
    meter: &mut OpMeter,
) {
    for (_tid, items) in db.iter_range(range) {
        meter.record += 1;
        meter.pair_incr += (items.len() * items.len().saturating_sub(1) / 2) as u64;
    }
    meter.record += lists.iter().map(|l| l.len() as u64).sum::<u64>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HorizontalDb {
        HorizontalDb::of(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]])
    }

    #[test]
    fn count_pairs_matches_hand_counts() {
        let db = sample();
        let mut m = OpMeter::new();
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut m);
        assert_eq!(tri.get(ItemId(0), ItemId(1)), 3);
        assert_eq!(tri.get(ItemId(0), ItemId(2)), 3);
        assert_eq!(tri.get(ItemId(1), ItemId(2)), 3);
        // ops: 2 triples (3 pairs each) + 3 pairs (1 each) = 9
        assert_eq!(m.pair_incr, 9);
        assert_eq!(m.record, 5);
    }

    #[test]
    fn partial_counts_sum_to_global() {
        let db = sample();
        let mut m = OpMeter::new();
        let mut left = count_pairs(&db, 0..2, &mut m);
        let right = count_pairs(&db, 2..5, &mut m);
        left.merge_from(&right);
        assert_eq!(left, count_pairs(&db, 0..5, &mut m));
    }

    #[test]
    fn tidlists_match_definition() {
        let db = sample();
        let pairs = vec![
            (ItemId(0), ItemId(1)),
            (ItemId(0), ItemId(2)),
            (ItemId(1), ItemId(2)),
        ];
        let idx = index_pairs(&pairs);
        let mut m = OpMeter::new();
        let lists = build_pair_tidlists(&db, 0..5, &idx, &mut m);
        assert_eq!(lists[0], TidList::of(&[0, 1, 4])); // {0,1}
        assert_eq!(lists[1], TidList::of(&[0, 3, 4])); // {0,2}
        assert_eq!(lists[2], TidList::of(&[0, 2, 4])); // {1,2}
                                                       // support == triangular count
        let tri = count_pairs(&db, 0..5, &mut m);
        for (slot, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(lists[slot].support(), tri.get(a, b));
        }
    }

    #[test]
    fn block_tidlists_concatenate_to_global() {
        let db = sample();
        let pairs = vec![(ItemId(0), ItemId(1))];
        let idx = index_pairs(&pairs);
        let mut m = OpMeter::new();
        let mut left = build_pair_tidlists(&db, 0..2, &idx, &mut m);
        let right = build_pair_tidlists(&db, 2..5, &idx, &mut m);
        left[0].append_partial(&right[0]);
        let global = build_pair_tidlists(&db, 0..5, &idx, &mut m);
        assert_eq!(left[0], global[0]);
    }

    #[test]
    fn count_items_basic() {
        let db = sample();
        let mut m = OpMeter::new();
        let counts = count_items(&db, 0..5, &mut m);
        assert_eq!(counts, vec![4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn index_pairs_rejects_unordered() {
        index_pairs(&[(ItemId(2), ItemId(1))]);
    }
}
