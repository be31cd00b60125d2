//! Naive GSP-style reference miner — the oracle the SPADE kernel is
//! pinned against.
//!
//! Level-wise: every frequent `k`-sequence is extended by every frequent
//! item (one new element, or joining the last element when the item is
//! larger than the current last), and each candidate's support is
//! counted by a full horizontal containment scan. Hopelessly slow, and
//! deliberately so — it shares no code with the vertical kernel, so
//! agreement is evidence, not tautology.

use crate::db::SeqDb;
use crate::kernel::FrequentSequences;
use crate::pattern::SeqPattern;
use mining_types::{ItemId, MinSupport};
use std::collections::BTreeSet;

/// True when `pattern` is contained in the (normalized) event list of
/// one sequence: elements match whole events, in order, at strictly
/// increasing times. Greedy earliest-match is complete here — if any
/// embedding exists, the one taking each element's earliest feasible
/// event also exists.
pub fn contains(seq: &[(u32, Vec<ItemId>)], pattern: &SeqPattern) -> bool {
    let mut next = 0usize;
    for elem in pattern.elems() {
        let found = seq[next..]
            .iter()
            .position(|(_, items)| elem.iter().all(|i| items.binary_search(i).is_ok()));
        match found {
            Some(offset) => next += offset + 1,
            None => return false,
        }
    }
    true
}

/// Support of `pattern`: the number of sequences containing it.
pub fn support_of(db: &SeqDb, pattern: &SeqPattern) -> u32 {
    db.sequences()
        .iter()
        .filter(|seq| contains(seq, pattern))
        .count() as u32
}

/// Mine all frequent sequences by level-wise scan. `maxlen` caps the
/// pattern length in items, like the kernel's `SeqConfig::maxlen`.
pub fn mine_reference(db: &SeqDb, minsup: MinSupport, maxlen: Option<u32>) -> FrequentSequences {
    let threshold = minsup.count_threshold(db.num_sequences()).max(1);
    let mut out = FrequentSequences::new();
    if maxlen == Some(0) {
        return out;
    }
    // The items that occur, by a scan of this miner's own.
    let alphabet: BTreeSet<ItemId> = db
        .sequences()
        .iter()
        .flatten()
        .flat_map(|(_, items)| items.iter().copied())
        .collect();
    let mut items: Vec<ItemId> = Vec::new();
    let mut level: Vec<SeqPattern> = Vec::new();
    for i in alphabet {
        let p = SeqPattern::single(i);
        let s = support_of(db, &p);
        if s >= threshold {
            items.push(i);
            level.push(p.clone());
            out.insert(p, s);
        }
    }
    while !level.is_empty() {
        let mut next: Vec<SeqPattern> = Vec::new();
        for p in &level {
            if maxlen.is_some_and(|k| p.len_items() as u32 >= k) {
                continue;
            }
            for &a in &items {
                for cand in [
                    (a > p.last_item()).then(|| p.i_extend(a)),
                    Some(p.s_extend(a)),
                ]
                .into_iter()
                .flatten()
                {
                    let s = support_of(db, &cand);
                    if s >= threshold {
                        out.insert(cand.clone(), s);
                        next.push(cand);
                    }
                }
            }
        }
        level = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_respects_order_and_elements() {
        let db = SeqDb::of(&[&[&[1, 2], &[3], &[1]]]);
        let seq = &db.sequences()[0];
        assert!(contains(seq, &SeqPattern::of(&[&[1, 2]])));
        assert!(contains(seq, &SeqPattern::of(&[&[2], &[3]])));
        assert!(contains(seq, &SeqPattern::of(&[&[1], &[1]])));
        assert!(contains(seq, &SeqPattern::of(&[&[1, 2], &[3], &[1]])));
        assert!(!contains(seq, &SeqPattern::of(&[&[3], &[2]])), "order");
        assert!(!contains(seq, &SeqPattern::of(&[&[2, 3]])), "same event");
        assert!(!contains(seq, &SeqPattern::of(&[&[1], &[1], &[1]])));
    }

    #[test]
    fn reference_finds_the_obvious() {
        let db = SeqDb::of(&[
            &[&[1, 2], &[3], &[1]],
            &[&[1], &[2], &[3]],
            &[&[2], &[1, 3]],
        ]);
        let fs = mine_reference(&db, MinSupport::from_fraction(0.99), None);
        assert_eq!(fs[&SeqPattern::of(&[&[2], &[3]])], 3);
        assert_eq!(fs[&SeqPattern::single(ItemId(1))], 3);
        assert!(!fs.contains_key(&SeqPattern::of(&[&[1, 2]])));
    }

    #[test]
    fn maxlen_zero_is_empty() {
        let db = SeqDb::of(&[&[&[1]]]);
        assert!(mine_reference(&db, MinSupport::from_percent(1.0), Some(0)).is_empty());
    }
}
