//! [`PairSet`] — the sequence-vertical occurrence list.
//!
//! Where Eclat keeps one tid per transaction, SPADE keeps one
//! `(sid, eid)` pair per *occurrence*: sequence id plus the event id
//! (timestamp) at which the pattern's **last element** occurs. Support
//! is the number of distinct sids, so a pattern occurring five times in
//! one customer's history still counts once.
//!
//! The two SPADE join forms both map onto this layout:
//!
//! * **I-extension** (itemset join, same element) is an exact
//!   `(sid, eid)` intersection — structurally the same sorted merge as
//!   a tid-list intersection, so it is [`PairSet`]'s [`TidSet::join`],
//!   §5.3 minsup bail included.
//! * **S-extension** (temporal join) is the inherent
//!   [`temporal_join`](PairSet::temporal_join): keep the pairs of the
//!   extending atom that occur *strictly after* the earliest occurrence
//!   of the prefix atom in the same sequence.
//!
//! Both take an optional `minsup` and bail as soon as
//! `matched_sids + min(remaining_a, remaining_b) < minsup` — remaining
//! pairs bound remaining distinct sids from above, so the bail is
//! conservative and the `None` ⇔ infrequent contract holds exactly.

use mining_types::OpMeter;
use tidlist::TidSet;

/// A sorted, deduplicated list of `(sid, eid)` occurrences with its
/// distinct-sid support cached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairSet {
    pairs: Vec<(u32, u32)>,
    support: u32,
}

/// Distinct sids in a sorted pair list.
fn count_sids(pairs: &[(u32, u32)]) -> u32 {
    let mut n = 0u32;
    let mut last = None;
    for &(sid, _) in pairs {
        if last != Some(sid) {
            n += 1;
            last = Some(sid);
        }
    }
    n
}

impl PairSet {
    /// Build from occurrences in any order (sorted + deduplicated here).
    pub fn new(mut pairs: Vec<(u32, u32)>) -> PairSet {
        pairs.sort_unstable();
        pairs.dedup();
        PairSet::from_sorted(pairs)
    }

    /// Build from pairs already sorted by `(sid, eid)` with no
    /// duplicates — the shape every scan and join in this crate emits.
    pub fn from_sorted(pairs: Vec<(u32, u32)>) -> PairSet {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let support = count_sids(&pairs);
        PairSet { pairs, support }
    }

    /// The occurrences, ascending by `(sid, eid)`.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of occurrences (≥ support).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no occurrences.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Temporal (S-extension) join: for every sid shared with `other`,
    /// keep `other`'s occurrences strictly after this set's earliest
    /// occurrence in that sid. With `minsup = Some(s)` it bails per the
    /// module rule and returns `None` exactly when the result's support is
    /// below `s`; with `None` it always completes. Comparisons land in
    /// `meter.tid_cmp`.
    pub fn temporal_join(
        &self,
        other: &PairSet,
        minsup: Option<u32>,
        meter: &mut OpMeter,
    ) -> Option<PairSet> {
        let minsup = minsup.unwrap_or(0);
        let (a, b) = (&self.pairs, &other.pairs);
        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut support = 0u32;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let headroom = support as usize + (a.len() - i).min(b.len() - j);
            if headroom < minsup as usize {
                return None;
            }
            meter.tid_cmp += 1;
            let (sa, sb) = (a[i].0, b[j].0);
            match sa.cmp(&sb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // a is sorted, so a[i] is the earliest occurrence of
                    // the prefix atom in this sid.
                    let min_eid = a[i].1;
                    let mut matched = false;
                    while j < b.len() && b[j].0 == sb {
                        meter.tid_cmp += 1;
                        if b[j].1 > min_eid {
                            out.push(b[j]);
                            matched = true;
                        }
                        j += 1;
                    }
                    if matched {
                        support += 1;
                    }
                    while i < a.len() && a[i].0 == sa {
                        i += 1;
                    }
                }
            }
        }
        (support >= minsup).then_some(PairSet {
            pairs: out,
            support,
        })
    }
}

impl TidSet for PairSet {
    fn support(&self) -> u32 {
        self.support
    }

    fn byte_size(&self) -> u64 {
        (self.pairs.len() * std::mem::size_of::<(u32, u32)>()) as u64
    }

    /// I-extension join: exact `(sid, eid)` intersection, bailing per the
    /// module rule when `minsup` is set.
    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        let minsup = minsup.unwrap_or(0);
        let (a, b) = (&self.pairs, &other.pairs);
        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut support = 0u32;
        let mut last_sid = None;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let headroom = support as usize + (a.len() - i).min(b.len() - j);
            if headroom < minsup as usize {
                return None;
            }
            meter.tid_cmp += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (sid, eid) = a[i];
                    if last_sid != Some(sid) {
                        support += 1;
                        last_sid = Some(sid);
                    }
                    out.push((sid, eid));
                    i += 1;
                    j += 1;
                }
            }
        }
        (support >= minsup).then_some(PairSet {
            pairs: out,
            support,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(pairs: &[(u32, u32)]) -> PairSet {
        PairSet::new(pairs.to_vec())
    }

    fn eq(a: &PairSet, b: &PairSet) -> PairSet {
        a.join(b, None, &mut OpMeter::new()).unwrap()
    }

    fn temporal(a: &PairSet, b: &PairSet) -> PairSet {
        a.temporal_join(b, None, &mut OpMeter::new()).unwrap()
    }

    #[test]
    fn support_counts_distinct_sids() {
        let s = ps(&[(0, 1), (0, 4), (2, 2), (5, 1)]);
        assert_eq!(s.support(), 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.byte_size(), 32);
        assert_eq!(ps(&[]).support(), 0);
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = ps(&[(2, 2), (0, 4), (0, 1), (0, 4)]);
        assert_eq!(s.pairs(), &[(0, 1), (0, 4), (2, 2)]);
    }

    #[test]
    fn equality_join_intersects_exact_pairs() {
        let a = ps(&[(0, 1), (0, 3), (1, 2), (3, 5)]);
        let b = ps(&[(0, 3), (1, 2), (1, 4), (3, 6)]);
        let j = eq(&a, &b);
        assert_eq!(j.pairs(), &[(0, 3), (1, 2)]);
        assert_eq!(j.support(), 2);
    }

    #[test]
    fn temporal_join_keeps_strictly_later_events() {
        let a = ps(&[(0, 2), (1, 5), (2, 1)]);
        let b = ps(&[(0, 1), (0, 2), (0, 4), (1, 5), (2, 3), (3, 1)]);
        let j = temporal(&a, &b);
        // sid 0: earliest a-event is 2, so only eid 4 qualifies;
        // sid 1: b's only event (5) is not strictly after 5;
        // sid 2: 3 > 1 qualifies; sid 3 is absent from a.
        assert_eq!(j.pairs(), &[(0, 4), (2, 3)]);
        assert_eq!(j.support(), 2);
    }

    #[test]
    fn temporal_join_is_directional() {
        let a = ps(&[(0, 1)]);
        let b = ps(&[(0, 2)]);
        assert_eq!(temporal(&a, &b).pairs(), &[(0, 2)]);
        assert!(temporal(&b, &a).is_empty());
    }

    #[test]
    fn bounded_joins_are_none_iff_infrequent() {
        let a = ps(&[(0, 1), (1, 1), (2, 9), (3, 1)]);
        let b = ps(&[(0, 1), (1, 3), (2, 2), (4, 1)]);
        let m = &mut OpMeter::new();
        for minsup in 0..=5u32 {
            let full = eq(&a, &b);
            let bounded = a.join(&b, Some(minsup), m);
            assert_eq!(
                bounded.is_some(),
                full.support() >= minsup,
                "eq minsup={minsup}"
            );
            if let Some(j) = bounded {
                assert_eq!(j, full);
            }
            let full = temporal(&a, &b);
            let bounded = a.temporal_join(&b, Some(minsup), m);
            assert_eq!(
                bounded.is_some(),
                full.support() >= minsup,
                "temporal minsup={minsup}"
            );
            if let Some(j) = bounded {
                assert_eq!(j, full);
            }
        }
    }

    #[test]
    fn joins_count_comparisons() {
        let a = ps(&[(0, 1), (1, 1), (2, 9)]);
        let b = ps(&[(0, 1), (1, 3), (2, 2)]);
        let mut m = OpMeter::new();
        a.join(&b, None, &mut m);
        assert!(m.tid_cmp > 0);
        let mut m2 = OpMeter::new();
        a.temporal_join(&b, None, &mut m2);
        assert!(m2.tid_cmp > 0);
    }

    #[test]
    fn temporal_self_join_finds_repeats() {
        // sid 0 sees the item at events 1 and 4 → one repeat occurrence.
        let a = ps(&[(0, 1), (0, 4), (1, 2)]);
        let j = temporal(&a, &a);
        assert_eq!(j.pairs(), &[(0, 4)]);
        assert_eq!(j.support(), 1);
    }
}
