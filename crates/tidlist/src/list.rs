//! The [`TidList`] type and intersection kernels.

use mining_types::{OpMeter, Tid};
use std::fmt;

/// A sorted, duplicate-free list of transaction identifiers.
///
/// The cardinality of an itemset's tid-list *is* its support count — "We
/// can immediately determine the support by counting the number of elements
/// in the tid-list" (§4.2).
///
/// ```
/// use mining_types::OpMeter;
/// use tidlist::TidList;
/// // the paper's §4.2 example: T(AB) ∩ T(AC) = T(ABC)
/// let ab = TidList::of(&[1, 5, 7, 10, 50]);
/// let ac = TidList::of(&[1, 4, 7, 10, 11]);
/// let abc = ab.intersect(&ac, None, &mut OpMeter::new()).unwrap();
/// assert_eq!(abc, TidList::of(&[1, 7, 10]));
/// assert_eq!(abc.support(), 3);
/// // With minsup 4 the §5.3 short-circuit proves ABC infrequent.
/// assert_eq!(ab.intersect(&ac, Some(4), &mut OpMeter::new()), None);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct TidList {
    tids: Vec<Tid>,
}

impl TidList {
    /// The empty tid-list.
    pub fn new() -> Self {
        TidList { tids: Vec::new() }
    }

    /// Empty tid-list with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        TidList {
            tids: Vec::with_capacity(cap),
        }
    }

    /// Build from a vector that is already sorted strictly ascending.
    ///
    /// # Panics
    /// Panics if the invariant does not hold.
    pub fn from_sorted(tids: Vec<Tid>) -> Self {
        Self::try_from_sorted(tids).expect("tid-list must be strictly ascending")
    }

    /// [`TidList::from_sorted`] for tids read from outside the process:
    /// `None` unless they are strictly ascending.
    pub fn try_from_sorted(tids: Vec<Tid>) -> Option<Self> {
        tids.windows(2)
            .all(|w| w[0] < w[1])
            .then_some(TidList { tids })
    }

    /// Build from raw `u32` tids, sorting and deduplicating as needed.
    pub fn from_unsorted<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut tids: Vec<Tid> = iter.into_iter().map(Tid).collect();
        tids.sort_unstable();
        tids.dedup();
        TidList { tids }
    }

    /// Convenience constructor from raw tids (used pervasively in tests).
    pub fn of(raw: &[u32]) -> Self {
        Self::from_unsorted(raw.iter().copied())
    }

    /// Append a tid that must exceed the current maximum — the natural way
    /// the vertical transformation builds lists while scanning transactions
    /// in tid order (§6.3's "monotonically increasing" ranges).
    ///
    /// # Panics
    /// Panics if `tid` is not strictly greater than the last element.
    #[inline]
    pub fn push(&mut self, tid: Tid) {
        if let Some(&last) = self.tids.last() {
            assert!(tid > last, "tids must be appended in increasing order");
        }
        self.tids.push(tid);
    }

    /// Concatenate another tid-list whose smallest tid exceeds our largest.
    ///
    /// This is the §6.3 offset-placement trick: because the database is
    /// block-partitioned with disjoint, monotonically increasing tid
    /// ranges, the global tid-list of an itemset is the concatenation of
    /// the per-processor partial lists in processor order — no sorting.
    ///
    /// # Panics
    /// Panics if the ranges are not disjoint-and-ordered.
    pub fn append_partial(&mut self, other: &TidList) {
        if let (Some(&last), Some(&first)) = (self.tids.last(), other.tids.first()) {
            assert!(
                first > last,
                "partial tid-lists must arrive in ascending tid-range order"
            );
        }
        self.tids.extend_from_slice(&other.tids);
    }

    /// Append a sorted slice of tids whose smallest exceeds our largest —
    /// the streaming-ingest append path. Equivalent to
    /// [`TidList::append_partial`] without materializing the delta as a
    /// `TidList`: a transaction batch arrives with tids strictly above
    /// everything already ingested (the same §6.3 disjoint ascending
    /// ranges), so the incremental engine extends each item's list in
    /// place.
    ///
    /// # Panics
    /// Panics if `tids` is not strictly increasing or does not start
    /// above the current last tid.
    pub fn append_tids(&mut self, tids: &[Tid]) {
        let mut last = self.tids.last().copied();
        for &t in tids {
            if let Some(prev) = last {
                assert!(t > prev, "appended tids must be strictly increasing");
            }
            last = Some(t);
        }
        self.tids.extend_from_slice(tids);
    }

    /// Support count = number of tids.
    #[inline]
    pub fn support(&self) -> u32 {
        self.tids.len() as u32
    }

    /// Number of tids.
    #[inline]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True if no transactions contain the itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// The sorted tids.
    #[inline]
    pub fn tids(&self) -> &[Tid] {
        &self.tids
    }

    /// Membership test.
    pub fn contains(&self, tid: Tid) -> bool {
        self.tids.binary_search(&tid).is_ok()
    }

    /// Size in bytes when serialized as raw little-endian `u32`s — the
    /// quantity the Memory Channel exchange and disk cost models price.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        (self.tids.len() as u64) * 4
    }

    /// Two-pointer sorted intersection, the kernel of every tid-list join.
    ///
    /// With `minsup = Some(s)` it is the paper's **short-circuited**
    /// intersection (§5.3): *"assume that the minimum support is 100, and
    /// we are intersecting two itemsets AB with support 119 and AC with
    /// support 200. We can stop the intersection the moment we have 20
    /// mismatches in AB."* The kernel stops once
    /// `matched + min(remaining in A, remaining in B)` falls below `s`, and
    /// returns `None` exactly when the intersection's support is below
    /// `s`. With `None` it always completes. Every element comparison lands
    /// in `meter.tid_cmp`, feeding the simulated-cluster cost model.
    pub fn intersect(
        &self,
        other: &TidList,
        minsup: Option<u32>,
        meter: &mut OpMeter,
    ) -> Option<TidList> {
        // One loop instance per bound kind: the bounded one tests the
        // bound after every probe, the unbounded one tests nothing.
        let (tids, ops) = match minsup {
            Some(s) => merge(&self.tids, &other.tids, Some(s)),
            None => merge(&self.tids, &other.tids, None),
        };
        meter.tid_cmp += ops;
        tids.map(|tids| TidList { tids })
    }

    /// Adaptive intersection, the join of [`crate::GallopList`]: galloping
    /// (exponential search through the longer operand) when the lengths
    /// are skewed by more than 16×, the two-pointer merge otherwise.
    /// Galloping never walks the operands linearly, so there is no §5.3
    /// bound to apply; the intersection is always complete. Search probes
    /// and merge comparisons both land in `meter.tid_cmp`.
    pub fn intersect_adaptive(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (short, long) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if short.len().max(1) * 16 < long.len().max(1) {
            gallop(&short.tids, &long.tids, meter)
        } else {
            self.intersect(other, None, meter)
                .expect("unbounded intersection always completes")
        }
    }

    /// Sorted union, one `tid_cmp` op per three-way merge probe.
    pub fn union(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (a, b) = (&self.tids, &other.tids);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut ops = 0u64;
        while i < a.len() && j < b.len() {
            ops += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        meter.tid_cmp += ops;
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        TidList { tids: out }
    }

    /// Sorted difference `self − other`, the d-Eclat *diffset* kernel.
    ///
    /// With `budget = Some(n)` it abandons with `None` the moment the
    /// output would exceed `n` elements — the diffset analogue of the §5.3
    /// short-circuit (a diffset longer than `support(prefix) − minsup`
    /// proves the candidate infrequent). With `None` it always completes.
    /// One `tid_cmp` op per three-way `a[i] <=> b[j]` probe, so the count
    /// never exceeds `|self| + |other|`.
    pub fn difference(
        &self,
        other: &TidList,
        budget: Option<usize>,
        meter: &mut OpMeter,
    ) -> Option<TidList> {
        let (a, b) = (&self.tids, &other.tids);
        let mut out = Vec::with_capacity(budget.map_or(a.len(), |n| n.min(a.len())));
        let mut j = 0usize;
        let mut ops = 0u64;
        for &x in a {
            let keep = loop {
                if j >= b.len() {
                    break true;
                }
                ops += 1;
                match b[j].cmp(&x) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => break false,
                    std::cmp::Ordering::Greater => break true,
                }
            };
            if keep {
                if budget.is_some_and(|n| out.len() >= n) {
                    meter.tid_cmp += ops;
                    return None;
                }
                out.push(x);
            }
        }
        meter.tid_cmp += ops;
        Some(TidList { tids: out })
    }

    /// Split into the tids `< bound` and the tids `>= bound` — used when
    /// re-partitioning a global list back into block ranges.
    pub fn split_at_tid(&self, bound: Tid) -> (TidList, TidList) {
        let pos = self.tids.partition_point(|&t| t < bound);
        (
            TidList {
                tids: self.tids[..pos].to_vec(),
            },
            TidList {
                tids: self.tids[pos..].to_vec(),
            },
        )
    }

    /// Consume into the raw tid vector.
    pub fn into_vec(self) -> Vec<Tid> {
        self.tids
    }
}

/// The loop of [`TidList::intersect`]: `a ∩ b`, or `None` below `minsup`,
/// and the probes spent either way.
#[inline(always)]
fn merge(a: &[Tid], b: &[Tid], minsup: Option<u32>) -> (Option<Vec<Tid>>, u64) {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut ops = 0u64;
    while i < a.len() && j < b.len() {
        ops += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
        if let Some(s) = minsup {
            // Upper bound on achievable matches: already matched plus
            // whatever remains of the *shorter* residue.
            let remaining = (a.len() - i).min(b.len() - j);
            if out.len() + remaining < s as usize {
                return (None, ops);
            }
        }
    }
    let frequent = out.len() >= minsup.unwrap_or(0) as usize;
    (frequent.then_some(out), ops)
}

/// Galloping (exponential-search) intersection kernel. `short` must be the
/// shorter operand. Meters one op per stride-doubling probe and
/// `⌈log2(window)⌉ + 1` ops per binary search over the located window.
fn gallop(short: &[Tid], long: &[Tid], meter: &mut OpMeter) -> TidList {
    let mut out = Vec::with_capacity(short.len());
    let mut base = 0usize;
    let mut ops = 0u64;
    for &x in short {
        if base >= long.len() {
            break;
        }
        // Exponential search: find a window end such that
        // long[end-1] >= x (or end == len), doubling the stride.
        let mut stride = 1usize;
        ops += 1;
        while base + stride < long.len() && long[base + stride] < x {
            stride <<= 1;
            ops += 1;
        }
        let end = (base + stride + 1).min(long.len());
        // First position in [base, end) with long[pos] >= x.
        let window = end - base;
        ops += u64::from(usize::BITS - window.leading_zeros());
        let pos = base + long[base..end].partition_point(|&v| v < x);
        if pos < long.len() && long[pos] == x {
            out.push(x);
            base = pos + 1;
        } else {
            base = pos;
        }
    }
    meter.tid_cmp += ops;
    TidList { tids: out }
}

impl fmt::Debug for TidList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[")?;
        for (n, t) in self.tids.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", t.0)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Tid> for TidList {
    fn from_iter<I: IntoIterator<Item = Tid>>(iter: I) -> Self {
        let mut tids: Vec<Tid> = iter.into_iter().collect();
        tids.sort_unstable();
        tids.dedup();
        TidList { tids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meet(a: &TidList, b: &TidList) -> TidList {
        a.intersect(b, None, &mut OpMeter::new())
            .expect("unbounded intersection always completes")
    }

    fn minus(a: &TidList, b: &TidList) -> TidList {
        a.difference(b, None, &mut OpMeter::new())
            .expect("unbounded difference always completes")
    }

    #[test]
    fn paper_example_abc() {
        // §4.2: T(AB) = {1,5,7,10,50}, T(AC) = {1,4,7,10,11}
        // → T(ABC) = {1,7,10}
        let ab = TidList::of(&[1, 5, 7, 10, 50]);
        let ac = TidList::of(&[1, 4, 7, 10, 11]);
        let abc = meet(&ab, &ac);
        assert_eq!(abc, TidList::of(&[1, 7, 10]));
        assert_eq!(abc.support(), 3);
    }

    #[test]
    fn from_sorted_enforces_invariant() {
        TidList::from_sorted(vec![Tid(1), Tid(2), Tid(9)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_duplicates() {
        TidList::from_sorted(vec![Tid(1), Tid(1)]);
    }

    #[test]
    fn push_enforces_order() {
        let mut t = TidList::new();
        t.push(Tid(3));
        t.push(Tid(7));
        assert_eq!(t, TidList::of(&[3, 7]));
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn push_rejects_regression() {
        let mut t = TidList::of(&[5]);
        t.push(Tid(5));
    }

    #[test]
    fn append_partial_concatenates_block_ranges() {
        let mut global = TidList::of(&[0, 3, 9]);
        global.append_partial(&TidList::of(&[10, 11, 40]));
        assert_eq!(global, TidList::of(&[0, 3, 9, 10, 11, 40]));
        // appending an empty partial is fine
        global.append_partial(&TidList::new());
        assert_eq!(global.len(), 6);
    }

    #[test]
    #[should_panic(expected = "ascending tid-range order")]
    fn append_partial_rejects_overlap() {
        let mut global = TidList::of(&[0, 3, 9]);
        global.append_partial(&TidList::of(&[9, 10]));
    }

    #[test]
    fn short_circuit_matches_paper_narrative() {
        // minsup 100, |AB| = 119, |AC| = 200: after 20 mismatches on AB
        // the intersection cannot reach 100.
        // Construct AB so its first 20 elements miss AC entirely.
        let ab: Vec<u32> = (0..20).map(|i| i * 2 + 1).chain(1000..1099).collect();
        let ac: Vec<u32> = (0..20)
            .map(|i| i * 2)
            .chain(1000..1099)
            .chain(5000..5081)
            .collect();
        let ab = TidList::of(&ab);
        let ac = TidList::of(&ac);
        assert_eq!(ab.support(), 119);
        assert_eq!(ac.support(), 200);
        // True intersection has 99 elements — below minsup 100.
        assert_eq!(meet(&ab, &ac).support(), 99);
        assert_eq!(ab.intersect(&ac, Some(100), &mut OpMeter::new()), None);
        // With minsup 99 it is frequent and fully materialized.
        let out = ab.intersect(&ac, Some(99), &mut OpMeter::new());
        assert_eq!(out.unwrap().support(), 99);
    }

    #[test]
    fn bounded_agrees_with_unbounded_on_frequent_results() {
        let a = TidList::of(&[1, 2, 3, 5, 8, 13, 21]);
        let b = TidList::of(&[2, 3, 5, 7, 11, 13]);
        let full = meet(&a, &b);
        assert_eq!(full, TidList::of(&[2, 3, 5, 13]));
        for minsup in 1..=4 {
            assert_eq!(
                a.intersect(&b, Some(minsup), &mut OpMeter::new()),
                Some(full.clone()),
                "minsup {minsup}"
            );
        }
        assert_eq!(a.intersect(&b, Some(5), &mut OpMeter::new()), None);
    }

    #[test]
    fn bounded_saves_comparisons() {
        // Disjoint ranges: full intersection walks both lists, but with a
        // high minsup the bound trips almost immediately.
        let a = TidList::of(&(0..1000).collect::<Vec<_>>());
        let b = TidList::of(&(10_000..11_000).collect::<Vec<_>>());
        let mut m_full = OpMeter::new();
        let mut m_bounded = OpMeter::new();
        a.intersect(&b, None, &mut m_full);
        assert_eq!(a.intersect(&b, Some(999), &mut m_bounded), None);
        assert!(
            m_bounded.tid_cmp * 10 < m_full.tid_cmp,
            "short-circuit should cut comparisons by >10x here: {} vs {}",
            m_bounded.tid_cmp,
            m_full.tid_cmp
        );
    }

    fn galloped(a: &TidList, b: &TidList) -> TidList {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        gallop(&short.tids, &long.tids, &mut OpMeter::new())
    }

    #[test]
    fn gallop_matches_two_pointer() {
        let a = TidList::of(&[5, 100, 250, 251, 90_000]);
        let b = TidList::of(&(0..100_000).step_by(5).collect::<Vec<_>>());
        assert_eq!(galloped(&a, &b), meet(&a, &b));
        assert_eq!(galloped(&b, &a), meet(&a, &b));
        assert_eq!(a.intersect_adaptive(&b, &mut OpMeter::new()), meet(&a, &b));
        // Random operands of every shape, balanced ones included: the
        // galloping kernel is exact whether or not it pays.
        let mut x = 7u64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % bound) as u32
        };
        for _ in 0..200 {
            let a = TidList::from_unsorted((0..next(40)).map(|_| next(300)).collect::<Vec<_>>());
            let b = TidList::from_unsorted((0..next(400)).map(|_| next(300)).collect::<Vec<_>>());
            assert_eq!(galloped(&a, &b), meet(&a, &b), "{a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn gallop_edge_cases() {
        let e = TidList::new();
        let a = TidList::of(&[1, 2, 3]);
        assert_eq!(galloped(&e, &a), TidList::new());
        assert_eq!(galloped(&a, &e), TidList::new());
        assert_eq!(galloped(&a, &a), a);
        // single elements at boundaries
        let first = TidList::of(&[1]);
        let last = TidList::of(&[3]);
        assert_eq!(galloped(&first, &a), first);
        assert_eq!(galloped(&last, &a), last);
    }

    /// The regression the galloping bound is prone to: a final block where
    /// `base + stride + 1` overshoots the operand — probing must clamp to
    /// the real end and still find a match sitting exactly at `len - 1`.
    #[test]
    fn gallop_final_block_hits_last_element() {
        for long_len in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let long = TidList::from_unsorted((0..long_len as u32).map(|i| i * 3));
            let last = *long.tids().last().unwrap();
            let short = TidList::from_sorted(vec![last]);
            assert_eq!(galloped(&short, &long), short, "long_len={long_len}");
        }
        // And at the very top of the tid space.
        let long = TidList::of(&[u32::MAX - 64, u32::MAX - 1, u32::MAX]);
        let short = TidList::of(&[u32::MAX]);
        assert_eq!(galloped(&short, &long), short);
    }

    #[test]
    fn gallop_counts_probes() {
        let a = TidList::of(&[5, 100, 250, 251, 90_000]);
        let b = TidList::of(&(0..100_000).step_by(5).collect::<Vec<_>>());
        let mut m = OpMeter::new();
        assert_eq!(a.intersect_adaptive(&b, &mut m), meet(&a, &b));
        assert!(m.tid_cmp > 0, "galloping probes must be metered");
        // Galloping on heavily skewed operands must beat the linear merge.
        let mut m_two = OpMeter::new();
        a.intersect(&b, None, &mut m_two);
        assert!(
            m.tid_cmp * 10 < m_two.tid_cmp,
            "gallop {} vs two-pointer {}",
            m.tid_cmp,
            m_two.tid_cmp
        );
    }

    #[test]
    fn adaptive_uses_merge_on_balanced_operands() {
        let a = TidList::of(&[1, 2, 3, 5, 8, 13, 21]);
        let b = TidList::of(&[2, 3, 5, 7, 11, 13]);
        let mut m_ad = OpMeter::new();
        let mut m_two = OpMeter::new();
        assert_eq!(
            Some(a.intersect_adaptive(&b, &mut m_ad)),
            a.intersect(&b, None, &mut m_two)
        );
        assert_eq!(m_ad.tid_cmp, m_two.tid_cmp);
    }

    #[test]
    fn union_counts_merge_probes() {
        let a = TidList::of(&[1, 3, 5, 7]);
        let b = TidList::of(&[3, 4, 7, 8]);
        let mut m = OpMeter::new();
        assert_eq!(a.union(&b, &mut m), TidList::of(&[1, 3, 4, 5, 7, 8]));
        assert!(m.tid_cmp > 0 && m.tid_cmp <= 8);
        // Union with empty never probes.
        let mut m0 = OpMeter::new();
        assert_eq!(a.union(&TidList::new(), &mut m0), a);
        assert_eq!(m0.tid_cmp, 0);
    }

    #[test]
    fn difference_and_its_budget() {
        let a = TidList::of(&[1, 3, 5, 7]);
        let b = TidList::of(&[3, 4, 7, 8]);
        assert_eq!(minus(&a, &b), TidList::of(&[1, 5]));
        assert_eq!(minus(&b, &a), TidList::of(&[4, 8]));
        assert_eq!(minus(&a, &a), TidList::new());
        assert_eq!(minus(&a, &TidList::new()), a);
        assert_eq!(minus(&TidList::new(), &a), TidList::new());
        // The budget bails exactly when the output would outgrow it.
        let m = &mut OpMeter::new();
        let (x, y) = (TidList::of(&[1, 2, 3, 4]), TidList::of(&[2]));
        assert_eq!(x.difference(&y, Some(3), m), Some(TidList::of(&[1, 3, 4])));
        assert_eq!(x.difference(&y, Some(2), m), None);
        assert_eq!(x.difference(&x, Some(0), m), Some(TidList::new()));
    }

    #[test]
    fn split_at_tid() {
        let a = TidList::of(&[1, 3, 5, 7]);
        let (lo, hi) = a.split_at_tid(Tid(5));
        assert_eq!(lo, TidList::of(&[1, 3]));
        assert_eq!(hi, TidList::of(&[5, 7]));
        let (lo, hi) = a.split_at_tid(Tid(0));
        assert_eq!(lo, TidList::new());
        assert_eq!(hi, a);
        let (lo, hi) = a.split_at_tid(Tid(100));
        assert_eq!(lo, a);
        assert_eq!(hi, TidList::new());
    }

    #[test]
    fn byte_size_counts_u32s() {
        assert_eq!(TidList::of(&[1, 2, 3]).byte_size(), 12);
        assert_eq!(TidList::new().byte_size(), 0);
    }

    #[test]
    fn contains_and_from_iterator() {
        let t: TidList = [Tid(9), Tid(1), Tid(9), Tid(4)].into_iter().collect();
        assert_eq!(t, TidList::of(&[1, 4, 9]));
        assert!(t.contains(Tid(4)));
        assert!(!t.contains(Tid(5)));
    }

    #[test]
    fn intersect_zero_minsup_is_frequent_even_when_empty() {
        let a = TidList::of(&[1]);
        let b = TidList::of(&[2]);
        // minsup 0 is degenerate but must not panic: empty ∩ counts as
        // frequent (0 >= 0).
        assert!(a.intersect(&b, Some(0), &mut OpMeter::new()).is_some());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", TidList::of(&[1, 2])), "T[1,2]");
        assert_eq!(format!("{:?}", TidList::new()), "T[]");
    }

    #[test]
    fn append_tids_extends_in_place() {
        let mut t = TidList::of(&[1, 4]);
        t.append_tids(&[Tid(7), Tid(9)]);
        assert_eq!(t, TidList::of(&[1, 4, 7, 9]));
        t.append_tids(&[]);
        assert_eq!(t, TidList::of(&[1, 4, 7, 9]));
        let mut empty = TidList::new();
        empty.append_tids(&[Tid(0), Tid(2)]);
        assert_eq!(empty, TidList::of(&[0, 2]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn append_tids_rejects_overlap() {
        let mut t = TidList::of(&[1, 4]);
        t.append_tids(&[Tid(4)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn append_tids_rejects_unsorted_slice() {
        let mut t = TidList::new();
        t.append_tids(&[Tid(3), Tid(2)]);
    }
}
