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
/// use tidlist::TidList;
/// // the paper's §4.2 example: T(AB) ∩ T(AC) = T(ABC)
/// let ab = TidList::of(&[1, 5, 7, 10, 50]);
/// let ac = TidList::of(&[1, 4, 7, 10, 11]);
/// let abc = ab.intersect(&ac);
/// assert_eq!(abc, TidList::of(&[1, 7, 10]));
/// assert_eq!(abc.support(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct TidList {
    tids: Vec<Tid>,
}

/// Result of a short-circuited intersection (§5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntersectOutcome {
    /// The full intersection was computed and met the minimum support.
    Frequent(TidList),
    /// The kernel proved the result cannot reach the minimum support and
    /// stopped early. No (complete) list is materialized.
    Infrequent,
}

impl IntersectOutcome {
    /// The tid-list if frequent.
    pub fn into_frequent(self) -> Option<TidList> {
        match self {
            IntersectOutcome::Frequent(t) => Some(t),
            IntersectOutcome::Infrequent => None,
        }
    }

    /// Whether the join met the support threshold.
    pub fn is_frequent(&self) -> bool {
        matches!(self, IntersectOutcome::Frequent(_))
    }
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

    /// Plain two-pointer sorted intersection.
    pub fn intersect(&self, other: &TidList) -> TidList {
        let (r, _) = intersect_inner(&self.tids, &other.tids, None);
        r.expect("unbounded intersection always completes")
    }

    /// Number of common tids without materializing the intersection.
    pub fn intersect_count(&self, other: &TidList) -> u32 {
        // Count-only two-pointer walk: no output allocation at all.
        let (a, b) = (&self.tids, &other.tids);
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Short-circuited intersection against a minimum support (§5.3).
    ///
    /// The paper's example: *"assume that the minimum support is 100, and
    /// we are intersecting two itemsets AB with support 119 and AC with
    /// support 200. We can stop the intersection the moment we have 20
    /// mismatches in AB."* The kernel tracks, for each operand, how many
    /// of its elements have already failed to match; when
    /// `remaining_possible = min(|A| − missesA, |B| − missesB)` falls below
    /// `minsup`, the result cannot be frequent and we bail out.
    pub fn intersect_bounded(&self, other: &TidList, minsup: u32) -> IntersectOutcome {
        let (r, _) = intersect_inner(&self.tids, &other.tids, Some(minsup));
        match r {
            Some(list) if list.support() >= minsup => IntersectOutcome::Frequent(list),
            _ => IntersectOutcome::Infrequent,
        }
    }

    /// [`TidList::intersect_bounded`] plus comparison metering.
    pub fn intersect_bounded_metered(
        &self,
        other: &TidList,
        minsup: u32,
        meter: &mut OpMeter,
    ) -> IntersectOutcome {
        let (r, ops) = intersect_inner(&self.tids, &other.tids, Some(minsup));
        meter.tid_cmp += ops;
        match r {
            Some(list) if list.support() >= minsup => IntersectOutcome::Frequent(list),
            _ => IntersectOutcome::Infrequent,
        }
    }

    /// [`TidList::intersect`] plus comparison metering.
    pub fn intersect_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (r, ops) = intersect_inner(&self.tids, &other.tids, None);
        meter.tid_cmp += ops;
        r.expect("unbounded intersection always completes")
    }

    /// Galloping intersection: binary-search advances through the longer
    /// list. Asymptotically better when `|A| ≪ |B|`; used adaptively.
    pub fn gallop_intersect(&self, other: &TidList) -> TidList {
        let (out, _) = self.gallop_dispatch(other);
        out
    }

    /// [`TidList::gallop_intersect`] plus search-probe metering: every
    /// stride-doubling check and binary-search probe counts as one element
    /// comparison, so galloping runs are visible to the same `tid_cmp`
    /// counter as the two-pointer kernels.
    pub fn gallop_intersect_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (out, ops) = self.gallop_dispatch(other);
        meter.tid_cmp += ops;
        out
    }

    fn gallop_dispatch(&self, other: &TidList) -> (TidList, u64) {
        let (short, long) = if self.len() <= other.len() {
            (&self.tids, &other.tids)
        } else {
            (&other.tids, &self.tids)
        };
        gallop_inner(short, long)
    }

    /// Whether the operand lengths are skewed enough (more than 16×) for
    /// galloping to beat the two-pointer merge — the classic
    /// merge-vs-search cutover; the ablation bench measures it.
    pub(crate) fn gallop_pays(&self, other: &TidList) -> bool {
        let (a, b) = (self.len().max(1), other.len().max(1));
        a * 16 < b || b * 16 < a
    }

    /// Adaptive intersection: galloping when [`gallop_pays`] says the
    /// lengths are skewed, two-pointer otherwise.
    ///
    /// [`gallop_pays`]: #method.gallop_pays
    pub fn intersect_adaptive(&self, other: &TidList) -> TidList {
        if self.gallop_pays(other) {
            self.gallop_intersect(other)
        } else {
            self.intersect(other)
        }
    }

    /// [`TidList::intersect_adaptive`] plus comparison metering — whichever
    /// kernel runs, its probes land in `meter.tid_cmp`.
    pub fn intersect_adaptive_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        if self.gallop_pays(other) {
            self.gallop_intersect_metered(other, meter)
        } else {
            self.intersect_metered(other, meter)
        }
    }

    /// Chunked (8-wide unrolled) two-pointer intersection — the
    /// explicitly vectorized sparse kernel. See `chunked_inner` for the
    /// block algorithm and op accounting.
    pub fn intersect_chunked(&self, other: &TidList) -> TidList {
        let (r, _) = chunked_inner(&self.tids, &other.tids, None);
        r.expect("unbounded intersection always completes")
    }

    /// [`TidList::intersect_chunked`] plus lane-op metering.
    pub fn intersect_chunked_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (r, ops) = chunked_inner(&self.tids, &other.tids, None);
        meter.tid_cmp += ops;
        r.expect("unbounded intersection always completes")
    }

    /// Chunked intersection with the §5.3 short-circuit: the
    /// remaining-elements bound is re-checked after every block step, so
    /// a hopeless candidate is abandoned within one block of where the
    /// scalar kernel would stop.
    pub fn intersect_chunked_bounded(&self, other: &TidList, minsup: u32) -> IntersectOutcome {
        let (r, _) = chunked_inner(&self.tids, &other.tids, Some(minsup));
        match r {
            Some(list) if list.support() >= minsup => IntersectOutcome::Frequent(list),
            _ => IntersectOutcome::Infrequent,
        }
    }

    /// [`TidList::intersect_chunked_bounded`] plus lane-op metering.
    pub fn intersect_chunked_bounded_metered(
        &self,
        other: &TidList,
        minsup: u32,
        meter: &mut OpMeter,
    ) -> IntersectOutcome {
        let (r, ops) = chunked_inner(&self.tids, &other.tids, Some(minsup));
        meter.tid_cmp += ops;
        match r {
            Some(list) if list.support() >= minsup => IntersectOutcome::Frequent(list),
            _ => IntersectOutcome::Infrequent,
        }
    }

    /// Galloping intersection whose located window is resolved with a
    /// chunked final block: binary search narrows only to [`LANES`]
    /// elements and one branchless 8-lane sweep finds the position.
    pub fn gallop_intersect_chunked(&self, other: &TidList) -> TidList {
        let (out, _) = self.gallop_chunked_dispatch(other);
        out
    }

    /// [`TidList::gallop_intersect_chunked`] plus probe metering.
    pub fn gallop_intersect_chunked_metered(
        &self,
        other: &TidList,
        meter: &mut OpMeter,
    ) -> TidList {
        let (out, ops) = self.gallop_chunked_dispatch(other);
        meter.tid_cmp += ops;
        out
    }

    fn gallop_chunked_dispatch(&self, other: &TidList) -> (TidList, u64) {
        let (short, long) = if self.len() <= other.len() {
            (&self.tids, &other.tids)
        } else {
            (&other.tids, &self.tids)
        };
        gallop_chunked_inner(short, long)
    }

    /// Chunked adaptive intersection: chunked galloping on 16×-skewed
    /// operands, the 8-wide block merge otherwise — the sparse side of
    /// the `auto-density` representation.
    pub fn intersect_chunked_adaptive(&self, other: &TidList) -> TidList {
        if self.gallop_pays(other) {
            self.gallop_intersect_chunked(other)
        } else {
            self.intersect_chunked(other)
        }
    }

    /// [`TidList::intersect_chunked_adaptive`] plus metering.
    pub fn intersect_chunked_adaptive_metered(
        &self,
        other: &TidList,
        meter: &mut OpMeter,
    ) -> TidList {
        if self.gallop_pays(other) {
            self.gallop_intersect_chunked_metered(other, meter)
        } else {
            self.intersect_chunked_metered(other, meter)
        }
    }

    /// Sorted union.
    pub fn union(&self, other: &TidList) -> TidList {
        let (out, _) = union_inner(&self.tids, &other.tids);
        out
    }

    /// [`TidList::union`] plus exact comparison metering — one op per
    /// three-way merge probe, as in the intersection/difference kernels.
    pub fn union_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (out, ops) = union_inner(&self.tids, &other.tids);
        meter.tid_cmp += ops;
        out
    }

    /// Sorted difference `self − other` — the d-Eclat *diffset* kernel.
    pub fn difference(&self, other: &TidList) -> TidList {
        let (r, _) = difference_inner(&self.tids, &other.tids, None);
        r.expect("unbounded difference always completes")
    }

    /// [`TidList::difference`] plus exact comparison metering.
    pub fn difference_metered(&self, other: &TidList, meter: &mut OpMeter) -> TidList {
        let (r, ops) = difference_inner(&self.tids, &other.tids, None);
        meter.tid_cmp += ops;
        r.expect("unbounded difference always completes")
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

/// Shared two-pointer kernel. With `minsup = Some(s)`, applies the §5.3
/// short-circuit and returns `None` on early exit. Always returns the
/// number of element comparisons performed.
fn intersect_inner(a: &[Tid], b: &[Tid], minsup: Option<u32>) -> (Option<TidList>, u64) {
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
            if (out.len() + remaining) < s as usize {
                return (None, ops);
            }
        }
    }
    (Some(TidList { tids: out }), ops)
}

/// Shared merge-difference kernel `a − b`. With `budget = Some(n)`,
/// abandons with `None` the moment the output would exceed `n` elements —
/// the d-Eclat analogue of the §5.3 short-circuit (a diffset longer than
/// `support(prefix) − minsup` proves the candidate infrequent). Always
/// returns the number of element comparisons performed: one per
/// three-way `a[i] <=> b[j]` probe, so `ops <= |a| + |b|`.
pub(crate) fn difference_inner(
    a: &[Tid],
    b: &[Tid],
    budget: Option<usize>,
) -> (Option<TidList>, u64) {
    let cap = budget.map_or(a.len(), |n| n.min(a.len()));
    let mut out = Vec::with_capacity(cap);
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
            if let Some(limit) = budget {
                if out.len() >= limit {
                    return (None, ops);
                }
            }
            out.push(x);
        }
    }
    (Some(TidList { tids: out }), ops)
}

/// Galloping (exponential-search) intersection kernel. `short` must be the
/// shorter operand. Returns the intersection plus an op count comparable to
/// the two-pointer kernels': one op per stride-doubling probe and
/// `⌈log2(window)⌉ + 1` ops per binary search over the located window.
fn gallop_inner(short: &[Tid], long: &[Tid]) -> (TidList, u64) {
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
        ops += (usize::BITS - window.leading_zeros()) as u64;
        let pos = base + long[base..end].partition_point(|&v| v < x);
        if pos < long.len() && long[pos] == x {
            out.push(x);
            base = pos + 1;
        } else {
            base = pos;
        }
    }
    (TidList { tids: out }, ops)
}

/// Lane width of the chunked kernels: 8 × `u32` tids = two 128-bit (or
/// one 256-bit) vector register(s), the shape the compiler's
/// auto-vectorizer turns the branchless sweeps below into packed compares.
pub const LANES: usize = 8;

/// One branchless 8-lane membership sweep: is `x` present in the block?
/// The fold compiles to eight data-independent equality tests OR-ed
/// together — no early exit, so the optimizer can keep the whole block in
/// vector registers.
#[inline]
fn lane_contains(block: &[Tid; LANES], x: Tid) -> bool {
    block.iter().fold(false, |acc, &y| acc | (y == x))
}

/// Chunked (8-wide unrolled) two-pointer kernel. Works on whole blocks of
/// [`LANES`] tids:
///
/// * disjoint blocks (`max(A-block) < min(B-block)` or vice versa) are
///   skipped in one probe;
/// * overlapping blocks run a branchless 8×8 membership sweep (one
///   [`lane_contains`] per element of the A-block), then the block whose
///   maximum is smaller advances — every cross-block match ≤ that maximum
///   has already been tested, so no pair is missed;
/// * the scalar two-pointer tail finishes the sub-`LANES` remainders.
///
/// With `minsup = Some(s)`, re-checks the §5.3 remaining-elements bound
/// after every block step and scalar-tail probe, returning `None` on
/// early exit exactly like [`intersect_inner`].
///
/// Op accounting: 1 per disjoint-block skip, [`LANES`] per 8×8 sweep (one
/// per 8-lane compare issued), 1 per scalar-tail probe — so a chunked run
/// over dense overlapping data costs about the same `tid_cmp` as the
/// scalar merge while touching memory a block at a time.
fn chunked_inner(a: &[Tid], b: &[Tid], minsup: Option<u32>) -> (Option<TidList>, u64) {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut ops = 0u64;
    while i + LANES <= a.len() && j + LANES <= b.len() {
        let ab: &[Tid; LANES] = a[i..i + LANES].try_into().expect("block is LANES wide");
        let bb: &[Tid; LANES] = b[j..j + LANES].try_into().expect("block is LANES wide");
        let (amax, bmax) = (ab[LANES - 1], bb[LANES - 1]);
        if amax < bb[0] {
            ops += 1;
            i += LANES;
        } else if bmax < ab[0] {
            ops += 1;
            j += LANES;
        } else {
            ops += LANES as u64;
            for &x in ab {
                if lane_contains(bb, x) {
                    out.push(x);
                }
            }
            // Advance past the lower maximum (both on a tie): every
            // element ≤ the advanced block's max was just swept against
            // the other block, and earlier blocks are already exhausted.
            if amax <= bmax {
                i += LANES;
            }
            if bmax <= amax {
                j += LANES;
            }
        }
        if let Some(s) = minsup {
            let remaining = (a.len() - i).min(b.len() - j);
            if (out.len() + remaining) < s as usize {
                return (None, ops);
            }
        }
    }
    // Scalar tail: identical to `intersect_inner`, continuing the same
    // output and bound state.
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
            let remaining = (a.len() - i).min(b.len() - j);
            if (out.len() + remaining) < s as usize {
                return (None, ops);
            }
        }
    }
    (Some(TidList { tids: out }), ops)
}

/// Galloping kernel with a chunked final block: the exponential search is
/// [`gallop_inner`]'s, but the located window is narrowed by binary
/// search only while it is wider than [`LANES`]; the final block is then
/// resolved by one branchless rank sweep (`pos = lo + #{v < x}` — exactly
/// `partition_point` on a sorted block, without its data-dependent
/// branches). `short` must be the shorter operand. Ops: 1 per
/// stride-doubling probe, 1 per binary-search halving, 1 per final-block
/// sweep.
fn gallop_chunked_inner(short: &[Tid], long: &[Tid]) -> (TidList, u64) {
    let mut out = Vec::with_capacity(short.len());
    let mut base = 0usize;
    let mut ops = 0u64;
    for &x in short {
        if base >= long.len() {
            break;
        }
        let mut stride = 1usize;
        ops += 1;
        while base + stride < long.len() && long[base + stride] < x {
            stride <<= 1;
            ops += 1;
        }
        let end = (base + stride + 1).min(long.len());
        // Binary search [lo, hi) down to a final block of ≤ LANES.
        let (mut lo, mut hi) = (base, end);
        while hi - lo > LANES {
            ops += 1;
            let mid = lo + (hi - lo) / 2;
            if long[mid] < x {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Branchless final block: rank of x = count of elements < x.
        ops += 1;
        let pos = lo
            + long[lo..hi]
                .iter()
                .map(|&v| usize::from(v < x))
                .sum::<usize>();
        if pos < long.len() && long[pos] == x {
            out.push(x);
            base = pos + 1;
        } else {
            base = pos;
        }
    }
    (TidList { tids: out }, ops)
}

/// Shared merge-union kernel. Returns the union plus the number of
/// three-way `a[i] <=> b[j]` probes performed.
fn union_inner(a: &[Tid], b: &[Tid]) -> (TidList, u64) {
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
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    (TidList { tids: out }, ops)
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

    #[test]
    fn paper_example_abc() {
        // §4.2: T(AB) = {1,5,7,10,50}, T(AC) = {1,4,7,10,11}
        // → T(ABC) = {1,7,10}
        let ab = TidList::of(&[1, 5, 7, 10, 50]);
        let ac = TidList::of(&[1, 4, 7, 10, 11]);
        let abc = ab.intersect(&ac);
        assert_eq!(abc, TidList::of(&[1, 7, 10]));
        assert_eq!(abc.support(), 3);
        assert_eq!(ab.intersect_count(&ac), 3);
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
        assert_eq!(ab.intersect(&ac).support(), 99);
        assert_eq!(ab.intersect_bounded(&ac, 100), IntersectOutcome::Infrequent);
        // With minsup 99 it is frequent and fully materialized.
        let out = ab.intersect_bounded(&ac, 99);
        assert_eq!(out.into_frequent().unwrap().support(), 99);
    }

    #[test]
    fn bounded_agrees_with_unbounded_on_frequent_results() {
        let a = TidList::of(&[1, 2, 3, 5, 8, 13, 21]);
        let b = TidList::of(&[2, 3, 5, 7, 11, 13]);
        let full = a.intersect(&b);
        assert_eq!(full, TidList::of(&[2, 3, 5, 13]));
        for minsup in 1..=4 {
            assert_eq!(
                a.intersect_bounded(&b, minsup),
                IntersectOutcome::Frequent(full.clone()),
                "minsup {minsup}"
            );
        }
        assert_eq!(a.intersect_bounded(&b, 5), IntersectOutcome::Infrequent);
    }

    #[test]
    fn bounded_saves_comparisons() {
        // Disjoint ranges: full intersection walks both lists, but with a
        // high minsup the bound trips almost immediately.
        let a = TidList::of(&(0..1000).collect::<Vec<_>>());
        let b = TidList::of(&(10_000..11_000).collect::<Vec<_>>());
        let mut m_full = OpMeter::new();
        let mut m_bounded = OpMeter::new();
        a.intersect_metered(&b, &mut m_full);
        let out = a.intersect_bounded_metered(&b, 999, &mut m_bounded);
        assert_eq!(out, IntersectOutcome::Infrequent);
        assert!(
            m_bounded.tid_cmp * 10 < m_full.tid_cmp,
            "short-circuit should cut comparisons by >10x here: {} vs {}",
            m_bounded.tid_cmp,
            m_full.tid_cmp
        );
    }

    #[test]
    fn gallop_matches_two_pointer() {
        let a = TidList::of(&[5, 100, 250, 251, 90_000]);
        let b = TidList::of(&(0..100_000).step_by(5).collect::<Vec<_>>());
        assert_eq!(a.gallop_intersect(&b), a.intersect(&b));
        assert_eq!(b.gallop_intersect(&a), a.intersect(&b));
        assert_eq!(a.intersect_adaptive(&b), a.intersect(&b));
    }

    #[test]
    fn gallop_edge_cases() {
        let e = TidList::new();
        let a = TidList::of(&[1, 2, 3]);
        assert_eq!(e.gallop_intersect(&a), TidList::new());
        assert_eq!(a.gallop_intersect(&e), TidList::new());
        assert_eq!(a.gallop_intersect(&a), a);
        // single elements at boundaries
        let first = TidList::of(&[1]);
        let last = TidList::of(&[3]);
        assert_eq!(first.gallop_intersect(&a), first);
        assert_eq!(last.gallop_intersect(&a), last);
    }

    #[test]
    fn gallop_metered_counts_probes() {
        let a = TidList::of(&[5, 100, 250, 251, 90_000]);
        let b = TidList::of(&(0..100_000).step_by(5).collect::<Vec<_>>());
        let mut m = OpMeter::new();
        assert_eq!(a.gallop_intersect_metered(&b, &mut m), a.intersect(&b));
        assert!(m.tid_cmp > 0, "galloping probes must be metered");
        // Galloping on heavily skewed operands must beat the linear merge.
        let mut m_two = OpMeter::new();
        a.intersect_metered(&b, &mut m_two);
        assert!(
            m.tid_cmp * 10 < m_two.tid_cmp,
            "gallop {} vs two-pointer {}",
            m.tid_cmp,
            m_two.tid_cmp
        );
        // The adaptive dispatch picks galloping here and meters the same.
        let mut m_ad = OpMeter::new();
        assert_eq!(a.intersect_adaptive_metered(&b, &mut m_ad), a.intersect(&b));
        assert_eq!(m_ad.tid_cmp, m.tid_cmp);
    }

    #[test]
    fn adaptive_metered_uses_merge_on_balanced_operands() {
        let a = TidList::of(&[1, 2, 3, 5, 8, 13, 21]);
        let b = TidList::of(&[2, 3, 5, 7, 11, 13]);
        let mut m_ad = OpMeter::new();
        let mut m_two = OpMeter::new();
        assert_eq!(
            a.intersect_adaptive_metered(&b, &mut m_ad),
            a.intersect_metered(&b, &mut m_two)
        );
        assert_eq!(m_ad.tid_cmp, m_two.tid_cmp);
    }

    #[test]
    fn union_metered_counts_merge_probes() {
        let a = TidList::of(&[1, 3, 5, 7]);
        let b = TidList::of(&[3, 4, 7, 8]);
        let mut m = OpMeter::new();
        assert_eq!(a.union_metered(&b, &mut m), a.union(&b));
        assert!(m.tid_cmp > 0 && m.tid_cmp <= 8);
        // Union with empty never probes.
        let mut m0 = OpMeter::new();
        assert_eq!(a.union_metered(&TidList::new(), &mut m0), a);
        assert_eq!(m0.tid_cmp, 0);
    }

    #[test]
    fn union_and_difference() {
        let a = TidList::of(&[1, 3, 5, 7]);
        let b = TidList::of(&[3, 4, 7, 8]);
        assert_eq!(a.union(&b), TidList::of(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(a.difference(&b), TidList::of(&[1, 5]));
        assert_eq!(b.difference(&a), TidList::of(&[4, 8]));
        assert_eq!(a.difference(&a), TidList::new());
        assert_eq!(a.union(&TidList::new()), a);
        assert_eq!(a.difference(&TidList::new()), a);
        assert_eq!(TidList::new().difference(&a), TidList::new());
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
    fn intersect_bounded_zero_minsup_is_frequent_even_when_empty() {
        let a = TidList::of(&[1]);
        let b = TidList::of(&[2]);
        // minsup 0 is degenerate but must not panic: empty ∩ counts as
        // frequent (0 >= 0).
        assert!(a.intersect_bounded(&b, 0).is_frequent());
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
