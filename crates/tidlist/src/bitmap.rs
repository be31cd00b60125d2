//! Fixed-width bitmap tid-sets: the dense-class representation.
//!
//! A [`BitmapSet`] stores an itemset's transactions as one bit per tid in
//! a fixed window of `u64` words, so a join is a word-wise `AND` plus a
//! `popcount` — branch-free, 64 tids per operation, and exactly what the
//! RDD-Eclat bitvector variants and the many-core FIM literature report
//! large wins from on dense databases. On sparse data the window is
//! mostly zeros and the tid-list merge wins; the `AutoDensity`
//! representation in the `eclat` crate picks per class.
//!
//! All members of one equivalence class share the same *frame* — a
//! word-aligned `[base, base + 64·words)` tid window covering every
//! member (see [`BitmapSet::frame_of`]). Joins only ever intersect, so
//! every set produced below `L2` stays inside its class frame and
//! word-wise `AND` is always aligned; the join asserts this.
//!
//! Metering: one `tid_cmp` op per word `AND`+`popcount` processed, so a
//! bitmap join of a `w`-word frame costs exactly `w` ops (or fewer when
//! the §5.3-style bound bails early) and lands in the same counter the
//! merge kernels feed — the ablation's representation axis compares one
//! op per 64-tid word against one op per element probe.

use crate::list::TidList;
use crate::set::{meets, TidSet};
use mining_types::{OpMeter, Tid};
use std::fmt;

/// Bits per bitmap word.
const WORD_BITS: u32 = 64;

/// A fixed-width bitmap over the tid window `[base, base + 64·words)`.
///
/// ```
/// use mining_types::OpMeter;
/// use tidlist::{BitmapSet, TidList, TidSet};
/// let a = TidList::of(&[1, 5, 7, 10, 50]);
/// let b = TidList::of(&[1, 4, 7, 10, 11]);
/// let (base, words) = BitmapSet::frame_of([&a, &b]);
/// let ba = BitmapSet::from_tidlist(&a, base, words);
/// let bb = BitmapSet::from_tidlist(&b, base, words);
/// let meter = &mut OpMeter::new();
/// let joined = ba.join(&bb, None, meter).unwrap();
/// assert_eq!(joined.support(), 3);
/// assert_eq!(Some(joined.to_tidlist()), a.join(&b, None, meter));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitmapSet {
    /// First tid of the window; always a multiple of 64 so that bit `i`
    /// of word `w` is tid `base + 64·w + i`.
    base: u32,
    /// The window, fixed-width across a whole class subtree.
    words: Vec<u64>,
    /// Cached popcount — support reads must be O(1) like the other
    /// representations'.
    support: u32,
}

impl BitmapSet {
    /// The word-aligned frame `(base, words)` covering every tid of every
    /// list: `base` is the smallest tid rounded down to a word boundary
    /// (so distributed workers owning high tid ranges do not pay for the
    /// empty low range), `words` reaches past the largest tid.
    pub fn frame_of<'a, I>(lists: I) -> (Tid, usize)
    where
        I: IntoIterator<Item = &'a TidList>,
    {
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        let mut any = false;
        for l in lists {
            if let (Some(&first), Some(&last)) = (l.tids().first(), l.tids().last()) {
                any = true;
                lo = lo.min(first.0);
                hi = hi.max(last.0);
            }
        }
        if !any {
            return (Tid(0), 0);
        }
        let base = lo - lo % WORD_BITS;
        // hi − base < 2^32 always fits; +1 bit, rounded up to words.
        let span = (hi - base) as u64 + 1;
        (Tid(base), span.div_ceil(u64::from(WORD_BITS)) as usize)
    }

    /// Build the bitmap of `list` inside the given frame.
    ///
    /// # Panics
    /// Panics if any tid falls outside `[base, base + 64·words)`.
    pub fn from_tidlist(list: &TidList, base: Tid, words: usize) -> Self {
        assert_eq!(base.0 % WORD_BITS, 0, "frame base must be word-aligned");
        let mut v = vec![0u64; words];
        for &t in list.tids() {
            let off = t.0.checked_sub(base.0).expect("tid below the bitmap frame");
            let w = (off / WORD_BITS) as usize;
            assert!(w < words, "tid beyond the bitmap frame");
            v[w] |= 1u64 << (off % WORD_BITS);
        }
        BitmapSet {
            base: base.0,
            words: v,
            support: list.support(),
        }
    }

    /// Exact support (cached popcount).
    #[inline]
    pub fn support(&self) -> u32 {
        self.support
    }

    /// Window width in words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Decode back to a sorted tid-list (tests and spot checks).
    pub fn to_tidlist(&self) -> TidList {
        let mut out = TidList::with_capacity(self.support as usize);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = bits.trailing_zeros();
                out.push(Tid(self.base + w as u32 * WORD_BITS + i));
                bits &= bits - 1;
            }
        }
        out
    }
}

impl TidSet for BitmapSet {
    fn support(&self) -> u32 {
        self.support
    }

    /// Bytes of the fixed window — what the representation actually holds
    /// live, which is precisely the dense-vs-sparse trade the ablation
    /// and the peak-bytes statistic measure.
    fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Word-wise `AND` + popcount, one `tid_cmp` op per word. With
    /// `minsup = Some(s)`, applies the §5.3-style bound — after word `k`,
    /// at most `64·(w−k−1)` more bits can match, so the join bails the
    /// moment `count + 64·remaining < s` — and returns `None` exactly when
    /// the intersection's support is below `s`.
    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        assert_eq!(
            (self.base, self.words.len()),
            (other.base, other.words.len()),
            "bitmap joins require class siblings sharing one frame"
        );
        let n = self.words.len();
        let mut out = vec![0u64; n];
        let mut count = 0u32;
        let mut ops = 0u64;
        for (k, slot) in out.iter_mut().enumerate() {
            let w = self.words[k] & other.words[k];
            ops += 1;
            count += w.count_ones();
            *slot = w;
            if let Some(s) = minsup {
                let remaining = (n - k - 1) as u64 * u64::from(WORD_BITS);
                if u64::from(count) + remaining < u64::from(s) {
                    meter.tid_cmp += ops;
                    return None;
                }
            }
        }
        meter.tid_cmp += ops;
        meets(count, minsup).then_some(BitmapSet {
            base: self.base,
            words: out,
            support: count,
        })
    }
}

impl fmt::Debug for BitmapSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "B[base={},words={},{:?}]",
            self.base,
            self.words.len(),
            self.to_tidlist()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: &[u32], b: &[u32]) -> (BitmapSet, BitmapSet, TidList) {
        let (ta, tb) = (TidList::of(a), TidList::of(b));
        let (base, words) = BitmapSet::frame_of([&ta, &tb]);
        (
            BitmapSet::from_tidlist(&ta, base, words),
            BitmapSet::from_tidlist(&tb, base, words),
            ta.join(&tb, None, &mut OpMeter::new()).unwrap(),
        )
    }

    fn and(a: &BitmapSet, b: &BitmapSet) -> BitmapSet {
        a.join(b, None, &mut OpMeter::new()).unwrap()
    }

    #[test]
    fn roundtrip_and_join_match_tidlist() {
        let (ba, bb, truth) = pair(&[1, 5, 7, 10, 50], &[1, 4, 7, 10, 11]);
        let mut m = OpMeter::new();
        let joined = ba.join(&bb, None, &mut m).unwrap();
        assert_eq!(joined.to_tidlist(), truth);
        assert_eq!(joined.support(), 3);
        assert_eq!(m.tid_cmp, ba.num_words() as u64);
    }

    #[test]
    fn frame_is_word_aligned_and_offset() {
        // High tid range: the frame must not start at zero.
        let t = TidList::of(&[1000, 1001, 1100]);
        let (base, words) = BitmapSet::frame_of([&t]);
        assert_eq!(base.0 % 64, 0);
        assert!(base.0 <= 1000 && base.0 + 64 > 1000 - 63);
        assert_eq!(words, ((1100 - base.0) as usize) / 64 + 1);
        let b = BitmapSet::from_tidlist(&t, base, words);
        assert_eq!(b.to_tidlist(), t);
        assert_eq!(b.byte_size(), words as u64 * 8);
    }

    #[test]
    fn empty_frame_and_empty_lists() {
        let e = TidList::new();
        let (base, words) = BitmapSet::frame_of([&e, &e]);
        assert_eq!((base, words), (Tid(0), 0));
        let b = BitmapSet::from_tidlist(&e, base, words);
        assert_eq!(b.support(), 0);
        assert_eq!(and(&b, &b).support(), 0);
        assert_eq!(b.join(&b, Some(1), &mut OpMeter::new()), None);
        assert!(b.join(&b, Some(0), &mut OpMeter::new()).is_some());
    }

    #[test]
    fn bounded_is_none_iff_infrequent() {
        let (ba, bb, truth) = pair(
            &(0..200).collect::<Vec<_>>(),
            &(0..400).filter(|x| x % 2 == 0).collect::<Vec<_>>(),
        );
        let s = truth.support();
        assert!(s > 0);
        for minsup in [0, 1, s - 1, s] {
            assert_eq!(
                ba.join(&bb, Some(minsup), &mut OpMeter::new())
                    .map(|r| r.support()),
                Some(s),
                "minsup {minsup}"
            );
        }
        assert_eq!(ba.join(&bb, Some(s + 1), &mut OpMeter::new()), None);
    }

    #[test]
    fn bounded_bails_early_on_hopeless_joins() {
        // Two disjoint halves of a wide window: with a high minsup the
        // word bound trips long before the last word.
        let a: Vec<u32> = (0..6400).collect();
        let b: Vec<u32> = (6400..12800).collect();
        let (ba, bb, _) = pair(&a, &b);
        let mut bounded = OpMeter::new();
        let mut full = OpMeter::new();
        // The word bound credits 64 possible bits per remaining word, so
        // with minsup = |a| it trips right after a's last populated word
        // (~halfway through the 200-word frame) instead of walking b's
        // empty half too.
        assert_eq!(ba.join(&bb, Some(6400), &mut bounded), None);
        ba.join(&bb, None, &mut full);
        assert!(
            bounded.tid_cmp <= full.tid_cmp / 2 + 2,
            "bound should save word ops: {} vs {}",
            bounded.tid_cmp,
            full.tid_cmp
        );
    }

    #[test]
    fn fold_join_chains_pairwise() {
        // Bitmaps are prefix-free: the default pairwise fold is exact.
        let lists: Vec<TidList> = [2u32, 3, 5]
            .iter()
            .map(|&k| TidList::of(&(0..120).filter(|x| x % k != 1).collect::<Vec<_>>()))
            .collect();
        let (base, words) = BitmapSet::frame_of(lists.iter());
        let maps: Vec<BitmapSet> = lists
            .iter()
            .map(|t| BitmapSet::from_tidlist(t, base, words))
            .collect();
        let truth = lists[1..].iter().fold(lists[0].clone(), |a, t| {
            a.join(t, None, &mut OpMeter::new()).unwrap()
        });
        let rest: Vec<&BitmapSet> = maps[1..].iter().collect();
        let folded = maps[0].fold_join(&rest, None, &mut OpMeter::new());
        assert_eq!(folded.map(|b| b.to_tidlist()), Some(truth.clone()));
        for minsup in 1..=truth.support() + 2 {
            assert_eq!(
                maps[0]
                    .fold_join(&rest, Some(minsup), &mut OpMeter::new())
                    .map(|b| b.support()),
                (truth.support() >= minsup).then_some(truth.support()),
                "minsup {minsup}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sharing one frame")]
    fn mismatched_frames_panic() {
        let a = BitmapSet::from_tidlist(&TidList::of(&[1]), Tid(0), 1);
        let b = BitmapSet::from_tidlist(&TidList::of(&[1]), Tid(0), 2);
        and(&a, &b);
    }

    #[test]
    fn tid_u32_max_fits_in_frame() {
        let t = TidList::of(&[u32::MAX - 1, u32::MAX]);
        let (base, words) = BitmapSet::frame_of([&t]);
        let b = BitmapSet::from_tidlist(&t, base, words);
        assert_eq!(b.to_tidlist(), t);
        assert_eq!(and(&b, &b).to_tidlist(), t);
    }
}
