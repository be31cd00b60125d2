//! Kernel-equivalence properties on *adversarial* inputs: galloping and
//! bitmap joins must agree element-for-element with the two-pointer
//! merge, and every bounded join must be exactly a frequency filter —
//! including on the shapes that historically break search-based kernels
//! (empty operands, single elements, all-equal runs, disjoint tails, and
//! tids at `u32::MAX` where `hi = base + stride + 1` style bounds can
//! overflow or clamp wrong).

use mining_types::{OpMeter, Tid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tidlist::{BitmapSet, GallopList, TidList, TidSet};

/// One tid-list drawn from a menu of adversarial shapes.
fn adversarial() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Empty.
        Just(Vec::new()),
        // Single element, anywhere in the tid space (incl. u32::MAX).
        prop_oneof![
            Just(0u32),
            Just(1),
            Just(63),
            Just(64),
            Just(u32::MAX - 1),
            Just(u32::MAX)
        ]
        .prop_map(|x| vec![x]),
        // All-equal run (dedups to a single element).
        (any::<u32>(), 1usize..64).prop_map(|(x, n)| vec![x; n]),
        // Dense low range: many repeats and adjacencies.
        proptest::collection::vec(0u32..96, 0..160),
        // Sparse wide range, biased to word boundaries and the top of
        // the tid space.
        proptest::collection::vec(
            prop_oneof![
                0u32..1024,
                (0u32..64).prop_map(|k| k * 64),
                (0u32..200).prop_map(|k| u32::MAX - k),
            ],
            0..96
        ),
        // Long skew: one long ramp (gallop's favourite prey).
        (0u32..512, 1u32..8, 0usize..256).prop_map(|(start, step, n)| (0..n)
            .map(|i| start + i as u32 * step)
            .collect::<Vec<u32>>()),
    ]
}

/// A pair of lists; sometimes with a shared prefix and *disjoint tails*
/// (the shape where a final-block galloping bound that overshoots keeps
/// probing past its operand's real end).
fn adversarial_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    prop_oneof![
        (adversarial(), adversarial()).prop_map(|(a, b)| (a, b)),
        (adversarial(), 0usize..64, 0usize..64).prop_map(|(shared, n_a, n_b)| {
            let mut a = shared.clone();
            let mut b = shared;
            a.extend((0..n_a as u32).map(|i| 2_000_000 + 2 * i));
            b.extend((0..n_b as u32).map(|i| 2_000_001 + 2 * i));
            (a, b)
        }),
    ]
}

fn raw(t: &TidList) -> Vec<u32> {
    t.tids().iter().map(|t| t.0).collect()
}

fn meet(a: &TidList, b: &TidList) -> TidList {
    a.intersect(b, None, &mut OpMeter::new()).unwrap()
}

/// Tids of a `words`-word frame at `base`: each tid of one random band
/// of the frame is kept with one random probability, so the bitmap join's
/// bound fails anywhere from the first word to never.
fn banded(rng: &mut StdRng, base: u64, words: usize) -> TidList {
    let bits = 64 * words as u64;
    let (x, y) = (rng.random_range(0..=bits), rng.random_range(0..=bits));
    let percent = rng.random_range(0u32..=100);
    TidList::from_unsorted(
        (x.min(y)..x.max(y))
            .filter(|_| rng.random_range(0u32..100) < percent)
            .map(|off| (base + off) as u32),
    )
}

/// The per-word kernel's meter: `k + 1` for the first word `k` whose
/// bound `count + 64·(words − k − 1) < minsup` fails, else `words`.
fn per_word_ops(per_word: &[u64], minsup: u32) -> u64 {
    let words = per_word.len() as u64;
    let mut count = 0;
    for (k, c) in (0..).zip(per_word) {
        count += c;
        if count + 64 * (words - k - 1) < u64::from(minsup) {
            return k + 1;
        }
    }
    words
}

proptest! {
    /// The adaptive kernel (galloping on skewed operands) is a drop-in
    /// replacement for the two-pointer merge, in either operand order.
    #[test]
    fn adaptive_kernel_matches_two_pointer(ab in adversarial_pair()) {
        let (a, b) = ab;
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let expect = raw(&meet(&ta, &tb));
        let mut m = OpMeter::new();
        prop_assert_eq!(raw(&ta.intersect_adaptive(&tb, &mut m)), expect.clone());
        prop_assert_eq!(raw(&tb.intersect_adaptive(&ta, &mut m)), expect);
    }

    /// The bounded merge is *exactly* a frequency filter: `Some` iff the
    /// full intersection meets `minsup`, with identical contents.
    #[test]
    fn bounded_kernel_is_a_frequency_filter(
        ab in adversarial_pair(),
        minsup in 1u32..48,
    ) {
        let (a, b) = ab;
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let full = meet(&ta, &tb);
        match ta.intersect(&tb, Some(minsup), &mut OpMeter::new()) {
            Some(list) => {
                prop_assert!(full.support() >= minsup);
                prop_assert_eq!(&list, &full);
            }
            None => prop_assert!(full.support() < minsup),
        }
    }

    /// The gallop wrapper honours the same contract through the trait
    /// surface used by the mining kernel.
    #[test]
    fn gallop_wrapper_agrees(ab in adversarial_pair(), minsup in 1u32..48) {
        let (a, b) = ab;
        let ta = GallopList(TidList::from_unsorted(a.iter().copied()));
        let tb = GallopList(TidList::from_unsorted(b.iter().copied()));
        let full = meet(&ta.0, &tb.0);
        let m = &mut OpMeter::new();
        prop_assert_eq!(&ta.join(&tb, None, m).unwrap().0, &full);
        match ta.join(&tb, Some(minsup), m) {
            Some(j) => {
                prop_assert!(full.support() >= minsup);
                prop_assert_eq!(&j.0, &full);
            }
            None => prop_assert!(full.support() < minsup),
        }
    }

    /// Bitmap joins agree with the merge on any shared frame, and the
    /// tid-list round-trip is lossless — including at `u32::MAX` when the
    /// lists stay within one frame.
    #[test]
    fn bitmap_join_matches_merge(
        a in proptest::collection::vec(0u32..2048, 0..128),
        b in proptest::collection::vec(0u32..2048, 0..128),
        offset in prop_oneof![Just(0u32), Just(64), Just(4096), Just(u32::MAX - 2048)],
        minsup in 1u32..48,
    ) {
        let shift = |v: &[u32]| TidList::from_unsorted(v.iter().map(|&x| x + offset));
        let (ta, tb) = (shift(&a), shift(&b));
        let (base, words) = BitmapSet::frame_of([&ta, &tb]);
        let (ba, bb) = (
            BitmapSet::from_tidlist(&ta, base, words),
            BitmapSet::from_tidlist(&tb, base, words),
        );
        prop_assert_eq!(ba.to_tidlist(), ta.clone());
        let full = meet(&ta, &tb);
        let m = &mut OpMeter::new();
        prop_assert_eq!(ba.join(&bb, None, m).unwrap().to_tidlist(), full.clone());
        match ba.join(&bb, Some(minsup), m) {
            Some(j) => {
                prop_assert!(full.support() >= minsup);
                prop_assert_eq!(j.to_tidlist(), full);
            }
            None => prop_assert!(full.support() < minsup),
        }
    }

    /// Bitmap joins over frames of one to five 64-word chunks, most with a
    /// partial tail, agree with the merge under every bound, and meter
    /// exactly one `tid_cmp` per word up to the first word whose §5.3
    /// bound fails.
    #[test]
    fn bitmap_join_is_exact_across_chunks(
        words in prop_oneof![
            Just(63usize), Just(64), Just(65), Just(128), Just(129), 1usize..=313
        ],
        at_top in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let base = if at_top { (1u64 << 32) - 64 * words as u64 } else { 0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let (ta, tb) = (
            banded(&mut rng, base, words),
            banded(&mut rng, base, words),
        );
        let base = Tid(base as u32);
        let (ba, bb) = (
            BitmapSet::from_tidlist(&ta, base, words),
            BitmapSet::from_tidlist(&tb, base, words),
        );
        let full = meet(&ta, &tb);
        let support = full.support();
        let mut per_word = vec![0u64; words];
        for t in full.tids() {
            per_word[((t.0 - base.0) / 64) as usize] += 1;
        }
        // Bounds at the support fail only at the last word (or where the
        // rest of the frame is full); a bound drawn across the frame's
        // bits fails anywhere.
        let anywhere = rng.random_range(0..=64 * words as u32 + 1);
        let bounds = [None, Some(0), support.checked_sub(1), Some(support), Some(support + 1)];
        for minsup in bounds.into_iter().chain([Some(anywhere)]) {
            let m = &mut OpMeter::new();
            let joined = ba.join(&bb, minsup, m);
            let s = minsup.unwrap_or(0);
            match &joined {
                Some(j) => {
                    prop_assert!(support >= s);
                    prop_assert_eq!(j.support(), support);
                    prop_assert_eq!(&j.to_tidlist(), &full);
                }
                None => prop_assert!(support < s, "minsup {:?}", minsup),
            }
            prop_assert_eq!(m.tid_cmp, per_word_ops(&per_word, s), "minsup {:?}", minsup);
        }
    }

    /// Associativity-of-agreement across a 3-way chain: folding joins in
    /// either kernel yields the same set (the shape `fold_join` relies on).
    #[test]
    fn three_way_chain_agrees(
        a in adversarial(), b in adversarial(), c in adversarial(),
    ) {
        let (ta, tb, tc) = (
            TidList::from_unsorted(a.iter().copied()),
            TidList::from_unsorted(b.iter().copied()),
            TidList::from_unsorted(c.iter().copied()),
        );
        let merge = meet(&meet(&ta, &tb), &tc);
        let m = &mut OpMeter::new();
        let galloped = ta.intersect_adaptive(&tb, m).intersect_adaptive(&tc, m);
        prop_assert_eq!(galloped, merge);
    }
}
