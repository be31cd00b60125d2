//! Minsup boundary audit (§5.3 short-circuit): for **every** `TidSet`
//! representation, a candidate whose support is *exactly* `minsup` must
//! survive a bounded `join`, and one at `minsup − 1` must be pruned — the
//! trait contract is `None` **iff** `support < minsup`, with no off-by-one
//! in any kernel's early-bail arithmetic.

use mining_types::OpMeter;
use tidlist::diffset::DiffSet;
use tidlist::{AdaptiveSet, BitmapSet, GallopList, TidList, TidSet};

/// Exercise one representation's pairwise + fold bounded joins around the
/// exact threshold. `s` is the true support of `a ⋈ b`; `s_fold` of
/// `a ⋈ b ⋈ c`.
fn check_boundary<S: TidSet>(label: &str, a: &S, b: &S, c: &S, s: u32, s_fold: u32) {
    let m = &mut OpMeter::new();
    let support = |j: Option<S>| j.map(|j| j.support());
    assert_eq!(support(a.join(b, None, m)), Some(s), "{label}: setup");
    // support == minsup: must survive, with the full (untruncated) result.
    assert_eq!(
        support(a.join(b, Some(s), m)),
        Some(s),
        "{label}: candidate at exactly minsup={s} must survive"
    );
    // support == minsup − 1 (i.e. minsup = s + 1): must be pruned.
    assert!(
        a.join(b, Some(s + 1), m).is_none(),
        "{label}: support {s} must be pruned at minsup={}",
        s + 1
    );
    // A generous threshold never changes the surviving result's support.
    if s > 0 {
        assert_eq!(
            support(a.join(b, Some(s - 1), m)),
            Some(s),
            "{label}: slack minsup={} must not alter the result",
            s - 1
        );
    }
    // Same contract through the look-ahead fold (`fold_join`).
    assert_eq!(
        support(a.fold_join(&[b, c], None, m)),
        Some(s_fold),
        "{label}: fold setup"
    );
    assert_eq!(
        support(a.fold_join(&[b, c], Some(s_fold), m)),
        Some(s_fold),
        "{label}: fold candidate at exactly minsup={s_fold} must survive"
    );
    assert!(
        a.fold_join(&[b, c], Some(s_fold + 1), m).is_none(),
        "{label}: fold support {s_fold} must be pruned at minsup={}",
        s_fold + 1
    );
}

#[test]
fn every_representation_honours_the_exact_threshold() {
    // Class prefix P covers 0..100; members are sub-ranges of it.
    // A∩B = 30..60 (support 30); A∩B∩C = 30..55 (support 25).
    let tp = TidList::from_unsorted(0..100u32);
    let ta = TidList::from_unsorted(0..60u32);
    let tb = TidList::from_unsorted(30..90u32);
    let tc = TidList::from_unsorted(10..55u32);
    let (s, s_fold) = (30, 25);

    check_boundary("tidlist", &ta, &tb, &tc, s, s_fold);
    check_boundary(
        "gallop",
        &GallopList(ta.clone()),
        &GallopList(tb.clone()),
        &GallopList(tc.clone()),
        s,
        s_fold,
    );
    // Diffset members of class P, as the miner holds them.
    let diff = |t: &TidList| {
        AdaptiveSet::Diff(DiffSet::from_tidlists(&tp, t, None, &mut OpMeter::new()).unwrap())
    };
    check_boundary("diffset", &diff(&ta), &diff(&tb), &diff(&tc), s, s_fold);
    // Adaptive at every switch point reachable in two joins: pure-diffset
    // (fuel 0), switch-on-second-join (fuel 1), never-switch (fuel 9).
    for fuel in [0, 1, 9] {
        check_boundary(
            &format!("adaptive(fuel={fuel})"),
            &AdaptiveSet::with_fuel(ta.clone(), fuel),
            &AdaptiveSet::with_fuel(tb.clone(), fuel),
            &AdaptiveSet::with_fuel(tc.clone(), fuel),
            s,
            s_fold,
        );
    }
    let (base, words) = BitmapSet::frame_of([&ta, &tb, &tc]);
    check_boundary(
        "bitmap",
        &BitmapSet::from_tidlist(&ta, base, words),
        &BitmapSet::from_tidlist(&tb, base, words),
        &BitmapSet::from_tidlist(&tc, base, words),
        s,
        s_fold,
    );
}

/// The same audit on a *skewed* pair, so the galloping code path (not
/// just the merge) faces the exact threshold: a short list against a long
/// one where the intersection support is tiny and known.
#[test]
fn skewed_operands_honour_the_exact_threshold() {
    // |long| = 4096, |short| = 3, intersection = {128, 2048} (support 2).
    let long = GallopList(TidList::from_unsorted(0..4096u32));
    let short = GallopList(TidList::from_unsorted([128u32, 2048, 5000]));
    let m = &mut OpMeter::new();
    assert_eq!(
        short.join(&long, Some(2), m).map(|j| j.support()),
        Some(2),
        "support-2 candidate at minsup=2 must survive"
    );
    assert!(
        short.join(&long, Some(3), m).is_none(),
        "support 2 must be pruned at minsup=3"
    );
}
