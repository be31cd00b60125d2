//! Property-based tests for the tid-list kernels: every kernel must agree
//! with a naive `BTreeSet` model, and the short-circuit must be *exactly*
//! a frequency test, never changing which itemsets qualify.

use mining_types::OpMeter;
use proptest::prelude::*;
use std::collections::BTreeSet;
use tidlist::diffset::{reconstruct_tidlist, DiffSet};
use tidlist::TidList;

fn tidset() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..500, 0..120)
}

fn model(v: &[u32]) -> BTreeSet<u32> {
    v.iter().copied().collect()
}

fn to_raw(t: &TidList) -> Vec<u32> {
    t.tids().iter().map(|t| t.0).collect()
}

fn meet(a: &TidList, b: &TidList) -> TidList {
    a.intersect(b, None, &mut OpMeter::new()).unwrap()
}

proptest! {
    #[test]
    fn from_unsorted_sorts_dedups(v in tidset()) {
        let t = TidList::from_unsorted(v.iter().copied());
        let m: Vec<u32> = model(&v).into_iter().collect();
        prop_assert_eq!(to_raw(&t), m);
    }

    #[test]
    fn intersect_matches_set_model(a in tidset(), b in tidset()) {
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let expect: Vec<u32> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(to_raw(&meet(&ta, &tb)), expect.clone());
        prop_assert_eq!(to_raw(&ta.intersect_adaptive(&tb, &mut OpMeter::new())), expect);
        // commutativity
        prop_assert_eq!(meet(&ta, &tb), meet(&tb, &ta));
    }

    #[test]
    fn union_difference_match_set_model(a in tidset(), b in tidset()) {
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let u: Vec<u32> = model(&a).union(&model(&b)).copied().collect();
        let d: Vec<u32> = model(&a).difference(&model(&b)).copied().collect();
        let m = &mut OpMeter::new();
        prop_assert_eq!(to_raw(&ta.union(&tb, m)), u);
        prop_assert_eq!(to_raw(&ta.difference(&tb, None, m).unwrap()), d.clone());
        // A budget is exactly a size filter on the difference.
        for budget in [0usize, 1, 5, 40] {
            let bounded = ta.difference(&tb, Some(budget), m).map(|t| to_raw(&t));
            prop_assert_eq!(bounded, (d.len() <= budget).then(|| d.clone()));
        }
    }

    #[test]
    fn bounded_is_exactly_a_frequency_filter(a in tidset(), b in tidset(), minsup in 1u32..40) {
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let full = meet(&ta, &tb);
        match ta.intersect(&tb, Some(minsup), &mut OpMeter::new()) {
            Some(list) => {
                prop_assert!(full.support() >= minsup);
                prop_assert_eq!(list, full);
            }
            None => {
                prop_assert!(full.support() < minsup);
            }
        }
    }

    #[test]
    fn split_partitions(a in tidset(), bound in 0u32..600) {
        let ta = TidList::from_unsorted(a.iter().copied());
        let (lo, hi) = ta.split_at_tid(mining_types::Tid(bound));
        prop_assert!(lo.tids().iter().all(|t| t.0 < bound));
        prop_assert!(hi.tids().iter().all(|t| t.0 >= bound));
        let mut merged = lo.clone();
        merged.append_partial(&hi);
        prop_assert_eq!(merged, ta);
    }

    #[test]
    fn diffset_join_agrees_with_tidlist_join(
        pa in tidset(), pb in tidset(), pc in tidset()
    ) {
        // Force t(B), t(C) ⊆ t(A) so the diffset precondition (same prefix)
        // holds: treat A as the common prefix.
        let ta = TidList::from_unsorted(pa.iter().copied());
        let tb = meet(&ta, &TidList::from_unsorted(pb.iter().copied()));
        let tc = meet(&ta, &TidList::from_unsorted(pc.iter().copied()));
        let m = &mut OpMeter::new();
        let dab = DiffSet::from_tidlists(&ta, &tb, None, m).unwrap();
        let dac = DiffSet::from_tidlists(&ta, &tc, None, m).unwrap();
        prop_assert_eq!(dab.support, tb.support());
        let dabc = dab.join(&dac, None, m).unwrap();
        let tab = meet(&ta, &tb);
        let tabc = meet(&tab, &tc);
        prop_assert_eq!(dabc.support, tabc.support());
        prop_assert_eq!(reconstruct_tidlist(&tab, &dabc), tabc.clone());
        // bounded join agrees wherever it returns Some
        for minsup in [1u32, 2, 5, 20] {
            match dab.join(&dac, Some(minsup), m) {
                Some(d) => {
                    prop_assert!(tabc.support() >= minsup);
                    prop_assert_eq!(d.support, tabc.support());
                }
                None => prop_assert!(tabc.support() < minsup),
            }
        }
    }

    #[test]
    fn metered_kernels_report_positive_work(a in tidset(), b in tidset()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let ta = TidList::from_unsorted(a.iter().copied());
        let tb = TidList::from_unsorted(b.iter().copied());
        let mut m = OpMeter::new();
        let r1 = ta.intersect(&tb, None, &mut m);
        prop_assert_eq!(r1, Some(meet(&ta, &tb)));
        prop_assert!(m.tid_cmp >= 1);
        prop_assert!(m.tid_cmp as usize <= ta.len() + tb.len());
    }
}
