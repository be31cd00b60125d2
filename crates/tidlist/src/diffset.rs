//! Diffsets — the d-Eclat extension of the paper's tid-list clustering.
//!
//! Zaki's follow-up work ("Fast Vertical Mining Using Diffsets", KDD 2003)
//! keeps, for an itemset `P ∪ {x}`, the *difference* `d(Px) = t(P) − t(x)`
//! instead of the intersection `t(Px)`. Supports then obey
//!
//! ```text
//! support(Pxy) = support(Px) − |d(Pxy)|,   d(Pxy) = d(Py) − d(Px)
//! ```
//!
//! Deep in the lattice diffsets shrink much faster than tid-lists, cutting
//! memory and intersection cost. The paper lists better memory utilization
//! as ongoing work (§5.3, §9); this module implements that extension and
//! the `ablation` bench compares both representations.

use crate::TidList;
use mining_types::OpMeter;

/// An itemset's vertical representation in diffset form: the support count
/// plus the tids of the *prefix* that do **not** contain the itemset.
///
/// The miner runs diffsets as the [`crate::AdaptiveSet::Diff`] arm (fuel
/// `0` switches at the first join below `L2`), which is also where the
/// multi-way look-ahead fold over diffsets lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffSet {
    /// `d(P x)` — tids in `t(P)` but not in `t(P x)`.
    pub diff: TidList,
    /// Absolute support of the itemset this diffset represents.
    pub support: u32,
}

impl DiffSet {
    /// Root conversion: a 2-itemset's diffset relative to its first item,
    /// `d(xy) = t(x) − t(y)` with `support(xy) = |t(x)| − |d(xy)|`.
    ///
    /// With `minsup = Some(s)` the difference stops once it grows past
    /// `|t(x)| − s` and returns `None` exactly when `support(xy) < s` —
    /// the §5.3 budget argument of [`DiffSet::join`].
    pub fn from_tidlists(
        t_prefix: &TidList,
        t_ext: &TidList,
        minsup: Option<u32>,
        meter: &mut OpMeter,
    ) -> Option<DiffSet> {
        subtract(t_prefix.support(), t_prefix, t_ext, minsup, meter)
    }

    /// Join two diffsets sharing the same prefix `P`: given `d(Px)` (self)
    /// and `d(Py)` (other) with `x < y`, produce `d(Pxy) = d(Py) − d(Px)`
    /// and `support(Pxy) = support(Px) − |d(Pxy)|`.
    ///
    /// With `minsup = Some(s)` the join stops as soon as the diffset grows
    /// past `support(Px) − s` and returns `None` exactly when
    /// `support(Pxy) < s`.
    pub fn join(
        &self,
        other: &DiffSet,
        minsup: Option<u32>,
        meter: &mut OpMeter,
    ) -> Option<DiffSet> {
        subtract(self.support, &other.diff, &self.diff, minsup, meter)
    }

    /// Serialized size in bytes: the diff tids plus the support word —
    /// what the cost model charges for shipping this representation.
    pub fn byte_size(&self) -> u64 {
        self.diff.byte_size() + 4
    }
}

/// The diffset `a − b` of an itemset whose parent has support `parent`:
/// its support is `parent − |a − b|`, so with `minsup = Some(s)` the
/// difference may grow to at most `parent − s` elements.
fn subtract(
    parent: u32,
    a: &TidList,
    b: &TidList,
    minsup: Option<u32>,
    meter: &mut OpMeter,
) -> Option<DiffSet> {
    let budget = match minsup {
        Some(s) if parent < s => return None,
        Some(s) => Some((parent - s) as usize),
        None => None,
    };
    let diff = a.difference(b, budget, meter)?;
    Some(DiffSet {
        support: parent - diff.support(),
        diff,
    })
}

/// Cross-check helper: reconstruct `t(Px)` from `t(P)` and `d(Px)`.
pub fn reconstruct_tidlist(t_prefix: &TidList, d: &DiffSet) -> TidList {
    t_prefix
        .difference(&d.diff, None, &mut OpMeter::new())
        .expect("unbounded difference always completes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meet(a: &TidList, b: &TidList) -> TidList {
        a.intersect(b, None, &mut OpMeter::new()).unwrap()
    }

    fn root(tx: &TidList, ty: &TidList) -> DiffSet {
        DiffSet::from_tidlists(tx, ty, None, &mut OpMeter::new()).unwrap()
    }

    #[test]
    fn from_tidlists_basic() {
        let tx = TidList::of(&[1, 2, 3, 4, 5]);
        let ty = TidList::of(&[2, 4, 6]);
        let d = root(&tx, &ty);
        assert_eq!(d.diff, TidList::of(&[1, 3, 5]));
        assert_eq!(d.support, 2); // {2,4}
        assert_eq!(reconstruct_tidlist(&tx, &d), TidList::of(&[2, 4]));
    }

    #[test]
    fn join_matches_tidlist_semantics() {
        // Prefix P = A. t(A)=1..10, t(B)={1,2,3,4,5,7}, t(C)={2,4,5,8,9}
        let ta = TidList::of(&(1..=10).collect::<Vec<_>>());
        let tb = TidList::of(&[1, 2, 3, 4, 5, 7]);
        let tc = TidList::of(&[2, 4, 5, 8, 9]);
        let dabc = root(&ta, &tb)
            .join(&root(&ta, &tc), None, &mut OpMeter::new())
            .unwrap();
        // Ground truth via tid-lists:
        let tab = meet(&ta, &tb);
        let tabc = meet(&tab, &tc);
        assert_eq!(dabc.support, tabc.support());
        assert_eq!(reconstruct_tidlist(&tab, &dabc), tabc);
    }

    #[test]
    fn bounded_join_agrees_with_unbounded() {
        let ta = TidList::of(&(0..50).collect::<Vec<_>>());
        let tb = TidList::of(&(0..50).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        let tc = TidList::of(&(0..50).filter(|x| x % 3 == 0).collect::<Vec<_>>());
        let (dab, dac) = (root(&ta, &tb), root(&ta, &tc));
        let full = dab.join(&dac, None, &mut OpMeter::new()).unwrap();
        for minsup in 1..=full.support {
            let bounded = dab.join(&dac, Some(minsup), &mut OpMeter::new());
            assert_eq!(bounded, Some(full.clone()), "minsup {minsup}");
        }
        assert_eq!(
            dab.join(&dac, Some(full.support + 1), &mut OpMeter::new()),
            None
        );
    }

    #[test]
    fn bounded_join_short_circuits_below_prefix_support() {
        let d = DiffSet {
            diff: TidList::new(),
            support: 5,
        };
        let other = DiffSet {
            diff: TidList::of(&(0..100).collect::<Vec<_>>()),
            support: 5,
        };
        let mut m = OpMeter::new();
        assert_eq!(
            d.join(&other, Some(6), &mut m),
            None,
            "prefix support below minsup"
        );
        assert_eq!(m.tid_cmp, 0, "decided before any comparison");
    }

    #[test]
    fn join_counts_exact_comparisons() {
        let ta = TidList::of(&(0..100).collect::<Vec<_>>());
        let tb = TidList::of(&(0..100).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        let tc = TidList::of(&(0..100).filter(|x| x % 3 == 0).collect::<Vec<_>>());
        let (dab, dac) = (root(&ta, &tb), root(&ta, &tc));
        let mut m = OpMeter::new();
        let full = dab.join(&dac, None, &mut m).unwrap();
        // One three-way probe per advance: never more than both inputs.
        assert!(m.tid_cmp > 0);
        assert!(m.tid_cmp <= (dab.diff.len() + dac.diff.len()) as u64);
        // The bounded join agrees and never does more work.
        let mut mb = OpMeter::new();
        assert_eq!(dab.join(&dac, Some(1), &mut mb), Some(full));
        assert!(mb.tid_cmp <= m.tid_cmp);
    }

    #[test]
    fn bounded_root_conversion_agrees_with_full() {
        let tx = TidList::of(&(0..40).collect::<Vec<_>>());
        let ty = TidList::of(&(0..40).filter(|x| x % 4 != 0).collect::<Vec<_>>());
        let mut m = OpMeter::new();
        let full = DiffSet::from_tidlists(&tx, &ty, None, &mut m).unwrap();
        assert!(m.tid_cmp > 0);
        for minsup in 1..=full.support {
            assert_eq!(
                DiffSet::from_tidlists(&tx, &ty, Some(minsup), &mut OpMeter::new()),
                Some(full.clone()),
                "minsup {minsup}"
            );
        }
        assert_eq!(
            DiffSet::from_tidlists(&tx, &ty, Some(full.support + 1), &mut OpMeter::new()),
            None
        );
    }

    #[test]
    fn byte_size_counts_the_support_word() {
        let d = DiffSet {
            diff: TidList::of(&[4, 5]),
            support: 9,
        };
        assert_eq!(d.byte_size(), 12); // 2 tids + support word
    }
}
