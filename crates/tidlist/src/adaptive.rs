//! [`AdaptiveSet`]: a [`TidSet`] that starts as a tid-list and switches
//! to the diffset representation mid-recursion.
//!
//! Tid-lists are compact near the top of the lattice (short lists, sparse
//! overlap); diffsets win deep down, where siblings share almost all of
//! their tids and the differences are near-empty (§5.3's
//! memory-utilization remark, Zaki's d-Eclat follow-up). `AdaptiveSet`
//! carries a per-member `fuel` counter: each tid-list join burns one unit,
//! and the join performed at zero fuel *converts* — it produces
//! `d(P ∪ xy) = t(Px) − t(Py)` via [`DiffSet::from_tidlists`], after
//! which the subtree continues purely in diffset form. Fuel `0` therefore
//! means "switch at the first join", i.e. a pure-diffset run, and a fuel
//! larger than the recursion depth never switches at all.
//!
//! All members of one equivalence class share the same fuel (they were
//! produced by the same number of joins), so within a class a join never
//! sees mixed representations. Mixed operands can still reach the API
//! (look-ahead folds, external callers), and are handled exactly rather
//! than rejected: for a tid side `t ⊆ t(P)` and a diffset side `d` over
//! the same prefix, `t ∩ t(other) = t − d.diff`.

use crate::diffset::DiffSet;
use crate::set::{meets, TidSet};
use crate::TidList;
use mining_types::OpMeter;

/// Vertical representation that switches from tid-lists to diffsets after
/// a configured number of join levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptiveSet {
    /// Still in tid-list form; `fuel` joins remain before the switch.
    Tids {
        /// The member's tid-list.
        tids: TidList,
        /// Remaining tid-list joins before converting to diffsets.
        fuel: u32,
    },
    /// Switched: diffset relative to the prefix at conversion depth.
    Diff(DiffSet),
}

impl AdaptiveSet {
    /// Wrap an `L2` member's tid-list with a switch budget. `fuel = 0`
    /// converts on the very first join (pure d-Eclat below `L2`).
    pub fn with_fuel(tids: TidList, fuel: u32) -> AdaptiveSet {
        AdaptiveSet::Tids { tids, fuel }
    }

    /// True once the member has switched to diffset form.
    pub fn is_diffset(&self) -> bool {
        matches!(self, AdaptiveSet::Diff(_))
    }
}

/// Fold accumulator: tracks the representation *per join depth* so a
/// `TidList ∩ TidList` step, a `TidList → DiffSet` conversion step, and a
/// `DiffSet` difference step can mix in one look-ahead fold.
enum Acc {
    /// Still in tid-list form with remaining fuel.
    Tids { tids: TidList, fuel: u32 },
    /// Converted mid-fold: `base` is the accumulator's tid-list at
    /// conversion time (itemset `B`); `diff` accumulates relative to `B`,
    /// so the candidate's tids are `base − diff`.
    Based { base: TidList, diff: TidList },
    /// `self` started in diffset form `d(Px₁)`: `diff` accumulates
    /// `∪ (d(Px_j) − d(Px₁))`, i.e. the candidate's diff relative to `Px₁`.
    Rel { diff: TidList },
}

/// `a − b` without a budget, which never bails.
fn minus(a: &TidList, b: &TidList, meter: &mut OpMeter) -> TidList {
    a.difference(b, None, meter)
        .expect("unbounded difference always completes")
}

impl TidSet for AdaptiveSet {
    fn support(&self) -> u32 {
        match self {
            AdaptiveSet::Tids { tids, .. } => tids.support(),
            AdaptiveSet::Diff(d) => d.support,
        }
    }

    fn byte_size(&self) -> u64 {
        match self {
            AdaptiveSet::Tids { tids, .. } => tids.byte_size(),
            AdaptiveSet::Diff(d) => d.byte_size(),
        }
    }

    /// Same-representation pairs are the class invariant's common case:
    /// a tid-list intersection while fuel lasts, the conversion at zero
    /// fuel, and a diffset join after it. Mixed pairs are legal (look-ahead
    /// folds mix depths) and resolve exactly via the shared prefix `P`:
    /// because `t ⊆ t(P)` and `t(other) = t(P) − d.diff`, the join is
    /// `t − d.diff` for either operand order, burning the tid side's fuel.
    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        match (self, other) {
            (AdaptiveSet::Tids { tids: ta, fuel }, AdaptiveSet::Tids { tids: tb, .. })
                if *fuel > 0 =>
            {
                ta.intersect(tb, minsup, meter)
                    .map(|tids| AdaptiveSet::Tids {
                        tids,
                        fuel: fuel - 1,
                    })
            }
            (AdaptiveSet::Tids { tids: ta, .. }, AdaptiveSet::Tids { tids: tb, .. }) => {
                DiffSet::from_tidlists(ta, tb, minsup, meter).map(AdaptiveSet::Diff)
            }
            (AdaptiveSet::Diff(da), AdaptiveSet::Diff(db)) => {
                da.join(db, minsup, meter).map(AdaptiveSet::Diff)
            }
            (AdaptiveSet::Tids { tids, fuel }, AdaptiveSet::Diff(d))
            | (AdaptiveSet::Diff(d), AdaptiveSet::Tids { tids, fuel }) => {
                let tids = minus(tids, &d.diff, meter);
                meets(tids.support(), minsup).then(|| AdaptiveSet::Tids {
                    tids,
                    fuel: fuel.saturating_sub(1),
                })
            }
        }
    }

    fn is_switched(&self) -> bool {
        self.is_diffset()
    }

    /// Multi-way look-ahead fold with per-depth representation tracking.
    /// The pairwise default cannot do this (it would pair a converted
    /// accumulator with unconverted siblings), so each fold step burns one
    /// unit of fuel, matching the pairwise join semantics: a member with
    /// fuel `f` converts to diffset form at step `f + 1`.
    ///
    /// A diffset `self` uses the multi-way union identity, which keeps
    /// every operand relative to the shared prefix `P` (chaining pairwise
    /// diffset joins would subtract sets relative to different prefixes):
    ///
    /// ```text
    /// d(Px₁x₂…x_k) rel Px₁ = ∪ (d(Px_j) − d(Px₁))
    /// support(Px₁…x_k)     = support(Px₁) − |d(Px₁…x_k)|
    /// ```
    ///
    /// Unions only grow, so with `minsup = Some(s)` the fold bails as soon
    /// as the accumulated diffset proves the union below `s` (§5.3).
    fn fold_join(&self, rest: &[&Self], minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        if !meets(self.support(), minsup) {
            return None;
        }
        if rest.is_empty() {
            // Zero joins leave the operand unchanged.
            return Some(self.clone());
        }
        let d1 = match self {
            AdaptiveSet::Diff(d) => Some(d),
            AdaptiveSet::Tids { .. } => None,
        };
        let mut acc = match self {
            AdaptiveSet::Tids { tids, fuel } => Acc::Tids {
                tids: tids.clone(),
                fuel: *fuel,
            },
            AdaptiveSet::Diff(_) => Acc::Rel {
                diff: TidList::new(),
            },
        };
        // Every bounded arm below preserves "accumulator support >= s", so
        // the `base.support() - s` / `d1.support - s` budgets never
        // underflow.
        for &m in rest {
            acc = match (acc, m) {
                (Acc::Tids { tids, fuel }, AdaptiveSet::Tids { tids: tm, .. }) if fuel > 0 => {
                    Acc::Tids {
                        tids: tids.intersect(tm, minsup, meter)?,
                        fuel: fuel - 1,
                    }
                }
                (Acc::Tids { tids, .. }, AdaptiveSet::Tids { tids: tm, .. }) => {
                    // Conversion step: the join at zero fuel produces a
                    // diffset relative to the accumulator itself.
                    let d = DiffSet::from_tidlists(&tids, tm, minsup, meter)?;
                    Acc::Based {
                        base: tids,
                        diff: d.diff,
                    }
                }
                (Acc::Tids { tids, fuel }, AdaptiveSet::Diff(dm)) => {
                    // Mixed step: t ⊆ t(P) ⟹ t ∩ t(other) = t − d(other).
                    let t = minus(&tids, &dm.diff, meter);
                    if !meets(t.support(), minsup) {
                        return None;
                    }
                    Acc::Tids {
                        tids: t,
                        fuel: fuel.saturating_sub(1),
                    }
                }
                (Acc::Based { base, diff }, m) => {
                    // Candidate tids are base − diff; the next member
                    // removes base ∖ t_m (tid side) or base ∩ d_m (diff
                    // side) — unions only grow, so the §5.3 bail is sound.
                    let contrib = match m {
                        AdaptiveSet::Tids { tids: tm, .. } => minus(&base, tm, meter),
                        AdaptiveSet::Diff(dm) => base
                            .intersect(&dm.diff, None, meter)
                            .expect("unbounded intersection always completes"),
                    };
                    let diff = diff.union(&contrib, meter);
                    if minsup.is_some_and(|s| diff.support() > base.support() - s) {
                        return None;
                    }
                    Acc::Based { base, diff }
                }
                (Acc::Rel { diff }, m) => {
                    let d1 = d1.expect("Rel accumulator implies diffset self");
                    match m {
                        AdaptiveSet::Diff(dm) => {
                            let contrib = minus(&dm.diff, &d1.diff, meter);
                            let diff = diff.union(&contrib, meter);
                            if minsup.is_some_and(|s| diff.len() > (d1.support - s) as usize) {
                                return None;
                            }
                            Acc::Rel { diff }
                        }
                        AdaptiveSet::Tids { tids: tm, .. } => {
                            // Demote to tid form:
                            // t(C ∪ x) = t_m − d(Px₁) − acc_diff.
                            let t = minus(&minus(tm, &d1.diff, meter), &diff, meter);
                            if !meets(t.support(), minsup) {
                                return None;
                            }
                            Acc::Tids { tids: t, fuel: 0 }
                        }
                    }
                }
            };
        }
        Some(match acc {
            Acc::Tids { tids, fuel } => AdaptiveSet::Tids { tids, fuel },
            Acc::Based { base, diff } => AdaptiveSet::Diff(DiffSet {
                support: base.support() - diff.support(),
                diff,
            }),
            Acc::Rel { diff } => {
                let d1 = d1.expect("Rel accumulator implies diffset self");
                AdaptiveSet::Diff(DiffSet {
                    support: d1.support - diff.support(),
                    diff,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meet(a: &TidList, b: &TidList) -> TidList {
        a.intersect(b, None, &mut OpMeter::new()).unwrap()
    }

    fn join(a: &AdaptiveSet, b: &AdaptiveSet) -> AdaptiveSet {
        a.join(b, None, &mut OpMeter::new()).unwrap()
    }

    fn root(tx: &TidList, ty: &TidList) -> DiffSet {
        DiffSet::from_tidlists(tx, ty, None, &mut OpMeter::new()).unwrap()
    }

    fn lists() -> (TidList, TidList, TidList) {
        let ta = TidList::of(&(0..60).collect::<Vec<_>>());
        let tb = TidList::of(&(0..60).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        let tc = TidList::of(&(0..60).filter(|x| x % 3 == 0).collect::<Vec<_>>());
        (ta, tb, tc)
    }

    #[test]
    fn fuel_counts_down_then_switches() {
        let (ta, tb, tc) = lists();
        let a = AdaptiveSet::with_fuel(meet(&ta, &tb), 1);
        let b = AdaptiveSet::with_fuel(meet(&ta, &tc), 1);
        let j1 = join(&a, &b);
        assert!(!j1.is_diffset(), "fuel 1: first join stays tid-list");
        match &j1 {
            AdaptiveSet::Tids { fuel, .. } => assert_eq!(*fuel, 0),
            _ => unreachable!(),
        }
        // Second-level join (fuel exhausted) converts.
        let sibling = join(&AdaptiveSet::with_fuel(meet(&ta, &tb), 1), &b);
        let j2 = join(&j1, &sibling);
        assert!(j2.is_diffset(), "fuel 0: join converts to diffset");
    }

    #[test]
    fn supports_agree_with_pure_tidlists_across_fuel() {
        let (ta, tb, tc) = lists();
        let tab = meet(&ta, &tb);
        let tac = meet(&ta, &tc);
        let expected = meet(&tab, &tac).support();
        for fuel in [0u32, 1, 2, 10] {
            let a = AdaptiveSet::with_fuel(tab.clone(), fuel);
            let b = AdaptiveSet::with_fuel(tac.clone(), fuel);
            assert_eq!(join(&a, &b).support(), expected, "fuel {fuel}");
            for minsup in 1..=expected + 2 {
                let bounded = a
                    .join(&b, Some(minsup), &mut OpMeter::new())
                    .map(|s| s.support());
                assert_eq!(
                    bounded,
                    (expected >= minsup).then_some(expected),
                    "fuel {fuel} minsup {minsup}"
                );
            }
        }
    }

    #[test]
    fn diffset_joins_after_switch_agree() {
        let (ta, tb, tc) = lists();
        let a = AdaptiveSet::with_fuel(meet(&ta, &tb), 0);
        let b = AdaptiveSet::with_fuel(meet(&ta, &tc), 0);
        let ab = join(&a, &b); // converts
        assert!(ab.is_diffset());
        // Join two diffset members of the next class.
        let c = AdaptiveSet::with_fuel(ta.clone(), 0);
        let d = AdaptiveSet::with_fuel(tb.clone(), 0);
        let cd = join(&c, &d);
        assert!(cd.is_diffset());
        assert_eq!(cd.support(), meet(&ta, &tb).support());
    }

    #[test]
    fn is_switched_tracks_representation() {
        let (ta, tb, tc) = lists();
        let a = AdaptiveSet::with_fuel(meet(&ta, &tb), 0);
        let b = AdaptiveSet::with_fuel(meet(&ta, &tc), 0);
        assert!(!a.is_switched());
        assert!(join(&a, &b).is_switched());
        // Plain tid-lists report false via the trait default.
        assert!(!TidSet::is_switched(&ta));
    }

    #[test]
    fn mixed_pair_joins_exactly_instead_of_panicking() {
        // Class prefix P = A: a tid-form member t(AB) and a diffset-form
        // member d(AC) must join to the correct t(ABC) = t(AB) − d(AC).
        let (ta, tb, tc) = lists();
        let tab = meet(&ta, &tb);
        let expected = meet(&tab, &tc);
        let tid_side = AdaptiveSet::with_fuel(tab.clone(), 3);
        let diff_side = AdaptiveSet::Diff(root(&ta, &tc));
        for (x, y) in [(&tid_side, &diff_side), (&diff_side, &tid_side)] {
            let mut m = OpMeter::new();
            let j = x.join(y, None, &mut m).unwrap();
            assert!(m.tid_cmp > 0);
            assert!(!j.is_diffset(), "mixed join stays in tid form");
            assert_eq!(j.support(), expected.support());
            match &j {
                AdaptiveSet::Tids { tids, fuel } => {
                    assert_eq!(tids, &expected);
                    assert_eq!(*fuel, 2, "mixed join burns one fuel");
                }
                _ => unreachable!(),
            }
            for minsup in 1..=expected.support() + 2 {
                assert_eq!(
                    x.join(y, Some(minsup), &mut OpMeter::new())
                        .map(|s| s.support()),
                    (expected.support() >= minsup).then_some(expected.support()),
                    "minsup {minsup}"
                );
            }
        }
    }

    #[test]
    fn fold_matches_tidlist_ground_truth_across_fuel() {
        // A 4-member class; the fold crosses the conversion depth for
        // small fuels and stays tid-list for large ones.
        let ta = TidList::of(&(0..80).collect::<Vec<_>>());
        let exts: Vec<TidList> = [2u32, 3, 5, 7]
            .iter()
            .map(|&k| TidList::of(&(0..80).filter(|x| x % k != 1).collect::<Vec<_>>()))
            .collect();
        let tids: Vec<TidList> = exts.iter().map(|t| meet(&ta, t)).collect();
        let truth = tids[1..].iter().fold(tids[0].clone(), |a, t| meet(&a, t));
        for fuel in [0u32, 1, 2, 10] {
            let members: Vec<AdaptiveSet> = tids
                .iter()
                .map(|t| AdaptiveSet::with_fuel(t.clone(), fuel))
                .collect();
            let rest: Vec<&AdaptiveSet> = members[1..].iter().collect();
            let mut m = OpMeter::new();
            let folded = members[0]
                .fold_join(&rest, None, &mut m)
                .expect("unbounded fold always completes");
            assert_eq!(folded.support(), truth.support(), "fuel {fuel}");
            assert!(m.tid_cmp > 0);
            // 3 fold steps: fuel below 3 must have crossed the switch.
            assert_eq!(folded.is_diffset(), fuel < 3, "fuel {fuel}");
            for minsup in 1..=truth.support() + 2 {
                let bounded = members[0]
                    .fold_join(&rest, Some(minsup), &mut OpMeter::new())
                    .map(|s| s.support());
                assert_eq!(
                    bounded,
                    (truth.support() >= minsup).then_some(truth.support()),
                    "fuel {fuel} minsup {minsup}"
                );
            }
        }
    }

    #[test]
    fn fold_from_diffset_self_handles_diff_and_tid_members() {
        // Rel accumulator: self and siblings in diffset form. Chained
        // pairwise diffset joins would get this support wrong.
        let ta = TidList::of(&(0..80).collect::<Vec<_>>());
        let exts: Vec<TidList> = [2u32, 3, 5, 7]
            .iter()
            .map(|&k| TidList::of(&(0..80).filter(|x| x % k != 1).collect::<Vec<_>>()))
            .collect();
        let truth = exts.iter().fold(ta.clone(), |a, t| meet(&a, t));
        let diffs: Vec<AdaptiveSet> = exts
            .iter()
            .map(|t| AdaptiveSet::Diff(root(&ta, t)))
            .collect();
        let rest: Vec<&AdaptiveSet> = diffs[1..].iter().collect();
        let mut m = OpMeter::new();
        let folded = diffs[0].fold_join(&rest, None, &mut m).unwrap();
        assert_eq!(folded.support(), truth.support());
        assert!(m.tid_cmp > 0);
        // The result is d(Px₁…x_k) relative to Px₁: t(Px₁) minus it is
        // the union's tid-list.
        match &folded {
            AdaptiveSet::Diff(d) => {
                assert_eq!(
                    crate::diffset::reconstruct_tidlist(&meet(&ta, &exts[0]), d),
                    truth
                )
            }
            _ => unreachable!("a diffset fold stays in diffset form"),
        }
        for minsup in 1..=truth.support() + 2 {
            assert_eq!(
                diffs[0]
                    .fold_join(&rest, Some(minsup), &mut OpMeter::new())
                    .map(|s| s.support()),
                (truth.support() >= minsup).then_some(truth.support()),
                "minsup {minsup}"
            );
        }
        // Mixed rest: a diffset self folded with a tid-form sibling
        // demotes back to tid form and still gets the support right.
        let tid_member = AdaptiveSet::with_fuel(meet(&ta, &exts[1]), 5);
        let mixed_rest = [&tid_member, &diffs[2], &diffs[3]];
        let folded = diffs[0]
            .fold_join(&mixed_rest, None, &mut OpMeter::new())
            .unwrap();
        assert_eq!(folded.support(), truth.support());
        for minsup in 1..=truth.support() + 2 {
            assert_eq!(
                diffs[0]
                    .fold_join(&mixed_rest, Some(minsup), &mut OpMeter::new())
                    .map(|s| s.support()),
                (truth.support() >= minsup).then_some(truth.support()),
                "minsup {minsup}"
            );
        }
        // Empty rest round-trips self.
        assert_eq!(
            diffs[0].fold_join(&[], None, &mut OpMeter::new()),
            Some(diffs[0].clone())
        );
    }

    #[test]
    fn conversion_join_meters_comparisons() {
        let (ta, tb, tc) = lists();
        let a = AdaptiveSet::with_fuel(meet(&ta, &tb), 0);
        let b = AdaptiveSet::with_fuel(meet(&ta, &tc), 0);
        let mut m = OpMeter::new();
        let j = a.join(&b, None, &mut m).unwrap();
        assert!(j.is_diffset());
        assert!(m.tid_cmp > 0, "conversion join must meter comparisons");
    }
}
