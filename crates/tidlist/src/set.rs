//! The [`TidSet`] abstraction: anything that can play the role of an
//! itemset's vertical representation inside the `Compute_Frequent`
//! recursion (Figure 3).
//!
//! The paper's kernel only ever does three things with a member's
//! vertical data: read its support, join it with a sibling (optionally
//! short-circuited against `minsup`, §5.3), and price its bytes for the
//! scheduling/exchange cost model (§5.2.1, §6.3). The trait is exactly
//! those operations plus the MaxEclat look-ahead fold — one join and one
//! fold per representation, each metered and each taking an optional
//! bound. Five types implement it: [`TidList`], [`GallopList`],
//! [`crate::BitmapSet`], the mid-recursion switching
//! [`crate::AdaptiveSet`] (which is also how diffsets are mined), and the
//! sequence miner's `PairSet` in the `eclat-seq` crate.

use crate::TidList;
use mining_types::OpMeter;

/// A vertical representation of one itemset, joinable with a sibling
/// sharing the same equivalence-class prefix.
///
/// # Contract
/// For members `x`, `y` of the same class (in member order, `x` before
/// `y`), `x.join(&y, minsup, meter)` represents the candidate `x ∪ y`
/// and reports its exact support. With `minsup = Some(s)` the join may
/// abandon early (§5.3) and returns `None` **iff** that support is below
/// `s`; otherwise it equals the unbounded result. With `None` it always
/// returns `Some`. Every element comparison lands in `meter.tid_cmp`, so
/// ablations across representations (A1) compare like with like.
pub trait TidSet: Clone + std::fmt::Debug {
    /// Exact support of the represented itemset.
    fn support(&self) -> u32;

    /// Serialized size in bytes — what the §6.3 exchange and the
    /// scheduling cost model charge for this member.
    fn byte_size(&self) -> u64;

    /// Join with the next member of the class, bounded by `minsup` when
    /// it is `Some` (see the trait contract).
    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self>;

    /// Multi-way join: fold `self` with every member of `rest`, producing
    /// the representation of `self ∪ rest[0] ∪ … ∪ rest[k-1]`. This is the
    /// MaxEclat look-ahead primitive (§5): one call answers "is the whole
    /// class union frequent?". With `minsup = Some(s)` the fold abandons
    /// as soon as it proves the union below `s` and returns `None` exactly
    /// then; with `None` it always completes.
    ///
    /// # Contract
    /// All operands must be members of the **same equivalence class**, in
    /// member order with `self` first. The default implementation chains
    /// pairwise [`TidSet::join`]s, which is correct only when each partial
    /// join result is itself a valid class sibling of the remaining
    /// members — true for prefix-free representations like tid-lists,
    /// **wrong** for prefix-relative ones (diffsets are relative to the
    /// shared class prefix, so after one join the accumulator no longer
    /// shares a prefix with the rest). [`crate::AdaptiveSet`] overrides it
    /// with a multi-way kernel.
    fn fold_join(&self, rest: &[&Self], minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        let mut acc = self.clone();
        for m in rest {
            acc = acc.join(m, minsup, meter)?;
        }
        meets(acc.support(), minsup).then_some(acc)
    }

    /// True when this member has switched representation mid-recursion
    /// (only [`crate::adaptive::AdaptiveSet`] ever does). The stats layer
    /// compares parent vs child to count switch events.
    fn is_switched(&self) -> bool {
        false
    }
}

/// Whether `support` reaches an optional threshold.
pub(crate) fn meets(support: u32, minsup: Option<u32>) -> bool {
    minsup.is_none_or(|s| support >= s)
}

impl TidSet for TidList {
    fn support(&self) -> u32 {
        TidList::support(self)
    }

    fn byte_size(&self) -> u64 {
        TidList::byte_size(self)
    }

    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        self.intersect(other, minsup, meter)
    }
}

/// A [`TidList`] whose joins go through the adaptive galloping kernel
/// ([`TidList::intersect_adaptive`]): exponential search through the longer
/// operand when the lengths are skewed by more than 16×, two-pointer merge
/// otherwise. Enabled by `EclatConfig::gallop` in the mining kernel.
///
/// Galloping has no §5.3 short-circuit analogue (it never walks the
/// operands linearly), so a bounded join computes the full intersection
/// and then applies the threshold — the trait contract (`None` iff
/// infrequent) still holds exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GallopList(pub TidList);

impl TidSet for GallopList {
    fn support(&self) -> u32 {
        self.0.support()
    }

    fn byte_size(&self) -> u64 {
        self.0.byte_size()
    }

    fn join(&self, other: &Self, minsup: Option<u32>, meter: &mut OpMeter) -> Option<Self> {
        let out = self.0.intersect_adaptive(&other.0, meter);
        meets(out.support(), minsup).then_some(GallopList(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-member class over prefix A: the members' tid-lists and the
    /// tid-list of the full union — the shape the MaxEclat look-ahead
    /// folds.
    fn lookahead_class() -> (Vec<TidList>, TidList) {
        let meet = |a: &TidList, b: &TidList| a.join(b, None, &mut OpMeter::new()).unwrap();
        let ta = TidList::of(&(0..60).collect::<Vec<_>>());
        let tids: Vec<TidList> = [2u32, 3, 5, 7, 11]
            .iter()
            .map(|&k| {
                meet(
                    &ta,
                    &TidList::of(&(0..60).filter(|x| x % k != 1).collect::<Vec<_>>()),
                )
            })
            .collect();
        let truth = tids[1..].iter().fold(tids[0].clone(), |a, t| meet(&a, t));
        (tids, truth)
    }

    #[test]
    fn fold_join_chains_pairwise_for_tidlists() {
        let (tids, truth) = lookahead_class();
        let rest: Vec<&TidList> = tids[1..].iter().collect();
        let mut m = OpMeter::new();
        assert_eq!(tids[0].fold_join(&rest, None, &mut m), Some(truth.clone()));
        assert!(m.tid_cmp > 0);
        for minsup in 1..=truth.support() + 2 {
            assert_eq!(
                tids[0]
                    .fold_join(&rest, Some(minsup), &mut OpMeter::new())
                    .map(|s| s.support()),
                (truth.support() >= minsup).then_some(truth.support()),
                "minsup {minsup}"
            );
        }
    }

    #[test]
    fn gallop_list_agrees_with_tidlist_through_the_trait() {
        let (tids, truth) = lookahead_class();
        let galls: Vec<GallopList> = tids.iter().cloned().map(GallopList).collect();
        let g_rest: Vec<&GallopList> = galls[1..].iter().collect();
        let mut m = OpMeter::new();
        assert_eq!(galls[0].fold_join(&g_rest, None, &mut m).unwrap().0, truth);
        assert!(m.tid_cmp > 0);
        for minsup in 1..=truth.support() + 2 {
            assert_eq!(
                galls[0]
                    .fold_join(&g_rest, Some(minsup), &mut OpMeter::new())
                    .map(|g| g.support()),
                (truth.support() >= minsup).then_some(truth.support()),
                "minsup {minsup}"
            );
        }
        // Skewed pair exercises the galloping branch through the trait.
        let a = TidList::of(&[5, 100, 250]);
        let b = TidList::of(&(0..100_000).step_by(5).collect::<Vec<_>>());
        let m = &mut OpMeter::new();
        assert_eq!(
            GallopList(a.clone()).join(&GallopList(b.clone()), None, m),
            a.join(&b, None, m).map(GallopList)
        );
    }

    #[test]
    fn byte_size_hooks() {
        let t = TidList::of(&[1, 2, 3]);
        assert_eq!(TidSet::byte_size(&t), 12);
        assert_eq!(TidSet::byte_size(&GallopList(t)), 12);
    }
}
