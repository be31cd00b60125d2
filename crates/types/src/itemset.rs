//! Sorted itemsets and the operations association mining performs on them.
//!
//! An [`Itemset`] is a set of items kept sorted ascending with no
//! duplicates — the invariant every algorithm in the paper relies on:
//! Apriori's join step assumes `L_{k-1}` is lexicographically sorted (§2),
//! and Eclat's equivalence classes are keyed by the common `k-2` prefix of
//! sorted itemsets (§4.1).

use crate::item::ItemId;
use std::fmt;

/// A sorted, duplicate-free set of items.
///
/// Ordering on `Itemset` is lexicographic over the sorted item sequence,
/// which matches the order the paper's candidate generation assumes.
///
/// ```
/// use mining_types::Itemset;
/// let ab = Itemset::of(&[0, 1]);
/// let ac = Itemset::of(&[0, 2]);
/// // the Apriori join: same k−1 prefix, ordered last items
/// assert_eq!(ab.join(&ac), Some(Itemset::of(&[0, 1, 2])));
/// assert_eq!(ac.join(&ab), None);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Itemset {
    items: Vec<ItemId>,
}

impl Itemset {
    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset { items: Vec::new() }
    }

    /// A singleton `{item}`.
    pub fn single(item: ItemId) -> Self {
        Itemset { items: vec![item] }
    }

    /// A pair `{a, b}` (in either argument order; `a != b` required).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn pair(a: ItemId, b: ItemId) -> Self {
        assert_ne!(a, b, "an itemset cannot contain a duplicate item");
        let items = if a < b { vec![a, b] } else { vec![b, a] };
        Itemset { items }
    }

    /// Build from an arbitrary iterator: sorts and deduplicates.
    pub fn from_unsorted<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        let mut items: Vec<ItemId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        Itemset { items }
    }

    /// Build from a vector already sorted ascending with no duplicates.
    ///
    /// # Panics
    /// Panics (in debug and release) if the invariant does not hold; the
    /// mining kernels silently produce garbage on unsorted input, so this
    /// is always checked.
    pub fn from_sorted(items: Vec<ItemId>) -> Self {
        Self::try_from_sorted(items).expect("itemset must be strictly ascending")
    }

    /// [`Itemset::from_sorted`] for items read from outside the process:
    /// `None` unless they are strictly ascending.
    pub fn try_from_sorted(items: Vec<ItemId>) -> Option<Self> {
        items
            .windows(2)
            .all(|w| w[0] < w[1])
            .then_some(Itemset { items })
    }

    /// Build from raw `u32` item ids (convenience for tests and examples).
    pub fn of(raw: &[u32]) -> Self {
        Itemset::from_unsorted(raw.iter().copied().map(ItemId))
    }

    /// Number of items; the `k` of a *k-itemset*.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The sorted items.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The last (largest) item, if any.
    #[inline]
    pub fn last(&self) -> Option<ItemId> {
        self.items.last().copied()
    }

    /// The first (smallest) item, if any.
    #[inline]
    pub fn first(&self) -> Option<ItemId> {
        self.items.first().copied()
    }

    /// Membership test (binary search; itemsets are tiny, but sorted).
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Is `self` a subset of the **sorted** transaction `txn`?
    ///
    /// Linear merge over the two sorted sequences.
    pub fn is_subset_of_sorted(&self, txn: &[ItemId]) -> bool {
        let mut it = txn.iter();
        'outer: for &needle in &self.items {
            for &t in it.by_ref() {
                match t.cmp(&needle) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Is `self` a subset of `other` (both sorted itemsets)?
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        self.is_subset_of_sorted(other.items())
    }

    /// The length-`n` prefix of the sorted item sequence.
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> &[ItemId] {
        &self.items[..n]
    }

    /// Do `self` and `other` share the same length-`n` prefix?
    ///
    /// This is the equivalence-class relation of §4.1: `a ≡ b` iff
    /// `a[1..k-1] = b[1..k-1]` (1-indexed in the paper; here the first
    /// `k-1` items of a `k`-itemset).
    pub fn shares_prefix(&self, other: &Itemset, n: usize) -> bool {
        self.items.len() >= n && other.items.len() >= n && self.prefix(n) == other.prefix(n)
    }

    /// Apriori join (§2): if `self` and `other` are `k`-itemsets agreeing
    /// on the first `k-1` items and `self.last() < other.last()`, return
    /// the `(k+1)`-itemset `self ∪ other`; otherwise `None`.
    pub fn join(&self, other: &Itemset) -> Option<Itemset> {
        let k = self.len();
        if k == 0 || other.len() != k {
            return None;
        }
        if self.items[..k - 1] != other.items[..k - 1] {
            return None;
        }
        let (a, b) = (self.items[k - 1], other.items[k - 1]);
        if a >= b {
            return None;
        }
        let mut items = Vec::with_capacity(k + 1);
        items.extend_from_slice(&self.items);
        items.push(b);
        debug_assert_eq!(items[k - 1], a);
        Some(Itemset { items })
    }

    /// Union with another itemset (general, not just the join special case).
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut items = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    items.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    items.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    items.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        items.extend_from_slice(&self.items[i..]);
        items.extend_from_slice(&other.items[j..]);
        Itemset { items }
    }

    /// The itemset with `item` appended; `item` must exceed `self.last()`.
    ///
    /// # Panics
    /// Panics if the ordering invariant would be violated.
    pub fn extend_with(&self, item: ItemId) -> Itemset {
        if let Some(last) = self.last() {
            assert!(item > last, "extend_with must preserve ascending order");
        }
        let mut items = Vec::with_capacity(self.len() + 1);
        items.extend_from_slice(&self.items);
        items.push(item);
        Itemset { items }
    }

    /// The itemset with the item at `idx` removed — one of the `(k-1)`-
    /// subsets used by Apriori's pruning step.
    pub fn without_index(&self, idx: usize) -> Itemset {
        let mut items = Vec::with_capacity(self.len() - 1);
        items.extend_from_slice(&self.items[..idx]);
        items.extend_from_slice(&self.items[idx + 1..]);
        Itemset { items }
    }

    /// Set difference `self − other` (both sorted).
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let mut items = Vec::with_capacity(self.len());
        let mut j = 0;
        for &x in &self.items {
            while j < other.items.len() && other.items[j] < x {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != x {
                items.push(x);
            }
        }
        Itemset { items }
    }

    /// Iterate all `(k-1)`-subsets (each drops one item), in the order that
    /// drops the last item first — so the two subsets whose tid-lists Eclat
    /// intersects (drop last, drop second-to-last) come first.
    pub fn one_smaller_subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.len()).rev().map(move |i| self.without_index(i))
    }

    /// Iterate all `k`-subsets of this itemset in lexicographic order.
    ///
    /// Used by the hash-tree support counting of Apriori (§2): "for each
    /// transaction in the database, all k-subsets of the transaction are
    /// generated in lexicographical order".
    pub fn k_subsets(&self, k: usize) -> KSubsets<'_> {
        KSubsets::new(&self.items, k)
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, it) in self.items.iter().enumerate() {
            if n > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", it.0)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<ItemId> for Itemset {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        Itemset::from_unsorted(iter)
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = ItemId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ItemId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

/// Lexicographic iterator over all `k`-subsets of a sorted item slice.
///
/// Classic combination enumeration: maintains `k` indices into the base
/// slice and advances the rightmost index that can still move.
pub struct KSubsets<'a> {
    base: &'a [ItemId],
    idx: Vec<usize>,
    done: bool,
}

impl<'a> KSubsets<'a> {
    fn new(base: &'a [ItemId], k: usize) -> Self {
        let done = k > base.len() || k == 0;
        KSubsets {
            base,
            idx: (0..k).collect(),
            done,
        }
    }

    /// Write the current subset into `out` (cleared first) without
    /// allocating; returns `false` when exhausted.
    pub fn next_into(&mut self, out: &mut Vec<ItemId>) -> bool {
        if self.done {
            return false;
        }
        out.clear();
        out.extend(self.idx.iter().map(|&i| self.base[i]));
        self.advance();
        true
    }

    fn advance(&mut self) {
        let k = self.idx.len();
        let n = self.base.len();
        // Find rightmost index that can be incremented.
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return;
            }
            i -= 1;
            if self.idx[i] < n - (k - i) {
                break;
            }
        }
        self.idx[i] += 1;
        for j in i + 1..k {
            self.idx[j] = self.idx[j - 1] + 1;
        }
    }
}

impl Iterator for KSubsets<'_> {
    type Item = Itemset;

    fn next(&mut self) -> Option<Itemset> {
        if self.done {
            return None;
        }
        let items: Vec<ItemId> = self.idx.iter().map(|&i| self.base[i]).collect();
        self.advance();
        Some(Itemset { items })
    }
}

/// `C(n, 2) = n·(n−1)/2` — the class weight of §5.2.1 ("we assign the
/// weight (s choose 2) to a class with s elements").
#[inline]
pub fn choose2(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = Itemset::from_unsorted([3, 1, 2, 3, 1].map(ItemId));
        assert_eq!(s, iset(&[1, 2, 3]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted() {
        Itemset::from_sorted(vec![ItemId(2), ItemId(1)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_duplicates() {
        Itemset::from_sorted(vec![ItemId(1), ItemId(1)]);
    }

    #[test]
    fn pair_normalizes_order() {
        assert_eq!(Itemset::pair(ItemId(5), ItemId(2)), iset(&[2, 5]));
        assert_eq!(Itemset::pair(ItemId(2), ItemId(5)), iset(&[2, 5]));
    }

    #[test]
    #[should_panic]
    fn pair_rejects_equal_items() {
        Itemset::pair(ItemId(3), ItemId(3));
    }

    #[test]
    fn join_matches_paper_example() {
        // §2: L2 = {AB AC AD AE BC BD BE DE} with A=0 B=1 C=2 D=3 E=4
        // → C3 = {ABC ABD ABE ACD ACE ADE BCD BCE BDE}
        let l2 = [
            iset(&[0, 1]),
            iset(&[0, 2]),
            iset(&[0, 3]),
            iset(&[0, 4]),
            iset(&[1, 2]),
            iset(&[1, 3]),
            iset(&[1, 4]),
            iset(&[3, 4]),
        ];
        let mut c3 = Vec::new();
        for a in &l2 {
            for b in &l2 {
                if let Some(j) = a.join(b) {
                    c3.push(j);
                }
            }
        }
        c3.sort();
        let expect: Vec<Itemset> = [
            [0u32, 1, 2],
            [0, 1, 3],
            [0, 1, 4],
            [0, 2, 3],
            [0, 2, 4],
            [0, 3, 4],
            [1, 2, 3],
            [1, 2, 4],
            [1, 3, 4],
        ]
        .iter()
        .map(|r| iset(r))
        .collect();
        assert_eq!(c3, expect);
    }

    #[test]
    fn join_rejects_mismatched_prefix_and_order() {
        assert_eq!(iset(&[1, 2]).join(&iset(&[3, 4])), None);
        assert_eq!(
            iset(&[1, 3]).join(&iset(&[1, 2])),
            None,
            "requires a.last < b.last"
        );
        assert_eq!(iset(&[1, 2]).join(&iset(&[1, 2])), None);
        assert_eq!(iset(&[1]).join(&iset(&[2])), Some(iset(&[1, 2])));
        assert_eq!(Itemset::empty().join(&Itemset::empty()), None);
        assert_eq!(
            iset(&[1, 2]).join(&iset(&[1, 2, 3])),
            None,
            "length mismatch"
        );
    }

    #[test]
    fn subset_of_sorted_transaction() {
        let t: Vec<ItemId> = [1u32, 3, 5, 7, 9].map(ItemId).to_vec();
        assert!(iset(&[3, 7]).is_subset_of_sorted(&t));
        assert!(iset(&[1, 9]).is_subset_of_sorted(&t));
        assert!(!iset(&[2]).is_subset_of_sorted(&t));
        assert!(!iset(&[7, 10]).is_subset_of_sorted(&t));
        assert!(Itemset::empty().is_subset_of_sorted(&t));
        assert!(Itemset::empty().is_subset_of_sorted(&[]));
        assert!(!iset(&[1]).is_subset_of_sorted(&[]));
    }

    #[test]
    fn prefix_sharing_is_the_equivalence_relation() {
        let a = iset(&[0, 1, 2]);
        let b = iset(&[0, 1, 4]);
        let c = iset(&[0, 2, 3]);
        assert!(a.shares_prefix(&b, 2));
        assert!(!a.shares_prefix(&c, 2));
        assert!(a.shares_prefix(&c, 1));
        assert!(a.shares_prefix(&b, 0));
    }

    #[test]
    fn union_and_difference() {
        let a = iset(&[1, 3, 5]);
        let b = iset(&[2, 3, 6]);
        assert_eq!(a.union(&b), iset(&[1, 2, 3, 5, 6]));
        assert_eq!(a.difference(&b), iset(&[1, 5]));
        assert_eq!(b.difference(&a), iset(&[2, 6]));
        assert_eq!(a.difference(&a), Itemset::empty());
        assert_eq!(a.union(&Itemset::empty()), a);
    }

    #[test]
    fn k_subsets_lexicographic() {
        let s = iset(&[1, 2, 3, 4]);
        let subs: Vec<Itemset> = s.k_subsets(2).collect();
        let expect: Vec<Itemset> = [[1u32, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
            .iter()
            .map(|r| iset(r))
            .collect();
        assert_eq!(subs, expect);
    }

    #[test]
    fn k_subsets_edge_cases() {
        let s = iset(&[1, 2, 3]);
        assert_eq!(s.k_subsets(3).count(), 1);
        assert_eq!(s.k_subsets(4).count(), 0);
        assert_eq!(s.k_subsets(0).count(), 0);
        assert_eq!(Itemset::empty().k_subsets(1).count(), 0);
    }

    #[test]
    fn k_subsets_next_into_matches_iterator() {
        let s = iset(&[2, 4, 6, 8, 10]);
        let via_iter: Vec<Itemset> = s.k_subsets(3).collect();
        let mut via_into = Vec::new();
        let mut ks = s.k_subsets(3);
        let mut buf = Vec::new();
        while ks.next_into(&mut buf) {
            via_into.push(Itemset::from_sorted(buf.clone()));
        }
        assert_eq!(via_iter, via_into);
    }

    #[test]
    fn one_smaller_subsets_order() {
        let s = iset(&[1, 2, 3]);
        let subs: Vec<Itemset> = s.one_smaller_subsets().collect();
        // drop-last first: {1,2}, then {1,3}, then {2,3}
        assert_eq!(subs, vec![iset(&[1, 2]), iset(&[1, 3]), iset(&[2, 3])]);
    }

    #[test]
    fn extend_with_and_without_index() {
        let s = iset(&[1, 3]);
        assert_eq!(s.extend_with(ItemId(7)), iset(&[1, 3, 7]));
        assert_eq!(s.without_index(0), iset(&[3]));
        assert_eq!(s.without_index(1), iset(&[1]));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn extend_with_rejects_out_of_order() {
        iset(&[1, 3]).extend_with(ItemId(2));
    }

    #[test]
    fn choose2_values() {
        assert_eq!(choose2(0), 0);
        assert_eq!(choose2(1), 0);
        assert_eq!(choose2(2), 1);
        assert_eq!(choose2(5), 10);
        assert_eq!(choose2(1000), 499_500);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![iset(&[2]), iset(&[1, 9]), iset(&[1, 2]), iset(&[1])];
        v.sort();
        assert_eq!(
            v,
            vec![iset(&[1]), iset(&[1, 2]), iset(&[1, 9]), iset(&[2])]
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", iset(&[1, 2, 3])), "{1 2 3}");
        assert_eq!(format!("{}", Itemset::empty()), "{}");
    }
}
