//! Equivalence-class partitioning of frequent itemsets (§4.1).
//!
//! `[a] = { b ∈ L_{k-1} | a[1:k−2] = b[1:k−2] }` — itemsets sharing their
//! length-(k−2) prefix. Candidates are generated *within* a class only,
//! and classes are independent: the insight that lets Eclat decouple the
//! processors after one scheduling step.

use mining_types::{ItemId, Itemset};
use tidlist::{TidList, TidSet};

/// A member of an equivalence class: the extension item beyond the shared
/// prefix, its full itemset, and its vertical representation (a tid-list
/// by default; any [`TidSet`] — diffsets, the adaptive switcher — works).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassMember<S = TidList> {
    /// The full itemset (prefix + extension).
    pub itemset: Itemset,
    /// The itemset's vertical representation.
    pub tids: S,
}

/// An equivalence class: a shared prefix and its members sorted by
/// extension item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivalenceClass<S = TidList> {
    /// The common length-(k−1) prefix of the k-itemset members... for
    /// members of size `k`, the prefix has size `k − 1`.
    pub prefix: Itemset,
    /// Members in ascending itemset order.
    pub members: Vec<ClassMember<S>>,
}

impl<S> EquivalenceClass<S> {
    /// Number of members `s`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The §5.2.1 scheduling weight `C(s, 2)` — the number of candidate
    /// joins the class will produce at the next level.
    pub fn weight(&self) -> u64 {
        mining_types::itemset::choose2(self.size())
    }

    /// The same class with every member's vertical data mapped through
    /// `f` — how a tid-list class changes representation.
    pub fn map_members<T>(self, mut f: impl FnMut(S) -> T) -> EquivalenceClass<T> {
        EquivalenceClass {
            prefix: self.prefix,
            members: self
                .members
                .into_iter()
                .map(|m| ClassMember {
                    itemset: m.itemset,
                    tids: f(m.tids),
                })
                .collect(),
        }
    }
}

impl<S: TidSet> EquivalenceClass<S> {
    /// Sum of member supports (the alternative weight heuristic the paper
    /// suggests: *"We could also make use of the average support of the
    /// itemsets within a class to get better weight factors"*).
    pub fn support_weight(&self) -> u64 {
        self.members.iter().map(|m| m.tids.support() as u64).sum()
    }

    /// Total vertical-representation bytes of the class (what moves in
    /// the exchange).
    pub fn byte_size(&self) -> u64 {
        self.members.iter().map(|m| m.tids.byte_size()).sum()
    }
}

/// Group frequent 2-itemsets (with tid-lists) into the `L2` equivalence
/// classes keyed by first item.
///
/// Input order is free; output classes are sorted by prefix item, members
/// by second item. Classes with a single member are **kept** here — the
/// scheduler needs to see them even though they generate no candidates
/// (§4.1 discards them only for candidate generation).
pub fn classes_of_l2(pairs: Vec<(ItemId, ItemId, TidList)>) -> Vec<EquivalenceClass> {
    let mut sorted = pairs;
    sorted.sort_by_key(|p| (p.0, p.1));
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    for (a, b, tids) in sorted {
        assert!(a < b, "2-itemset must be ordered");
        let member = ClassMember {
            itemset: Itemset::pair(a, b),
            tids,
        };
        match classes.last_mut() {
            Some(c) if c.prefix.items() == [a] => c.members.push(member),
            _ => classes.push(EquivalenceClass {
                prefix: Itemset::single(a),
                members: vec![member],
            }),
        }
    }
    classes
}

/// Group same-size itemset members by their length-(k−1) prefix — the
/// recursive re-partitioning step inside `Compute_Frequent` (Figure 3:
/// *"Partition L_k into equivalence classes"*).
///
/// `members` must be sorted by itemset (they are, when produced by the
/// in-order joins of the kernel). Generic over the representation: the
/// grouping never looks at the vertical data.
pub fn repartition<S>(members: Vec<ClassMember<S>>) -> Vec<EquivalenceClass<S>> {
    let mut classes: Vec<EquivalenceClass<S>> = Vec::new();
    for m in members {
        let k = m.itemset.len();
        assert!(k >= 2, "repartition needs itemsets of size >= 2");
        let prefix_len = k - 1;
        match classes.last_mut() {
            Some(c)
                if c.prefix.len() == prefix_len
                    && c.prefix.items() == &m.itemset.items()[..prefix_len] =>
            {
                c.members.push(m)
            }
            _ => classes.push(EquivalenceClass {
                prefix: Itemset::from_sorted(m.itemset.items()[..prefix_len].to_vec()),
                members: vec![m],
            }),
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(raw: &[u32]) -> TidList {
        TidList::of(raw)
    }

    fn pair(a: u32, b: u32) -> (ItemId, ItemId, TidList) {
        (ItemId(a), ItemId(b), tl(&[a * 10 + b]))
    }

    #[test]
    fn l2_classes_match_paper_example() {
        // §4.1: L2 = {AB AC AD AE BC BD BE DE} →
        // S_A = {AB,AC,AD,AE}, S_B = {BC,BD,BE}, S_D = {DE}
        let l2 = vec![
            pair(1, 3),
            pair(0, 1),
            pair(0, 2),
            pair(3, 4),
            pair(0, 3),
            pair(1, 2),
            pair(0, 4),
            pair(1, 4),
        ];
        let classes = classes_of_l2(l2);
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].prefix, Itemset::of(&[0]));
        assert_eq!(classes[0].size(), 4);
        assert_eq!(classes[1].prefix, Itemset::of(&[1]));
        assert_eq!(classes[1].size(), 3);
        assert_eq!(classes[2].prefix, Itemset::of(&[3]));
        assert_eq!(classes[2].size(), 1);
        // members sorted by extension
        let exts: Vec<u32> = classes[0]
            .members
            .iter()
            .map(|m| m.itemset.items()[1].0)
            .collect();
        assert_eq!(exts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn weights_match_section_521() {
        let l2 = vec![pair(0, 1), pair(0, 2), pair(0, 3), pair(0, 4), pair(5, 6)];
        let classes = classes_of_l2(l2);
        assert_eq!(classes[0].weight(), 6, "C(4,2)");
        assert_eq!(classes[1].weight(), 0, "singleton class");
    }

    #[test]
    fn support_weight_sums_tidlists() {
        let l2 = vec![
            (ItemId(0), ItemId(1), tl(&[1, 2, 3])),
            (ItemId(0), ItemId(2), tl(&[4])),
        ];
        let classes = classes_of_l2(l2);
        assert_eq!(classes[0].support_weight(), 4);
        assert_eq!(classes[0].byte_size(), 16);
    }

    #[test]
    fn repartition_groups_by_long_prefix() {
        let mk = |raw: &[u32]| ClassMember {
            itemset: Itemset::of(raw),
            tids: tl(&[1]),
        };
        let l3 = vec![
            mk(&[0, 1, 2]),
            mk(&[0, 1, 3]),
            mk(&[0, 2, 3]),
            mk(&[1, 2, 3]),
        ];
        let classes = repartition(l3);
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].prefix, Itemset::of(&[0, 1]));
        assert_eq!(classes[0].size(), 2);
        assert_eq!(classes[1].prefix, Itemset::of(&[0, 2]));
        assert_eq!(classes[2].prefix, Itemset::of(&[1, 2]));
    }

    #[test]
    fn empty_inputs() {
        assert!(classes_of_l2(vec![]).is_empty());
        assert!(repartition::<TidList>(vec![]).is_empty());
    }
}
