//! Read-optimized prefix-trie index over mined artifacts.
//!
//! One [`Index`] holds every frequent itemset of a dataset in a [`Trie`]
//! keyed by the sorted item sequence, plus the pre-generated rules
//! grouped by antecedent and per-size support-ordered rankings for top-k
//! queries. An index is built once and never mutated — the store layer
//! swaps whole generations ([`crate::store`]), so everything here is
//! `&self` and safe to share across reader threads without locks.
//!
//! Result orderings are part of the query contract (the wire protocol
//! exposes them verbatim and the oracle property test pins them). Each
//! answer is a prefix of the index's own order, so no query sorts:
//!
//! * subset / superset enumeration: lexicographic ascending (the trie's
//!   depth-first order);
//! * top-k itemsets: support descending, then lexicographic;
//! * rules for an antecedent: confidence descending (within one antecedent
//!   this equals support descending — the antecedent support is shared),
//!   then consequent lexicographic.

use assoc_rules::Rule;
use mining_types::{Counted, FrequentSet, FxHashMap, ItemId, Itemset};

/// Everything the serving layer loads: the mined frequent set, the
/// pre-generated rules, and the database size the statistics (lift,
/// leverage, conviction) are relative to.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Frequent itemsets with absolute supports (downward-closed sets
    /// give the most useful subset queries, but any set serves).
    pub frequent: FrequentSet,
    /// Rules generated from `frequent` (may be empty).
    pub rules: Vec<Rule>,
    /// Number of transactions in the mined database.
    pub num_transactions: u32,
}

/// One rule under a fixed antecedent, as stored in the index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleEntry {
    /// The consequent `Y` of `antecedent ⇒ Y`.
    pub consequent: Itemset,
    /// Absolute support of `antecedent ∪ Y`.
    pub support: u32,
    /// Absolute support of the antecedent.
    pub antecedent_support: u32,
    /// Absolute support of the consequent.
    pub consequent_support: u32,
}

impl RuleEntry {
    /// Confidence `support / antecedent_support`.
    pub fn confidence(&self) -> f64 {
        self.support as f64 / self.antecedent_support as f64
    }
}

/// A node of the itemset trie: sorted child edges plus the support of the
/// itemset ending here, if that itemset is frequent.
#[derive(Clone, Debug, Default)]
struct Node {
    children: Vec<(ItemId, u32)>,
    support: Option<u32>,
}

impl Node {
    fn child(&self, item: ItemId) -> Option<u32> {
        self.children
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|pos| self.children[pos].1)
    }
}

/// Arena-allocated prefix trie over sorted itemsets.
#[derive(Clone, Debug)]
pub struct Trie {
    nodes: Vec<Node>,
}

impl Default for Trie {
    fn default() -> Self {
        Trie {
            nodes: vec![Node::default()],
        }
    }
}

impl Trie {
    /// Insert `items` (sorted ascending) with its support.
    fn insert(&mut self, items: &[ItemId], support: u32) {
        let mut at = 0u32;
        for &item in items {
            at = match self.nodes[at as usize]
                .children
                .binary_search_by_key(&item, |&(i, _)| i)
            {
                Ok(pos) => self.nodes[at as usize].children[pos].1,
                Err(pos) => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[at as usize].children.insert(pos, (item, next));
                    next
                }
            };
        }
        self.nodes[at as usize].support = Some(support);
    }

    /// Exact support lookup.
    pub fn support(&self, items: &[ItemId]) -> Option<u32> {
        let mut at = 0u32;
        for &item in items {
            at = self.nodes[at as usize].child(item)?;
        }
        self.nodes[at as usize].support
    }

    /// Up to `limit` stored itemsets that are **subsets** of the sorted
    /// `query` (including `query` itself when stored), in lexicographic
    /// order.
    pub fn subsets_of(&self, query: &[ItemId], limit: usize) -> Vec<Counted> {
        let mut out = Vec::new();
        let mut path = Vec::with_capacity(query.len());
        self.subsets_rec(0, query, 0, &mut path, limit, &mut out);
        out
    }

    fn subsets_rec(
        &self,
        at: u32,
        query: &[ItemId],
        start: usize,
        path: &mut Vec<ItemId>,
        limit: usize,
        out: &mut Vec<Counted>,
    ) {
        if out.len() >= limit {
            return;
        }
        let node = &self.nodes[at as usize];
        if let Some(sup) = node.support {
            out.push(Counted {
                itemset: Itemset::from_sorted(path.clone()),
                support: sup,
            });
        }
        for (t, &item) in query.iter().enumerate().skip(start) {
            if out.len() >= limit {
                return;
            }
            if let Some(child) = node.child(item) {
                path.push(item);
                self.subsets_rec(child, query, t + 1, path, limit, out);
                path.pop();
            }
        }
    }

    /// Up to `limit` stored itemsets that are **supersets** of the sorted
    /// `query` (including `query` itself when stored), in lexicographic
    /// order. An empty query enumerates everything.
    pub fn supersets_of(&self, query: &[ItemId], limit: usize) -> Vec<Counted> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.supersets_rec(0, query, 0, &mut path, limit, &mut out);
        out
    }

    fn supersets_rec(
        &self,
        at: u32,
        query: &[ItemId],
        qi: usize,
        path: &mut Vec<ItemId>,
        limit: usize,
        out: &mut Vec<Counted>,
    ) {
        if out.len() >= limit {
            return;
        }
        let node = &self.nodes[at as usize];
        if qi == query.len() {
            if let Some(sup) = node.support {
                if !path.is_empty() {
                    out.push(Counted {
                        itemset: Itemset::from_sorted(path.clone()),
                        support: sup,
                    });
                }
            }
        }
        for &(item, child) in &node.children {
            if out.len() >= limit {
                return;
            }
            // Items are stored ascending, so once an edge passes the next
            // needed query item, no descendant can contain it.
            if qi < query.len() && item > query[qi] {
                break;
            }
            let nqi = if qi < query.len() && item == query[qi] {
                qi + 1
            } else {
                qi
            };
            path.push(item);
            self.supersets_rec(child, query, nqi, path, limit, out);
            path.pop();
        }
    }

    /// Number of trie nodes (root included) — a size diagnostic.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// The read-optimized index of one dataset: the itemset trie, the rules
/// grouped by antecedent, and the support rankings for top-k queries.
#[derive(Clone, Debug, Default)]
pub struct Index {
    trie: Trie,
    rules: FxHashMap<Itemset, Vec<RuleEntry>>,
    /// `ranked[k-1]` = all stored `k`-itemsets, support descending then
    /// lexicographic; `ranked_all` is the same over every size.
    ranked: Vec<Vec<Counted>>,
    ranked_all: Vec<Counted>,
}

impl Index {
    /// Build the index of `dataset`.
    pub fn build(dataset: &Dataset) -> Index {
        let mut index = Index::default();
        // Insert itemsets in sorted order so trie children are appended
        // mostly in order and the ranked lists tie-break deterministically.
        for c in dataset.frequent.sorted() {
            index.trie.insert(c.itemset.items(), c.support);
            let k = c.itemset.len();
            if index.ranked.len() < k {
                index.ranked.resize(k, Vec::new());
            }
            index.ranked[k - 1].push(c.clone());
            index.ranked_all.push(c);
        }
        for ranked in index
            .ranked
            .iter_mut()
            .chain(std::iter::once(&mut index.ranked_all))
        {
            ranked.sort_by(|a, b| b.support.cmp(&a.support).then(a.itemset.cmp(&b.itemset)));
        }

        for rule in &dataset.rules {
            index
                .rules
                .entry(rule.antecedent.clone())
                .or_default()
                .push(RuleEntry {
                    consequent: rule.consequent.clone(),
                    support: rule.support,
                    antecedent_support: rule.antecedent_support,
                    consequent_support: rule.consequent_support,
                });
        }
        for entries in index.rules.values_mut() {
            // Within one antecedent every entry shares antecedent_support,
            // so support descending *is* confidence descending — integer
            // comparison, no float ties.
            entries.sort_by(|a, b| {
                b.support
                    .cmp(&a.support)
                    .then(a.consequent.cmp(&b.consequent))
            });
        }
        index
    }

    /// Exact support of `itemset`, if stored (never for the empty set).
    pub fn support(&self, itemset: &Itemset) -> Option<u32> {
        self.trie.support(itemset.items())
    }

    /// Lexicographic subset enumeration (see [`Trie::subsets_of`]).
    pub fn subsets_of(&self, query: &Itemset, limit: usize) -> Vec<Counted> {
        self.trie.subsets_of(query.items(), limit)
    }

    /// Lexicographic superset enumeration (see [`Trie::supersets_of`]).
    pub fn supersets_of(&self, query: &Itemset, limit: usize) -> Vec<Counted> {
        self.trie.supersets_of(query.items(), limit)
    }

    /// Up to `k` rules with exactly this antecedent, confidence
    /// descending then consequent lexicographic.
    pub fn rules_for(&self, antecedent: &Itemset, k: usize) -> &[RuleEntry] {
        match self.rules.get(antecedent) {
            Some(entries) => &entries[..k.min(entries.len())],
            None => &[],
        }
    }

    /// Up to `k` stored itemsets of `size` items (`size == 0` = any
    /// size), support descending then lexicographic.
    pub fn top_k(&self, size: usize, k: usize) -> &[Counted] {
        let ranked = if size == 0 {
            &self.ranked_all
        } else {
            match self.ranked.get(size - 1) {
                Some(r) => r,
                None => return &[],
            }
        };
        &ranked[..k.min(ranked.len())]
    }

    /// Itemsets stored.
    pub fn num_itemsets(&self) -> usize {
        self.ranked_all.len()
    }

    /// Rules stored.
    pub fn num_rules(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Trie nodes (root included).
    pub fn num_trie_nodes(&self) -> usize {
        self.trie.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    fn dataset() -> Dataset {
        let frequent: FrequentSet = [
            (iset(&[1]), 10),
            (iset(&[2]), 8),
            (iset(&[3]), 6),
            (iset(&[1, 2]), 5),
            (iset(&[1, 3]), 4),
            (iset(&[2, 3]), 4),
            (iset(&[1, 2, 3]), 3),
        ]
        .into_iter()
        .collect();
        let rules = assoc_rules::generate(&frequent, 0.0);
        Dataset {
            frequent,
            rules,
            num_transactions: 12,
        }
    }

    fn names(got: &[Counted]) -> Vec<Itemset> {
        got.iter().map(|c| c.itemset.clone()).collect()
    }

    #[test]
    fn exact_support() {
        let index = Index::build(&dataset());
        assert_eq!(index.support(&iset(&[1, 2])), Some(5));
        assert_eq!(index.support(&iset(&[2, 4])), None);
        assert_eq!(index.support(&Itemset::empty()), None);
    }

    #[test]
    fn subset_enumeration_is_lexicographic() {
        let index = Index::build(&dataset());
        assert_eq!(
            names(&index.subsets_of(&iset(&[1, 2, 3]), usize::MAX)),
            vec![
                iset(&[1]),
                iset(&[1, 2]),
                iset(&[1, 2, 3]),
                iset(&[1, 3]),
                iset(&[2]),
                iset(&[2, 3]),
                iset(&[3]),
            ]
        );
        assert!(index.subsets_of(&Itemset::empty(), usize::MAX).is_empty());
    }

    #[test]
    fn superset_enumeration_includes_self_and_respects_limit() {
        let index = Index::build(&dataset());
        let q = iset(&[2]);
        assert_eq!(
            names(&index.supersets_of(&q, usize::MAX)),
            vec![iset(&[1, 2]), iset(&[1, 2, 3]), iset(&[2]), iset(&[2, 3])]
        );
        // The limit keeps the lexicographically first hits.
        assert_eq!(
            names(&index.supersets_of(&q, 2)),
            vec![iset(&[1, 2]), iset(&[1, 2, 3])]
        );
    }

    #[test]
    fn empty_query_supersets_enumerate_everything() {
        let index = Index::build(&dataset());
        assert_eq!(index.supersets_of(&Itemset::empty(), usize::MAX).len(), 7);
    }

    #[test]
    fn rules_ranked_by_confidence_then_consequent() {
        let index = Index::build(&dataset());
        let a = iset(&[1]);
        let entries = index.rules_for(&a, 10);
        assert!(!entries.is_empty());
        for w in entries.windows(2) {
            assert!(
                w[0].confidence() > w[1].confidence()
                    || (w[0].confidence() == w[1].confidence()
                        && w[0].consequent <= w[1].consequent)
            );
        }
        assert_eq!(index.rules_for(&a, 1).len(), 1);
        assert!(index.rules_for(&iset(&[9]), 5).is_empty());
        assert!(index.rules_for(&Itemset::empty(), 5).is_empty());
    }

    #[test]
    fn top_k_ranked_by_support() {
        let index = Index::build(&dataset());
        let top = index.top_k(1, 2);
        assert_eq!(top[0].itemset, iset(&[1]));
        assert_eq!(top[1].itemset, iset(&[2]));
        let any = index.top_k(0, 3);
        assert_eq!(any[0].support, 10);
        assert_eq!(any.len(), 3);
        assert!(index.top_k(9, 5).is_empty());
    }
}
