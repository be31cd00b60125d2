//! Association rule generation — step 2 of the mining task (§1.1).
//!
//! *"Once the support of frequent itemsets is known, rules of the form
//! X − Y ⇒ Y (where Y ⊂ X) are generated for all frequent itemsets X,
//! provided the rules meet the desired confidence."*
//!
//! Implements the fast rule-generation algorithm of Agrawal & Srikant
//! (the paper's reference \[4\]): consequents are grown level-wise, and a
//! failed consequent prunes all of its supersets — valid because moving
//! an item from antecedent to consequent can only lower confidence.
//!
//! One call builds one table: the frequent itemsets in `Itemset` order,
//! keyed by their item slices, each with its support and its rank (its
//! position in that order). A consequent `Y ⊂ X` is a `u64` mask over the
//! positions of `X`; both sides of a candidate rule are looked up in the
//! table through one reused item buffer, so a passing rule is recorded
//! as an integer key — confidence bits, support, antecedent rank,
//! consequent rank — that orders rules exactly as the documented
//! comparator does, without touching an itemset. The keys are sorted
//! first and the rules are built from them in output order, so each
//! rule's two itemsets are allocated next to its neighbours'.

use mining_types::{FrequentSet, FxHashMap, FxHashSet, ItemId, Itemset};

pub use mining_types::Rule;

/// Support and rank (position in `Itemset` order) of every frequent
/// itemset, keyed by its items.
type Table<'a> = FxHashMap<&'a [ItemId], (u32, u32)>;

/// Generate all rules meeting `min_confidence` from a **downward-closed**
/// frequent set (it must include every subset of every member, singletons
/// included — e.g. Apriori output, or Eclat with
/// `EclatConfig::with_singletons`).
///
/// Output is sorted by descending confidence, then descending support,
/// then lexicographic antecedent, then lexicographic consequent — fully
/// deterministic.
///
/// ```
/// use mining_types::{FrequentSet, Itemset};
/// let fs: FrequentSet = [
///     (Itemset::of(&[1]), 10),
///     (Itemset::of(&[2]), 5),
///     (Itemset::of(&[1, 2]), 4),
/// ].into_iter().collect();
/// let rules = assoc_rules::generate(&fs, 0.5);
/// assert_eq!(rules.len(), 1); // {2} => {1} at confidence 0.8
/// assert!((rules[0].confidence() - 0.8).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics if a needed subset's support is missing (i.e. the input was
/// not downward closed).
pub fn generate(frequent: &FrequentSet, min_confidence: f64) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be in [0,1]"
    );
    let mut sorted: Vec<(&Itemset, u32)> = frequent.iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let table: Table<'_> = sorted
        .iter()
        .enumerate()
        .map(|(rank, &(x, support))| {
            let rank = u32::try_from(rank).expect("more itemsets than a u32 rank can order");
            (x.items(), (support, rank))
        })
        .collect();

    // (!confidence bits, !support, antecedent rank, consequent rank), one
    // per passing rule: ascending order is the documented order, and the
    // two ranks alone identify a rule, so no two keys are equal.
    let mut keys: Vec<(u64, u32, u32, u32)> = Vec::new();
    let mut buf: Vec<ItemId> = Vec::new();
    let mut level: Vec<u64> = Vec::new();
    let mut passing: Vec<u64> = Vec::new();
    let mut passed: FxHashSet<u64> = FxHashSet::default();
    for &(x, x_support) in &sorted {
        let items = x.items();
        let n = items.len();
        if n < 2 {
            continue;
        }
        assert!(
            n < 64,
            "rule generation needs a downward-closed frequent set, and one \
             holding a {n}-itemset would need 2^{n} - 1 members"
        );
        let full = (1u64 << n) - 1;
        // Level-wise consequent growth with superset pruning; a mask
        // never covers all of X, so the antecedent is never empty.
        level.clear();
        level.extend((0..n).map(|i| 1u64 << i));
        while !level.is_empty() {
            passing.clear();
            for &y in &level {
                let (a_support, a_rank) = lookup(&table, items, full & !y, &mut buf);
                let conf = x_support as f64 / a_support as f64;
                if conf >= min_confidence {
                    let (_, c_rank) = lookup(&table, items, y, &mut buf);
                    keys.push((!conf.to_bits(), !x_support, a_rank, c_rank));
                    passing.push(y);
                }
                // failed consequents are dropped — their supersets
                // cannot pass either
            }
            // Grow the next level: extend each passing mask by one
            // position above its highest, which yields every candidate
            // exactly once. A candidate is viable only if *every* one of
            // its one-smaller subsets passed: confidence is antitone in
            // the consequent, so one failed subset dooms the superset.
            // Checking all subsets prunes the candidate before its
            // confidence is ever computed, like the Apriori closure check.
            passed.clear();
            passed.extend(passing.iter().copied());
            level.clear();
            for &y in &passing {
                for top in (64 - y.leading_zeros() as usize)..n {
                    let candidate = y | 1u64 << top;
                    if candidate != full && subsets_passed(candidate, y, &passed) {
                        level.push(candidate);
                    }
                }
            }
        }
    }
    // `total_cmp` orders non-negative floats as their bits (a failed
    // division's NaN never passes the threshold), and rank order is
    // `Itemset`'s order, so this sort equals the documented comparator.
    keys.sort_unstable();
    // Built in output order: the rules' itemsets are allocated in the
    // order every later pass (snapshot copy, encode, drop) reads them.
    keys.into_iter()
        .map(|(_, not_support, a_rank, c_rank)| {
            let (antecedent, antecedent_support) = sorted[a_rank as usize];
            let (consequent, consequent_support) = sorted[c_rank as usize];
            Rule {
                antecedent: antecedent.clone(),
                consequent: consequent.clone(),
                support: !not_support,
                antecedent_support,
                consequent_support,
            }
        })
        .collect()
}

/// Support and rank of the items of `x` at the set bits of `mask`,
/// gathered into `buf` for the probe.
fn lookup(table: &Table<'_>, x: &[ItemId], mask: u64, buf: &mut Vec<ItemId>) -> (u32, u32) {
    buf.clear();
    let mut rest = mask;
    while rest != 0 {
        buf.push(x[rest.trailing_zeros() as usize]);
        rest &= rest - 1;
    }
    match table.get(buf.as_slice()) {
        Some(&entry) => entry,
        None => panic!(
            "rule generation needs a downward-closed frequent set; \
             missing support for {} — did you mine without singletons?",
            Itemset::from_sorted(buf.clone())
        ),
    }
}

/// Whether every one-smaller subset of `candidate` passed; `prefix`
/// (the candidate without its highest bit) is known to have.
fn subsets_passed(candidate: u64, prefix: u64, passed: &FxHashSet<u64>) -> bool {
    let mut rest = prefix;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        if !passed.contains(&(candidate & !bit)) {
            return false;
        }
        rest &= rest - 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    /// X = {1,2}: support({1}) = 10, support({2}) = 5, support({1,2}) = 4.
    fn small() -> FrequentSet {
        [(iset(&[1]), 10), (iset(&[2]), 5), (iset(&[1, 2]), 4)]
            .into_iter()
            .collect()
    }

    #[test]
    fn pair_rules_have_correct_confidence() {
        let rules = generate(&small(), 0.0);
        assert_eq!(rules.len(), 2);
        // {2}=>{1}: 4/5 = 0.8 sorts first; {1}=>{2}: 4/10 = 0.4
        assert_eq!(rules[0].antecedent, iset(&[2]));
        assert!((rules[0].confidence() - 0.8).abs() < 1e-12);
        assert_eq!(rules[1].antecedent, iset(&[1]));
        assert!((rules[1].confidence() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        assert_eq!(generate(&small(), 0.5).len(), 1);
        assert_eq!(generate(&small(), 0.81).len(), 0);
        // boundary: exactly 0.8 passes (>=)
        assert_eq!(generate(&small(), 0.8).len(), 1);
    }

    #[test]
    fn triple_generates_six_rules_at_zero_confidence() {
        let fs: FrequentSet = [
            (iset(&[1]), 8),
            (iset(&[2]), 8),
            (iset(&[3]), 8),
            (iset(&[1, 2]), 6),
            (iset(&[1, 3]), 6),
            (iset(&[2, 3]), 6),
            (iset(&[1, 2, 3]), 5),
        ]
        .into_iter()
        .collect();
        let rules = generate(&fs, 0.0);
        // pairs: 2 rules each ×3 = 6; triple: 3 single-consequent +
        // 3 double-consequent = 6 → 12 total
        assert_eq!(rules.len(), 12);
        // every rule's claimed supports are consistent
        for r in &rules {
            let x = r.antecedent.union(&r.consequent);
            assert_eq!(fs.support_of(&x), Some(r.support), "{r}");
            assert_eq!(fs.support_of(&r.antecedent), Some(r.antecedent_support));
            assert!(r.confidence() <= 1.0 && r.confidence() > 0.0);
        }
    }

    #[test]
    fn superset_pruning_is_sound() {
        // Compare level-wise pruned generation against naive full
        // enumeration on a random-ish closed set.
        let fs: FrequentSet = [
            (iset(&[0]), 20),
            (iset(&[1]), 15),
            (iset(&[2]), 12),
            (iset(&[3]), 18),
            (iset(&[0, 1]), 10),
            (iset(&[0, 2]), 9),
            (iset(&[0, 3]), 14),
            (iset(&[1, 2]), 8),
            (iset(&[1, 3]), 9),
            (iset(&[2, 3]), 8),
            (iset(&[0, 1, 2]), 7),
            (iset(&[0, 1, 3]), 8),
            (iset(&[0, 2, 3]), 7),
            (iset(&[1, 2, 3]), 6),
            (iset(&[0, 1, 2, 3]), 5),
        ]
        .into_iter()
        .collect();
        for conf in [0.0, 0.3, 0.5, 0.62, 0.8, 1.0] {
            let fast = generate(&fs, conf);
            let naive = naive_generate(&fs, conf);
            assert_eq!(fast.len(), naive.len(), "conf {conf}");
            for r in &fast {
                assert!(
                    naive
                        .iter()
                        .any(|n| n.antecedent == r.antecedent && n.consequent == r.consequent),
                    "missing {r} at conf {conf}"
                );
            }
        }
    }

    fn naive_generate(fs: &FrequentSet, min_conf: f64) -> Vec<Rule> {
        let mut out = Vec::new();
        for (x, xs) in fs.iter() {
            if x.len() < 2 {
                continue;
            }
            // all non-empty proper subsets as consequents
            for k in 1..x.len() {
                for y in x.k_subsets(k) {
                    let a = x.difference(&y);
                    let asup = fs.support_of(&a).unwrap();
                    if xs as f64 / asup as f64 >= min_conf {
                        out.push(Rule {
                            antecedent: a,
                            consequent: y.clone(),
                            support: xs,
                            antecedent_support: asup,
                            consequent_support: fs.support_of(&y).unwrap(),
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn identical_transactions_order_by_antecedent_then_consequent() {
        // 8 copies of {0..7}: every non-empty subset has support 8, so
        // every rule has confidence 1 and support 8, and only the
        // itemset tie-breaks order them. Σ_k C(8,k)(2^k − 2) over
        // k = 2..8 is 3^8 − 2^9 + 1 rules.
        let all: Vec<u32> = (0..8).collect();
        let db = dbstore::HorizontalDb::of(&[all.as_slice(); 8]);
        let fs = apriori::reference::brute_force(&db, mining_types::MinSupport::from_percent(50.0));
        assert_eq!(fs.len(), 255);
        let rules = generate(&fs, 1.0);
        assert_eq!(rules.len(), 6050);
        assert!(rules
            .iter()
            .all(|r| r.support == 8 && r.antecedent_support == 8 && r.consequent_support == 8));
        assert!(rules.windows(2).all(|w| {
            (&w[0].antecedent, &w[0].consequent) < (&w[1].antecedent, &w[1].consequent)
        }));
        assert_eq!(
            (&rules[0].antecedent, &rules[0].consequent),
            (&iset(&[0]), &iset(&[1]))
        );
        let last = rules.last().unwrap();
        assert_eq!(
            (&last.antecedent, &last.consequent),
            (&iset(&[7]), &iset(&[6]))
        );
        assert_eq!(generate(&fs, 0.0), rules);
    }

    #[test]
    fn lift_and_fractions() {
        let rules = generate(&small(), 0.5);
        let r = &rules[0];
        // {2}=>{1}: conf 0.8; base rate of {1} = 10/20 → lift 1.6
        assert!((r.lift(20) - 1.6).abs() < 1e-12);
        assert!((r.support_fraction(20) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn leverage_and_conviction_hand_computed() {
        // n = 10, sup({1}) = 6, sup({2}) = 5, sup({1,2}) = 4.
        let fs: FrequentSet = [(iset(&[1]), 6), (iset(&[2]), 5), (iset(&[1, 2]), 4)]
            .into_iter()
            .collect();
        let rules = generate(&fs, 0.0);
        let r = rules
            .iter()
            .find(|r| r.antecedent == iset(&[1]))
            .expect("{1} => {2}");
        // confidence = 4/6 = 2/3
        assert!((r.confidence() - 2.0 / 3.0).abs() < 1e-12);
        // leverage = 4/10 − (6/10)(5/10) = 0.4 − 0.3 = 0.1
        assert!((r.leverage(10) - 0.1).abs() < 1e-12, "{}", r.leverage(10));
        // conviction = (1 − 5/10) / (1 − 2/3) = 0.5 / (1/3) = 1.5
        assert!(
            (r.conviction(10) - 1.5).abs() < 1e-12,
            "{}",
            r.conviction(10)
        );

        // The mirror rule {2} => {1}: conf 4/5, leverage is symmetric,
        // conviction = (1 − 6/10) / (1 − 4/5) = 0.4 / 0.2 = 2.0.
        let m = rules
            .iter()
            .find(|r| r.antecedent == iset(&[2]))
            .expect("{2} => {1}");
        assert!((m.leverage(10) - 0.1).abs() < 1e-12);
        assert!((m.conviction(10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conviction_is_infinite_for_exact_rules() {
        // {2} always implies {1}: sup({2}) = sup({1,2}) = 4 → conf 1.
        let fs: FrequentSet = [(iset(&[1]), 8), (iset(&[2]), 4), (iset(&[1, 2]), 4)]
            .into_iter()
            .collect();
        let rules = generate(&fs, 0.9);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].confidence(), 1.0);
        assert!(rules[0].conviction(10).is_infinite());
        // An independent rule has conviction 1 and leverage 0:
        // n = 10, sup({1}) = 5, sup({2}) = 4, sup({1,2}) = 2 → conf 0.4.
        let ind: FrequentSet = [(iset(&[1]), 5), (iset(&[2]), 4), (iset(&[1, 2]), 2)]
            .into_iter()
            .collect();
        let r = generate(&ind, 0.0);
        let r = r.iter().find(|r| r.antecedent == iset(&[1])).unwrap();
        assert!((r.conviction(10) - 1.0).abs() < 1e-12);
        assert!(r.leverage(10).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "downward-closed")]
    fn missing_subset_panics() {
        let fs: FrequentSet = [(iset(&[1, 2]), 4), (iset(&[1]), 10)].into_iter().collect();
        generate(&fs, 0.0);
    }

    #[test]
    fn empty_and_singleton_only_sets_yield_no_rules() {
        assert!(generate(&FrequentSet::new(), 0.0).is_empty());
        let singles: FrequentSet = [(iset(&[1]), 5)].into_iter().collect();
        assert!(generate(&singles, 0.0).is_empty());
    }

    #[test]
    fn display_format() {
        let rules = generate(&small(), 0.5);
        let s = format!("{}", rules[0]);
        assert!(s.contains("=>"), "{s}");
        assert!(s.contains("confidence 0.800"), "{s}");
    }

    #[test]
    fn end_to_end_with_eclat() {
        let db = apriori::reference::random_db(5, 200, 12, 6);
        let minsup = mining_types::MinSupport::from_percent(5.0);
        let mut meter = mining_types::OpMeter::new();
        let fs = eclat::sequential::mine_with(
            &db,
            minsup,
            &eclat::EclatConfig::with_singletons(),
            &mut meter,
        );
        let rules = generate(&fs, 0.6);
        for r in &rules {
            assert!(r.confidence() >= 0.6);
            // spot-check against direct counting
            let count = db
                .iter()
                .filter(|(_, t)| {
                    r.antecedent.is_subset_of_sorted(t) && r.consequent.is_subset_of_sorted(t)
                })
                .count() as u32;
            assert_eq!(count, r.support, "{r}");
        }
    }
}
