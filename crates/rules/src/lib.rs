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

use mining_types::{FrequentSet, FxHashSet, Itemset};

pub use mining_types::Rule;

/// Generate all rules meeting `min_confidence` from a **downward-closed**
/// frequent set (it must include every subset of every member, singletons
/// included — e.g. Apriori output, or Eclat with
/// `EclatConfig::with_singletons`).
///
/// Output is sorted by descending confidence, then descending support,
/// then lexicographic antecedent — fully deterministic.
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
    let mut rules = Vec::new();
    for (x, x_support) in frequent.iter() {
        if x.len() < 2 {
            continue;
        }
        // Level-wise consequent growth with superset pruning.
        let mut consequents: Vec<Itemset> = x.items().iter().map(|&i| Itemset::single(i)).collect();
        while !consequents.is_empty() {
            let mut passing: Vec<Itemset> = Vec::new();
            for y in consequents {
                if y.len() == x.len() {
                    continue; // the antecedent must be non-empty
                }
                let antecedent = x.difference(&y);
                let a_support = support_of(frequent, &antecedent);
                let conf = x_support as f64 / a_support as f64;
                if conf >= min_confidence {
                    rules.push(Rule {
                        antecedent,
                        consequent: y.clone(),
                        support: x_support,
                        antecedent_support: a_support,
                        consequent_support: support_of(frequent, &y),
                    });
                    passing.push(y);
                }
                // failed consequents are dropped — their supersets
                // cannot pass either
            }
            // Grow the next consequent level from the passing ones. A
            // candidate is viable only if *every* one of its k-subsets
            // passed: confidence is antitone in the consequent, so one
            // failed subset dooms the whole superset. Checking all
            // subsets (not just the two joined parents) prunes the
            // candidate before its confidence is ever computed, exactly
            // like the Apriori candidate-closure check.
            let passed: FxHashSet<&Itemset> = passing.iter().collect();
            let mut seen: FxHashSet<Itemset> = FxHashSet::default();
            let mut next: Vec<Itemset> = Vec::new();
            for i in 0..passing.len() {
                for j in i + 1..passing.len() {
                    if let Some(joined) = passing[i].join(&passing[j]) {
                        if joined.len() < x.len()
                            && joined.is_subset_of(x)
                            && !seen.contains(&joined)
                        {
                            seen.insert(joined.clone());
                            if joined
                                .k_subsets(joined.len() - 1)
                                .all(|s| passed.contains(&s))
                            {
                                next.push(joined);
                            }
                        }
                    }
                }
            }
            consequents = next;
        }
    }
    rules.sort_by(|a, b| {
        b.confidence()
            .total_cmp(&a.confidence())
            .then(b.support.cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules
}

fn support_of(frequent: &FrequentSet, itemset: &Itemset) -> u32 {
    frequent.support_of(itemset).unwrap_or_else(|| {
        panic!(
            "rule generation needs a downward-closed frequent set; \
             missing support for {itemset} — did you mine without singletons?"
        )
    })
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
