//! Property-based tests of rule generation against a naive enumerator,
//! over arbitrary downward-closed frequent sets built from random
//! databases (so supports are always realizable).

use apriori::reference::{brute_force, random_db};
use assoc_rules::generate;
use mining_types::{FrequentSet, MinSupport, Rule};
use proptest::prelude::*;

/// Every rule of every itemset, enumerated without pruning and sorted
/// by the documented comparator: descending confidence, descending
/// support, then lexicographic antecedent and consequent.
fn naive(fs: &FrequentSet, min_conf: f64) -> Vec<Rule> {
    let mut out = Vec::new();
    for (x, xs) in fs.iter() {
        if x.len() < 2 {
            continue;
        }
        for k in 1..x.len() {
            for y in x.k_subsets(k) {
                let a = x.difference(&y);
                let asup = fs.support_of(&a).unwrap();
                if xs as f64 / asup as f64 >= min_conf {
                    out.push(Rule {
                        antecedent: a,
                        consequent_support: fs.support_of(&y).unwrap(),
                        consequent: y,
                        support: xs,
                        antecedent_support: asup,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.confidence()
            .total_cmp(&a.confidence())
            .then(b.support.cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fast_generation_equals_naive_enumeration(
        seed in 0u64..500,
        pct in 8.0f64..40.0,
        conf in 0.05f64..0.95,
    ) {
        let db = random_db(seed, 100, 10, 5);
        let fs = brute_force(&db, MinSupport::from_percent(pct));
        // The whole output, order and all five fields, at the sampled
        // threshold and at both ends of the range.
        for min_conf in [0.0, conf, 1.0] {
            prop_assert_eq!(generate(&fs, min_conf), naive(&fs, min_conf), "conf {}", min_conf);
        }
    }

    #[test]
    fn confidence_monotone_in_threshold(seed in 0u64..200, pct in 10.0f64..30.0) {
        let db = random_db(seed, 80, 10, 5);
        let fs = brute_force(&db, MinSupport::from_percent(pct));
        let lo = generate(&fs, 0.2);
        let hi = generate(&fs, 0.7);
        prop_assert!(hi.len() <= lo.len());
        for r in &hi {
            prop_assert!(
                lo.iter().any(|l| l.antecedent == r.antecedent && l.consequent == r.consequent),
                "rule lost when lowering the threshold"
            );
        }
    }

    #[test]
    fn rule_statistics_are_consistent(seed in 0u64..200, conf in 0.1f64..0.9) {
        let db = random_db(seed, 120, 10, 5);
        let n = db.num_transactions();
        let fs = brute_force(&db, MinSupport::from_percent(10.0));
        for r in generate(&fs, conf) {
            prop_assert!(r.confidence() >= conf && r.confidence() <= 1.0 + 1e-12);
            prop_assert!(r.support <= r.antecedent_support);
            prop_assert!(r.support <= r.consequent_support);
            prop_assert!(r.lift(n) > 0.0);
            prop_assert!(r.support_fraction(n) <= 1.0);
            prop_assert!(!r.antecedent.is_empty() && !r.consequent.is_empty());
            // antecedent and consequent are disjoint
            prop_assert!(r.antecedent.difference(&r.consequent) == r.antecedent);
        }
    }
}
