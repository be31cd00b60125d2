//! Oracle equivalence: every `assoc-serve` query answer must equal a
//! naive linear scan over the `FrequentSet` / rule-list it was built
//! from, for arbitrary mined databases — and the cache must never change
//! an answer (cold, warm, and cache-disabled stores all agree).

use apriori::reference::{brute_force, random_db};
use assoc_serve::{Dataset, Query, Response, Store, DEFAULT_CACHE_ENTRIES};
use mining_types::{Counted, ItemId, Itemset, MinSupport};
use proptest::prelude::*;

const NUM_ITEMS: u32 = 9;

fn mask_itemset(mask: u32) -> Itemset {
    Itemset::from_sorted(
        (0..NUM_ITEMS)
            .filter(|b| mask & (1 << b) != 0)
            .map(ItemId)
            .collect(),
    )
}

fn mined(seed: u64, pct: f64, conf: f64) -> Dataset {
    let db = random_db(seed, 90, NUM_ITEMS, 5);
    let frequent = brute_force(&db, MinSupport::from_percent(pct));
    let rules = assoc_rules::generate(&frequent, conf);
    Dataset {
        frequent,
        rules,
        num_transactions: db.num_transactions() as u32,
    }
}

fn naive_support(ds: &Dataset, q: &Itemset) -> Response {
    if q.is_empty() {
        return Response::Support(None);
    }
    Response::Support(ds.frequent.support_of(q))
}

fn lex_limited(mut v: Vec<Counted>, limit: u32) -> Response {
    v.sort_by(|a, b| a.itemset.cmp(&b.itemset));
    v.truncate(limit as usize);
    Response::Itemsets(v)
}

fn naive_subsets(ds: &Dataset, q: &Itemset, limit: u32) -> Response {
    lex_limited(
        ds.frequent
            .sorted()
            .into_iter()
            .filter(|c| c.itemset.is_subset_of(q))
            .collect(),
        limit,
    )
}

fn naive_supersets(ds: &Dataset, q: &Itemset, limit: u32) -> Response {
    lex_limited(
        ds.frequent
            .sorted()
            .into_iter()
            .filter(|c| q.is_subset_of(&c.itemset))
            .collect(),
        limit,
    )
}

fn naive_rules_for(ds: &Dataset, antecedent: &Itemset, k: u32) -> Response {
    let mut entries: Vec<assoc_serve::RuleEntry> = ds
        .rules
        .iter()
        .filter(|r| &r.antecedent == antecedent)
        .map(|r| assoc_serve::RuleEntry {
            consequent: r.consequent.clone(),
            support: r.support,
            antecedent_support: r.antecedent_support,
            consequent_support: r.consequent_support,
        })
        .collect();
    // Confidence descending: with the antecedent fixed, the shared
    // antecedent support makes that exactly support descending.
    entries.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(a.consequent.cmp(&b.consequent))
    });
    entries.truncate(k as usize);
    Response::Rules(entries)
}

fn naive_top_k(ds: &Dataset, size: u32, k: u32) -> Response {
    let mut v: Vec<Counted> = ds
        .frequent
        .sorted()
        .into_iter()
        .filter(|c| size == 0 || c.itemset.len() == size as usize)
        .collect();
    v.sort_by(|a, b| b.support.cmp(&a.support).then(a.itemset.cmp(&b.itemset)));
    v.truncate(k as usize);
    Response::Itemsets(v)
}

/// Run `q` against a caching store (cold then warm) and a cache-disabled
/// store, assert all three equal, and return the answer.
fn served(cached: &Store, uncached: &Store, q: &Query) -> Response {
    let cold = cached.execute(q);
    let warm = cached.execute(q);
    let none = uncached.execute(q);
    assert_eq!(cold, warm, "cache warm/cold divergence on {q:?}");
    assert_eq!(cold, none, "cache on/off divergence on {q:?}");
    cold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_four_query_types_match_the_linear_scan_oracle(
        seed in 0u64..400,
        pct in 6.0f64..30.0,
        conf in 0.05f64..0.9,
        mask_a in 0u32..512,
        mask_b in 0u32..512,
        limit in 0u32..40,
        size in 0u32..5,
        k in 0u32..15,
    ) {
        let ds = mined(seed, pct, conf);
        let cached = Store::with_dataset(&ds, 64);
        let uncached = Store::with_dataset(&ds, 0);

        for mask in [mask_a, mask_b] {
            let q = mask_itemset(mask);
            prop_assert_eq!(
                served(&cached, &uncached, &Query::Support { itemset: q.clone() }),
                naive_support(&ds, &q)
            );
            prop_assert_eq!(
                served(&cached, &uncached, &Query::Subsets { of: q.clone(), limit }),
                naive_subsets(&ds, &q, limit)
            );
            prop_assert_eq!(
                served(&cached, &uncached, &Query::Supersets { of: q.clone(), limit }),
                naive_supersets(&ds, &q, limit)
            );
            // Antecedents that actually occur are far more interesting
            // than random masks, so probe both.
            let mut antecedents = vec![q.clone()];
            if let Some(r) = ds.rules.get((mask as usize) % ds.rules.len().max(1)) {
                antecedents.push(r.antecedent.clone());
            }
            for a in antecedents {
                prop_assert_eq!(
                    served(&cached, &uncached, &Query::RulesFor { antecedent: a.clone(), k }),
                    naive_rules_for(&ds, &a, k)
                );
            }
        }
        prop_assert_eq!(
            served(&cached, &uncached, &Query::TopK { size, k }),
            naive_top_k(&ds, size, k)
        );

        // The caching store answered every query at least twice, so the
        // warm passes must have hit (repeated queries can only add hits).
        let cs = cached.cache_stats();
        prop_assert!(cs.hits >= cs.misses, "hits {} < misses {}", cs.hits, cs.misses);
        prop_assert!(cs.hits > 0);
    }
}

#[test]
fn wire_roundtrip_preserves_every_answer() {
    // Encode → decode every response produced over one dataset; the wire
    // representation must be lossless so the TCP path can't diverge from
    // the in-process path.
    let ds = mined(7, 10.0, 0.3);
    let store = Store::with_dataset(&ds, DEFAULT_CACHE_ENTRIES);
    let mut queries = vec![Query::TopK { size: 0, k: 50 }];
    for mask in 0u32..64 {
        let q = mask_itemset(mask);
        queries.push(Query::Support { itemset: q.clone() });
        queries.push(Query::Subsets {
            of: q.clone(),
            limit: 20,
        });
        queries.push(Query::Supersets {
            of: q.clone(),
            limit: 20,
        });
        queries.push(Query::RulesFor {
            antecedent: q,
            k: 10,
        });
    }
    for q in &queries {
        let decoded_q = Query::decode(&q.encode()).expect("query roundtrip");
        assert_eq!(&decoded_q, q);
        let resp = store.execute(q);
        let decoded = Response::decode(&resp.encode()).expect("response roundtrip");
        assert_eq!(decoded, resp, "{q:?}");
    }
}
