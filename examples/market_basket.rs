//! Market-basket analysis — the paper's prototypical application (§1):
//! *"The prototypical application is the analysis of sales or basket
//! data. … The data-mining provides information about the set of items
//! generally bought together."*
//!
//! Builds a retail scenario with named products, plants a handful of
//! ground-truth co-purchase patterns on top of noise, mines with the
//! shared-memory parallel Eclat, and checks the planted patterns are recovered.
//!
//! ```text
//! cargo run --example market_basket --release
//! ```

use eclat_repro::prelude::*;
use mining_types::ItemId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRODUCTS: &[&str] = &[
    "bread",
    "butter",
    "milk",
    "eggs",
    "cheese",
    "apples",
    "bananas",
    "coffee",
    "tea",
    "sugar",
    "pasta",
    "tomato-sauce",
    "parmesan",
    "beer",
    "chips",
    "salsa",
    "diapers",
    "wipes",
    "cereal",
    "yogurt",
    "chicken",
    "rice",
    "beans",
    "salt",
    "pepper",
    "oil",
    "flour",
    "chocolate",
    "wine",
    "crackers",
];

/// Planted co-purchase patterns with their basket probability.
const PATTERNS: &[(&[usize], f64)] = &[
    (&[0, 1, 2], 0.18),    // bread + butter + milk
    (&[10, 11, 12], 0.12), // pasta + tomato-sauce + parmesan
    (&[13, 14, 15], 0.10), // beer + chips + salsa
    (&[16, 17], 0.08),     // diapers + wipes
    (&[7, 9], 0.15),       // coffee + sugar
];

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 20_000usize;
    let mut txns: Vec<Vec<ItemId>> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut basket: Vec<ItemId> = Vec::new();
        for &(items, p) in PATTERNS {
            if rng.random::<f64>() < p {
                basket.extend(items.iter().map(|&i| ItemId(i as u32)));
            }
        }
        // 1..6 random filler products
        for _ in 0..rng.random_range(1..6) {
            basket.push(ItemId(rng.random_range(0..PRODUCTS.len() as u32)));
        }
        txns.push(basket);
    }
    let db = HorizontalDb::from_transactions(txns);
    println!(
        "{} baskets over {} products\n",
        db.num_transactions(),
        PRODUCTS.len()
    );

    // Mine with the shared-memory parallel Eclat at 5 % support.
    let minsup = MinSupport::from_percent(5.0);
    let mut meter = mining_types::OpMeter::new();
    let frequent = eclat::parallel::mine_with(
        &db,
        minsup,
        &eclat::EclatConfig::with_singletons(),
        &mut meter,
    );
    println!("frequent itemsets (>=2 items):");
    for c in frequent.sorted() {
        if c.itemset.len() >= 2 {
            let names: Vec<&str> = c
                .itemset
                .items()
                .iter()
                .map(|i| PRODUCTS[i.index()])
                .collect();
            println!("  {:<40} support {:>5}", names.join(" + "), c.support);
        }
    }

    // Every planted pattern must be recovered.
    for &(items, p) in PATTERNS {
        let is = mining_types::Itemset::from_unsorted(items.iter().map(|&i| ItemId(i as u32)));
        let sup = frequent
            .support_of(&is)
            .unwrap_or_else(|| panic!("planted pattern {is} not recovered"));
        println!(
            "planted {:?}: expected ~{:.0}, mined {}",
            items.iter().map(|&i| PRODUCTS[i]).collect::<Vec<_>>(),
            p * n as f64,
            sup
        );
    }

    // High-confidence rules.
    println!("\nrules at 80% confidence:");
    for r in assoc_rules::generate(&frequent, 0.8).iter().take(12) {
        let name = |is: &mining_types::Itemset| {
            is.items()
                .iter()
                .map(|i| PRODUCTS[i.index()])
                .collect::<Vec<_>>()
                .join("+")
        };
        println!(
            "  {:<28} => {:<18} conf {:.2}  lift {:.1}",
            name(&r.antecedent),
            name(&r.consequent),
            r.confidence(),
            r.lift(db.num_transactions())
        );
    }
}
