//! Regression tests for the *shapes* of the paper's evaluation artifacts
//! (the things EXPERIMENTS.md reports), at test-friendly scale.

use dbstore::HorizontalDb;
use mining_types::MinSupport;
use questgen::{QuestGenerator, QuestParams};

fn quest(d: usize) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::t10_i6(d)).generate_all())
}

#[test]
fn figure6_shape_unimodal_with_geometric_tail() {
    let db = quest(5_000);
    let fs = eclat::sequential::mine(&db, MinSupport::from_percent(0.1));
    let counts = fs.counts_by_size(); // index 0 = size 1 (zero here)
    assert_eq!(counts[0], 0, "Eclat reports no singletons");
    let sizes: Vec<usize> = counts[1..].to_vec();
    assert!(
        sizes.len() >= 8,
        "expected deep lattice, got {} levels",
        sizes.len()
    );
    // unimodal: rises to a single peak then falls
    let peak = sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    let peak_k = peak + 2;
    assert!(
        (3..=7).contains(&peak_k),
        "peak at k={peak_k}, paper peaks mid-range"
    );
    for w in sizes[..=peak].windows(2) {
        assert!(w[0] <= w[1], "non-rising before the peak: {sizes:?}");
    }
    for w in sizes[peak..].windows(2) {
        assert!(w[0] >= w[1], "non-falling after the peak: {sizes:?}");
    }
    assert!(
        fs.len() > 10_000,
        "0.1% support should yield a rich lattice"
    );
}

#[test]
fn smaller_database_has_more_frequent_itemsets_at_fixed_percent() {
    // §8.1: "Even though T10.I6.D800K is half the size of
    // T10.I6.D1600K, it has more than twice as many frequent itemsets"
    // (at fixed 0.1 %). The monotone form holds at any scale pair.
    let small = eclat::sequential::mine(&quest(4_000), MinSupport::from_percent(0.1)).len();
    let large = eclat::sequential::mine(&quest(16_000), MinSupport::from_percent(0.1)).len();
    assert!(
        small > large,
        "D4K → {small} itemsets should exceed D16K → {large}"
    );
}

#[test]
fn table2_improvement_ratio_in_paper_band() {
    let db = quest(8_000);
    let minsup = MinSupport::from_percent(0.1);
    let cost = memchannel::CostModel::dec_alpha_1997();
    let topo = memchannel::ClusterConfig::sequential();
    let ec = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &eclat::EclatConfig::paper());
    let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
    let ratio = cd.total_secs() / ec.total_secs();
    // paper band: 5.2–17.7 sequential; accept a generous neighborhood
    // so calibration nudges don't break the build
    assert!(
        (3.0..30.0).contains(&ratio),
        "sequential CD/E ratio {ratio:.1} left the plausible band"
    );
    // setup share of Eclat total: paper says ~55-60 %
    let setup_frac = ec.setup_secs() / ec.total_secs();
    assert!(
        (0.35..0.9).contains(&setup_frac),
        "setup fraction {setup_frac:.2}"
    );
}

#[test]
fn iterations_match_lattice_depth() {
    // CD iterates once per level; Eclat finds the same depth.
    let db = quest(4_000);
    let minsup = MinSupport::from_percent(0.1);
    let cost = memchannel::CostModel::dec_alpha_1997();
    let cd = parbase::mine_count_dist(
        &db,
        minsup,
        &memchannel::ClusterConfig::sequential(),
        &cost,
        &Default::default(),
    );
    let depth = cd.frequent.max_size();
    assert!(
        cd.iterations == depth + 1 || cd.iterations == depth,
        "iterations {} vs depth {depth}",
        cd.iterations
    );
    assert!(depth >= 8, "expected a deep lattice, got {depth}");
}
