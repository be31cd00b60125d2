//! The workspace's golden invariant: **every** miner produces the
//! identical frequent itemsets with identical supports on the same input.
//!
//! Algorithms covered: sequential Apriori, sequential Eclat, d-Eclat
//! (diffsets), rayon-parallel Eclat, cluster Eclat, hybrid Eclat, Count
//! Distribution, and Candidate Distribution — on realistic Quest data,
//! not just toy matrices.

use dbstore::HorizontalDb;
use eclat::EclatConfig;
use memchannel::{ClusterConfig, CostModel};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

fn quest_db(d: usize, seed: u64) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::tiny(d, seed)).generate_all())
}

fn strip_singletons(fs: &FrequentSet) -> FrequentSet {
    fs.iter()
        .filter(|(is, _)| is.len() >= 2)
        .map(|(is, s)| (is.clone(), s))
        .collect()
}

#[test]
fn all_miners_agree_on_quest_data() {
    let db = quest_db(3_000, 99);
    let minsup = MinSupport::from_percent(1.0);
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);

    let apriori_full = apriori::mine(&db, minsup);
    assert!(
        apriori_full.max_size() >= 3,
        "test input should produce itemsets beyond pairs, got max size {}",
        apriori_full.max_size()
    );
    let reference = strip_singletons(&apriori_full);

    let eclat_seq = eclat::sequential::mine(&db, minsup);
    assert_eq!(eclat_seq, reference, "sequential Eclat");

    let eclat_par = eclat::parallel::mine(&db, minsup);
    assert_eq!(eclat_par, reference, "rayon Eclat");

    let cluster = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cluster.frequent, reference, "cluster Eclat");

    let hybrid = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(hybrid.frequent, reference, "hybrid Eclat");

    let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cd.frequent, apriori_full, "Count Distribution");

    let cand = parbase::mine_candidate_dist(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cand.frequent, apriori_full, "Candidate Distribution");
}

#[test]
fn all_miners_agree_across_supports_and_seeds() {
    for seed in [3u64, 17] {
        let db = quest_db(1_500, seed);
        for pct in [0.8, 2.0, 5.0] {
            let minsup = MinSupport::from_percent(pct);
            let reference = eclat::sequential::mine(&db, minsup);
            assert_eq!(
                eclat::parallel::mine(&db, minsup),
                reference,
                "seed {seed} pct {pct}"
            );
            assert_eq!(
                strip_singletons(&apriori::mine(&db, minsup)),
                reference,
                "seed {seed} pct {pct}"
            );
        }
    }
}

#[test]
fn every_topology_and_heuristic_agrees() {
    let db = quest_db(2_000, 5);
    let minsup = MinSupport::from_percent(1.5);
    let cost = CostModel::dec_alpha_1997();
    let reference = eclat::sequential::mine(&db, minsup);
    for topo in [
        ClusterConfig::new(1, 1),
        ClusterConfig::new(3, 1),
        ClusterConfig::new(2, 3),
        ClusterConfig::new(5, 2),
    ] {
        for heuristic in [
            eclat::ScheduleHeuristic::GreedyPairs,
            eclat::ScheduleHeuristic::SupportWeighted,
            eclat::ScheduleHeuristic::RoundRobin,
        ] {
            let cfg = EclatConfig {
                heuristic,
                ..Default::default()
            };
            let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
            assert_eq!(rep.frequent, reference, "{} {:?}", topo.label(), heuristic);
        }
    }
}

#[test]
fn every_representation_agrees_on_quest_data() {
    use eclat::Representation;
    let db = quest_db(2_000, 42);
    let minsup = MinSupport::from_percent(1.5);
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);
    let reference = eclat::sequential::mine(&db, minsup);
    assert!(!reference.is_empty());
    for repr in [
        Representation::TidList,
        Representation::Diffset,
        Representation::AutoSwitch { depth: 1 },
        Representation::AutoSwitch { depth: 3 },
        Representation::Bitmap,
        Representation::AutoDensity { permille: 8 },
        // Extremes force the pure-diffset and pure-bitmap arms.
        Representation::AutoDensity { permille: 0 },
        Representation::AutoDensity { permille: 1000 },
    ] {
        let cfg = EclatConfig::with_representation(repr);
        let mut meter = OpMeter::new();
        assert_eq!(
            eclat::sequential::mine_with(&db, minsup, &cfg, &mut meter),
            reference,
            "sequential {repr:?}"
        );
        assert_eq!(
            eclat::parallel::mine_with(&db, minsup, &cfg, &mut OpMeter::new()),
            reference,
            "parallel {repr:?}"
        );
        assert_eq!(
            eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg).frequent,
            reference,
            "cluster {repr:?}"
        );
        assert_eq!(
            eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg).frequent,
            reference,
            "hybrid {repr:?}"
        );
        assert_eq!(
            eclat::clique::mine_with(&db, minsup, &cfg, &mut OpMeter::new()),
            reference,
            "clique {repr:?}"
        );
    }
}

/// The same representation matrix on a *dense* synthetic database — the
/// regime the bitmap representation targets, where auto-density actually
/// selects bitmaps (on sparse Quest data it stays on diffsets).
#[test]
fn every_representation_agrees_on_dense_data() {
    use eclat::Representation;
    let db = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::dense(1_500, 7)).generate_all(),
    );
    let minsup = MinSupport::from_percent(20.0);
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);
    let reference = eclat::sequential::mine(&db, minsup);
    assert!(!reference.is_empty());
    for repr in [
        Representation::Diffset,
        Representation::AutoSwitch { depth: 2 },
        Representation::Bitmap,
        Representation::AutoDensity { permille: 8 },
        Representation::AutoDensity { permille: 1000 },
    ] {
        let cfg = EclatConfig::with_representation(repr);
        assert_eq!(
            eclat::sequential::mine_with(&db, minsup, &cfg, &mut OpMeter::new()),
            reference,
            "sequential {repr:?}"
        );
        assert_eq!(
            eclat::parallel::mine_with(&db, minsup, &cfg, &mut OpMeter::new()),
            reference,
            "parallel {repr:?}"
        );
        assert_eq!(
            eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg).frequent,
            reference,
            "cluster {repr:?}"
        );
        assert_eq!(
            eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg).frequent,
            reference,
            "hybrid {repr:?}"
        );
    }
}

#[test]
fn maximal_mining_agrees_across_representations() {
    use eclat::Representation;
    let minsup = MinSupport::from_percent(1.5);
    // A dense database (8-item core present in every transaction) forces
    // deep look-aheads; the Quest data exercises the sparse regime.
    let dense = HorizontalDb::from_transactions(
        (0..200u32)
            .map(|i| {
                let mut t: Vec<mining_types::ItemId> = (0..8).map(mining_types::ItemId).collect();
                t.push(mining_types::ItemId(8 + (i % 7)));
                t
            })
            .collect::<Vec<_>>(),
    );
    for (label, db) in [("quest", quest_db(2_000, 42)), ("dense", dense)] {
        let reference = eclat::maximal::maximal_of(&eclat::sequential::mine(&db, minsup));
        assert!(!reference.is_empty(), "{label}");
        for repr in [
            Representation::TidList,
            Representation::Diffset,
            Representation::AutoSwitch { depth: 0 },
            Representation::AutoSwitch { depth: 2 },
            Representation::Bitmap,
            Representation::AutoDensity { permille: 8 },
        ] {
            let cfg = EclatConfig::with_representation(repr);
            let got = eclat::maximal::mine_maximal_with(&db, minsup, &cfg, &mut OpMeter::new());
            assert_eq!(got, reference, "{label} {repr:?}");
        }
    }
}

#[test]
fn downward_closure_on_quest_output() {
    let db = quest_db(2_500, 1);
    let minsup = MinSupport::from_percent(1.0);
    let mut meter = OpMeter::new();
    let fs = eclat::sequential::mine_with(&db, minsup, &EclatConfig::with_singletons(), &mut meter);
    assert_eq!(fs.closure_violation(), None);
}

#[test]
fn supports_match_direct_counting() {
    // Every reported support must equal a from-scratch scan count.
    let db = quest_db(1_000, 8);
    let minsup = MinSupport::from_percent(2.0);
    let fs = eclat::sequential::mine(&db, minsup);
    assert!(!fs.is_empty());
    for (is, sup) in fs.iter() {
        let direct = db.iter().filter(|(_, t)| is.is_subset_of_sorted(t)).count() as u32;
        assert_eq!(direct, sup, "{is}");
    }
}
