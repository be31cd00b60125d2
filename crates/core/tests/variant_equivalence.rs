//! Cross-variant equivalence on Quest-structured data: every Eclat
//! flavor — prefix classes, clique clusters, diffsets, rayon, plus
//! MaxEclat's frontier — must agree, under every config combination.

use dbstore::HorizontalDb;
use eclat::{EclatConfig, Representation, ScheduleHeuristic};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use proptest::prelude::*;
use questgen::{QuestGenerator, QuestParams};

fn quest(d: usize, seed: u64) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::tiny(d, seed)).generate_all())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_variants_agree_on_quest_data(seed in 0u64..1000, pct in 1.0f64..6.0) {
        let db = quest(800, seed);
        let minsup = MinSupport::from_percent(pct);
        let reference = eclat::sequential::mine(&db, minsup);

        let mut meter = OpMeter::new();
        let clique = eclat::clique::mine_with(&db, minsup, &EclatConfig::default(), &mut meter);
        prop_assert_eq!(&clique, &reference, "clique clustering");

        let par = eclat::parallel::mine(&db, minsup);
        prop_assert_eq!(&par, &reference, "rayon");

        // maximal frontier consistency
        let max = eclat::maximal::mine_maximal(&db, minsup);
        let oracle = eclat::maximal::maximal_of(&reference);
        prop_assert_eq!(&max, &oracle, "MaxEclat");
        // every frequent itemset is under some maximal one
        for (is, _) in reference.iter() {
            prop_assert!(
                max.iter().any(|(m, _)| is.is_subset_of(m)),
                "{} not covered by any maximal set", is
            );
        }
    }

    #[test]
    fn config_matrix_agrees(seed in 0u64..200, sc in any::<bool>(), prune in any::<bool>()) {
        let db = quest(500, seed);
        let minsup = MinSupport::from_percent(2.0);
        let reference = eclat::sequential::mine(&db, minsup);
        let cfg = EclatConfig {
            short_circuit: sc,
            prune,
            heuristic: ScheduleHeuristic::GreedyPairs,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        prop_assert_eq!(
            eclat::sequential::mine_with(&db, minsup, &cfg, &mut meter),
            reference
        );
    }

    #[test]
    fn buffer_size_never_changes_cluster_results(
        seed in 0u64..100,
        buffer_kb in 1u64..64,
        hosts in 1usize..4,
        ppn in 1usize..3,
    ) {
        let db = quest(400, seed);
        let minsup = MinSupport::from_percent(2.0);
        let topo = memchannel::ClusterConfig::new(hosts, ppn);
        let cost = memchannel::CostModel::dec_alpha_1997();
        let reference = eclat::sequential::mine(&db, minsup);
        let cfg = EclatConfig {
            buffer_bytes: buffer_kb * 1024,
            ..Default::default()
        };
        let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
        prop_assert_eq!(&rep.frequent, &reference);
        // smaller buffers → at least as many exchange rounds
        prop_assert!(rep.exchange_rounds < 100_000);
    }
}

#[test]
fn smaller_exchange_buffers_mean_more_rounds() {
    let db = quest(1_500, 9);
    let minsup = MinSupport::from_percent(1.0);
    let topo = memchannel::ClusterConfig::new(4, 1);
    let cost = memchannel::CostModel::dec_alpha_1997();
    let run = |kb: u64| {
        eclat::cluster::mine_cluster(
            &db,
            minsup,
            &topo,
            &cost,
            &EclatConfig {
                buffer_bytes: kb * 1024,
                ..Default::default()
            },
        )
    };
    let small = run(2);
    let large = run(2048);
    assert_eq!(small.frequent, large.frequent);
    assert!(
        small.exchange_rounds >= large.exchange_rounds,
        "{} vs {}",
        small.exchange_rounds,
        large.exchange_rounds
    );
    // more lock-step rounds must not make the simulated time *smaller*
    // by more than noise
    assert!(small.total_secs() >= large.total_secs() * 0.99);
}

#[test]
fn support_monotonicity() {
    // Raising the threshold can only shrink the answer, and surviving
    // supports are unchanged.
    let db = quest(1_000, 4);
    let lo = eclat::sequential::mine(&db, MinSupport::from_percent(1.0));
    let hi = eclat::sequential::mine(&db, MinSupport::from_percent(3.0));
    assert!(hi.len() < lo.len());
    for (is, sup) in hi.iter() {
        assert_eq!(lo.support_of(is), Some(sup), "{is}");
    }
    let lo_threshold = MinSupport::from_percent(3.0).count_threshold(db.num_transactions());
    let surviving: FrequentSet = lo
        .iter()
        .filter(|&(_, s)| s >= lo_threshold)
        .map(|(is, s)| (is.clone(), s))
        .collect();
    assert_eq!(surviving, hi);
}

/// Every field of a meter, in declaration order.
fn fields(m: &OpMeter) -> [u64; 6] {
    [
        m.tid_cmp,
        m.hash_probe,
        m.pair_incr,
        m.subsets_gen,
        m.cand_gen,
        m.record,
    ]
}

/// The simulated cluster prices every phase from `OpMeter`, so each
/// representation's exact operation counts are part of the cost model:
/// a kernel rewrite that keeps the output but moves a count moves every
/// simulated second. Fields are `[tid_cmp, hash_probe, pair_incr,
/// subsets_gen, cand_gen, record]`.
#[test]
fn op_counts_are_pinned() {
    use Representation::{AutoSwitch, Bitmap, Diffset, TidList};
    let db = quest(2_000, 42);
    let minsup = MinSupport::from_percent(1.5);
    // Every run meters the same scans and candidates; the joins' `tid_cmp`
    // is what the representation moves.
    let meter = |tid_cmp| [tid_cmp, 0, 122_300, 0, 8_631, 55_080];
    // (representation, gallop, short_circuit, meter)
    let pinned = [
        (TidList, false, true, meter(754_589)),
        (TidList, false, false, meter(1_131_031)),
        (TidList, true, true, meter(1_131_031)),
        (TidList, true, false, meter(1_131_031)),
        (Diffset, false, true, meter(959_772)),
        (Diffset, false, false, meter(1_356_080)),
        (AutoSwitch { depth: 1 }, false, true, meter(770_075)),
        (AutoSwitch { depth: 1 }, false, false, meter(1_144_940)),
        (AutoSwitch { depth: 3 }, false, true, meter(762_543)),
        (AutoSwitch { depth: 3 }, false, false, meter(1_139_030)),
        (Bitmap, false, true, meter(275_649)),
        (Bitmap, false, false, meter(275_649)),
    ];
    for (representation, gallop, short_circuit, expect) in pinned {
        let cfg = EclatConfig {
            representation,
            gallop,
            short_circuit,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        eclat::sequential::mine_with(&db, minsup, &cfg, &mut meter);
        assert_eq!(
            fields(&meter),
            expect,
            "{representation:?} gallop {gallop} sc {short_circuit}"
        );
    }
    // The paper's configuration is exactly the first row: tid-lists,
    // merge joins, short-circuited.
    let mut meter = OpMeter::new();
    eclat::sequential::mine_with(&db, minsup, &EclatConfig::paper(), &mut meter);
    assert_eq!(fields(&meter), pinned[0].3, "paper");

    for (representation, expect) in [
        (TidList, [734_949, 0, 122_300, 0, 7_284, 55_080]),
        (Diffset, [1_008_900, 0, 122_300, 0, 7_284, 55_080]),
    ] {
        let mut meter = OpMeter::new();
        let cfg = EclatConfig::with_representation(representation);
        eclat::maximal::mine_maximal_with(&db, minsup, &cfg, &mut meter);
        assert_eq!(fields(&meter), expect, "maximal {representation:?}");
    }

    // On a dense database every class takes auto-density's bitmap arm,
    // so it — and the default, which is auto-density — meters exactly
    // what plain bitmaps do.
    let dense = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::dense(1_500, 7)).generate_all(),
    );
    let minsup = MinSupport::from_percent(20.0);
    for cfg in [
        EclatConfig::with_representation(Representation::AutoDensity { permille: 8 }),
        EclatConfig::with_representation(Bitmap),
        EclatConfig::default(),
    ] {
        let mut meter = OpMeter::new();
        eclat::sequential::mine_with(&dense, minsup, &cfg, &mut meter);
        assert_eq!(
            fields(&meter),
            [47_559, 0, 190_012, 0, 1_983, 34_259],
            "dense {:?}",
            cfg.representation
        );
    }

    // On T10.I6.D5K at 0.5 % every class is sparser than the default
    // threshold (the densest is 8.4‰), so the default meters exactly
    // what plain diffsets do.
    let sparse = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::t10_i6(5_000).with_seed(7)).generate_all(),
    );
    let minsup = MinSupport::from_percent(0.5);
    for cfg in [
        EclatConfig::with_representation(Diffset),
        EclatConfig::default(),
    ] {
        let mut meter = OpMeter::new();
        eclat::sequential::mine_with(&sparse, minsup, &cfg, &mut meter);
        assert_eq!(
            fields(&meter),
            [33_428, 0, 579_774, 0, 1_882, 19_888],
            "sparse {:?}",
            cfg.representation
        );
    }
}
