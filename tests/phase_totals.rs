//! Every stats report's `total_ops` is the sum of its phases' ops: the
//! live and simulated itemset miners, MaxEclat and SPADE, including the
//! early exits where no pair (or no 2-sequence) is mined.

use dbstore::HorizontalDb;
use eclat::EclatConfig;
use eclat_seq::{SeqConfig, SeqDb};
use memchannel::{ClusterConfig, CostModel};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams, SeqGenerator, SeqParams};

#[test]
fn total_ops_is_the_sum_of_the_phases() {
    let quest = QuestGenerator::new(QuestParams::tiny(800, 3)).generate_all();
    let quest = HorizontalDb::from_transactions(quest);
    let no_pairs = HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
    let (cfg, cost, topo) = (
        EclatConfig::with_singletons(),
        CostModel::dec_alpha_1997(),
        ClusterConfig::new(2, 2),
    );
    let mut reports = Vec::new();
    for (db, minsup) in [
        (&quest, MinSupport::from_percent(2.0)),
        (&no_pairs, MinSupport::from_fraction(0.6)),
    ] {
        reports.extend([
            eclat::sequential::mine_stats(db, minsup, &cfg, &mut OpMeter::new()).1,
            eclat::parallel::mine_stats(db, minsup, &cfg, &mut OpMeter::new()).1,
            eclat::maximal::mine_maximal_stats(db, minsup, &cfg, &mut OpMeter::new()).1,
            eclat::cluster::mine_cluster(db, minsup, &topo, &cost, &cfg).stats,
            eclat::hybrid::mine_hybrid(db, minsup, &topo, &cost, &cfg).stats,
        ]);
    }
    let seqs = SeqDb::from_events(SeqGenerator::new(SeqParams::tiny(120, 1)).generate_all_raw());
    for maxlen in [None, Some(1)] {
        let cfg = SeqConfig {
            maxlen,
            ..SeqConfig::default()
        };
        let policy = eclat::pipeline::FixedThreads::new(2);
        let minsup = MinSupport::from_percent(20.0);
        let (_, stats) =
            eclat_seq::mine_stats(&seqs, minsup, &cfg, &mut OpMeter::new(), &policy, "");
        reports.push(stats);
    }

    for stats in reports {
        let mut sum = OpMeter::new();
        for p in &stats.phases {
            sum += p.ops;
        }
        assert!(!stats.phases.is_empty(), "{}: no phases", stats.algorithm);
        assert_eq!(
            stats.total_ops, sum,
            "{} / {}",
            stats.algorithm, stats.variant
        );
    }
}
