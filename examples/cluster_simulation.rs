//! Run the paper's distributed Eclat against Count Distribution on the
//! simulated 8-host DEC Memory Channel cluster and print the full
//! virtual timelines — a miniature of Table 2 with phase breakdowns.
//!
//! ```text
//! cargo run --example cluster_simulation --release
//! ```

use eclat::cluster::{PHASE_ASYNC, PHASE_INIT, PHASE_REDUCE, PHASE_TRANSFORM};
use eclat_repro::prelude::*;

fn main() {
    let params = QuestParams::t10_i6(20_000);
    println!("generating {} ...", params.name());
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let minsup = MinSupport::from_percent(0.1);
    let cost = CostModel::dec_alpha_1997();

    for topo in [
        ClusterConfig::sequential(),
        ClusterConfig::new(4, 1),
        ClusterConfig::new(2, 2),
        ClusterConfig::new(8, 4), // the paper's full 32-processor testbed
    ] {
        println!("\n=== {} ===", topo.label());

        let ec =
            eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &eclat::EclatConfig::paper());
        println!(
            "Eclat:      total {:>7.1}s   phases: init {:.1}s | transform {:.1}s | async {:.1}s | reduce {:.2}s",
            ec.total_secs(),
            ec.timeline.phase_secs(PHASE_INIT),
            ec.timeline.phase_secs(PHASE_TRANSFORM),
            ec.timeline.phase_secs(PHASE_ASYNC),
            ec.timeline.phase_secs(PHASE_REDUCE),
        );
        println!(
            "            |L2| = {}, exchange rounds = {}, schedule imbalance = {:.3}",
            ec.num_l2,
            ec.exchange_rounds,
            ec.assignment.imbalance()
        );

        let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
        println!(
            "Count Dist: total {:>7.1}s   {} iterations (= {} database scans + barriers)",
            cd.total_secs(),
            cd.iterations,
            cd.iterations
        );
        println!(
            "improvement ratio (CD / Eclat): {:.1}x",
            cd.total_secs() / ec.total_secs()
        );

        // full per-phase / per-processor report
        print!("{}", memchannel::stats::render(&ec.timeline));

        // sanity: identical frequent sets
        let cd_pairs_up: mining_types::FrequentSet = cd
            .frequent
            .iter()
            .filter(|(is, _)| is.len() >= 2)
            .map(|(is, s)| (is.clone(), s))
            .collect();
        assert_eq!(cd_pairs_up, ec.frequent);
    }
    println!("\n(all runs produced identical frequent-itemset results)");
}
