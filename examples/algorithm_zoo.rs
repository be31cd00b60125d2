//! The whole algorithm family on one database: every miner in the
//! workspace, its lineage in the paper, and its real wall-clock time —
//! all producing the identical answer.
//!
//! ```text
//! cargo run --example algorithm_zoo --release
//! ```

use eclat_repro::prelude::*;
use mining_types::{FrequentSet, OpMeter};
use std::time::Instant;

fn strip_singletons(fs: &FrequentSet) -> FrequentSet {
    fs.iter()
        .filter(|(is, _)| is.len() >= 2)
        .map(|(is, s)| (is.clone(), s))
        .collect()
}

fn main() {
    let params = QuestParams::t10_i6(30_000);
    println!("database: {}, minimum support 0.2%\n", params.name());
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let minsup = MinSupport::from_percent(0.2);

    let mut reference: Option<FrequentSet> = None;
    let mut timed = |name: &str, lineage: &str, f: &mut dyn FnMut() -> FrequentSet| {
        let t0 = Instant::now();
        let fs = f();
        let dt = t0.elapsed().as_secs_f64();
        let pairs_up = strip_singletons(&fs);
        match &reference {
            None => reference = Some(pairs_up),
            Some(r) => assert_eq!(&pairs_up, r, "{name} disagreed!"),
        }
        println!(
            "{name:<26} {dt:>7.2}s   {:<6} itemsets   [{lineage}]",
            fs.len()
        );
    };

    timed("Eclat (sequential)", "the paper, §5", &mut || {
        eclat::sequential::mine(&db, minsup)
    });
    timed("Eclat (parallel)", "the paper on modern cores", &mut || {
        eclat::parallel::mine(&db, minsup)
    });
    timed("Eclat (diffsets)", "d-Eclat extension, §9", &mut || {
        // diffset kernel via the clique-free path
        let mut m = OpMeter::new();
        let cfg = eclat::EclatConfig::with_representation(eclat::Representation::Diffset);
        let threshold = minsup.count_threshold(db.num_transactions());
        let n = db.num_transactions();
        let tri = eclat::transform::count_pairs(&db, 0..n, &mut m);
        let l2: Vec<_> = tri
            .frequent_pairs(threshold)
            .map(|(a, b, _)| (a, b))
            .collect();
        let idx = eclat::transform::index_pairs(&l2);
        let lists = eclat::transform::build_pair_tidlists(&db, 0..n, &idx, &mut m);
        let pairs: Vec<_> = l2.iter().zip(lists).map(|(&(a, b), t)| (a, b, t)).collect();
        let mut out = FrequentSet::new();
        for class in eclat::equivalence::classes_of_l2(pairs) {
            eclat::pipeline::mine_class(class, threshold, &cfg, &mut m, &mut out);
        }
        out
    });
    timed("Clique clustering", "reference [18]", &mut || {
        eclat::clique::mine(&db, minsup)
    });
    timed("Apriori", "reference [4], §2", &mut || {
        apriori::mine(&db, minsup)
    });
    timed("CCPD shared-memory", "reference [16], §3", &mut || {
        parbase::mine_ccpd_shm(&db, minsup, &Default::default())
    });
    timed("Partition (4 chunks)", "reference [14], §1.2", &mut || {
        apriori::mine_partition(&db, minsup, &Default::default()).0
    });

    // Sampling: sound but possibly incomplete — report recall instead.
    let t0 = Instant::now();
    let (sampled, report) = apriori::mine_with_sampling(
        &db,
        minsup,
        &apriori::SamplingConfig {
            sample_fraction: 0.2,
            support_lowering: 0.75,
            seed: 9,
        },
    );
    let dt = t0.elapsed().as_secs_f64();
    let full = reference.as_ref().unwrap();
    let recovered = full.iter().filter(|(is, _)| sampled.contains(is)).count();
    println!(
        "{:<26} {dt:>7.2}s   {:<6} itemsets   [refs [15,17]: sample {} txns, recall {:.1}%]",
        "Sampling (20%)",
        sampled.len(),
        report.sample_size,
        100.0 * recovered as f64 / full.len() as f64
    );

    // Maximal frequent itemsets.
    let t0 = Instant::now();
    let maximal = eclat::maximal::mine_maximal(&db, minsup);
    println!(
        "{:<26} {:>7.2}s   {:<6} maximal sets  [MaxEclat, ref [18]]",
        "MaxEclat",
        t0.elapsed().as_secs_f64(),
        maximal.len()
    );
    assert_eq!(maximal, eclat::maximal::maximal_of(full));

    println!(
        "\nall miners agreed on {} frequent itemsets (size >= 2)",
        full.len()
    );
}
