//! Golden policy-equivalence tests on Quest-generated sequence data:
//! the three execution policies must produce *byte-identical* results —
//! same patterns, same supports, same canonical rendering, same merged
//! op counts — and the fixed-seed run is pinned so a silent change in
//! either the generator or the kernel fails loudly.

use eclat::pipeline::{FixedThreads, Rayon, Serial};
use eclat_seq::{mine_stats, FrequentSequences, SeqConfig, SeqDb};
use mining_types::{MinSupport, OpMeter};
use questgen::{SeqGenerator, SeqParams};

fn quest_db(d: usize, seed: u64) -> SeqDb {
    SeqDb::from_events(SeqGenerator::new(SeqParams::tiny(d, seed)).generate_all_raw())
}

/// Canonical byte rendering of a result set: one `pattern\tsupport`
/// line per frequent sequence, in the map's (ordered) iteration order.
fn render(fs: &FrequentSequences) -> String {
    let mut out = String::new();
    for (p, s) in fs {
        out.push_str(&format!("{p}\t{s}\n"));
    }
    out
}

#[test]
fn all_policies_render_byte_identically() {
    for seed in [1u64, 7] {
        let db = quest_db(120, seed);
        let minsup = MinSupport::from_percent(20.0);
        let cfg = SeqConfig::default();
        let mut m_serial = OpMeter::new();
        let (fs_serial, stats_serial) =
            mine_stats(&db, minsup, &cfg, &mut m_serial, &Serial, "sequential");
        let golden = render(&fs_serial);
        assert!(!golden.is_empty(), "seed {seed} mined nothing");

        let mut m_rayon = OpMeter::new();
        let (fs_rayon, stats_rayon) = mine_stats(&db, minsup, &cfg, &mut m_rayon, &Rayon, "rayon");
        assert_eq!(render(&fs_rayon), golden, "seed {seed}: rayon bytes");
        assert_eq!(m_rayon, m_serial, "seed {seed}: rayon meter");
        assert_eq!(stats_rayon.total_ops, stats_serial.total_ops);
        assert_eq!(stats_rayon.classes, stats_serial.classes);

        for procs in [1usize, 2, 3, 7] {
            let mut m = OpMeter::new();
            let (fs, stats) = mine_stats(
                &db,
                minsup,
                &cfg,
                &mut m,
                &FixedThreads::new(procs),
                "threads",
            );
            assert_eq!(render(&fs), golden, "seed {seed}: threads P={procs} bytes");
            assert_eq!(m, m_serial, "seed {seed}: threads P={procs} meter");
            assert_eq!(stats.total_ops, stats_serial.total_ops);
            assert_eq!(stats.classes, stats_serial.classes);
        }
    }
}

#[test]
fn fixed_seed_run_is_pinned() {
    // C6.T3.S3.I2, D=200, seed 0xD0 at 20 % support. These constants
    // pin both the sequence generator and the kernel: if either changes
    // behaviour, this fails and the change must be deliberate.
    let db = quest_db(200, 0xD0);
    let (fs, stats) = mine_stats(
        &db,
        MinSupport::from_percent(20.0),
        &SeqConfig::default(),
        &mut OpMeter::new(),
        &Serial,
        "sequential",
    );
    let golden_len = fs.len();
    let golden_deepest = fs.keys().map(|p| p.len_items()).max().unwrap_or(0);
    let golden_l1 = stats
        .levels
        .iter()
        .find(|l| l.size == 1)
        .map(|l| l.frequent)
        .unwrap_or(0);
    insta_like_pin(golden_len, golden_deepest, golden_l1 as usize);
    assert_eq!(
        stats.total_ops,
        OpMeter {
            tid_cmp: 318_147,
            hash_probe: 0,
            pair_incr: 24_730,
            subsets_gen: 0,
            cand_gen: 3_519,
            record: 4_234,
        },
        "SPADE op counts moved"
    );

    // And the cap agrees with post-filtering the full result.
    let cfg = SeqConfig {
        maxlen: Some(2),
        ..SeqConfig::default()
    };
    let capped = eclat_seq::mine_with(
        &db,
        MinSupport::from_percent(20.0),
        &cfg,
        &mut OpMeter::new(),
        &Serial,
    );
    let expect: FrequentSequences = fs
        .iter()
        .filter(|(p, _)| p.len_items() <= 2)
        .map(|(p, &s)| (p.clone(), s))
        .collect();
    assert_eq!(capped, expect);
}

/// The pinned constants for `fixed_seed_run_is_pinned`, kept in one
/// place so a deliberate regeneration touches exactly one spot.
fn insta_like_pin(len: usize, deepest: usize, l1: usize) {
    assert_eq!(len, 1085, "frequent-sequence count moved");
    assert_eq!(deepest, 9, "deepest pattern moved");
    assert_eq!(l1, 28, "frequent-1 count moved");
}
