//! SPADE ≡ reference on random databases: the vertical kernel is pinned
//! against the GSP-style horizontal miner, which shares no code with it
//! (no PairSet, no joins, no classes) — agreement is evidence, not
//! tautology. The same random databases also pin policy equivalence and
//! support monotonicity.

use eclat::pipeline::{FixedThreads, Rayon, Serial};
use eclat_seq::{mine, mine_with, reference, SeqConfig, SeqDb};
use mining_types::{MinSupport, OpMeter};
use proptest::prelude::*;

/// Sequences of `(eid, items)` events, as a loader hands them over.
type RawDb = Vec<Vec<(u32, Vec<u32>)>>;

/// Random sequence database: up to 14 sequences of up to 8 events over
/// a 10-item alphabet. Events are normalized (sorted, deduped) and
/// empty events dropped, matching what a real loader produces.
fn raw_db() -> impl Strategy<Value = RawDb> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u32..10, 1..4), 0..8),
        0..14,
    )
    .prop_map(|seqs| {
        seqs.into_iter()
            .map(|events| {
                events
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, mut items)| {
                        items.sort_unstable();
                        items.dedup();
                        (!items.is_empty()).then_some((i as u32 + 1, items))
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spade_matches_the_reference_miner(raw in raw_db(), pct in 5.0f64..80.0) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(pct);
        let spade = mine(&db, minsup, &Serial);
        let oracle = reference::mine_reference(&db, minsup, None);
        prop_assert_eq!(spade, oracle);
    }

    #[test]
    fn maxlen_cap_matches_the_reference_miner(raw in raw_db(), maxlen in 1u32..5) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(20.0);
        let cfg = SeqConfig { maxlen: Some(maxlen), ..SeqConfig::default() };
        let spade = mine_with(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
        let oracle = reference::mine_reference(&db, minsup, Some(maxlen));
        prop_assert_eq!(spade, oracle);
    }

    #[test]
    fn policies_agree_on_random_databases(raw in raw_db(), pct in 5.0f64..60.0, procs in 1usize..5) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(pct);
        let cfg = SeqConfig::default();
        let mut m_serial = OpMeter::new();
        let expect = mine_with(&db, minsup, &cfg, &mut m_serial, &Serial);
        let mut m_rayon = OpMeter::new();
        prop_assert_eq!(&mine_with(&db, minsup, &cfg, &mut m_rayon, &Rayon), &expect);
        prop_assert_eq!(m_rayon, m_serial);
        let mut m_threads = OpMeter::new();
        prop_assert_eq!(
            &mine_with(&db, minsup, &cfg, &mut m_threads, &FixedThreads::new(procs)),
            &expect
        );
        prop_assert_eq!(m_threads, m_serial);
    }

    #[test]
    fn support_is_monotone_in_minsup(raw in raw_db()) {
        let db = SeqDb::from_events(raw);
        let lo = mine(&db, MinSupport::from_percent(10.0), &Serial);
        let hi = mine(&db, MinSupport::from_percent(50.0), &Serial);
        prop_assert!(hi.len() <= lo.len());
        for (p, &s) in &hi {
            prop_assert_eq!(lo.get(p), Some(&s), "{} changed support", p);
        }
    }

    #[test]
    fn every_reported_support_is_a_true_containment_count(raw in raw_db()) {
        let db = SeqDb::from_events(raw);
        let fs = mine(&db, MinSupport::from_percent(25.0), &Serial);
        for (p, &s) in &fs {
            prop_assert_eq!(reference::support_of(&db, p), s, "{}", p);
        }
    }
}

/// Item *values* size nothing: the shape of a 36-byte `.ecs` file whose
/// one sequence holds one event with the single item `u32::MAX`, plus ids
/// near `2^31` next to small ones, mine exactly as the reference says.
#[test]
fn spade_matches_the_reference_miner_on_extreme_item_ids() {
    let inputs: [(RawDb, f64); 3] = [
        (vec![vec![(1, vec![u32::MAX])]], 50.0),
        (
            vec![
                vec![(1, vec![0, 1 << 31]), (2, vec![u32::MAX])],
                vec![(1, vec![1 << 31]), (5, vec![0, u32::MAX])],
                vec![(3, vec![u32::MAX - 1, u32::MAX])],
            ],
            30.0,
        ),
        (vec![vec![(1, vec![7])], vec![(1, vec![u32::MAX])]], 100.0),
    ];
    for (raw, pct) in inputs {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(pct);
        let spade = mine(&db, minsup, &Serial);
        assert_eq!(
            spade,
            reference::mine_reference(&db, minsup, None),
            "{db:?}"
        );
        assert!(!spade.is_empty() || pct == 100.0, "{db:?} mined nothing");
    }
}
