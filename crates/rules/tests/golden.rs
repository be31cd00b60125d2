//! Golden bytes of one rule set: the payload checksum of the results
//! snapshot that carries it. `write_results` stores the rules in the
//! order `generate` returns them, so the checksum pins the count, every
//! field and the whole order at once.

use dbstore::{binfmt, HorizontalDb};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

/// `eclat generate --transactions 1200 --seed 3`, mined with singletons
/// at 0.6 % (support ≥ 8, so many rules tie on confidence and support)
/// and generated at confidence 0.3.
#[test]
fn rule_snapshot_checksum_is_pinned() {
    let params = QuestParams::t10_i6(1200).with_seed(3);
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let frequent = eclat::sequential::mine_with(
        &db,
        MinSupport::from_percent(0.6),
        &eclat::EclatConfig::with_singletons(),
        &mut OpMeter::new(),
    );
    let rules = assoc_rules::generate(&frequent, 0.3);
    assert_eq!((frequent.len(), rules.len()), (2_074, 58_135));
    let snap = binfmt::ResultsSnapshot {
        num_transactions: db.num_transactions() as u32,
        frequent,
        rules,
        generation: 0,
    };
    let mut buf = Vec::new();
    binfmt::write_results(&snap, &mut buf).unwrap();
    let (_, _, checksum) = binfmt::peek_results_header(&mut buf.as_slice()).unwrap();
    assert_eq!(checksum, 0x391c_8f13_c80a_dd61, "rule bytes moved");
}
