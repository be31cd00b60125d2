//! The stats report and the trace read one clock: with tracing on, each
//! phase's `secs` in a `run_stats` report is the duration of its span in
//! the drained trace. The tracer is process-global, so this test has a
//! binary of its own.

use dbstore::HorizontalDb;
use eclat::pipeline::{run_stats, FixedThreads};
use eclat_obs::trace::{self, Phase};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

#[test]
fn phase_secs_equal_their_span_durations() {
    let db = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::tiny(600, 5)).generate_all(),
    );
    for threads in [1, 2] {
        trace::set_enabled(true);
        let policy = FixedThreads::new(threads);
        let cfg = eclat::EclatConfig::default();
        let minsup = MinSupport::from_percent(2.0);
        let (_, stats) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &policy, "");
        trace::set_enabled(false);
        let events = trace::drain().events;

        assert_eq!(stats.phases.len(), 3, "init, transform, async");
        for phase in &stats.phases {
            let at = |ph: Phase| {
                let mut hits = events
                    .iter()
                    .filter(|e| e.name == phase.label && e.ph == ph);
                let t = hits.next().expect("the phase span is traced").t_us;
                assert!(hits.next().is_none(), "one {} span per run", phase.label);
                t
            };
            // Both ends are the same clock readings, truncated to 1 µs.
            let traced_us = (at(Phase::End) - at(Phase::Begin)) as f64;
            let (label, secs) = (&phase.label, phase.secs);
            assert!(
                (traced_us - secs * 1e6).abs() < 1.0,
                "P={threads} {label}: trace {traced_us} us, stats {secs} s"
            );
        }
    }
}
