//! The `eclat seq` stats artifact: database shape + result profile
//! around the embedded `algorithm = "spade"` [`MiningStats`] report.
//!
//! Serialized through [`mining_types::json`] like every other stats
//! surface in the workspace; the key set is pinned by
//! `tests/stats_schema.rs` at the repo root, and `stats_diff` keys the
//! `by_len` rows on their `"len"` field.

use crate::db::SeqDb;
use crate::kernel::{FrequentSequences, SeqConfig};
use mining_types::json::{Arr, Obj};
use mining_types::stats::MiningStats;

/// Bump when the JSON shape of [`SeqStats`] changes.
pub const SEQ_SCHEMA_VERSION: u64 = 1;

/// One `eclat seq` run: input profile, result profile by pattern
/// length, and the embedded mining report.
#[derive(Clone, Debug)]
pub struct SeqStats {
    /// Sequences in the input (the support denominator).
    pub sequences: u64,
    /// Events over all sequences.
    pub events: u64,
    /// Item occurrences over all events.
    pub item_occurrences: u64,
    /// Distinct items that occur in the input.
    pub distinct_items: u64,
    /// `--maxlen` cap; `0` = unbounded.
    pub maxlen: u64,
    /// Frequent sequences found.
    pub frequent: u64,
    /// `(pattern length in items, frequent patterns of that length)`,
    /// length-ascending.
    pub by_len: Vec<(u64, u64)>,
    /// The `algorithm = "spade"` pipeline report.
    pub mining: MiningStats,
}

impl SeqStats {
    /// Assemble the artifact from a finished run.
    pub fn from_run(
        db: &SeqDb,
        cfg: &SeqConfig,
        result: &FrequentSequences,
        mining: MiningStats,
    ) -> SeqStats {
        let mut by_len: Vec<(u64, u64)> = Vec::new();
        for p in result.keys() {
            let len = p.len_items() as u64;
            match by_len.iter_mut().find(|(l, _)| *l == len) {
                Some((_, n)) => *n += 1,
                None => by_len.push((len, 1)),
            }
        }
        by_len.sort_unstable();
        SeqStats {
            sequences: db.num_sequences() as u64,
            events: db.num_events() as u64,
            item_occurrences: db.num_item_occurrences() as u64,
            distinct_items: db.items().len() as u64,
            maxlen: u64::from(cfg.maxlen.unwrap_or(0)),
            frequent: result.len() as u64,
            by_len,
            mining,
        }
    }

    /// JSON document for the run (always includes per-class rows).
    pub fn to_json(&self) -> String {
        let mut lens = Arr::new();
        for &(len, patterns) in &self.by_len {
            lens.raw(
                &Obj::new()
                    .u64("len", len)
                    .u64("patterns", patterns)
                    .finish(),
            );
        }
        Obj::new()
            .u64("schema_version", SEQ_SCHEMA_VERSION)
            .str("algorithm", "spade")
            .u64("sequences", self.sequences)
            .u64("events", self.events)
            .u64("item_occurrences", self.item_occurrences)
            .u64("distinct_items", self.distinct_items)
            .u64("maxlen", self.maxlen)
            .u64("frequent", self.frequent)
            .raw("by_len", &lens.finish())
            .raw("mining", &self.mining.to_json(true))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::mine_stats;
    use eclat::pipeline::Serial;
    use mining_types::{MinSupport, OpMeter};

    #[test]
    fn artifact_reflects_the_run() {
        // The second input has the shape of the 36-byte `.ecs` that
        // `scripts/check.sh` mines: one sequence, one event, whose only
        // item is `u32::MAX`. Its alphabet bound would be 2^32.
        let inputs = [
            (
                SeqDb::of(&[&[&[1, 2], &[3]], &[&[1], &[2, 3]], &[&[2], &[3]]]),
                (3, 6, 3),
            ),
            (SeqDb::of(&[&[&[u32::MAX]]]), (1, 1, 1)),
        ];
        for (db, want) in inputs {
            let cfg = SeqConfig::default();
            let (fs, mining) = mine_stats(
                &db,
                MinSupport::from_percent(60.0),
                &cfg,
                &mut OpMeter::new(),
                &Serial,
                "sequential",
            );
            let stats = SeqStats::from_run(&db, &cfg, &fs, mining);
            let shape = (stats.sequences, stats.events, stats.distinct_items);
            assert_eq!(shape, want, "sequences, events, distinct items");
            let l1 = stats.mining.levels.iter().find(|l| l.size == 1).unwrap();
            assert_eq!(l1.candidates, want.2, "level-1 candidates");
            assert_eq!(stats.maxlen, 0, "unbounded");
            assert_eq!(stats.frequent, fs.len() as u64);
            let total: u64 = stats.by_len.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, stats.frequent);
            let json = stats.to_json();
            assert!(json.starts_with("{\"schema_version\":1,\"algorithm\":\"spade\","));
            assert!(json.contains("\"by_len\":[{\"len\":1,"));
            assert!(json.contains("\"mining\":{\"schema_version\":"));
            assert!(json.contains("\"algorithm\":\"spade\",\"variant\":\"sequential\""));
        }
    }
}
