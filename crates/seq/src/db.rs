//! [`SeqDb`] — the horizontal sequence database.
//!
//! One entry per sequence (customer): a time-ordered list of events,
//! each an `(eid, itemset)` pair. Sids are implicit (the index), eids
//! are the input timestamps — strictly increasing within a sequence
//! after normalization, with same-eid events merged. This is the layout
//! the initialization scans (frequent-1/2 counting) read and the
//! vertical transform turns into per-atom [`PairSet`]s.
//!
//! [`PairSet`]: crate::PairSet

use mining_types::ItemId;

/// A sequence database: `sequences[sid]` is that customer's history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqDb {
    sequences: Vec<Vec<(u32, Vec<ItemId>)>>,
    /// Every item that occurs, ascending and distinct.
    items: Vec<ItemId>,
}

impl SeqDb {
    /// Build from raw timestamped events, normalizing each sequence:
    /// events sorted by eid, same-eid events merged, items within an
    /// event sorted and deduplicated, empty events dropped.
    pub fn from_events(raw: Vec<Vec<(u32, Vec<u32>)>>) -> SeqDb {
        let sequences: Vec<Vec<(u32, Vec<ItemId>)>> = raw
            .into_iter()
            .map(|mut seq| {
                seq.sort_by_key(|&(eid, _)| eid);
                let mut events: Vec<(u32, Vec<ItemId>)> = Vec::with_capacity(seq.len());
                for (eid, items) in seq {
                    if items.is_empty() {
                        continue;
                    }
                    let items: Vec<ItemId> = items.into_iter().map(ItemId).collect();
                    match events.last_mut() {
                        Some((last_eid, last_items)) if *last_eid == eid => {
                            last_items.extend(items);
                        }
                        _ => events.push((eid, items)),
                    }
                    let (_, last_items) = events.last_mut().expect("just pushed or merged");
                    last_items.sort_unstable();
                    last_items.dedup();
                }
                events
            })
            .collect();
        let mut items: Vec<ItemId> = sequences
            .iter()
            .flatten()
            .flat_map(|(_, items)| items.iter().copied())
            .collect();
        items.sort_unstable();
        items.dedup();
        SeqDb { sequences, items }
    }

    /// Test/docs helper: one itemset slice per event, eids assigned
    /// `1, 2, …` in order.
    pub fn of(seqs: &[&[&[u32]]]) -> SeqDb {
        SeqDb::from_events(
            seqs.iter()
                .map(|seq| {
                    seq.iter()
                        .enumerate()
                        .map(|(i, items)| (i as u32 + 1, items.to_vec()))
                        .collect()
                })
                .collect(),
        )
    }

    /// Number of sequences (the support denominator).
    pub fn num_sequences(&self) -> usize {
        self.sequences.len()
    }

    /// Total events over all sequences.
    pub fn num_events(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// Total item occurrences over all events.
    pub fn num_item_occurrences(&self) -> usize {
        self.sequences
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, items)| items.len())
            .sum()
    }

    /// Alphabet bound, `max item + 1` over the input (`0` when empty).
    /// It is reported, never allocated by: an id near `u32::MAX` makes it
    /// about `2^32` while [`SeqDb::items`] still holds one entry.
    pub fn num_items(&self) -> u64 {
        self.items.last().map_or(0, |i| u64::from(i.0) + 1)
    }

    /// Every item that occurs in some event, ascending and distinct — what
    /// per-item state is sized by.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The sequences, sid-ascending; each a normalized event list.
    pub fn sequences(&self) -> &[Vec<(u32, Vec<ItemId>)>] {
        &self.sequences
    }

    /// Raw `u32` view for the binfmt container.
    pub fn to_raw(&self) -> Vec<Vec<(u32, Vec<u32>)>> {
        self.sequences
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|(eid, items)| (*eid, items.iter().map(|i| i.0).collect()))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_assigns_ascending_eids() {
        let db = SeqDb::of(&[&[&[1, 2], &[3]], &[&[2]]]);
        assert_eq!(db.num_sequences(), 2);
        assert_eq!(db.num_events(), 3);
        assert_eq!(db.num_item_occurrences(), 4);
        assert_eq!(db.num_items(), 4);
        assert_eq!(
            db.sequences()[0],
            vec![(1, vec![ItemId(1), ItemId(2)]), (2, vec![ItemId(3)]),]
        );
    }

    #[test]
    fn from_events_normalizes() {
        // Out-of-order eids, a duplicate eid (merged), duplicate items
        // (deduped), and an empty event (dropped).
        let db = SeqDb::from_events(vec![vec![
            (5, vec![9]),
            (2, vec![4, 4, 1]),
            (5, vec![3]),
            (7, vec![]),
        ]]);
        assert_eq!(
            db.sequences()[0],
            vec![
                (2, vec![ItemId(1), ItemId(4)]),
                (5, vec![ItemId(3), ItemId(9)]),
            ]
        );
        assert_eq!(db.num_items(), 10);
    }

    #[test]
    fn item_ids_never_size_anything() {
        let db = SeqDb::from_events(vec![vec![(1, vec![u32::MAX, 0])], vec![(1, vec![1 << 31])]]);
        assert_eq!(db.items(), &[ItemId(0), ItemId(1 << 31), ItemId(u32::MAX)]);
        assert_eq!(db.num_items(), 1 << 32, "the bound does not wrap");
        assert_eq!(SeqDb::of(&[]).num_items(), 0);
    }

    #[test]
    fn raw_round_trip() {
        let db = SeqDb::of(&[&[&[1, 2], &[3]], &[], &[&[0]]]);
        assert_eq!(SeqDb::from_events(db.to_raw()), db);
    }
}
