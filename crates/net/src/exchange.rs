//! Pure pieces of the all-to-all partial tid-list exchange (§6.3).
//!
//! The database is block-partitioned with disjoint, monotonically
//! increasing tid ranges, so the global tid-list of any 2-itemset is the
//! concatenation of the per-worker partial lists *in rank order* — no
//! sorting, exactly the paper's offset-placement trick. These helpers
//! are the testable core of that invariant; the socket plumbing around
//! them lives in [`crate::worker`].

use mining_types::Tid;
use std::collections::BTreeMap;
use tidlist::TidList;

/// Partial tid-lists routed to one destination rank: `(slot, tids)`
/// with tids already shifted to the global tid space.
pub type Entries = Vec<(u32, Vec<u32>)>;

/// Shift a block-local tid-list into the global tid space by the block's
/// starting tid (§6.3: each worker knows its offset, so lists land at
/// their final position without coordination).
pub fn shift_tids(list: &TidList, offset: u32) -> Vec<u32> {
    list.tids().iter().map(|t| t.0 + offset).collect()
}

/// Split this worker's local partial lists by destination: for each rank
/// `q`, the `(slot, global tids)` entries of every slot owned by `q`.
/// Every rank gets an entry vector (possibly empty) — receivers count
/// depositors, not bytes, to detect completeness.
pub fn route_partials(
    lists: &[TidList],
    slot_owner: &[u32],
    num_workers: u32,
    tid_offset: u32,
) -> Vec<Entries> {
    assert_eq!(lists.len(), slot_owner.len(), "one owner per slot");
    let mut out: Vec<Entries> = (0..num_workers).map(|_| Vec::new()).collect();
    for (slot, (list, &owner)) in lists.iter().zip(slot_owner).enumerate() {
        out[owner as usize].push((slot as u32, shift_tids(list, tid_offset)));
    }
    out
}

/// Concatenate deposited partials into global tid-lists, one per slot.
///
/// `deposits` maps rank → entries; the `BTreeMap` iterates ranks in
/// ascending order, which *is* the §6.3 merge: partial lists append in
/// rank order and arrive globally sorted for free.
///
/// # Errors
/// A slot index at or past `num_slots`, or tids that are unsorted or
/// not above the previous ranks' tids for that slot, are protocol
/// violations and are reported with the offending rank and slot.
pub fn assemble(
    deposits: &BTreeMap<u32, Entries>,
    num_slots: usize,
) -> Result<Vec<TidList>, String> {
    let mut lists = vec![TidList::new(); num_slots];
    for (&rank, entries) in deposits {
        for (slot, tids) in entries {
            let slot = *slot as usize;
            if slot >= num_slots {
                return Err(format!(
                    "rank {rank} deposited slot {slot}, but the plan has {num_slots} slots"
                ));
            }
            let list = &mut lists[slot];
            let above =
                (list.tids().last().zip(tids.first())).is_none_or(|(last, &first)| first > last.0);
            let partial = TidList::try_from_sorted(tids.iter().map(|&t| Tid(t)).collect())
                .filter(|_| above)
                .ok_or_else(|| {
                    format!(
                        "rank {rank} deposited tids for slot {slot} that are unsorted \
                         or overlap an earlier rank's range"
                    )
                })?;
            list.append_partial(&partial);
        }
    }
    Ok(lists)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_moves_into_global_space() {
        let l = TidList::of(&[0, 2, 5]);
        assert_eq!(shift_tids(&l, 100), vec![100, 102, 105]);
        assert!(shift_tids(&TidList::new(), 9).is_empty());
    }

    #[test]
    fn route_covers_every_rank_and_slot() {
        let lists = vec![TidList::of(&[0]), TidList::of(&[1]), TidList::new()];
        let routed = route_partials(&lists, &[1, 0, 1], 3, 10);
        assert_eq!(routed.len(), 3);
        assert_eq!(routed[0], vec![(1, vec![11])]);
        assert_eq!(routed[1], vec![(0, vec![10]), (2, vec![])]);
        assert!(routed[2].is_empty(), "rank 2 owns nothing");
    }

    #[test]
    fn assemble_concatenates_in_rank_order() {
        let mut deposits = BTreeMap::new();
        // Insert out of rank order on purpose: the map sorts.
        deposits.insert(1u32, vec![(0u32, vec![5, 6]), (1, vec![7])]);
        deposits.insert(0u32, vec![(0u32, vec![1, 2]), (1, vec![])]);
        let lists = assemble(&deposits, 2).unwrap();
        assert_eq!(lists[0].tids(), &[Tid(1), Tid(2), Tid(5), Tid(6)]);
        assert_eq!(lists[1].tids(), &[Tid(7)]);
    }

    #[test]
    fn assemble_rejects_out_of_plan_slots() {
        let mut deposits = BTreeMap::new();
        deposits.insert(2u32, vec![(9u32, vec![1])]);
        let err = assemble(&deposits, 2).unwrap_err();
        assert!(err.contains("rank 2"), "{err}");
        assert!(err.contains("slot 9"), "{err}");
    }

    #[test]
    fn assemble_rejects_overlapping_ranges() {
        // Misrouted tid ranges (rank 1's tids below rank 0's) violate the
        // block invariant the whole §6.3 scheme rests on; so does one
        // rank's unsorted partial.
        let mut deposits = BTreeMap::new();
        deposits.insert(0u32, vec![(0u32, vec![10, 11])]);
        deposits.insert(1u32, vec![(0u32, vec![3])]);
        let err = assemble(&deposits, 1).unwrap_err();
        assert!(err.contains("rank 1") && err.contains("slot 0"), "{err}");
        let mut deposits = BTreeMap::new();
        deposits.insert(2u32, vec![(1u32, vec![8, 4])]);
        let err = assemble(&deposits, 2).unwrap_err();
        assert!(err.contains("rank 2") && err.contains("slot 1"), "{err}");
    }
}
