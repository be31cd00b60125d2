//! CCPD on actual shared memory — the paper's own prior system \[16\],
//! *"Parallel data mining for association rules on shared-memory
//! multiprocessors"*, which the SPAA'97 paper ported to the cluster as
//! its Count Distribution baseline (§3).
//!
//! *"The candidate itemsets are generated in parallel and are stored in a
//! hash structure which is shared among all the processors. Each
//! processor then scans its logical partition of the database and
//! atomically updates the counts of candidates in the shared hash tree.
//! There is no need to perform a sum-reduction to obtain global counts,
//! but there is a barrier synchronization at the end of each iteration."*
//!
//! Here the shared hash tree is a real shared [`HashTree`] (its counts
//! are relaxed atomics), the processors are scoped threads, one per
//! logical partition block, and the per-iteration barrier is the end of
//! the thread scope. This is the runnable shared-memory baseline a
//! downstream user can race against `eclat::parallel` on a multicore
//! machine.

use apriori::gen::generate_candidates;
use apriori::hash_tree::HashTree;
use dbstore::{BlockPartition, HorizontalDb};
use mining_types::{FrequentSet, ItemId, Itemset, MinSupport, OpMeter};
use std::ops::Range;

/// Configuration for shared-memory CCPD.
#[derive(Clone, Debug)]
pub struct CcpdShmConfig {
    /// Hash-tree fanout.
    pub fanout: usize,
    /// Hash-tree leaf split threshold.
    pub leaf_threshold: usize,
    /// Number of logical partitions (defaults to one per available core).
    pub partitions: Option<usize>,
}

impl Default for CcpdShmConfig {
    fn default() -> Self {
        CcpdShmConfig {
            fanout: apriori::hash_tree::DEFAULT_FANOUT,
            leaf_threshold: apriori::hash_tree::DEFAULT_LEAF_THRESHOLD,
            partitions: None,
        }
    }
}

/// Mine all frequent itemsets with shared-memory CCPD. Returns the same
/// result as sequential Apriori, computed with concurrent atomic counting
/// against one shared candidate tree.
pub fn mine_ccpd_shm(db: &HorizontalDb, minsup: MinSupport, cfg: &CcpdShmConfig) -> FrequentSet {
    let threshold = minsup.count_threshold(db.num_transactions());
    let parts = cfg
        .partitions
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let partition = BlockPartition::equal_blocks(db.num_transactions(), parts.max(1));
    let blocks: Vec<Range<usize>> = partition.iter().map(|(_, r)| r).collect();
    let mut result = FrequentSet::new();

    // Iteration 1: per-block item counts merged by reduction.
    let mut item_counts = vec![0u32; db.num_items() as usize];
    for counts in on_partitions(&blocks, |r| {
        let mut counts = vec![0u32; db.num_items() as usize];
        for (_tid, items) in db.iter_range(r) {
            for &it in items {
                counts[it.index()] += 1;
            }
        }
        counts
    }) {
        for (x, y) in item_counts.iter_mut().zip(counts) {
            *x += y;
        }
    }

    let mut l_prev: Vec<Itemset> = Vec::new();
    for (i, &c) in item_counts.iter().enumerate() {
        if c >= threshold {
            let is = Itemset::single(ItemId(i as u32));
            result.insert(is.clone(), c);
            l_prev.push(is);
        }
    }

    let mut k = 2usize;
    while !l_prev.is_empty() {
        let mut gen_meter = OpMeter::new();
        let candidates = generate_candidates(&l_prev, &mut gen_meter);
        let mut l_cur: Vec<(Itemset, u32)> = Vec::new();
        if !candidates.is_empty() {
            let mut tree = HashTree::with_params(k, cfg.fanout, cfg.leaf_threshold);
            for c in candidates {
                tree.insert(c);
            }
            let tree = &tree; // shared immutably; counts are atomic
            on_partitions(&blocks, |r| {
                let mut meter = OpMeter::new();
                for (_tid, items) in db.iter_range(r) {
                    tree.count_transaction(items, &mut meter);
                }
            });
            // barrier: every partition's thread joined; select L_k
            l_cur = tree.frequent(threshold);
        }
        for (is, c) in &l_cur {
            result.insert(is.clone(), *c);
        }
        l_prev = l_cur.into_iter().map(|(is, _)| is).collect();
        k += 1;
    }
    result
}

/// Run `scan` over every logical partition, one scoped thread each, and
/// return the results in partition order once all have joined.
fn on_partitions<R: Send>(
    blocks: &[Range<usize>],
    scan: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let scan = &scan;
    std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .iter()
            .map(|r| s.spawn(move || scan(r.clone())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apriori::reference::random_db;
    use questgen::{QuestGenerator, QuestParams};

    #[test]
    fn matches_sequential_apriori() {
        for seed in [1u64, 4] {
            let db = random_db(seed, 300, 14, 6);
            for pct in [4.0, 8.0] {
                let minsup = MinSupport::from_percent(pct);
                let shm = mine_ccpd_shm(&db, minsup, &CcpdShmConfig::default());
                let seq = apriori::mine(&db, minsup);
                assert_eq!(shm, seq, "seed {seed} pct {pct}");
            }
        }
    }

    #[test]
    fn partition_count_does_not_change_result() {
        let db = random_db(9, 400, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let reference = apriori::mine(&db, minsup);
        for parts in [1usize, 2, 3, 7, 16] {
            let cfg = CcpdShmConfig {
                partitions: Some(parts),
                ..Default::default()
            };
            assert_eq!(mine_ccpd_shm(&db, minsup, &cfg), reference, "parts {parts}");
        }
    }

    #[test]
    fn quest_data_agreement_with_eclat() {
        let db = HorizontalDb::from_transactions(
            QuestGenerator::new(QuestParams::tiny(2_000, 3)).generate_all(),
        );
        let minsup = MinSupport::from_percent(1.5);
        let shm = mine_ccpd_shm(&db, minsup, &CcpdShmConfig::default());
        let ec: FrequentSet = shm
            .iter()
            .filter(|(is, _)| is.len() >= 2)
            .map(|(is, s)| (is.clone(), s))
            .collect();
        assert_eq!(ec, eclat::sequential::mine(&db, minsup));
    }

    #[test]
    fn empty_database() {
        let db = HorizontalDb::of(&[]);
        assert!(mine_ccpd_shm(&db, MinSupport::from_percent(1.0), &Default::default()).is_empty());
    }
}
