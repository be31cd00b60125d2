//! Workload inputs: Quest transactions drawn with `--seed` from a pattern
//! table that is fixed per workload.
//!
//! `QuestGenerator` derives both the pattern table and the transactions
//! from one seed. A new table changes the workload itself: at the same
//! support, the stream's batch p50 ranged from 7.7 to 54 ms over five
//! seeds, and its rule count from 0.7 K to 1.7 M over forty tables. So
//! each workload fixes its table seed and `--seed` draws the transactions,
//! by the same procedure `QuestGenerator::next` uses. Every seed is then
//! an independent sample of one workload.

use mining_types::ItemId;
use questgen::sampler::poisson;
use questgen::{PatternTable, QuestParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `params.num_transactions` Quest transactions over the pattern table
/// built from `table_seed`, drawn with `seed`; each is sorted and
/// duplicate-free.
pub fn transactions(params: &QuestParams, table_seed: u64, seed: u64) -> Vec<Vec<ItemId>> {
    let table = PatternTable::build(params, &mut StdRng::seed_from_u64(table_seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending: Option<Vec<ItemId>> = None;
    let mut out = Vec::with_capacity(params.num_transactions);
    for _ in 0..params.num_transactions {
        let size = poisson(&mut rng, params.avg_transaction_len).max(1) as usize;
        let mut txn: Vec<ItemId> = Vec::with_capacity(size);
        loop {
            let pattern = match pending.take() {
                Some(p) => p,
                None => {
                    let idx = table.pick(&mut rng);
                    corrupt(&table, idx, &mut rng)
                }
            };
            if txn.len() + pattern.len() <= size {
                txn.extend_from_slice(&pattern);
                if txn.len() >= size {
                    break;
                }
            } else {
                // Too big: add it anyway half the time, else keep it for
                // the next transaction (never for an empty one).
                if txn.is_empty() || rng.random::<bool>() {
                    txn.extend_from_slice(&pattern);
                } else {
                    pending = Some(pattern);
                }
                break;
            }
        }
        txn.sort_unstable();
        txn.dedup();
        out.push(txn);
    }
    out
}

/// Drop random items from pattern `idx` while a uniform draw stays below
/// its corruption level.
fn corrupt(table: &PatternTable, idx: usize, rng: &mut StdRng) -> Vec<ItemId> {
    let mut items = table.pattern(idx).to_vec();
    let level = table.corruption(idx);
    while items.len() > 1 && rng.random::<f64>() < level {
        let drop = rng.random_range(0..items.len());
        items.swap_remove(drop);
    }
    items
}
