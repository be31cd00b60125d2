//! Upper-triangular 2-itemset count matrix.
//!
//! §5.1 of the paper: *"For computing 2-itemsets we use an upper triangular
//! array, local to each processor, indexed by the items in the database in
//! both dimensions."* — the initialization phase counts every pair in one
//! horizontal scan, then a sum-reduction produces global `L2`.
//!
//! The matrix stores counts for unordered pairs `{i, j}` with `i < j` over
//! `n` items in a flat `Vec<u32>` of length `C(n, 2)`.

use crate::item::ItemId;

/// Flat upper-triangular pair-count matrix over `n` items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriangleMatrix {
    n: usize,
    counts: Vec<u32>,
}

impl TriangleMatrix {
    /// Zeroed matrix over `n` items. Allocates `C(n,2)` u32 counters — the
    /// "very small space overhead" the paper trades for the saved database
    /// scan (footnote 1 of §5.1).
    pub fn new(n: usize) -> Self {
        let cells = n * n.saturating_sub(1) / 2;
        TriangleMatrix {
            n,
            counts: vec![0u32; cells],
        }
    }

    /// Whether the `C(n,2)` counters of a matrix over `n` items can be
    /// allocated: `false` where [`TriangleMatrix::new`] would overflow or
    /// abort on a failed allocation. Probes by reserving the counters,
    /// untouched, and releasing them at once. Loaders check a file's
    /// declared item universe with this before any miner sizes a
    /// triangle by it.
    pub fn fits(n: usize) -> bool {
        n.checked_mul(n.saturating_sub(1))
            .is_some_and(|twice| Vec::<u32>::new().try_reserve_exact(twice / 2).is_ok())
    }

    /// Rebuild a matrix from its flat cell vector, e.g. after a network
    /// transfer of the per-processor partial counts.
    ///
    /// # Panics
    /// Panics if `counts.len() != C(n, 2)`.
    pub fn from_raw(n: usize, counts: Vec<u32>) -> Self {
        let cells = n * n.saturating_sub(1) / 2;
        assert_eq!(counts.len(), cells, "triangle shape mismatch");
        TriangleMatrix { n, counts }
    }

    /// Number of items the matrix covers.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// Flat index of the unordered pair `(i, j)` with `i < j`.
    ///
    /// Row `i` starts after the `i` shorter rows above it:
    /// `offset(i) = i·n − i·(i+1)/2 − i` … simplified below. The formula is
    /// checked exhaustively in tests against a naive enumeration.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < j && j < self.n,
            "pair ({i},{j}) out of range n={}",
            self.n
        );
        // Row i holds pairs (i, i+1..n): length n-1-i. Rows 0..i hold
        // sum_{r<i} (n-1-r) = i*(n-1) - i*(i-1)/2 cells.
        i * (self.n - 1) - i * (i.saturating_sub(1)) / 2 + (j - i - 1)
    }

    /// Increment the count of pair `{a, b}` (any order, `a != b`).
    #[inline]
    pub fn increment(&mut self, a: ItemId, b: ItemId) {
        let (i, j) = order(a, b);
        let idx = self.index(i, j);
        self.counts[idx] += 1;
    }

    /// Add `delta` to the count of pair `{a, b}`.
    #[inline]
    pub fn add(&mut self, a: ItemId, b: ItemId, delta: u32) {
        let (i, j) = order(a, b);
        let idx = self.index(i, j);
        self.counts[idx] += delta;
    }

    /// Current count of pair `{a, b}`.
    #[inline]
    pub fn get(&self, a: ItemId, b: ItemId) -> u32 {
        let (i, j) = order(a, b);
        self.counts[self.index(i, j)]
    }

    /// Count all item pairs of one (sorted, duplicate-free) transaction.
    ///
    /// This is the §4.2 horizontal-layout L2 pass: `C(|t|, 2)` increments
    /// per transaction.
    pub fn count_transaction(&mut self, txn: &[ItemId]) {
        debug_assert!(txn.windows(2).all(|w| w[0] < w[1]));
        for (p, &a) in txn.iter().enumerate() {
            for &b in &txn[p + 1..] {
                self.increment(a, b);
            }
        }
    }

    /// Element-wise sum with another matrix of identical shape — the
    /// sum-reduction that builds global counts from per-processor partials.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn merge_from(&mut self, other: &TriangleMatrix) {
        assert_eq!(self.n, other.n, "triangle shape mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Iterate all pairs with a count `>= threshold`, ascending by pair.
    pub fn frequent_pairs(
        &self,
        threshold: u32,
    ) -> impl Iterator<Item = (ItemId, ItemId, u32)> + '_ {
        (0..self.n).flat_map(move |i| {
            (i + 1..self.n).filter_map(move |j| {
                let c = self.counts[self.index(i, j)];
                (c >= threshold).then_some((ItemId(i as u32), ItemId(j as u32), c))
            })
        })
    }

    /// Raw flat counts (for the cluster sum-reduction's byte accounting).
    pub fn raw(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of cells, `C(n, 2)`.
    pub fn cells(&self) -> usize {
        self.counts.len()
    }
}

#[inline]
fn order(a: ItemId, b: ItemId) -> (usize, usize) {
    assert_ne!(a, b, "a pair must have two distinct items");
    if a < b {
        (a.index(), b.index())
    } else {
        (b.index(), a.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_formula_matches_naive_enumeration() {
        for n in 0..12 {
            let m = TriangleMatrix::new(n);
            let mut expect = 0usize;
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(m.index(i, j), expect, "n={n} i={i} j={j}");
                    expect += 1;
                }
            }
            assert_eq!(m.cells(), expect);
        }
    }

    #[test]
    fn increment_get_symmetric() {
        let mut m = TriangleMatrix::new(5);
        m.increment(ItemId(3), ItemId(1));
        m.increment(ItemId(1), ItemId(3));
        assert_eq!(m.get(ItemId(1), ItemId(3)), 2);
        assert_eq!(m.get(ItemId(3), ItemId(1)), 2);
        assert_eq!(m.get(ItemId(0), ItemId(4)), 0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn diagonal_rejected() {
        let m = TriangleMatrix::new(5);
        m.get(ItemId(2), ItemId(2));
    }

    #[test]
    fn count_transaction_counts_all_pairs() {
        let mut m = TriangleMatrix::new(6);
        let txn: Vec<ItemId> = [0u32, 2, 5].map(ItemId).to_vec();
        m.count_transaction(&txn);
        assert_eq!(m.get(ItemId(0), ItemId(2)), 1);
        assert_eq!(m.get(ItemId(0), ItemId(5)), 1);
        assert_eq!(m.get(ItemId(2), ItemId(5)), 1);
        assert_eq!(m.get(ItemId(1), ItemId(2)), 0);
        // total increments = C(3,2) = 3
        assert_eq!(m.raw().iter().sum::<u32>(), 3);
    }

    #[test]
    fn merge_from_sums_partials() {
        let mut a = TriangleMatrix::new(4);
        let mut b = TriangleMatrix::new(4);
        a.add(ItemId(0), ItemId(1), 5);
        b.add(ItemId(0), ItemId(1), 7);
        b.add(ItemId(2), ItemId(3), 1);
        a.merge_from(&b);
        assert_eq!(a.get(ItemId(0), ItemId(1)), 12);
        assert_eq!(a.get(ItemId(2), ItemId(3)), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = TriangleMatrix::new(4);
        let b = TriangleMatrix::new(5);
        a.merge_from(&b);
    }

    #[test]
    fn frequent_pairs_filters_and_orders() {
        let mut m = TriangleMatrix::new(4);
        m.add(ItemId(0), ItemId(1), 3);
        m.add(ItemId(0), ItemId(3), 10);
        m.add(ItemId(2), ItemId(3), 5);
        let freq: Vec<_> = m.frequent_pairs(5).collect();
        assert_eq!(
            freq,
            vec![(ItemId(0), ItemId(3), 10), (ItemId(2), ItemId(3), 5)]
        );
        assert_eq!(m.frequent_pairs(11).count(), 0);
        assert_eq!(m.frequent_pairs(1).count(), 3);
    }

    #[test]
    fn from_raw_round_trips() {
        let mut m = TriangleMatrix::new(4);
        m.add(ItemId(1), ItemId(3), 9);
        let rebuilt = TriangleMatrix::from_raw(4, m.raw().to_vec());
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_raw_rejects_wrong_length() {
        TriangleMatrix::from_raw(4, vec![0; 5]);
    }

    #[test]
    fn zero_and_one_item_matrices() {
        let m0 = TriangleMatrix::new(0);
        assert_eq!(m0.cells(), 0);
        let m1 = TriangleMatrix::new(1);
        assert_eq!(m1.cells(), 0);
        assert_eq!(m1.frequent_pairs(0).count(), 0);
    }

    #[test]
    fn fits_rejects_unallocatable_universes() {
        assert!(TriangleMatrix::fits(0) && TriangleMatrix::fits(1000));
        assert!(!TriangleMatrix::fits(u32::MAX as usize));
        assert!(!TriangleMatrix::fits(usize::MAX));
    }
}
