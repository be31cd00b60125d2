//! Out-of-core class store — the paper's three-scan discipline applied
//! to a worker whose exchanged tid-lists exceed RAM.
//!
//! After the §6.3 exchange a processor holds the global tid-lists of
//! every equivalence class it owns. The paper writes them out — *"The
//! tid-lists of itemsets in G are then written out to disk"* — and the
//! asynchronous phase reads each class back exactly once: *"Each
//! processor computes the frequent itemsets from the classes assigned to
//! it, by reading the tid-lists directly from its local disk."* A
//! [`SpillStore`] makes that literal under a byte budget: inserted
//! classes stay resident until the budget is exceeded, then the oldest
//! residents are written to one file per class (the vertical binary
//! format of [`crate::binfmt`]); [`SpillStore::take`] faults a spilled
//! class back in, deleting its file. With a generous budget nothing
//! touches disk; with a budget of zero every class spills — the mining
//! result is identical either way, only the metered I/O differs.

use crate::binfmt;
use crate::vertical::VerticalDb;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use tidlist::TidList;

/// Byte and timing counters for a store's lifetime. Bytes are exact
/// on-disk sizes (the same quantities the simulated disk model prices);
/// a run that never exceeds its budget reports all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpillMetrics {
    /// Bytes written by evictions.
    pub bytes_written: u64,
    /// Bytes read back by faults.
    pub bytes_read: u64,
    /// Wall-clock seconds spent writing evicted classes (the
    /// `spill:write` spans).
    pub write_secs: f64,
    /// Wall-clock seconds spent faulting classes back in (the
    /// `spill:fault` spans).
    pub read_secs: f64,
    /// Number of classes evicted to disk.
    pub classes_spilled: u64,
    /// Number of `take` calls served from disk.
    pub faults: u64,
}

enum Slot {
    /// Never inserted, or already taken.
    Empty,
    /// In memory, counted against the budget.
    Resident(Vec<TidList>),
    /// On disk in the class file.
    Spilled,
}

/// A budgeted store of per-class tid-list vectors, keyed by class index.
///
/// Classes are inserted once (transformation phase) and taken once
/// (asynchronous phase); eviction is insertion-order — the class loop
/// mines in scheduled order, so the oldest resident is the best spill
/// victim under a single pass. The store owns its directory and removes
/// it on drop.
pub struct SpillStore {
    dir: PathBuf,
    budget: u64,
    resident_bytes: u64,
    slots: Vec<Slot>,
    /// Insertion order of resident classes (eviction queue).
    resident_order: VecDeque<usize>,
    metrics: SpillMetrics,
}

impl SpillStore {
    /// Create a store for `num_classes` classes under `dir` (created if
    /// missing) holding at most `budget_bytes` of resident tid-lists.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn create(
        dir: impl AsRef<Path>,
        budget_bytes: u64,
        num_classes: usize,
    ) -> io::Result<SpillStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(SpillStore {
            dir: dir.as_ref().to_path_buf(),
            budget: budget_bytes,
            resident_bytes: 0,
            slots: (0..num_classes).map(|_| Slot::Empty).collect(),
            resident_order: VecDeque::new(),
            metrics: SpillMetrics::default(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Bytes currently resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Lifetime I/O counters.
    pub fn metrics(&self) -> SpillMetrics {
        self.metrics
    }

    fn class_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("class-{id:05}.ecv"))
    }

    fn list_bytes(lists: &[TidList]) -> u64 {
        lists.iter().map(|l| 4 + l.byte_size()).sum()
    }

    /// Insert class `id`'s tid-lists, then evict oldest residents (this
    /// one included, if the budget is that tight) until the resident set
    /// fits the budget again.
    ///
    /// # Errors
    /// I/O errors writing evicted classes.
    ///
    /// # Panics
    /// Panics if `id` is out of range or already occupied.
    pub fn insert(&mut self, id: usize, lists: Vec<TidList>) -> io::Result<()> {
        assert!(
            matches!(self.slots[id], Slot::Empty),
            "class {id} inserted twice"
        );
        self.resident_bytes += Self::list_bytes(&lists);
        self.slots[id] = Slot::Resident(lists);
        self.resident_order.push_back(id);
        while self.resident_bytes > self.budget {
            let victim = self
                .resident_order
                .pop_front()
                .expect("resident bytes imply a resident class");
            let lists = match std::mem::replace(&mut self.slots[victim], Slot::Spilled) {
                Slot::Resident(lists) => lists,
                _ => unreachable!("eviction queue only holds residents"),
            };
            self.resident_bytes -= Self::list_bytes(&lists);
            let span = eclat_obs::trace::span_arg("spill:write", victim as u64);
            let mut w = BufWriter::new(File::create(self.class_path(victim))?);
            let written = binfmt::write_vertical(&VerticalDb::from_lists(lists), &mut w)?;
            eclat_obs::trace::instant("spill:written_bytes", written);
            self.metrics.write_secs += span.finish();
            self.metrics.bytes_written += written;
            self.metrics.classes_spilled += 1;
        }
        Ok(())
    }

    /// Take class `id` out of the store — from memory if resident,
    /// faulted back from its file (which is then deleted) if spilled.
    ///
    /// # Errors
    /// I/O or format errors reading a spilled class.
    ///
    /// # Panics
    /// Panics if `id` was never inserted or already taken.
    pub fn take(&mut self, id: usize) -> io::Result<Vec<TidList>> {
        match std::mem::replace(&mut self.slots[id], Slot::Empty) {
            Slot::Resident(lists) => {
                self.resident_bytes -= Self::list_bytes(&lists);
                self.resident_order.retain(|&r| r != id);
                Ok(lists)
            }
            Slot::Spilled => {
                let span = eclat_obs::trace::span_arg("spill:fault", id as u64);
                let path = self.class_path(id);
                let mut r = BufReader::new(File::open(&path)?);
                let (db, read) = binfmt::read_vertical(&mut r)?;
                fs::remove_file(&path)?;
                eclat_obs::trace::instant("spill:faulted_bytes", read);
                self.metrics.read_secs += span.finish();
                self.metrics.bytes_read += read;
                self.metrics.faults += 1;
                Ok(db.into_lists())
            }
            Slot::Empty => panic!("class {id} taken twice (or never inserted)"),
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup: the store owns its directory.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mining_types::Tid;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eclat-spill-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn lists(seed: u32, n: usize) -> Vec<TidList> {
        (0..n)
            .map(|i| {
                TidList::from_sorted((0..(i + 2) as u32).map(|t| Tid(seed * 100 + t)).collect())
            })
            .collect()
    }

    #[test]
    fn generous_budget_never_touches_disk() {
        let dir = tempdir("ram");
        let mut s = SpillStore::create(&dir, u64::MAX, 3).unwrap();
        for id in 0..3 {
            s.insert(id, lists(id as u32, 4)).unwrap();
        }
        assert!(s.resident_bytes() > 0);
        for id in (0..3).rev() {
            assert_eq!(s.take(id).unwrap(), lists(id as u32, 4));
        }
        assert_eq!(s.metrics(), SpillMetrics::default());
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn zero_budget_spills_every_class_and_faults_round_trip() {
        let dir = tempdir("zero");
        let mut s = SpillStore::create(&dir, 0, 4).unwrap();
        for id in 0..4 {
            s.insert(id, lists(id as u32, id + 1)).unwrap();
            assert_eq!(s.resident_bytes(), 0, "budget 0 keeps nothing resident");
        }
        let m = s.metrics();
        assert_eq!(m.classes_spilled, 4);
        assert!(m.bytes_written > 0);
        for id in 0..4 {
            assert_eq!(s.take(id).unwrap(), lists(id as u32, id + 1));
        }
        let m = s.metrics();
        assert_eq!(m.faults, 4);
        assert_eq!(m.bytes_read, m.bytes_written, "symmetric codec");
    }

    #[test]
    fn eviction_is_insertion_ordered_and_partial() {
        // Budget fits roughly two of the three classes: the oldest one
        // spills, the newer ones stay resident.
        let a = lists(1, 3);
        let per_class = SpillStore::list_bytes(&a);
        let dir = tempdir("lru");
        let mut s = SpillStore::create(&dir, per_class * 2, 3).unwrap();
        s.insert(0, lists(1, 3)).unwrap();
        s.insert(1, lists(2, 3)).unwrap();
        assert_eq!(s.metrics().classes_spilled, 0);
        s.insert(2, lists(3, 3)).unwrap();
        assert_eq!(s.metrics().classes_spilled, 1, "oldest class evicted");
        assert_eq!(s.resident_bytes(), per_class * 2);
        // Class 0 faults from disk, 1 and 2 come from memory.
        assert_eq!(s.take(0).unwrap(), lists(1, 3));
        assert_eq!(s.metrics().faults, 1);
        assert_eq!(s.take(1).unwrap(), lists(2, 3));
        assert_eq!(s.take(2).unwrap(), lists(3, 3));
        assert_eq!(s.metrics().faults, 1, "residents are not faults");
    }

    #[test]
    fn fault_respill_cycle_keeps_accounting_exact() {
        // A class that is spilled, faulted back, re-inserted, and spilled
        // again must not double-count bytes anywhere: `resident_bytes`
        // must stay within the budget after every operation and return to
        // exactly zero once everything is taken, and the lifetime
        // counters must grow by exactly one spill/fault per cycle.
        let class = lists(1, 3);
        let class_bytes = SpillStore::list_bytes(&class);
        let dir = tempdir("cycle");
        // Budget one byte short of the class: every insert self-evicts,
        // every take is a fault — a pure fault→respill loop.
        let mut s = SpillStore::create(&dir, class_bytes - 1, 1).unwrap();
        s.insert(0, class.clone()).unwrap();
        assert_eq!(s.resident_bytes(), 0, "class self-evicts on insert");
        assert_eq!(s.metrics().classes_spilled, 1);
        let first_written = s.metrics().bytes_written;
        assert!(first_written > 0);

        // Fault → re-insert → re-evict, three times round.
        for cycle in 1..=3u64 {
            let back = s.take(0).unwrap();
            assert_eq!(back, class, "fault returns the exact lists (cycle {cycle})");
            assert_eq!(s.metrics().faults, cycle);
            assert_eq!(
                s.resident_bytes(),
                0,
                "faulted lists belong to the caller, not the resident set"
            );
            assert_eq!(
                s.metrics().bytes_read,
                first_written * cycle,
                "each fault reads the file once"
            );
            s.insert(0, back).unwrap();
            assert!(
                s.resident_bytes() <= s.budget_bytes(),
                "re-insert must re-evict down to the budget (cycle {cycle})"
            );
            assert_eq!(
                s.metrics().classes_spilled,
                1 + cycle,
                "exactly one respill per cycle"
            );
            assert_eq!(
                s.metrics().bytes_written,
                first_written * (1 + cycle),
                "respill writes the class's bytes once, not twice"
            );
        }

        // Drain and verify the books close at zero.
        assert_eq!(s.take(0).unwrap(), class);
        assert_eq!(s.resident_bytes(), 0, "accounting returns to zero");
        assert_eq!(s.metrics().faults, 4);
    }

    #[test]
    fn empty_tidlists_survive_the_round_trip() {
        let dir = tempdir("empty");
        let mut s = SpillStore::create(&dir, 0, 1).unwrap();
        let mixed = vec![TidList::new(), TidList::of(&[7]), TidList::new()];
        s.insert(0, mixed.clone()).unwrap();
        assert_eq!(s.take(0).unwrap(), mixed);
    }

    #[test]
    fn drop_removes_the_directory() {
        let dir = tempdir("drop");
        {
            let mut s = SpillStore::create(&dir, 0, 1).unwrap();
            s.insert(0, lists(0, 2)).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "store cleans up its directory on drop");
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let dir = tempdir("double");
        let mut s = SpillStore::create(&dir, u64::MAX, 1).unwrap();
        s.insert(0, lists(0, 2)).unwrap();
        let _ = s.take(0);
        let _ = s.take(0);
    }
}
