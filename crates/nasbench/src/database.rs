//! The precomputed-model database, mirroring the NASBench-101 query API.
//!
//! §III of the paper uses "the NASBench database of precomputed accuracy" to
//! enumerate the codesign space exactly. [`NasbenchDatabase`] plays that
//! role: a canonically-deduplicated set of cells with surrogate accuracies
//! (CIFAR-10 and CIFAR-100 heads) and simulated training times. It holds
//! every cell up to a vertex bound, enumerated exhaustively; at 7 vertices
//! that is the full 423,624-cell census.

use std::collections::HashMap;

use crate::features::CellFeatures;
use crate::surrogate::{self, Dataset, NUM_SEEDS};
use crate::{CellSpec, SpecError};

/// One database row: a unique cell with everything the evaluator needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// The (pruned) cell.
    pub spec: CellSpec,
    /// CIFAR-10 test accuracy per training seed.
    pub cifar10_accuracy: [f64; NUM_SEEDS],
    /// CIFAR-100 test accuracy per training seed.
    pub cifar100_accuracy: [f64; NUM_SEEDS],
    /// Simulated single-GPU training time, seconds.
    pub training_seconds: f64,
}

impl DbEntry {
    /// Mean accuracy across seeds for `dataset`.
    #[must_use]
    pub fn mean_accuracy(&self, dataset: Dataset) -> f64 {
        let accs = match dataset {
            Dataset::Cifar10 => &self.cifar10_accuracy,
            Dataset::Cifar100 => &self.cifar100_accuracy,
        };
        accs.iter().sum::<f64>() / NUM_SEEDS as f64
    }
}

/// A deduplicated database of evaluated cells.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{known_cells, Dataset, NasbenchDatabase};
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// let db = NasbenchDatabase::exhaustive(4);
/// assert_eq!(db.len(), 91);
/// // The 4-vertex ResNet-style cell is among them.
/// let entry = db.query(&known_cells::resnet_cell())?;
/// assert!(entry.mean_accuracy(Dataset::Cifar10) > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NasbenchDatabase {
    entries: Vec<DbEntry>,
    index: HashMap<u128, usize>,
}

impl NasbenchDatabase {
    /// Builds the **complete** database of every unique valid cell with up to
    /// `max_vertices` vertices — the exact-enumeration analog of the NASBench
    /// census: 2,532 cells at 5 vertices, 64,542 at 6 and all 423,624 at 7.
    ///
    /// Search experiments restricted to the same bound are then exactly
    /// consistent with Pareto fronts enumerated from this database, which is
    /// the property §III's Fig. 5 comparison relies on.
    ///
    /// # Panics
    ///
    /// Panics if `max_vertices` is outside `2..=7`.
    #[must_use]
    pub fn exhaustive(max_vertices: usize) -> Self {
        assert!(
            (2..=crate::MAX_VERTICES).contains(&max_vertices),
            "max_vertices must be in 2..=7"
        );
        let mut db = Self {
            entries: Vec::new(),
            index: HashMap::new(),
        };
        for v in 2..=max_vertices {
            for cell in crate::sampler::enumerate_cells(v) {
                db.insert_cell(cell);
            }
        }
        db
    }

    fn insert_cell(&mut self, cell: CellSpec) {
        let hash = cell.canonical_hash();
        if self.index.contains_key(&hash) {
            return;
        }
        // Both columns come from the CIFAR-10 skeleton's features, so the
        // CIFAR-100 column differs slightly from what the trainer answers
        // on the 100-class skeleton. Nothing reads the column but
        // `fingerprint`, which persisted caches are salted with.
        let features = CellFeatures::extract(&cell, Dataset::Cifar10);
        let e10 = surrogate::evaluate_features(&features, hash, Dataset::Cifar10);
        let e100 = surrogate::evaluate_features(&features, hash, Dataset::Cifar100);
        self.index.insert(hash, self.entries.len());
        self.entries.push(DbEntry {
            spec: cell,
            cifar10_accuracy: e10.accuracy,
            cifar100_accuracy: e100.accuracy,
            training_seconds: e100.training_seconds,
        });
    }

    /// Number of unique cells stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the database holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a cell up by spec (canonical hash).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownSpec`] when the cell was never inserted.
    pub fn query(&self, spec: &CellSpec) -> Result<&DbEntry, SpecError> {
        self.query_hash(spec.canonical_hash())
    }

    /// Looks a cell up by canonical hash.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownSpec`] when no cell with that hash exists.
    pub fn query_hash(&self, hash: u128) -> Result<&DbEntry, SpecError> {
        self.index
            .get(&hash)
            .map(|&i| &self.entries[i])
            .ok_or(SpecError::UnknownSpec)
    }

    /// Entry at position `i` (insertion order, deterministic per build).
    #[must_use]
    pub fn entry(&self, i: usize) -> Option<&DbEntry> {
        self.entries.get(i)
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &DbEntry> {
        self.entries.iter()
    }

    /// An order-insensitive 64-bit fingerprint of the stored contents:
    /// the cell set *and* each cell's stored accuracies/training time.
    ///
    /// Accuracies are stored data, computed once when the database is
    /// built and not derived at query time, so they must participate — a
    /// database with the same cells but different accuracy values (a
    /// different surrogate) fingerprints differently. Persistent evaluation caches use
    /// this as their salt: a cache built against one database is rejected
    /// when replayed against a different one instead of silently serving
    /// stale metrics.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0xA076_1D64_78BD_642Fu64 ^ (self.entries.len() as u64);
        for entry in &self.entries {
            let h = entry.spec.canonical_hash();
            // Absorb everything the evaluator can read out of this entry,
            // order-sensitively within the entry...
            let mut z = (h as u64) ^ ((h >> 64) as u64);
            for bits in entry
                .cifar10_accuracy
                .iter()
                .chain(&entry.cifar100_accuracy)
                .chain([entry.training_seconds].iter())
                .map(|a| a.to_bits())
            {
                z = (z ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
            }
            // ...then mix and combine entries with XOR so insertion order
            // cannot matter.
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc ^= z ^ (z >> 31);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known_cells;

    #[test]
    fn entries_are_unique() {
        let db = NasbenchDatabase::exhaustive(5);
        let mut hashes: Vec<u128> = db.iter().map(|e| e.spec.canonical_hash()).collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(n, hashes.len());
    }

    #[test]
    fn reference_cells_always_present() {
        // A named cell is in the census exactly when it fits the bound.
        let db = NasbenchDatabase::exhaustive(5);
        let mut present = Vec::new();
        for (name, cell) in known_cells::all_named() {
            match db.query(&cell) {
                Ok(_) => present.push(name),
                Err(err) => assert_eq!(err, SpecError::UnknownSpec, "{name}"),
            }
            assert_eq!(db.query(&cell).is_ok(), cell.num_vertices() <= 5, "{name}");
        }
        assert_eq!(present, ["resnet", "cod1", "plain"]);
    }

    #[test]
    fn unknown_spec_query_fails() {
        let db = NasbenchDatabase::exhaustive(2);
        assert_eq!(
            db.query_hash(0xDEAD_BEEF).unwrap_err(),
            SpecError::UnknownSpec
        );
    }

    #[test]
    fn fingerprint_tracks_cell_set_not_order() {
        let a = NasbenchDatabase::exhaustive(4);
        let mut reversed = a.clone();
        reversed.entries.reverse();
        assert_ne!(
            reversed.entry(0).map(|e| e.spec.canonical_hash()),
            a.entry(0).map(|e| e.spec.canonical_hash())
        );
        assert_eq!(a.fingerprint(), reversed.fingerprint());
        // A different cell set fingerprints differently.
        let c = NasbenchDatabase::exhaustive(3);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_covers_stored_accuracies_not_just_cells() {
        let db = NasbenchDatabase::exhaustive(3);
        // Perturb one stored accuracy value without touching the cell set.
        let mut tampered = db.clone();
        tampered.entries[0].cifar10_accuracy[0] += 0.001;
        assert_eq!(tampered.len(), db.len(), "cell set unchanged");
        assert_ne!(
            tampered.fingerprint(),
            db.fingerprint(),
            "different stored accuracies must fingerprint differently"
        );
    }

    #[test]
    fn exhaustive_database_covers_small_spaces() {
        let db = NasbenchDatabase::exhaustive(4);
        // 1 (V=2) + 6 (V=3) + all unique 4-vertex cells.
        assert!(db.len() > 50, "got {}", db.len());
        let resnet = known_cells::resnet_cell();
        assert!(
            db.query(&resnet).is_ok(),
            "4-vertex resnet cell must be enumerated"
        );
        // No cell exceeds the bound.
        assert!(db.iter().all(|e| e.spec.num_vertices() <= 4));
    }
}
