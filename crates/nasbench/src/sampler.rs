//! Random sampling and exhaustive enumeration of cell specs.

use rand::Rng;

use crate::graph::{AdjMatrix, MAX_VERTICES};
use crate::spec::MAX_EDGES;
use crate::{CellSpec, Op};

/// Random generator of valid cells, biased toward larger graphs like the
/// NASBench-101 population (most unique models use all 7 vertices).
///
/// # Examples
///
/// ```
/// use codesign_nasbench::SpecSampler;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let sampler = SpecSampler::default();
/// let cell = sampler.sample(&mut rng);
/// assert!(cell.num_edges() <= 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecSampler {
    /// Probability of including each candidate edge before validation.
    pub edge_prob: f64,
    /// Cumulative weights for picking the vertex count 2..=7.
    vertex_weights: [f64; MAX_VERTICES - 1],
}

impl Default for SpecSampler {
    fn default() -> Self {
        // Weights for V = 2, 3, 4, 5, 6, 7: heavily favor larger cells, like
        // the unique-model census of NASBench-101.
        Self::with_weights(0.5, [0.2, 1.0, 3.0, 8.0, 20.0, 68.0])
    }
}

impl SpecSampler {
    /// Creates a sampler with explicit vertex-count weights (for V = 2..=7)
    /// and edge-inclusion probability.
    ///
    /// # Panics
    ///
    /// Panics if `edge_prob` is outside `(0, 1]` or the weights are all zero.
    #[must_use]
    pub fn with_weights(edge_prob: f64, weights: [f64; MAX_VERTICES - 1]) -> Self {
        assert!(
            edge_prob > 0.0 && edge_prob <= 1.0,
            "edge_prob must be in (0, 1]"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "vertex weights must not all be zero");
        let mut cumulative = [0.0; MAX_VERTICES - 1];
        let mut acc = 0.0;
        for (c, w) in cumulative.iter_mut().zip(weights.iter()) {
            acc += w / total;
            *c = acc;
        }
        Self {
            edge_prob,
            vertex_weights: cumulative,
        }
    }

    /// Samples vertex count 2..=[`MAX_VERTICES`] from the configured weights.
    fn sample_vertices<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        for (i, &c) in self.vertex_weights.iter().enumerate() {
            if u <= c {
                return i + 2;
            }
        }
        MAX_VERTICES
    }

    /// Draws one raw (possibly invalid) spec attempt.
    ///
    /// A random backbone first guarantees every vertex sits on an
    /// input→output path (so large graphs survive pruning intact); extra
    /// edges are then sprinkled up to a random budget within [`MAX_EDGES`].
    fn sample_raw<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CellSpec, crate::SpecError> {
        let v = self.sample_vertices(rng);
        let mut matrix = AdjMatrix::empty(v)?;
        // Backbone 1: every non-input vertex gets an in-edge from below.
        for i in 1..v {
            matrix.add_edge(rng.gen_range(0..i), i)?;
        }
        // Backbone 2: every non-output vertex gets an out-edge upward.
        for i in 0..v - 1 {
            if matrix.out_degree(i) == 0 {
                matrix.add_edge(i, rng.gen_range(i + 1..v))?;
            }
        }
        if matrix.num_edges() > MAX_EDGES {
            return Err(crate::SpecError::TooManyEdges {
                got: matrix.num_edges(),
                max: MAX_EDGES,
            });
        }
        // Extra edges up to a random budget.
        let budget = rng.gen_range(matrix.num_edges()..=MAX_EDGES);
        let mut all_slots: Vec<(usize, usize)> = Vec::new();
        for i in 0..v {
            for j in (i + 1)..v {
                if !matrix.has_edge(i, j) {
                    all_slots.push((i, j));
                }
            }
        }
        while matrix.num_edges() < budget && !all_slots.is_empty() {
            if !rng.gen_bool(self.edge_prob) {
                break;
            }
            let k = rng.gen_range(0..all_slots.len());
            let (i, j) = all_slots.swap_remove(k);
            matrix.add_edge(i, j)?;
        }
        let ops: Vec<Op> = (0..v.saturating_sub(2))
            .map(|_| Op::ALL[rng.gen_range(0..Op::COUNT)])
            .collect();
        CellSpec::new(matrix, ops)
    }

    /// Samples until a valid cell is produced.
    ///
    /// With the default parameters well over a third of raw draws validate,
    /// so this terminates in a handful of attempts in expectation.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CellSpec {
        loop {
            if let Ok(cell) = self.sample_raw(rng) {
                return cell;
            }
        }
    }
}

/// Exhaustively enumerates every valid cell with **exactly** `vertices`
/// vertices before pruning, deduplicated by canonical hash.
///
/// Each edge mask is pruned once, before its op labellings: pruning reads
/// only the edges, so a mask that is disconnected or loses a vertex yields
/// no cell of this size under any labelling and is skipped. Cells of all
/// sizes up to 7 vertices add up to the 423,624 models of the NASBench-101
/// census.
///
/// # Panics
///
/// Panics if `vertices` exceeds [`MAX_VERTICES`] or is below 2.
#[must_use]
pub fn enumerate_cells(vertices: usize) -> Vec<CellSpec> {
    assert!(
        (2..=MAX_VERTICES).contains(&vertices),
        "vertices must be in 2..=7"
    );
    let slots = vertices * (vertices - 1) / 2;
    let interior = vertices - 2;
    let op_combos = 3usize.pow(interior as u32);
    let mut seen = std::collections::HashSet::new();
    let mut cells = Vec::new();
    for mask in 0u64..(1u64 << slots) {
        if (mask.count_ones() as usize) > MAX_EDGES {
            continue;
        }
        let mut edges = Vec::with_capacity(slots);
        let mut bit = 0;
        for i in 0..vertices {
            for j in (i + 1)..vertices {
                if mask >> bit & 1 == 1 {
                    edges.push((i, j));
                }
                bit += 1;
            }
        }
        let Ok(matrix) = AdjMatrix::from_edges(vertices, &edges) else {
            continue;
        };
        // Only masks that lose no vertex to pruning count: pruned duplicates
        // are enumerated at their smaller size. Such a mask keeps its
        // ≤ MAX_EDGES edges, so every labelling of it is a valid cell.
        if !matches!(matrix.prune(), Ok((_, kept)) if kept.len() == vertices) {
            continue;
        }
        for combo in 0..op_combos {
            let mut ops = Vec::with_capacity(interior);
            let mut c = combo;
            for _ in 0..interior {
                ops.push(Op::ALL[c % 3]);
                c /= 3;
            }
            let cell = CellSpec::new(matrix.clone(), ops).expect("the mask prunes to a valid cell");
            if seen.insert(cell.canonical_hash()) {
                cells.push(cell);
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_is_reproducible() {
        let sampler = SpecSampler::default();
        let a: Vec<u128> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..20)
                .map(|_| sampler.sample(&mut rng).canonical_hash())
                .collect()
        };
        let b: Vec<u128> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..20)
                .map(|_| sampler.sample(&mut rng).canonical_hash())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn samples_satisfy_all_invariants() {
        let sampler = SpecSampler::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let cell = sampler.sample(&mut rng);
            assert!(cell.num_vertices() >= 2 && cell.num_vertices() <= MAX_VERTICES);
            assert!(cell.num_edges() <= MAX_EDGES);
            assert_eq!(cell.ops().len(), cell.num_vertices() - 2);
        }
    }

    #[test]
    fn sampler_favors_large_cells() {
        let sampler = SpecSampler::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let sizes: Vec<usize> = (0..500)
            .map(|_| sampler.sample(&mut rng).num_vertices())
            .collect();
        let large = sizes.iter().filter(|&&v| v >= 6).count();
        assert!(
            large > sizes.len() / 2,
            "only {large}/500 cells had >= 6 vertices"
        );
    }

    #[test]
    #[should_panic(expected = "edge_prob")]
    fn invalid_edge_prob_panics() {
        let _ = SpecSampler::with_weights(0.0, [1.0; 6]);
    }

    #[test]
    fn enumerate_two_vertex_space() {
        // Only one graph: input -> output.
        let cells = enumerate_cells(2);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn enumerate_three_vertex_space() {
        // Valid 3-vertex cells: chain (0-1, 1-2) with/without skip, times 3 ops.
        let cells = enumerate_cells(3);
        assert_eq!(cells.len(), 6);
    }

    #[test]
    fn enumeration_contains_known_small_cells() {
        let cells = enumerate_cells(4);
        let resnet = crate::known_cells::resnet_cell();
        assert!(cells
            .iter()
            .any(|c| c.canonical_hash() == resnet.canonical_hash()));
    }

    #[test]
    fn enumeration_has_no_duplicate_hashes() {
        let cells = enumerate_cells(4);
        let mut hashes: Vec<u128> = cells.iter().map(CellSpec::canonical_hash).collect();
        let before = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(before, hashes.len());
        assert!(
            before > 50,
            "4-vertex space should have dozens of unique cells, got {before}"
        );
    }
}
