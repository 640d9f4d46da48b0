//! Exhaustive enumeration of cell specs: the only source of the cells a
//! [`NasbenchDatabase`](crate::NasbenchDatabase) holds.

use crate::graph::{AdjMatrix, MAX_VERTICES};
use crate::spec::MAX_EDGES;
use crate::{CellSpec, Op};

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
