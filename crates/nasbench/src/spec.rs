//! Validated cell specifications.
//!
//! A [`CellSpec`] is the unit the controller searches over: an
//! upper-triangular DAG of at most [`MAX_VERTICES`](crate::MAX_VERTICES)
//! vertices and [`MAX_EDGES`] edges whose interior vertices are labeled with
//! [`Op`]s (Fig. 2 of the paper; identical to NASBench-101). Construction
//! validates and **prunes** the graph: vertices not on any input→output path
//! are removed, exactly as NASBench-101 does before training, so two raw
//! matrices that prune to the same graph compare equal.

use crate::canon::memoized_hash;
use crate::graph::AdjMatrix;
use crate::{Op, SpecError};

/// Maximum number of edges per (pruned) cell.
pub const MAX_EDGES: usize = 9;

/// A validated, pruned cell: the CNN half of a codesign search point.
///
/// # Examples
///
/// The ResNet-style cell of Fig. 8a's discussion — two 3×3 convolutions with
/// a skip connection:
///
/// ```
/// use codesign_nasbench::{AdjMatrix, CellSpec, Op};
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// let matrix = AdjMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])?;
/// let cell = CellSpec::new(matrix, vec![Op::Conv3x3, Op::Conv3x3])?;
/// assert_eq!(cell.num_vertices(), 4);
/// assert_eq!(cell.num_edges(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSpec {
    matrix: AdjMatrix,
    ops: Vec<Op>,
    canonical: u128,
}

impl CellSpec {
    /// Validates `matrix` + `ops` and builds the pruned spec.
    ///
    /// `ops[i]` labels interior vertex `i + 1`; the input and output vertices
    /// carry no operation.
    ///
    /// # Errors
    ///
    /// * [`SpecError::OpCountMismatch`] — `ops.len() != num_vertices - 2`,
    /// * [`SpecError::Disconnected`] — input cannot reach output,
    /// * [`SpecError::TooManyEdges`] — pruned cell exceeds [`MAX_EDGES`],
    /// * vertex-count and triangularity errors from [`AdjMatrix`].
    pub fn new(matrix: AdjMatrix, mut ops: Vec<Op>) -> Result<Self, SpecError> {
        let interior = matrix.num_vertices() - 2;
        if ops.len() != interior {
            return Err(SpecError::OpCountMismatch {
                got: ops.len(),
                expected: interior,
            });
        }
        let (pruned, kept) = matrix.prune()?;
        if pruned.num_edges() > MAX_EDGES {
            return Err(SpecError::TooManyEdges {
                got: pruned.num_edges(),
                max: MAX_EDGES,
            });
        }
        // Keep only the ops of surviving interior vertices, compacted in
        // place: `kept` ascends, so no write lands on an op still to be read.
        let last = matrix.num_vertices() - 1;
        let mut len = 0;
        for v in kept.iter().filter(|&v| v != 0 && v != last) {
            ops[len] = ops[v - 1];
            len += 1;
        }
        ops.truncate(len);
        let canonical = memoized_hash(&pruned, &ops);
        Ok(Self {
            matrix: pruned,
            ops,
            canonical,
        })
    }

    /// The pruned adjacency matrix.
    #[must_use]
    pub fn matrix(&self) -> &AdjMatrix {
        &self.matrix
    }

    /// Operations of the interior vertices (vertex `i + 1` runs `ops()[i]`).
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Operation of vertex `v`, or `None` for the input/output vertices.
    #[must_use]
    pub fn op(&self, v: usize) -> Option<Op> {
        if v == 0 || v + 1 == self.num_vertices() {
            None
        } else {
            self.ops.get(v - 1).copied()
        }
    }

    /// Number of vertices after pruning.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.matrix.num_vertices()
    }

    /// Number of edges after pruning.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.matrix.num_edges()
    }

    /// Isomorphism-invariant fingerprint (NASBench-101-style iterative
    /// neighborhood hashing). Equal hashes ⇒ the cells are treated as the
    /// same model by the database.
    #[must_use]
    pub fn canonical_hash(&self) -> u128 {
        self.canonical
    }

    /// Returns `true` when the cell has a direct input→output edge — the
    /// "skip connection" the paper calls out as an important ResNet feature.
    #[must_use]
    pub fn has_input_output_skip(&self) -> bool {
        self.matrix.has_edge(0, self.num_vertices() - 1)
    }

    /// Count of interior vertices labeled with `op`.
    #[must_use]
    pub fn count_op(&self, op: Op) -> usize {
        self.ops.iter().filter(|&&o| o == op).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_chain() -> CellSpec {
        let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        CellSpec::new(m, vec![Op::Conv3x3]).unwrap()
    }

    #[test]
    fn op_count_must_match_interior_vertices() {
        let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let err = CellSpec::new(m, vec![]).unwrap_err();
        assert_eq!(
            err,
            SpecError::OpCountMismatch {
                got: 0,
                expected: 1
            }
        );
    }

    #[test]
    fn pruning_happens_at_construction() {
        // Vertex 2 dangles off the input and never reaches the output.
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
        let cell = CellSpec::new(m, vec![Op::Conv3x3, Op::MaxPool3x3]).unwrap();
        assert_eq!(cell.num_vertices(), 3);
        assert_eq!(cell.ops(), &[Op::Conv3x3]);
    }

    #[test]
    fn pruned_equivalent_graphs_compare_equal() {
        let with_dangler = {
            let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
            CellSpec::new(m, vec![Op::Conv1x1, Op::MaxPool3x3]).unwrap()
        };
        let clean = {
            let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
            CellSpec::new(m, vec![Op::Conv1x1]).unwrap()
        };
        assert_eq!(with_dangler, clean);
        assert_eq!(with_dangler.canonical_hash(), clean.canonical_hash());
    }

    #[test]
    fn disconnected_cells_are_rejected() {
        let m = AdjMatrix::from_edges(4, &[(1, 2)]).unwrap();
        let err = CellSpec::new(m, vec![Op::Conv3x3, Op::Conv3x3]).unwrap_err();
        assert_eq!(err, SpecError::Disconnected);
    }

    #[test]
    fn edge_budget_is_enforced_after_pruning() {
        // Dense 5-vertex DAG has 10 edges > 9.
        let mut m = AdjMatrix::empty(5).unwrap();
        for i in 0..5 {
            for j in (i + 1)..5 {
                m.add_edge(i, j).unwrap();
            }
        }
        let err = CellSpec::new(m, vec![Op::Conv3x3; 3]).unwrap_err();
        assert_eq!(
            err,
            SpecError::TooManyEdges {
                got: 10,
                max: MAX_EDGES
            }
        );
    }

    #[test]
    fn identity_cell_is_allowed() {
        // input -> output with no interior ops: NASBench's 2-vertex special case.
        let m = AdjMatrix::from_edges(2, &[(0, 1)]).unwrap();
        let cell = CellSpec::new(m, vec![]).unwrap();
        assert_eq!(cell.num_vertices(), 2);
        assert!(cell.has_input_output_skip());
    }

    #[test]
    fn op_accessor_skips_input_and_output() {
        let cell = simple_chain();
        assert_eq!(cell.op(0), None);
        assert_eq!(cell.op(1), Some(Op::Conv3x3));
        assert_eq!(cell.op(2), None);
    }

    #[test]
    fn count_op_counts() {
        let m =
            AdjMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        let cell = CellSpec::new(m, vec![Op::Conv3x3, Op::Conv3x3, Op::MaxPool3x3]).unwrap();
        assert_eq!(cell.count_op(Op::Conv3x3), 2);
        assert_eq!(cell.count_op(Op::MaxPool3x3), 1);
        assert_eq!(cell.count_op(Op::Conv1x1), 0);
    }
}
