//! Structural features of a cell, the inputs to the surrogate accuracy model.

use crate::network::Network;
use crate::{CellSpec, Dataset, Op};

/// Structural descriptors of a cell and its assembled network.
///
/// These drive the surrogate accuracy model ([`crate::surrogate`]) and are
/// also useful for analyzing
/// what the search discovers (e.g. the paper's observation that Cod-1 reuses
/// ResNet's skip-connection idiom).
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{known_cells, CellFeatures, Dataset};
///
/// let f = CellFeatures::extract(&known_cells::resnet_cell(), Dataset::Cifar10);
/// assert_eq!(f.conv3_count, 2);
/// assert!(f.has_skip);
/// assert!(f.params > 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFeatures {
    /// Vertices after pruning (including input/output).
    pub num_vertices: usize,
    /// Edges after pruning.
    pub num_edges: usize,
    /// Longest input→output path length in edges.
    pub depth: usize,
    /// Maximum number of interior vertices at the same depth.
    pub width: usize,
    /// Interior vertices labeled conv3×3.
    pub conv3_count: usize,
    /// Interior vertices labeled conv1×1.
    pub conv1_count: usize,
    /// Interior vertices labeled max-pool.
    pub pool_count: usize,
    /// Whether a direct input→output skip edge exists.
    pub has_skip: bool,
    /// Total network multiply-accumulates.
    pub macs: u64,
    /// Total network parameters.
    pub params: u64,
}

impl CellFeatures {
    /// Extracts features from `cell` assembled with `dataset`'s classifier.
    #[must_use]
    pub fn extract(cell: &CellSpec, dataset: Dataset) -> Self {
        let network = Network::assemble(cell, dataset);
        Self {
            num_vertices: cell.num_vertices(),
            num_edges: cell.num_edges(),
            depth: cell.matrix().longest_path(),
            width: cell.matrix().max_width(),
            conv3_count: cell.count_op(Op::Conv3x3),
            conv1_count: cell.count_op(Op::Conv1x1),
            pool_count: cell.count_op(Op::MaxPool3x3),
            has_skip: cell.has_input_output_skip(),
            macs: network.macs(),
            params: network.params(),
        }
    }

    /// Number of interior (operation) vertices.
    #[must_use]
    pub fn interior_count(&self) -> usize {
        self.conv3_count + self.conv1_count + self.pool_count
    }

    /// Fraction of interior vertices that are max-pools (0 when empty).
    #[must_use]
    pub fn pool_fraction(&self) -> f64 {
        let n = self.interior_count();
        if n == 0 {
            0.0
        } else {
            self.pool_count as f64 / n as f64
        }
    }

    /// Base-10 logarithm of the parameter count.
    #[must_use]
    pub fn log10_params(&self) -> f64 {
        (self.params.max(1) as f64).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known_cells;

    fn features(cell: &CellSpec) -> CellFeatures {
        CellFeatures::extract(cell, Dataset::Cifar10)
    }

    #[test]
    fn resnet_features() {
        let f = features(&known_cells::resnet_cell());
        assert_eq!(f.num_vertices, 4);
        assert_eq!(f.depth, 3);
        assert_eq!(f.interior_count(), 2);
        assert_eq!(f.pool_fraction(), 0.0);
        assert!(f.has_skip);
    }

    #[test]
    fn googlenet_features() {
        let f = features(&known_cells::googlenet_cell());
        assert_eq!(f.conv1_count, 3);
        assert_eq!(f.conv3_count, 1);
        assert_eq!(f.pool_count, 1);
        assert!(!f.has_skip);
        assert_eq!(f.width, 3);
    }

    #[test]
    fn identity_cell_has_no_interior() {
        use crate::graph::AdjMatrix;
        let m = AdjMatrix::from_edges(2, &[(0, 1)]).unwrap();
        let cell = CellSpec::new(m, vec![]).unwrap();
        let f = features(&cell);
        assert_eq!(f.interior_count(), 0);
        assert_eq!(f.pool_fraction(), 0.0);
        assert!(f.params > 0, "stem and classifier still carry parameters");
    }

    #[test]
    fn heavier_cells_have_more_macs() {
        let plain = features(&known_cells::plain_cell());
        let resnet = features(&known_cells::resnet_cell());
        assert!(resnet.macs > plain.macs);
        assert!(resnet.log10_params() > 6.0);
    }
}
