//! Assembly of the full CNN from a cell (Fig. 2 of the paper).
//!
//! The NASBench skeleton is fixed: a 3×3 convolution stem with 128 channels
//! on a 32×32×3 image, three stacks of three cells each, a 2×2 stride-2
//! max-pool downsample between stacks (halving the spatial size and
//! doubling the channel count), then global average pooling and a
//! fully-connected classifier with one output per class of the
//! [`Dataset`]. Its sizes are private constants, so the dataset is the only
//! choice a caller makes. Because every cell instance in a network
//! depends serially on its predecessor, the network is represented as a list
//! of [`NetworkUnit`]s with repeat counts: the accelerator scheduler needs to
//! schedule each *distinct* cell parameterization only once. Assembly
//! allocates one `Vec` for the units and one per unit's program.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{CellProgram, OpInstance, OpKind};
use crate::{CellSpec, Dataset};

/// Input image channels (3 for CIFAR).
const INPUT_CHANNELS: usize = 3;
/// Input spatial size (32 for CIFAR).
const INPUT_SIZE: usize = 32;
/// Channels produced by the stem convolution.
const STEM_CHANNELS: usize = 128;
/// Number of cell stacks.
const NUM_STACKS: usize = 3;
/// Cells per stack.
const CELLS_PER_STACK: usize = 3;

/// Channel count of stack `stack` (doubles per stack).
fn stack_channels(stack: usize) -> usize {
    STEM_CHANNELS << stack
}

/// Spatial size of stack `stack` (halves per stack).
fn stack_size(stack: usize) -> usize {
    INPUT_SIZE >> stack
}

/// Where a [`NetworkUnit`] sits in the skeleton. `Display` prints its label
/// ("stem", "downsample1", "stack1-cell-widen", "stack1-cell", ...).
///
/// # Examples
///
/// ```
/// use codesign_nasbench::network::UnitRole;
///
/// assert_eq!(UnitRole::Downsample { stack: 1 }.to_string(), "downsample1");
/// assert_eq!(UnitRole::WidenCell { stack: 2 }.to_string(), "stack2-cell-widen");
/// assert!(UnitRole::Cell { stack: 0 }.is_cell());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitRole {
    /// The 3×3 stem convolution.
    Stem,
    /// The 2×2 stride-2 max-pool in front of stack `stack`.
    Downsample {
        /// The stack this downsample feeds.
        stack: usize,
    },
    /// The first cell of stack `stack`, which widens the channel count.
    WidenCell {
        /// The stack index.
        stack: usize,
    },
    /// The cells of stack `stack` at its own channel count.
    Cell {
        /// The stack index.
        stack: usize,
    },
    /// Global average pooling in front of the classifier.
    ClassifierPool,
    /// The fully-connected classifier.
    ClassifierFc,
}

impl UnitRole {
    /// Returns `true` for cell instances (widening or not).
    #[must_use]
    pub fn is_cell(&self) -> bool {
        matches!(self, Self::WidenCell { .. } | Self::Cell { .. })
    }
}

impl fmt::Display for UnitRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stem => f.write_str("stem"),
            Self::Downsample { stack } => write!(f, "downsample{stack}"),
            Self::WidenCell { stack } => write!(f, "stack{stack}-cell-widen"),
            Self::Cell { stack } => write!(f, "stack{stack}-cell"),
            Self::ClassifierPool => f.write_str("classifier-pool"),
            Self::ClassifierFc => f.write_str("classifier-fc"),
        }
    }
}

/// A program repeated `count` times back-to-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkUnit {
    /// The unit's place in the skeleton.
    pub role: UnitRole,
    /// The lowered op program.
    pub program: CellProgram,
    /// How many consecutive times the program runs.
    pub count: usize,
}

/// A cell instantiated into the full NASBench skeleton.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{known_cells, Dataset, Network};
///
/// let net = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
/// assert!(net.macs() > 1_000_000);
/// assert_eq!(net.num_cell_instances(), 9); // 3 stacks x 3 cells
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    units: Vec<NetworkUnit>,
}

impl Network {
    /// Lowers `cell` into the skeleton, with `dataset`'s classifier.
    #[must_use]
    pub fn assemble(cell: &CellSpec, dataset: Dataset) -> Self {
        // The stem, the classifier's two units, and per stack at most a
        // downsample and two cell units.
        let mut units = Vec::with_capacity(3 + 3 * NUM_STACKS);
        let stem = OpInstance::conv(3, INPUT_CHANNELS, STEM_CHANNELS, INPUT_SIZE, INPUT_SIZE);
        units.push(NetworkUnit {
            role: UnitRole::Stem,
            program: CellProgram::single(stem),
            count: 1,
        });

        let mut prev_channels = STEM_CHANNELS;
        for stack in 0..NUM_STACKS {
            let channels = stack_channels(stack);
            let size = stack_size(stack);
            if stack > 0 {
                units.push(NetworkUnit {
                    role: UnitRole::Downsample { stack },
                    program: CellProgram::single(OpInstance::downsample(
                        prev_channels,
                        stack_size(stack - 1),
                        stack_size(stack - 1),
                    )),
                    count: 1,
                });
            }
            if prev_channels != channels {
                // First cell of the stack widens prev_channels -> channels.
                units.push(NetworkUnit {
                    role: UnitRole::WidenCell { stack },
                    program: CellProgram::lower(cell, prev_channels, channels, size, size),
                    count: 1,
                });
                units.push(NetworkUnit {
                    role: UnitRole::Cell { stack },
                    program: CellProgram::lower(cell, channels, channels, size, size),
                    count: CELLS_PER_STACK - 1,
                });
            } else {
                units.push(NetworkUnit {
                    role: UnitRole::Cell { stack },
                    program: CellProgram::lower(cell, channels, channels, size, size),
                    count: CELLS_PER_STACK,
                });
            }
            prev_channels = channels;
        }

        let final_size = stack_size(NUM_STACKS - 1);
        let pool = OpInstance {
            kind: OpKind::GlobalAvgPool,
            in_channels: prev_channels,
            out_channels: prev_channels,
            height: final_size,
            width: final_size,
        };
        let dense = OpInstance {
            kind: OpKind::Dense,
            in_channels: prev_channels,
            out_channels: dataset.num_classes(),
            height: 1,
            width: 1,
        };
        units.push(NetworkUnit {
            role: UnitRole::ClassifierPool,
            program: CellProgram::single(pool),
            count: 1,
        });
        units.push(NetworkUnit {
            role: UnitRole::ClassifierFc,
            program: CellProgram::single(dense),
            count: 1,
        });
        Self { units }
    }

    /// The units, in execution order.
    #[must_use]
    pub fn units(&self) -> &[NetworkUnit] {
        &self.units
    }

    /// Total number of cell instances (stacks × cells per stack).
    #[must_use]
    pub fn num_cell_instances(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.role.is_cell())
            .map(|u| u.count)
            .sum()
    }

    /// Total multiply-accumulates for one inference.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.units
            .iter()
            .map(|u| u.program.macs() * u.count as u64)
            .sum()
    }

    /// Total learnable parameters.
    #[must_use]
    pub fn params(&self) -> u64 {
        self.units
            .iter()
            .map(|u| u.program.params() * u.count as u64)
            .sum()
    }

    /// Every concrete op with its execution count — the rows of the paper's
    /// per-operation latency lookup table and how often each is used.
    #[must_use]
    pub fn op_histogram(&self) -> HashMap<OpInstance, usize> {
        let mut hist = HashMap::new();
        for unit in &self.units {
            for node in unit.program.nodes() {
                *hist.entry(node.op).or_insert(0) += unit.count;
            }
        }
        hist
    }

    /// Number of distinct op signatures in this network.
    #[must_use]
    pub fn unique_op_count(&self) -> usize {
        self.op_histogram().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known_cells;

    #[test]
    fn skeleton_shape() {
        assert_eq!(stack_channels(0), 128);
        assert_eq!(stack_channels(2), 512);
        assert_eq!(stack_size(0), 32);
        assert_eq!(stack_size(2), 8);
    }

    #[test]
    fn network_has_stem_downsamples_and_classifier() {
        let net = Network::assemble(&known_cells::plain_cell(), Dataset::Cifar10);
        let labels: Vec<String> = net.units().iter().map(|u| u.role.to_string()).collect();
        assert_eq!(
            labels,
            [
                "stem",
                "stack0-cell",
                "downsample1",
                "stack1-cell-widen",
                "stack1-cell",
                "downsample2",
                "stack2-cell-widen",
                "stack2-cell",
                "classifier-pool",
                "classifier-fc",
            ]
        );
    }

    #[test]
    fn nine_cells_total() {
        let net = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
        assert_eq!(net.num_cell_instances(), 9);
    }

    #[test]
    fn widen_cells_appear_in_stacks_1_and_2() {
        let net = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
        let widen: Vec<&NetworkUnit> = net
            .units()
            .iter()
            .filter(|u| matches!(u.role, UnitRole::WidenCell { .. }))
            .collect();
        assert_eq!(widen.len(), 2);
        assert!(widen.iter().all(|u| u.count == 1));
    }

    #[test]
    fn macs_scale_with_cell_heaviness() {
        let plain = Network::assemble(&known_cells::plain_cell(), Dataset::Cifar10);
        let resnet = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
        assert!(resnet.macs() > plain.macs());
    }

    #[test]
    fn resnet_network_macs_are_in_expected_range() {
        // Back-of-envelope: each of the 9 cells costs ~2 conv3x3 at constant
        // MAC cost (channels double as spatial halves), ~150M MACs each.
        let net = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
        let gmacs = net.macs() as f64 / 1e9;
        assert!(gmacs > 1.0 && gmacs < 10.0, "got {gmacs} GMACs");
    }

    #[test]
    fn cifar100_only_changes_classifier() {
        let c10 = Network::assemble(&known_cells::plain_cell(), Dataset::Cifar10);
        let c100 = Network::assemble(&known_cells::plain_cell(), Dataset::Cifar100);
        assert_eq!(c10.units().len(), c100.units().len());
        let d10 = c10.units().last().unwrap().program.nodes()[0].op;
        let d100 = c100.units().last().unwrap().program.nodes()[0].op;
        assert_eq!(d10.out_channels, 10);
        assert_eq!(d100.out_channels, 100);
        assert_eq!(d10.in_channels, d100.in_channels);
    }

    #[test]
    fn op_histogram_counts_repeats() {
        let net = Network::assemble(&known_cells::plain_cell(), Dataset::Cifar10);
        let hist = net.op_histogram();
        let total: usize = hist.values().sum();
        // stem + 9 cells' ops + 2 downsamples + pool + fc
        let per_cell_ops = 2; // projection + conv3x3 for the plain cell
        assert_eq!(total, 1 + 9 * per_cell_ops + 2 + 1 + 1);
    }

    #[test]
    fn unique_op_count_is_order_tens_like_the_paper() {
        // The paper reports 85 unique op variations across its CNN space;
        // a single network uses a subset of them.
        let net = Network::assemble(&known_cells::googlenet_cell(), Dataset::Cifar10);
        let unique = net.unique_op_count();
        assert!((10..=85).contains(&unique), "got {unique}");
    }
}
