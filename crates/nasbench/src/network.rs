//! Assembly of the full CNN from a cell (Fig. 2 of the paper).
//!
//! The NASBench skeleton is: a 3×3 convolution stem, three stacks of three
//! cells each, a 2×2 stride-2 max-pool downsample between stacks (halving the
//! spatial size and doubling the channel count), then global average pooling
//! and a fully-connected classifier. Because every cell instance in a network
//! depends serially on its predecessor, the network is represented as a list
//! of [`NetworkUnit`]s with repeat counts: the accelerator scheduler needs to
//! schedule each *distinct* cell parameterization only once. Assembly
//! allocates one `Vec` for the units and one per unit's program.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{CellProgram, OpInstance, OpKind};
use crate::CellSpec;

/// Skeleton hyper-parameters (defaults follow NASBench-101 / the paper).
///
/// # Examples
///
/// ```
/// use codesign_nasbench::NetworkConfig;
///
/// let cifar10 = NetworkConfig::default();
/// assert_eq!(cifar10.num_classes, 10);
/// let cifar100 = NetworkConfig::cifar100();
/// assert_eq!(cifar100.num_classes, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Input image channels (3 for CIFAR).
    pub input_channels: usize,
    /// Input spatial size (32 for CIFAR).
    pub input_size: usize,
    /// Channels produced by the stem convolution.
    pub stem_channels: usize,
    /// Number of cell stacks.
    pub num_stacks: usize,
    /// Cells per stack.
    pub cells_per_stack: usize,
    /// Classifier output classes.
    pub num_classes: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            input_channels: 3,
            input_size: 32,
            stem_channels: 128,
            num_stacks: 3,
            cells_per_stack: 3,
            num_classes: 10,
        }
    }
}

impl NetworkConfig {
    /// The CIFAR-100 configuration of §IV (same skeleton, 100-way classifier).
    #[must_use]
    pub fn cifar100() -> Self {
        Self {
            num_classes: 100,
            ..Self::default()
        }
    }

    /// Channel count of stack `i` (doubles per stack).
    #[must_use]
    pub fn stack_channels(&self, stack: usize) -> usize {
        self.stem_channels << stack
    }

    /// Spatial size of stack `i` (halves per stack).
    #[must_use]
    pub fn stack_size(&self, stack: usize) -> usize {
        self.input_size >> stack
    }
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
/// use codesign_nasbench::{known_cells, Network, NetworkConfig};
///
/// let net = Network::assemble(&known_cells::resnet_cell(), &NetworkConfig::default());
/// assert!(net.macs() > 1_000_000);
/// assert_eq!(net.num_cell_instances(), 9); // 3 stacks x 3 cells
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    units: Vec<NetworkUnit>,
    config: NetworkConfig,
}

impl Network {
    /// Lowers `cell` into the full skeleton described by `config`.
    #[must_use]
    pub fn assemble(cell: &CellSpec, config: &NetworkConfig) -> Self {
        // The stem, the classifier's two units, and per stack at most a
        // downsample and two cell units.
        let mut units = Vec::with_capacity(3 + 3 * config.num_stacks);
        let stem = OpInstance::conv(
            3,
            config.input_channels,
            config.stem_channels,
            config.input_size,
            config.input_size,
        );
        units.push(NetworkUnit {
            role: UnitRole::Stem,
            program: CellProgram::single(stem),
            count: 1,
        });

        let mut prev_channels = config.stem_channels;
        for stack in 0..config.num_stacks {
            let channels = config.stack_channels(stack);
            let size = config.stack_size(stack);
            if stack > 0 {
                units.push(NetworkUnit {
                    role: UnitRole::Downsample { stack },
                    program: CellProgram::single(OpInstance::downsample(
                        prev_channels,
                        config.stack_size(stack - 1),
                        config.stack_size(stack - 1),
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
                if config.cells_per_stack > 1 {
                    units.push(NetworkUnit {
                        role: UnitRole::Cell { stack },
                        program: CellProgram::lower(cell, channels, channels, size, size),
                        count: config.cells_per_stack - 1,
                    });
                }
            } else {
                units.push(NetworkUnit {
                    role: UnitRole::Cell { stack },
                    program: CellProgram::lower(cell, channels, channels, size, size),
                    count: config.cells_per_stack,
                });
            }
            prev_channels = channels;
        }

        let final_size = config.stack_size(config.num_stacks - 1);
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
            out_channels: config.num_classes,
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
        Self {
            units,
            config: *config,
        }
    }

    /// The skeleton configuration this network was assembled with.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
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
    fn default_skeleton_shape() {
        let cfg = NetworkConfig::default();
        assert_eq!(cfg.stack_channels(0), 128);
        assert_eq!(cfg.stack_channels(2), 512);
        assert_eq!(cfg.stack_size(0), 32);
        assert_eq!(cfg.stack_size(2), 8);
    }

    #[test]
    fn network_has_stem_downsamples_and_classifier() {
        let net = Network::assemble(&known_cells::plain_cell(), &NetworkConfig::default());
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
        let net = Network::assemble(&known_cells::resnet_cell(), &NetworkConfig::default());
        assert_eq!(net.num_cell_instances(), 9);
    }

    #[test]
    fn widen_cells_appear_in_stacks_1_and_2() {
        let net = Network::assemble(&known_cells::resnet_cell(), &NetworkConfig::default());
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
        let cfg = NetworkConfig::default();
        let plain = Network::assemble(&known_cells::plain_cell(), &cfg);
        let resnet = Network::assemble(&known_cells::resnet_cell(), &cfg);
        assert!(resnet.macs() > plain.macs());
    }

    #[test]
    fn resnet_network_macs_are_in_expected_range() {
        // Back-of-envelope: each of the 9 cells costs ~2 conv3x3 at constant
        // MAC cost (channels double as spatial halves), ~150M MACs each.
        let net = Network::assemble(&known_cells::resnet_cell(), &NetworkConfig::default());
        let gmacs = net.macs() as f64 / 1e9;
        assert!(gmacs > 1.0 && gmacs < 10.0, "got {gmacs} GMACs");
    }

    #[test]
    fn cifar100_only_changes_classifier() {
        let c10 = Network::assemble(&known_cells::plain_cell(), &NetworkConfig::default());
        let c100 = Network::assemble(&known_cells::plain_cell(), &NetworkConfig::cifar100());
        assert_eq!(c10.units().len(), c100.units().len());
        let d10 = c10.units().last().unwrap().program.nodes()[0].op;
        let d100 = c100.units().last().unwrap().program.nodes()[0].op;
        assert_eq!(d10.out_channels, 10);
        assert_eq!(d100.out_channels, 100);
        assert_eq!(d10.in_channels, d100.in_channels);
    }

    #[test]
    fn op_histogram_counts_repeats() {
        let net = Network::assemble(&known_cells::plain_cell(), &NetworkConfig::default());
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
        let net = Network::assemble(&known_cells::googlenet_cell(), &NetworkConfig::default());
        let unique = net.unique_op_count();
        assert!((10..=85).contains(&unique), "got {unique}");
    }
}
