//! The per-operation latency lookup table, one per process.
//!
//! §II-C2: "The latency model consists of two parts: 1) latency lookup table
//! of operations and 2) scheduler." The paper fills its table once, by
//! running each of the space's 85 op variations on the FPGA. Here one
//! process-wide table has a row per distinct op, indexed by the [`OpId`]
//! lowering assigns, and a row is filled from the [`latency`] model on the
//! op's first use. A row holds the model's terms split by the config fields
//! each term reads, so it serves all 8,640 configurations of
//! [`ConfigSpace::chaidnn`]:
//!
//! - a convolution's compute cycles on its engine, per `(filter_par,
//!   pixel_par, ratio_conv_engines)`: 60 entries;
//! - its memory cycles, per `(input, weight, output buffer depth,
//!   mem_interface_width)`: 72 entries;
//! - a max-pool's latency on the pooling engine, per `(pixel_par,
//!   mem_interface_width)`: 10 entries;
//! - the op's CPU latency, the one entry of an op the accelerator does not
//!   run.
//!
//! A convolution's latency is [`latency::accelerator_ns`] of its two terms,
//! the formula [`latency::op_latency_ns`] uses, so a table entry has the
//! model's bits. A row is a pure function of its op: a racing first fill
//! stores the same bits. Rows sit inline in one zero-initialized static
//! array, so filling one never allocates, and the rows of the 112 ops of
//! the ≤7-vertex space take 117 KiB.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use codesign_nasbench::{OpId, OpInstance, OpKind, ProgramNode};

use crate::config::{AcceleratorConfig, ConfigSpace, NUM_DECISIONS};
use crate::latency::{self, EngineKind};

/// The space whose option values the table indexes.
const SPACE: ConfigSpace = ConfigSpace::chaidnn();

// Config dimensions, in `ConfigSpace` decode order.
const FILTER_PAR: usize = 0;
const PIXEL_PAR: usize = 1;
const INPUT_BUFFER: usize = 2;
const WEIGHT_BUFFER: usize = 3;
const OUTPUT_BUFFER: usize = 4;
const MEM_WIDTH: usize = 5;
const RATIO: usize = 7;

/// The dimensions a convolution's compute term reads.
const COMPUTE_DIMS: [usize; 3] = [FILTER_PAR, PIXEL_PAR, RATIO];
/// The dimensions a convolution's memory term reads.
const MEMORY_DIMS: [usize; 4] = [INPUT_BUFFER, WEIGHT_BUFFER, OUTPUT_BUFFER, MEM_WIDTH];
/// The dimensions the pooling engine's latency reads.
const POOL_DIMS: [usize; 2] = [PIXEL_PAR, MEM_WIDTH];

/// Entries per term: the option counts of its dimensions multiplied.
const COMPUTE_TERMS: usize = 2 * 5 * 6;
const MEMORY_TERMS: usize = 4 * 3 * 3 * 2;
const POOL_TERMS: usize = 5 * 2;

/// Where a convolution's memory cycles start among a row's accelerator
/// entries; its compute cycles start at 0, and so do a max-pool's
/// pooling-engine latencies.
const MEMORY: usize = COMPUTE_TERMS;

/// One op's row, as `f64` bits. A row is a pure function of its op, so
/// threads that find it empty may fill it at the same time: they store the
/// same bits. Every field starts at zero, so the table takes memory only
/// for the rows in use.
#[derive(Debug)]
struct OpRow {
    filled: AtomicBool,
    /// A convolution's compute cycles, then its memory cycles; or a
    /// max-pool's latency on the pooling engine, ns.
    accelerator: [AtomicU64; COMPUTE_TERMS + MEMORY_TERMS],
    /// The op's latency on the CPU, ns.
    cpu: AtomicU64,
}

/// The rows, indexed by op id.
static ROWS: [OpRow; OpId::CAPACITY] = [const { OpRow::empty() }; OpId::CAPACITY];

/// The index of a term's entry: `indices` over `dims`, row-major.
fn term_index(indices: &[usize; NUM_DECISIONS], dims: &[usize]) -> usize {
    let counts = SPACE.option_counts();
    dims.iter()
        .fold(0, |term, &d| term * counts[d] + indices[d])
}

/// A configuration whose `dims` hold `term`'s values (the other
/// dimensions take their first option).
fn term_config(term: usize, dims: &[usize]) -> AcceleratorConfig {
    let counts = SPACE.option_counts();
    let mut indices = [0; NUM_DECISIONS];
    let mut rest = term;
    for &d in dims.iter().rev() {
        indices[d] = rest % counts[d];
        rest /= counts[d];
    }
    SPACE.decode(&indices)
}

impl OpRow {
    const fn empty() -> Self {
        Self {
            filled: AtomicBool::new(false),
            accelerator: [const { AtomicU64::new(0) }; COMPUTE_TERMS + MEMORY_TERMS],
            cpu: AtomicU64::new(0),
        }
    }

    /// Prices `op` with the model at every entry it uses.
    fn fill(&self, op: &OpInstance) {
        let store = |entry: &AtomicU64, value: f64| entry.store(value.to_bits(), Ordering::Relaxed);
        match op.kind {
            OpKind::Conv { .. } => {
                let (compute, memory) = self.accelerator.split_at(MEMORY);
                for (term, entry) in compute.iter().enumerate() {
                    let config = term_config(term, &COMPUTE_DIMS);
                    let engine = latency::primary_engine(op, &config);
                    store(entry, latency::conv_compute_cycles(op, engine, &config));
                }
                for (term, entry) in memory.iter().enumerate() {
                    let config = term_config(term, &MEMORY_DIMS);
                    store(entry, latency::conv_memory_cycles(op, &config));
                }
            }
            OpKind::MaxPool { .. } => {
                for (term, entry) in self.accelerator[..POOL_TERMS].iter().enumerate() {
                    let config = term_config(term, &POOL_DIMS);
                    store(entry, latency::op_latency_ns(op, EngineKind::Pool, &config));
                }
            }
            OpKind::GlobalAvgPool | OpKind::Dense | OpKind::Add { .. } | OpKind::Concat { .. } => {}
        }
        store(&self.cpu, latency::cpu_ns(op));
        self.filled.store(true, Ordering::Release);
    }

    fn accelerator(&self, entry: usize) -> f64 {
        f64::from_bits(self.accelerator[entry].load(Ordering::Relaxed))
    }

    fn cpu(&self) -> f64 {
        f64::from_bits(self.cpu.load(Ordering::Relaxed))
    }
}

/// `node`'s row, filled on its op's first use.
fn row(node: &ProgramNode) -> &'static OpRow {
    let row = &ROWS[node.id.index()];
    if !row.filled.load(Ordering::Acquire) {
        row.fill(&node.op);
    }
    row
}

/// Where one configuration's entries sit in every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConfigTerms {
    compute: usize,
    memory: usize,
    pool: usize,
}

impl ConfigTerms {
    /// The entries of `config`, or `None` when the table does not hold
    /// them: it serves the option values of [`ConfigSpace::chaidnn`] only.
    pub(crate) fn of(config: &AcceleratorConfig) -> Option<Self> {
        let indices = SPACE.try_encode(config)?;
        Some(Self {
            compute: term_index(&indices, &COMPUTE_DIMS),
            memory: MEMORY + term_index(&indices, &MEMORY_DIMS),
            pool: term_index(&indices, &POOL_DIMS),
        })
    }

    /// Latency of `node`'s op on `engine`, the config's primary engine for
    /// it, ns.
    pub(crate) fn op_latency_ns(self, node: &ProgramNode, engine: EngineKind) -> f64 {
        let row = row(node);
        match engine {
            EngineKind::GeneralConv | EngineKind::Conv3x3 | EngineKind::Conv1x1 => {
                let (compute, memory) =
                    (row.accelerator(self.compute), row.accelerator(self.memory));
                latency::accelerator_ns(compute, memory)
            }
            EngineKind::Pool => row.accelerator(self.pool),
            EngineKind::Cpu => row.cpu(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_nasbench::{known_cells, Dataset, Network};

    #[test]
    fn term_sizes_follow_the_space() {
        let counts = SPACE.option_counts();
        let terms = |dims: &[usize]| dims.iter().map(|&d| counts[d]).product::<usize>();
        assert_eq!(terms(&COMPUTE_DIMS), COMPUTE_TERMS);
        assert_eq!(terms(&MEMORY_DIMS), MEMORY_TERMS);
        assert_eq!(terms(&POOL_DIMS), POOL_TERMS);
        // The rows of the 112 ops of the ≤7-vertex space stay in L2.
        assert!(112 * std::mem::size_of::<OpRow>() <= 118 * 1024);
        // Each term's configs round-trip to their own index.
        for (dims, len) in [
            (&COMPUTE_DIMS[..], COMPUTE_TERMS),
            (&MEMORY_DIMS[..], MEMORY_TERMS),
            (&POOL_DIMS[..], POOL_TERMS),
        ] {
            for term in 0..len {
                let indices = SPACE.encode(&term_config(term, dims));
                assert_eq!(term_index(&indices, dims), term);
            }
        }
    }

    #[test]
    fn every_entry_has_the_model_bits() {
        let network = Network::assemble(&known_cells::cod2_cell(), Dataset::Cifar10);
        for config in SPACE.iter().step_by(7) {
            let terms = ConfigTerms::of(&config).expect("in the space");
            for unit in network.units() {
                for node in unit.program.nodes() {
                    let engine = latency::primary_engine(&node.op, &config);
                    let direct = latency::op_latency_ns(&node.op, engine, &config);
                    let table = terms.op_latency_ns(node, engine);
                    assert_eq!(
                        table.to_bits(),
                        direct.to_bits(),
                        "{:?} at {config}",
                        node.op
                    );
                }
            }
        }
    }

    #[test]
    fn lut_grows_only_with_unique_signatures() {
        let conv = OpInstance::conv(3, 64, 64, 16, 16);
        let node = ProgramNode::new(conv, Default::default());
        let first: *const OpRow = row(&node);
        for _ in 0..10 {
            let again = ProgramNode::new(conv, Default::default());
            assert_eq!(again.id, node.id);
            assert!(std::ptr::eq(row(&again), first));
        }
        let other = ProgramNode::new(OpInstance::conv(1, 64, 64, 16, 16), Default::default());
        assert!(!std::ptr::eq(row(&other), first));
    }

    #[test]
    fn network_materializes_tens_of_entries_like_the_paper() {
        let net = Network::assemble(&known_cells::googlenet_cell(), Dataset::Cifar10);
        let mut rows: Vec<OpId> = net
            .units()
            .iter()
            .flat_map(|unit| unit.program.nodes().iter().map(|node| node.id))
            .collect();
        rows.sort_by_key(|id| id.index());
        rows.dedup();
        assert!(
            (10..=85).contains(&rows.len()),
            "one network should use tens of unique ops, got {}",
            rows.len()
        );
    }
}
