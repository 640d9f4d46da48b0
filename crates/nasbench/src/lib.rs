//! NASBench-101-style CNN search space with a surrogate accuracy database.
//!
//! This crate is the CNN half of the Codesign-NAS reproduction (DAC 2020,
//! Abdelfattah et al.): the cell search space of Fig. 2, NASBench-101's
//! validation/pruning/canonicalization rules, lowering of cells into concrete
//! operation lists for the FPGA latency model, and a deterministic surrogate
//! standing in for the NASBench accuracy database (see [`surrogate`] for the
//! substitution notes, and the repository's `ARCHITECTURE.md` for where this
//! crate sits in the pipeline).
//!
//! The CNN half is one set of constants: the skeleton's sizes and the
//! surrogate's coefficients are private, and the only choice a caller makes
//! is the [`Dataset`], which picks the classifier's width and the accuracy
//! head.
//!
//! # Quick tour
//!
//! ```
//! use codesign_nasbench::{known_cells, Dataset, NasbenchDatabase, Network};
//!
//! # fn main() -> Result<(), codesign_nasbench::SpecError> {
//! // A cell is a tiny DAG; a network is the cell repeated through Fig. 2's
//! // skeleton, which is fixed but for its classifier: the dataset's classes.
//! let cell = known_cells::resnet_cell();
//! let network = Network::assemble(&cell, Dataset::Cifar10);
//! println!("{} MMACs", network.macs() / 1_000_000);
//!
//! // The database enumerates every cell up to a vertex bound (91 cells at 4;
//! // all 423,624 of NASBench-101's census at 7) and answers accuracy
//! // queries like NASBench-101.
//! let db = NasbenchDatabase::exhaustive(4);
//! let acc = db.query(&cell)?.mean_accuracy(Dataset::Cifar10);
//! assert!(acc > 0.9);
//! # Ok(())
//! # }
//! ```

pub mod byteio;
pub mod canon;
pub mod cell;
pub mod database;
pub mod features;
pub mod graph;
pub mod jsonio;
pub mod known_cells;
pub mod network;
pub mod ops;
pub mod sampler;
pub mod spec;
pub mod surrogate;

mod error;

pub use cell::{CellProgram, OpId, OpInstance, OpKind, ProgramNode, MAX_PROGRAM_NODES};
pub use database::{DbEntry, NasbenchDatabase};
pub use error::SpecError;
pub use features::CellFeatures;
pub use graph::{AdjMatrix, IndexList, MAX_VERTICES};
pub use jsonio::Json;
pub use network::{Network, NetworkUnit, UnitRole};
pub use ops::Op;
pub use sampler::enumerate_cells;
pub use spec::{CellSpec, MAX_EDGES};
pub use surrogate::{Dataset, Evaluation, NUM_SEEDS};
