//! CHaiDNN-style FPGA accelerator design space with analytical area and
//! latency models.
//!
//! This crate is the hardware half of the Codesign-NAS reproduction (DAC
//! 2020, Abdelfattah et al.): the 8,640-point configurable accelerator of
//! Fig. 3, the component-level area model of §II-C1 (Table I silicon-area
//! conversion included), and the §II-C2 latency model — a per-op lookup table
//! fed by an analytical engine model plus a greedy multi-engine scheduler.
//!
//! Modules:
//!
//! - [`config`]: the accelerator parameters and the 8,640-point space;
//! - [`device`] and [`area`]: the Zynq UltraScale+ device and the area model;
//! - [`latency`] and [`scheduler`]: per-op latencies and the one
//!   network-latency entry, [`Scheduler::network_latency_ms`]. The
//!   scheduler reads op latencies from one process-wide lookup table with a
//!   row per distinct op (keyed by the `OpId` lowering assigns), filled
//!   from [`latency::op_latency_ns`]'s terms on the op's first use;
//! - [`power`]: the peak-power extension;
//! - [`validation`]: the §II-C validation against a synthetic reference.
//!
//! The accelerator half is one set of constants: Fig. 3's option lists, the
//! Table I device ([`DEVICE`]) and the models' parameters, so every model is
//! a free function of the config (and the op). Pairing a network with its
//! best accelerator (Table II) and scoring pairs for search is the
//! evaluator's job, in `codesign-core`.
//!
//! # Quick tour
//!
//! ```
//! use codesign_accel::{area, power, ConfigSpace, Scheduler};
//! use codesign_nasbench::{known_cells, Dataset, Network};
//!
//! let space = ConfigSpace::chaidnn();
//! assert_eq!(space.len(), 8640);
//!
//! // Evaluate one model-accelerator pair.
//! let network = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
//! let config = space.get(8639);
//! let area = area::area_mm2(&config);
//! let latency = Scheduler::new(config).network_latency_ms(&network);
//! let watts = power::peak_power(&config).total_w();
//! assert!(area > 0.0 && latency > 0.0 && watts > 0.0);
//! ```

pub mod area;
pub mod config;
pub mod device;
pub mod latency;
mod lut;
pub mod power;
pub mod scheduler;
pub mod validation;

pub use area::AreaBreakdown;
pub use config::{AcceleratorConfig, ConfigSpace, ConvEngineRatio, NUM_DECISIONS};
pub use device::{FpgaDevice, ResourceUsage, DEVICE};
pub use latency::EngineKind;
pub use power::PowerEstimate;
pub use scheduler::{schedule_serial, Scheduler};
pub use validation::{validate_area_model, validate_latency_model, ValidationReport};
