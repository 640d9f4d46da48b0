//! Codesign-NAS — AutoML codesign of a CNN and its hardware accelerator.
//!
//! A comprehensive Rust reproduction of *"Best of Both Worlds: AutoML
//! Codesign of a CNN and its Hardware Accelerator"* (Abdelfattah, Dudziak,
//! Chau, Lee, Kim, Lane — DAC 2020). This facade crate re-exports the
//! library crates of the workspace:
//!
//! * [`nasbench`] — the NASBench-101-style CNN cell space and surrogate
//!   accuracy database,
//! * [`accel`] — the CHaiDNN-style FPGA accelerator space with analytical
//!   area/latency models,
//! * [`moo`] — runtime-dimension Pareto fronts with named axes,
//!   ε-constraint + weighted-sum rewards, hypervolume, and the NSGA-II
//!   selection primitives,
//! * [`rl`] — the from-scratch REINFORCE LSTM controller,
//! * [`core`] — the joint search space, evaluator, declarative scenarios
//!   ([`core::ScenarioSpec`]), strategies (including the NSGA-II
//!   multi-objective searcher) and the paper's experiments,
//! * [`engine`] — the parallel, sharded campaign engine with a shared
//!   evaluation cache (see `examples/campaign_sweep.rs`).
//!
//! See `README.md` for a tour and `ARCHITECTURE.md` for the crate-by-crate
//! map, the lifecycle of one campaign, and the contributor guide.
//!
//! # Examples
//!
//! The full Fig. 1 loop in a few lines — propose, evaluate, reward, learn:
//!
//! ```
//! use codesign_nas::core::{
//!     CodesignSpace, CombinedSearch, Evaluator, ScenarioSpec, SearchConfig,
//!     SearchContext, SearchStrategy,
//! };
//! use codesign_nas::nasbench::NasbenchDatabase;
//!
//! let space = CodesignSpace::with_max_vertices(4);
//! let mut evaluator = Evaluator::with_database(NasbenchDatabase::exhaustive(4));
//! let reward = ScenarioSpec::unconstrained().compile();
//! let mut ctx = SearchContext {
//!     space: &space,
//!     evaluator: &mut evaluator,
//!     reward: &reward,
//! };
//! let outcome = CombinedSearch.run(&mut ctx, &SearchConfig::quick(200, 0));
//! let best = outcome.best.expect("found a feasible pair");
//! println!(
//!     "best pair: {:.1} ms / {:.1}% / {:.0} mm2",
//!     best.evaluation.latency_ms,
//!     best.evaluation.accuracy * 100.0,
//!     best.evaluation.area_mm2,
//! );
//! ```

pub use codesign_accel as accel;
pub use codesign_core as core;
pub use codesign_engine as engine;
pub use codesign_moo as moo;
pub use codesign_nasbench as nasbench;
pub use codesign_rl as rl;
pub use codesign_telemetry as telemetry;
