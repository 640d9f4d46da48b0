//! Codesign-NAS: joint CNN/accelerator search (DAC 2020 reproduction).
//!
//! This crate assembles the substrates — the NASBench-style CNN space
//! (`codesign_nasbench`), the CHaiDNN-style accelerator models
//! (`codesign_accel`), the multi-objective machinery (`codesign_moo`) and the
//! REINFORCE controller (`codesign_rl`) — into the system of Fig. 1:
//! a controller proposes `(CNN, accelerator)` pairs, an evaluator scores
//! accuracy/latency/area, and a multi-objective reward steers the controller.
//!
//! The paper's experiments map to modules:
//!
//! * [`enumerate`] — exhaustive space enumeration + Pareto front (Fig. 4)
//!   and the Fig. 5 reference set of the strategy comparison;
//! * [`cifar100`] — the threshold-schedule CIFAR-100 flow (§IV, Fig. 7);
//! * [`baselines`] — ResNet/GoogLeNet on their best accelerators (Table II).
//!
//! Beyond the paper: [`scenarios`] opens the reward space to arbitrary
//! named-metric declarations, and two population strategies extend the RL
//! controllers — [`evolution`] (aging evolution) and [`nsga`] (NSGA-II
//! true multi-objective selection over the scenario's own Pareto front).
//!
//! # Examples
//!
//! Run a short combined search on a small, fully-enumerable space:
//!
//! ```
//! use codesign_core::{
//!     CodesignSpace, CombinedSearch, Evaluator, ScenarioSpec, SearchConfig,
//!     SearchContext, SearchStrategy,
//! };
//! use codesign_nasbench::NasbenchDatabase;
//!
//! let space = CodesignSpace::with_max_vertices(4);
//! let mut evaluator = Evaluator::with_database(NasbenchDatabase::exhaustive(4));
//! let reward = ScenarioSpec::unconstrained().compile();
//! let mut ctx = SearchContext {
//!     space: &space,
//!     evaluator: &mut evaluator,
//!     reward: &reward,
//! };
//! let outcome = CombinedSearch.run(&mut ctx, &SearchConfig::quick(100, 0));
//! assert!(outcome.best.is_some());
//! ```

pub mod baselines;
pub mod cifar100;
pub mod enumerate;
pub mod evaluator;
pub mod evolution;
pub mod nsga;
pub mod report;
pub mod scenarios;
pub mod search;
pub mod space;
pub mod strategies;
pub mod surrogate;

pub use baselines::{baseline_row, table2_baselines, BaselineRow};
pub use cifar100::{
    run_cifar100_codesign, run_cifar100_codesign_with_evaluator, Cifar100Config, Cifar100Result,
    DiscoveredPoint, StageResult, ThresholdSchedule,
};
pub use enumerate::{enumerate_scenario_front, probe_pair_evaluations, top_pareto_points};
pub use evaluator::{
    mix64, EvalCache, EvalOutcome, Evaluator, PairEvaluation, PairKey, PairKeyHasher, PairKeyMap,
};
pub use evolution::EvolutionSearch;
pub use nsga::NsgaSearch;
pub use scenarios::{
    check_unique_names, scenarios_from_document, scenarios_to_document, CompiledScenario, MetricId,
    ObjectiveSpec, ScenarioError, ScenarioSpec, ScenarioSpecBuilder, SCENARIO_FORMAT,
    SCENARIO_VERSION,
};
pub use search::{
    reward_curve, BestPoint, GenerationStat, RewardShaping, SearchConfig, SearchContext,
    SearchOutcome, SearchRecorder, SearchStrategy, StepRecord, INVALID_PROPOSAL_REWARD,
};
pub use space::{CnnSpace, CodesignSpace, HwSpace, Proposal};
pub use strategies::{CombinedSearch, PhaseSearch, RandomSearch, SeparateSearch};
pub use surrogate::{
    cell_feature_vec, config_feature_vec, features_with_config, pair_features, surrogate_targets,
    LabeledSample, SurrogateConfig, SurrogateGuide, SurrogateStats, CELL_FEATURE_DIM, FEATURE_DIM,
    HW_FEATURE_DIM, TARGET_DIM,
};
