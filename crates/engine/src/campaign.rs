//! Campaign specifications: the grid of runs a driver executes, in grid
//! order.

use std::sync::Arc;

use codesign_core::{
    probe_pair_evaluations, CodesignSpace, CombinedSearch, CompiledScenario, EvolutionSearch,
    NsgaSearch, PhaseSearch, RandomSearch, RewardShaping, ScenarioError, ScenarioSpec,
    SearchConfig, SearchStrategy, SeparateSearch, SurrogateConfig,
};
use codesign_nasbench::NasbenchDatabase;

use crate::mix64;

/// A search strategy by name — the unit of the campaign grid's strategy
/// axis. `build` instantiates the concrete strategy with the paper's
/// phase/split ratios scaled to the shard's step budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// One controller over the joint space (§III-B1).
    Combined,
    /// Interleaved CNN/HW phases (§III-B2).
    Phase,
    /// Sequential CNN-then-HW baseline (§III-B3).
    Separate,
    /// Uniform random sampling (controller ablation).
    Random,
    /// Regularized (aging) evolution over the joint genome (extension).
    Evolution,
    /// NSGA-II-style true multi-objective selection over the scenario's
    /// own axes (extension): the one strategy that optimizes the Pareto
    /// front directly instead of a scalarized reward.
    Nsga {
        /// Living individuals per generation (also the per-generation
        /// offspring count).
        population: usize,
    },
}

impl StrategyKind {
    /// The paper's three strategies plus the random ablation, in the order
    /// used throughout the figures.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Separate,
        StrategyKind::Combined,
        StrategyKind::Phase,
        StrategyKind::Random,
    ];

    /// The default NSGA-II population when none is chosen explicitly
    /// (what [`StrategyKind::from_name`] resolves `"nsga"` to) — the same
    /// value a bare [`NsgaSearch::default`] runs with.
    pub const DEFAULT_NSGA_POPULATION: usize = NsgaSearch::DEFAULT_POPULATION;

    /// Display name (matches [`SearchStrategy::name`] of the built strategy).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Combined => "combined",
            StrategyKind::Phase => "phase",
            StrategyKind::Separate => "separate",
            StrategyKind::Random => "random",
            StrategyKind::Evolution => "evolution",
            StrategyKind::Nsga { .. } => "nsga",
        }
    }

    /// Parses a display name back into a kind (`"nsga"` resolves with
    /// [`StrategyKind::DEFAULT_NSGA_POPULATION`]).
    ///
    /// `"reinforce"` is accepted as an alias for the combined REINFORCE
    /// controller over the joint space — the paper's headline RL strategy —
    /// so shaped-reward invocations read naturally
    /// (`--strategies reinforce --reward-shaping hv:0.5`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "combined" | "reinforce" => Some(StrategyKind::Combined),
            "phase" => Some(StrategyKind::Phase),
            "separate" => Some(StrategyKind::Separate),
            "random" => Some(StrategyKind::Random),
            "evolution" => Some(StrategyKind::Evolution),
            "nsga" => Some(StrategyKind::Nsga {
                population: Self::DEFAULT_NSGA_POPULATION,
            }),
            _ => None,
        }
    }

    /// Instantiates the strategy for a run of `total_steps` steps.
    ///
    /// `surrogate` enables predict-then-verify guidance on the strategies
    /// that support it (evolution and NSGA-II); the RL and random
    /// strategies ignore it — their proposal distributions are the
    /// controller itself, so there is no over-produced candidate pool to
    /// rank.
    #[must_use]
    pub fn build(
        &self,
        total_steps: usize,
        surrogate: Option<SurrogateConfig>,
    ) -> Box<dyn SearchStrategy> {
        match self {
            StrategyKind::Combined => Box::new(CombinedSearch),
            StrategyKind::Phase => Box::new(PhaseSearch::scaled(total_steps)),
            StrategyKind::Separate => Box::new(SeparateSearch::scaled(total_steps)),
            StrategyKind::Random => Box::new(RandomSearch),
            StrategyKind::Evolution => Box::new(EvolutionSearch { surrogate }),
            StrategyKind::Nsga { population } => Box::new(NsgaSearch {
                population: *population,
                surrogate,
            }),
        }
    }
}

/// One cell of the campaign grid: a single search run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Position in the campaign's shard order (stable across worker counts).
    pub index: usize,
    /// The compiled scenario whose reward the run optimizes (shared by
    /// every shard of the same scenario — an `Arc` clone, not a recompile).
    pub scenario: Arc<CompiledScenario>,
    /// The strategy to run.
    pub strategy: StrategyKind,
    /// The user-facing repeat seed (the seed axis of the grid).
    pub seed: u64,
    /// The step budget of the run.
    pub steps: usize,
    /// The derived, decorrelated seed of this shard's private RNG stream.
    pub rng_seed: u64,
    /// Surrogate predict-then-verify guidance, from the campaign
    /// ([`Campaign::with_surrogate`]); `None` runs unguided.
    pub surrogate: Option<SurrogateConfig>,
}

impl ShardSpec {
    /// The scenario's display name.
    #[must_use]
    pub fn scenario_name(&self) -> &str {
        self.scenario.name()
    }

    /// The [`SearchConfig`] this shard runs under.
    #[must_use]
    pub fn search_config(&self, base: &SearchConfig) -> SearchConfig {
        SearchConfig {
            steps: self.steps,
            seed: self.rng_seed,
            ..*base
        }
    }
}

/// A campaign: the full grid of scenarios × strategies × seeds over one
/// decision space, every shard running the same step budget.
///
/// # Examples
///
/// ```
/// use codesign_engine::{Campaign, StrategyKind};
/// use codesign_core::{CodesignSpace, ScenarioSpec};
///
/// let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
///     .scenarios(vec![
///         ScenarioSpec::unconstrained(),
///         ScenarioSpec::one_constraint(),
///     ])
///     .strategies(StrategyKind::ALL.to_vec())
///     .seeds(vec![0, 1, 2])
///     .steps(100);
/// assert_eq!(campaign.shards().len(), 2 * 4 * 3);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The joint decision space every shard searches.
    pub space: CodesignSpace,
    /// The scenario axis — any declarative [`ScenarioSpec`]s, not just the
    /// paper presets.
    pub scenarios: Vec<ScenarioSpec>,
    /// The strategy axis.
    pub strategies: Vec<StrategyKind>,
    /// The repeat-seed axis.
    pub seeds: Vec<u64>,
    /// The step budget of every shard.
    pub steps: usize,
    /// Controller hyperparameters shared by every shard (`steps` and `seed`
    /// are overridden per shard).
    pub base_config: SearchConfig,
    /// Whether shards retain their full per-step reward histories in the
    /// report (off by default — campaigns run thousands of shards, and a
    /// history is `steps` records per shard). Fig. 6's reward curves need
    /// it on.
    pub record_histories: bool,
    /// Reward shaping applied by every shard's recorder (off by default).
    /// Shaping changes the scalar fed back to the controller — it is part
    /// of the experiment definition, so it rides on the campaign rather
    /// than the serialized [`ScenarioSpec`]s.
    pub reward_shaping: RewardShaping,
    /// Surrogate predict-then-verify guidance applied to every shard whose
    /// strategy supports it (off by default). Like shaping, guidance is
    /// part of the experiment definition and rides on the campaign.
    pub surrogate: Option<SurrogateConfig>,
}

impl Campaign {
    /// Enumeration samples probed to range auto normalizations
    /// ([`Campaign::with_auto_norms`]).
    pub const NORM_PROBE_SAMPLES: usize = 256;

    /// Padding of each probe-measured normalization range, as a fraction of
    /// it, so the probe's extremes do not saturate at exactly 0 or 1.
    pub const NORM_PROBE_PAD: f64 = 0.05;

    /// A campaign over `space` with the paper's defaults: the three §III-C
    /// preset scenarios, all four strategies, one seed, 1000 steps.
    #[must_use]
    pub fn new(space: CodesignSpace) -> Self {
        Self {
            space,
            scenarios: ScenarioSpec::paper_presets(),
            strategies: StrategyKind::ALL.to_vec(),
            seeds: vec![0],
            steps: 1000,
            base_config: SearchConfig::default(),
            record_histories: false,
            reward_shaping: RewardShaping::None,
            surrogate: None,
        }
    }

    /// Replaces the scenario axis.
    #[must_use]
    pub fn scenarios(mut self, scenarios: Vec<ScenarioSpec>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Replaces the strategy axis.
    #[must_use]
    pub fn strategies(mut self, strategies: Vec<StrategyKind>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Replaces the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the step budget of every shard.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Retains each shard's full per-step history in the report, so reward
    /// curves (Fig. 6) can be computed from a campaign run. Costs
    /// `O(steps)` memory per shard — leave off for large sweeps.
    #[must_use]
    pub fn record_histories(mut self, record: bool) -> Self {
        self.record_histories = record;
        self
    }

    /// Applies [`RewardShaping`] to every shard: with
    /// `RewardShaping::HypervolumeGradient`, each step's reward gains
    /// `weight × ΔHV`, the point's marginal hypervolume contribution to
    /// the shard's running Pareto front. The shaped scalar is a pure
    /// function of the step sequence, so shaped campaigns stay
    /// bit-identical across worker counts.
    #[must_use]
    pub fn with_reward_shaping(mut self, shaping: RewardShaping) -> Self {
        self.reward_shaping = shaping;
        self
    }

    /// Applies surrogate predict-then-verify guidance to every shard whose
    /// strategy supports it (evolution and NSGA-II): each generation
    /// over-produces `overproduce × λ` candidates, ranks them by a
    /// cache-trained predictor, and spends real evaluations only on the
    /// top λ. Each shard trains its own guide from the warm (persisted)
    /// cache entries plus its own evaluation stream — never from live
    /// concurrent inserts — so guided campaigns stay bit-identical across
    /// worker counts. `None` (the default) is bit-identical to the
    /// unguided campaign.
    #[must_use]
    pub fn with_surrogate(mut self, surrogate: Option<SurrogateConfig>) -> Self {
        self.surrogate = surrogate;
        self
    }

    /// `true` when any scenario declares an auto-ranged normalization that
    /// still needs a probe sample ([`Campaign::with_auto_norms`]).
    #[must_use]
    pub fn needs_auto_norms(&self) -> bool {
        self.scenarios.iter().any(ScenarioSpec::has_auto_norms)
    }

    /// Resolves every scenario's auto-ranged normalizations from a
    /// deterministic enumeration probe of `database`
    /// ([`Campaign::NORM_PROBE_SAMPLES`] pairs, see
    /// [`codesign_core::probe_pair_evaluations`]), padding each measured
    /// range by [`Campaign::NORM_PROBE_PAD`] (see
    /// [`ScenarioSpec::resolve_auto_norms`]). Without auto norms the
    /// campaign is returned unchanged and nothing is probed.
    ///
    /// # Errors
    ///
    /// Returns the first scenario's [`ScenarioError`] when a probe range
    /// is degenerate (fewer than two distinct finite values observed).
    pub fn with_auto_norms(mut self, database: &NasbenchDatabase) -> Result<Self, ScenarioError> {
        if !self.needs_auto_norms() {
            return Ok(self);
        }
        let probe = probe_pair_evaluations(database, Self::NORM_PROBE_SAMPLES);
        self.scenarios = self
            .scenarios
            .iter()
            .map(|s| s.resolve_auto_norms(&probe, Self::NORM_PROBE_PAD))
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// The grid flattened into shard specifications, scenario-major then
    /// strategy and seed — the order the driver dispatches them in. The
    /// order — and every `rng_seed` — is a pure function of the campaign,
    /// independent of workers or timing.
    ///
    /// Each scenario is compiled once and shared across its shards by
    /// [`Arc`].
    #[must_use]
    pub fn shards(&self) -> Vec<ShardSpec> {
        let compiled: Vec<Arc<CompiledScenario>> = self
            .scenarios
            .iter()
            .map(|s| Arc::new(s.compile().with_reward_shaping(self.reward_shaping)))
            .collect();
        let mut shards =
            Vec::with_capacity(self.scenarios.len() * self.strategies.len() * self.seeds.len());
        for (si, scenario) in compiled.iter().enumerate() {
            for (ti, &strategy) in self.strategies.iter().enumerate() {
                for &seed in &self.seeds {
                    // Decorrelate neighboring grid cells: the stream seed
                    // depends on every axis, not on the flat index, so
                    // adding a scenario doesn't reshuffle existing shards.
                    let rng_seed = mix64(seed ^ mix64((si as u64) << 40 | (ti as u64) << 20));
                    shards.push(ShardSpec {
                        index: shards.len(),
                        scenario: Arc::clone(scenario),
                        strategy,
                        seed,
                        steps: self.steps,
                        rng_seed,
                        surrogate: self.surrogate,
                    });
                }
            }
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_full_product() {
        let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
            .seeds(vec![7, 8])
            .steps(50);
        assert_eq!(campaign.scenarios, ScenarioSpec::paper_presets());
        let shards = campaign.shards();
        assert_eq!(shards.len(), 3 * 4 * 2);
        assert!(shards.iter().enumerate().all(|(i, s)| s.index == i));
        assert!(shards.iter().all(|s| s.steps == 50));
        // Every grid cell appears exactly once.
        let mut keys: Vec<(String, &str, u64)> = shards
            .iter()
            .map(|s| (s.scenario_name().to_owned(), s.strategy.name(), s.seed))
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn rng_seeds_are_decorrelated_and_stable() {
        let campaign = Campaign::new(CodesignSpace::with_max_vertices(4)).seeds(vec![0, 1, 2]);
        let a = campaign.shards();
        let b = campaign.shards();
        assert_eq!(a, b, "shard derivation must be pure");
        let mut seeds: Vec<u64> = a.iter().map(|s| s.rng_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "every shard needs its own stream");
    }

    #[test]
    fn compiled_scenarios_are_shared_by_refcount() {
        let campaign = Campaign::new(CodesignSpace::with_max_vertices(4)).seeds(vec![0, 1, 2, 3]);
        let shards = campaign.shards();
        let first = &shards[0].scenario;
        let same_scenario = shards
            .iter()
            .filter(|s| Arc::ptr_eq(&s.scenario, first))
            .count();
        // 4 strategies x 4 seeds share the first compiled scenario.
        assert_eq!(same_scenario, 16);
    }

    #[test]
    fn strategy_kinds_roundtrip_names() {
        for kind in StrategyKind::ALL.into_iter().chain([
            StrategyKind::Evolution,
            StrategyKind::Nsga {
                population: StrategyKind::DEFAULT_NSGA_POPULATION,
            },
        ]) {
            assert_eq!(StrategyKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build(1000, None).name(), kind.name());
        }
        assert_eq!(StrategyKind::from_name("bogus"), None);
    }

    #[test]
    fn shard_config_overrides_steps_and_seed_only() {
        let campaign = Campaign::new(CodesignSpace::with_max_vertices(4)).steps(123);
        let base = SearchConfig {
            learning_rate: 0.5,
            ..SearchConfig::default()
        };
        let shard = campaign.shards()[0].clone();
        let config = shard.search_config(&base);
        assert_eq!(config.steps, 123);
        assert_eq!(config.seed, shard.rng_seed);
        assert_eq!(config.learning_rate, 0.5);
    }
}
