//! The search driver: bookkeeping shared by every strategy.
//!
//! A strategy proposes action sequences; the driver decodes them, evaluates
//! them, applies the reward of Eq. 3 (or the punishment `Rv` for infeasible
//! and invalid proposals), and keeps the running best point, the Pareto
//! front of everything visited (Eq. 2's `argmax over τ(T)` generalized to
//! three objectives), and the per-step reward history behind Fig. 6.

use codesign_accel::AcceleratorConfig;
use codesign_moo::DynParetoFront;
use codesign_nasbench::CellSpec;

use crate::evaluator::{EvalOutcome, Evaluator, PairEvaluation};
use crate::scenarios::CompiledScenario;
use crate::space::CodesignSpace;

/// Reward fed to the controller for structurally-invalid or unknown CNNs.
///
/// The paper punishes constraint violations with `Rv` "with opposite sign to
/// the reward"; proposals that are not even valid cells get the same
/// treatment at a fixed magnitude.
pub const INVALID_PROPOSAL_REWARD: f64 = -0.2;

/// Optional per-step shaping applied on top of the scenario's scalarized
/// reward before it reaches the controller.
///
/// The paper's REINFORCE controllers see only the Eq. 3 scalar; NSGA-II
/// optimizes the front directly. Shaping bridges the two: with
/// [`RewardShaping::HypervolumeGradient`], every recorded step adds
/// `weight ×` its marginal hypervolume contribution (the exact growth of
/// the visited-points front's dominated volume, priced by
/// [`codesign_moo::IncrementalHypervolume`]) to the scalar a controller
/// learns from. Steps that do not expand the front add nothing; invalid
/// proposals keep the flat [`INVALID_PROPOSAL_REWARD`].
///
/// Shaping changes *only* the scalar fed to (and recorded for) the
/// controller: best-point selection, the retained front, and feasibility
/// accounting all stay on the unshaped reward, and the shaped scalar is a
/// deterministic function of the step sequence — shaped campaigns stay
/// bit-identical across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RewardShaping {
    /// No shaping: the controller sees exactly the Eq. 3 scalar.
    #[default]
    None,
    /// Adds `weight ×` the step's marginal hypervolume contribution.
    HypervolumeGradient {
        /// Multiplier on the marginal contribution (finite, `> 0`).
        weight: f64,
    },
}

impl RewardShaping {
    /// The largest weight [`RewardShaping::parse`] accepts.
    ///
    /// Shaping adds `weight × ΔHV` to an Eq. 3 reward of magnitude about
    /// 1, and the controller's advantage, its gradient and the clip's sum
    /// of squared gradients all scale with it. On the paper presets one
    /// step's ΔHV is at most about 10⁴ (a 1,000-step 5-vertex shard's whole
    /// visited front reaches about 9·10³), so at this weight the shaped
    /// scalar stays below about 10¹⁰, far from overflow. A weight like
    /// `1e308` overflows the bonus to ∞, the advantage turns NaN, and the
    /// policy panics on its next sample.
    pub const MAX_WEIGHT: f64 = 1e6;

    /// `true` when shaping alters the controller scalar.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, Self::None)
    }

    /// Parses the campaign-flag syntax: `none`/`off` (or empty) for no
    /// shaping, `hv:<weight>` for hypervolume-gradient shaping.
    ///
    /// # Errors
    ///
    /// Returns a description when the mode is unknown or the weight is not
    /// a positive number of at most [`RewardShaping::MAX_WEIGHT`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("none") || s.eq_ignore_ascii_case("off") {
            return Ok(Self::None);
        }
        let Some(raw) = s.strip_prefix("hv:") else {
            return Err(format!(
                "unknown reward shaping '{s}' (expected 'none' or 'hv:<weight>')"
            ));
        };
        let weight: f64 = raw
            .trim()
            .parse()
            .map_err(|_| format!("invalid reward-shaping weight '{raw}'"))?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(format!(
                "reward-shaping weight must be finite and positive, got {weight}"
            ));
        }
        if weight > Self::MAX_WEIGHT {
            return Err(format!(
                "reward-shaping weight must be at most {:e}, got {weight:e}: \
                 a larger bonus can overflow the controller's update",
                Self::MAX_WEIGHT
            ));
        }
        Ok(Self::HypervolumeGradient { weight })
    }
}

impl std::fmt::Display for RewardShaping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::None => f.write_str("none"),
            Self::HypervolumeGradient { weight } => write!(f, "hv:{weight}"),
        }
    }
}

/// Shared knobs for one search run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Total controller steps (the paper uses 10,000).
    pub steps: usize,
    /// RNG seed for the run.
    pub seed: u64,
    /// Controller learning rate.
    pub learning_rate: f64,
    /// Entropy bonus coefficient.
    pub entropy_beta: f64,
    /// EMA decay of the reward baseline.
    pub baseline_decay: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            steps: 10_000,
            seed: 0,
            learning_rate: 0.01,
            entropy_beta: 0.01,
            baseline_decay: 0.9,
        }
    }
}

impl SearchConfig {
    /// A short run for tests and examples.
    #[must_use]
    pub fn quick(steps: usize, seed: u64) -> Self {
        Self {
            steps,
            seed,
            ..Self::default()
        }
    }
}

/// One step of search history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// The scalar fed to the controller (reward or punishment).
    pub reward: f64,
    /// Whether the proposal was a valid pair meeting all constraints.
    pub feasible: bool,
    /// The pair's metrics, when the proposal decoded to a valid, known
    /// CNN; any scenario re-scores it with
    /// [`CompiledScenario::reward`].
    pub evaluation: Option<PairEvaluation>,
}

/// One per-generation snapshot of a population-based run: how good (and
/// how large) the Pareto front of everything visited so far was when the
/// generation closed.
///
/// Produced by [`SearchRecorder::snapshot_generation`]; population
/// strategies ([`crate::NsgaSearch`]) call it once per generation, so the
/// sequence is the hypervolume-over-time curve of the run. Step-at-a-time
/// strategies record no snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStat {
    /// Generation index, 0-based (generation 0 is the seeded population).
    pub generation: usize,
    /// Total evaluations recorded when the snapshot was taken.
    pub evaluations: usize,
    /// Size of the visited-points Pareto front at that moment.
    pub front_size: usize,
    /// Dominated hypervolume of that front relative to the scenario's
    /// [`crate::scenarios::CompiledScenario::hypervolume_reference`].
    pub hypervolume: f64,
}

/// The best feasible point found by a run.
#[derive(Debug, Clone, PartialEq)]
pub struct BestPoint {
    /// The winning cell.
    pub cell: CellSpec,
    /// The winning accelerator.
    pub config: AcceleratorConfig,
    /// Its metrics.
    pub evaluation: PairEvaluation,
    /// Its reward under the run's reward function.
    pub reward: f64,
    /// The step at which it was first found.
    pub step: usize,
}

/// Everything a search run produces.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Strategy display name.
    pub strategy: &'static str,
    /// Per-step records, in order.
    pub history: Vec<StepRecord>,
    /// Best feasible point (Eq. 2's `s*`).
    pub best: Option<BestPoint>,
    /// Pareto front of every *valid* point visited, in the scenario's own
    /// signed metric axes (its [`crate::scenarios::CompiledScenario`]
    /// axis schema).
    pub front: DynParetoFront<(CellSpec, AcceleratorConfig)>,
    /// Count of feasible steps.
    pub feasible_steps: usize,
    /// Count of invalid (undecodable/unknown CNN) steps.
    pub invalid_steps: usize,
    /// Per-generation front snapshots, for population strategies that call
    /// [`SearchRecorder::snapshot_generation`]; empty otherwise.
    pub generations: Vec<GenerationStat>,
    /// Total shaping bonus paid out over the run (`Σ weight × marginal
    /// hypervolume` under [`RewardShaping::HypervolumeGradient`]); `0.0`
    /// when shaping was off.
    pub shaping_bonus: f64,
    /// Surrogate predict-then-verify counters, when the strategy ran with
    /// an active [`crate::SurrogateGuide`]; `None` for unguided runs.
    pub surrogate: Option<crate::surrogate::SurrogateStats>,
}

impl SearchOutcome {
    /// Mean reward over a trailing window ending at each step, skipping
    /// punished entries the way Fig. 6 "only plots the reward function R".
    ///
    /// Steps before any feasible point carry the first feasible value.
    #[must_use]
    pub fn reward_curve(&self, window: usize) -> Vec<f64> {
        reward_curve(&self.history, window)
    }

    /// Fraction of steps that met all constraints.
    #[must_use]
    pub fn feasible_rate(&self) -> f64 {
        self.feasible_steps as f64 / self.history.len().max(1) as f64
    }
}

/// The Fig. 6 smoothed reward curve of a raw step history: mean reward
/// over a trailing `window` of *feasible* steps, one value per step.
///
/// Lives as a free function (rather than only on [`SearchOutcome`]) so
/// campaign reports, which retain bare histories instead of full outcomes,
/// can reuse the exact same smoothing.
#[must_use]
pub fn reward_curve(history: &[StepRecord], window: usize) -> Vec<f64> {
    let window = window.max(1);
    let mut curve = Vec::with_capacity(history.len());
    let mut buffer: Vec<f64> = Vec::new();
    let mut last = f64::NAN;
    for rec in history {
        if rec.feasible {
            buffer.push(rec.reward);
        }
        let start = buffer.len().saturating_sub(window);
        if !buffer.is_empty() {
            let tail = &buffer[start..];
            last = tail.iter().sum::<f64>() / tail.len() as f64;
        }
        curve.push(last);
    }
    // Back-fill the leading NaNs with the first real value.
    if let Some(first_real) = curve.iter().copied().find(|v| !v.is_nan()) {
        for v in &mut curve {
            if v.is_nan() {
                *v = first_real;
            } else {
                break;
            }
        }
    }
    curve
}

/// Mutable state threaded through a strategy run.
pub struct SearchContext<'a> {
    /// The joint decision space.
    pub space: &'a CodesignSpace,
    /// The metric oracle.
    pub evaluator: &'a mut Evaluator,
    /// The compiled scenario whose reward steers the controller.
    pub reward: &'a CompiledScenario,
}

/// Telemetry: controller steps recorded across every strategy run.
static STEPS: codesign_telemetry::Counter = codesign_telemetry::Counter::new("search.steps");
/// Telemetry: steps meeting every scenario constraint.
static FEASIBLE: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("search.feasible_steps");
/// Telemetry: steps proposing invalid/unknown CNNs.
static INVALID: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("search.invalid_steps");

/// Incremental bookkeeping for a run; strategies call
/// [`SearchRecorder::record`] once per step.
pub struct SearchRecorder {
    strategy: &'static str,
    history: Vec<StepRecord>,
    best: Option<BestPoint>,
    best_valid: Option<BestPoint>,
    front: DynParetoFront<(CellSpec, AcceleratorConfig)>,
    feasible_steps: usize,
    invalid_steps: usize,
    generations: Vec<GenerationStat>,
    shaping: RewardShaping,
    shaping_bonus: f64,
    surrogate: Option<crate::surrogate::SurrogateStats>,
    /// Telemetry span covering the whole run (opened in [`Self::new`],
    /// recorded when the recorder is consumed by [`Self::finish`]); inert
    /// when telemetry is disabled.
    _span: codesign_telemetry::SpanGuard,
}

impl SearchRecorder {
    /// Starts recording a run for `strategy` under `scenario`, whose axis
    /// schema the retained front is collected in. A scenario with active
    /// [`CompiledScenario::reward_shaping`] switches the front into
    /// cached-hypervolume mode up front, so every recorded step prices its
    /// marginal contribution incrementally.
    #[must_use]
    pub fn new(strategy: &'static str, expected_steps: usize, scenario: &CompiledScenario) -> Self {
        let shaping = scenario.reward_shaping();
        let mut front = scenario.empty_front();
        if shaping.is_active() {
            front.enable_hv_cache(&scenario.hypervolume_reference());
        }
        Self {
            strategy,
            history: Vec::with_capacity(expected_steps),
            best: None,
            best_valid: None,
            front,
            feasible_steps: 0,
            invalid_steps: 0,
            generations: Vec::new(),
            shaping,
            shaping_bonus: 0.0,
            surrogate: None,
            _span: codesign_telemetry::span(strategy, "strategy")
                .with_arg("scenario", scenario.name())
                .with_arg("steps", expected_steps),
        }
    }

    /// Scores an evaluation outcome under the scenario's reward and records
    /// the step. Returns the scalar to feed the controller.
    ///
    /// The retained Pareto front is collected in the scenario's *own*
    /// signed metric axes — a power-capped scenario's front carries
    /// `(acc, −power)` points.
    ///
    /// Under active [`RewardShaping`], the returned (and recorded) scalar
    /// is the Eq. 3 reward *plus* the shaping bonus of the step's marginal
    /// hypervolume contribution; best-point selection stays on the
    /// unshaped reward, so shaping steers learning without redefining
    /// which point a run reports as best.
    pub fn record(
        &mut self,
        scenario: &CompiledScenario,
        outcome: &EvalOutcome,
        proposal_cell: Option<&CellSpec>,
        config: &AcceleratorConfig,
    ) -> f64 {
        let step = self.history.len();
        STEPS.add(1);
        match outcome {
            EvalOutcome::Valid(eval) => {
                let scored = scenario.reward(eval);
                let feasible = scored.is_feasible();
                let mut shaped = scored.value();
                if let Some(cell) = proposal_cell {
                    // The front builds the payload only for a point it
                    // keeps, so a rejected step clones no cell.
                    let point = scenario.metric_point(eval);
                    let payload = || (cell.clone(), *config);
                    let hv_delta = if self.shaping.is_active() {
                        self.front.insert_with_hv_delta(&point, payload).1
                    } else {
                        self.front.insert_with(&point, payload);
                        0.0
                    };
                    if let RewardShaping::HypervolumeGradient { weight } = self.shaping {
                        let bonus = weight * hv_delta;
                        self.shaping_bonus += bonus;
                        shaped += bonus;
                    }
                    let value = scored.value();
                    let improves_valid = self.best_valid.as_ref().is_none_or(|b| value > b.reward);
                    if improves_valid {
                        self.best_valid = Some(BestPoint {
                            cell: cell.clone(),
                            config: *config,
                            evaluation: *eval,
                            reward: value,
                            step,
                        });
                    }
                    if feasible {
                        self.feasible_steps += 1;
                        FEASIBLE.add(1);
                        let improves = self.best.as_ref().is_none_or(|b| value > b.reward);
                        if improves {
                            self.best = Some(BestPoint {
                                cell: cell.clone(),
                                config: *config,
                                evaluation: *eval,
                                reward: value,
                                step,
                            });
                        }
                    }
                }
                self.history.push(StepRecord {
                    reward: shaped,
                    feasible,
                    evaluation: Some(*eval),
                });
                shaped
            }
            EvalOutcome::InvalidCnn(_) | EvalOutcome::UnknownCell => {
                self.invalid_steps += 1;
                INVALID.add(1);
                self.history.push(StepRecord {
                    reward: INVALID_PROPOSAL_REWARD,
                    feasible: false,
                    evaluation: None,
                });
                INVALID_PROPOSAL_REWARD
            }
        }
    }

    /// Steps recorded so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.history.len()
    }

    /// The current best point, if any.
    #[must_use]
    pub fn best(&self) -> Option<&BestPoint> {
        self.best.as_ref()
    }

    /// The best *valid* point by reward value, feasible or not — what phase
    /// search freezes on while no proposal has met every constraint yet (the
    /// scaled-violation punishment still orders such points usefully).
    #[must_use]
    pub fn best_valid(&self) -> Option<&BestPoint> {
        self.best.as_ref().or(self.best_valid.as_ref())
    }

    /// Closes one generation of a population-based strategy: snapshots the
    /// current visited-points front (size + dominated hypervolume against
    /// the scenario's fixed reference box) so the finished outcome carries
    /// a hypervolume-over-time curve. Step-at-a-time strategies simply
    /// never call this.
    ///
    /// The first snapshot switches the front into cached-hypervolume mode
    /// (one incremental seeding pass over the current members); every
    /// later snapshot — and every insert in between — maintains the total
    /// incrementally, so per-generation stats stop paying a scratch
    /// recompute. The cached total is monotone non-decreasing by
    /// construction.
    pub fn snapshot_generation(&mut self, scenario: &CompiledScenario) {
        let reference = scenario.hypervolume_reference();
        let hypervolume = self.front.enable_hv_cache(&reference);
        self.generations.push(GenerationStat {
            generation: self.generations.len(),
            evaluations: self.history.len(),
            front_size: self.front.len(),
            hypervolume,
        });
    }

    /// Attaches the final surrogate predict-then-verify counters; guided
    /// strategies call this once before [`SearchRecorder::finish`].
    pub fn set_surrogate_stats(&mut self, stats: crate::surrogate::SurrogateStats) {
        self.surrogate = Some(stats);
    }

    /// Finalizes the run.
    #[must_use]
    pub fn finish(self) -> SearchOutcome {
        SearchOutcome {
            strategy: self.strategy,
            history: self.history,
            best: self.best,
            front: self.front,
            feasible_steps: self.feasible_steps,
            invalid_steps: self.invalid_steps,
            generations: self.generations,
            shaping_bonus: self.shaping_bonus,
            surrogate: self.surrogate,
        }
    }
}

/// A search strategy (§III-B): combined, phase, separate, or random.
pub trait SearchStrategy {
    /// Display name used in figures and reports.
    fn name(&self) -> &'static str;

    /// Runs the strategy for `config.steps` steps drawing all randomness
    /// from the injected `rng` stream (`config.seed` is *not* consulted).
    ///
    /// Campaign drivers use this to hand each shard its own deterministic
    /// stream: the same stream yields the same run regardless of which
    /// worker thread executes it.
    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut rand::rngs::SmallRng,
    ) -> SearchOutcome;

    /// Runs the strategy with a fresh stream seeded from `config.seed`.
    fn run(&self, ctx: &mut SearchContext<'_>, config: &SearchConfig) -> SearchOutcome {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(config.seed);
        self.run_with_rng(ctx, config, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_accel::ConfigSpace;
    use codesign_nasbench::known_cells;

    fn dummy_eval(acc: f64, lat: f64, area: f64) -> EvalOutcome {
        EvalOutcome::Valid(PairEvaluation {
            accuracy: acc,
            latency_ms: lat,
            area_mm2: area,
            power_w: 4.0,
        })
    }

    #[test]
    fn recorder_tracks_best_feasible_point() {
        let spec = crate::scenarios::ScenarioSpec::unconstrained().compile();
        let mut rec = SearchRecorder::new("test", 4, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.9, 200.0, 150.0), Some(&cell), &config);
        rec.record(&spec, &dummy_eval(0.93, 30.0, 120.0), Some(&cell), &config);
        rec.record(&spec, &dummy_eval(0.91, 100.0, 140.0), Some(&cell), &config);
        let out = rec.finish();
        let best = out.best.expect("feasible points recorded");
        assert_eq!(best.step, 1);
        assert_eq!(best.evaluation.latency_ms, 30.0);
        assert_eq!(out.feasible_steps, 3);
    }

    #[test]
    fn recorded_evaluations_rescore_under_a_power_scenario() {
        use crate::scenarios::{MetricId, ScenarioSpec};
        let spec = ScenarioSpec::builder("power-capped")
            .weight(MetricId::Accuracy, 1.0)
            .constraint(MetricId::PowerW, 6.0)
            .build()
            .unwrap()
            .compile();
        let mut rec = SearchRecorder::new("test", 2, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.9, 200.0, 150.0), Some(&cell), &config);
        rec.record(&spec, &dummy_eval(0.93, 30.0, 120.0), Some(&cell), &config);
        for record in &rec.finish().history {
            let eval = record.evaluation.expect("valid step");
            let rescored = spec.reward(&eval);
            assert_eq!(rescored.value().to_bits(), record.reward.to_bits());
            assert_eq!(rescored.is_feasible(), record.feasible);
        }
    }

    #[test]
    fn recorder_punishes_invalid_proposals() {
        let spec = crate::scenarios::ScenarioSpec::unconstrained().compile();
        let mut rec = SearchRecorder::new("test", 1, &spec);
        let config = ConfigSpace::chaidnn().get(0);
        let r = rec.record(
            &spec,
            &EvalOutcome::InvalidCnn(codesign_nasbench::SpecError::Disconnected),
            None,
            &config,
        );
        assert_eq!(r, INVALID_PROPOSAL_REWARD);
        let out = rec.finish();
        assert_eq!(out.invalid_steps, 1);
        assert!(out.best.is_none());
    }

    #[test]
    fn front_collects_valid_points_even_when_infeasible() {
        // 2-constraint scenario: a fast-but-inaccurate point is infeasible
        // yet still belongs on the visited Pareto front.
        let spec = crate::scenarios::ScenarioSpec::two_constraints().compile();
        let mut rec = SearchRecorder::new("test", 2, &spec);
        let cell = known_cells::googlenet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.90, 10.0, 80.0), Some(&cell), &config);
        let out = rec.finish();
        assert_eq!(out.feasible_steps, 0);
        assert_eq!(out.front.len(), 1);
    }

    #[test]
    fn reward_curve_skips_punished_steps() {
        let spec = crate::scenarios::ScenarioSpec::one_constraint().compile();
        let mut rec = SearchRecorder::new("test", 3, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.93, 50.0, 120.0), Some(&cell), &config);
        rec.record(&spec, &dummy_eval(0.93, 300.0, 120.0), Some(&cell), &config); // punished
        rec.record(&spec, &dummy_eval(0.94, 60.0, 120.0), Some(&cell), &config);
        let out = rec.finish();
        let curve = out.reward_curve(10);
        assert_eq!(curve.len(), 3);
        assert!(
            curve.iter().all(|v| *v > 0.0),
            "punished values must not drag the curve"
        );
        assert!(
            curve[2] > curve[0],
            "curve should rise with better feasible points"
        );
    }

    #[test]
    fn reward_shaping_parses_the_flag_syntax() {
        assert_eq!(RewardShaping::parse("none"), Ok(RewardShaping::None));
        assert_eq!(RewardShaping::parse("off"), Ok(RewardShaping::None));
        assert_eq!(RewardShaping::parse(""), Ok(RewardShaping::None));
        assert_eq!(
            RewardShaping::parse("hv:0.5"),
            Ok(RewardShaping::HypervolumeGradient { weight: 0.5 })
        );
        assert!(RewardShaping::parse("hv:0").is_err());
        assert!(RewardShaping::parse("hv:-1").is_err());
        assert!(RewardShaping::parse("hv:nan").is_err());
        assert!(RewardShaping::parse("gradient").is_err());
        assert_eq!(
            RewardShaping::parse("hv:0.5").unwrap().to_string(),
            "hv:0.5"
        );
        assert_eq!(RewardShaping::None.to_string(), "none");
        assert!(!RewardShaping::None.is_active());
    }

    #[test]
    fn shaped_recorder_pays_marginal_hypervolume_bonuses() {
        let spec = crate::scenarios::ScenarioSpec::unconstrained()
            .compile()
            .with_reward_shaping(RewardShaping::HypervolumeGradient { weight: 2.0 });
        let reference = spec.hypervolume_reference();
        let mut rec = SearchRecorder::new("test", 3, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        let pe = |acc: f64, lat: f64, area: f64| PairEvaluation {
            accuracy: acc,
            latency_ms: lat,
            area_mm2: area,
            power_w: 4.0,
        };

        // First point: bonus = 2 × its marginal (full-box) contribution.
        let pe0 = pe(0.9, 200.0, 150.0);
        let r0 = rec.record(&spec, &EvalOutcome::Valid(pe0), Some(&cell), &config);
        let base0 = spec.reward(&pe0).value();
        let mut front: DynParetoFront<()> = spec.empty_front();
        front.enable_hv_cache(&reference);
        let (_, d0) = front.insert_with_hv_delta(&spec.metric_point(&pe0), || ());
        assert!(d0 > 0.0);
        assert!((r0 - (base0 + 2.0 * d0)).abs() < 1e-12);

        // A dominated point earns no bonus: shaped reward == plain reward.
        let pe1 = pe(0.85, 300.0, 200.0);
        let r1 = rec.record(&spec, &EvalOutcome::Valid(pe1), Some(&cell), &config);
        assert_eq!(r1, spec.reward(&pe1).value());

        let out = rec.finish();
        assert!((out.shaping_bonus - 2.0 * d0).abs() < 1e-12);
        // Best-point selection stays on the unshaped reward.
        assert_eq!(out.best.expect("feasible").reward, base0);
    }

    #[test]
    fn unshaped_recorder_reports_zero_bonus() {
        let spec = crate::scenarios::ScenarioSpec::unconstrained().compile();
        let mut rec = SearchRecorder::new("test", 1, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.9, 200.0, 150.0), Some(&cell), &config);
        assert_eq!(rec.finish().shaping_bonus, 0.0);
    }

    #[test]
    fn generation_snapshots_use_the_cached_hypervolume() {
        let spec = crate::scenarios::ScenarioSpec::unconstrained().compile();
        let mut rec = SearchRecorder::new("test", 4, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.90, 200.0, 150.0), Some(&cell), &config);
        rec.snapshot_generation(&spec);
        rec.record(&spec, &dummy_eval(0.93, 30.0, 120.0), Some(&cell), &config);
        rec.snapshot_generation(&spec);
        let reference = spec.hypervolume_reference();
        let out = rec.finish();
        assert_eq!(out.generations.len(), 2);
        // Monotone by construction, and matching a scratch recompute of the
        // final front to well under 1e-9 relative.
        assert!(out.generations[1].hypervolume >= out.generations[0].hypervolume);
        let scratch = out.front.hypervolume(&reference);
        let cached = out.generations[1].hypervolume;
        assert!((cached - scratch).abs() <= 1e-9 * scratch.abs().max(1.0));
    }

    #[test]
    fn reward_curve_backfills_leading_infeasible_steps() {
        let spec = crate::scenarios::ScenarioSpec::one_constraint().compile();
        let mut rec = SearchRecorder::new("test", 2, &spec);
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        rec.record(&spec, &dummy_eval(0.93, 300.0, 120.0), Some(&cell), &config); // punished
        rec.record(&spec, &dummy_eval(0.93, 50.0, 120.0), Some(&cell), &config);
        let curve = rec.finish().reward_curve(5);
        assert_eq!(curve[0], curve[1]);
    }
}
