//! §IV: CIFAR-100 CNN-accelerator codesign with a threshold schedule.
//!
//! No precomputed accuracies exist for CIFAR-100, so every new cell is
//! "trained from scratch" (here: the surrogate trainer, with simulated
//! GPU-hours accounted). Latency and area are combined into a single
//! efficiency metric — performance per area — and the search maximizes
//! accuracy under a perf/area constraint whose threshold rises through
//! `(2, 8, 16, 30, 40)` img/s/cm², collecting `(300, 300, 300, 400, 1000)`
//! valid points per stage. Each stage's reward is a [`ScenarioSpec`] on the
//! axes `[perf/area, acc]`, scored by the same [`Evaluator`] and scenario
//! API the §III searches use. A single combined-strategy controller persists
//! across stages, which is what lets the gradually-rising threshold teach it
//! "the structure of high-accuracy CNNs" first.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use codesign_accel::AcceleratorConfig;
use codesign_moo::Punishment;
use codesign_nasbench::{CellSpec, Dataset};
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};

use crate::baselines::BaselineRow;
use crate::evaluator::{EvalOutcome, Evaluator, PairEvaluation};
use crate::scenarios::{CompiledScenario, MetricId, ScenarioSpec};
use crate::search::INVALID_PROPOSAL_REWARD;
use crate::space::CodesignSpace;

/// The rising perf/area thresholds and per-stage valid-point quotas.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSchedule {
    /// `(threshold img/s/cm², valid points to collect)` per stage.
    pub stages: Vec<(f64, usize)>,
}

impl Default for ThresholdSchedule {
    fn default() -> Self {
        Self {
            stages: vec![
                (2.0, 300),
                (8.0, 300),
                (16.0, 300),
                (30.0, 400),
                (40.0, 1000),
            ],
        }
    }
}

impl ThresholdSchedule {
    /// Total valid points across stages (the paper's "~2300 valid points").
    #[must_use]
    pub fn total_valid_points(&self) -> usize {
        self.stages.iter().map(|(_, n)| n).sum()
    }

    /// A miniature schedule for tests and examples.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            stages: vec![(2.0, 20), (16.0, 20), (40.0, 40)],
        }
    }
}

/// The §IV controller's learning rate.
const LEARNING_RATE: f64 = 0.006;
/// The §IV controller's entropy bonus.
const ENTROPY_BETA: f64 = 0.06;

/// Configuration of the §IV flow. Its controller runs at fixed
/// hyper-parameters, a lower rate and a stronger entropy bonus than
/// §III's.
#[derive(Debug, Clone, PartialEq)]
pub struct Cifar100Config {
    /// The threshold schedule.
    pub schedule: ThresholdSchedule,
    /// RNG seed.
    pub seed: u64,
    /// Hard cap on steps per stage (a stage ends at its valid-point quota or
    /// this cap, whichever comes first).
    pub max_steps_per_stage: usize,
}

impl Default for Cifar100Config {
    fn default() -> Self {
        Self {
            schedule: ThresholdSchedule::default(),
            seed: 0,
            max_steps_per_stage: 20_000,
        }
    }
}

impl Cifar100Config {
    /// A miniature configuration for tests and examples.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            schedule: ThresholdSchedule::quick(),
            seed,
            max_steps_per_stage: 2_000,
        }
    }
}

/// One discovered model-accelerator pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredPoint {
    /// The cell.
    pub cell: CellSpec,
    /// The accelerator.
    pub config: AcceleratorConfig,
    /// The pair's metrics (top-1 CIFAR-100 accuracy, latency, area, power).
    pub evaluation: PairEvaluation,
    /// The search step it was visited at.
    pub step: usize,
}

impl DiscoveredPoint {
    /// Returns `true` when this point beats `baseline` on both accuracy and
    /// perf/area — the paper's bar for Cod-1 and Cod-2.
    #[must_use]
    pub fn beats(&self, baseline: &BaselineRow) -> bool {
        let (point, baseline) = (&self.evaluation, &baseline.evaluation);
        point.accuracy > baseline.accuracy && point.perf_per_area() > baseline.perf_per_area()
    }
}

/// The per-stage record: threshold plus the top-10 points by accuracy among
/// pairs visited at that threshold (the series plotted in Fig. 7).
#[derive(Debug, Clone)]
pub struct StageResult {
    /// The stage's perf/area threshold.
    pub threshold: f64,
    /// Steps the stage consumed.
    pub steps: usize,
    /// Valid (feasible) points collected.
    pub valid_points: usize,
    /// Top-10 visited points by accuracy.
    pub top_points: Vec<DiscoveredPoint>,
}

/// Output of the whole §IV flow.
#[derive(Debug, Clone)]
pub struct Cifar100Result {
    /// Per-stage records, in schedule order.
    pub stages: Vec<StageResult>,
    /// Total controller steps.
    pub total_steps: usize,
    /// Total valid points (the paper: ~2300).
    pub total_valid_points: usize,
    /// Distinct cells trained.
    pub models_trained: usize,
    /// Simulated GPU-hours spent training (the paper: ~1000).
    pub gpu_hours: f64,
}

impl Cifar100Result {
    /// Every stage's top points flattened (Fig. 7's scatter).
    #[must_use]
    pub fn all_top_points(&self) -> Vec<&DiscoveredPoint> {
        self.stages
            .iter()
            .flat_map(|s| s.top_points.iter())
            .collect()
    }

    /// The best point that beats `baseline` on both axes, preferring
    /// accuracy (how the paper selects Cod-1 against ResNet).
    #[must_use]
    pub fn best_against(&self, baseline: &BaselineRow) -> Option<&DiscoveredPoint> {
        self.all_top_points()
            .into_iter()
            .filter(|p| p.beats(baseline))
            .max_by(|a, b| {
                a.evaluation
                    .accuracy
                    .partial_cmp(&b.evaluation.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The most efficient point that beats `baseline` on both axes
    /// (how Cod-2 relates to GoogLeNet).
    #[must_use]
    pub fn most_efficient_against(&self, baseline: &BaselineRow) -> Option<&DiscoveredPoint> {
        self.all_top_points()
            .into_iter()
            .filter(|p| p.beats(baseline))
            .max_by(|a, b| {
                a.evaluation
                    .perf_per_area()
                    .partial_cmp(&b.evaluation.perf_per_area())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

/// The scenario of one stage: maximize accuracy subject to
/// `perf/area >= threshold`, over the axes `[perf/area, acc]`.
fn stage_scenario(threshold: f64) -> CompiledScenario {
    ScenarioSpec::builder("cifar100-stage")
        .norm(MetricId::PerfPerArea, 0.0, 80.0)
        .constraint(MetricId::PerfPerArea, threshold)
        .weight(MetricId::Accuracy, 1.0)
        .norm(MetricId::Accuracy, 0.55, 0.78)
        .punishment(Punishment::ScaledViolation { scale: 0.1 })
        .build()
        .expect("static scenario")
        .compile()
}

/// Runs the §IV Codesign-NAS flow with the combined strategy.
#[must_use]
pub fn run_cifar100_codesign(config: &Cifar100Config) -> Cifar100Result {
    let mut evaluator = Evaluator::with_trainer(Dataset::Cifar100);
    run_cifar100_codesign_with_evaluator(config, &mut evaluator)
}

/// The §IV flow on a caller-supplied evaluator.
///
/// Campaign drivers use this to share one evaluation cache across repeats:
/// cells already "trained" by another seed's run are free (and excluded
/// from this run's GPU-hour accounting).
pub fn run_cifar100_codesign_with_evaluator(
    config: &Cifar100Config,
    evaluator: &mut Evaluator,
) -> Cifar100Result {
    let space = CodesignSpace::paper();
    let gpu_hours_before = evaluator.gpu_hours();
    let cells_before = evaluator.resolved_cells();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let policy = LstmPolicy::new(PolicyConfig::new(space.vocab_sizes()), &mut rng);
    let mut trainer = ReinforceTrainer::new(
        policy,
        ReinforceConfig {
            learning_rate: LEARNING_RATE,
            baseline_decay: 0.9,
            entropy_beta: ENTROPY_BETA,
        },
    );

    let mut stages = Vec::with_capacity(config.schedule.stages.len());
    let mut total_steps = 0usize;
    for &(threshold, quota) in &config.schedule.stages {
        let scenario = stage_scenario(threshold);
        let mut valid = 0usize;
        let mut steps = 0usize;
        let mut top: Vec<DiscoveredPoint> = Vec::new();
        while valid < quota && steps < config.max_steps_per_stage {
            let rollout = trainer.propose(&mut rng);
            let proposal = space.decode(&rollout.actions);
            let outcome = evaluator.evaluate(&proposal);
            let reward_value = match &outcome {
                EvalOutcome::Valid(eval) => {
                    let scored = scenario.reward(eval);
                    if scored.is_feasible() {
                        valid += 1;
                        if let Ok(cell) = &proposal.cell {
                            push_top10(
                                &mut top,
                                DiscoveredPoint {
                                    cell: cell.clone(),
                                    config: proposal.config,
                                    evaluation: *eval,
                                    step: total_steps + steps,
                                },
                            );
                        }
                    }
                    scored.value()
                }
                EvalOutcome::InvalidCnn(_) | EvalOutcome::UnknownCell => INVALID_PROPOSAL_REWARD,
            };
            trainer.learn(&rollout, reward_value);
            steps += 1;
        }
        total_steps += steps;
        stages.push(StageResult {
            threshold,
            steps,
            valid_points: valid,
            top_points: top,
        });
    }

    Cifar100Result {
        total_steps,
        total_valid_points: stages.iter().map(|s| s.valid_points).sum(),
        models_trained: evaluator.resolved_cells() - cells_before,
        gpu_hours: evaluator.gpu_hours() - gpu_hours_before,
        stages,
    }
}

/// Keeps `top` as the 10 highest-accuracy distinct points.
fn push_top10(top: &mut Vec<DiscoveredPoint>, point: DiscoveredPoint) {
    let duplicate = top.iter().any(|p| {
        p.cell.canonical_hash() == point.cell.canonical_hash() && p.config == point.config
    });
    if duplicate {
        return;
    }
    top.push(point);
    top.sort_by(|a, b| {
        b.evaluation
            .accuracy
            .partial_cmp(&a.evaluation.accuracy)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    top.truncate(10);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::table2_baselines;

    #[test]
    fn quick_flow_collects_valid_points_per_stage() {
        let result = run_cifar100_codesign(&Cifar100Config::quick(1));
        assert_eq!(result.stages.len(), 3);
        for stage in &result.stages {
            assert!(
                stage.valid_points > 0,
                "threshold {} got no points",
                stage.threshold
            );
            assert!(stage.top_points.len() <= 10);
            // Every recorded point meets the stage threshold.
            for p in &stage.top_points {
                assert!(
                    p.evaluation.perf_per_area() >= stage.threshold,
                    "point {} below threshold {}",
                    p.evaluation.perf_per_area(),
                    stage.threshold
                );
            }
        }
        assert!(result.gpu_hours > 0.0);
        assert!(result.models_trained > 10);
    }

    #[test]
    fn top_points_are_sorted_and_deduplicated() {
        let result = run_cifar100_codesign(&Cifar100Config::quick(2));
        for stage in &result.stages {
            let accs: Vec<f64> = stage
                .top_points
                .iter()
                .map(|p| p.evaluation.accuracy)
                .collect();
            assert!(
                accs.windows(2).all(|w| w[0] >= w[1]),
                "unsorted top-10: {accs:?}"
            );
        }
    }

    #[test]
    fn flow_is_deterministic() {
        let a = run_cifar100_codesign(&Cifar100Config::quick(7));
        let b = run_cifar100_codesign(&Cifar100Config::quick(7));
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.total_valid_points, b.total_valid_points);
        assert_eq!(a.gpu_hours, b.gpu_hours);
    }

    #[test]
    fn beats_requires_both_axes() {
        let baselines = table2_baselines();
        let resnet = &baselines[0];
        let better = DiscoveredPoint {
            cell: codesign_nasbench::known_cells::cod1_cell(),
            config: codesign_accel::ConfigSpace::chaidnn().get(0),
            evaluation: PairEvaluation {
                accuracy: resnet.evaluation.accuracy + 0.01,
                latency_ms: 10.0,
                area_mm2: 100.0,
                power_w: 1.0,
            },
            step: 0,
        };
        assert!(better.beats(resnet));
        let mut worse_acc = better.clone();
        worse_acc.evaluation.accuracy = resnet.evaluation.accuracy - 0.01;
        assert!(!worse_acc.beats(resnet));
    }

    #[test]
    fn default_schedule_matches_paper() {
        let s = ThresholdSchedule::default();
        let thresholds: Vec<f64> = s.stages.iter().map(|(t, _)| *t).collect();
        assert_eq!(thresholds, vec![2.0, 8.0, 16.0, 30.0, 40.0]);
        assert_eq!(s.total_valid_points(), 2300);
    }
}
