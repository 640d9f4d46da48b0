//! The three search strategies of §III-B plus a random-search ablation.
//!
//! * [`CombinedSearch`] — one controller over the joint CNN×HW space; every
//!   step may update both halves (fast to adapt, large space).
//! * [`PhaseSearch`] — two controllers; interleaved CNN phases (HW frozen)
//!   and HW phases (CNN frozen), repeating to the step budget.
//! * [`SeparateSearch`] — the conventional sequential baseline: an
//!   accuracy-only CNN search followed by accelerator DSE for the found CNN.
//! * [`RandomSearch`] — uniform sampling, the ablation baseline for the RL
//!   controller.
//!
//! All four optimize a *scalarized* reward built from any declarative
//! [`crate::ScenarioSpec`] — not just the paper's three presets. Two
//! population-based extensions live in sibling modules:
//! [`crate::evolution`] (aging evolution on the same scalarized reward)
//! and [`crate::nsga`] (NSGA-II selection directly on the scenario's
//! Pareto front).

use rand::rngs::SmallRng;
use rand::Rng;

use codesign_moo::{DynRewardSpec, LinearNorm};
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};

use crate::search::{SearchConfig, SearchContext, SearchOutcome, SearchRecorder, SearchStrategy};
use crate::space::Proposal;

fn reinforce_config(config: &SearchConfig) -> ReinforceConfig {
    ReinforceConfig {
        learning_rate: config.learning_rate,
        baseline_decay: config.baseline_decay,
        entropy_beta: config.entropy_beta,
    }
}

/// §III-B1: REINFORCE directly on the joint space of Eq. 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombinedSearch;

impl SearchStrategy for CombinedSearch {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let policy = LstmPolicy::new(PolicyConfig::new(ctx.space.vocab_sizes()), rng);
        let mut trainer = ReinforceTrainer::new(policy, reinforce_config(config));
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);
        for _ in 0..config.steps {
            let rollout = trainer.propose(rng);
            let proposal = ctx.space.decode(&rollout.actions);
            let outcome = ctx.evaluator.evaluate(&proposal);
            let reward = recorder.record(
                ctx.reward,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            );
            trainer.learn(&rollout, reward);
        }
        recorder.finish()
    }
}

/// §III-B2: interleaved specialized phases with two controllers.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSearch {
    /// Steps per CNN phase (paper: 1000 of 10,000).
    cnn_phase_steps: usize,
    /// Steps per HW phase (paper: 200).
    hw_phase_steps: usize,
}

impl PhaseSearch {
    /// The paper's 1000/200 phase lengths of a 10,000-step search, scaled
    /// to a budget of `total_steps`.
    #[must_use]
    pub fn scaled(total_steps: usize) -> Self {
        let cnn = (total_steps / 10).max(1);
        Self {
            cnn_phase_steps: cnn,
            hw_phase_steps: (cnn / 5).max(1),
        }
    }
}

impl SearchStrategy for PhaseSearch {
    fn name(&self) -> &'static str {
        "phase"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let cnn_vocab = ctx.space.cnn().vocab_sizes();
        let hw_vocab = ctx.space.hw().vocab_sizes();
        let cnn_policy = LstmPolicy::new(PolicyConfig::new(cnn_vocab), rng);
        let hw_policy = LstmPolicy::new(PolicyConfig::new(hw_vocab), rng);
        let mut cnn_trainer = ReinforceTrainer::new(cnn_policy, reinforce_config(config));
        let mut hw_trainer = ReinforceTrainer::new(hw_policy, reinforce_config(config));
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);

        let mut frozen_hw = random_hw_actions(ctx, rng);
        let mut frozen_cnn = random_valid_cnn_actions(ctx, rng);

        let mut in_cnn_phase = true;
        let mut phase_remaining = self.cnn_phase_steps;
        while recorder.steps() < config.steps {
            if in_cnn_phase {
                let rollout = cnn_trainer.propose(rng);
                let proposal = Proposal {
                    cell: ctx.space.cnn().decode(&rollout.actions),
                    config: ctx.space.hw().decode(&frozen_hw),
                };
                let outcome = ctx.evaluator.evaluate(&proposal);
                let reward = recorder.record(
                    ctx.reward,
                    &outcome,
                    proposal.cell.as_ref().ok(),
                    &proposal.config,
                );
                cnn_trainer.learn(&rollout, reward);
            } else {
                let rollout = hw_trainer.propose(rng);
                let proposal = Proposal {
                    cell: ctx.space.cnn().decode(&frozen_cnn),
                    config: ctx.space.hw().decode(&rollout.actions),
                };
                let outcome = ctx.evaluator.evaluate(&proposal);
                let reward = recorder.record(
                    ctx.reward,
                    &outcome,
                    proposal.cell.as_ref().ok(),
                    &proposal.config,
                );
                hw_trainer.learn(&rollout, reward);
            }
            phase_remaining -= 1;
            if phase_remaining == 0 {
                // Freeze the best half found so far and switch phases.
                // Before anything feasible exists, the least-punished valid
                // point steers the frozen half toward the feasible region.
                if let Some(best) = recorder.best_valid() {
                    frozen_cnn = ctx.space.cnn().encode(&best.cell);
                    frozen_hw = ctx.space.hw().encode(&best.config);
                }
                in_cnn_phase = !in_cnn_phase;
                phase_remaining = if in_cnn_phase {
                    self.cnn_phase_steps
                } else {
                    self.hw_phase_steps
                };
            }
        }
        recorder.finish()
    }
}

/// §III-B3: the sequential baseline — CNN search without hardware context,
/// then accelerator search for the chosen CNN.
#[derive(Debug, Clone, Copy)]
pub struct SeparateSearch {
    /// Steps spent on the accuracy-only CNN search (paper: 8333 of 10,000).
    cnn_steps: usize,
}

impl SeparateSearch {
    /// The paper's 8333/1667 split of a 10,000-step search, scaled to a
    /// budget of `total_steps`.
    #[must_use]
    pub fn scaled(total_steps: usize) -> Self {
        Self {
            cnn_steps: total_steps * 5 / 6,
        }
    }
}

impl SearchStrategy for SeparateSearch {
    fn name(&self) -> &'static str {
        "separate"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let cnn_steps = self.cnn_steps.min(config.steps);
        let cnn_policy = LstmPolicy::new(PolicyConfig::new(ctx.space.cnn().vocab_sizes()), rng);
        let mut cnn_trainer = ReinforceTrainer::new(cnn_policy, reinforce_config(config));
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);

        // Phase 1: accuracy-only CNN search. The recorder still scores steps
        // under the scenario reward (for Fig. 5/6 comparability), but the
        // controller only sees normalized accuracy — no hardware context.
        let acc_only = accuracy_only_spec(ctx.reward.accuracy_norm());
        let placeholder_hw = random_hw_actions(ctx, rng);
        let placeholder_config = ctx.space.hw().decode(&placeholder_hw);
        let mut best_cnn: Option<(f64, Vec<usize>)> = None;
        for _ in 0..cnn_steps {
            let rollout = cnn_trainer.propose(rng);
            let cell = ctx.space.cnn().decode(&rollout.actions);
            let proposal = Proposal {
                cell,
                config: placeholder_config,
            };
            let outcome = ctx.evaluator.evaluate(&proposal);
            recorder.record(
                ctx.reward,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            );
            let controller_reward = match outcome.evaluation() {
                Some(eval) => acc_only.evaluate(&[eval.accuracy]).value(),
                None => crate::search::INVALID_PROPOSAL_REWARD,
            };
            if let Some(eval) = outcome.evaluation() {
                let improves = best_cnn.as_ref().is_none_or(|(a, _)| eval.accuracy > *a);
                if improves {
                    best_cnn = Some((eval.accuracy, rollout.actions.clone()));
                }
            }
            cnn_trainer.learn(&rollout, controller_reward);
        }

        // Phase 2: accelerator DSE for the discovered CNN, with the full
        // multi-objective reward (the paper's Fig. 6 note).
        let frozen_cnn = best_cnn
            .map(|(_, actions)| actions)
            .unwrap_or_else(|| random_valid_cnn_actions(ctx, rng));
        let hw_policy = LstmPolicy::new(PolicyConfig::new(ctx.space.hw().vocab_sizes()), rng);
        let mut hw_trainer = ReinforceTrainer::new(hw_policy, reinforce_config(config));
        while recorder.steps() < config.steps {
            let rollout = hw_trainer.propose(rng);
            let proposal = Proposal {
                cell: ctx.space.cnn().decode(&frozen_cnn),
                config: ctx.space.hw().decode(&rollout.actions),
            };
            let outcome = ctx.evaluator.evaluate(&proposal);
            let reward = recorder.record(
                ctx.reward,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            );
            hw_trainer.learn(&rollout, reward);
        }
        recorder.finish()
    }
}

/// Uniform random sampling over the joint space (controller ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let vocab = ctx.space.vocab_sizes();
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);
        for _ in 0..config.steps {
            let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
            let proposal = ctx.space.decode(&actions);
            let outcome = ctx.evaluator.evaluate(&proposal);
            recorder.record(
                ctx.reward,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            );
        }
        recorder.finish()
    }
}

/// Uniform random accelerator actions (always decodable).
fn random_hw_actions(ctx: &SearchContext<'_>, rng: &mut SmallRng) -> Vec<usize> {
    ctx.space
        .hw()
        .vocab_sizes()
        .iter()
        .map(|&v| rng.gen_range(0..v))
        .collect()
}

/// Random CNN actions that decode to a *valid* cell (retrying; falls back to
/// a plain chain cell if the space is hostile to uniform sampling).
fn random_valid_cnn_actions(ctx: &SearchContext<'_>, rng: &mut SmallRng) -> Vec<usize> {
    let vocab = ctx.space.cnn().vocab_sizes();
    for _ in 0..200 {
        let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
        if ctx.space.cnn().decode(&actions).is_ok() {
            return actions;
        }
    }
    ctx.space
        .cnn()
        .encode(&codesign_nasbench::known_cells::plain_cell())
}

/// Single-metric reward spec over accuracy alone, for separate search phase 1.
fn accuracy_only_spec(norm: LinearNorm) -> DynRewardSpec {
    DynRewardSpec::builder()
        .weights(vec![1.0])
        .expect("static weights")
        .norms(vec![norm])
        .build()
        .expect("complete spec")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::scenarios::ScenarioSpec;
    use crate::space::CodesignSpace;
    use codesign_nasbench::Dataset;

    fn run_strategy(strategy: &dyn SearchStrategy, steps: usize, seed: u64) -> SearchOutcome {
        let space = CodesignSpace::with_max_vertices(5);
        let mut evaluator = Evaluator::with_trainer(Dataset::Cifar10);
        let reward = ScenarioSpec::unconstrained().compile();
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        strategy.run(&mut ctx, &SearchConfig::quick(steps, seed))
    }

    #[test]
    fn scaled_phase_lengths_keep_5_to_1_ratio() {
        let p = PhaseSearch::scaled(10_000);
        assert_eq!(p.cnn_phase_steps, 1000);
        assert_eq!(p.hw_phase_steps, 200);
        let s = SeparateSearch::scaled(10_000);
        assert_eq!(s.cnn_steps, 8333);
    }

    #[test]
    fn combined_runs_exactly_steps() {
        let out = run_strategy(&CombinedSearch, 120, 0);
        assert_eq!(out.history.len(), 120);
        assert_eq!(out.strategy, "combined");
        assert!(
            out.best.is_some(),
            "unconstrained search must find feasible points"
        );
    }

    #[test]
    fn phase_alternates_and_completes() {
        let out = run_strategy(&PhaseSearch::scaled(100), 100, 1);
        assert_eq!(out.history.len(), 100);
        assert!(out.best.is_some());
    }

    #[test]
    fn separate_switches_to_hw_phase() {
        let out = run_strategy(&SeparateSearch::scaled(100), 100, 2);
        assert_eq!(out.history.len(), 100);
        assert_eq!(out.strategy, "separate");
    }

    #[test]
    fn random_search_finds_valid_points() {
        let out = run_strategy(&RandomSearch, 150, 3);
        assert!(
            out.feasible_steps > 0,
            "some random proposals must be valid"
        );
        assert!(!out.front.is_empty());
    }

    #[test]
    fn strategies_are_reproducible() {
        let a = run_strategy(&CombinedSearch, 60, 42);
        let b = run_strategy(&CombinedSearch, 60, 42);
        let ra: Vec<f64> = a.history.iter().map(|r| r.reward).collect();
        let rb: Vec<f64> = b.history.iter().map(|r| r.reward).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn combined_outperforms_random_on_average() {
        // With a modest budget the LSTM controller should reach a better
        // best-reward than uniform random sampling (averaged over seeds).
        let mut combined_sum = 0.0;
        let mut random_sum = 0.0;
        for seed in 0..3 {
            combined_sum += run_strategy(&CombinedSearch, 400, seed)
                .best
                .map_or(0.0, |b| b.reward);
            random_sum += run_strategy(&RandomSearch, 400, seed)
                .best
                .map_or(0.0, |b| b.reward);
        }
        assert!(
            combined_sum > random_sum * 0.95,
            "combined {combined_sum} should at least match random {random_sum}"
        );
    }
}
