//! The REINFORCE training loop around the LSTM policy.
//!
//! §II-A: "At each search step t the policy is first sampled in order to get
//! a structure sequence s_t and later updated using REINFORCE and stochastic
//! gradient descent: ∇θ πθ(s_t) E(s_t)." An exponential-moving-average
//! baseline reduces gradient variance (standard for NAS controllers) and an
//! optional entropy bonus keeps exploration alive in long searches.

use std::time::Instant;

use rand::Rng;

use crate::optim::Adam;
use crate::policy::{LstmPolicy, Rollout};

/// Telemetry: wall-clock of [`ReinforceTrainer::propose`], µs.
static PROPOSE_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("rl.propose_us");
/// Telemetry: wall-clock of [`ReinforceTrainer::learn`], µs.
static LEARN_US: codesign_telemetry::Histogram = codesign_telemetry::Histogram::new("rl.learn_us");
/// Telemetry: the backward pass of each [`ReinforceTrainer::learn`]
/// (clearing and accumulating the policy's gradients), µs.
static BACKWARD_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("rl.backward_us");
/// Telemetry: the optimizer step of each [`ReinforceTrainer::learn`]
/// (gradient-norm clip and Adam update), µs.
static OPTIMIZER_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("rl.optimizer_us");

/// Hyper-parameters of the REINFORCE trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReinforceConfig {
    /// Optimizer learning rate.
    pub learning_rate: f64,
    /// EMA decay of the reward baseline (0 disables the baseline: every
    /// advantage is the reward itself, the first one included).
    pub baseline_decay: f64,
    /// Entropy-bonus coefficient (0 disables).
    pub entropy_beta: f64,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            baseline_decay: 0.9,
            entropy_beta: 0.01,
        }
    }
}

/// A policy plus its optimizer and baseline state.
///
/// # Examples
///
/// ```
/// use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let policy = LstmPolicy::new(PolicyConfig::new(vec![4, 4]), &mut rng);
/// let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
/// let rollout = trainer.propose(&mut rng);
/// trainer.learn(&rollout, 0.7); // reward for the proposed sequence
/// ```
#[derive(Debug, Clone)]
pub struct ReinforceTrainer {
    policy: LstmPolicy,
    optimizer: Adam,
    config: ReinforceConfig,
    baseline: Option<f64>,
    steps: u64,
}

impl ReinforceTrainer {
    /// Wraps a policy with an Adam optimizer and EMA baseline.
    #[must_use]
    pub fn new(policy: LstmPolicy, config: ReinforceConfig) -> Self {
        Self {
            policy,
            optimizer: Adam::new(config.learning_rate),
            config,
            baseline: None,
            steps: 0,
        }
    }

    /// Samples the next candidate sequence.
    #[must_use]
    pub fn propose<R: Rng + ?Sized>(&self, rng: &mut R) -> Rollout {
        let timer = codesign_telemetry::enabled().then(Instant::now);
        let rollout = self.policy.rollout(rng);
        if let Some(t) = timer {
            PROPOSE_US.record_duration(t.elapsed());
        }
        rollout
    }

    /// Updates the policy from one `(rollout, reward)` observation.
    pub fn learn(&mut self, rollout: &Rollout, reward: f64) {
        let timer = codesign_telemetry::enabled().then(Instant::now);
        let decay = self.config.baseline_decay;
        // The first reward seeds the moving average; with the baseline
        // disabled it is 0 from the first step.
        let baseline = self
            .baseline
            .unwrap_or(if decay > 0.0 { reward } else { 0.0 });
        let advantage = reward - baseline;
        self.baseline = Some(if decay > 0.0 {
            decay * baseline + (1.0 - decay) * reward
        } else {
            0.0
        });
        let backward = timer.map(|_| Instant::now());
        self.policy.zero_grad();
        self.policy
            .accumulate_grad(rollout, advantage, self.config.entropy_beta);
        let optimizer = timer.map(|_| Instant::now());
        self.optimizer.step(&mut self.policy);
        self.steps += 1;
        if let (Some(t), Some(b), Some(o)) = (timer, backward, optimizer) {
            BACKWARD_US.record_duration(o - b);
            OPTIMIZER_US.record_duration(o.elapsed());
            LEARN_US.record_duration(t.elapsed());
        }
    }

    /// The current reward baseline (None before the first update).
    #[must_use]
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Number of completed updates.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Read access to the wrapped policy.
    #[must_use]
    pub fn policy(&self) -> &LstmPolicy {
        &self.policy
    }

    /// Consumes the trainer, returning the trained policy.
    #[must_use]
    pub fn into_policy(self) -> LstmPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trainer(seed: u64, vocab: Vec<usize>) -> ReinforceTrainer {
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = LstmPolicy::new(PolicyConfig::new(vocab), &mut rng);
        ReinforceTrainer::new(policy, ReinforceConfig::default())
    }

    #[test]
    fn baseline_tracks_reward_ema() {
        let mut t = trainer(0, vec![2, 2]);
        let mut rng = SmallRng::seed_from_u64(1);
        let r = t.propose(&mut rng);
        t.learn(&r, 1.0);
        assert_eq!(t.baseline(), Some(1.0)); // first reward seeds the EMA
        let r = t.propose(&mut rng);
        t.learn(&r, 0.0);
        let b = t.baseline().unwrap();
        assert!(
            b < 1.0 && b > 0.5,
            "EMA should move toward 0 slowly, got {b}"
        );
    }

    #[test]
    fn disabled_baseline_keeps_the_first_update() {
        let config = ReinforceConfig {
            baseline_decay: 0.0,
            ..ReinforceConfig::default()
        };
        let trained = |reward: f64| {
            let mut rng = SmallRng::seed_from_u64(8);
            let policy = LstmPolicy::new(PolicyConfig::new(vec![3, 3]), &mut rng);
            let mut t = ReinforceTrainer::new(policy, config);
            let r = t.propose(&mut rng);
            t.learn(&r, reward);
            assert_eq!(t.baseline(), Some(0.0));
            t.into_policy()
        };
        assert_ne!(trained(1.0), trained(0.0));
    }

    #[test]
    fn trainer_learns_a_bandit() {
        // Reward = 1 when the first decision is option 2, else 0.
        let mut t = trainer(2, vec![3]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let r = t.propose(&mut rng);
            let reward = f64::from(r.actions[0] == 2);
            t.learn(&r, reward);
        }
        let p_target = t.policy().log_prob(&[2]).exp();
        assert!(p_target > 0.6, "bandit arm probability {p_target}");
        assert_eq!(t.steps(), 500);
    }

    #[test]
    fn trainer_learns_a_joint_sequence() {
        // Reward only for the exact pair (1, 3): forces credit assignment
        // across the two decode steps.
        let mut t = trainer(4, vec![2, 4]);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..800 {
            let r = t.propose(&mut rng);
            let reward = f64::from(r.actions == vec![1, 3]);
            t.learn(&r, reward);
        }
        let p = t.policy().log_prob(&[1, 3]).exp();
        assert!(p > 0.4, "joint sequence probability {p}");
    }

    #[test]
    fn negative_rewards_push_probability_down() {
        let mut t = trainer(6, vec![2]);
        let mut rng = SmallRng::seed_from_u64(7);
        let before = t.policy().log_prob(&[0]).exp();
        for _ in 0..300 {
            let r = t.propose(&mut rng);
            // Punish option 0, reward option 1 (like the paper's Rv).
            let reward = if r.actions[0] == 0 { -0.5 } else { 0.5 };
            t.learn(&r, reward);
        }
        let after = t.policy().log_prob(&[0]).exp();
        assert!(
            after < before,
            "punished option probability {before} -> {after}"
        );
        assert!(after < 0.2);
    }
}
