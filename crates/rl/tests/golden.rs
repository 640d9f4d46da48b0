//! Golden digests: committed fingerprints of the controller's and the
//! surrogate regressor's outputs, bit for bit.
//!
//! * A [`ReinforceTrainer`] (Adam) runs 300 steps on the paper space's
//!   34-decision vocabulary. The digest covers every rollout's actions,
//!   `log_prob` and `entropy`, then the final parameters and gradients.
//!   Every 25th reward is a spike large enough that the gradient norm
//!   exceeds the clip norm, so both branches of the clip are pinned.
//! * [`MlpRegressor::fit`] on a synthetic 18 → 4 set at 16, 17, 33, 300
//!   and 512 samples: the fitted model and its predictions. The model's
//!   `Debug` form prints every weight at round-trip precision, so its
//!   digest pins the weights; a change to the model's fields re-pins it.
//! * [`math::tanh`] over the 3,019,559 inputs of `tanh_inputs`: every
//!   output's bits. The constant was taken from `f64::tanh`, which is
//!   glibc 2.36's `tanh` on the x86-64 CPU with FMA it was pinned on;
//!   `math::tanh` ports that function and must keep it.
//!
//! The engine digests (`crates/engine/tests/golden.rs`) reach only the
//! 16-decision 4-vertex space and training sets whose size is a multiple
//! of 16; these cases cover the rest. A mismatch prints every actual
//! digest. A change that moves results on purpose re-pins the affected
//! constants in the same commit and says why.

use codesign_rl::{
    math, LstmPolicy, MlpRegressor, PolicyConfig, ReinforceConfig, ReinforceTrainer, Rollout,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod tanh_inputs;

/// Adam through `ReinforceTrainer`: rollouts, then parameters.
const TRAINER_ADAM: u64 = 0xfd24_80a9_9f8b_e9fb;
/// `MlpRegressor::fit` at every training-set size: model and predictions.
const REGRESSOR_FITS: u64 = 0x0eb2_909c_7ab8_3794;
/// `tanh` over `tanh_inputs::inputs()`: every output's bits, as glibc
/// 2.36 computes them with FMA.
const TANH_BITS: u64 = 0x821b_d5c8_80c8_3d62;

const STEPS: usize = 300;
/// Adam's global-norm clip.
const CLIP_NORM: f64 = 5.0;
const FIT_SIZES: [usize; 5] = [16, 17, 33, 300, 512];
const FEATURES: usize = 18;
const TARGETS: usize = 4;

/// Streaming FNV-1a 64.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn rollout(&mut self, rollout: &Rollout) {
        for &a in &rollout.actions {
            self.word(a as u64);
        }
        self.float(rollout.log_prob);
        self.float(rollout.entropy);
    }

    /// Every parameter, then every gradient, in `visit_params` order.
    fn policy(&mut self, policy: &mut LstmPolicy) {
        policy.visit_params(&mut |params, grads| {
            params
                .iter()
                .chain(grads.iter())
                .for_each(|&v| self.float(v));
        });
    }
}

/// The paper space's decision vocabulary, as
/// `CodesignSpace::paper().vocab_sizes()` lists it: 21 edge bits, 5
/// operations of 3 options, then the 8 accelerator parameters.
fn paper_vocab() -> Vec<usize> {
    let mut vocab = vec![2; 21];
    vocab.extend([3; 5]);
    vocab.extend([2, 5, 4, 3, 3, 2, 2, 6]);
    vocab
}

/// A learnable reward: the share of decisions equal to their position's
/// parity. Every 25th step multiplies it by 200, so the advantage and
/// the gradient norm spike past the clip norm.
fn reward(step: usize, actions: &[usize]) -> f64 {
    let hits = actions
        .iter()
        .enumerate()
        .filter(|&(i, &a)| a == i % 2)
        .count();
    let share = hits as f64 / actions.len() as f64;
    if step % 25 == 24 {
        200.0 * share
    } else {
        share
    }
}

/// Whether the optimizer about to step `policy` clips its gradient.
fn clips(policy: &mut LstmPolicy) -> bool {
    let mut sq = 0.0;
    policy.visit_params(&mut |_, grads| grads.iter().for_each(|g| sq += g * g));
    sq.sqrt() > CLIP_NORM
}

fn check(digests: &[(&str, u64, u64)]) {
    let mut mismatches = 0;
    for &(case, actual, expected) in digests {
        if actual != expected {
            eprintln!("golden {case}: expected {expected:#018x}, actual {actual:#018x}");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "{mismatches} golden digest(s) moved");
}

#[test]
fn reinforce_trainer_with_adam() {
    let mut rng = SmallRng::seed_from_u64(7);
    let policy = LstmPolicy::new(PolicyConfig::new(paper_vocab()), &mut rng);
    assert_eq!(policy.config().num_decisions(), 34);
    let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
    let mut digest = Digest::new();
    let mut clipped = 0;
    for step in 0..STEPS {
        let rollout = trainer.propose(&mut rng);
        digest.rollout(&rollout);
        trainer.learn(&rollout, reward(step, &rollout.actions));
        // `learn` leaves the step's gradients in the policy.
        clipped += usize::from(clips(&mut trainer.policy().clone()));
    }
    digest.policy(&mut trainer.into_policy());
    assert!(
        clipped > 0 && clipped < STEPS,
        "{clipped} of {STEPS} steps clipped"
    );
    check(&[("trainer adam", digest.0, TRAINER_ADAM)]);
}

/// `n` rows of a fixed 18 → 4 regression set. Features mix scales and
/// signs; the last one is constant, so its standard deviation takes the
/// floor. Targets are nonlinear in the features.
fn surrogate_set(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut x: Vec<f64> = (0..FEATURES - 1)
                .map(|j| {
                    let t = (i * FEATURES + j) as f64;
                    (t * 0.618_034).sin() * (1.0 + j as f64) + (t * 0.1).cos()
                })
                .collect();
            x.push(1.0);
            x
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| {
            vec![
                (x[0] * x[1] - x[2]).tanh(),
                (x[3].abs() + 1.0).ln() + 0.5 * x[4],
                x[5..12].iter().sum::<f64>(),
                x[12] * x[13] - x[14] * x[15] + x[16],
            ]
        })
        .collect();
    (xs, ys)
}

#[test]
fn regressor_fits() {
    let mut digest = Digest::new();
    for (seed, &n) in FIT_SIZES.iter().enumerate() {
        let (xs, ys) = surrogate_set(n);
        let mut rng = SmallRng::seed_from_u64(seed as u64);
        let mut model = MlpRegressor::new(FEATURES, TARGETS, &mut rng);
        model.fit(&xs, &ys);
        assert!(model.is_trained());
        digest.bytes(format!("{model:?}").as_bytes());
        let (probes, _) = surrogate_set(n + 8);
        for x in &probes {
            model.predict(x).iter().for_each(|&v| digest.float(v));
        }
    }
    check(&[("regressor fits", digest.0, REGRESSOR_FITS)]);
}

#[test]
fn tanh_bits() {
    let mut values = tanh_inputs::inputs();
    math::tanh(&mut values);
    let mut digest = Digest::new();
    values.iter().for_each(|&v| digest.float(v));
    check(&[("tanh", digest.0, TANH_BITS)]);
}
