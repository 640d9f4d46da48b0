//! The controller's optimizer: Adam at fixed hyper-parameters, after a
//! global-norm clip of the policy's gradient.

use crate::math::{self, AdamStep};
use crate::policy::LstmPolicy;

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical floor of the update's denominator.
const EPSILON: f64 = 1e-8;
/// Global gradient-norm clip.
const CLIP_NORM: f64 = 5.0;

/// Adam with bias correction and gradient clipping, the one optimizer of
/// [`crate::ReinforceTrainer`].
///
/// The paper updates the controller with "REINFORCE and stochastic gradient
/// descent"; every search, and every pinned controller digest, runs Adam.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam at the given learning rate.
    pub(crate) fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update from the policy's accumulated gradients: the
    /// global-norm clip's scale, then `math::adam` on each parameter slice,
    /// with the bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ` of this step.
    ///
    /// # Panics
    ///
    /// Panics when `policy` has another shape than the policy of the first
    /// step.
    pub(crate) fn step(&mut self, policy: &mut LstmPolicy) {
        let scale = grad_scale(policy, CLIP_NORM);
        self.t += 1;
        let t = self.t as f64;
        let s = AdamStep {
            scale,
            beta1: BETA1,
            beta2: BETA2,
            bc1: 1.0 - BETA1.powf(t),
            bc2: 1.0 - BETA2.powf(t),
            learning_rate: self.learning_rate,
            epsilon: EPSILON,
        };
        let mut slot = 0usize;
        let m_all = &mut self.m;
        let v_all = &mut self.v;
        policy.visit_params(&mut |params, grads| {
            if m_all.len() <= slot {
                m_all.push(vec![0.0; params.len()]);
                v_all.push(vec![0.0; params.len()]);
            }
            assert_eq!(
                m_all[slot].len(),
                params.len(),
                "optimizer state from a policy of another shape"
            );
            math::adam(&s, params, grads, &mut m_all[slot], &mut v_all[slot]);
            slot += 1;
        });
    }
}

/// Returns the multiplier that clips the global gradient norm to `clip_norm`
/// (1.0 when no clipping is needed).
///
/// The norm that decides, and that the scale divides by, is the square
/// root of one serial sum of the squared gradients in `visit_params`
/// order. A sum in another order rounds differently, and a clip by it
/// would move the trained weights. So a faster sum, eight accumulators per
/// slice, only rules clipping out. Both sums add the same rounded products
/// `g·g ≥ 0`, and any order of adding n such terms errs by at most
/// `γₙ₋₁ = (n−1)u / (1 − (n−1)u)` times their exact sum T (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §4.2; u = 2⁻⁵³,
/// and the accumulators' zero start values add exactly). So the serial
/// sum is at most `fast·(1 + γ)/(1 − γ)`, which for n < 10⁹ is at most
/// `fast·(1 + 2.3·10⁻⁷)`. The limit `clip·clip·(1 − 10⁻⁶)`, whose
/// constant and two products each round once, is at most `clip²·(1 −
/// 10⁻⁶ + 3u)` when it is normal. When `fast` is at most a normal limit,
/// the serial sum is at most `clip²`, its square root at most `clip`, and
/// the scale exactly 1. Any other `fast`, NaN and ∞ included, computes the
/// serial sum.
fn grad_scale(policy: &mut LstmPolicy, clip_norm: f64) -> f64 {
    let (mut fast, mut n) = (0.0, 0usize);
    policy.visit_params(&mut |_, grads| {
        fast += sum_of_squares(grads);
        n += grads.len();
    });
    let limit = clip_norm * clip_norm * (1.0 - 1e-6);
    if n < 1_000_000_000 && limit.is_normal() && fast <= limit {
        return 1.0;
    }
    let mut sq = 0.0;
    policy.visit_params(&mut |_, grads| {
        for g in grads.iter() {
            sq += g * g;
        }
    });
    let norm = sq.sqrt();
    if norm > clip_norm {
        clip_norm / norm
    } else {
        1.0
    }
}

/// `Σ g·g` over `grads` in eight interleaved partial sums, each product
/// rounded before it is added.
fn sum_of_squares(grads: &[f64]) -> f64 {
    let mut acc = [0.0; 8];
    let mut chunks = grads.chunks_exact(8);
    for chunk in chunks.by_ref() {
        for (a, g) in acc.iter_mut().zip(chunk) {
            *a += g * g;
        }
    }
    for (a, g) in acc.iter_mut().zip(chunks.remainder()) {
        *a += g * g;
    }
    acc.iter().fold(0.0, |sum, a| sum + a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn policy(seed: u64) -> LstmPolicy {
        policy_of_width(seed, 5)
    }

    fn policy_of_width(seed: u64, hidden: usize) -> LstmPolicy {
        let mut rng = SmallRng::seed_from_u64(seed);
        LstmPolicy::new(
            PolicyConfig {
                hidden,
                embed: 3,
                vocab_sizes: vec![3, 3],
            },
            &mut rng,
        )
    }

    #[test]
    #[should_panic(expected = "policy of another shape")]
    fn adam_rejects_a_policy_of_another_shape() {
        let mut adam = Adam::new(0.1);
        adam.step(&mut policy(1));
        adam.step(&mut policy_of_width(1, 4));
    }

    /// The gradient norm from one serial sum.
    fn serial_norm(p: &mut LstmPolicy) -> f64 {
        let mut sq = 0.0;
        p.visit_params(&mut |_, grads| grads.iter().for_each(|g| sq += g * g));
        sq.sqrt()
    }

    /// The clip's scale from the serial sum alone.
    fn serial_scale(p: &mut LstmPolicy, clip_norm: f64) -> f64 {
        let norm = serial_norm(p);
        if norm > clip_norm {
            clip_norm / norm
        } else {
            1.0
        }
    }

    #[test]
    fn grad_scale_is_the_serial_scale() {
        let mut p = policy(9);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut checked = 0;
        for case in 0..40 {
            let magnitude = 10f64.powi(case % 13 - 6);
            p.visit_params(&mut |_, grads| {
                for g in grads.iter_mut() {
                    *g = rng.gen_range(-1.0..1.0) * magnitude;
                }
            });
            match case % 10 {
                7 => p.visit_params(&mut |_, grads| grads[0] = f64::NAN),
                8 => p.visit_params(&mut |_, grads| grads[1] = f64::INFINITY),
                9 => p.visit_params(&mut |_, grads| grads.fill(0.0)),
                _ => {}
            }
            let norm = serial_norm(&mut p);
            let mut clips = vec![1e-160, 1e-300, 1e155, 1e200, f64::MAX, f64::INFINITY];
            if norm.is_finite() && norm > 0.0 {
                for k in 0..6u64 {
                    clips.push(f64::from_bits(norm.to_bits() + k));
                    clips.push(f64::from_bits(norm.to_bits() - k));
                }
                for f in [1e-7, 3e-7, 5e-7, 1e-6, 2e-6, 1e-3, 0.5, 4.0, 1e6] {
                    clips.push(norm * (1.0 + f));
                    clips.push(norm * (1.0 - f.min(0.5)));
                }
            }
            for clip in clips {
                assert_eq!(
                    grad_scale(&mut p, clip).to_bits(),
                    serial_scale(&mut p, clip).to_bits(),
                    "case {case}: norm {norm:e}, clip {clip:e}"
                );
                checked += 1;
            }
        }
        assert!(checked > 1000);
    }

    fn snapshot(p: &mut LstmPolicy) -> Vec<f64> {
        let mut out = Vec::new();
        p.visit_params(&mut |params, _| out.extend_from_slice(params));
        out
    }

    #[test]
    fn zero_gradient_means_no_movement() {
        let mut p = policy(3);
        p.zero_grad();
        let before = snapshot(&mut p);
        Adam::new(0.1).step(&mut p);
        let after = snapshot(&mut p);
        // Adam with zero grads still divides 0/sqrt(0)+eps = 0: no movement.
        assert_eq!(before, after);
    }

    #[test]
    fn adam_converges_on_simple_objective() {
        // Reward sequence [0,0] only; Adam should concentrate mass on it.
        let mut p = policy(6);
        let mut adam = Adam::new(0.02);
        let mut rng = SmallRng::seed_from_u64(7);
        let target = vec![0usize, 0];
        let before = p.log_prob(&target);
        for _ in 0..400 {
            let r = p.rollout(&mut rng);
            let reward = f64::from(r.actions == target);
            p.zero_grad();
            p.accumulate_grad(&r, reward - 0.3, 0.0);
            adam.step(&mut p);
        }
        let after = p.log_prob(&target);
        assert!(after > before + 0.5, "log-prob {before} -> {after}");
        assert!(after.exp() > 0.5, "target probability {}", after.exp());
    }
}
