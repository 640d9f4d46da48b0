//! First-order optimizers over the policy's parameter slices.

use crate::policy::LstmPolicy;

/// Stochastic gradient descent with optional momentum and gradient clipping.
///
/// The paper updates the controller with "REINFORCE and stochastic gradient
/// descent"; [`Adam`] is provided as the common practical alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum factor (0 disables).
    pub momentum: f64,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f64,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    #[must_use]
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            momentum: 0.0,
            clip_norm: 5.0,
            velocity: Vec::new(),
        }
    }

    /// Applies one update from the policy's accumulated gradients.
    pub fn step(&mut self, policy: &mut LstmPolicy) {
        let scale = grad_scale(policy, self.clip_norm);
        let mut slot = 0usize;
        let lr = self.learning_rate;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        policy.visit_params(&mut |params, grads| {
            if velocity.len() <= slot {
                velocity.push(vec![0.0; params.len()]);
            }
            for ((p, g), v) in params
                .iter_mut()
                .zip(grads.iter())
                .zip(velocity[slot].iter_mut())
            {
                let g = g * scale;
                *v = momentum * *v - lr * g;
                *p += *v;
            }
            slot += 1;
        });
    }
}

/// Adam optimizer with bias correction and gradient clipping.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub epsilon: f64,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with standard betas at the given learning rate.
    #[must_use]
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip_norm: 5.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update from the policy's accumulated gradients.
    pub fn step(&mut self, policy: &mut LstmPolicy) {
        let scale = grad_scale(policy, self.clip_norm);
        self.t += 1;
        let t = self.t as f64;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.learning_rate;
        let eps = self.epsilon;
        let mut slot = 0usize;
        let m_all = &mut self.m;
        let v_all = &mut self.v;
        policy.visit_params(&mut |params, grads| {
            if m_all.len() <= slot {
                m_all.push(vec![0.0; params.len()]);
                v_all.push(vec![0.0; params.len()]);
            }
            let moments = m_all[slot].iter_mut().zip(v_all[slot].iter_mut());
            for ((p, g), (m, v)) in params.iter_mut().zip(grads.iter()).zip(moments) {
                let g = g * scale;
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
            slot += 1;
        });
    }
}

/// Returns the multiplier that clips the global gradient norm to `clip_norm`
/// (1.0 when clipping is disabled or unnecessary).
///
/// The squared norm is one serial sum over every gradient in
/// `visit_params` order. That order is part of the output: a blocked or
/// multi-accumulator sum would round differently and move the trained
/// weights.
fn grad_scale(policy: &mut LstmPolicy, clip_norm: f64) -> f64 {
    if clip_norm <= 0.0 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn policy(seed: u64) -> LstmPolicy {
        let mut rng = SmallRng::seed_from_u64(seed);
        LstmPolicy::new(
            PolicyConfig {
                hidden: 5,
                embed: 3,
                vocab_sizes: vec![3, 3],
            },
            &mut rng,
        )
    }

    fn snapshot(p: &mut LstmPolicy) -> Vec<f64> {
        let mut out = Vec::new();
        p.visit_params(&mut |params, _| out.extend_from_slice(params));
        out
    }

    #[test]
    fn sgd_moves_parameters_against_gradient() {
        let mut p = policy(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let r = p.rollout(&mut rng);
        p.zero_grad();
        p.accumulate_grad(&r, 1.0, 0.0);
        let before = snapshot(&mut p);
        Sgd::new(0.1).step(&mut p);
        let after = snapshot(&mut p);
        assert_ne!(before, after);
    }

    #[test]
    fn zero_gradient_means_no_movement() {
        let mut p = policy(3);
        p.zero_grad();
        let before = snapshot(&mut p);
        Sgd::new(0.1).step(&mut p);
        Adam::new(0.1).step(&mut p);
        let after = snapshot(&mut p);
        // Adam with zero grads still divides 0/sqrt(0)+eps = 0: no movement.
        assert_eq!(before, after);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut p = policy(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let r = p.rollout(&mut rng);
        p.zero_grad();
        // Gigantic advantage => gigantic gradient, must be clipped.
        p.accumulate_grad(&r, 1e9, 0.0);
        let before = snapshot(&mut p);
        let mut sgd = Sgd::new(0.1);
        sgd.clip_norm = 1.0;
        sgd.step(&mut p);
        let after = snapshot(&mut p);
        let delta: f64 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(delta <= 0.1 + 1e-9, "update norm {delta} exceeds lr * clip");
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
