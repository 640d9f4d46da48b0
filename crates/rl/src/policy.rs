//! The sequence policy: one LSTM cell + linear head with masked softmax.
//!
//! At each search step the controller emits one decision per search-space
//! dimension (cell edges, cell ops, accelerator parameters). The policy
//! decodes them autoregressively: the embedding of the previous decision
//! feeds the LSTM, whose hidden state feeds a shared linear head; logits
//! beyond the current dimension's option count are masked out. This is the
//! architecture of §II-A ("a single LSTM cell followed by a linear layer as
//! in \[5\]").

use rand::Rng;

use crate::math::{entropy, masked_softmax};
use crate::nn::{Embedding, Linear, LstmCell};

/// Hyper-parameters of an [`LstmPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// LSTM hidden width.
    pub hidden: usize,
    /// Decision-embedding width.
    pub embed: usize,
    /// Number of options for each decision, in decode order.
    pub vocab_sizes: Vec<usize>,
}

impl PolicyConfig {
    /// A policy over `vocab_sizes` with the default 64/32 widths.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_sizes` is empty or contains a zero.
    #[must_use]
    pub fn new(vocab_sizes: Vec<usize>) -> Self {
        assert!(
            !vocab_sizes.is_empty(),
            "policy needs at least one decision"
        );
        assert!(
            vocab_sizes.iter().all(|&v| v > 0),
            "every decision needs options"
        );
        Self {
            hidden: 64,
            embed: 32,
            vocab_sizes,
        }
    }

    /// Largest option count across decisions (the shared head width).
    #[must_use]
    pub fn max_vocab(&self) -> usize {
        self.vocab_sizes.iter().copied().max().unwrap_or(1)
    }

    /// Number of decisions per sequence.
    #[must_use]
    pub fn num_decisions(&self) -> usize {
        self.vocab_sizes.len()
    }
}

/// One sampled decision sequence with everything needed for REINFORCE.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollout {
    /// Chosen option index per decision.
    pub actions: Vec<usize>,
    /// Total log-probability of the sequence under the sampling policy.
    pub log_prob: f64,
    /// Summed per-step entropy of the sampling distributions.
    pub entropy: f64,
    /// One record per decision, `LstmPolicy::stride` values each: the
    /// input embedding `x`, the LSTM step record `[i f g o | c | h | tanh c]`
    /// and the head-wide masked `probs`.
    trace: Vec<f64>,
}

/// The LSTM controller policy.
///
/// # Examples
///
/// ```
/// use codesign_rl::{LstmPolicy, PolicyConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let policy = LstmPolicy::new(PolicyConfig::new(vec![3, 5, 2]), &mut rng);
/// let rollout = policy.rollout(&mut rng);
/// assert_eq!(rollout.actions.len(), 3);
/// assert!(rollout.actions[1] < 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LstmPolicy {
    config: PolicyConfig,
    lstm: LstmCell,
    head: Linear,
    embed: Embedding,
    /// Embedding-row offset per decision position (row 0 is the start token).
    offsets: Vec<usize>,
}

impl LstmPolicy {
    /// Builds a randomly-initialized policy.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(config: PolicyConfig, rng: &mut R) -> Self {
        let mut offsets = Vec::with_capacity(config.vocab_sizes.len());
        let mut total = 1usize; // row 0: start-of-sequence token
        for &v in &config.vocab_sizes {
            offsets.push(total);
            total += v;
        }
        Self {
            lstm: LstmCell::new(config.embed, config.hidden, rng),
            head: Linear::new(config.hidden, config.max_vocab(), rng),
            embed: Embedding::new(total, config.embed, rng),
            config,
            offsets,
        }
    }

    /// The policy's configuration.
    #[must_use]
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The embedding row fed to decision `t` of `actions`: the start token
    /// for the first decision, else the previous decision's choice.
    fn token(&self, actions: &[usize], t: usize) -> usize {
        t.checked_sub(1)
            .map_or(0, |prev| self.offsets[prev] + actions[prev])
    }

    /// Values per decision in a rollout trace: `x`, the LSTM step record
    /// and the head-wide `probs`.
    fn stride(&self) -> usize {
        self.config.embed + self.lstm.record_len() + self.head.b.len()
    }

    /// Samples one decision sequence, recording the traces needed for
    /// gradient accumulation.
    #[must_use]
    pub fn rollout<R: Rng + ?Sized>(&self, rng: &mut R) -> Rollout {
        self.decode(|probs, rng_inner| sample_categorical(probs, rng_inner), rng)
    }

    /// The most likely sequence under the current policy (greedy decode).
    #[must_use]
    pub fn greedy(&self) -> Vec<usize> {
        let mut dummy = NoRng;
        self.decode(
            |probs, _| {
                probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            },
            &mut dummy,
        )
        .actions
    }

    /// Log-probability of a fixed action sequence (used by tests and
    /// gradient checks; no traces kept).
    ///
    /// # Panics
    ///
    /// Panics if `actions` has the wrong length or an out-of-range action.
    #[must_use]
    pub fn log_prob(&self, actions: &[usize]) -> f64 {
        assert_eq!(
            actions.len(),
            self.config.num_decisions(),
            "action count mismatch"
        );
        let mut dummy = NoRng;
        let mut step = 0usize;
        let rollout = self.decode(
            |_, _| {
                let a = actions[step];
                step += 1;
                a
            },
            &mut dummy,
        );
        rollout.log_prob
    }

    fn decode<R: Rng + ?Sized, F: FnMut(&[f64], &mut R) -> usize>(
        &self,
        mut choose: F,
        rng: &mut R,
    ) -> Rollout {
        let n = self.config.num_decisions();
        let (embed, cell) = (self.config.embed, self.lstm.record_len());
        let stride = self.stride();
        let mut trace = vec![0.0; n * stride];
        let mut zh = vec![0.0; 4 * self.config.hidden];
        let zeros = vec![0.0; self.config.hidden];
        let mut actions = Vec::with_capacity(n);
        let mut log_prob = 0.0;
        let mut total_entropy = 0.0;
        for (t, &live) in self.config.vocab_sizes.iter().enumerate() {
            let (done, rest) = trace.split_at_mut(t * stride);
            let (x, rest) = rest[..stride].split_at_mut(embed);
            let (record, probs) = rest.split_at_mut(cell);
            let prev = t
                .checked_sub(1)
                .map(|p| &done[p * stride + embed..][..cell]);
            let h_prev = prev.map_or(&zeros[..], LstmCell::hidden_state);
            let c_prev = prev.map_or(&zeros[..], LstmCell::cell_state);
            x.copy_from_slice(self.embed.forward(self.token(&actions, t)));
            self.lstm.forward(x, h_prev, c_prev, &mut zh, record);
            self.head
                .forward_into(LstmCell::hidden_state(record), probs);
            masked_softmax(probs, live);
            let action = choose(probs, rng);
            assert!(
                action < live,
                "chosen action {action} out of range at step {t}"
            );
            log_prob += probs[action].max(1e-300).ln();
            total_entropy += entropy(probs);
            actions.push(action);
        }
        Rollout {
            actions,
            log_prob,
            entropy: total_entropy,
            trace,
        }
    }

    /// Accumulates REINFORCE gradients for one rollout:
    /// `∇θ [-advantage · log πθ(actions) - entropy_beta · H(πθ)]`.
    ///
    /// Gradients add up across calls; pair with
    /// [`LstmPolicy::zero_grad`] and an optimizer step.
    ///
    /// # Panics
    ///
    /// Panics if `rollout` was decoded by a policy of another shape.
    pub fn accumulate_grad(&mut self, rollout: &Rollout, advantage: f64, entropy_beta: f64) {
        let n = self.config.num_decisions();
        let (embed, hsz, cell) = (
            self.config.embed,
            self.config.hidden,
            self.lstm.record_len(),
        );
        let vocab = self.head.b.len();
        let stride = self.stride();
        assert_eq!(
            rollout.trace.len(),
            n * stride,
            "rollout from a policy of another shape"
        );
        let x_of = |t: usize| &rollout.trace[t * stride..][..embed];
        let record_of = |t: usize| &rollout.trace[t * stride + embed..][..cell];
        let record_before = |t: usize| t.checked_sub(1).map(record_of);
        let zeros = vec![0.0; hsz];

        // The backward recurrence first: it reads only weights. Steps run in
        // reverse; each one's logit and gate gradients are kept for the
        // weight-gradient pass below.
        let mut dlogits = vec![0.0; n * vocab];
        let mut dz = vec![0.0; n * 4 * hsz];
        let (mut dh, mut dh_future, mut dc) = (vec![0.0; hsz], vec![0.0; hsz], vec![0.0; hsz]);
        let mut dx = vec![0.0; embed];
        for t in (0..n).rev() {
            let probs = &rollout.trace[t * stride + embed + cell..][..vocab];
            let step_entropy = entropy(probs);
            let action = rollout.actions[t];
            let dl = &mut dlogits[t * vocab..][..vocab];
            let live = self.config.vocab_sizes[t];
            for (k, (d, &p)) in dl.iter_mut().zip(probs).enumerate().take(live) {
                if p <= 0.0 {
                    continue;
                }
                // d/dlogit of -adv*log p[action]:
                let onehot = f64::from(k == action);
                *d = advantage * (p - onehot);
                // d/dlogit of -beta*H:
                if entropy_beta > 0.0 {
                    *d += entropy_beta * p * (p.ln() + step_entropy);
                }
            }
            dh.fill(0.0);
            self.head.w.add_matvec_transpose(dl, &mut dh);
            for (a, b) in dh.iter_mut().zip(dh_future.iter()) {
                *a += b;
            }
            let c_prev = record_before(t).map_or(&zeros[..], LstmCell::cell_state);
            let dz_t = &mut dz[t * 4 * hsz..][..4 * hsz];
            self.lstm
                .backward(record_of(t), c_prev, &mut dh, &mut dc, dz_t, &mut dx);
            self.embed.backward(self.token(&rollout.actions, t), &dx);
            std::mem::swap(&mut dh, &mut dh_future);
        }

        // Then each weight gradient in one rank-n pass, steps in the same
        // reverse order.
        let rev = |t: usize| n - 1 - t;
        self.lstm.accumulate(
            n,
            |t| &dz[rev(t) * 4 * hsz..][..4 * hsz],
            |t| x_of(rev(t)),
            |t| record_before(rev(t)).map_or(&zeros[..], LstmCell::hidden_state),
        );
        self.head.accumulate(
            n,
            |t| &dlogits[rev(t) * vocab..][..vocab],
            |t| LstmCell::hidden_state(record_of(rev(t))),
        );
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.head.zero_grad();
        self.embed.zero_grad();
    }

    /// Visits `(parameters, gradients)` slices in a stable order — the
    /// interface optimizers consume.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.lstm.wx.as_mut_slice(), self.lstm.dwx.as_mut_slice());
        f(self.lstm.wh.as_mut_slice(), self.lstm.dwh.as_mut_slice());
        f(&mut self.lstm.b, &mut self.lstm.db);
        f(self.head.w.as_mut_slice(), self.head.dw.as_mut_slice());
        f(&mut self.head.b, &mut self.head.db);
        f(
            self.embed.table.as_mut_slice(),
            self.embed.dtable.as_mut_slice(),
        );
    }
}

/// Samples an index from a probability vector.
fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut last_positive = 0;
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.0 {
            last_positive = i;
            acc += p;
            if u < acc {
                return i;
            }
        }
    }
    last_positive
}

/// RNG stub for deterministic decodes (greedy / forced actions).
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        0
    }
    fn next_u64(&mut self) -> u64 {
        0
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        dest.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_policy(seed: u64) -> LstmPolicy {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = PolicyConfig {
            hidden: 6,
            embed: 4,
            vocab_sizes: vec![3, 2, 4],
        };
        LstmPolicy::new(config, &mut rng)
    }

    #[test]
    fn rollout_respects_vocab_bounds() {
        let policy = tiny_policy(0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = policy.rollout(&mut rng);
            assert!(r.actions[0] < 3 && r.actions[1] < 2 && r.actions[2] < 4);
            assert!(r.log_prob < 0.0);
            assert!(r.entropy > 0.0);
        }
    }

    #[test]
    fn log_prob_matches_rollout_trace() {
        let policy = tiny_policy(7);
        let mut rng = SmallRng::seed_from_u64(2);
        let r = policy.rollout(&mut rng);
        let lp = policy.log_prob(&r.actions);
        assert!((lp - r.log_prob).abs() < 1e-12);
    }

    #[test]
    fn greedy_is_deterministic() {
        let policy = tiny_policy(3);
        assert_eq!(policy.greedy(), policy.greedy());
    }

    #[test]
    fn sequence_probabilities_sum_to_one() {
        // Sum of exp(log_prob) over all 3*2*4 = 24 sequences must be 1.
        let policy = tiny_policy(11);
        let mut total = 0.0;
        for a in 0..3 {
            for b in 0..2 {
                for c in 0..4 {
                    total += policy.log_prob(&[a, b, c]).exp();
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }

    #[test]
    fn policy_gradcheck_via_finite_differences() {
        // Loss = -adv * log pi(actions); compare analytic parameter grads
        // against central differences for a spread of parameters.
        let mut policy = tiny_policy(5);
        let actions = vec![2usize, 0, 3];
        let advantage = 0.8;
        let mut rng = SmallRng::seed_from_u64(6);
        // Build the rollout trace by forcing the actions.
        let r = {
            // log_prob path has no trace, so re-decode with forced actions.
            let mut step = 0usize;
            let forced = policy.clone();

            forced.decode(
                |_, _| {
                    let a = actions[step];
                    step += 1;
                    a
                },
                &mut rng,
            )
        };
        policy.zero_grad();
        policy.accumulate_grad(&r, advantage, 0.0);

        let eps = 1e-5;
        // Collect analytic grads into a flat vector.
        let mut flat_grads: Vec<f64> = Vec::new();
        policy.visit_params(&mut |_, g| flat_grads.extend_from_slice(g));
        // Check a deterministic sample of parameter slots.
        let mut slot = 0usize;
        let mut failures = Vec::new();
        let reference = policy.clone();
        let mut param_index_base = 0usize;
        let mut probes: Vec<(usize, f64)> = Vec::new();
        {
            let mut p = reference.clone();
            p.visit_params(&mut |params, _| {
                for i in (0..params.len()).step_by(17) {
                    probes.push((param_index_base + i, params[i]));
                }
                param_index_base += params.len();
            });
        }
        for &(global_idx, orig) in probes.iter().take(40) {
            let eval = |v: f64| {
                let mut p2 = reference.clone();
                let mut base = 0usize;
                p2.visit_params(&mut |params, _| {
                    if global_idx >= base && global_idx < base + params.len() {
                        params[global_idx - base] = v;
                    }
                    base += params.len();
                });
                -advantage * p2.log_prob(&actions)
            };
            let num = (eval(orig + eps) - eval(orig - eps)) / (2.0 * eps);
            let analytic = flat_grads[global_idx];
            if (analytic - num).abs() > 1e-6 * (1.0 + num.abs()) {
                failures.push((global_idx, analytic, num));
            }
            slot += 1;
        }
        assert!(
            slot > 10,
            "gradcheck must probe a meaningful number of slots"
        );
        assert!(failures.is_empty(), "gradient mismatches: {failures:?}");
    }

    #[test]
    fn entropy_gradient_flattens_distribution() {
        // Pure entropy ascent (advantage 0) should push probabilities
        // toward uniform.
        let mut policy = tiny_policy(9);
        let mut rng = SmallRng::seed_from_u64(10);
        let initial_spread = {
            let r = policy.rollout(&mut rng);
            r.entropy
        };
        for _ in 0..200 {
            let r = policy.rollout(&mut rng);
            policy.zero_grad();
            policy.accumulate_grad(&r, 0.0, 0.1);
            // Plain SGD step.
            policy.visit_params(&mut |params, grads| {
                for (p, g) in params.iter_mut().zip(grads.iter()) {
                    *p -= 0.05 * g;
                }
            });
        }
        let final_entropy = policy.rollout(&mut rng).entropy;
        let max_entropy = (3.0f64.ln()) + (2.0f64.ln()) + (4.0f64.ln());
        assert!(
            final_entropy >= initial_spread - 1e-9,
            "entropy should not shrink: {initial_spread} -> {final_entropy}"
        );
        assert!(final_entropy <= max_entropy + 1e-9);
    }

    #[test]
    fn reinforce_increases_probability_of_rewarded_sequence() {
        let mut policy = tiny_policy(13);
        let target = vec![1usize, 1, 2];
        let before = policy.log_prob(&target);
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..300 {
            let r = policy.rollout(&mut rng);
            let reward = if r.actions == target { 1.0 } else { 0.0 };
            policy.zero_grad();
            policy.accumulate_grad(&r, reward - 0.2, 0.0);
            policy.visit_params(&mut |params, grads| {
                for (p, g) in params.iter_mut().zip(grads.iter()) {
                    *p -= 0.02 * g;
                }
            });
        }
        let after = policy.log_prob(&target);
        assert!(
            after > before,
            "target log-prob should rise: {before} -> {after}"
        );
    }
}
