//! A small deterministic MLP regressor for surrogate modeling.
//!
//! The search-guidance surrogate (`codesign_core::surrogate`) needs a cheap
//! multi-output regressor it can retrain online from a few hundred labeled
//! samples, with two hard requirements the controller's Adam optimizer
//! (which is coupled to the LSTM policy) does not meet:
//!
//! * **Bit-determinism**: given the same seed and the same training set,
//!   `fit` must produce bit-identical weights on every run and at any worker
//!   count — training is full-batch gradient descent over samples in index
//!   order, with no stochastic shuffling.
//! * **Self-contained normalization**: inputs and targets are standardized
//!   from the training set inside the model, so callers feed raw feature
//!   vectors and read raw predictions.

use rand::Rng;

use crate::math::tanh;
use crate::nn::Linear;

/// Hidden-layer width.
const HIDDEN: usize = 16;
/// Full-batch gradient-descent epochs per `fit` call.
const EPOCHS: usize = 120;
/// Learning rate.
const LEARNING_RATE: f64 = 0.25;
/// L2 weight penalty (applied to weights, not biases).
const L2_PENALTY: f64 = 1e-4;

/// A one-hidden-layer (tanh) multi-output regressor trained by full-batch
/// gradient descent, with internal input/target standardization. Its
/// width and training schedule are constants.
///
/// # Examples
///
/// ```
/// use codesign_rl::MlpRegressor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let mut model = MlpRegressor::new(1, 1, &mut rng);
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
/// let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![3.0 * x[0] + 1.0]).collect();
/// model.fit(&xs, &ys);
/// let pred = model.predict(&[10.0])[0];
/// assert!((pred - 31.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpRegressor {
    l1: Linear,
    l2: Linear,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: Vec<f64>,
    y_std: Vec<f64>,
    trained: bool,
}

impl MlpRegressor {
    /// A freshly initialized (untrained) regressor.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        Self {
            l1: Linear::new(inputs, HIDDEN, rng),
            l2: Linear::new(HIDDEN, outputs, rng),
            x_mean: vec![0.0; inputs],
            x_std: vec![1.0; inputs],
            y_mean: vec![0.0; outputs],
            y_std: vec![1.0; outputs],
            trained: false,
        }
    }

    /// Whether `fit` has run on a non-empty training set.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Input dimensionality.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.x_mean.len()
    }

    /// Output dimensionality.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.y_mean.len()
    }

    /// Fits the model to `(xs, ys)` by full-batch gradient descent.
    ///
    /// Standardization constants are recomputed from this training set, and
    /// samples are visited strictly in index order each epoch, so the result
    /// is a pure function of `(initial weights, xs, ys)` — bit-identical
    /// across runs and thread counts. Empty input is a no-op.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>]) {
        assert_eq!(xs.len(), ys.len(), "feature/target row count mismatch");
        if xs.is_empty() {
            return;
        }
        let rows = xs.len();
        let n = rows as f64;
        let (inputs, hidden, outputs) = (self.inputs(), HIDDEN, self.outputs());
        (self.x_mean, self.x_std) = standardization(xs, inputs);
        (self.y_mean, self.y_std) = standardization(ys, outputs);
        let xn: Vec<f64> = xs
            .iter()
            .flat_map(|x| standardize(x, &self.x_mean, &self.x_std))
            .collect();
        let yn: Vec<f64> = ys
            .iter()
            .flat_map(|y| standardize(y, &self.y_mean, &self.y_std))
            .collect();
        assert_eq!(xn.len(), rows * inputs, "feature dimension mismatch");
        assert_eq!(yn.len(), rows * outputs, "target dimension mismatch");
        // Layer 1's batched forward pass reads the inputs feature by feature.
        let mut xt = vec![0.0; rows * inputs];
        for (s, x) in xn.chunks_exact(inputs).enumerate() {
            for (c, &v) in x.iter().enumerate() {
                xt[c * rows + s] = v;
            }
        }
        // Per-sample hidden activations and output/hidden gradients.
        let mut h = vec![0.0; rows * hidden];
        let mut dout = vec![0.0; rows * outputs];
        let mut dh_pre = vec![0.0; rows * hidden];
        let mut out = vec![0.0; outputs];
        for _ in 0..EPOCHS {
            self.l1.zero_grad();
            self.l2.zero_grad();
            self.l1.w.matvec_batch_into(&xt, rows, &mut h);
            for hs in h.chunks_exact_mut(hidden) {
                for (v, b) in hs.iter_mut().zip(self.l1.b.iter()) {
                    *v += b;
                }
            }
            tanh(&mut h);
            let samples = h
                .chunks_exact(hidden)
                .zip(yn.chunks_exact(outputs))
                .zip(dout.chunks_exact_mut(outputs))
                .zip(dh_pre.chunks_exact_mut(hidden));
            for (((hs, y), ds), dhs) in samples {
                self.l2.forward_into(hs, &mut out);
                // Squared-error loss; d(out) = 2 (out - y) / n.
                for ((d, o), t) in ds.iter_mut().zip(out.iter()).zip(y.iter()) {
                    *d = 2.0 * (o - t) / n;
                }
                dhs.fill(0.0);
                self.l2.w.add_matvec_transpose(ds, dhs);
                for (d, hv) in dhs.iter_mut().zip(hs.iter()) {
                    *d *= 1.0 - hv * hv;
                }
            }
            self.l2.accumulate(
                rows,
                |s| &dout[s * outputs..][..outputs],
                |s| &h[s * hidden..][..hidden],
            );
            self.l1.accumulate(
                rows,
                |s| &dh_pre[s * hidden..][..hidden],
                |s| &xn[s * inputs..][..inputs],
            );
            sgd_step(&mut self.l1);
            sgd_step(&mut self.l2);
        }
        self.trained = true;
    }

    /// Predicts the (de-standardized) targets for one raw feature vector.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let xn = standardize(x, &self.x_mean, &self.x_std);
        let mut h = vec![0.0; HIDDEN];
        self.l1.forward_into(&xn, &mut h);
        tanh(&mut h);
        let mut out = vec![0.0; self.outputs()];
        self.l2.forward_into(&h, &mut out);
        for (o, (m, s)) in out
            .iter_mut()
            .zip(self.y_mean.iter().zip(self.y_std.iter()))
        {
            *o = *o * s + m;
        }
        out
    }
}

/// One gradient-descent step with L2 decay on the weights.
fn sgd_step(layer: &mut Linear) {
    let grads = layer.dw.as_slice();
    for (w, g) in layer.w.as_mut_slice().iter_mut().zip(grads.iter()) {
        *w -= LEARNING_RATE * (g + L2_PENALTY * *w);
    }
    for (b, g) in layer.b.iter_mut().zip(layer.db.iter()) {
        *b -= LEARNING_RATE * g;
    }
}

/// Per-column mean and (floored) standard deviation of a row-major set.
fn standardization(rows: &[Vec<f64>], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rows.len() as f64;
    let mut mean = vec![0.0; dim];
    for row in rows {
        for (m, v) in mean.iter_mut().zip(row.iter()) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; dim];
    for row in rows {
        for ((s, v), m) in var.iter_mut().zip(row.iter()).zip(mean.iter()) {
            *s += (v - m) * (v - m);
        }
    }
    let std = var
        .iter()
        .map(|s| (s / n).sqrt().max(1e-9))
        .collect::<Vec<_>>();
    (mean, std)
}

/// Applies `(x - mean) / std` element-wise.
fn standardize(x: &[f64], mean: &[f64], std: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(mean.iter().zip(std.iter()))
        .map(|(v, (m, s))| (v - m) / s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn linear_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // Deterministic quasi-random features; linear + mild nonlinear target.
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i as f64 * 0.37).sin();
                let b = (i as f64 * 0.11).cos();
                vec![a, b, a * b]
            })
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![2.0 * x[0] - x[1] + 0.5 * x[2] + 3.0, x[0] + x[1]])
            .collect();
        (xs, ys)
    }

    #[test]
    fn fit_is_bit_identical_across_runs() {
        let (xs, ys) = linear_dataset(64);
        let run = || {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut m = MlpRegressor::new(3, 2, &mut rng);
            m.fit(&xs, &ys);
            m.predict(&[0.3, -0.2, 0.1])
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn beats_mean_predictor_on_linear_data() {
        let (xs, ys) = linear_dataset(96);
        let (train_x, test_x) = xs.split_at(72);
        let (train_y, test_y) = ys.split_at(72);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut m = MlpRegressor::new(3, 2, &mut rng);
        m.fit(train_x, train_y);
        let mean: Vec<f64> = {
            let mut acc = [0.0; 2];
            for y in train_y {
                for (a, v) in acc.iter_mut().zip(y.iter()) {
                    *a += v;
                }
            }
            acc.iter().map(|v| v / train_y.len() as f64).collect()
        };
        let mse = |pred: &dyn Fn(&[f64]) -> Vec<f64>| {
            test_x
                .iter()
                .zip(test_y.iter())
                .map(|(x, y)| {
                    pred(x)
                        .iter()
                        .zip(y.iter())
                        .map(|(p, t)| (p - t) * (p - t))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / test_x.len() as f64
        };
        let model_mse = mse(&|x| m.predict(x));
        let mean_mse = mse(&|_| mean.clone());
        assert!(
            model_mse < 0.5 * mean_mse,
            "model mse {model_mse} vs mean-predictor mse {mean_mse}"
        );
    }

    #[test]
    fn untrained_model_reports_untrained() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = MlpRegressor::new(2, 1, &mut rng);
        assert!(!m.is_trained());
        assert_eq!(m.predict(&[0.0, 0.0]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn fit_rejects_short_feature_rows() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut m = MlpRegressor::new(2, 1, &mut rng);
        m.fit(&[vec![1.0, 2.0], vec![3.0]], &[vec![0.0], vec![1.0]]);
    }

    #[test]
    fn empty_fit_is_a_noop() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut m = MlpRegressor::new(2, 1, &mut rng);
        m.fit(&[], &[]);
        assert!(!m.is_trained());
    }
}
