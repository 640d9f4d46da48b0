//! Neural-network layers with manual forward/backward passes.
//!
//! The controller is "a single LSTM cell followed by a linear layer" (§II-A,
//! after [Zoph & Le 2016]). Everything here is written from scratch with
//! explicit gradients; `tests` include finite-difference checks of every
//! layer, and the policy-level gradient check lives in [`crate::policy`].
//!
//! Passes write into caller-owned buffers and allocate nothing
//! (`tests/alloc_budget.rs` counts). Backward passes carry only the
//! gradients that flow between steps or layers; each layer's `accumulate`
//! then adds a whole sequence's weight gradients in one rank-`k` pass
//! ([`Matrix::add_outer_sum`]), in the caller's step order.

use rand::Rng;

use crate::math::{sigmoid, tanh, Matrix};

/// A fully-connected layer `y = W·x + b` with gradient accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights, `out × in`.
    pub w: Matrix,
    /// Bias, `out`.
    pub b: Vec<f64>,
    /// Weight gradient accumulator.
    pub dw: Matrix,
    /// Bias gradient accumulator.
    pub db: Vec<f64>,
}

impl Linear {
    /// Xavier-initialized layer.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(outputs, inputs, rng),
            b: vec![0.0; outputs],
            dw: Matrix::zeros(outputs, inputs),
            db: vec![0.0; outputs],
        }
    }

    /// Forward pass into `y`.
    pub fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        self.w.matvec_into(x, y);
        for (yi, bi) in y.iter_mut().zip(self.b.iter()) {
            *yi += bi;
        }
    }

    /// Accumulates the gradients of `k` samples, `t = 0, 1, …, k − 1` in
    /// order: `dW += Σ_t dy(t) ⊗ x(t)` and `db += Σ_t dy(t)`. The input
    /// gradient of sample `t` is `Wᵀ·dy(t)`
    /// ([`Matrix::add_matvec_transpose`]).
    pub fn accumulate<'a>(
        &mut self,
        k: usize,
        dy: impl Fn(usize) -> &'a [f64],
        x: impl Fn(usize) -> &'a [f64],
    ) {
        self.dw.add_outer_sum(k, &dy, x);
        for t in 0..k {
            for (g, d) in self.db.iter_mut().zip(dy(t)) {
                *g += d;
            }
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dw.fill_zero();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// A learned lookup table mapping token ids to vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// `vocab × dim` table.
    pub table: Matrix,
    /// Gradient accumulator.
    pub dtable: Matrix,
}

impl Embedding {
    /// Uniformly-initialized table.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            table: Matrix::uniform(vocab, dim, 0.1, rng),
            dtable: Matrix::zeros(vocab, dim),
        }
    }

    /// The embedding vector of `id`.
    #[must_use]
    pub fn forward(&self, id: usize) -> &[f64] {
        self.table.row(id)
    }

    /// Accumulates the gradient flowing into `id`'s row.
    pub fn backward(&mut self, id: usize, dvec: &[f64]) {
        for (g, d) in self.dtable.row_mut(id).iter_mut().zip(dvec.iter()) {
            *g += d;
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dtable.fill_zero();
    }
}

/// Values per unit of hidden width in one LSTM step record.
const RECORD_PARTS: usize = 7;

/// A single LSTM cell with gradient accumulators.
///
/// Gate layout in the stacked weight matrices is `[i, f, g, o]`. A forward
/// step writes a *step record* of `7 × hidden` values, which its backward
/// step reads back: the gate activations `[i f g o]`, then the new cell
/// state `c`, the new hidden state `h` and `tanh(c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    /// Input weights, `4H × I`.
    pub wx: Matrix,
    /// Recurrent weights, `4H × H`.
    pub wh: Matrix,
    /// Bias, `4H` (forget-gate chunk initialized to 1 for gradient flow).
    pub b: Vec<f64>,
    /// Gradients.
    pub dwx: Matrix,
    /// Recurrent weight gradients.
    pub dwh: Matrix,
    /// Bias gradients.
    pub db: Vec<f64>,
    hidden: usize,
}

impl LstmCell {
    /// New cell with `inputs`-dimensional input and `hidden`-dimensional state.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(inputs: usize, hidden: usize, rng: &mut R) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        // Standard trick: forget-gate bias starts at 1.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            wx: Matrix::xavier(4 * hidden, inputs, rng),
            wh: Matrix::xavier(4 * hidden, hidden, rng),
            b,
            dwx: Matrix::zeros(4 * hidden, inputs),
            dwh: Matrix::zeros(4 * hidden, hidden),
            db: vec![0.0; 4 * hidden],
            hidden,
        }
    }

    /// State dimensionality.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Length of one step record.
    #[must_use]
    pub fn record_len(&self) -> usize {
        RECORD_PARTS * self.hidden
    }

    /// The new cell state `c` in a step record.
    #[must_use]
    pub fn cell_state(record: &[f64]) -> &[f64] {
        let h = record.len() / RECORD_PARTS;
        &record[4 * h..5 * h]
    }

    /// The new hidden state `h` in a step record.
    #[must_use]
    pub fn hidden_state(record: &[f64]) -> &[f64] {
        let h = record.len() / RECORD_PARTS;
        &record[5 * h..6 * h]
    }

    /// One step from `(x, h_prev, c_prev)`, written into `record`
    /// ([`LstmCell::record_len`] values). `zh` is `4H` of scratch.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
        zh: &mut [f64],
        record: &mut [f64],
    ) {
        let hsz = self.hidden;
        assert_eq!(
            record.len(),
            self.record_len(),
            "lstm record length mismatch"
        );
        let (z, state) = record.split_at_mut(4 * hsz);
        self.wx.matvec_into(x, z);
        self.wh.matvec_into(h_prev, zh);
        for (a, (b, c)) in z.iter_mut().zip(zh.iter().zip(self.b.iter())) {
            *a += b + c;
        }
        let (i, rest) = z.split_at_mut(hsz);
        let (f, rest) = rest.split_at_mut(hsz);
        let (g, o) = rest.split_at_mut(hsz);
        for ((i, f), o) in i.iter_mut().zip(f.iter_mut()).zip(o.iter_mut()) {
            *i = sigmoid(*i);
            *f = sigmoid(*f);
            *o = sigmoid(*o);
        }
        tanh(g);
        let (c, rest) = state.split_at_mut(hsz);
        let (h, tc) = rest.split_at_mut(hsz);
        for k in 0..hsz {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
        }
        tc.copy_from_slice(c);
        tanh(tc);
        for k in 0..hsz {
            h[k] = o[k] * tc[k];
        }
    }

    /// Backward through one step record, given the step's `c_prev`. On
    /// entry `dh`/`dc` hold the gradients flowing into this step's `h` and
    /// `c`; on return they hold those flowing into `h_prev` and `c_prev`.
    /// Writes the gate pre-activation gradient into `dz` (`4H`) and the
    /// input gradient into `dx`. The weight gradients are left to
    /// [`LstmCell::accumulate`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(
        &self,
        record: &[f64],
        c_prev: &[f64],
        dh: &mut [f64],
        dc: &mut [f64],
        dz: &mut [f64],
        dx: &mut [f64],
    ) {
        let hsz = self.hidden;
        assert_eq!(
            record.len(),
            self.record_len(),
            "lstm record length mismatch"
        );
        let (gates, state) = record.split_at(4 * hsz);
        let (i, rest) = gates.split_at(hsz);
        let (f, rest) = rest.split_at(hsz);
        let (g, o) = rest.split_at(hsz);
        let tc = &state[2 * hsz..];
        for k in 0..hsz {
            let do_ = dh[k] * tc[k];
            let dck = dc[k] + dh[k] * o[k] * (1.0 - tc[k] * tc[k]);
            let di = dck * g[k];
            let df = dck * c_prev[k];
            let dg = dck * i[k];
            dc[k] = dck * f[k];
            dz[k] = di * i[k] * (1.0 - i[k]);
            dz[hsz + k] = df * f[k] * (1.0 - f[k]);
            dz[2 * hsz + k] = dg * (1.0 - g[k] * g[k]);
            dz[3 * hsz + k] = do_ * o[k] * (1.0 - o[k]);
        }
        dx.fill(0.0);
        self.wx.add_matvec_transpose(dz, dx);
        dh.fill(0.0);
        self.wh.add_matvec_transpose(dz, dh);
    }

    /// Accumulates the weight gradients of `k` steps, `t = 0, 1, …, k − 1`
    /// in order: `dWx += Σ_t dz(t) ⊗ x(t)`, `dWh += Σ_t dz(t) ⊗ h_prev(t)`
    /// and `db += Σ_t dz(t)`.
    pub fn accumulate<'a>(
        &mut self,
        k: usize,
        dz: impl Fn(usize) -> &'a [f64],
        x: impl Fn(usize) -> &'a [f64],
        h_prev: impl Fn(usize) -> &'a [f64],
    ) {
        self.dwx.add_outer_sum(k, &dz, x);
        self.dwh.add_outer_sum(k, &dz, h_prev);
        for t in 0..k {
            for (g, d) in self.db.iter_mut().zip(dz(t)) {
                *g += d;
            }
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dwx.fill_zero();
        self.dwh.fill_zero();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-5;
    const TOL: f64 = 1e-6;

    /// `sum(y²)` for `y = layer(x)`.
    fn linear_loss(layer: &Linear, x: &[f64]) -> f64 {
        let mut y = vec![0.0; layer.b.len()];
        layer.forward_into(x, &mut y);
        y.iter().map(|u| u * u).sum::<f64>()
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = vec![0.3, -0.7, 0.2];
        // Loss: sum of outputs squared.
        let mut dy = vec![0.0; 2];
        layer.forward_into(&x, &mut dy);
        dy.iter_mut().for_each(|v| *v *= 2.0);
        layer.zero_grad();
        layer.accumulate(1, |_| &dy, |_| &x);
        let mut dx = vec![0.0; 3];
        layer.w.add_matvec_transpose(&dy, &mut dx);
        // Check weight and bias gradients.
        for r in 0..2 {
            for c in 0..3 {
                let orig = layer.w.get(r, c);
                let eval = |v: f64| {
                    let mut l2 = layer.clone();
                    l2.w.set(r, c, v);
                    linear_loss(&l2, &x)
                };
                let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
                assert!(
                    (layer.dw.get(r, c) - num).abs() < TOL,
                    "dW[{r},{c}] analytic {} vs numeric {}",
                    layer.dw.get(r, c),
                    num
                );
            }
            let eval = |v: f64| {
                let mut l2 = layer.clone();
                l2.b[r] = v;
                linear_loss(&l2, &x)
            };
            let num = (eval(layer.b[r] + EPS) - eval(layer.b[r] - EPS)) / (2.0 * EPS);
            assert!((layer.db[r] - num).abs() < TOL, "db[{r}]");
        }
        // Check input gradient.
        for k in 0..3 {
            let eval = |v: f64| {
                let mut x2 = x.clone();
                x2[k] = v;
                linear_loss(&layer, &x2)
            };
            let num = (eval(x[k] + EPS) - eval(x[k] - EPS)) / (2.0 * EPS);
            assert!((dx[k] - num).abs() < TOL, "dx[{k}] {} vs {}", dx[k], num);
        }
    }

    #[test]
    fn embedding_gradient_goes_to_selected_row() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut e = Embedding::new(5, 3, &mut rng);
        e.backward(2, &[1.0, 2.0, 3.0]);
        assert_eq!(e.dtable.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(e.dtable.row(0), &[0.0, 0.0, 0.0]);
    }

    /// One forward step of `cell`: its step record.
    fn step(cell: &LstmCell, x: &[f64], h0: &[f64], c0: &[f64]) -> Vec<f64> {
        let mut zh = vec![0.0; 4 * cell.hidden()];
        let mut record = vec![0.0; cell.record_len()];
        cell.forward(x, h0, c0, &mut zh, &mut record);
        record
    }

    #[test]
    fn lstm_forward_state_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cell = LstmCell::new(4, 8, &mut rng);
        let record = step(&cell, &[1.0, -1.0, 0.5, 2.0], &[0.0; 8], &[0.0; 8]);
        assert!(
            LstmCell::hidden_state(&record)
                .iter()
                .all(|v| v.abs() <= 1.0),
            "h = o*tanh(c) is in [-1,1]"
        );
    }

    #[test]
    fn lstm_gradcheck_weights_and_inputs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let x = vec![0.5, -0.3, 0.8];
        let h0 = vec![0.1, -0.2, 0.3, 0.05];
        let c0 = vec![0.2, 0.1, -0.1, 0.4];
        // Loss: sum(h) + 0.5*sum(c).
        let loss_of = |cell: &LstmCell, x: &[f64], h0: &[f64], c0: &[f64]| {
            let record = step(cell, x, h0, c0);
            LstmCell::hidden_state(&record).iter().sum::<f64>()
                + 0.5 * LstmCell::cell_state(&record).iter().sum::<f64>()
        };
        let record = step(&cell, &x, &h0, &c0);
        cell.zero_grad();
        let (mut dh0, mut dc0) = (vec![1.0; 4], vec![0.5; 4]);
        let (mut dz, mut dx) = (vec![0.0; 16], vec![0.0; 3]);
        cell.backward(&record, &c0, &mut dh0, &mut dc0, &mut dz, &mut dx);
        cell.accumulate(1, |_| &dz, |_| &x, |_| &h0);

        // Spot-check a grid of weight entries in wx and wh.
        for (r, c) in [(0, 0), (3, 2), (5, 1), (9, 0), (13, 2), (15, 1)] {
            let orig = cell.wx.get(r, c);
            let eval = |v: f64| {
                let mut c2 = cell.clone();
                c2.wx.set(r, c, v);
                loss_of(&c2, &x, &h0, &c0)
            };
            let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
            assert!(
                (cell.dwx.get(r, c) - num).abs() < TOL,
                "dwx[{r},{c}] {} vs {}",
                cell.dwx.get(r, c),
                num
            );
        }
        for (r, c) in [(0, 0), (7, 3), (10, 2), (14, 1)] {
            let orig = cell.wh.get(r, c);
            let eval = |v: f64| {
                let mut c2 = cell.clone();
                c2.wh.set(r, c, v);
                loss_of(&c2, &x, &h0, &c0)
            };
            let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
            assert!(
                (cell.dwh.get(r, c) - num).abs() < TOL,
                "dwh[{r},{c}] {} vs {}",
                cell.dwh.get(r, c),
                num
            );
        }
        for r in [0, 6, 11, 15] {
            let eval = |v: f64| {
                let mut c2 = cell.clone();
                c2.b[r] = v;
                loss_of(&c2, &x, &h0, &c0)
            };
            let num = (eval(cell.b[r] + EPS) - eval(cell.b[r] - EPS)) / (2.0 * EPS);
            assert!((cell.db[r] - num).abs() < TOL, "db[{r}]");
        }
        // Input and state gradients.
        for k in 0..3 {
            let eval = |v: f64| {
                let mut x2 = x.clone();
                x2[k] = v;
                loss_of(&cell, &x2, &h0, &c0)
            };
            let num = (eval(x[k] + EPS) - eval(x[k] - EPS)) / (2.0 * EPS);
            assert!((dx[k] - num).abs() < TOL, "dx[{k}]");
        }
        for k in 0..4 {
            let eval_h = |v: f64| {
                let mut h2 = h0.clone();
                h2[k] = v;
                loss_of(&cell, &x, &h2, &c0)
            };
            let num_h = (eval_h(h0[k] + EPS) - eval_h(h0[k] - EPS)) / (2.0 * EPS);
            assert!(
                (dh0[k] - num_h).abs() < TOL,
                "dh0[{k}] {} vs {}",
                dh0[k],
                num_h
            );
            let eval_c = |v: f64| {
                let mut c2 = c0.clone();
                c2[k] = v;
                loss_of(&cell, &x, &h0, &c2)
            };
            let num_c = (eval_c(c0[k] + EPS) - eval_c(c0[k] - EPS)) / (2.0 * EPS);
            assert!(
                (dc0[k] - num_c).abs() < TOL,
                "dc0[{k}] {} vs {}",
                dc0[k],
                num_c
            );
        }
    }

    #[test]
    fn forget_bias_starts_at_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cell = LstmCell::new(2, 3, &mut rng);
        assert!(cell.b[3..6].iter().all(|&v| v == 1.0));
        assert!(cell.b[0..3].iter().all(|&v| v == 0.0));
    }
}
