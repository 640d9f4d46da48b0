//! Minimal dense linear algebra for the controller and the surrogate.
//!
//! Both models are tiny (one LSTM cell of width 64 plus a linear head; a
//! one-hidden-layer MLP of width 16), so a row-major `Vec<f64>` matrix
//! with a few hand-blocked kernels is faster than any external dependency
//! would be worth.
//!
//! **Kernel rule.** Each kernel computes every output element from the
//! same terms, added one at a time in the same order from the same start
//! value, as the naive loop in its documentation. Blocking only
//! interleaves *independent* elements, so that their additions run as
//! separate dependency chains: four rows of a matrix–vector product, 16
//! vectors of a batched product, or a block of up to 16 columns of a
//! result kept in registers. No kernel reassociates a sum or fuses a
//! multiply-add, so the results are bit-identical on every CPU and build
//! profile; `tests/proptests.rs` compares each kernel with its naive
//! definition through `to_bits`.

use rand::Rng;

/// Rows of `A` that [`Matrix::matvec_into`] sums at once.
const ROW_BLOCK: usize = 4;
/// Widest block of result columns that the transposed and outer-product
/// kernels keep in registers.
const LANES: usize = 16;
/// Vectors that [`Matrix::matvec_batch_into`] multiplies at once.
const BATCH: usize = 16;

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use codesign_rl::math::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let mut y = [0.0; 2];
/// m.matvec_into(&[1.0, 1.0], &mut y);
/// assert_eq!(y, [3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix with entries drawn uniformly from `[-scale, scale]`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-scale..=scale);
        }
        m
    }

    /// Xavier/Glorot-style initialization for a layer with the given fan-in.
    #[must_use]
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        Self::uniform(rows, cols, scale, rng)
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = A·x`: `y[r] = 0 + A[r][0]·x[0] + A[r][1]·x[1] + …`, summed in
    /// column order. Four rows run at once.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        let cols = self.cols;
        let mut blocks = self.data.chunks_exact(ROW_BLOCK * cols);
        let mut outs = y.chunks_exact_mut(ROW_BLOCK);
        for (out, block) in outs.by_ref().zip(blocks.by_ref()) {
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let mut acc = [0.0; ROW_BLOCK];
            for ((((a0, a1), a2), a3), xc) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
                acc[0] += a0 * xc;
                acc[1] += a1 * xc;
                acc[2] += a2 * xc;
                acc[3] += a3 * xc;
            }
            out.copy_from_slice(&acc);
        }
        let rows = blocks.remainder().chunks_exact(cols);
        for (yr, row) in outs.into_remainder().iter_mut().zip(rows) {
            let mut acc = 0.0;
            for (a, xc) in row.iter().zip(x) {
                acc += a * xc;
            }
            *yr = acc;
        }
    }

    /// `y = A·x_s` for `n` vectors at once, each exactly as
    /// [`Matrix::matvec_into`] computes it. The inputs come transposed:
    /// `xt` is `cols × n`, row `c` holding entry `c` of every vector. The
    /// outputs are `n × rows`, one vector after another. 16 vectors run at
    /// once, sharing each load of `A`.
    ///
    /// # Panics
    ///
    /// Panics when `xt.len() != cols · n` or `y.len() != rows · n`.
    pub fn matvec_batch_into(&self, xt: &[f64], n: usize, y: &mut [f64]) {
        assert_eq!(xt.len(), self.cols * n, "batch input dimension mismatch");
        assert_eq!(y.len(), self.rows * n, "batch output dimension mismatch");
        if n == 0 {
            return;
        }
        let full = n - n % BATCH;
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for s0 in (0..full).step_by(BATCH) {
                let mut acc = [0.0; BATCH];
                for (a, xc) in row.iter().zip(xt.chunks_exact(n)) {
                    for (s, v) in acc.iter_mut().zip(&xc[s0..s0 + BATCH]) {
                        *s += a * v;
                    }
                }
                for (i, v) in acc.into_iter().enumerate() {
                    y[(s0 + i) * self.rows + r] = v;
                }
            }
            for s in full..n {
                let mut acc = 0.0;
                for (a, xc) in row.iter().zip(xt.chunks_exact(n)) {
                    acc += a * xc[s];
                }
                y[s * self.rows + r] = acc;
            }
        }
    }

    /// `y += Aᵀ·x`: `y[c] = y[c] + A[0][c]·x[0] + A[1][c]·x[1] + …`, added
    /// in row order. Blocks of up to 16 entries of `y` stay in registers
    /// across all rows.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != rows` or `y.len() != cols`.
    pub fn add_matvec_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_transpose dimension mismatch");
        assert_eq!(
            y.len(),
            self.cols,
            "matvec_transpose output dimension mismatch"
        );
        let mut c0 = 0;
        for w in block_widths(self.cols) {
            let out = &mut y[c0..c0 + w];
            match w {
                LANES => transpose_block::<LANES>(self, x, c0, out),
                8 => transpose_block::<8>(self, x, c0, out),
                4 => transpose_block::<4>(self, x, c0, out),
                2 => transpose_block::<2>(self, x, c0, out),
                _ => transpose_block::<1>(self, x, c0, out),
            }
            c0 += w;
        }
    }

    /// Rank-`k` accumulation `A += Σ_t col(t) ⊗ row(t)` (the weight
    /// gradient of `k` products `A·row(t)`): `A[r][c]` adds
    /// `col(t)[r]·row(t)[c]` for `t = 0, 1, …, k − 1`, one `t` at a time.
    /// Blocks of up to 16 columns of each row of `A` stay in registers across
    /// all `t`.
    ///
    /// # Panics
    ///
    /// Panics when some `col(t).len() != rows` or `row(t).len() != cols`.
    pub fn add_outer_sum<'a>(
        &mut self,
        k: usize,
        col: impl Fn(usize) -> &'a [f64],
        row: impl Fn(usize) -> &'a [f64],
    ) {
        // Resolved once: the loops below visit every term once per block.
        let terms: Vec<(&[f64], &[f64])> = (0..k)
            .map(|t| {
                let (c, r) = (col(t), row(t));
                assert_eq!(c.len(), self.rows, "add_outer row count mismatch");
                assert_eq!(r.len(), self.cols, "add_outer col count mismatch");
                (c, r)
            })
            .collect();
        let cols = self.cols;
        for (r, dst) in self.data.chunks_exact_mut(cols).enumerate() {
            let mut c0 = 0;
            for w in block_widths(cols) {
                let out = &mut dst[c0..c0 + w];
                match w {
                    LANES => outer_block::<LANES>(&terms, r, c0, out),
                    8 => outer_block::<8>(&terms, r, c0, out),
                    4 => outer_block::<4>(&terms, r, c0, out),
                    2 => outer_block::<2>(&terms, r, c0, out),
                    _ => outer_block::<1>(&terms, r, c0, out),
                }
                c0 += w;
            }
        }
    }

    /// Flat parameter view.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable parameter view (used by optimizers).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Widths of the column blocks that cover `cols` columns, left to right:
/// blocks of [`LANES`] (16), then one block per set bit of the remainder,
/// widest first (15 = 8 + 4 + 2 + 1). Every width is a compile-time
/// constant of a block kernel, so the block's accumulators stay in
/// registers.
fn block_widths(cols: usize) -> impl Iterator<Item = usize> {
    let tail = [8, 4, 2, 1]
        .into_iter()
        .filter(move |&w| (cols % LANES) & w != 0);
    std::iter::repeat_n(LANES, cols / LANES).chain(tail)
}

/// Columns `c0..c0 + W` of [`Matrix::add_matvec_transpose`].
fn transpose_block<const W: usize>(a: &Matrix, x: &[f64], c0: usize, out: &mut [f64]) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (row, xr) in a.data.chunks_exact(a.cols).zip(x) {
        for (s, v) in acc.iter_mut().zip(&row[c0..c0 + W]) {
            *s += v * xr;
        }
    }
    out.copy_from_slice(&acc);
}

/// Columns `c0..c0 + W` of row `r` of [`Matrix::add_outer_sum`].
fn outer_block<const W: usize>(terms: &[(&[f64], &[f64])], r: usize, c0: usize, out: &mut [f64]) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (col_t, row_t) in terms {
        let cr = col_t[r];
        for (s, v) in acc.iter_mut().zip(&row_t[c0..c0 + W]) {
            *s += cr * v;
        }
    }
    out.copy_from_slice(&acc);
}

/// Numerically stable softmax of `values[..live]`, in place. The entries
/// from `live` on are masked: their probability is exactly 0.
///
/// # Panics
///
/// Panics when `live` exceeds `values.len()` or no unmasked entry is a
/// finite logit.
///
/// # Examples
///
/// ```
/// use codesign_rl::math::masked_softmax;
///
/// let mut p = [1.0, 1.0, 1000.0];
/// masked_softmax(&mut p, 2);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert_eq!(p[2], 0.0);
/// ```
pub fn masked_softmax(values: &mut [f64], live: usize) {
    assert!(live <= values.len(), "mask length mismatch");
    let (live, masked) = values.split_at_mut(live);
    let max = live.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max.is_finite(),
        "softmax needs at least one unmasked finite logit"
    );
    let mut denom = 0.0;
    for v in live.iter_mut() {
        let e = (*v - max).exp();
        *v = e;
        denom += e;
    }
    for v in live.iter_mut() {
        *v /= denom;
    }
    masked.fill(0.0);
}

/// Shannon entropy of a (partially zero) probability vector, in nats.
#[must_use]
pub fn entropy(probs: &[f64]) -> f64 {
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

/// Element-wise sigmoid.
#[must_use]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut y = [0.0; 2];
        m.matvec_into(&[3.0, 4.0], &mut y);
        assert_eq!(y, [3.0, 4.0]);
    }

    #[test]
    fn transpose_matvec_agrees_with_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // m^T = [[1,3,5],[2,4,6]], added onto y.
        let mut y = [1.0, -1.0];
        m.add_matvec_transpose(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [10.0, 11.0]);
    }

    #[test]
    fn add_outer_accumulates_rank1() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer_sum(1, |_| &[1.0, 2.0], |_| &[1.0, 10.0, 100.0]);
        assert_eq!(m.row(0), &[1.0, 10.0, 100.0]);
        assert_eq!(m.row(1), &[2.0, 20.0, 200.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dimensions() {
        let m = Matrix::zeros(2, 2);
        m.matvec_into(&[1.0], &mut [0.0; 2]);
    }

    #[test]
    fn xavier_scale_shrinks_with_size() {
        let mut rng = SmallRng::seed_from_u64(0);
        let small = Matrix::xavier(4, 4, &mut rng);
        let large = Matrix::xavier(256, 256, &mut rng);
        let max_small = small.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let max_large = large.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_large < max_small);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut p = [0.0, 1.0, 2.0];
        masked_softmax(&mut p, 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [0.0, 1.0];
        let mut b = [1000.0, 1001.0];
        masked_softmax(&mut a, 2);
        masked_softmax(&mut b, 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_entries_get_zero_probability() {
        let mut p = [5.0, 5.0, 5.0];
        masked_softmax(&mut p, 2);
        assert_eq!(p[2], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unmasked")]
    fn all_masked_panics() {
        masked_softmax(&mut [1.0], 0);
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let h = entropy(&[0.25; 4]);
        assert!((h - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }
}
