//! Minimal dense linear algebra for the controller and the surrogate.
//!
//! Both models are tiny (one LSTM cell of width 64 plus a linear head; a
//! one-hidden-layer MLP of width 16), so a row-major `Vec<f64>` matrix
//! with a few hand-blocked kernels is faster than any external dependency
//! would be worth.
//!
//! **Kernel rule.** Each dense kernel computes every output element from
//! the same terms, added one at a time in the same order from the same
//! start value, as the naive loop in its documentation. Blocking only
//! interleaves *independent* elements, so that their additions run as
//! separate dependency chains: four rows of a matrix–vector product
//! (eight on the AVX path), 16 vectors of a batched product, or a block
//! of up to 16 columns of a result kept in registers (32 on the AVX
//! path, 64 on the AVX-512 path). No dense kernel reassociates a sum or
//! fuses a multiply-add, so the results are bit-identical on every CPU
//! and build profile.
//!
//! **Paths.** Each dense kernel has a portable version, compiled for the
//! build's target, and on x86-64 an AVX version, taken at run time when
//! `is_x86_feature_detected!("avx")` holds; the batched, transposed and
//! outer-product kernels also have an AVX-512 version, taken when the CPU
//! also has AVX2, FMA and AVX-512F. One private `Path`, detected at run
//! time, is all that selects a version. The AVX versions put independent
//! output elements in the four lanes of a 256-bit vector. The batched,
//! transposed and outer-product kernels are the portable bodies compiled
//! a second time with AVX enabled, the last two with column blocks twice
//! as wide, and a third time with AVX-512F enabled, with blocks of 64
//! columns in eight 512-bit registers; the matrix–vector product loads
//! two columns of four rows and unpacks their products in registers, so
//! each lane receives its own row's terms in column order, and the
//! AVX-512 path keeps that AVX version. A vector
//! multiply or add rounds each lane exactly as the scalar instruction
//! does, and no dense kernel fuses a multiply-add (the compiler contracts
//! none, even where AVX-512F makes FMA available), so every path gives
//! the same bits. This module's unit tests check every path this CPU can
//! run against the naive definitions; `tests/proptests.rs` checks the
//! path this CPU takes.
//!
//! **`tanh`.** [`tanh`] reproduces, operation for operation, the `tanh`
//! of glibc 2.36 on an x86-64 CPU with FMA: fdlibm's `tanh` over the
//! `expm1` that glibc's ifunc picks on such a CPU, a build of fdlibm's
//! `expm1` whose compiler fused twelve multiply-adds. Its reference is
//! that library function, not a naive loop, so the port fuses exactly
//! where the reference does, with `f64::mul_add` or FMA instructions, and
//! nowhere else. The portable path is a scalar port, with the branches
//! that `tanh` can reach; on x86-64 CPUs with AVX2 and FMA (the `Path`
//! detection again) four lanes each run every branch and keep theirs by
//! a blend, and on CPUs that also have AVX-512F eight lanes run the same
//! operations in the same order, keep their branch by a mask blend and
//! read and write a last partial vector through a mask. `mul_add` rounds
//! correctly on every target (through a libm `fma` call where the CPU
//! has no FMA), so every path gives the same bits everywhere, which
//! `f64::tanh` does not: on a CPU without FMA, glibc's ifunc picks an
//! unfused `expm1`. `tests/golden.rs` pins the bits over three million
//! inputs (`TANH_BITS`, taken from `f64::tanh` on a CPU with FMA); this
//! module's unit tests check both vector paths against the scalar port.
//! `exp` and `ln` (in [`sigmoid`], [`masked_softmax`] and [`entropy`])
//! still come from the platform's libm. In glibc 2.36 both go through an
//! ifunc too (`exp` and `log` call one), so their bits may also depend on
//! the CPU.
//!
//! **Adam.** `adam` is the controller optimizer's per-parameter update. Its
//! reference is the portable loop, which divides each moment by its bias
//! correction. On the AVX2 + FMA path the two bias-corrected moments come
//! from a product by the correction's reciprocal and two FMA corrections,
//! which return the IEEE quotient exactly on the operands the kernel
//! admits (the proof is in the documentation of `fma::quotient`); every
//! other operation keeps the loop's order and stays unfused. This
//! module's unit tests check that path against the loop bit for bit.

use rand::Rng;

/// Rows of `A` that the portable [`Matrix::matvec_into`] sums at once, and
/// that one vector of its AVX version holds.
const ROW_BLOCK: usize = 4;
/// Widest block of result columns that the portable transposed and
/// outer-product kernels keep in registers.
const LANES: usize = 16;
/// Vectors that [`Matrix::matvec_batch_into`] multiplies at once.
const BATCH: usize = 16;
/// Terms of [`Matrix::add_outer_sum`] that one kernel call adds.
const TERMS: usize = 64;

// fdlibm's constants for `tanh` and `expm1`, by bit pattern: 1/ln 2,
// ln 2 split into a high part whose multiples by small integers are exact
// and the rest, and the coefficients of `expm1`'s rational approximation.
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `tanh`'s value for |x| ≥ 22 before its sign: `1 − 1e-300`, which
/// rounds to 1.
const TANH_SATURATED: f64 = 1.0 - 1e-300;

// The operands on which `adam`'s FMA quotient is proven to equal the
// division: bias corrections in [2⁻²³, 1], and moments whose magnitude
// lies in [2⁻⁹⁶⁸, 2¹⁰⁰⁰].
#[cfg(target_arch = "x86_64")]
const DIVISOR_MIN: f64 = f64::from_bits((1023 - 23) << 52);
#[cfg(target_arch = "x86_64")]
const MOMENT_MIN: f64 = f64::from_bits((1023 - 968) << 52);
#[cfg(target_arch = "x86_64")]
const MOMENT_MAX: f64 = f64::from_bits((1023 + 1000) << 52);

/// Which version of the kernels runs. An `Avx` value is made only once
/// the CPU is known to have AVX, an `Fma` value once it is known to have
/// AVX, AVX2 and FMA, and an `Avx512` value once it is known to have
/// those and AVX-512F and F16C too.
#[derive(Debug, Clone, Copy)]
enum Path {
    Portable,
    /// The AVX dense kernels, the scalar [`tanh`] and the portable `adam`.
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// The AVX dense kernels, and the AVX2 + FMA [`tanh`] and `adam`.
    #[cfg(target_arch = "x86_64")]
    Fma,
    /// The AVX-512 batched, transposed and outer-product kernels and
    /// [`tanh`], the AVX matrix–vector product and the AVX2 + FMA `adam`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Path {
    /// The widest path this CPU can run.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if avx::detected() {
            return if !fma::detected() {
                Self::Avx
            } else if avx512::detected() {
                Self::Avx512
            } else {
                Self::Fma
            };
        }
        Self::Portable
    }
}

/// Runs dense kernel `$kernel` of `$path` on the given arguments.
macro_rules! run {
    ($path:expr, $kernel:ident($($arg:expr),*)) => {
        match $path {
            Path::Portable => portable::$kernel($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx` or `Fma` path exists only on a CPU with AVX,
            // the one feature the AVX kernels enable.
            Path::Avx | Path::Fma => unsafe { avx::$kernel($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx512` path exists only on a CPU with AVX, AVX2,
            // FMA, F16C and AVX-512F, the features that the AVX-512 kernels
            // enable or imply and that the AVX kernels enable.
            Path::Avx512 => unsafe { avx512::$kernel($($arg),*) },
        }
    };
}

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
    /// column order. Four rows run at once, eight on the AVX and AVX-512
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        run!(Path::detect(), matvec(self, x, y));
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
        run!(Path::detect(), matvec_batch(self, xt, n, y));
    }

    /// `y += Aᵀ·x`: `y[c] = y[c] + A[0][c]·x[0] + A[1][c]·x[1] + …`, added
    /// in row order. Blocks of up to 16 entries of `y` (32 on the AVX path,
    /// 64 on the AVX-512 path) stay in registers across all rows.
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
        run!(Path::detect(), add_matvec_transpose(self, x, y));
    }

    /// Rank-`k` accumulation `A += Σ_t col(t) ⊗ row(t)` (the weight
    /// gradient of `k` products `A·row(t)`): `A[r][c]` adds
    /// `col(t)[r]·row(t)[c]` for `t = 0, 1, …, k − 1`, one `t` at a time.
    /// Blocks of up to 16 columns of each row of `A` (32 on the AVX path,
    /// 64 on the AVX-512 path) stay in registers across up to 64 terms.
    /// Allocates nothing.
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
        // Resolved a chunk at a time, on the stack: the kernel visits every
        // term once per block. Each entry adds a chunk's terms onto what the
        // previous chunk stored, so it still adds every term in `t` order.
        let path = Path::detect();
        let mut terms: [(&[f64], &[f64]); TERMS] = [(&[], &[]); TERMS];
        for t0 in (0..k).step_by(TERMS) {
            let chunk = &mut terms[..TERMS.min(k - t0)];
            for (t, term) in (t0..).zip(chunk.iter_mut()) {
                let (c, r) = (col(t), row(t));
                assert_eq!(c.len(), self.rows, "add_outer row count mismatch");
                assert_eq!(r.len(), self.cols, "add_outer col count mismatch");
                *term = (c, r);
            }
            run!(path, add_outer_sum(self, chunk));
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

/// The reference kernels, compiled for the build's target. Dimensions are
/// checked by the [`Matrix`] methods that call them.
///
/// The blocked bodies (`matvec_batch`, `transpose_blocks` and
/// `outer_blocks`) are `#[inline(always)]`, so that the AVX and AVX-512
/// paths compile them again with 256-bit and 512-bit registers.
mod portable {
    use super::{
        AdamStep, Matrix, BATCH, INVLN2, LANES, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, ROW_BLOCK,
        TANH_SATURATED,
    };

    /// [`Matrix::matvec_into`]: four rows at once, then the rest one by one.
    pub(super) fn matvec(a: &Matrix, x: &[f64], y: &mut [f64]) {
        let cols = a.cols;
        let mut blocks = a.data.chunks_exact(ROW_BLOCK * cols);
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
        matvec_rows(blocks.remainder(), x, outs.into_remainder());
    }

    /// `y = A·x` over the whole rows in `data`, one row at a time.
    pub(super) fn matvec_rows(data: &[f64], x: &[f64], y: &mut [f64]) {
        for (yr, row) in y.iter_mut().zip(data.chunks_exact(x.len())) {
            let mut acc = 0.0;
            for (a, xc) in row.iter().zip(x) {
                acc += a * xc;
            }
            *yr = acc;
        }
    }

    /// [`Matrix::matvec_batch_into`].
    #[inline(always)]
    pub(super) fn matvec_batch(a: &Matrix, xt: &[f64], n: usize, y: &mut [f64]) {
        if n == 0 {
            return;
        }
        let full = n - n % BATCH;
        for (r, row) in a.data.chunks_exact(a.cols).enumerate() {
            for s0 in (0..full).step_by(BATCH) {
                let mut acc = [0.0; BATCH];
                for (a, xc) in row.iter().zip(xt.chunks_exact(n)) {
                    for (s, v) in acc.iter_mut().zip(&xc[s0..s0 + BATCH]) {
                        *s += a * v;
                    }
                }
                for (i, v) in acc.into_iter().enumerate() {
                    y[(s0 + i) * a.rows + r] = v;
                }
            }
            for s in full..n {
                let mut acc = 0.0;
                for (a, xc) in row.iter().zip(xt.chunks_exact(n)) {
                    acc += a * xc[s];
                }
                y[s * a.rows + r] = acc;
            }
        }
    }

    /// [`Matrix::add_matvec_transpose`].
    pub(super) fn add_matvec_transpose(a: &Matrix, x: &[f64], y: &mut [f64]) {
        transpose_blocks(a, x, y, LANES);
    }

    /// [`Matrix::add_matvec_transpose`], in column blocks of up to `lanes`.
    #[inline(always)]
    pub(super) fn transpose_blocks(a: &Matrix, x: &[f64], y: &mut [f64], lanes: usize) {
        let mut c0 = 0;
        for w in block_widths(a.cols, lanes) {
            let out = &mut y[c0..c0 + w];
            match w {
                64 => transpose_block::<64>(a, x, c0, out),
                32 => transpose_block::<32>(a, x, c0, out),
                16 => transpose_block::<16>(a, x, c0, out),
                8 => transpose_block::<8>(a, x, c0, out),
                4 => transpose_block::<4>(a, x, c0, out),
                2 => transpose_block::<2>(a, x, c0, out),
                _ => transpose_block::<1>(a, x, c0, out),
            }
            c0 += w;
        }
    }

    /// [`Matrix::add_outer_sum`] over its resolved `(col(t), row(t))`
    /// terms.
    pub(super) fn add_outer_sum(a: &mut Matrix, terms: &[(&[f64], &[f64])]) {
        outer_blocks(a, terms, LANES);
    }

    /// [`Matrix::add_outer_sum`], in column blocks of up to `lanes`.
    #[inline(always)]
    pub(super) fn outer_blocks(a: &mut Matrix, terms: &[(&[f64], &[f64])], lanes: usize) {
        let cols = a.cols;
        for (r, dst) in a.data.chunks_exact_mut(cols).enumerate() {
            let mut c0 = 0;
            for w in block_widths(cols, lanes) {
                let out = &mut dst[c0..c0 + w];
                match w {
                    64 => outer_block::<64>(terms, r, c0, out),
                    32 => outer_block::<32>(terms, r, c0, out),
                    16 => outer_block::<16>(terms, r, c0, out),
                    8 => outer_block::<8>(terms, r, c0, out),
                    4 => outer_block::<4>(terms, r, c0, out),
                    2 => outer_block::<2>(terms, r, c0, out),
                    _ => outer_block::<1>(terms, r, c0, out),
                }
                c0 += w;
            }
        }
    }

    /// Widths of the column blocks that cover `cols` columns, left to
    /// right: blocks of `lanes` (16, 32 or 64), then one block per set bit
    /// of the remainder, widest first (63 = 32 + 16 + 8 + 4 + 2 + 1). Every
    /// width is a compile-time constant of a block kernel, so the block's
    /// accumulators stay in registers.
    fn block_widths(cols: usize, lanes: usize) -> impl Iterator<Item = usize> {
        let tail = [32, 16, 8, 4, 2, 1]
            .into_iter()
            .filter(move |&w| (cols % lanes) & w != 0);
        std::iter::repeat_n(lanes, cols / lanes).chain(tail)
    }

    /// Columns `c0..c0 + W` of [`Matrix::add_matvec_transpose`].
    #[inline(always)]
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
    #[inline(always)]
    fn outer_block<const W: usize>(
        terms: &[(&[f64], &[f64])],
        r: usize,
        c0: usize,
        out: &mut [f64],
    ) {
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

    /// [`super::tanh`] of one value: glibc 2.36's `tanh` (fdlibm's
    /// `s_tanh.c`), operation for operation, over [`expm1`].
    pub(super) fn tanh(x: f64) -> f64 {
        let jx = (x.to_bits() >> 32) as u32;
        let ix = jx & 0x7fff_ffff;
        let negative = jx >> 31 == 1;
        if ix >= 0x7ff0_0000 {
            // ±∞ and NaN.
            return if negative {
                1.0 / x - 1.0
            } else {
                1.0 / x + 1.0
            };
        }
        let z = if ix >= 0x4036_0000 {
            // |x| ≥ 22.
            TANH_SATURATED
        } else if x == 0.0 {
            return x;
        } else if ix < 0x3c80_0000 {
            // |x| < 2⁻⁵⁵.
            return x * (1.0 + x);
        } else if ix < 0x3ff0_0000 {
            let t = expm1(x.abs() * -2.0);
            -t / (t + 2.0)
        } else {
            let t = expm1(x.abs() + x.abs());
            1.0 - 2.0 / (t + 2.0)
        };
        if negative {
            -z
        } else {
            z
        }
    }

    /// glibc 2.36's `expm1` as its ifunc selects it on a CPU with FMA
    /// (fdlibm's `s_expm1.c` built with FMA contraction), operation for
    /// operation, on the arguments [`tanh`] passes: `−2|x|` for
    /// 2⁻⁵⁵ ≤ |x| < 1 and `2|x|` for 1 ≤ |x| < 22. Those reach `k` = 0,
    /// `k` = −1 and `k` ∈ {−2, −3} below zero, and `k` from 3 to 63 above;
    /// the branches for `k` = 1, |x| < 2⁻⁵⁴, |x| ≥ 56 ln 2 below zero and
    /// overflow are not ported.
    fn expm1(x: f64) -> f64 {
        let hx = (x.to_bits() >> 32) as u32 & 0x7fff_ffff;
        // Argument reduction: x = k·ln 2 + r, r = hi − lo, with the
        // rounding error of r in c.
        let (k, x, c) = if hx <= 0x3fd6_2e42 {
            // |x| ≤ ½ ln 2.
            (0, x, 0.0)
        } else {
            let (k, hi, lo) = if hx < 0x3ff0_a2b2 {
                // −1.5 ln 2 < x < −½ ln 2.
                debug_assert!(x < 0.0, "tanh passes no x in (½ ln 2, 1.5 ln 2)");
                (-1, x + LN2_HI, -LN2_LO)
            } else {
                let half = if x < 0.0 { -0.5 } else { 0.5 };
                let k = (INVLN2 * x + half) as i32;
                let t = f64::from(k);
                (k, (-t).mul_add(LN2_HI, x), t * LN2_LO)
            };
            let r = hi - lo;
            (k, r, (hi - r) - lo)
        };
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = hxs.mul_add(Q1, 1.0);
        let h2 = hxs * hxs;
        let r2 = hxs.mul_add(Q3, Q2);
        let h4 = h2 * h2;
        let r3 = hxs.mul_add(Q5, Q4);
        let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
        let t = (-r1).mul_add(hfx, 3.0);
        let e = hxs * ((r1 - t) / (-x).mul_add(t, 6.0));
        if k == 0 {
            return x - x.mul_add(e, -hxs);
        }
        let e = (e - c).mul_add(x, -c) - hxs;
        match k {
            -1 => 0.5f64.mul_add(x - e, -0.5),
            ..=-2 | 57.. => scale(1.0 - (e - x), k) - 1.0,
            ..=19 => {
                // 1 − 2⁻ᵏ.
                let t = f64::from_bits(u64::from(0x3ff0_0000_u32 - (0x20_0000 >> k)) << 32);
                scale(t - (e - x), k)
            }
            _ => {
                // 2⁻ᵏ.
                let t = f64::from_bits(u64::from(0x3ff - k as u32) << 52);
                scale(x - (e + t) + 1.0, k)
            }
        }
    }

    /// `y·2ᵏ`, made as `expm1` makes it: `k` added to the exponent field.
    fn scale(y: f64, k: i32) -> f64 {
        f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52))
    }

    /// [`super::adam`]: the reference loop, one parameter at a time.
    pub(super) fn adam(
        s: &AdamStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        let AdamStep {
            scale,
            beta1: b1,
            beta2: b2,
            bc1,
            bc2,
            learning_rate: lr,
            epsilon: eps,
        } = *s;
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((p, g), (m, v)) in params.iter_mut().zip(grads.iter()).zip(moments) {
            let g = g * scale;
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// The same kernels on 256-bit AVX vectors, for x86-64 CPUs that have
/// AVX. Each lane holds one output element, with the terms, their order,
/// the operands of each multiply and add, and the start value of the
/// portable kernel; none of them enables FMA.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu2_m128d, _mm256_mul_pd, _mm256_set1_pd, _mm256_set_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    };

    use super::{portable, Matrix, ROW_BLOCK};

    /// Widest block of result columns that the AVX transposed and
    /// outer-product kernels keep in registers: eight 256-bit vectors, half
    /// of the 16 that AVX has.
    const LANES: usize = 32;
    /// Row blocks of four that [`matvec`] sums at once, one vector each.
    const GROUPS: usize = 2;

    /// Whether this CPU can run the kernels below: one cached load after
    /// the first call.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// [`Matrix::matvec_batch_into`]: the portable body, 16 vectors in
    /// four registers.
    #[target_feature(enable = "avx")]
    pub(super) fn matvec_batch(a: &Matrix, xt: &[f64], n: usize, y: &mut [f64]) {
        portable::matvec_batch(a, xt, n, y);
    }

    /// [`Matrix::add_matvec_transpose`]: the portable body, 32 columns in
    /// eight registers.
    #[target_feature(enable = "avx")]
    pub(super) fn add_matvec_transpose(a: &Matrix, x: &[f64], y: &mut [f64]) {
        portable::transpose_blocks(a, x, y, LANES);
    }

    /// [`Matrix::add_outer_sum`]: the portable body, 32 columns in eight
    /// registers.
    #[target_feature(enable = "avx")]
    pub(super) fn add_outer_sum(a: &mut Matrix, terms: &[(&[f64], &[f64])]) {
        portable::outer_blocks(a, terms, LANES);
    }

    /// [`Matrix::matvec_into`]: eight rows at once in two vectors of four,
    /// then a block of four, then the last rows one by one as the portable
    /// kernel sums them.
    #[target_feature(enable = "avx")]
    pub(super) fn matvec(a: &Matrix, x: &[f64], y: &mut [f64]) {
        let cols = a.cols;
        let mut blocks = a.data.chunks_exact(GROUPS * ROW_BLOCK * cols);
        let mut outs = y.chunks_exact_mut(GROUPS * ROW_BLOCK);
        for (out, block) in outs.by_ref().zip(blocks.by_ref()) {
            row_blocks::<GROUPS>(block, x, out);
        }
        let mut blocks = blocks.remainder().chunks_exact(ROW_BLOCK * cols);
        let mut outs = outs.into_remainder().chunks_exact_mut(ROW_BLOCK);
        for (out, block) in outs.by_ref().zip(blocks.by_ref()) {
            row_blocks::<1>(block, x, out);
        }
        portable::matvec_rows(blocks.remainder(), x, outs.into_remainder());
    }

    /// `y = A·x` for the `4·G` rows of `block`, lane `i` of vector `g`
    /// holding row `4g + i`. Two columns at a time: in each block of four,
    /// rows 0 and 2, and rows 1 and 3, are each loaded as one vector of two
    /// columns per row and multiplied by `x` entrywise; an in-lane unpack
    /// then gathers each column's four terms, which are added in column
    /// order.
    #[target_feature(enable = "avx")]
    fn row_blocks<const G: usize>(block: &[f64], x: &[f64], y: &mut [f64]) {
        let cols = x.len();
        assert!(block.len() == G * ROW_BLOCK * cols && y.len() == G * ROW_BLOCK);
        let mut acc = [_mm256_setzero_pd(); G];
        for c in (0..cols - cols % 2).step_by(2) {
            // SAFETY: `c + 2 <= cols`, so each half reads `x[c..c + 2]`.
            let xx = unsafe {
                let xc = x.as_ptr().add(c);
                _mm256_loadu2_m128d(xc, xc)
            };
            for (g, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `block` holds `4·G` rows of `cols` entries
                // (asserted above) and `c + 2 <= cols`, so each half reads
                // entries `c..c + 2` of one row of block `g`.
                let (a02, a13) = unsafe {
                    let a0 = block.as_ptr().add(g * ROW_BLOCK * cols + c);
                    (
                        _mm256_loadu2_m128d(a0.add(2 * cols), a0),
                        _mm256_loadu2_m128d(a0.add(3 * cols), a0.add(cols)),
                    )
                };
                let (p02, p13) = (_mm256_mul_pd(a02, xx), _mm256_mul_pd(a13, xx));
                *acc = _mm256_add_pd(*acc, _mm256_unpacklo_pd(p02, p13));
                *acc = _mm256_add_pd(*acc, _mm256_unpackhi_pd(p02, p13));
            }
        }
        if cols % 2 == 1 {
            let c = cols - 1;
            let xc = _mm256_set1_pd(x[c]);
            for (acc, rows) in acc.iter_mut().zip(block.chunks_exact(ROW_BLOCK * cols)) {
                let a = |r: usize| rows[r * cols + c];
                let a = _mm256_set_pd(a(3), a(2), a(1), a(0));
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(a, xc));
            }
        }
        for (out, acc) in y.chunks_exact_mut(ROW_BLOCK).zip(acc) {
            // SAFETY: `out` holds the four entries the store writes.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), acc) };
        }
    }
}

/// [`tanh`] on 256-bit vectors, for x86-64 CPUs that have AVX2 and FMA.
/// Each lane runs every branch of the scalar port that `tanh` can reach,
/// with the scalar port's operations, fused where it fuses; a blend then
/// keeps the branch the lane takes. A vector operation rounds each lane
/// exactly as the scalar instruction does, so each lane gives the scalar
/// port's bits.
#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd,
        _mm256_blendv_pd, _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_cmp_pd,
        _mm256_cvtepi32_epi64, _mm256_cvttpd_epi32, _mm256_div_pd, _mm256_fmadd_pd,
        _mm256_fmsub_pd, _mm256_fnmadd_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_or_pd, _mm256_round_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_slli_epi64,
        _mm256_sqrt_pd, _mm256_srlv_epi64, _mm256_storeu_pd, _mm256_sub_epi64, _mm256_sub_pd,
        _mm256_xor_pd, _CMP_EQ_OQ, _CMP_GE_OQ, _CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ, _CMP_NLE_UQ,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };

    use super::{
        portable, AdamStep, DIVISOR_MIN, INVLN2, LN2_HI, LN2_LO, MOMENT_MAX, MOMENT_MIN, Q1, Q2,
        Q3, Q4, Q5, TANH_SATURATED,
    };

    /// Lanes of one vector.
    const WIDTH: usize = 4;

    /// Whether this CPU can run [`tanh`]: cached loads after the first
    /// call.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// [`super::tanh`]: four values at a time, and a last partial vector
    /// through a padded copy.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tanh(values: &mut [f64]) {
        let mut chunks = values.chunks_exact_mut(WIDTH);
        for chunk in chunks.by_ref() {
            tanh_lanes(chunk.try_into().expect("chunks of one vector"));
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut lanes = [0.0; WIDTH];
            lanes[..tail.len()].copy_from_slice(tail);
            tanh_lanes(&mut lanes);
            tail.copy_from_slice(&lanes[..tail.len()]);
        }
    }

    /// The scalar port's `tanh` of four values, in place.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tanh_lanes(lanes: &mut [f64; WIDTH]) {
        let p = lanes.as_mut_ptr();
        // SAFETY: `p` points at the four values that the load reads and the
        // store writes.
        unsafe { _mm256_storeu_pd(p, tanh4(_mm256_loadu_pd(p))) };
    }

    /// The scalar port's `tanh` in each lane of `x`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tanh4(x: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        let sign = _mm256_set1_pd(-0.0);
        let ax = _mm256_andnot_pd(sign, x);
        let below_one = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, one);
        let arg = _mm256_blendv_pd(
            _mm256_add_pd(ax, ax),
            _mm256_mul_pd(ax, _mm256_set1_pd(-2.0)),
            below_one,
        );
        let t = expm1(arg);
        // One quotient serves both branches: −t/(t + 2) below 1, and
        // 1 − 2/(t + 2) from 1 to 22.
        let q = _mm256_div_pd(
            _mm256_blendv_pd(two, _mm256_xor_pd(t, sign), below_one),
            _mm256_add_pd(t, two),
        );
        let z = _mm256_blendv_pd(_mm256_sub_pd(one, q), q, below_one);
        let saturated = _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(22.0));
        let z = _mm256_blendv_pd(z, _mm256_set1_pd(TANH_SATURATED), saturated);
        let z = _mm256_xor_pd(z, _mm256_and_pd(sign, x));
        // x·(1 + x) below 2⁻⁵⁵, which also gives ±0 for ±0.
        let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(f64::from_bits(0x3c80 << 48)));
        let z = _mm256_blendv_pd(z, _mm256_mul_pd(x, _mm256_add_pd(one, x)), tiny);
        // 1/x + 1 or 1/x − 1, by sign, on ±∞ and NaN.
        let nonfinite = _mm256_cmp_pd::<_CMP_NLE_UQ>(ax, _mm256_set1_pd(f64::MAX));
        if _mm256_movemask_pd(nonfinite) == 0 {
            return z;
        }
        let r = _mm256_div_pd(one, x);
        let r = _mm256_blendv_pd(_mm256_add_pd(r, one), _mm256_sub_pd(r, one), x);
        _mm256_blendv_pd(z, r, nonfinite)
    }

    /// The scalar port's `expm1` in each lane of `x`, for the arguments
    /// `tanh` passes. The reduction uses `t = k` in every lane: with
    /// `k = −1` it makes the scalar port's `x + ln2_hi` and `−ln2_lo`, and
    /// with `k = 0` it leaves `x` as it is.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn expm1(x: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        let half = _mm256_blendv_pd(_mm256_set1_pd(0.5), _mm256_set1_pd(-0.5), x);
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(
            _mm256_mul_pd(x, _mm256_set1_pd(INVLN2)),
            half,
        ));
        // High word below 0x3ff0a2b2: k = −1; at most 0x3fd62e42: k = 0.
        let k = _mm256_blendv_pd(k, _mm256_set1_pd(-1.0), below(ax, 0x3ff0_a2b2));
        let k = _mm256_blendv_pd(k, _mm256_set1_pd(0.0), below(ax, 0x3fd6_2e43));
        let hi = _mm256_fnmadd_pd(k, _mm256_set1_pd(LN2_HI), x);
        let lo = _mm256_mul_pd(k, _mm256_set1_pd(LN2_LO));
        let x = _mm256_sub_pd(hi, lo);
        let c = _mm256_sub_pd(_mm256_sub_pd(hi, x), lo);
        let hfx = _mm256_mul_pd(x, _mm256_set1_pd(0.5));
        let hxs = _mm256_mul_pd(x, hfx);
        let r1 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(Q1), one);
        let h2 = _mm256_mul_pd(hxs, hxs);
        let r2 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(Q3), _mm256_set1_pd(Q2));
        let h4 = _mm256_mul_pd(h2, h2);
        let r3 = _mm256_fmadd_pd(hxs, _mm256_set1_pd(Q5), _mm256_set1_pd(Q4));
        let r1 = _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1));
        let t = _mm256_fnmadd_pd(r1, hfx, _mm256_set1_pd(3.0));
        let e = _mm256_mul_pd(
            hxs,
            _mm256_div_pd(
                _mm256_sub_pd(r1, t),
                _mm256_fnmadd_pd(x, t, _mm256_set1_pd(6.0)),
            ),
        );
        let y0 = _mm256_sub_pd(x, _mm256_fmsub_pd(x, e, hxs));
        let e = _mm256_sub_pd(_mm256_fmsub_pd(_mm256_sub_pd(e, c), x, c), hxs);
        let e_minus_x = _mm256_sub_pd(e, x);
        let y_minus1 = _mm256_fmadd_pd(
            _mm256_set1_pd(0.5),
            _mm256_sub_pd(x, e),
            _mm256_set1_pd(-0.5),
        );
        let ki = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(k));
        let y_wide = _mm256_sub_pd(scale(_mm256_sub_pd(one, e_minus_x), ki), one);
        // 1 − 2⁻ᵏ, for k from 3 to 19.
        let t_low = _mm256_castsi256_pd(_mm256_slli_epi64::<32>(_mm256_sub_epi64(
            _mm256_set1_epi64x(0x3ff0_0000),
            _mm256_srlv_epi64(_mm256_set1_epi64x(0x20_0000), ki),
        )));
        let y_low = scale(_mm256_sub_pd(t_low, e_minus_x), ki);
        // 2⁻ᵏ, for k from 20 to 56.
        let t_mid = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_sub_epi64(
            _mm256_set1_epi64x(0x3ff),
            ki,
        )));
        let y_mid = scale(
            _mm256_add_pd(_mm256_sub_pd(x, _mm256_add_pd(e, t_mid)), one),
            ki,
        );
        let y = _mm256_blendv_pd(
            y_mid,
            y_low,
            _mm256_cmp_pd::<_CMP_LT_OQ>(k, _mm256_set1_pd(19.5)),
        );
        let wide = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(k, _mm256_set1_pd(-1.5)),
            _mm256_cmp_pd::<_CMP_GT_OQ>(k, _mm256_set1_pd(56.5)),
        );
        let y = _mm256_blendv_pd(y, y_wide, wide);
        let y = _mm256_blendv_pd(
            y,
            y_minus1,
            _mm256_cmp_pd::<_CMP_EQ_OQ>(k, _mm256_set1_pd(-1.0)),
        );
        _mm256_blendv_pd(y, y0, _mm256_cmp_pd::<_CMP_EQ_OQ>(k, _mm256_set1_pd(0.0)))
    }

    /// The lanes of `ax` (non-negative) whose high word is below `high`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn below(ax: __m256d, high: u64) -> __m256d {
        _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(f64::from_bits(high << 32)))
    }

    /// `y·2ᵏ` in each lane, made as `expm1` makes it: `k` added to the
    /// exponent field.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn scale(y: __m256d, k: __m256i) -> __m256d {
        _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(y),
            _mm256_slli_epi64::<52>(k),
        ))
    }

    /// [`super::adam`]: four parameters at a time, and the last partial
    /// vector through the portable loop. Bias corrections outside
    /// [`DIVISOR_MIN`, 1] send the whole step to the portable loop.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn adam(
        s: &AdamStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        let divisors = DIVISOR_MIN..=1.0;
        if !divisors.contains(&s.bc1) || !divisors.contains(&s.bc2) {
            return portable::adam(s, params, grads, m, v);
        }
        let k = AdamLanes::new(s);
        let body = params.len() - params.len() % WIDTH;
        let (params, p_tail) = params.split_at_mut(body);
        let (grads, g_tail) = grads.split_at(body);
        let (m, m_tail) = m.split_at_mut(body);
        let (v, v_tail) = v.split_at_mut(body);
        let lanes = params
            .chunks_exact_mut(WIDTH)
            .zip(grads.chunks_exact(WIDTH))
            .zip(m.chunks_exact_mut(WIDTH).zip(v.chunks_exact_mut(WIDTH)));
        for ((p, g), (m, v)) in lanes {
            let (p, m, v) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
            // SAFETY: each chunk holds the four values that its pointer's
            // load reads and store writes.
            unsafe {
                let g = _mm256_mul_pd(_mm256_loadu_pd(g.as_ptr()), k.scale);
                let mt = _mm256_add_pd(
                    _mm256_mul_pd(k.beta1, _mm256_loadu_pd(m)),
                    _mm256_mul_pd(k.one_minus_beta1, g),
                );
                let vt = _mm256_add_pd(
                    _mm256_mul_pd(k.beta2, _mm256_loadu_pd(v)),
                    _mm256_mul_pd(_mm256_mul_pd(k.one_minus_beta2, g), g),
                );
                _mm256_storeu_pd(m, mt);
                _mm256_storeu_pd(v, vt);
                let (mhat, vhat) = bias_corrected(&k, mt, vt);
                let step = _mm256_div_pd(
                    _mm256_mul_pd(k.learning_rate, mhat),
                    _mm256_add_pd(_mm256_sqrt_pd(vhat), k.epsilon),
                );
                _mm256_storeu_pd(p, _mm256_sub_pd(_mm256_loadu_pd(p), step));
            }
        }
        portable::adam(s, p_tail, g_tail, m_tail, v_tail);
    }

    /// One Adam step's constants, in every lane, with the reciprocals of
    /// the bias corrections.
    struct AdamLanes {
        scale: __m256d,
        beta1: __m256d,
        one_minus_beta1: __m256d,
        beta2: __m256d,
        one_minus_beta2: __m256d,
        bc1: __m256d,
        bc2: __m256d,
        inv_bc1: __m256d,
        inv_bc2: __m256d,
        learning_rate: __m256d,
        epsilon: __m256d,
    }

    impl AdamLanes {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn new(s: &AdamStep) -> Self {
            Self {
                scale: _mm256_set1_pd(s.scale),
                beta1: _mm256_set1_pd(s.beta1),
                one_minus_beta1: _mm256_set1_pd(1.0 - s.beta1),
                beta2: _mm256_set1_pd(s.beta2),
                one_minus_beta2: _mm256_set1_pd(1.0 - s.beta2),
                bc1: _mm256_set1_pd(s.bc1),
                bc2: _mm256_set1_pd(s.bc2),
                inv_bc1: _mm256_set1_pd(1.0 / s.bc1),
                inv_bc2: _mm256_set1_pd(1.0 / s.bc2),
                learning_rate: _mm256_set1_pd(s.learning_rate),
                epsilon: _mm256_set1_pd(s.epsilon),
            }
        }
    }

    /// `(m / bc1, v / bc2)` in each lane: by [`quotient`] when every
    /// moment of the vector has a magnitude in [`MOMENT_MIN`,
    /// `MOMENT_MAX`], else by two divisions. Zeros, subnormals, NaN and ±∞
    /// all lie outside that range.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn bias_corrected(k: &AdamLanes, m: __m256d, v: __m256d) -> (__m256d, __m256d) {
        let sign = _mm256_set1_pd(-0.0);
        let (lo, hi) = (_mm256_set1_pd(MOMENT_MIN), _mm256_set1_pd(MOMENT_MAX));
        let (am, av) = (_mm256_andnot_pd(sign, m), _mm256_andnot_pd(sign, v));
        let inside = _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(am, lo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(am, hi),
            ),
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(av, lo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(av, hi),
            ),
        );
        if _mm256_movemask_pd(inside) != 0b1111 {
            return (_mm256_div_pd(m, k.bc1), _mm256_div_pd(v, k.bc2));
        }
        (quotient(m, k.bc1, k.inv_bc1), quotient(v, k.bc2, k.inv_bc2))
    }

    /// `a / b` in each lane, rounded to nearest, from `y = 1/b` (rounded to
    /// nearest), for `b` in [2⁻²³, 1] and `|a|` in [2⁻⁹⁶⁸, 2¹⁰⁰⁰]: a first
    /// guess `q₀ = a·y` and two corrections `qᵢ₊₁ = qᵢ + (a − qᵢ·b)·y`,
    /// each remainder and each correction one FMA.
    ///
    /// Why it is exact (u = 2⁻⁵³; every rounding below has relative error
    /// at most u, for the reasons in the last paragraph):
    ///
    /// * `y = (1/b)(1 + δ)` and `q₀ = (a/b)(1 + δ)(1 + δ₀)`, so
    ///   `ε = a/b − q₀` has `|ε| ≤ (2u + u²)·|a/b|`. `q₀` may be more than
    ///   one ulp off: its two roundings add up.
    /// * The first FMA gives `r₀ = bε(1 + δ₁)`, and the second rounds
    ///   `q₀ + r₀·y = a/b + ε((1 + δ₁)(1 + δ) − 1)`, which lies within
    ///   `(2u + u²)²·|a/b| < 2⁻¹⁰³·|a/b|` of `a/b`. That is far less than
    ///   half the gap between the floats around `a/b`, so `q₁` is one of
    ///   the two floats that bracket `a/b`: a faithful quotient.
    /// * Markstein's theorem (P. Markstein, IBM J. Res. Dev. 34(1), 1990;
    ///   Muller et al., *Handbook of Floating-Point Arithmetic*, on
    ///   FMA-based division): when `y` is `1/b` rounded to nearest and `q₁`
    ///   is faithful, the remainder `a − q₁·b` is a float, so the third FMA
    ///   computes it exactly, and the fourth returns `a/b` rounded to
    ///   nearest: the IEEE quotient.
    ///
    /// The ranges keep every step inside that argument. With `b ≤ 1` and
    /// `|a| ≥ 2⁻⁹⁶⁸`, every `qᵢ` and `a/b` are normal. Each remainder
    /// `a − qᵢ·b` is an integer multiple of the smaller of `ulp(a)` and
    /// `ulp(qᵢ)·ulp(b)`. Both are at least `2⁻¹⁰⁷⁴`: a normal `x` has
    /// `ulp(x) > 2⁻⁵³·|x|`, and `|qᵢ| > |a|/(2b)`, so `ulp(qᵢ)·ulp(b) >
    /// 2⁻¹⁰⁷·|a| ≥ 2⁻¹⁰⁷⁵`, and it is a power of two. So a remainder too
    /// small to be normal is a subnormal float, computed exactly, and one in
    /// the normal range rounds with relative error at most u.
    /// With `b ≥ 2⁻²³` and `|a| ≤ 2¹⁰⁰⁰`, `|a/b| ≤ 2¹⁰²³`, and no `qᵢ`
    /// overflows. Zero numerators are outside the range because the FMAs
    /// would turn −0 into +0.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn quotient(a: __m256d, b: __m256d, y: __m256d) -> __m256d {
        let q = _mm256_mul_pd(a, y);
        let q = _mm256_fmadd_pd(_mm256_fnmadd_pd(q, b, a), y, q);
        _mm256_fmadd_pd(_mm256_fnmadd_pd(q, b, a), y, q)
    }

    /// `(m / bc1, v / bc2)` of four lanes as [`adam`] computes them.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn bias_corrected_lanes(
        s: &AdamStep,
        m: [f64; WIDTH],
        v: [f64; WIDTH],
    ) -> ([f64; WIDTH], [f64; WIDTH]) {
        let (mut mhat, mut vhat) = ([0.0; WIDTH], [0.0; WIDTH]);
        // SAFETY: each array holds the four values its load reads or its
        // store writes.
        unsafe {
            let (mq, vq) = bias_corrected(
                &AdamLanes::new(s),
                _mm256_loadu_pd(m.as_ptr()),
                _mm256_loadu_pd(v.as_ptr()),
            );
            _mm256_storeu_pd(mhat.as_mut_ptr(), mq);
            _mm256_storeu_pd(vhat.as_mut_ptr(), vq);
        }
        (mhat, vhat)
    }
}

/// The batched, transposed and outer-product kernels and [`tanh`] on
/// 512-bit vectors, for x86-64 CPUs that have AVX-512F. The dense kernels
/// are the portable bodies, as on the AVX path, with 64-column blocks;
/// none of their operations fuses. [`tanh`] runs the four-lane version's
/// operations, fused where it fuses, in eight lanes: a mask blend keeps
/// each lane's branch, and a masked load and store carry a last partial
/// vector, so each lane gives the scalar port's bits.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512d, __m512i, __mmask8, _mm512_abs_pd, _mm512_add_epi64, _mm512_add_pd,
        _mm512_castpd_si512, _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_cvtepi32_epi64,
        _mm512_cvttpd_epi32, _mm512_div_pd, _mm512_fmadd_pd, _mm512_fmsub_pd, _mm512_fnmadd_pd,
        _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mask_storeu_pd, _mm512_mask_xor_epi64,
        _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_roundscale_pd, _mm512_set1_epi64,
        _mm512_set1_pd, _mm512_slli_epi64, _mm512_srlv_epi64, _mm512_storeu_pd, _mm512_sub_epi64,
        _mm512_sub_pd, _mm512_test_epi64_mask, _CMP_EQ_OQ, _CMP_GE_OQ, _CMP_GT_OQ, _CMP_LT_OQ,
        _CMP_NLE_UQ, _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };

    pub(super) use super::avx::matvec;
    use super::{portable, Matrix, INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, TANH_SATURATED};

    /// Widest block of result columns that the transposed and
    /// outer-product kernels keep in registers: eight 512-bit vectors, a
    /// quarter of the 32 that AVX-512 has.
    const LANES: usize = 64;
    /// Lanes of one vector.
    const WIDTH: usize = 8;

    /// Whether a CPU known to have AVX2 and FMA can run the kernels below:
    /// whether it has AVX-512F and F16C, which AVX-512F implies to the
    /// compiler along with AVX2 and FMA. Cached loads after the first
    /// call.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("f16c")
    }

    /// [`Matrix::matvec_batch_into`]: the portable body, 16 vectors in two
    /// registers.
    #[target_feature(enable = "avx512f")]
    pub(super) fn matvec_batch(a: &Matrix, xt: &[f64], n: usize, y: &mut [f64]) {
        portable::matvec_batch(a, xt, n, y);
    }

    /// [`Matrix::add_matvec_transpose`]: the portable body, 64 columns in
    /// eight registers.
    #[target_feature(enable = "avx512f")]
    pub(super) fn add_matvec_transpose(a: &Matrix, x: &[f64], y: &mut [f64]) {
        portable::transpose_blocks(a, x, y, LANES);
    }

    /// [`Matrix::add_outer_sum`]: the portable body, 64 columns in eight
    /// registers.
    #[target_feature(enable = "avx512f")]
    pub(super) fn add_outer_sum(a: &mut Matrix, terms: &[(&[f64], &[f64])]) {
        portable::outer_blocks(a, terms, LANES);
    }

    /// [`super::tanh`]: eight values at a time, and a last partial vector
    /// through a masked load and store.
    #[target_feature(enable = "avx512f")]
    pub(super) fn tanh(values: &mut [f64]) {
        let mut chunks = values.chunks_exact_mut(WIDTH);
        for chunk in chunks.by_ref() {
            let p = chunk.as_mut_ptr();
            // SAFETY: `p` points at the eight values that the load reads
            // and the store writes.
            unsafe { _mm512_storeu_pd(p, tanh8(_mm512_loadu_pd(p))) };
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let live: __mmask8 = (1 << tail.len()) - 1;
            let p = tail.as_mut_ptr();
            // SAFETY: the mask selects the lanes of the tail's values, the
            // only ones that the load reads and the store writes.
            unsafe { _mm512_mask_storeu_pd(p, live, tanh8(_mm512_maskz_loadu_pd(live, p))) };
        }
    }

    /// The scalar port's `tanh` in each lane of `x`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tanh8(x: __m512d) -> __m512d {
        let one = _mm512_set1_pd(1.0);
        let two = _mm512_set1_pd(2.0);
        let ax = _mm512_abs_pd(x);
        let negative = negative(x);
        let below_one = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, one);
        let arg = _mm512_mask_blend_pd(
            below_one,
            _mm512_add_pd(ax, ax),
            _mm512_mul_pd(ax, _mm512_set1_pd(-2.0)),
        );
        let t = expm1(arg);
        // One quotient serves both branches: −t/(t + 2) below 1, and
        // 1 − 2/(t + 2) from 1 to 22.
        let q = _mm512_div_pd(negate_or(two, below_one, t), _mm512_add_pd(t, two));
        let z = _mm512_mask_blend_pd(below_one, _mm512_sub_pd(one, q), q);
        let saturated = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ax, _mm512_set1_pd(22.0));
        let z = _mm512_mask_blend_pd(saturated, z, _mm512_set1_pd(TANH_SATURATED));
        let z = negate_or(z, negative, z);
        // x·(1 + x) below 2⁻⁵⁵, which also gives ±0 for ±0.
        let tiny =
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, _mm512_set1_pd(f64::from_bits(0x3c80 << 48)));
        let z = _mm512_mask_blend_pd(tiny, z, _mm512_mul_pd(x, _mm512_add_pd(one, x)));
        // 1/x + 1 or 1/x − 1, by sign, on ±∞ and NaN.
        let nonfinite = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(ax, _mm512_set1_pd(f64::MAX));
        if nonfinite == 0 {
            return z;
        }
        let r = _mm512_div_pd(one, x);
        let r = _mm512_mask_blend_pd(negative, _mm512_add_pd(r, one), _mm512_sub_pd(r, one));
        _mm512_mask_blend_pd(nonfinite, z, r)
    }

    /// The scalar port's `expm1` in each lane of `x`, for the arguments
    /// `tanh` passes, as the four-lane version computes it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn expm1(x: __m512d) -> __m512d {
        let one = _mm512_set1_pd(1.0);
        let ax = _mm512_abs_pd(x);
        let half = _mm512_mask_blend_pd(negative(x), _mm512_set1_pd(0.5), _mm512_set1_pd(-0.5));
        let k = _mm512_roundscale_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm512_add_pd(
            _mm512_mul_pd(x, _mm512_set1_pd(INVLN2)),
            half,
        ));
        // High word below 0x3ff0a2b2: k = −1; at most 0x3fd62e42: k = 0.
        let k = _mm512_mask_blend_pd(below(ax, 0x3ff0_a2b2), k, _mm512_set1_pd(-1.0));
        let k = _mm512_mask_blend_pd(below(ax, 0x3fd6_2e43), k, _mm512_set1_pd(0.0));
        let hi = _mm512_fnmadd_pd(k, _mm512_set1_pd(LN2_HI), x);
        let lo = _mm512_mul_pd(k, _mm512_set1_pd(LN2_LO));
        let x = _mm512_sub_pd(hi, lo);
        let c = _mm512_sub_pd(_mm512_sub_pd(hi, x), lo);
        let hfx = _mm512_mul_pd(x, _mm512_set1_pd(0.5));
        let hxs = _mm512_mul_pd(x, hfx);
        let r1 = _mm512_fmadd_pd(hxs, _mm512_set1_pd(Q1), one);
        let h2 = _mm512_mul_pd(hxs, hxs);
        let r2 = _mm512_fmadd_pd(hxs, _mm512_set1_pd(Q3), _mm512_set1_pd(Q2));
        let h4 = _mm512_mul_pd(h2, h2);
        let r3 = _mm512_fmadd_pd(hxs, _mm512_set1_pd(Q5), _mm512_set1_pd(Q4));
        let r1 = _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1));
        let t = _mm512_fnmadd_pd(r1, hfx, _mm512_set1_pd(3.0));
        let e = _mm512_mul_pd(
            hxs,
            _mm512_div_pd(
                _mm512_sub_pd(r1, t),
                _mm512_fnmadd_pd(x, t, _mm512_set1_pd(6.0)),
            ),
        );
        let y0 = _mm512_sub_pd(x, _mm512_fmsub_pd(x, e, hxs));
        let e = _mm512_sub_pd(_mm512_fmsub_pd(_mm512_sub_pd(e, c), x, c), hxs);
        let e_minus_x = _mm512_sub_pd(e, x);
        let y_minus1 = _mm512_fmadd_pd(
            _mm512_set1_pd(0.5),
            _mm512_sub_pd(x, e),
            _mm512_set1_pd(-0.5),
        );
        let ki = _mm512_cvtepi32_epi64(_mm512_cvttpd_epi32(k));
        let y_wide = _mm512_sub_pd(scale(_mm512_sub_pd(one, e_minus_x), ki), one);
        // 1 − 2⁻ᵏ, for k from 3 to 19.
        let t_low = _mm512_castsi512_pd(_mm512_slli_epi64::<32>(_mm512_sub_epi64(
            _mm512_set1_epi64(0x3ff0_0000),
            _mm512_srlv_epi64(_mm512_set1_epi64(0x20_0000), ki),
        )));
        let y_low = scale(_mm512_sub_pd(t_low, e_minus_x), ki);
        // 2⁻ᵏ, for k from 20 to 56.
        let t_mid = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_sub_epi64(
            _mm512_set1_epi64(0x3ff),
            ki,
        )));
        let y_mid = scale(
            _mm512_add_pd(_mm512_sub_pd(x, _mm512_add_pd(e, t_mid)), one),
            ki,
        );
        let y = _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(k, _mm512_set1_pd(19.5)),
            y_mid,
            y_low,
        );
        let wide = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(k, _mm512_set1_pd(-1.5))
            | _mm512_cmp_pd_mask::<_CMP_GT_OQ>(k, _mm512_set1_pd(56.5));
        let y = _mm512_mask_blend_pd(wide, y, y_wide);
        let y = _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(k, _mm512_set1_pd(-1.0)),
            y,
            y_minus1,
        );
        _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(k, _mm512_set1_pd(0.0)),
            y,
            y0,
        )
    }

    /// The lanes of `x` whose sign bit is set, NaN included.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn negative(x: __m512d) -> __mmask8 {
        _mm512_test_epi64_mask(_mm512_castpd_si512(x), _mm512_set1_epi64(i64::MIN))
    }

    /// `−v` in the lanes of `m`, and `src` in the others: `v` with its
    /// sign bit flipped, as the scalar negation flips it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn negate_or(src: __m512d, m: __mmask8, v: __m512d) -> __m512d {
        let (src, v) = (_mm512_castpd_si512(src), _mm512_castpd_si512(v));
        let sign = _mm512_set1_epi64(i64::MIN);
        _mm512_castsi512_pd(_mm512_mask_xor_epi64(src, m, v, sign))
    }

    /// The lanes of `ax` (non-negative) whose high word is below `high`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn below(ax: __m512d, high: u64) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, _mm512_set1_pd(f64::from_bits(high << 32)))
    }

    /// `y·2ᵏ` in each lane, made as `expm1` makes it: `k` added to the
    /// exponent field.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn scale(y: __m512d, k: __m512i) -> __m512d {
        _mm512_castsi512_pd(_mm512_add_epi64(
            _mm512_castpd_si512(y),
            _mm512_slli_epi64::<52>(k),
        ))
    }
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

/// Hyperbolic tangent of every entry, in place, with the bits of glibc
/// 2.36's `tanh` on an x86-64 CPU with FMA: a port of it, operation for
/// operation, with its fused multiply-adds. On x86-64 CPUs with AVX-512F
/// it runs eight entries at a time, on those with AVX2 and FMA four, else
/// one by one; all give the same bits on every target.
///
/// # Examples
///
/// ```
/// use codesign_rl::math::tanh;
///
/// let mut v = [0.0, 0.5, -30.0];
/// tanh(&mut v);
/// assert_eq!(v, [0.0, 0.462_117_157_260_009_74, -1.0]);
/// ```
pub fn tanh(values: &mut [f64]) {
    tanh_on(Path::detect(), values);
}

/// [`tanh`] on `path`.
fn tanh_on(path: Path, values: &mut [f64]) {
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Avx512` path exists only on a CPU with AVX-512F and
        // what it implies, the features `avx512::tanh` enables.
        Path::Avx512 => unsafe { avx512::tanh(values) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Fma` path exists only on a CPU with AVX2 and FMA, the
        // features `fma::tanh` enables.
        Path::Fma => unsafe { fma::tanh(values) },
        _ => values.iter_mut().for_each(|v| *v = portable::tanh(*v)),
    }
}

/// The constants of one Adam step, shared by every parameter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    /// Multiplier of every gradient (the global-norm clip's scale).
    pub(crate) scale: f64,
    pub(crate) beta1: f64,
    pub(crate) beta2: f64,
    /// The bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    pub(crate) bc1: f64,
    pub(crate) bc2: f64,
    pub(crate) learning_rate: f64,
    pub(crate) epsilon: f64,
}

/// One Adam update of `params` and of their moments `m` and `v`, in place:
/// for each parameter, with `g` its gradient times `scale`,
///
/// ```text
/// m = β₁·m + (1 − β₁)·g
/// v = β₂·v + (1 − β₂)·g·g
/// p = p − lr·(m / bc1) / (√(v / bc2) + ε)
/// ```
///
/// each operation rounded on its own, left to right. On x86-64 CPUs with
/// AVX2 and FMA four parameters run at once, and `m / bc1` and `v / bc2`
/// cost no division: they are the IEEE quotients computed from `1/bc` by
/// FMA corrections, exact for bias corrections in [2⁻²³, 1] and moments
/// whose magnitude lies in [2⁻⁹⁶⁸, 2¹⁰⁰⁰]. A vector with a moment outside
/// that range (zero, subnormal, huge, NaN or ±∞) divides; a step whose
/// bias corrections are outside it runs the portable loop. So both paths
/// give the same bits.
///
/// # Panics
///
/// Panics when the four slices differ in length.
pub(crate) fn adam(s: &AdamStep, params: &mut [f64], grads: &[f64], m: &mut [f64], v: &mut [f64]) {
    let n = params.len();
    assert!(
        grads.len() == n && m.len() == n && v.len() == n,
        "adam slices differ in length"
    );
    #[cfg(target_arch = "x86_64")]
    if let Path::Fma | Path::Avx512 = Path::detect() {
        // SAFETY: an `Fma` or `Avx512` path exists only on a CPU with AVX2
        // and FMA, the features `fma::adam` enables.
        return unsafe { fma::adam(s, params, grads, m, v) };
    }
    portable::adam(s, params, grads, m, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Every path this CPU can run, narrowest first.
    fn paths() -> Vec<Path> {
        let mut paths = vec![Path::Portable];
        #[cfg(target_arch = "x86_64")]
        if avx::detected() {
            paths.push(Path::Avx);
            if fma::detected() {
                paths.push(Path::Fma);
                if avx512::detected() {
                    paths.push(Path::Avx512);
                }
            }
        }
        paths
    }

    /// `len` mixed-sign values over six decades, about one in eight a
    /// signed zero; or, with `zeros`, only signed zeros, whose sums keep
    /// the sign of their start value.
    fn values(rng: &mut SmallRng, len: usize, zeros: bool) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                _ if zeros && rng.gen::<bool>() => 0.0,
                _ if zeros => -0.0,
                0 if rng.gen::<bool>() => 0.0,
                0 => -0.0,
                _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..3)),
            })
            .collect()
    }

    /// Every `(rows, cols)` of the ranges, once with mixed values and once
    /// with signed zeros.
    fn shapes(
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, usize, bool)> {
        rows.flat_map(move |r| cols.clone().map(move |c| (r, c)))
            .flat_map(|(r, c)| [(r, c, false), (r, c, true)])
    }

    fn matrix(rng: &mut SmallRng, rows: usize, cols: usize, zeros: bool) -> Matrix {
        let data = values(rng, rows * cols, zeros);
        let slices: Vec<&[f64]> = data.chunks(cols).collect();
        Matrix::from_rows(&slices)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `A·x` by its definition: one row at a time, from 0.
    fn naive_matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| {
                let mut acc = 0.0;
                for (c, xc) in x.iter().enumerate() {
                    acc += a.get(r, c) * xc;
                }
                acc
            })
            .collect()
    }

    // The kernel tests below cover every remainder the blocked loops
    // have: rows mod 4 and mod 8, columns mod 2, mod 16, mod 32 and mod 64
    // (past 127 = 64 + 32 + 16 + 8 + 4 + 2 + 1 columns), vectors mod 16,
    // and k = 1; each shape runs on mixed values and on signed zeros.

    #[test]
    fn matvec_paths_match_the_definition() {
        let mut rng = SmallRng::seed_from_u64(1);
        for path in paths() {
            for (rows, cols, zeros) in shapes(1..18, 1..36) {
                let a = matrix(&mut rng, rows, cols, zeros);
                let x = values(&mut rng, cols, zeros);
                let mut y = values(&mut rng, rows, false);
                run!(path, matvec(&a, &x, &mut y));
                let want = naive_matvec(&a, &x);
                assert_eq!(bits(&y), bits(&want), "{path:?} {rows}x{cols}");
            }
        }
    }

    #[test]
    fn matvec_batch_paths_match_the_definition() {
        let mut rng = SmallRng::seed_from_u64(2);
        for path in paths() {
            for (rows, cols, zeros) in shapes(1..6, 1..20) {
                for n in 0..36 {
                    let a = matrix(&mut rng, rows, cols, zeros);
                    let xs: Vec<Vec<f64>> = (0..n).map(|_| values(&mut rng, cols, zeros)).collect();
                    let xt: Vec<f64> = (0..cols)
                        .flat_map(|c| xs.iter().map(move |x| x[c]))
                        .collect();
                    let mut y = values(&mut rng, rows * n, false);
                    run!(path, matvec_batch(&a, &xt, n, &mut y));
                    let want: Vec<f64> = xs.iter().flat_map(|x| naive_matvec(&a, x)).collect();
                    assert_eq!(bits(&y), bits(&want), "{path:?} {rows}x{cols} n={n}");
                }
            }
        }
    }

    #[test]
    fn add_matvec_transpose_paths_match_the_definition() {
        let mut rng = SmallRng::seed_from_u64(3);
        for path in paths() {
            for (rows, cols, zeros) in shapes(1..10, 1..131) {
                let a = matrix(&mut rng, rows, cols, zeros);
                let x = values(&mut rng, rows, zeros);
                let mut y = values(&mut rng, cols, zeros);
                let mut want = y.clone();
                for (r, xr) in x.iter().enumerate() {
                    for (c, w) in want.iter_mut().enumerate() {
                        *w += a.get(r, c) * xr;
                    }
                }
                run!(path, add_matvec_transpose(&a, &x, &mut y));
                assert_eq!(bits(&y), bits(&want), "{path:?} {rows}x{cols}");
            }
        }
    }

    /// `A + Σ_t col(t) ⊗ row(t)` by its definition: one `t` at a time.
    fn naive_outer_sum(a: &Matrix, col: &[Vec<f64>], row: &[Vec<f64>]) -> Matrix {
        let mut sum = a.clone();
        for (col_t, row_t) in col.iter().zip(row) {
            for (r, cr) in col_t.iter().enumerate() {
                for (c, v) in row_t.iter().enumerate() {
                    sum.set(r, c, sum.get(r, c) + cr * v);
                }
            }
        }
        sum
    }

    #[test]
    fn add_outer_sum_paths_match_the_definition() {
        let mut rng = SmallRng::seed_from_u64(4);
        for path in paths() {
            for (rows, cols, zeros) in shapes(1..7, 1..131) {
                for k in 1..5 {
                    let mut a = matrix(&mut rng, rows, cols, zeros);
                    let col: Vec<Vec<f64>> =
                        (0..k).map(|_| values(&mut rng, rows, zeros)).collect();
                    let row: Vec<Vec<f64>> =
                        (0..k).map(|_| values(&mut rng, cols, zeros)).collect();
                    let want = naive_outer_sum(&a, &col, &row);
                    let terms: Vec<(&[f64], &[f64])> = col
                        .iter()
                        .zip(&row)
                        .map(|(c, r)| (&c[..], &r[..]))
                        .collect();
                    run!(path, add_outer_sum(&mut a, &terms));
                    assert_eq!(
                        bits(a.as_slice()),
                        bits(want.as_slice()),
                        "{path:?} {rows}x{cols} k={k}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod tanh_inputs {
        include!("../tests/tanh_inputs/mod.rs");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tanh_vector_path_matches_the_scalar_port() {
        let xs = tanh_inputs::inputs();
        let want: Vec<f64> = xs.iter().map(|&x| portable::tanh(x)).collect();
        // Every 61st input, in consecutive slices of each length 1-17, so
        // that every length of a last partial vector of four or eight
        // meets every family; the last seven values lie past the slices
        // and must stay.
        let sample: Vec<f64> = xs.iter().step_by(61).copied().collect();
        let sample_want: Vec<f64> = want.iter().step_by(61).copied().collect();
        let n = sample.len() - 7;
        for path in paths() {
            let mut ys = xs.clone();
            tanh_on(path, &mut ys);
            for (i, (y, w)) in ys.iter().zip(&want).enumerate() {
                let x = xs[i];
                assert_eq!(
                    y.to_bits(),
                    w.to_bits(),
                    "{path:?} input {i}: {x:e} ({:#x})",
                    x.to_bits()
                );
            }
            let mut empty = sample.clone();
            tanh_on(path, &mut empty[3..3]);
            assert_eq!(bits(&empty), bits(&sample), "{path:?} empty slice");
            for len in 1..18 {
                let mut buf = sample.clone();
                for slice in buf[..n].chunks_mut(len) {
                    tanh_on(path, slice);
                }
                let (done, past) = buf.split_at(n);
                assert_eq!(
                    bits(done),
                    bits(&sample_want[..n]),
                    "{path:?} slices of {len}"
                );
                assert_eq!(
                    bits(past),
                    bits(&sample[n..]),
                    "{path:?} past slices of {len}"
                );
            }
        }
    }

    #[test]
    fn tanh_special_inputs_match_the_scalar_port() {
        let ulps =
            |x: f64| (-2..=2).map(move |k: i64| f64::from_bits(x.to_bits().wrapping_add_signed(k)));
        let mut specials = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x0008_0000_0000_0000),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NAN,
        ];
        specials.extend(
            ulps(f64::from_bits(0x3c80 << 48))
                .chain(ulps(1.0))
                .chain(ulps(22.0)),
        );
        let specials: Vec<f64> = specials.iter().flat_map(|&x| [x, -x]).collect();
        let mut rng = SmallRng::seed_from_u64(8);
        // Each special value in each lane of slices of 1-17 values (every
        // length of a last partial vector, after zero, one and two whole
        // vectors of eight), beside random values; the slice sits between
        // guard values that must stay.
        for path in paths() {
            for &x in &specials {
                for len in 1..18 {
                    for lane in 0..len {
                        let mut buf: Vec<f64> =
                            (0..len + 2).map(|_| rng.gen_range(-4.0..4.0)).collect();
                        buf[1 + lane] = x;
                        let want: Vec<f64> = buf
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| {
                                if (1..=len).contains(&i) {
                                    portable::tanh(v)
                                } else {
                                    v
                                }
                            })
                            .collect();
                        tanh_on(path, &mut buf[1..=len]);
                        assert_eq!(
                            bits(&buf),
                            bits(&want),
                            "{path:?} {x:e} in lane {lane} of {len}"
                        );
                    }
                }
            }
        }
    }

    /// The bias corrections `1 − βᵗ` that `Adam::step` computes for
    /// t = 1..=40,000, in pairs (β = 0.9, β = 0.999).
    #[cfg(target_arch = "x86_64")]
    fn bias_corrections() -> impl Iterator<Item = (f64, f64)> {
        (1..=40_000).map(|t| {
            let t = f64::from(t);
            (1.0 - 0.9f64.powf(t), 1.0 - 0.999f64.powf(t))
        })
    }

    #[cfg(target_arch = "x86_64")]
    fn adam_step(bc1: f64, bc2: f64) -> AdamStep {
        AdamStep {
            scale: 1.0,
            beta1: 0.9,
            beta2: 0.999,
            bc1,
            bc2,
            learning_rate: 0.01,
            epsilon: 1e-8,
        }
    }

    /// A float whose magnitude lies in [2⁻⁹⁶⁸, 2¹⁰⁰⁰), uniform in its
    /// exponent and its significand, with a random sign.
    #[cfg(target_arch = "x86_64")]
    fn moment(rng: &mut SmallRng) -> f64 {
        let exponent = rng.gen_range(1023 - 968..1023 + 1000u64);
        let bits = exponent << 52 | rng.gen_range(0..1u64 << 52);
        let sign = u64::from(rng.gen::<bool>()) << 63;
        f64::from_bits(bits | sign)
    }

    /// Checks the vector path's bias-corrected moments of four lanes
    /// against the divisions.
    #[cfg(target_arch = "x86_64")]
    fn check_quotients(s: &AdamStep, m: [f64; 4], v: [f64; 4]) {
        // SAFETY: the callers run only on CPUs with AVX2 and FMA.
        let (mhat, vhat) = unsafe { fma::bias_corrected_lanes(s, m, v) };
        let want_m = m.map(|x| x / s.bc1);
        let want_v = v.map(|x| x / s.bc2);
        assert_eq!(
            bits(&mhat),
            bits(&want_m),
            "m {m:?} / {:e} ({:#x})",
            s.bc1,
            s.bc1.to_bits()
        );
        assert_eq!(
            bits(&vhat),
            bits(&want_v),
            "v {v:?} / {:e} ({:#x})",
            s.bc2,
            s.bc2.to_bits()
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn adam_quotients_match_the_division() {
        if !fma::detected() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(5);
        // Every bias correction of either moment, as the divisor of
        // either, over random moments of the admitted range.
        for (c1, c2) in bias_corrections() {
            for s in [adam_step(c1, c2), adam_step(c2, c1)] {
                let m = [(); 4].map(|()| moment(&mut rng));
                let v = [(); 4].map(|()| moment(&mut rng));
                check_quotients(&s, m, v);
            }
        }
        // Values at and past the ends of the admitted range, in each lane
        // of either moment beside three admitted ones, over every 97th
        // correction and the ends of the admitted divisors.
        let ulps =
            |x: f64| (-4..=4).map(move |k: i64| f64::from_bits(x.to_bits().wrapping_add_signed(k)));
        let mut specials = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::from_bits((1023 + 1023) << 52),
            f64::INFINITY,
            f64::NAN,
        ];
        specials.extend(
            ulps(MOMENT_MIN)
                .chain(ulps(MOMENT_MAX))
                .chain(ulps(f64::MAX / 2.0)),
        );
        specials.extend((0..16).map(|_| f64::from_bits(rng.gen_range(1..1u64 << 52))));
        specials.extend((0..16).map(|_| f64::from_bits(rng.gen_range(1..(1023 - 968) << 52))));
        let specials: Vec<f64> = specials.iter().flat_map(|&x| [x, -x]).collect();
        let divisors: Vec<f64> = bias_corrections()
            .step_by(97)
            .flat_map(|(c1, c2)| [c1, c2])
            .chain([
                DIVISOR_MIN,
                f64::from_bits(DIVISOR_MIN.to_bits() + 1),
                0.5,
                1.0,
            ])
            .collect();
        for (i, &bc) in divisors.iter().enumerate() {
            let s = adam_step(bc, divisors[(i + 1) % divisors.len()]);
            for &x in &specials {
                for lane in 0..4 {
                    let mut m = [(); 4].map(|()| moment(&mut rng));
                    let mut v = [(); 4].map(|()| moment(&mut rng).abs());
                    m[lane] = x;
                    check_quotients(&s, m, v);
                    m[lane] = moment(&mut rng);
                    v[lane] = x;
                    check_quotients(&s, m, v);
                }
            }
        }
    }

    /// Runs `adam` on the vector path and on the portable loop from one
    /// state and checks that both give the same bits.
    #[cfg(target_arch = "x86_64")]
    fn check_adam(s: &AdamStep, p: &[f64], g: &[f64], m: &[f64], v: &[f64]) {
        let (mut p0, mut m0, mut v0) = (p.to_vec(), m.to_vec(), v.to_vec());
        let (mut p1, mut m1, mut v1) = (p.to_vec(), m.to_vec(), v.to_vec());
        portable::adam(s, &mut p0, g, &mut m0, &mut v0);
        // SAFETY: the callers run only on CPUs with AVX2 and FMA.
        unsafe { fma::adam(s, &mut p1, g, &mut m1, &mut v1) };
        let what = || format!("{s:?}, g {g:?}, m {m:?}, v {v:?}");
        assert_eq!(bits(&p1), bits(&p0), "p: {}", what());
        assert_eq!(bits(&m1), bits(&m0), "m: {}", what());
        assert_eq!(bits(&v1), bits(&v0), "v: {}", what());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn adam_vector_path_matches_the_loop() {
        if !fma::detected() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(6);
        let special = [
            0.0,
            -0.0,
            1e-310,
            -1e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Bias corrections outside the admitted divisors run the loop.
        let others = [
            (DIVISOR_MIN / 2.0, 0.5),
            (0.5, 1.5),
            (0.0, 0.5),
            (0.5, f64::NAN),
        ];
        let corrections = bias_corrections().chain(others);
        for (t, (bc1, bc2)) in corrections.enumerate() {
            let len = t % 10;
            let mut s = adam_step(bc1, bc2);
            s.scale = if t % 3 == 0 { 0.37 } else { 1.0 };
            let p: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..12) {
                    0 => special[rng.gen_range(0..special.len())],
                    _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8..2)),
                })
                .collect();
            let m: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..12) {
                    0 => 0.0,
                    1 => 1e-300 * rng.gen_range(-1.0..1.0),
                    _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8..1)),
                })
                .collect();
            let v: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..12) {
                    0 => 0.0,
                    _ => rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-16..1)),
                })
                .collect();
            check_adam(&s, &p, &g, &m, &v);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn adam_vector_path_matches_the_loop_as_moments_decay() {
        if !fma::detected() {
            return;
        }
        // 7,500 steps of 37 parameters. From step 100 on, parameters 8-23
        // get zero gradients, so their first moments decay by 0.9 a step
        // out of the admitted range and into the subnormals (by then
        // `bc1` is 1). Parameters 24-31 get gradients near 1e-152, so
        // their second moments stay normal but below the admitted range,
        // beside a `bc2` below 1.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 37;
        let mut p0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut m0, mut v0) = (vec![0.0; n], vec![0.0; n]);
        let (mut p1, mut m1, mut v1) = (p0.clone(), m0.clone(), v0.clone());
        let (mut subnormal, mut tiny) = (0, 0);
        for (t, (bc1, bc2)) in bias_corrections().take(7_500).enumerate() {
            let s = adam_step(bc1, bc2);
            let g: Vec<f64> = (0..n)
                .map(|i| match i {
                    8..24 if t >= 100 => 0.0,
                    24..32 => rng.gen_range(-1.0..1.0) * 1e-152,
                    _ => rng.gen_range(-1.0..1.0) * 1e-2,
                })
                .collect();
            portable::adam(&s, &mut p0, &g, &mut m0, &mut v0);
            // SAFETY: the CPU has AVX2 and FMA.
            unsafe { fma::adam(&s, &mut p1, &g, &mut m1, &mut v1) };
            assert_eq!(bits(&p1), bits(&p0), "p at step {t}");
            assert_eq!(bits(&m1), bits(&m0), "m at step {t}");
            assert_eq!(bits(&v1), bits(&v0), "v at step {t}");
            // The decayed moments are too small to move a parameter, so
            // check their quotients too.
            for (m, v) in m1.chunks_exact(4).zip(v1.chunks_exact(4)) {
                let (m, v) = (m.try_into().expect("4"), v.try_into().expect("4"));
                check_quotients(&s, m, v);
            }
            subnormal += m1.iter().filter(|m| m.is_subnormal()).count();
            tiny += v1
                .iter()
                .filter(|&&v| v.is_normal() && v < MOMENT_MIN)
                .count();
        }
        assert!(
            subnormal > 1000 && tiny > 1000,
            "{subnormal} subnormal first moments, {tiny} tiny second moments"
        );
    }

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
    fn add_outer_sum_adds_chunks_of_terms_in_order() {
        let mut rng = SmallRng::seed_from_u64(9);
        for k in [63, 64, 65, 128, 129, 272] {
            let (rows, cols) = (3, 67);
            let mut a = matrix(&mut rng, rows, cols, false);
            let col: Vec<Vec<f64>> = (0..k).map(|_| values(&mut rng, rows, false)).collect();
            let row: Vec<Vec<f64>> = (0..k).map(|_| values(&mut rng, cols, false)).collect();
            let want = naive_outer_sum(&a, &col, &row);
            a.add_outer_sum(k, |t| &col[t], |t| &row[t]);
            assert_eq!(bits(a.as_slice()), bits(want.as_slice()), "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "col count mismatch")]
    fn add_outer_sum_checks_every_term() {
        let mut m = Matrix::zeros(2, 3);
        let long = [1.0; 4];
        m.add_outer_sum(
            70,
            |_| &[1.0, 2.0],
            |t| if t == 69 { &long } else { &long[..3] },
        );
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
