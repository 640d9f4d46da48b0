// The inputs on which the `tanh` digest and the `tanh` path tests run.
// `tests/golden.rs` declares this file as a module, and `src/math.rs`'s
// unit tests include it, so both see the same set.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Magnitudes at which `tanh`, or the `expm1` it calls, changes branch:
/// 2⁻⁵⁵, 1 and 22 in `tanh`; the halves of `expm1`'s argument bounds
/// (`−2|x|` or `2|x|` has high word `0x3fd62e43`, `0x3ff0a2b2` or
/// `0x4043687a`); and every change of `expm1`'s exponent `k`, at
/// `2|x| = 2.5 ln 2` for k = −2/−3 and `2|x| = (k − ½) ln 2` for k ≥ 4.
fn thresholds() -> Vec<f64> {
    let ln2 = std::f64::consts::LN_2;
    let mut at = vec![f64::from_bits(0x3c80_0000_0000_0000), 1.0, 22.0];
    at.extend(
        [0x3fd6_2e43, 0x3ff0_a2b2, 0x4043_687a].map(|hi: u64| f64::from_bits(hi << 32) / 2.0),
    );
    at.push(1.25 * ln2);
    at.extend((4..=64).map(|k| (f64::from(k) - 0.5) * ln2 / 2.0));
    at
}

/// 3,019,559 inputs, in a fixed order: 1M uniform on [−25, 25), 1M
/// uniform on [−4, 4), 500k random bit patterns (NaNs included), 500k
/// log-uniform magnitudes from 2⁻⁷⁰ to 2⁹ of both signs, every
/// threshold above ±64 ulps of both signs, 2,000 random subnormals, and
/// the special values: ±0, the extreme subnormals and normals, ±∞ and
/// four NaNs.
pub fn inputs() -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(0x7a4e);
    let mut xs: Vec<f64> = Vec::with_capacity(3_100_000);
    xs.extend((0..1_000_000).map(|_| rng.gen_range(-25.0..25.0)));
    xs.extend((0..1_000_000).map(|_| rng.gen_range(-4.0..4.0)));
    xs.extend((0..500_000).map(|_| f64::from_bits(rng.gen::<u64>())));
    xs.extend((0..500_000).map(|_| {
        let exponent: u64 = rng.gen_range(1023 - 70..1023 + 9);
        let sign = u64::from(rng.gen::<bool>()) << 63;
        f64::from_bits(sign | exponent << 52 | rng.gen::<u64>() >> 12)
    }));
    for at in thresholds() {
        let bits = at.to_bits();
        for ulps in 0..=128 {
            let x = f64::from_bits(bits - 64 + ulps);
            xs.extend([x, -x]);
        }
    }
    xs.extend((0..2_000).map(|_| {
        let sign = u64::from(rng.gen::<bool>()) << 63;
        f64::from_bits(sign | rng.gen::<u64>() >> 12)
    }));
    xs.extend([
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff4_0000_0000_0000),
    ]);
    xs
}
