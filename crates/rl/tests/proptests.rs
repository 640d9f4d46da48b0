//! Property-based tests of the controller across random shapes and seeds,
//! and of each dense kernel against its naive definition, bit for bit.

use codesign_rl::math::{masked_softmax, Matrix};
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_vocab() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..7, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollouts_respect_vocabularies(vocab in arb_vocab(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = PolicyConfig::new(vocab.clone());
        config.hidden = 8;
        config.embed = 4;
        let policy = LstmPolicy::new(config, &mut rng);
        let r = policy.rollout(&mut rng);
        prop_assert_eq!(r.actions.len(), vocab.len());
        for (a, &v) in r.actions.iter().zip(vocab.iter()) {
            prop_assert!(*a < v);
        }
        prop_assert!(r.log_prob <= 0.0);
        prop_assert!(r.entropy >= 0.0);
    }

    #[test]
    fn log_prob_matches_rollout(vocab in arb_vocab(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = PolicyConfig::new(vocab);
        config.hidden = 8;
        config.embed = 4;
        let policy = LstmPolicy::new(config, &mut rng);
        let r = policy.rollout(&mut rng);
        prop_assert!((policy.log_prob(&r.actions) - r.log_prob).abs() < 1e-10);
    }

    #[test]
    fn entropy_is_bounded_by_uniform(vocab in arb_vocab(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = PolicyConfig::new(vocab.clone());
        config.hidden = 8;
        config.embed = 4;
        let policy = LstmPolicy::new(config, &mut rng);
        let r = policy.rollout(&mut rng);
        let max_entropy: f64 = vocab.iter().map(|&v| (v as f64).ln()).sum();
        prop_assert!(r.entropy <= max_entropy + 1e-9);
    }

    #[test]
    fn learning_with_zero_advantage_changes_nothing(vocab in arb_vocab(), seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = PolicyConfig::new(vocab);
        config.hidden = 6;
        config.embed = 3;
        let mut policy = LstmPolicy::new(config, &mut rng);
        let r = policy.rollout(&mut rng);
        let before = {
            let mut v = Vec::new();
            policy.visit_params(&mut |p, _| v.extend_from_slice(p));
            v
        };
        policy.zero_grad();
        policy.accumulate_grad(&r, 0.0, 0.0);
        // With advantage 0 and no entropy bonus, the gradient is exactly 0.
        let mut grads = Vec::new();
        policy.visit_params(&mut |_, g| grads.extend_from_slice(g));
        prop_assert!(grads.iter().all(|g| g.abs() < 1e-12));
        let after = {
            let mut v = Vec::new();
            policy.visit_params(&mut |p, _| v.extend_from_slice(p));
            v
        };
        prop_assert_eq!(before, after);
    }

    #[test]
    fn trainer_baseline_stays_within_reward_range(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = PolicyConfig::new(vec![3, 3]);
        config.hidden = 6;
        config.embed = 3;
        let policy = LstmPolicy::new(config, &mut rng);
        let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
        for i in 0..30 {
            let r = trainer.propose(&mut rng);
            trainer.learn(&r, (i % 3) as f64 * 0.5); // rewards in {0, 0.5, 1.0}
        }
        let b = trainer.baseline().expect("updated");
        prop_assert!((0.0..=1.0).contains(&b), "baseline {b}");
    }
}

// Each kernel against its naive definition, over shapes that reach every
// remainder path: rows mod 4, columns mod 16, vectors mod 16, and k = 1.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matvec_into_matches_naive(rows in 1usize..14, cols in 1usize..20, seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = matrix(&mut rng, rows, cols);
        let x = values(&mut rng, cols);
        let mut y = values(&mut rng, rows);
        a.matvec_into(&x, &mut y);
        prop_assert_eq!(bits(&y), bits(&naive_matvec(&a, &x)));
    }

    #[test]
    fn matvec_batch_into_matches_naive(
        rows in 1usize..6,
        cols in 1usize..20,
        n in 0usize..50,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = matrix(&mut rng, rows, cols);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| values(&mut rng, cols)).collect();
        let xt: Vec<f64> = (0..cols).flat_map(|c| xs.iter().map(move |x| x[c])).collect();
        let mut y = values(&mut rng, rows * n);
        a.matvec_batch_into(&xt, n, &mut y);
        let expected: Vec<f64> = xs.iter().flat_map(|x| naive_matvec(&a, x)).collect();
        prop_assert_eq!(bits(&y), bits(&expected));
    }

    #[test]
    fn add_matvec_transpose_matches_naive(rows in 1usize..14, cols in 1usize..40, seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = matrix(&mut rng, rows, cols);
        let x = values(&mut rng, rows);
        let mut y = values(&mut rng, cols);
        let mut expected = y.clone();
        a.add_matvec_transpose(&x, &mut y);
        for (r, xr) in x.iter().enumerate() {
            for (c, e) in expected.iter_mut().enumerate() {
                *e += a.get(r, c) * xr;
            }
        }
        prop_assert_eq!(bits(&y), bits(&expected));
    }

    #[test]
    fn add_outer_sum_matches_naive(
        rows in 1usize..10,
        cols in 1usize..40,
        k in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = matrix(&mut rng, rows, cols);
        let col: Vec<Vec<f64>> = (0..k).map(|_| values(&mut rng, rows)).collect();
        let row: Vec<Vec<f64>> = (0..k).map(|_| values(&mut rng, cols)).collect();
        // Visit the steps in reverse, as the controller's backward pass does.
        let mut expected = a.clone();
        for t in (0..k).rev() {
            for (r, cr) in col[t].iter().enumerate() {
                for (c, x) in row[t].iter().enumerate() {
                    expected.set(r, c, expected.get(r, c) + cr * x);
                }
            }
        }
        a.add_outer_sum(k, |t| &col[k - 1 - t], |t| &row[k - 1 - t]);
        prop_assert_eq!(bits(a.as_slice()), bits(expected.as_slice()));
    }

    #[test]
    fn masked_softmax_matches_naive(len in 1usize..8, live in 1usize..8, seed in 0u64..1000) {
        let live = live.min(len);
        let mut rng = SmallRng::seed_from_u64(seed);
        let logits: Vec<f64> = values(&mut rng, len).iter().map(|v| v * 100.0).collect();
        let mut p = logits.clone();
        masked_softmax(&mut p, live);
        prop_assert_eq!(bits(&p), bits(&naive_masked_softmax(&logits, live)));
    }
}

/// `len` mixed-sign values over six decades; about one in eight is a
/// signed zero.
fn values(rng: &mut SmallRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.gen_range(0..8) {
            0 if rng.gen::<bool>() => 0.0,
            0 => -0.0,
            _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..3)),
        })
        .collect()
}

fn matrix(rng: &mut SmallRng, rows: usize, cols: usize) -> Matrix {
    let data = values(rng, rows * cols);
    let slices: Vec<&[f64]> = data.chunks(cols).collect();
    Matrix::from_rows(&slices)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `A·x`, one row at a time with a single accumulator.
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

/// Softmax over the first `live` logits; the rest get probability 0.
fn naive_masked_softmax(logits: &[f64], live: usize) -> Vec<f64> {
    let max = logits[..live]
        .iter()
        .fold(f64::NEG_INFINITY, |m, &l| m.max(l));
    let mut out = vec![0.0; logits.len()];
    let mut denom = 0.0;
    for i in 0..live {
        let e = (logits[i] - max).exp();
        out[i] = e;
        denom += e;
    }
    for v in &mut out {
        *v /= denom;
    }
    out
}
