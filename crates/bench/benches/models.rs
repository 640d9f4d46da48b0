//! Criterion benchmarks of the analytical models: the per-evaluation costs
//! that determine how fast the codesign space can be enumerated (Fig. 4) and
//! searched (Figs. 5–7); and of one refit of the search-guidance surrogate,
//! the layer that dominates surrogate-guided search.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use codesign_accel::{area, ConfigSpace, Scheduler};
use codesign_nasbench::canon::canonical_hash;
use codesign_nasbench::{
    known_cells, CellFeatures, CellSpec, Dataset, Network, NetworkConfig, SurrogateModel,
};
use codesign_rl::{math, MlpRegressor, RegressorConfig};

/// Samples, features and targets of one guided-evo surrogate refit.
const REFIT_SAMPLES: usize = 272;
const REFIT_FEATURES: usize = 18;
const REFIT_TARGETS: usize = 4;

fn bench_area_model(c: &mut Criterion) {
    let space = ConfigSpace::chaidnn();
    let configs: Vec<_> = (0..64).map(|i| space.get(i * 135)).collect();
    c.bench_function("area_model/64_configs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cfg in &configs {
                acc += area::area_mm2(black_box(cfg));
            }
            acc
        })
    });
}

fn bench_latency_schedule(c: &mut Criterion) {
    let space = ConfigSpace::chaidnn();
    let config = space.get(8639);
    let network = Network::assemble(&known_cells::resnet_cell(), &NetworkConfig::default());
    c.bench_function("latency/schedule_resnet", |b| {
        b.iter(|| {
            let s = Scheduler::new(config);
            s.network_latency_ms(black_box(&network))
        })
    });
}

fn bench_network_assembly(c: &mut Criterion) {
    let cell = known_cells::googlenet_cell();
    let cfg = NetworkConfig::default();
    c.bench_function("network/assemble_googlenet", |b| {
        b.iter(|| Network::assemble(black_box(&cell), &cfg).macs())
    });
}

fn bench_surrogate(c: &mut Criterion) {
    let model = SurrogateModel::default();
    let cell = known_cells::cod1_cell();
    c.bench_function("surrogate/evaluate_cifar100", |b| {
        b.iter(|| {
            model
                .evaluate(black_box(&cell), Dataset::Cifar100)
                .mean_accuracy()
        })
    });
    let features = CellFeatures::extract(&cell, &NetworkConfig::default());
    c.bench_function("surrogate/evaluate_from_features", |b| {
        b.iter(|| {
            model
                .evaluate_features(
                    black_box(&features),
                    cell.canonical_hash(),
                    Dataset::Cifar10,
                )
                .mean_accuracy()
        })
    });
}

fn bench_canonical_hash(c: &mut Criterion) {
    let cell = known_cells::googlenet_cell();
    // `CellSpec::new` reads the hash from the process-wide memo: a hit
    // after the first iteration.
    c.bench_function("spec/validate_and_hash_7v_cell", |b| {
        b.iter(|| {
            CellSpec::new(cell.matrix().clone(), cell.ops().to_vec()).map(|s| s.canonical_hash())
        })
    });
    // The reference hash, which a memo miss pays.
    c.bench_function("spec/canonical_hash_7v_cell", |b| {
        b.iter(|| canonical_hash(black_box(cell.matrix()), black_box(cell.ops())))
    });
}

/// A deterministic set of one refit's shape: mixed-scale features, a
/// constant last feature and targets nonlinear in the features.
fn refit_set() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..REFIT_SAMPLES)
        .map(|i| {
            let mut x: Vec<f64> = (0..REFIT_FEATURES - 1)
                .map(|j| {
                    let t = (i * REFIT_FEATURES + j) as f64;
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
            (0..REFIT_TARGETS)
                .map(|k| x[k] * x[k + 4] - x[k + 8])
                .collect()
        })
        .collect();
    (xs, ys)
}

fn bench_surrogate_refit(c: &mut Criterion) {
    let (xs, ys) = refit_set();
    let mut rng = SmallRng::seed_from_u64(7);
    let model = MlpRegressor::new(
        REFIT_FEATURES,
        REFIT_TARGETS,
        RegressorConfig::default(),
        &mut rng,
    );
    // The whole refit: 120 full-batch epochs from fresh weights.
    c.bench_function("regressor/fit_272x18_to_4", |b| {
        b.iter(|| {
            let mut fitted = model.clone();
            fitted.fit(black_box(&xs), black_box(&ys));
            fitted.predict(&xs[0])[0]
        })
    });
    // One epoch's hidden activations: 272 samples × 16 hidden units.
    let hidden = RegressorConfig::default().hidden;
    let pre: Vec<f64> = (0..REFIT_SAMPLES * hidden)
        .map(|i| (i as f64 * 0.618_034).sin() * 3.0)
        .collect();
    let mut values = pre.clone();
    c.bench_function("regressor/tanh_4352", |b| {
        b.iter(|| {
            values.copy_from_slice(&pre);
            math::tanh(black_box(&mut values));
            values[0]
        })
    });
}

criterion_group!(
    benches,
    bench_area_model,
    bench_latency_schedule,
    bench_network_assembly,
    bench_surrogate,
    bench_canonical_hash,
    bench_surrogate_refit
);
criterion_main!(benches);
