//! Criterion benchmarks of the analytical models: the per-evaluation costs
//! that determine how fast the codesign space can be enumerated (Fig. 4) and
//! searched (Figs. 5–7).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use codesign_accel::{area, ConfigSpace, Scheduler};
use codesign_nasbench::canon::canonical_hash;
use codesign_nasbench::{
    known_cells, CellFeatures, CellSpec, Dataset, Network, NetworkConfig, SurrogateModel,
};

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

criterion_group!(
    benches,
    bench_area_model,
    bench_latency_schedule,
    bench_network_assembly,
    bench_surrogate,
    bench_canonical_hash
);
criterion_main!(benches);
