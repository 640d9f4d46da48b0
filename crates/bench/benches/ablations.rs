//! Timing ablations for design choices in the reproduction (the quality
//! ablations live in the `ablations` binary):
//!
//! * greedy multi-engine scheduling vs. serial single-queue execution,
//! * per-CNN 2-D dominance pre-pruning vs. direct 3-D filtering.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use codesign_accel::{schedule_serial, ConfigSpace, Scheduler};
use codesign_moo::{AxisSchema, DynParetoFront};
use codesign_nasbench::{known_cells, Dataset, Network};

fn bench_scheduler_vs_serial(c: &mut Criterion) {
    let config = ConfigSpace::chaidnn().get(8639);
    let network = Network::assemble(&known_cells::cod1_cell(), Dataset::Cifar10);
    c.bench_function("ablation/scheduler_greedy", |b| {
        let s = Scheduler::new(config);
        b.iter(|| s.network_latency_ms(black_box(&network)))
    });
    c.bench_function("ablation/scheduler_serial", |b| {
        b.iter(|| schedule_serial(&config, black_box(&network)))
    });
}

fn bench_prune_strategies(c: &mut Criterion) {
    // Simulated enumeration shard: 100 CNNs x 1000 accels. Accuracy is
    // constant per CNN, so per-CNN 2D pruning applies.
    let mut rng = SmallRng::seed_from_u64(3);
    let mut all: Vec<[f64; 3]> = Vec::new();
    let mut grouped: Vec<Vec<[f64; 2]>> = Vec::new();
    for _ in 0..100 {
        let acc = rng.gen_range(0.85..0.95);
        let mut per_cnn = Vec::new();
        for _ in 0..1000 {
            let area = rng.gen_range(45.0..215.0);
            let lat = rng.gen_range(5.0..400.0);
            all.push([-area, -lat, acc]);
            per_cnn.push([-area, -lat]);
        }
        grouped.push(per_cnn);
    }
    let schema3 = AxisSchema::new(["area", "lat", "acc"]);
    c.bench_function("ablation/pareto_direct_3d_100k", |b| {
        b.iter(|| {
            let mut front: DynParetoFront<()> = DynParetoFront::new(schema3.clone());
            for p in black_box(&all) {
                front.insert_with(p, || ());
            }
            front.len()
        })
    });
    c.bench_function("ablation/pareto_2d_prepruned", |b| {
        let schema2 = AxisSchema::new(["area", "lat"]);
        b.iter(|| {
            let mut front3: DynParetoFront<()> = DynParetoFront::new(schema3.clone());
            for (g, pts) in grouped.iter().enumerate() {
                let mut front2: DynParetoFront<()> = DynParetoFront::new(schema2.clone());
                for p in pts {
                    front2.insert_with(p, || ());
                }
                let acc = all[g * 1000][2];
                for (m, ()) in front2.iter() {
                    front3.insert_with(&[m[0], m[1], acc], || ());
                }
            }
            front3.len()
        })
    });
}

criterion_group!(benches, bench_scheduler_vs_serial, bench_prune_strategies);
criterion_main!(benches);
