//! Criterion benchmarks of the Pareto machinery that filters the
//! billions-of-points codesign space (Fig. 4): the 3-D staircase sweep
//! called directly and through the runtime-dimension API, the generic
//! filter, and the bounded-memory streaming filter.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use codesign_core::{enumerate_scenario_front, ScenarioSpec};
use codesign_moo::pareto::{pareto_indices_3d, pareto_indices_dyn};
use codesign_moo::DynStreamingParetoFilter;
use codesign_nasbench::NasbenchDatabase;

fn random_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [
                -rng.gen_range(45.0..215.0),
                -rng.gen_range(5.0..400.0),
                rng.gen_range(0.80..0.95),
            ]
        })
        .collect()
}

fn bench_pareto_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto_filter");
    // The scenario whose axes are the paper triple: its schema drives the
    // dyn variants, exactly as campaign fronts do.
    let scenario = ScenarioSpec::unconstrained().compile();
    for &n in &[1_000usize, 10_000, 100_000] {
        let pts = random_points(n, 42);
        group.bench_with_input(BenchmarkId::new("sweep_3d", n), &pts, |b, pts| {
            b.iter(|| pareto_indices_3d(black_box(pts)).len())
        });
        group.bench_with_input(BenchmarkId::new("sweep_3d_dyn", n), &pts, |b, pts| {
            // Same staircase fast path, reached through the runtime-dimension
            // API (dims == 3 is detected automatically).
            b.iter(|| pareto_indices_dyn(black_box(pts)).len())
        });
        if n <= 10_000 {
            // The generic path, at a dimension with no fast path.
            let pts4: Vec<[f64; 4]> = pts.iter().map(|p| [p[0], p[1], p[2], p[0] * 0.5]).collect();
            group.bench_with_input(BenchmarkId::new("generic_dyn_4d", n), &pts4, |b, pts| {
                b.iter(|| pareto_indices_dyn(black_box(pts)).len())
            });
        }
        group.bench_with_input(BenchmarkId::new("streaming_dyn", n), &pts, |b, pts| {
            b.iter(|| {
                let mut f: DynStreamingParetoFilter<usize> =
                    DynStreamingParetoFilter::with_capacity(scenario.axis_schema(), 4096);
                for (i, p) in pts.iter().enumerate() {
                    f.push((*p).into(), i);
                }
                f.finish().len()
            })
        });
    }
    group.finish();
}

fn bench_space_enumeration(c: &mut Criterion) {
    // End-to-end Fig. 4 work unit: the complete 3-vertex space (7 cells x
    // 8640 accelerators = 60,480 pairs including scheduling).
    let db = NasbenchDatabase::exhaustive(3);
    let mut group = c.benchmark_group("enumeration");
    group.sample_size(10);
    let scenario = ScenarioSpec::unconstrained().compile();
    group.bench_function("v3_space_60k_pairs", |b| {
        b.iter(|| enumerate_scenario_front(black_box(&db), &scenario, 1).len())
    });
    group.finish();
}

criterion_group!(benches, bench_pareto_filters, bench_space_enumeration);
criterion_main!(benches);
