//! Criterion benchmarks of the Pareto front that filters the
//! billions-of-points codesign space (Fig. 4): `DynParetoFront` inserts on
//! random point sets in the paper's three axes and in four, and the
//! exhaustive enumeration of a small space.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use codesign_core::{enumerate_scenario_front, ScenarioSpec};
use codesign_moo::{AxisSchema, DynParetoFront};
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

/// Inserts every point into an empty front over `schema` and returns the
/// front's size.
fn front_len<const N: usize>(schema: &AxisSchema, pts: &[[f64; N]]) -> usize {
    let mut front = DynParetoFront::new(schema.clone());
    for (i, p) in pts.iter().enumerate() {
        front.insert_with(p, || i);
    }
    front.len()
}

fn bench_front_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto_front");
    // The scenario whose axes are the paper triple: its schema is the one
    // campaign fronts and Fig. 4 use.
    let schema3 = ScenarioSpec::unconstrained().compile().axis_schema();
    let schema4 = AxisSchema::new(["area", "lat", "acc", "half_area"]);
    for &n in &[1_000usize, 10_000, 100_000] {
        let pts = random_points(n, 42);
        let pts4: Vec<[f64; 4]> = pts.iter().map(|p| [p[0], p[1], p[2], p[0] * 0.5]).collect();
        group.bench_with_input(BenchmarkId::new("insert_3d", n), &pts, |b, pts| {
            b.iter(|| front_len(&schema3, black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("insert_4d", n), &pts4, |b, pts| {
            b.iter(|| front_len(&schema4, black_box(pts)))
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

criterion_group!(benches, bench_front_inserts, bench_space_enumeration);
criterion_main!(benches);
