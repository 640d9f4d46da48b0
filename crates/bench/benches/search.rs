//! Criterion benchmarks of the controller and the end-to-end search step:
//! what a "GPU-hour" of the paper's search loop costs in this reproduction,
//! and what the shared cache answering a revisited pair costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use codesign_accel::ConfigSpace;
use codesign_core::{
    CodesignSpace, CombinedSearch, EvalCache, Evaluator, PairEvaluation, ScenarioSpec,
    SearchConfig, SearchContext, SearchStrategy,
};
use codesign_engine::{mix64, SharedEvalCache};
use codesign_nasbench::NasbenchDatabase;
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};

fn bench_policy(c: &mut Criterion) {
    let space = CodesignSpace::paper();
    let mut rng = SmallRng::seed_from_u64(0);
    let policy = LstmPolicy::new(PolicyConfig::new(space.vocab_sizes()), &mut rng);
    c.bench_function("policy/rollout_34_decisions", |b| {
        b.iter(|| policy.rollout(black_box(&mut rng)).actions.len())
    });
    let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
    c.bench_function("policy/propose_learn_step", |b| {
        b.iter(|| {
            let rollout = trainer.propose(&mut rng);
            trainer.learn(&rollout, 0.5);
        })
    });
}

fn bench_evaluator(c: &mut Criterion) {
    let space = CodesignSpace::with_max_vertices(5);
    let db = NasbenchDatabase::exhaustive(5);
    let mut evaluator = Evaluator::with_database(db);
    let mut rng = SmallRng::seed_from_u64(1);
    let policy = LstmPolicy::new(PolicyConfig::new(space.vocab_sizes()), &mut rng);
    // Pre-generate proposals so only evaluation is measured.
    let proposals: Vec<_> = (0..256)
        .map(|_| space.decode(&policy.rollout(&mut rng).actions))
        .collect();
    let mut i = 0;
    c.bench_function("evaluator/evaluate_proposal", |b| {
        b.iter(|| {
            let out = evaluator.evaluate(black_box(&proposals[i % proposals.len()]));
            i += 1;
            out.evaluation().map(|e| e.latency_ms).unwrap_or(0.0)
        })
    });
}

fn bench_search_steps(c: &mut Criterion) {
    let db = std::sync::Arc::new(NasbenchDatabase::exhaustive(4));
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    group.bench_function("combined_100_steps", |b| {
        b.iter(|| {
            let space = CodesignSpace::with_max_vertices(4);
            let mut evaluator = Evaluator::with_shared_database(std::sync::Arc::clone(&db));
            let reward = ScenarioSpec::unconstrained().compile();
            let mut ctx = SearchContext {
                space: &space,
                evaluator: &mut evaluator,
                reward: &reward,
            };
            CombinedSearch
                .run(&mut ctx, &SearchConfig::quick(100, 7))
                .feasible_steps
        })
    });
    group.finish();
}

/// Pair entries in the serve-mix benchmark's cache when its server stops.
const SERVE_MIX_PAIRS: u64 = 203_878;

fn bench_cache(c: &mut Criterion) {
    let space = ConfigSpace::chaidnn();
    // Hashes spread like canonical hashes; configs cycle through the space.
    let pairs: Vec<_> = (0..SERVE_MIX_PAIRS)
        .map(|i| {
            let hash = u128::from(mix64(i)) << 64 | u128::from(mix64(!i));
            (hash, space.get(usize::try_from(i).unwrap() % space.len()))
        })
        .collect();
    let cache = SharedEvalCache::new();
    for (i, (hash, config)) in pairs.iter().enumerate() {
        let x = i as f64;
        let eval = PairEvaluation {
            accuracy: x,
            latency_ms: x,
            area_mm2: x,
            power_w: x,
        };
        cache.put(*hash, config, eval);
    }
    let mut group = c.benchmark_group("cache");
    let mut next = 0;
    group.bench_function("get_hit_204k", |b| {
        b.iter(|| {
            let (hash, config) = &pairs[next];
            next = (next + 1) % pairs.len();
            cache.get(black_box(*hash), config)
        })
    });
    let dir = std::env::temp_dir().join(format!("codesign-bench-cache-{}.d", std::process::id()));
    group.sample_size(10);
    group.bench_function("save_sharded_204k", |b| {
        b.iter(|| cache.save_sharded(&dir, 1).expect("save the cache"))
    });
    // The directory now holds every pair, so each sync merges 16 full
    // files before it writes them back, as a server's sync after its first
    // session does.
    group.bench_function("sync_sharded_204k", |b| {
        b.iter(|| cache.sync_sharded(&dir, 1).expect("sync the cache"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_policy,
    bench_evaluator,
    bench_search_steps,
    bench_cache
);
criterion_main!(benches);
