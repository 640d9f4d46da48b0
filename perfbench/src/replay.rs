//! Shard replays: `combined` and `random` shards run again in a loop of
//! this benchmark's own, timing each call into the controller, space,
//! evaluator and recorder, with the evaluator's shared cache behind a
//! timing decorator. Each replayed shard is then checked bit for bit
//! against its strategy on the same RNG stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codesign_accel::AcceleratorConfig;
use codesign_core::{
    EvalCache, Evaluator, LabeledSample, PairEvaluation, SearchContext, SearchOutcome,
    SearchRecorder, CELL_FEATURE_DIM,
};
use codesign_engine::{Campaign, ShardCacheView, ShardSpec, SharedEvalCache, StrategyKind};
use codesign_nasbench::NasbenchDatabase;
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::ratio;
use crate::Outcome;

/// An [`EvalCache`] decorator that times and counts the reads it forwards.
struct TimedCache {
    inner: Arc<ShardCacheView>,
    lookups: AtomicU64,
    hits: AtomicU64,
    read_ns: AtomicU64,
}

impl TimedCache {
    fn new(inner: Arc<ShardCacheView>) -> Self {
        Self {
            inner,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
        }
    }

    fn timed<T>(&self, read: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = read();
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        value
    }
}

impl EvalCache for TimedCache {
    fn get(&self, cell_hash: u128, config: &AcceleratorConfig) -> Option<PairEvaluation> {
        let found = self.timed(|| self.inner.get(cell_hash, config));
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, cell_hash: u128, config: &AcceleratorConfig, eval: PairEvaluation) {
        self.inner.put(cell_hash, config, eval);
    }

    fn get_accuracy(&self, cell_hash: u128) -> Option<f64> {
        self.timed(|| self.inner.get_accuracy(cell_hash))
    }

    fn put_accuracy(&self, cell_hash: u128, accuracy: f64) {
        self.inner.put_accuracy(cell_hash, accuracy);
    }

    fn wants_cell_features(&self) -> bool {
        self.inner.wants_cell_features()
    }

    fn put_cell_features(&self, cell_hash: u128, features: [f64; CELL_FEATURE_DIM]) {
        self.inner.put_cell_features(cell_hash, features);
    }

    fn snapshot_labeled(&self) -> Vec<LabeledSample> {
        self.inner.snapshot_labeled()
    }
}

/// Time spent in each layer over the replayed shards.
#[derive(Debug, Default)]
pub struct Layers {
    propose: Duration,
    learn: Duration,
    decode: Duration,
    evaluate: Duration,
    record: Duration,
    rl_calls: u64,
    steps: u64,
    shard: Duration,
    lookups: u64,
    hits: u64,
    warm_hits: u64,
    cache_read: Duration,
    inserts: u64,
}

/// Where a replayed shard's proposals come from.
enum Proposer {
    /// The REINFORCE controller of `CombinedSearch`.
    Controller(Box<ReinforceTrainer>),
    /// Uniform actions, as `RandomSearch` draws them.
    Uniform(Vec<usize>),
}

/// Replays one shard step by step. Each shard gets a fresh cold cache, so
/// its evaluations match a cache-less run of the same stream.
fn replay_shard(
    campaign: &Campaign,
    db: &Arc<NasbenchDatabase>,
    shard: &ShardSpec,
    layers: &mut Layers,
) -> SearchOutcome {
    let shared = Arc::new(SharedEvalCache::new());
    let view = Arc::new(ShardCacheView::new(Arc::clone(&shared)));
    let cache = Arc::new(TimedCache::new(Arc::clone(&view)));
    let mut evaluator =
        Evaluator::with_shared_database(Arc::clone(db)).with_shared_cache(Arc::clone(&cache) as _);
    let config = shard.search_config(&campaign.base_config);
    let space = &campaign.space;
    let scenario = shard.scenario.as_ref();

    let shard_started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(shard.rng_seed);
    let mut proposer = match shard.strategy {
        StrategyKind::Combined => {
            let policy = LstmPolicy::new(PolicyConfig::new(space.vocab_sizes()), &mut rng);
            Proposer::Controller(Box::new(ReinforceTrainer::new(
                policy,
                ReinforceConfig {
                    learning_rate: config.learning_rate,
                    baseline_decay: config.baseline_decay,
                    entropy_beta: config.entropy_beta,
                },
            )))
        }
        StrategyKind::Random => Proposer::Uniform(space.vocab_sizes()),
        other => panic!("no replay for {} shards", other.name()),
    };
    let mut recorder = SearchRecorder::new(shard.strategy.name(), config.steps, scenario);
    for _ in 0..config.steps {
        let t0 = Instant::now();
        let (rollout, uniform) = match &proposer {
            Proposer::Controller(trainer) => (Some(trainer.propose(&mut rng)), Vec::new()),
            Proposer::Uniform(vocab) => {
                (None, vocab.iter().map(|&v| rng.gen_range(0..v)).collect())
            }
        };
        let actions = rollout
            .as_ref()
            .map_or(uniform.as_slice(), |r| r.actions.as_slice());
        let t1 = Instant::now();
        let proposal = space.decode(actions);
        let t2 = Instant::now();
        let outcome = evaluator.evaluate(&proposal);
        let t3 = Instant::now();
        let reward = recorder.record(
            scenario,
            &outcome,
            proposal.cell.as_ref().ok(),
            &proposal.config,
        );
        let t4 = Instant::now();
        if let (Proposer::Controller(trainer), Some(rollout)) = (&mut proposer, &rollout) {
            trainer.learn(rollout, reward);
            layers.propose += t1 - t0;
            layers.learn += Instant::now() - t4;
            layers.rl_calls += 2;
        }
        layers.decode += t2 - t1;
        layers.evaluate += t3 - t2;
        layers.record += t4 - t3;
    }
    let outcome = recorder.finish();
    layers.shard += shard_started.elapsed();
    layers.steps += config.steps as u64;
    layers.lookups += cache.lookups.load(Ordering::Relaxed);
    layers.hits += cache.hits.load(Ordering::Relaxed);
    layers.warm_hits += view.warm_hits();
    layers.cache_read += Duration::from_nanos(cache.read_ns.load(Ordering::Relaxed));
    layers.inserts += shared.stats().inserts;
    outcome
}

/// The same shard run by the strategy itself, without a shared cache.
fn reference_shard(
    campaign: &Campaign,
    db: &Arc<NasbenchDatabase>,
    shard: &ShardSpec,
) -> SearchOutcome {
    let mut evaluator = Evaluator::with_shared_database(Arc::clone(db));
    let mut ctx = SearchContext {
        space: &campaign.space,
        evaluator: &mut evaluator,
        reward: shard.scenario.as_ref(),
    };
    let mut rng = SmallRng::seed_from_u64(shard.rng_seed);
    shard
        .strategy
        .build(shard.steps, shard.surrogate)
        .run_with_rng(
            &mut ctx,
            &shard.search_config(&campaign.base_config),
            &mut rng,
        )
}

fn same_run(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    let rewards = |o: &SearchOutcome| {
        o.history
            .iter()
            .map(|r| r.reward.to_bits())
            .collect::<Vec<_>>()
    };
    rewards(a) == rewards(b) && a.best == b.best
}

/// Replays every `strategy` shard of each campaign and checks each against
/// the strategy itself. `attempted` grows by one per replayed shard.
pub fn replay(
    out: &mut Outcome,
    db: &Arc<NasbenchDatabase>,
    campaigns: &[Campaign],
    strategy: StrategyKind,
) -> Layers {
    let mut layers = Layers::default();
    for campaign in campaigns {
        for shard in campaign.shards().iter().filter(|s| s.strategy == strategy) {
            out.attempted += 1;
            let replayed = replay_shard(campaign, db, shard, &mut layers);
            let reference = reference_shard(campaign, db, shard);
            out.check(same_run(&replayed, &reference), || {
                format!(
                    "replayed {} shard {} (seed {}) differs from its strategy on the same stream",
                    strategy.name(),
                    shard.index,
                    shard.seed
                )
            });
        }
    }
    layers
}

impl Layers {
    /// Sets the decode and recorder layers (seconds over the replay).
    pub fn report_space_and_recorder(&self, out: &mut Outcome) {
        out.set("core.decode_s", self.decode.as_secs_f64());
        out.set("core.recorder.s", self.record.as_secs_f64());
    }

    /// Sets every layer the replay times, and the share of replayed shard
    /// time none of them covers.
    pub fn report_all(&self, out: &mut Outcome) {
        let s = |d: Duration| d.as_secs_f64();
        self.report_space_and_recorder(out);
        out.set("rl.propose_s", s(self.propose));
        out.set("rl.learn_s", s(self.learn));
        out.set("rl.calls", self.rl_calls as f64);
        out.set("core.evaluator.calls", self.steps as f64);
        out.set("core.evaluator.s", s(self.evaluate));
        out.set(
            "core.evaluator.us_per_call",
            ratio(s(self.evaluate) * 1e6, self.steps as f64),
        );
        out.set("engine.cache.lookups", self.lookups as f64);
        out.set(
            "engine.cache.hit_rate",
            ratio(self.hits as f64, self.lookups as f64),
        );
        out.set(
            "engine.cache.warm_hit_rate",
            ratio(self.warm_hits as f64, self.lookups as f64),
        );
        out.set("engine.cache.inserts", self.inserts as f64);
        out.set("engine.cache.lookup_s", s(self.cache_read));
        // Cache reads nest inside the evaluator, so they count once.
        let covered = self.propose + self.learn + self.decode + self.evaluate + self.record;
        out.set("unattributed_frac", 1.0 - ratio(s(covered), s(self.shard)));
    }
}
