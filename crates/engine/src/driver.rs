//! The sharded campaign driver.
//!
//! Shards are placed on a lock-free work queue (an atomic cursor over the
//! campaign's grid order) and executed by `std::thread` workers. Every
//! shard runs with its own RNG stream and its own evaluator; the only
//! cross-shard state is the [`SharedEvalCache`] and the [`Arc`]'d
//! database every evaluator shares by reference. Without the shared
//! cache, *which* worker runs a shard, and when, cannot affect results,
//! and the same campaign produces the same report at any worker count.
//!
//! Workers pull shards in grid order, and the order is visible. With the
//! shared cache on, the shard that runs first pays a pair's miss and
//! later shards get the hit, so the cache counters of each shard and of
//! the JSONL header follow the order; and a hit returns the latency of
//! whichever labelling of a cell was evaluated first (the label-dependent
//! latency defect), so a front can follow it too. The order also decides
//! how long workers idle: a shard's cost depends mostly on its strategy
//! (an RL shard costs about 100× a random one, an NSGA shard about twice
//! a random one), and nothing reorders the grid by cost, so a long shard
//! can start last. Traced serve-mix runs (seed 7) read
//! `engine.driver.idle_frac` 0.21.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use codesign_core::{Evaluator, SearchContext};
use codesign_nasbench::NasbenchDatabase;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cache::{ShardCacheView, SharedEvalCache};
use crate::campaign::{Campaign, ShardSpec};
use crate::report::{CampaignReport, ShardResult};

/// Telemetry: shards placed on the dispatch queue this process.
static SHARDS_TOTAL: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("engine.shards_total");
/// Telemetry: shards that finished executing.
static SHARDS_DONE: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("engine.shards_done");
/// Telemetry: time each shard sat on the dispatch queue before a worker
/// picked it up (campaign start to shard start), µs.
static QUEUE_WAIT_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("engine.queue_wait_us");

/// A cooperative cancellation handle for an in-flight campaign.
///
/// Cancellation is *shard-granular*: workers check the token before
/// pulling the next shard, so a cancelled campaign finishes the shards
/// already running (their results are kept and remain bit-identical to an
/// uncancelled run's) and abandons the rest. Clones share one flag — hand
/// one clone to [`ShardedDriver::with_cancel_token`] and keep another in a
/// signal handler or server session.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A callback the driver invokes as each shard completes, from the worker
/// thread that ran it — the streaming hook the campaign server uses to
/// push `shard_result` events before the campaign finishes. Completion
/// order is scheduling-dependent; the final report stays in grid order.
pub type ShardObserver = Arc<dyn Fn(&ShardResult) + Send + Sync>;

/// Executes campaigns across worker threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
/// use codesign_core::CodesignSpace;
/// use codesign_nasbench::NasbenchDatabase;
///
/// let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
///     .strategies(vec![StrategyKind::Random])
///     .steps(50);
/// let db = Arc::new(NasbenchDatabase::exhaustive(4));
/// let sequential = ShardedDriver::new(1).run(&campaign, &db);
/// let parallel = ShardedDriver::new(4).run(&campaign, &db);
/// assert_eq!(sequential.shards.len(), parallel.shards.len());
/// // Bit-identical results at any worker count:
/// for (a, b) in sequential.shards.iter().zip(parallel.shards.iter()) {
///     assert_eq!(a.best, b.best);
/// }
/// ```
#[derive(Clone)]
pub struct ShardedDriver {
    workers: usize,
    shared_cache: bool,
    preloaded: Option<Arc<SharedEvalCache>>,
    cancel: Option<CancelToken>,
    observer: Option<ShardObserver>,
}

impl std::fmt::Debug for ShardedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDriver")
            .field("workers", &self.workers)
            .field("shared_cache", &self.shared_cache)
            .field("preloaded", &self.preloaded.is_some())
            .field("cancellable", &self.cancel.is_some())
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl ShardedDriver {
    /// A driver with `workers` threads (`0` means the machine's available
    /// parallelism). The shared evaluation cache is on by default.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            shared_cache: true,
            preloaded: None,
            cancel: None,
            observer: None,
        }
    }

    /// Attaches a cancellation token: when it trips mid-campaign, workers
    /// stop pulling new shards (shards already running complete) and the
    /// report carries `cancelled = true` with only the completed shards.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Registers a callback invoked as each shard completes (from the
    /// worker thread that ran it) — the streaming-results hook. The
    /// callback must be cheap or internally buffered; it runs on the
    /// campaign's critical path.
    #[must_use]
    pub fn with_shard_observer(mut self, observer: ShardObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Disables the shared evaluation cache (each shard's evaluator then
    /// memoizes its pairs in its own private map) — used for benchmarking
    /// the cache itself; results are identical either way.
    #[must_use]
    pub fn without_shared_cache(mut self) -> Self {
        self.shared_cache = false;
        self.preloaded = None;
        self
    }

    /// Runs the campaign against an existing cache instance — typically one
    /// reloaded from disk (`SharedEvalCache::load`) for a warm start, but
    /// any pre-populated cache works. Every shard's evaluator memoizes its
    /// pairs there. Implies the shared cache is enabled.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SharedEvalCache>) -> Self {
        self.shared_cache = true;
        self.preloaded = Some(cache);
        self
    }

    /// The effective worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        }
    }

    /// Runs every shard of `campaign` against the shared `database` and
    /// returns the merged report.
    ///
    /// The database is taken by `Arc`: each worker holds one refcount bump,
    /// and every shard's evaluator shares the same allocation — no cell
    /// data is copied no matter how many workers or shards run.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a shard's search itself panicked).
    #[must_use]
    pub fn run(&self, campaign: &Campaign, database: &Arc<NasbenchDatabase>) -> CampaignReport {
        let started = Instant::now();
        let shards = campaign.shards();
        let workers = self.workers().min(shards.len()).max(1);
        let run_span = codesign_telemetry::span("campaign.run", "engine")
            .with_arg("shards", shards.len())
            .with_arg("workers", workers);
        SHARDS_TOTAL.add(shards.len() as u64);
        // Dispatch epoch on the telemetry clock: queue wait per shard is
        // measured from here (every shard is enqueued at t=0).
        let dispatch_epoch_us = codesign_telemetry::now_us();
        let cache = match (&self.preloaded, self.shared_cache) {
            (Some(pre), _) => Some(Arc::clone(pre)),
            (None, true) => Some(Arc::new(SharedEvalCache::new())),
            (None, false) => None,
        };
        // Guided campaigns need each cold evaluation's cell features in the
        // cache so the next (warm-started) run can train its guides from
        // the persisted entries.
        if let Some(cache) = &cache {
            if campaign.surrogate.is_some() {
                cache.set_record_features(true);
            }
        }
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<ShardResult>>> = Mutex::new(vec![None; shards.len()]);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let cursor = &cursor;
                let results = &results;
                let shards = &shards;
                let cache = cache.clone();
                // One refcount bump per worker; the cell table itself is
                // never cloned on the shard path.
                let database = Arc::clone(database);
                let cancel = self.cancel.clone();
                let observer = self.observer.clone();
                scope.spawn(move || {
                    codesign_telemetry::set_thread_name(format!("worker-{worker}"));
                    let _worker_span = codesign_telemetry::span("campaign.worker", "engine")
                        .with_arg("worker", worker);
                    loop {
                        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(index) else {
                            break;
                        };
                        let mut shard_span = codesign_telemetry::span("shard.run", "engine")
                            .with_arg("shard", index)
                            .with_arg("scenario", shard.scenario_name())
                            .with_arg("strategy", shard.strategy.name())
                            .with_arg("seed", shard.seed);
                        if shard_span.is_recording() {
                            let wait_us =
                                codesign_telemetry::now_us().saturating_sub(dispatch_epoch_us);
                            QUEUE_WAIT_US.record(wait_us);
                            shard_span.add_arg("queue_wait_us", wait_us);
                        }
                        let result = run_shard(campaign, shard, &database, cache.as_ref());
                        drop(shard_span);
                        SHARDS_DONE.add(1);
                        if let Some(observer) = &observer {
                            observer(&result);
                        }
                        results.lock().expect("results poisoned")[index] = Some(result);
                    }
                });
            }
        });
        drop(run_span);

        let scheduled = shards.len();
        let shards: Vec<ShardResult> = results
            .into_inner()
            .expect("results poisoned")
            .into_iter()
            .flatten()
            .collect();
        // A gap in the results means a worker bailed on the cancel check:
        // the report covers only completed shards (still in grid order).
        let cancelled = shards.len() < scheduled;
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        CampaignReport {
            shards,
            cache: cache.map(|c| c.stats()),
            workers,
            wall_ms: wall_us / 1000,
            wall_us,
            cancelled,
        }
    }
}

/// Executes one shard: fresh evaluator sharing the campaign's database (and
/// a per-shard view of the campaign-wide cache), fresh RNG stream, one
/// strategy run.
fn run_shard(
    campaign: &Campaign,
    shard: &ShardSpec,
    database: &Arc<NasbenchDatabase>,
    cache: Option<&Arc<SharedEvalCache>>,
) -> ShardResult {
    let started = Instant::now();
    let mut evaluator = Evaluator::with_shared_database(Arc::clone(database));
    let view = cache.map(|c| Arc::new(ShardCacheView::new(Arc::clone(c))));
    if let Some(view) = &view {
        evaluator = evaluator.with_shared_cache(Arc::clone(view) as _);
    }
    let mut ctx = SearchContext {
        space: &campaign.space,
        evaluator: &mut evaluator,
        reward: shard.scenario.as_ref(),
    };
    let config = shard.search_config(&campaign.base_config);
    let mut rng = SmallRng::seed_from_u64(shard.rng_seed);
    let strategy = shard.strategy.build(shard.steps, shard.surrogate);
    let outcome = strategy.run_with_rng(&mut ctx, &config, &mut rng);
    let mut result = ShardResult::from_outcome(
        shard.clone(),
        outcome,
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        campaign.record_histories,
    );
    if let Some(view) = view {
        result.cache_warm_hits = view.warm_hits();
        result.cache_cold_hits = view.cold_hits();
        result.cache_misses = view.misses();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::StrategyKind;
    use codesign_core::{CodesignSpace, ScenarioSpec};

    fn small_campaign() -> Campaign {
        Campaign::new(CodesignSpace::with_max_vertices(4))
            .scenarios(vec![ScenarioSpec::unconstrained()])
            .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
            .seeds(vec![0, 1])
            .steps(40)
    }

    fn small_db() -> Arc<NasbenchDatabase> {
        Arc::new(NasbenchDatabase::exhaustive(4))
    }

    #[test]
    fn all_shards_execute_in_order() {
        let report = ShardedDriver::new(3).run(&small_campaign(), &small_db());
        assert_eq!(report.shards.len(), 4);
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.spec.index, i);
            assert_eq!(shard.steps, 40);
        }
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        assert!(ShardedDriver::new(0).workers() >= 1);
        assert_eq!(ShardedDriver::new(5).workers(), 5);
    }

    #[test]
    fn cache_can_be_disabled() {
        let report = ShardedDriver::new(2)
            .without_shared_cache()
            .run(&small_campaign(), &small_db());
        assert!(report.cache.is_none());
        for shard in &report.shards {
            assert_eq!(
                (
                    shard.cache_warm_hits,
                    shard.cache_cold_hits,
                    shard.cache_misses
                ),
                (0, 0, 0)
            );
        }
    }

    #[test]
    fn per_shard_cache_counts_sum_to_campaign_totals() {
        let report = ShardedDriver::new(2).run(&small_campaign(), &small_db());
        let stats = report.cache.expect("cache on by default");
        let shard_hits: u64 = report
            .shards
            .iter()
            .map(|s| s.cache_warm_hits + s.cache_cold_hits)
            .sum();
        let shard_misses: u64 = report.shards.iter().map(|s| s.cache_misses).sum();
        assert_eq!(shard_hits, stats.hits + stats.accuracy_hits);
        assert_eq!(shard_misses, stats.misses + stats.accuracy_misses);
        assert_eq!(stats.warm_hits, 0, "no preloaded cache, so no warm hits");
    }

    #[test]
    fn pre_cancelled_campaign_runs_no_shards() {
        let token = CancelToken::new();
        token.cancel();
        let report = ShardedDriver::new(2)
            .with_cancel_token(token)
            .run(&small_campaign(), &small_db());
        assert!(report.cancelled);
        assert!(report.shards.is_empty());
    }

    #[test]
    fn cancelling_mid_run_keeps_completed_shards_bit_identical() {
        let campaign = small_campaign();
        let db = small_db();
        let full = ShardedDriver::new(1).run(&campaign, &db);
        assert!(!full.cancelled);

        // Cancel from the observer after the first completion: a 1-worker
        // sequential run then stops with exactly one shard done.
        let token = CancelToken::new();
        let cancel_after_first = {
            let token = token.clone();
            Arc::new(move |_: &ShardResult| token.cancel()) as ShardObserver
        };
        let partial = ShardedDriver::new(1)
            .with_cancel_token(token)
            .with_shard_observer(cancel_after_first)
            .run(&campaign, &db);
        assert!(partial.cancelled);
        assert_eq!(partial.shards.len(), 1);
        let (a, b) = (&partial.shards[0], &full.shards[0]);
        assert_eq!(a.spec.index, b.spec.index);
        assert_eq!(a.best, b.best);
        assert_eq!(a.hypervolume, b.hypervolume);
    }

    #[test]
    fn observer_sees_every_shard_exactly_once() {
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let observer = {
            let seen = Arc::clone(&seen);
            Arc::new(move |r: &ShardResult| {
                seen.lock().unwrap().push(r.spec.index);
            }) as ShardObserver
        };
        let report = ShardedDriver::new(3)
            .with_shard_observer(observer)
            .run(&small_campaign(), &small_db());
        assert!(!report.cancelled);
        let mut indices = seen.lock().unwrap().clone();
        indices.sort_unstable();
        assert_eq!(indices, (0..report.shards.len()).collect::<Vec<_>>());
    }

    #[test]
    fn preloaded_cache_reports_warm_hits() {
        let campaign = small_campaign();
        let db = small_db();
        // First run populates a cache; persist and reload it warm.
        let first = Arc::new(SharedEvalCache::new());
        let _ = ShardedDriver::new(2)
            .with_cache(Arc::clone(&first))
            .run(&campaign, &db);
        let mut buf = Vec::new();
        first.save(&mut buf, 1).unwrap();
        let warm = Arc::new(SharedEvalCache::load(buf.as_slice(), 1).unwrap());
        let report = ShardedDriver::new(2).with_cache(warm).run(&campaign, &db);
        let stats = report.cache.expect("cache enabled");
        assert!(stats.preloaded > 0);
        assert!(
            stats.total_warm_hits() > 0,
            "second run must reuse persisted evaluations: {stats}"
        );
        assert!(report.shards.iter().any(|s| s.cache_warm_hits > 0));
    }
}
