//! The campaign engine: parallel, sharded search sweeps with a shared
//! evaluation cache.
//!
//! The paper's headline experiments (Figs. 5–7) are *sweeps* — every
//! strategy × scenario × seed combination run to a step budget — yet a
//! one-off [`codesign_core::SearchStrategy::run`] call owns a private
//! evaluator and rediscovers the same `(cell, accelerator)` metrics run
//! after run. This crate turns sweeps into first-class [`Campaign`]s:
//!
//! * [`Campaign`] — the grid specification: scenarios × strategies × seeds
//!   at one step budget over one [`codesign_core::CodesignSpace`];
//! * [`ShardedDriver`] — fans the grid's shards out across worker threads,
//!   which pull them in grid order. Each shard draws from its own
//!   deterministic RNG stream and every evaluator shares one `Arc`'d
//!   database, so the same campaign produces **bit-identical results at
//!   any worker count** — and shard spin-up is a refcount bump, never a
//!   copy of the cell table;
//! * [`SharedEvalCache`] — a process-wide, sharded-mutex evaluation cache
//!   (with warm/cold hit accounting) that is every evaluator's one pair
//!   memo, so shards reuse each other's work. It persists across processes as a cache
//!   directory of shard files — [`SharedEvalCache::save_sharded`] /
//!   [`SharedEvalCache::load_sharded`] / [`SharedEvalCache::sync_sharded`]
//!   in the [`persist`] module — so successive CLI invocations warm-start
//!   from each other's evaluations;
//! * [`CampaignReport`] — per-shard results (including per-shard warm/cold
//!   cache attribution and optional reward histories) plus merged
//!   per-scenario Pareto fronts in each scenario's *own* metric axes
//!   (`codesign_moo::DynParetoFront`, keyed by scenario name), cache
//!   statistics, and JSONL/CSV export whose metric columns are read from
//!   the scenarios' axis schemas.
//!
//! # Examples
//!
//! An 8-way-sharded sweep of two strategies over every scenario:
//!
//! ```
//! use std::sync::Arc;
//! use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
//! use codesign_core::{CodesignSpace, ScenarioSpec};
//! use codesign_nasbench::NasbenchDatabase;
//!
//! let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
//!     .scenarios(ScenarioSpec::paper_presets())
//!     .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
//!     .seeds(vec![0])
//!     .steps(60);
//! let db = Arc::new(NasbenchDatabase::exhaustive(4));
//! let report = ShardedDriver::new(8).run(&campaign, &db);
//! assert_eq!(report.shards.len(), 6);
//! let stats = report.cache.expect("shared cache on by default");
//! assert!(stats.hits + stats.misses > 0);
//! ```
//!
//! Warm-starting a second campaign from a persisted cache:
//!
//! ```
//! use std::sync::Arc;
//! use codesign_engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind};
//! use codesign_core::CodesignSpace;
//! use codesign_nasbench::NasbenchDatabase;
//!
//! let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
//!     .strategies(vec![StrategyKind::Random])
//!     .steps(40);
//! let db = Arc::new(NasbenchDatabase::exhaustive(4));
//! let salt = db.fingerprint();
//!
//! // First invocation: run, then persist the cache directory.
//! let dir = std::env::temp_dir().join(format!("doc-cache-{}.d", std::process::id()));
//! let cache = Arc::new(SharedEvalCache::new());
//! let _ = ShardedDriver::new(2).with_cache(Arc::clone(&cache)).run(&campaign, &db);
//! cache.sync_sharded(&dir, salt).unwrap();
//!
//! // Second invocation: reload and reap warm hits.
//! let warm = Arc::new(SharedEvalCache::load_sharded(&dir, salt).unwrap());
//! let report = ShardedDriver::new(2).with_cache(warm).run(&campaign, &db);
//! assert!(report.cache.unwrap().total_warm_hits() > 0);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod cache;
pub mod campaign;
pub mod driver;
pub mod persist;
pub mod report;
pub mod sys;

pub use cache::{CacheStats, ShardCacheView, SharedEvalCache};
pub use campaign::{Campaign, ShardSpec, StrategyKind};
pub use driver::{CancelToken, ShardObserver, ShardedDriver};
pub use persist::{CacheLoadError, CACHE_MAGIC, CACHE_SHARD_FILES, CACHE_VERSION};
pub use report::{CampaignReport, ShardResult};
pub use sys::FileLock;

pub use codesign_core::mix64;

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_scatters_consecutive_inputs() {
        let outs: Vec<u64> = (0..64).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collision among 64 consecutive inputs");
        // Hamming distance between neighbors should be substantial.
        for pair in outs.windows(2) {
            assert!((pair[0] ^ pair[1]).count_ones() > 10);
        }
    }
}
