//! Facade-level smoke test of the campaign engine re-export.

use std::sync::Arc;

use codesign_nas::core::{CodesignSpace, ScenarioSpec};
use codesign_nas::engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind};
use codesign_nas::nasbench::NasbenchDatabase;

#[test]
fn facade_exposes_the_campaign_engine() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![ScenarioSpec::unconstrained()])
        .strategies(vec![StrategyKind::Random])
        .seeds(vec![0, 1])
        .steps(50);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(2).run(&campaign, &db);
    assert_eq!(report.shards.len(), 2);
    assert!(!report.merged_front("Unconstrained").is_empty());
    assert!(report.best_point("Unconstrained").is_some());
    let stats = report.cache.expect("cache on by default");
    assert!(stats.hits + stats.misses > 0);
    let mut jsonl = Vec::new();
    report.write_jsonl(&mut jsonl).unwrap();
    assert!(jsonl.starts_with(b"{\"type\":\"campaign\""));
}

#[test]
fn facade_exposes_cache_persistence() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![ScenarioSpec::unconstrained()])
        .strategies(vec![StrategyKind::Random])
        .seeds(vec![0])
        .steps(40);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let cache = Arc::new(SharedEvalCache::new());
    let _ = ShardedDriver::new(2)
        .with_cache(Arc::clone(&cache))
        .run(&campaign, &db);

    // Persist, reload with the database fingerprint as salt, warm-start.
    let mut buf = Vec::new();
    cache.save(&mut buf, db.fingerprint()).unwrap();
    let warm = SharedEvalCache::load(buf.as_slice(), db.fingerprint()).unwrap();
    let second = ShardedDriver::new(2)
        .with_cache(Arc::new(warm))
        .run(&campaign, &db);
    assert!(second.cache.expect("cache enabled").total_warm_hits() > 0);
}
