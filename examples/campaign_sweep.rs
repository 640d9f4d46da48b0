//! An 8-way sharded campaign: every §III-C scenario × all four strategies
//! × 3 seeds over the exactly-enumerable 4-vertex codesign space.
//!
//! Demonstrates the engine guarantees:
//! 1. the same campaign is bit-identical at any worker count,
//! 2. the shared evaluation cache is transparent (it changes cost, not
//!    results) and sees substantial reuse across shards,
//! 3. per-shard Pareto fronts merge into one front per scenario,
//! 4. the database is shared by `Arc` — running the campaign never clones
//!    the cell table.
//!
//! Run: `cargo run --release --example campaign_sweep`

use std::sync::Arc;

use codesign_nas::core::{CodesignSpace, ScenarioSpec};
use codesign_nas::engine::{Campaign, CampaignReport, ShardedDriver, StrategyKind};
use codesign_nas::nasbench::NasbenchDatabase;

fn front_fingerprint(report: &CampaignReport, scenario: &str) -> Vec<Vec<u64>> {
    let mut bits: Vec<Vec<u64>> = report
        .merged_front(scenario)
        .iter()
        .map(|(m, _)| m.iter().map(|x| x.to_bits()).collect())
        .collect();
    bits.sort_unstable();
    bits
}

fn main() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(StrategyKind::ALL.to_vec())
        .seeds(vec![0, 1, 2])
        .steps(250);
    println!(
        "campaign grid: {} scenarios x {} strategies x {} seeds = {} shards\n",
        campaign.scenarios.len(),
        campaign.strategies.len(),
        campaign.seeds.len(),
        campaign.shards().len()
    );

    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    println!("running on 1 worker...");
    let sequential = ShardedDriver::new(1).run(&campaign, &db);
    println!("running on 8 workers...");
    let parallel = ShardedDriver::new(8).run(&campaign, &db);

    // Guarantee 1: the worker count does not change results.
    for scenario in ScenarioSpec::paper_presets() {
        assert_eq!(
            front_fingerprint(&sequential, scenario.name()),
            front_fingerprint(&parallel, scenario.name()),
            "merged front diverged between 1 and 8 workers for {}",
            scenario.name()
        );
    }
    for (a, b) in sequential.shards.iter().zip(parallel.shards.iter()) {
        assert_eq!(a.best, b.best, "shard {} best diverged", a.spec.index);
    }
    // Guarantee 4: everything above shared one database allocation.
    assert_eq!(Arc::strong_count(&db), 1, "no handle outlives the runs");
    println!("merged Pareto fronts identical at 1 and 8 workers ✓\n");

    // Guarantee 2: the shared cache reuses work across shards.
    let stats = parallel.cache.expect("shared cache is on by default");
    assert!(stats.hits > 0, "expected shared-cache reuse, got {stats}");
    println!("{parallel}");

    for scenario in ScenarioSpec::paper_presets() {
        let front = parallel.merged_front(scenario.name());
        let best = parallel.best_point(scenario.name());
        println!(
            "{:<14} merged front: {:>3} points; best: {}",
            scenario.name(),
            front.len(),
            best.map_or("none".into(), |b| format!(
                "{:.1} ms / {:.1}% / {:.0} mm2 (reward {:.4})",
                b.evaluation.latency_ms,
                b.evaluation.accuracy * 100.0,
                b.evaluation.area_mm2,
                b.reward
            ))
        );
    }

    let out = std::path::Path::new("target").join("paper-results");
    std::fs::create_dir_all(&out).expect("create output dir");
    let jsonl = out.join("campaign_sweep.jsonl");
    let csv = out.join("campaign_sweep.csv");
    parallel
        .write_jsonl(std::fs::File::create(&jsonl).expect("create jsonl"))
        .expect("write jsonl");
    parallel.write_csv(&csv).expect("write csv");
    println!(
        "\nspeedup 1->8 workers: {:.2}x; reports: {} and {}",
        sequential.wall_ms as f64 / parallel.wall_ms.max(1) as f64,
        jsonl.display(),
        csv.display()
    );
}
