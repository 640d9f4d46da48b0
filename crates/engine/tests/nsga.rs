//! End-to-end invariants of the NSGA-II strategy on the engine path:
//! worker-count determinism, cache-warm-rerun determinism, front quality
//! against the random baseline at equal budget, and the per-generation
//! hypervolume export.

use std::sync::Arc;

use codesign_core::{CodesignSpace, MetricId, ScenarioSpec};
use codesign_engine::{Campaign, CampaignReport, ShardedDriver, SharedEvalCache, StrategyKind};
use codesign_nasbench::{Json, NasbenchDatabase};

const NSGA: StrategyKind = StrategyKind::Nsga { population: 16 };

/// A 2-metric accuracy × power scenario — axes the scalarized paper triple
/// cannot express, the regime NSGA exists for.
fn acc_power_scenario() -> ScenarioSpec {
    ScenarioSpec::builder("acc-power")
        .weight(MetricId::Accuracy, 0.5)
        .weight(MetricId::PowerW, 0.5)
        .build()
        .expect("static spec")
}

fn nsga_campaign() -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![ScenarioSpec::unconstrained(), acc_power_scenario()])
        .strategies(vec![NSGA, StrategyKind::Random])
        .seeds(vec![0])
        .steps(160)
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.shards.len(), b.shards.len());
    for (x, y) in a.shards.iter().zip(b.shards.iter()) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.best, y.best, "shard {} best diverged", x.spec.index);
        assert_eq!(
            x.hypervolume.to_bits(),
            y.hypervolume.to_bits(),
            "shard {} hypervolume diverged",
            x.spec.index
        );
        assert_eq!(
            x.generations, y.generations,
            "shard {} generation curve diverged",
            x.spec.index
        );
        let xb: Vec<Vec<u64>> = x
            .front
            .iter()
            .map(|(m, _)| m.iter().map(|x| x.to_bits()).collect())
            .collect();
        let yb: Vec<Vec<u64>> = y
            .front
            .iter()
            .map(|(m, _)| m.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(xb, yb, "shard {} front diverged", x.spec.index);
    }
}

#[test]
fn nsga_campaigns_are_bit_identical_across_worker_counts() {
    let campaign = nsga_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let one = ShardedDriver::new(1).run(&campaign, &db);
    let four = ShardedDriver::new(4).run(&campaign, &db);
    assert_reports_identical(&one, &four);
}

#[test]
fn nsga_campaigns_are_bit_identical_across_cache_warm_reruns() {
    let campaign = nsga_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let salt = db.fingerprint();

    // Cold run persists its cache; the warm rerun answers lookups from it.
    let cold_cache = Arc::new(SharedEvalCache::new());
    let cold = ShardedDriver::new(2)
        .with_cache(Arc::clone(&cold_cache))
        .run(&campaign, &db);
    let mut file = Vec::new();
    cold_cache.save(&mut file, salt).unwrap();
    let warm_cache = Arc::new(SharedEvalCache::load(file.as_slice(), salt).unwrap());
    let warm = ShardedDriver::new(2)
        .with_cache(warm_cache)
        .run(&campaign, &db);

    assert!(
        warm.cache.as_ref().unwrap().total_warm_hits() > 0,
        "the rerun must actually hit the persisted cache"
    );
    assert_reports_identical(&cold, &warm);
}

#[test]
fn nsga_final_hypervolume_meets_random_baseline_at_equal_budget() {
    // The acceptance bar: on the paper presets, NSGA's final-front
    // hypervolume >= random search's at the same evaluation budget, on a
    // fixed seed grid. Runs on the 5-vertex space — the 4-vertex space is
    // small enough that 400 uniform samples nearly enumerate it, which
    // leaves selection pressure nothing to beat.
    let nsga = StrategyKind::Nsga {
        population: StrategyKind::DEFAULT_NSGA_POPULATION,
    };
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(5))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(vec![nsga, StrategyKind::Random])
        .seeds(vec![0, 1])
        .steps(400);
    let db = Arc::new(NasbenchDatabase::exhaustive(5));
    let report = ShardedDriver::new(4).run(&campaign, &db);
    for scenario in ScenarioSpec::paper_presets() {
        let hv = |kind: StrategyKind| -> f64 {
            report
                .shards
                .iter()
                .filter(|s| s.spec.scenario_name() == scenario.name() && s.spec.strategy == kind)
                .map(|s| s.hypervolume)
                .sum()
        };
        let nsga_hv = hv(nsga);
        let random_hv = hv(StrategyKind::Random);
        assert!(
            nsga_hv >= random_hv,
            "{}: nsga front hv {nsga_hv} < random {random_hv}",
            scenario.name()
        );
    }
}

#[test]
fn nsga_shards_export_per_generation_hypervolume() {
    let campaign = nsga_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(2).run(&campaign, &db);

    let mut buf = Vec::new();
    report.write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    for line in text.lines().skip(1) {
        let shard = Json::parse(line).unwrap();
        assert!(shard.get("hypervolume").and_then(Json::as_f64).is_some());
        let generations = shard.get("generations").and_then(Json::as_arr).unwrap();
        match shard.get("strategy").and_then(Json::as_str).unwrap() {
            "nsga" => {
                // 16 seeds + 9 generations of 16 = 160 evaluations.
                assert_eq!(generations.len(), 10);
                let curve: Vec<f64> = generations
                    .iter()
                    .map(|g| g.get("hypervolume").and_then(Json::as_f64).unwrap())
                    .collect();
                // Tolerance matches the core unit test: the cumulative
                // front is rebuilt at every snapshot, so recomputation can
                // wobble by an ulp.
                assert!(
                    curve.windows(2).all(|w| w[1] >= w[0] - 1e-9),
                    "hypervolume-over-time must be monotone: {curve:?}"
                );
                let last = generations.last().unwrap();
                assert_eq!(last.get("evaluations").and_then(Json::as_usize), Some(160));
            }
            _ => assert!(generations.is_empty(), "only nsga snapshots generations"),
        }
    }

    // The CSV carries the hypervolume column for every shard.
    let dir = std::env::temp_dir().join("codesign_engine_nsga_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.csv");
    report.write_csv(&path).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    let header = content.lines().next().unwrap();
    assert!(header.contains("hypervolume"));
}
