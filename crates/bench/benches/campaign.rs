//! Campaign engine wall-time benchmark: shared-cache on vs off, 1 worker
//! vs N workers, and cold vs warm (persisted-cache) starts, on a fixed
//! sweep. Emits one JSON document (stdout and
//! `target/paper-results/campaign_bench.json`) for the perf trajectory.
//!
//! Run: `cargo bench -p codesign-bench --bench campaign`
//! Env: `CAMPAIGN_BENCH_STEPS` (default 200), `CAMPAIGN_BENCH_WORKERS`
//! (default: available parallelism).

use std::sync::Arc;
use std::time::Instant;

use codesign_core::{CodesignSpace, EvalCache, ScenarioSpec};
use codesign_engine::{
    mix64, Campaign, CampaignReport, ShardedDriver, SharedEvalCache, StrategyKind,
};
use codesign_nasbench::{Json, NasbenchDatabase};

fn sweep(steps: usize) -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(StrategyKind::ALL.to_vec())
        .seeds(vec![0, 1, 2])
        .steps(steps)
}

fn timed(label: &str, run: impl Fn() -> CampaignReport) -> (String, Json) {
    // One warmup, then best-of-3 to damp scheduler noise.
    let _ = run();
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = run();
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        last = Some(report);
    }
    let report = last.expect("ran at least once");
    println!("bench: {label:<32} {best_ms:>10.1} ms");
    let cache = match &report.cache {
        Some(stats) => Json::obj(vec![
            ("hits", Json::Num(stats.hits as f64)),
            ("warm_hits", Json::Num(stats.total_warm_hits() as f64)),
            ("misses", Json::Num(stats.misses as f64)),
            ("hit_rate", Json::Num(stats.hit_rate())),
        ]),
        None => Json::Null,
    };
    let value = Json::obj(vec![
        ("wall_ms", Json::Num(best_ms)),
        ("shards", Json::Num(report.shards.len() as f64)),
        ("workers", Json::Num(report.workers as f64)),
        ("cache", cache),
    ]);
    (label.to_owned(), value)
}

fn main() {
    let steps = std::env::var("CAMPAIGN_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let n_workers = std::env::var("CAMPAIGN_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
    let campaign = sweep(steps);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    println!(
        "campaign bench: {} shards x {steps} steps; N = {n_workers} workers",
        campaign.shards().len()
    );

    let mut entries: Vec<(String, Json)> = vec![(
        "config".into(),
        Json::obj(vec![
            ("steps", Json::Num(steps as f64)),
            ("shards", Json::Num(campaign.shards().len() as f64)),
            ("n_workers", Json::Num(n_workers as f64)),
        ]),
    )];
    entries.push(timed("1-worker/cached", || {
        ShardedDriver::new(1).run(&campaign, &db)
    }));
    entries.push(timed("1-worker/uncached", || {
        ShardedDriver::new(1)
            .without_shared_cache()
            .run(&campaign, &db)
    }));
    if n_workers > 1 {
        entries.push(timed(&format!("{n_workers}-worker/cached"), || {
            ShardedDriver::new(n_workers).run(&campaign, &db)
        }));
        entries.push(timed(&format!("{n_workers}-worker/uncached"), || {
            ShardedDriver::new(n_workers)
                .without_shared_cache()
                .run(&campaign, &db)
        }));
    } else {
        println!("bench: single-core machine; skipping duplicate N-worker variants");
    }

    // Cold vs warm: persist one run's cache, then measure a campaign that
    // starts from the reloaded file — the cross-invocation economy of
    // `campaign --cache-path`. (The cold number is the fresh-cache run
    // above; the warm run answers its lookups from preloaded entries.)
    let salt = db.fingerprint();
    let populated = Arc::new(SharedEvalCache::new());
    let _ = ShardedDriver::new(n_workers)
        .with_cache(Arc::clone(&populated))
        .run(&campaign, &db);
    let mut persisted = Vec::new();
    populated
        .save(&mut persisted, salt)
        .expect("serialize cache");
    let t0 = Instant::now();
    let reloaded = SharedEvalCache::load(persisted.as_slice(), salt).expect("reload cache");
    // Microseconds are authoritative (a binary reload of a small cache is
    // sub-millisecond); `load_ms` stays as a derived compat field.
    let load_us = t0.elapsed().as_secs_f64() * 1e6;
    let load_ms = load_us / 1000.0;
    println!(
        "bench: persisted cache {} pair entries, {} bytes, reloads in {load_us:.0} us",
        reloaded.len(),
        persisted.len()
    );
    entries.push((
        "persisted-cache".into(),
        Json::obj(vec![
            ("entries", Json::Num(reloaded.len() as f64)),
            ("bytes", Json::Num(persisted.len() as f64)),
            ("load_us", Json::Num(load_us)),
            ("load_ms", Json::Num(load_ms)),
        ]),
    ));
    entries.push(timed(&format!("{n_workers}-worker/warm-persisted"), || {
        let warm =
            Arc::new(SharedEvalCache::load(persisted.as_slice(), salt).expect("reload cache"));
        ShardedDriver::new(n_workers)
            .with_cache(warm)
            .run(&campaign, &db)
    }));

    // Format scaling: synthetic caches at 10^5 and 10^6 entries, saved and
    // reloaded as one v4 document.
    let space = codesign_accel::ConfigSpace::chaidnn();
    let mut scale_entries: Vec<Json> = Vec::new();
    for &n in &[100_000usize, 1_000_000] {
        let cache = SharedEvalCache::new();
        for i in 0..n {
            let hash = (u128::from(mix64(i as u64)) << 64) | u128::from(mix64(!(i as u64)));
            let config = space.get(i % space.len());
            let x = (i % 997) as f64 / 997.0;
            cache.put(
                hash,
                &config,
                codesign_core::PairEvaluation {
                    accuracy: 0.85 + 0.1 * x,
                    latency_ms: 1.0 + 400.0 * x,
                    area_mm2: 40.0 + 200.0 * x,
                    power_w: 0.5 + 14.0 * x,
                },
            );
            if i % 10 == 0 {
                cache.put_accuracy(hash >> 1, 0.9 + 0.05 * x);
            }
        }

        let mut blob = Vec::new();
        let t0 = Instant::now();
        cache.save(&mut blob, salt).expect("serialize");
        let save_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        let back = SharedEvalCache::load(blob.as_slice(), salt).expect("reload");
        let load_us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(back.len(), cache.len(), "lossy round trip");
        println!(
            "bench: scale {n:>9} x binary {:>11} bytes  save {save_us:>10.0} us  \
             load {load_us:>10.0} us",
            blob.len()
        );
        scale_entries.push(Json::obj(vec![
            ("entries", Json::Num(n as f64)),
            (
                "binary",
                Json::obj(vec![
                    ("bytes", Json::Num(blob.len() as f64)),
                    ("save_us", Json::Num(save_us)),
                    ("load_us", Json::Num(load_us)),
                ]),
            ),
        ]));
    }
    entries.push(("persisted-cache-scale".into(), Json::Arr(scale_entries)));

    // Telemetry overhead: the identical cached 1-worker sweep with the
    // span/metrics subsystem cold vs hot. The hot runs drain the span
    // buffer inside the timed region, so the number charges telemetry for
    // its full cost (recording *and* collection), never for unbounded
    // buffer growth across repetitions.
    let (_, telemetry_off) = timed("telemetry-off/1-worker", || {
        ShardedDriver::new(1).run(&campaign, &db)
    });
    codesign_telemetry::set_enabled(true);
    let (_, telemetry_on) = timed("telemetry-on/1-worker", || {
        let report = ShardedDriver::new(1).run(&campaign, &db);
        let _ = codesign_telemetry::drain_spans();
        report
    });
    codesign_telemetry::set_enabled(false);
    codesign_telemetry::reset();
    let off_ms = telemetry_off.get("wall_ms").and_then(Json::as_f64).unwrap();
    let on_ms = telemetry_on.get("wall_ms").and_then(Json::as_f64).unwrap();
    let overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
    println!(
        "bench: telemetry overhead {overhead_pct:+.2}% ({off_ms:.1} ms off, {on_ms:.1} ms on)"
    );
    entries.push((
        "telemetry-overhead".into(),
        Json::obj(vec![
            ("wall_ms_off", Json::Num(off_ms)),
            ("wall_ms_on", Json::Num(on_ms)),
            ("overhead_pct", Json::Num(overhead_pct)),
        ]),
    ));

    // Surrogate guidance, budget-matched: the generational strategies run
    // the paper presets twice at an identical real-evaluation budget —
    // classic, then predict-then-verify (`--surrogate 4:32`). The guided
    // sweep pays the same number of real evaluations plus the predictor's
    // train/rank overhead; the payoff is where those evaluations land, so
    // the entry records per-preset merged-front hypervolume for both runs
    // and the acceptance pin is guided >= unguided on at least one preset.
    let guided_config = codesign_core::SurrogateConfig {
        overproduce: 4,
        retrain: 32,
    };
    let generational = |surrogate: Option<codesign_core::SurrogateConfig>| {
        Campaign::new(CodesignSpace::with_max_vertices(4))
            .scenarios(ScenarioSpec::paper_presets())
            .strategies(vec![
                StrategyKind::Evolution,
                StrategyKind::Nsga {
                    population: StrategyKind::DEFAULT_NSGA_POPULATION,
                },
            ])
            .seeds(vec![0, 1])
            .steps(steps)
            .with_surrogate(surrogate)
    };
    let run_generational = |campaign: &Campaign| {
        let t0 = Instant::now();
        let report = ShardedDriver::new(n_workers).run(campaign, &db);
        (t0.elapsed().as_secs_f64() * 1000.0, report)
    };
    let (unguided_ms, unguided) = run_generational(&generational(None));
    let (guided_ms, guided) = run_generational(&generational(Some(guided_config)));
    let (mut candidates, mut verified, mut err_sum, mut err_n, mut rounds) =
        (0usize, 0usize, 0.0f64, 0usize, 0usize);
    for shard in &guided.shards {
        if let Some(stats) = &shard.surrogate {
            candidates += stats.candidates;
            verified += stats.verified;
            err_sum += stats.pred_err_sum;
            err_n += stats.pred_count;
            rounds += stats.train_rounds;
        }
    }
    let verify_rate = verified as f64 / candidates.max(1) as f64;
    let pred_mae = err_sum / err_n.max(1) as f64;
    let mut hv_wins = 0usize;
    let mut preset_entries: Vec<Json> = Vec::new();
    for scenario in ScenarioSpec::paper_presets() {
        let reference = scenario.compile().hypervolume_reference();
        let unguided_hv = unguided
            .merged_front(scenario.name())
            .hypervolume(&reference);
        let guided_hv = guided.merged_front(scenario.name()).hypervolume(&reference);
        hv_wins += usize::from(guided_hv >= unguided_hv);
        println!(
            "bench: surrogate {:<16} guided hv {guided_hv:>10.1} vs unguided {unguided_hv:>10.1}",
            scenario.name()
        );
        preset_entries.push(Json::obj(vec![
            ("scenario", Json::Str(scenario.name().into())),
            ("unguided_hv", Json::Num(unguided_hv)),
            ("guided_hv", Json::Num(guided_hv)),
            ("hv_ratio", Json::Num(guided_hv / unguided_hv)),
        ]));
    }
    assert!(
        hv_wins >= 1,
        "guided merged front must meet unguided on at least one paper preset"
    );
    println!(
        "bench: surrogate guided {guided_ms:.1} ms vs unguided {unguided_ms:.1} ms \
         (verify rate {verify_rate:.3}, pred mae {pred_mae:.4}, {hv_wins}/3 presets won)"
    );
    entries.push((
        "surrogate".into(),
        Json::obj(vec![
            ("config", Json::Str(guided_config.to_string())),
            ("wall_ms_unguided", Json::Num(unguided_ms)),
            ("wall_ms_guided", Json::Num(guided_ms)),
            ("verify_rate", Json::Num(verify_rate)),
            ("pred_mae", Json::Num(pred_mae)),
            ("train_rounds", Json::Num(rounds as f64)),
            ("hv_wins", Json::Num(hv_wins as f64)),
            ("presets", Json::Arr(preset_entries)),
        ]),
    ));

    let doc = Json::Obj(entries);
    println!("{doc}");
    // `cargo bench` sets the CWD to the package dir; anchor the output at
    // the workspace's shared results directory instead.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("paper-results");
    std::fs::create_dir_all(&out).expect("create output dir");
    std::fs::write(out.join("campaign_bench.json"), format!("{doc}\n"))
        .expect("write campaign_bench.json");
}
