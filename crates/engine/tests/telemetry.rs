//! Telemetry is a pure side channel: a campaign's exports are
//! bit-identical whether the span/metrics subsystem is on or off, at any
//! worker count — and when it *is* on, the Chrome trace actually contains
//! the spans the engine promises (every shard, the strategies, cache
//! persistence), and the controller's histograms count every call.
//!
//! Everything runs in one `#[test]` because telemetry state
//! (enabled flag, span buffer, metrics registry) is process-global and
//! the test harness runs `#[test]`s concurrently.

use std::sync::Arc;

use codesign_core::{CodesignSpace, ScenarioSpec};
use codesign_engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind};
use codesign_nasbench::{Json, NasbenchDatabase};

fn campaign() -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![
            ScenarioSpec::unconstrained(),
            ScenarioSpec::one_constraint(),
        ])
        .strategies(vec![
            StrategyKind::Random,
            StrategyKind::Evolution,
            StrategyKind::Combined,
        ])
        .seeds(vec![0, 1])
        .steps(50)
}

fn jsonl(workers: usize) -> String {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(workers).run(&campaign(), &db);
    let mut buf = Vec::new();
    report.write_jsonl(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Zeroes every field whose value is timing or cross-shard-racy cache
/// attribution — the two things that legitimately differ between any two
/// runs of the same campaign (telemetry or not). Everything else must be
/// byte-identical.
fn scrub(json: &mut Json) {
    match json {
        Json::Obj(pairs) => {
            for (key, value) in pairs.iter_mut() {
                match key.as_str() {
                    "wall_ms" | "wall_us" => *value = Json::Num(0.0),
                    "cache_warm_hits" | "cache_cold_hits" | "cache_misses" | "warm_hits"
                    | "cold_hits" | "hits" | "misses" | "hit_rate" | "accuracy_hits"
                    | "accuracy_warm_hits" | "accuracy_misses" | "inserts" => {
                        *value = Json::Num(0.0);
                    }
                    _ => scrub(value),
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(scrub),
        _ => {}
    }
}

fn normalized(text: &str) -> String {
    text.lines()
        .map(|line| {
            let mut json = Json::parse(line).expect("export line parses");
            scrub(&mut json);
            json.to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn exports_are_bit_identical_with_telemetry_on_or_off() {
    assert!(!codesign_telemetry::enabled(), "tests start with it off");
    let off_1 = jsonl(1);
    let off_4 = jsonl(4);

    codesign_telemetry::set_enabled(true);
    codesign_telemetry::reset();
    let on_1 = jsonl(1);
    let on_4 = jsonl(4);

    // Persistence spans: a save/load round-trip while telemetry is on.
    let cache = SharedEvalCache::new();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let _ = ShardedDriver::new(2)
        .with_cache(Arc::new(SharedEvalCache::new()))
        .run(&campaign(), &db);
    let mut blob = Vec::new();
    cache.save(&mut blob, 7).unwrap();
    let _ = SharedEvalCache::load(blob.as_slice(), 7).unwrap();

    let spans = codesign_telemetry::drain_spans();
    let metrics = codesign_telemetry::metrics_snapshot();
    let names = codesign_telemetry::thread_names();
    codesign_telemetry::set_enabled(false);

    // 1) Bit-identity: at 1 worker the exports match byte for byte except
    // wall-clock; at 4 workers the racy per-shard cache attribution is
    // scrubbed too (it differs between *any* two runs, telemetry or not).
    assert_eq!(normalized(&off_1), normalized(&on_1), "1-worker exports");
    assert_eq!(normalized(&off_4), normalized(&on_4), "4-worker exports");
    // The shard payload is also independent of the worker count (the
    // header differs only by its recorded `workers` field).
    let shard_lines = |text: &str| normalized(&text.lines().skip(1).collect::<Vec<_>>().join("\n"));
    assert_eq!(shard_lines(&off_1), shard_lines(&off_4));

    // 2) The trace carries every promised span: one shard.run per shard
    // per telemetry-on campaign (12 shards x 3 runs), the campaign roots,
    // strategy spans, and the persistence pair.
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("campaign.run"), 3);
    assert_eq!(count("shard.run"), 36);
    assert_eq!(count("random"), 12);
    assert_eq!(count("evolution"), 12);
    assert_eq!(count("combined"), 12);
    assert_eq!(count("cache.save"), 1);
    assert_eq!(count("cache.load"), 1);
    assert!(count("campaign.worker") >= 3, "at least one worker per run");

    // Shard spans carry their grid coordinates and queue wait.
    let shard = spans
        .iter()
        .find(|s| s.name == "shard.run")
        .expect("shard spans recorded");
    for key in ["shard", "scenario", "strategy", "seed", "queue_wait_us"] {
        assert!(
            shard.args.iter().any(|(k, _)| *k == key),
            "shard.run span missing arg {key:?}"
        );
    }

    // 3) The Chrome trace export is valid JSON whose duration events
    // mirror those spans one-to-one.
    let mut trace = Vec::new();
    codesign_telemetry::write_chrome_trace(&mut trace, &spans, &names).unwrap();
    let trace = Json::parse(&String::from_utf8(trace).unwrap()).expect("trace is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let durations: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(durations.len(), spans.len());
    assert!(durations
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("shard.run")));

    // 4) The metrics registry agrees with the engine's own accounting:
    // 3 telemetry-on campaigns x 12 shards each, and one controller
    // proposal and update (one backward pass and one optimizer step) per
    // step of the 12 combined shards.
    assert_eq!(metrics.counter("engine.shards_total"), Some(36));
    assert_eq!(metrics.counter("engine.shards_done"), Some(36));
    for name in [
        "rl.propose_us",
        "rl.learn_us",
        "rl.backward_us",
        "rl.optimizer_us",
    ] {
        let calls = metrics.histogram(name).map(|h| h.count());
        assert_eq!(calls, Some(12 * 50), "{name} observations");
    }
}
