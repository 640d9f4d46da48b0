//! End-to-end session coverage: a server session's streamed shard results
//! are bit-identical to the one-shot driver's for every field of the job
//! description, ordering guarantees hold across the whole stream, a
//! repeated job runs ≥ 90% warm, a job whose auto norms cannot be
//! ranged is rejected as invalid, and so is one whose reward-shaping
//! weight could overflow the controller, with the session going on.

use std::io::Write;
use std::sync::{Arc, Mutex};

use codesign_core::{CodesignSpace, RewardShaping};
use codesign_engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind};
use codesign_nasbench::{Json, NasbenchDatabase};
use codesign_server::{CampaignServer, Event, EventSink, JobSpec, Request, ServerConfig};

const MAX_VERTICES: usize = 3;
const STEPS: usize = 40;

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn job_doc() -> Json {
    Json::parse(&format!(
        r#"{{"scenarios":["0","1"],"strategies":["random","evolution"],"seeds":[0,1],"steps":{STEPS}}}"#
    ))
    .expect("literal json")
}

/// The three job documents the parity test runs: today's plain job, a
/// shaped and surrogate-guided job, and a job whose scenario's norm is
/// auto-ranged.
fn parity_docs() -> [Json; 3] {
    let guided = format!(
        r#"{{"scenarios":["0","1"],"strategies":["combined","nsga"],"seeds":[0,1],"steps":{STEPS},
            "reward_shaping":"hv:0.5","surrogate":"4:16"}}"#
    );
    let auto = format!(
        r#"{{"scenarios":["name=auto-acc; w=acc:1; norm=acc:auto"],
            "strategies":["random","evolution"],"seeds":[0,1],"steps":{STEPS}}}"#
    );
    [
        job_doc(),
        Json::parse(&guided).expect("literal json"),
        Json::parse(&auto).expect("literal json"),
    ]
}

fn start_server() -> CampaignServer {
    server_over(MAX_VERTICES)
}

fn server_over(max_vertices: usize) -> CampaignServer {
    CampaignServer::start(
        CodesignSpace::with_max_vertices(max_vertices),
        Arc::new(NasbenchDatabase::exhaustive(max_vertices)),
        Arc::new(SharedEvalCache::new()),
        ServerConfig {
            workers: 3,
            queue_capacity: 4,
        },
    )
}

/// Runs `frames` through one session and returns the parsed event stream.
fn run_session(server: &CampaignServer, frames: &str) -> Vec<Event> {
    let shared = Arc::new(Mutex::new(Vec::new()));
    let sink = EventSink::new(Box::new(SharedBuf(Arc::clone(&shared))));
    let mut reader = std::io::Cursor::new(frames.to_owned());
    server.inner().serve_session(&mut reader, &sink);
    let bytes = shared.lock().expect("buffer poisoned").clone();
    String::from_utf8(bytes)
        .expect("utf8 stream")
        .lines()
        .map(|line| Event::parse_line(line).expect("server emits valid frames"))
        .collect()
}

/// The result-bearing subset of a shard record: everything except timing
/// and cache attribution, which legitimately differ run to run.
fn shard_essence(shard: &Json) -> Vec<(String, String)> {
    [
        "index",
        "scenario",
        "strategy",
        "seed",
        "steps",
        "best",
        "front",
        "hypervolume",
        "reward_shaping",
        "hv_bonus",
        "surrogate",
        "verify_rate",
        "pred_mae",
    ]
    .iter()
    .map(|key| {
        let value = shard
            .get(key)
            .unwrap_or_else(|| panic!("shard record missing '{key}'"));
        ((*key).to_owned(), value.to_string())
    })
    .collect()
}

#[test]
fn streamed_shards_are_bit_identical_to_the_one_shot_driver() {
    let db = Arc::new(NasbenchDatabase::exhaustive(MAX_VERTICES));
    for doc in parity_docs() {
        let job = JobSpec::from_json(&doc).expect("valid job");
        let frames = format!("{}\n", Request::Submit(job.clone()).to_line());
        let server = start_server();
        let events = run_session(&server, &frames);
        server.join();

        // Reference: the exact same job as the one-shot CLI builds it —
        // `to_campaign` plus the engine's auto-norm resolution — through
        // the plain driver, with its own fresh cache and a different
        // worker count.
        let campaign: Campaign = job
            .to_campaign(CodesignSpace::with_max_vertices(MAX_VERTICES))
            .with_auto_norms(&db)
            .expect("auto norms resolve");
        let report = ShardedDriver::new(1).run(&campaign, &db);
        assert_eq!(report.shards.len(), job.shard_count());

        let mut streamed: Vec<Json> = events
            .iter()
            .filter_map(|event| match event {
                Event::ShardResult { shard, .. } => Some(shard.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(streamed.len(), report.shards.len(), "{doc}");
        streamed.sort_by_key(|shard| shard.get("index").and_then(Json::as_usize));

        for (streamed_shard, direct) in streamed.iter().zip(&report.shards) {
            assert_eq!(
                shard_essence(streamed_shard),
                shard_essence(&direct.to_json()),
                "server-streamed shard differs from the one-shot driver's for {doc}"
            );
        }

        // A side that dropped the shaping and guidance keys would still
        // match the reference built from the same dropped job: check that
        // the streamed records carry them.
        if doc.get("reward_shaping").is_some() {
            let field =
                |shard: &Json, key: &str| shard.get(key).and_then(Json::as_str).map(str::to_owned);
            assert!(streamed
                .iter()
                .all(|shard| field(shard, "reward_shaping").as_deref() == Some("hv:0.5")));
            assert!(streamed
                .iter()
                .any(|shard| field(shard, "surrogate").as_deref() == Some("4:16")));
        }
    }
}

#[test]
fn a_degenerate_auto_norm_probe_is_an_invalid_job() {
    // The 2-vertex database holds one cell, so the probe sees a single
    // accuracy and cannot range an auto accuracy norm.
    let doc = Json::parse(
        r#"{"scenarios":["name=auto-acc; w=acc:1; norm=acc:auto"],"strategies":["random"],"steps":10}"#,
    )
    .expect("literal json");
    let job = JobSpec::from_json(&doc).expect("the document itself is valid");
    let server = server_over(2);
    let events = run_session(&server, &format!("{}\n", Request::Submit(job).to_line()));
    server.join();
    assert!(
        matches!(events.as_slice(), [Event::Error { code, .. }] if code == "invalid_job"),
        "{events:?}"
    );
}

#[test]
fn an_overflowing_shaping_weight_is_an_invalid_job_and_the_session_goes_on() {
    // Accepted, `hv:1e308` overflowed the shaping bonus, NaN reached the
    // policy and the panic took the runner thread down with it.
    let huge = r#"{"v":1,"type":"submit","job":{"scenarios":["0"],"strategies":["combined"],"seeds":[0],"steps":40,"reward_shaping":"hv:1e308"}}"#;
    let largest = Json::parse(&format!(
        r#"{{"scenarios":["0"],"strategies":["combined"],"seeds":[0],"steps":{STEPS},
            "reward_shaping":"hv:{}"}}"#,
        RewardShaping::MAX_WEIGHT
    ))
    .expect("literal json");
    let job = JobSpec::from_json(&largest).expect("the largest weight is accepted");
    let server = start_server();
    let events = run_session(
        &server,
        &format!("{huge}\n{}\n", Request::Submit(job).to_line()),
    );
    server.join();
    let errors: Vec<&str> = events
        .iter()
        .filter_map(|event| match event {
            Event::Error { code, .. } => Some(code.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(errors, ["invalid_job"], "{events:?}");
    let bonus = events
        .iter()
        .find_map(|event| match event {
            Event::ShardResult { shard, .. } => shard.get("hv_bonus").and_then(Json::as_f64),
            _ => None,
        })
        .expect("the shaped combined shard streamed");
    assert!(bonus.is_finite() && bonus > 0.0, "hv_bonus {bonus}");
    assert!(
        events
            .iter()
            .any(|event| matches!(event, Event::JobDone { shards: 1, .. })),
        "{events:?}"
    );
}

#[test]
fn the_stream_orders_submitted_started_shards_done() {
    let job = JobSpec::from_json(&job_doc()).expect("valid job");
    let frames = format!("{}\n", Request::Submit(job.clone()).to_line());
    let server = start_server();
    let events = run_session(&server, &frames);
    server.join();

    let positions: Vec<(usize, &str)> = events
        .iter()
        .enumerate()
        .map(|(i, event)| {
            (
                i,
                match event {
                    Event::JobSubmitted { .. } => "submitted",
                    Event::JobStarted { .. } => "started",
                    Event::ShardResult { .. } => "shard",
                    Event::JobDone { .. } => "done",
                    other => panic!("unexpected event in stream: {other:?}"),
                },
            )
        })
        .collect();
    let at = |kind: &str| {
        positions
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(i, _)| *i)
            .collect::<Vec<_>>()
    };
    let (submitted, started, shards, done) =
        (at("submitted"), at("started"), at("shard"), at("done"));
    assert_eq!((submitted.len(), started.len(), done.len()), (1, 1, 1));
    assert_eq!(shards.len(), job.shard_count());
    assert!(submitted[0] < started[0]);
    assert!(started[0] < shards[0]);
    // Every shard_result precedes job_done.
    assert!(shards.iter().all(|i| *i < done[0]));
}

#[test]
fn resubmitting_the_same_job_reports_a_warm_cache() {
    let job_line = Request::Submit(JobSpec::from_json(&job_doc()).expect("valid job")).to_line();
    let frames = format!("{job_line}\n{job_line}\n");
    let server = start_server();
    let events = run_session(&server, &frames);
    server.join();

    let done: Vec<&Event> = events
        .iter()
        .filter(|event| matches!(event, Event::JobDone { .. }))
        .collect();
    assert_eq!(done.len(), 2);
    let Event::JobDone {
        hit_rate,
        cache_hits,
        cache_misses,
        ..
    } = done[1]
    else {
        unreachable!()
    };
    assert!(
        *hit_rate >= 0.9,
        "second identical job must be >=90% warm; got {hit_rate} ({cache_hits} hits / {cache_misses} misses)"
    );
    // And the results themselves must not be perturbed by cache reuse.
    let shard_payloads: Vec<Vec<(String, String)>> = events
        .iter()
        .filter_map(|event| match event {
            Event::ShardResult { shard, .. } => Some(shard_essence(shard)),
            _ => None,
        })
        .collect();
    let half = shard_payloads.len() / 2;
    let mut first: Vec<_> = shard_payloads[..half].to_vec();
    let mut second: Vec<_> = shard_payloads[half..].to_vec();
    first.sort();
    second.sort();
    assert_eq!(first, second, "warm rerun changed shard results");
}

#[test]
fn two_sessions_share_one_warm_cache() {
    let job_line = Request::Submit(JobSpec::from_json(&job_doc()).expect("valid job")).to_line();
    let server = start_server();
    let first = run_session(&server, &format!("{job_line}\n"));
    // A *different client* (new session, new sink) right after: client B
    // warm-starts from client A's evaluations.
    let second = run_session(&server, &format!("{job_line}\n"));
    server.join();

    let done_rate = |events: &[Event]| {
        events
            .iter()
            .find_map(|event| match event {
                Event::JobDone { hit_rate, .. } => Some(*hit_rate),
                _ => None,
            })
            .expect("job_done present")
    };
    assert!(done_rate(&first) < 1.0);
    assert!(
        done_rate(&second) >= 0.9,
        "cross-session warm start below 90%: {}",
        done_rate(&second)
    );
}

#[test]
fn strategy_nsga_jobs_flow_through_the_server_too() {
    // A population strategy exercises the generations payload in the
    // streamed shard records.
    let doc = Json::parse(
        r#"{"scenarios":["0"],"strategies":["nsga"],"seeds":[0],"population":8,"generations":3}"#,
    )
    .expect("literal json");
    let frames = format!(
        "{}\n",
        Request::Submit(JobSpec::from_json(&doc).expect("valid job")).to_line()
    );
    let server = start_server();
    let events = run_session(&server, &frames);
    server.join();

    let shard = events
        .iter()
        .find_map(|event| match event {
            Event::ShardResult { shard, .. } => Some(shard),
            _ => None,
        })
        .expect("one shard streamed");
    assert_eq!(shard.get("strategy").and_then(Json::as_str), Some("nsga"));
    let generations = shard
        .get("generations")
        .and_then(Json::as_arr)
        .expect("nsga shards carry generations");
    assert!(!generations.is_empty());
    assert!(matches!(
        StrategyKind::from_name("nsga"),
        Some(StrategyKind::Nsga { .. })
    ));
}
