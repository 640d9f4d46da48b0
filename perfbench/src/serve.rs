//! serve-mix: a resident `CampaignServer` on the 5-vertex database answers
//! one closed-loop client. Every session warm-starts from the same
//! persisted `cache.d`, runs `JOBS` jobs over a Unix socket pair and ends
//! with the merge-on-save `sync_sharded`.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codesign_core::{CodesignSpace, CompiledScenario, ScenarioSpec};
use codesign_engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind};
use codesign_moo::MetricVector;
use codesign_nasbench::{Json, NasbenchDatabase};
use codesign_server::{CampaignServer, Event, EventSink, JobSpec, Request, ServerConfig};

use crate::passes::{self, untraced};
use crate::stats::{median, quantile, ratio};
use crate::{batch, replay, Args, Outcome, WORKERS};

/// Cell vertices of the server's space (2,532 cells).
const VERTICES: usize = 5;
/// Jobs one client submits per session.
const JOBS: usize = 100;
/// Steps per shard.
const STEPS: usize = 1000;
/// Shards per job: the three paper presets × {random, nsga}.
const SHARDS_PER_JOB: usize = 6;
/// The warm cache is persisted from seeds at and above this value; client
/// seeds stay below it, so the two sets are disjoint.
const WARM_SEED_BASE: u64 = 1 << 40;
/// Seeds the warm cache is persisted from.
const WARM_SEEDS: u64 = 4;

/// One job of the client's list.
struct Job {
    spec: JobSpec,
    /// The `submit` frame, newline included.
    frame: String,
    /// Whether the job repeats the previous job's seed.
    repeat: bool,
}

/// The client's job list: a fresh seed, then a repeat of it, alternating.
fn jobs(seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::with_capacity(JOBS);
    for fresh in batch::seeds(seed, JOBS as u64 / 2) {
        let doc = Json::parse(&format!(
            r#"{{"strategies":"random,nsga","seeds":[{}],"steps":{STEPS}}}"#,
            fresh % WARM_SEED_BASE
        ))?;
        let spec = JobSpec::from_json(&doc)?;
        let frame = Request::Submit(spec.clone()).to_line() + "\n";
        for repeat in [false, true] {
            jobs.push(Job {
                spec: spec.clone(),
                frame: frame.clone(),
                repeat,
            });
        }
    }
    Ok(jobs)
}

/// A directory under the current one, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Persists the warm cache every session starts from.
fn persist_warm_cache(dir: &Path) -> Result<u64, String> {
    let db = Arc::new(NasbenchDatabase::exhaustive(VERTICES));
    let salt = db.fingerprint();
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(VERTICES))
        .strategies(vec![
            StrategyKind::Random,
            StrategyKind::Nsga {
                population: StrategyKind::DEFAULT_NSGA_POPULATION,
            },
        ])
        .seeds((0..WARM_SEEDS).map(|k| WARM_SEED_BASE + k).collect())
        .steps(STEPS);
    let cache = Arc::new(SharedEvalCache::new());
    let _ = ShardedDriver::new(WORKERS)
        .with_cache(Arc::clone(&cache))
        .run(&campaign, &db);
    cache.save_sharded(dir, salt).map_err(|e| e.to_string())?;
    Ok(salt)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What the client saw of one job.
#[derive(Debug, Default)]
struct JobTrace {
    /// Writing the submit frame to reading `job_done`, ms.
    latency_ms: f64,
    /// `job_submitted` to `job_started` as read by the client, ms.
    queue_ms: f64,
    /// The server's `job_done.wall_us`, ms.
    run_ms: f64,
    /// Steps over the job's shards.
    steps: f64,
    /// Each shard's `wall_us`, ms.
    shard_ms: Vec<f64>,
}

/// One server session.
#[derive(Debug, Default)]
struct Session {
    setup_s: f64,
    db_build_s: f64,
    load_s: f64,
    save_s: f64,
    save_bytes: f64,
    /// First submit to last `job_done`, s.
    wall_s: f64,
    jobs: Vec<JobTrace>,
    /// Hypervolume of the session's merged fronts, summed over scenarios.
    front_hv: f64,
    /// Pair entries the session's jobs added to the cache.
    inserts: f64,
    /// One line per job that failed an output check.
    failures: Vec<String>,
}

impl Session {
    fn steps(&self) -> f64 {
        self.jobs.iter().map(|j| j.steps).sum()
    }
}

/// Shared inputs of every session.
struct Setup<'a> {
    work: &'a Path,
    pristine: PathBuf,
    salt: u64,
    jobs: Vec<Job>,
    scenarios: Vec<CompiledScenario>,
}

fn run_session(setup: &Setup<'_>, index: usize) -> Result<Session, String> {
    let dir = setup.work.join(format!("session-{index}"));
    copy_dir(&setup.pristine, &dir).map_err(|e| e.to_string())?;
    let mut session = Session::default();

    let started = Instant::now();
    let db = Arc::new(NasbenchDatabase::exhaustive(VERTICES));
    session.db_build_s = started.elapsed().as_secs_f64();
    black_box(
        ScenarioSpec::paper_presets()
            .iter()
            .map(ScenarioSpec::compile)
            .collect::<Vec<_>>(),
    );
    let loaded = Instant::now();
    let cache =
        Arc::new(SharedEvalCache::load_sharded(&dir, setup.salt).map_err(|e| e.to_string())?);
    session.load_s = loaded.elapsed().as_secs_f64();
    let server = CampaignServer::start(
        CodesignSpace::with_max_vertices(VERTICES),
        db,
        Arc::clone(&cache),
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 16,
        },
    );
    session.setup_s = started.elapsed().as_secs_f64();

    let (client, server_end) = UnixStream::pair().map_err(|e| e.to_string())?;
    // A job that never finishes fails the session instead of hanging it.
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let inner = server.inner();
    let session_thread = std::thread::spawn(move || -> std::io::Result<()> {
        let sink = EventSink::new(Box::new(server_end.try_clone()?));
        inner.serve_session(&mut BufReader::new(server_end), &sink);
        Ok(())
    });
    let mut points = Vec::new();
    let client_result = drive_client(setup, &client, &mut session, &mut points);
    let _ = client.shutdown(std::net::Shutdown::Both);
    let joined = session_thread.join();
    client_result?;
    joined
        .map_err(|_| "session thread panicked".to_owned())?
        .map_err(|e| e.to_string())?;

    let saved = Instant::now();
    session.save_bytes = cache
        .sync_sharded(&dir, setup.salt)
        .map_err(|e| e.to_string())? as f64;
    session.save_s = saved.elapsed().as_secs_f64();
    session.inserts = cache.stats().inserts as f64;
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    session.front_hv = untraced(|| front_hv(&points, &setup.scenarios));
    Ok(session)
}

/// Submits every job in turn, each after the previous one's `job_done`,
/// and checks each job's event stream.
fn drive_client(
    setup: &Setup<'_>,
    client: &UnixStream,
    session: &mut Session,
    points: &mut Vec<(usize, Vec<f64>)>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut writer = client.try_clone().map_err(io)?;
    let mut reader = BufReader::new(client.try_clone().map_err(io)?);
    let mut line = String::new();
    let session_started = Instant::now();
    for (index, spec) in setup.jobs.iter().enumerate() {
        let submitted = Instant::now();
        writer.write_all(spec.frame.as_bytes()).map_err(io)?;
        let mut job = JobTrace::default();
        let mut problems = Vec::new();
        // The expected order: job_submitted, job_started, shard_result × N,
        // job_done, all with the id job_submitted assigned.
        let (mut id, mut queued_at, mut started, mut shards) = (None, submitted, false, 0);
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(io)? == 0 {
                return Err(format!("job {index}: stream closed before job_done"));
            }
            let now = Instant::now();
            match Event::parse_line(line.trim_end()) {
                Ok(Event::JobSubmitted { job: j, .. }) if id.is_none() => {
                    id = Some(j);
                    queued_at = now;
                }
                Ok(Event::JobStarted { job: j }) if id == Some(j) && !started => {
                    started = true;
                    job.queue_ms = (now - queued_at).as_secs_f64() * 1e3;
                }
                Ok(Event::ShardResult { job: j, shard }) if id == Some(j) && started => {
                    shards += 1;
                    record_shard(setup, &shard, &mut job, points, &mut problems);
                }
                Ok(Event::JobDone {
                    job: j,
                    shards: done_shards,
                    hit_rate,
                    wall_us,
                    cancelled,
                    ..
                }) if id == Some(j) && started => {
                    job.latency_ms = (now - submitted).as_secs_f64() * 1e3;
                    job.run_ms = wall_us as f64 / 1e3;
                    if cancelled {
                        problems.push("cancelled".to_owned());
                    }
                    if shards != SHARDS_PER_JOB || done_shards != SHARDS_PER_JOB {
                        problems.push(format!(
                            "{shards} shard_result frames, job_done says {done_shards}, grid has {SHARDS_PER_JOB}"
                        ));
                    }
                    if spec.repeat && hit_rate != 1.0 {
                        problems.push(format!("repeated-seed job hit rate {hit_rate}"));
                    }
                    break;
                }
                Ok(Event::Error { code, message, .. }) => {
                    problems.push(format!("error frame {code}: {message}"));
                    if id.is_none() {
                        break;
                    }
                }
                Ok(other) => problems.push(format!("out-of-order event {other:?}")),
                Err(e) => problems.push(format!("unreadable event: {e}")),
            }
        }
        if !problems.is_empty() {
            session
                .failures
                .push(format!("job {index}: {}", problems.join("; ")));
        }
        session.jobs.push(job);
    }
    session.wall_s = session_started.elapsed().as_secs_f64();
    Ok(())
}

/// Reads one streamed shard record: its steps, wall time and front points.
fn record_shard(
    setup: &Setup<'_>,
    shard: &Json,
    job: &mut JobTrace,
    points: &mut Vec<(usize, Vec<f64>)>,
    problems: &mut Vec<String>,
) {
    let steps = shard.get("steps").and_then(Json::as_usize).unwrap_or(0);
    if steps != STEPS {
        problems.push(format!("shard ran {steps} of {STEPS} steps"));
    }
    job.steps += steps as f64;
    job.shard_ms
        .push(shard.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0) / 1e3);
    let name = shard.get("scenario").and_then(Json::as_str).unwrap_or("");
    let Some(scenario) = setup.scenarios.iter().position(|s| s.name() == name) else {
        problems.push(format!("shard of unknown scenario '{name}'"));
        return;
    };
    for point in shard.get("front").and_then(Json::as_arr).unwrap_or(&[]) {
        let coords: Option<Vec<f64>> = point
            .as_arr()
            .map(|xs| xs.iter().filter_map(Json::as_f64).collect());
        match coords {
            Some(coords) => points.push((scenario, coords)),
            None => problems.push("malformed front point".to_owned()),
        }
    }
}

/// Hypervolume of the merged fronts of streamed points (by scenario
/// index), summed over the scenarios.
fn front_hv(points: &[(usize, Vec<f64>)], scenarios: &[CompiledScenario]) -> f64 {
    let mut fronts: Vec<_> = scenarios.iter().map(|s| s.empty_front::<()>()).collect();
    for (scenario, coords) in points {
        fronts[*scenario].insert(MetricVector::from(coords.clone()), ());
    }
    scenarios
        .iter()
        .zip(&fronts)
        .map(|(s, f)| f.hypervolume(&s.hypervolume_reference()))
        .sum()
}

/// Runs serve-mix.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir(PathBuf::from(format!(
        ".bench_work/serve-mix-{}",
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;
    let pristine = work.0.join("warm-cache.d");
    let salt = persist_warm_cache(&pristine)?;
    let setup = Setup {
        work: &work.0,
        pristine,
        salt,
        jobs: jobs(args.seed)?,
        scenarios: ScenarioSpec::paper_presets()
            .iter()
            .map(ScenarioSpec::compile)
            .collect(),
    };
    let mut index = 0;
    let passes = passes::measure(args, || {
        index += 1;
        run_session(&setup, index)
    });
    let snapshot = codesign_telemetry::metrics_snapshot();

    let mut out = Outcome::default();
    for pass in passes.all() {
        out.attempted += JOBS as u64;
        match pass {
            Ok(session) => out.failures.extend(session.failures.iter().cloned()),
            Err(e) => out.failures.push(format!("session failed: {e}")),
        }
    }
    let untraced: Vec<&Session> = passes.untraced.iter().flatten().collect();
    let traced: Vec<&Session> = passes.traced.iter().flatten().collect();
    let all: Vec<&Session> = passes.all().flatten().collect();
    let of = |sessions: &[&Session], f: fn(&Session) -> f64| -> Vec<f64> {
        sessions.iter().map(|s| f(s)).collect()
    };
    let per_job = |sessions: &[&Session], f: fn(&JobTrace) -> f64| -> Vec<f64> {
        sessions.iter().flat_map(|s| &s.jobs).map(f).collect()
    };

    if !args.trace {
        let latencies = per_job(&untraced, |j| j.latency_ms);
        out.set(
            "steps_per_s",
            median(&of(&untraced, |s| s.steps() / s.wall_s)),
        );
        out.set("job_p50_ms", median(&latencies));
        out.set("job_p90_ms", quantile(&latencies, 0.9));
        out.set("front_hv", median(&of(&all, |s| s.front_hv)));
        out.set("setup_s", median(&of(&all, |s| s.setup_s)));
        out.set("peak_rss_mb", passes.peak_rss_mb);
        return Ok(out);
    }

    // Decode and recorder time have no histogram inside the server: replay
    // the random shards of the distinct jobs to time them.
    let db = Arc::new(NasbenchDatabase::exhaustive(VERTICES));
    let campaigns: Vec<Campaign> = setup
        .jobs
        .iter()
        .filter(|job| !job.repeat)
        .map(|job| {
            job.spec
                .to_campaign(CodesignSpace::with_max_vertices(VERTICES))
        })
        .collect();
    replay::replay(&mut out, &db, &campaigns, StrategyKind::Random)
        .report_space_and_recorder(&mut out);

    let n = traced.len().max(1) as f64;
    let eval_s = batch::evaluator_layer(&mut out, &snapshot, n);
    let moo_s = batch::moo_layer(&mut out, &snapshot, n);
    batch::cache_layer(&mut out, &snapshot, n);
    out.set("engine.cache.inserts", median(&of(&traced, |s| s.inserts)));

    let shard_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|s| &s.jobs)
        .flat_map(|j| j.shard_ms.iter().copied())
        .collect();
    let capacity_ms: f64 = per_job(&untraced, |j| j.run_ms).iter().sum::<f64>() * WORKERS as f64;
    batch::driver_layer(&mut out, &shard_ms, capacity_ms);

    out.set("engine.persist.load_s", median(&of(&all, |s| s.load_s)));
    out.set("engine.persist.save_s", median(&of(&all, |s| s.save_s)));
    out.set("engine.persist.bytes", median(&of(&all, |s| s.save_bytes)));
    out.set(
        "server.queue_ms",
        median(&per_job(&untraced, |j| j.queue_ms)),
    );
    out.set("server.run_ms", median(&per_job(&untraced, |j| j.run_ms)));
    out.set(
        "server.overhead_ms",
        median(&per_job(&untraced, |j| j.latency_ms - j.run_ms)),
    );
    out.set("nasbench.db_build_s", median(&of(&all, |s| s.db_build_s)));
    out.set(
        "telemetry.overhead_frac",
        ratio(
            median(&of(&traced, |s| s.wall_s)),
            median(&of(&untraced, |s| s.wall_s)),
        ) - 1.0,
    );
    let shard_s = per_job(&traced, |j| j.shard_ms.iter().sum::<f64>() / 1e3)
        .iter()
        .sum::<f64>();
    out.set("unattributed_frac", 1.0 - ratio(eval_s + moo_s, shard_s));
    Ok(out)
}
