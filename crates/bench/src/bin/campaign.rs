//! The general campaign driver: any scenarios × strategies × seeds sweep at
//! one step budget, sharded across worker threads with a shared evaluation
//! cache.
//!
//! The job flags map onto the keys of the server's job document, and a
//! one-shot run, `--check-scenarios` and `campaign submit` all read them
//! through `JobSpec::from_json`: one parser, one set of defaults and one
//! set of checks, so the same flags give the same shard records from a
//! server as from a one-shot run. An unknown flag, a value that does not
//! parse or a job the spec rejects exits with code 2, and so does a flag
//! the mode does not read: `campaign serve` takes no job flags,
//! `campaign submit` only the job and `--connect`, `--check-scenarios`
//! only the job, `--list-scenarios` nothing else, and a one-shot run none
//! of the server's. `--cache-sync-secs` needs a `--cache-path` to
//! re-merge.
//!
//! Scenarios are open: beyond the paper's three presets, any declarative
//! `ScenarioSpec` runs — from a versioned JSON file (`--scenarios-file`) or
//! the compact CLI grammar (`--scenario 'lat<100; w=acc:0.9,area:0.1'`).
//! Scenario names flow into the JSONL/CSV exports and into the persisted
//! cache's provenance.
//!
//! With `--cache-path DIR`, the evaluation cache persists across
//! invocations as a directory of 16 v4 `shard-NN.bin` files: the first run
//! computes and saves, later runs warm-start from the directory and report
//! how many lookups the previous runs already paid for. Saves merge with
//! what is on disk under per-shard file locks, so several processes may
//! share one directory. The files are salted with the database
//! fingerprint: a cache built against a different `--max-vertices` (or
//! database build) exits with code 2 instead of being silently reused, and
//! so do a corrupt shard and a `--cache-path` that names a regular file. A
//! directory written by an older format version cold-starts and is
//! rewritten in the current one.
//!
//! Scenarios with auto-ranged normalizations (`"norm": "auto"` in a file,
//! `norm=acc:auto` in the compact grammar) are resolved from a
//! deterministic enumeration probe sample before the sweep starts, by the
//! same engine call (`Campaign::with_auto_norms`) a server makes for a
//! submitted job.
//!
//! `--reward-shaping hv:W` turns on hypervolume-gradient reward shaping
//! for the RL controllers: each step's scalar reward gains `W × ΔHV`, the
//! proposal's marginal dominated-hypervolume contribution to the shard's
//! running Pareto front (incremental staircase kernel — no per-step full
//! recompute). Best-point tracking stays on the unshaped reward, the
//! shard JSONL records `reward_shaping` and the total `hv_bonus`, and
//! shaped sweeps remain bit-identical across worker counts.
//!
//! `--surrogate k:R` turns on predict-then-verify guidance for the
//! generational strategies (evolution/nsga): each generation over-produces
//! `k×` candidates, ranks them with a cheap cache-trained predictor
//! (retrained every `R` real evaluations), and spends real evaluations
//! only on the top slice. The predictor trains on warm cache entries plus
//! the shard's own evaluation stream, so guided sweeps stay bit-identical
//! across worker counts and a persisted `--cache-path` from *other*
//! scenarios warm-starts the predictor for free. The shard JSONL records
//! `surrogate`, `verify_rate`, and `pred_mae`; the RL and random
//! strategies ignore the flag (and export `surrogate: "off"`).
//!
//! The `nsga` strategy is the true multi-objective searcher: selection by
//! non-dominated sorting + crowding over the scenario's own axes instead
//! of a scalarized reward. `--population` sizes its generations and
//! `--generations` expresses the step budget as `population × generations`
//! (overriding `--steps`); every nsga shard exports its per-generation
//! front hypervolume in the JSONL.
//!
//! Run: `cargo run --release -p codesign-bench --bin campaign -- [--help]`
//! Job flags: `--scenario PRESET-INDEX|PRESET-NAME|COMPACT-SPEC`,
//! `--scenarios-file FILE`, `--strategies LIST` (`--strategy` is a singular
//! alias; `reinforce` = `combined`), `--seed-base S`, `--repeats R`,
//! `--steps N`, `--population P`, `--generations G`, `--reward-shaping
//! hv:W`, `--surrogate k:R`. Run flags: `--max-vertices V`, `--workers W`,
//! `--no-cache`, `--cache-path DIR`, `--list-scenarios`,
//! `--check-scenarios`, `--trace-out FILE`, `--metrics-out FILE`,
//! `--progress`.
//!
//! Telemetry is off by default (a disabled check is one relaxed atomic
//! load; the campaign's exports are bit-identical either way). Any of the
//! three flags turns it on: `--trace-out` writes a Chrome trace-event JSON
//! (open in Perfetto or `chrome://tracing`), `--metrics-out` writes every
//! span and metric as JSONL, and `--progress` streams a live
//! shards-done / ETA / cache-hit-rate line to stderr while the sweep runs.
//! The two output files are created before any work starts, so a path
//! that cannot be created exits with code 2 up front.
//!
//! # Server mode
//!
//! `campaign serve` keeps the database and evaluation cache resident and
//! accepts newline-delimited JSON job frames (see `codesign-server`):
//!
//! ```text
//! campaign serve --stdio [--max-vertices V] [--workers W]
//!                [--queue-capacity N] [--cache-path DIR]
//!                [--cache-sync-secs S] ...
//! campaign serve --listen /tmp/campaign.sock ...
//! campaign submit --connect /tmp/campaign.sock [job flags]
//! ```
//!
//! Every job warm-starts from the previous jobs' evaluations. With
//! `--cache-path DIR`, saves go through merge-on-save (`flock` +
//! `merge_bytes` + atomic rename), so a fleet of processes sharing one
//! cache directory produces the union of their entries;
//! `--cache-sync-secs S` re-merges periodically while serving. SIGINT or
//! SIGTERM cancels at the next shard boundary, flushes the cache, and
//! prints the telemetry summary before exiting — in serve *and* one-shot
//! modes.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Arc;

use codesign_bench::{out_dir, Args};
use codesign_core::{CodesignSpace, ScenarioSpec};
use codesign_engine::{
    CacheLoadError, Campaign, CancelToken, ShardedDriver, SharedEvalCache, CACHE_VERSION,
};
use codesign_nasbench::{Json, NasbenchDatabase};
use codesign_server::JobSpec;

/// The job flags besides the scenario ones, as `(flag, value, job-document
/// key, numeric)`: each given flag sets its key in the document that
/// `JobSpec::from_json` reads. `--strategy` is a singular alias that
/// `--strategies` overrides.
const JOB_FLAGS: [(&str, &str, &str, bool); 9] = [
    ("strategies", "LIST", "strategies", false),
    ("strategy", "NAME", "strategies", false),
    ("seed-base", "S", "seed_base", true),
    ("repeats", "R", "repeats", true),
    ("steps", "N", "steps", true),
    ("population", "P", "population", true),
    ("generations", "G", "generations", true),
    ("reward-shaping", "hv:W", "reward_shaping", false),
    ("surrogate", "k:R", "surrogate", false),
];

/// The scenario flags, which one-shot runs and `campaign submit` read with
/// the job flags.
const SCENARIO_FLAGS: &str = "--scenario SPEC, --scenarios-file FILE";

/// How and where a one-shot run goes.
const ONE_SHOT_FLAGS: &str = "--max-vertices V, --workers W, --no-cache, --cache-path DIR, \
    --list-scenarios, --check-scenarios, --trace-out FILE, --metrics-out FILE, --progress";

/// What `campaign serve` reads; its jobs come in frames.
const SERVE_FLAGS: &str = "--max-vertices V, --workers W, --cache-path DIR, \
    --trace-out FILE, --metrics-out FILE, --stdio, --listen SOCKET, --queue-capacity N, \
    --cache-sync-secs S";

const CACHE_IS_A_DIRECTORY: &str =
    "the evaluation cache is always a directory of v4 shard files; pass --cache-path DIR";
const GRID_ORDER: &str = "shards always dispatch in grid order";

/// Flags of earlier releases, each with why it went. They are checked
/// before the flag table, so each keeps its own hint.
const REMOVED_FLAGS: [(&str, &str); 8] = [
    ("--cache-format", CACHE_IS_A_DIRECTORY),
    ("--cache-mmap", CACHE_IS_A_DIRECTORY),
    ("--cache-migrate", CACHE_IS_A_DIRECTORY),
    (
        "--cache-capacity",
        "the evaluation cache keeps every pair it computes",
    ),
    ("--backend", GRID_ORDER),
    ("--calibrate", GRID_ORDER),
    ("--probe-steps", GRID_ORDER),
    ("--probe-samples", "the auto-norm probe size is fixed"),
];

/// Prints `message` and exits with the usage-error code 2.
fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Opens (or cold-creates) the persisted evaluation cache directory for
/// `salt`; `Ok(None)` when no `--cache-path` was given.
///
/// Warm-start: reuse the directory when its salt matches this database. A
/// missing directory just means a cold start, and so does one written by
/// an older format version — the cache is a rebuildable artifact, and the
/// next save rewrites it in the current format. Everything else (a regular
/// file, a salt mismatch, a corrupt shard) is an input error: those files
/// may belong to a *different database*, and silently overwriting them
/// would destroy work.
fn open_cache(
    cache_path: &str,
    salt: u64,
    log_to_stderr: bool,
) -> Result<Option<Arc<SharedEvalCache>>, String> {
    if cache_path.is_empty() {
        return Ok(None);
    }
    // Serve mode keeps stdout clean for the JSONL event stream; its
    // humans read stderr.
    let log = |line: String| {
        if log_to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let path = std::path::Path::new(cache_path);
    if !path.exists() {
        log(format!(
            "cache: cold start ({cache_path} not found; will create it)"
        ));
        return Ok(Some(Arc::new(SharedEvalCache::new())));
    }
    if !path.is_dir() {
        return Err(format!(
            "cache: {cache_path} is not a directory; --cache-path names a directory \
             of shard-NN.bin files"
        ));
    }
    let loaded = match SharedEvalCache::load_sharded(path, salt) {
        Ok(loaded) => loaded,
        Err(CacheLoadError::WrongVersion { found }) => {
            eprintln!(
                "cache: {cache_path} uses format version {found} (current {CACHE_VERSION}); \
                 cold-starting and rewriting it in the current format"
            );
            SharedEvalCache::new()
        }
        Err(e) => return Err(format!("cache: cannot reuse {cache_path}: {e}")),
    };
    if loaded.stats().preloaded > 0 {
        log(format!(
            "cache: warm start from {cache_path} ({} pair entries preloaded; built by: {})",
            loaded.stats().preloaded,
            match loaded.provenance().len() {
                0 => "unknown scenarios".to_owned(),
                _ => loaded.provenance().join(", "),
            }
        ));
    }
    Ok(Some(Arc::new(loaded)))
}

/// Persists the cache through merge-on-save
/// ([`SharedEvalCache::sync_sharded`]): the on-disk entries are merged in
/// under per-shard file locks before the union is written back, so
/// concurrent processes sharing one directory lose nothing regardless of
/// save order. A failed save exits with code 1.
fn persist_cache(cache: &SharedEvalCache, cache_path: &str, salt: u64, log_to_stderr: bool) {
    if let Err(e) = cache.sync_sharded(cache_path, salt) {
        eprintln!("cache: cannot persist to {cache_path}: {e}");
        std::process::exit(1);
    }
    let line = format!(
        "cache persisted to {cache_path} ({} pair entries, merge-on-save)",
        cache.len()
    );
    if log_to_stderr {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

/// The `--trace-out` and `--metrics-out` files, created when the flags are
/// read: a path that cannot be created exits 2 before any work starts
/// instead of after the sweep.
struct TelemetryOutputs {
    trace: Option<(String, File)>,
    metrics: Option<(String, File)>,
}

impl TelemetryOutputs {
    /// Creates the files the flags name, exiting 2 with the flag and the
    /// I/O error when one cannot be created.
    fn create(args: &Args) -> Self {
        let create = |flag: &str| {
            let path = args.value(flag).filter(|path| !path.is_empty())?;
            let file =
                File::create(path).unwrap_or_else(|e| exit_usage(&format!("--{flag} {path}: {e}")));
            Some((path.to_owned(), file))
        };
        Self {
            trace: create("trace-out"),
            metrics: create("metrics-out"),
        }
    }

    /// Whether either file was asked for.
    fn any(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Drains telemetry once and feeds every sink from the same snapshot,
    /// so the trace, the event log, and the summary all describe the
    /// identical run. No-op while telemetry is disabled.
    fn export(&self) {
        if !codesign_telemetry::enabled() {
            return;
        }
        let spans = codesign_telemetry::drain_spans();
        let metrics = codesign_telemetry::metrics_snapshot();
        if let Some((path, file)) = &self.trace {
            write_telemetry_file(path, file, |w| {
                codesign_telemetry::write_chrome_trace(
                    w,
                    &spans,
                    &codesign_telemetry::thread_names(),
                )
            });
            println!(
                "chrome trace written to {path} ({} spans; open in Perfetto or chrome://tracing)",
                spans.len()
            );
        }
        if let Some((path, file)) = &self.metrics {
            write_telemetry_file(path, file, |w| {
                codesign_telemetry::write_events_jsonl(w, &spans, &metrics)
            });
            println!("telemetry events written to {path}");
        }
        println!(
            "\ntelemetry summary:\n{}",
            codesign_telemetry::render_summary(&spans, &metrics)
        );
    }
}

/// Writes one telemetry export through a flushed buffer; a failed write
/// exits with code 1.
fn write_telemetry_file(
    path: &str,
    file: &File,
    write: impl FnOnce(&mut BufWriter<&File>) -> std::io::Result<()>,
) {
    let mut writer = BufWriter::new(file);
    if let Err(e) = write(&mut writer).and_then(|()| writer.flush()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `campaign serve`: boot the resident job service. `--stdio` serves one
/// session over stdin/stdout; `--listen PATH` serves a Unix-domain socket
/// until a signal or a `shutdown` frame. Either way the database and
/// cache are loaded once and shared by every job.
fn run_serve(args: &Args) -> ! {
    use codesign_server::{CampaignServer, ServerConfig};

    let max_v = args.max_vertices(4);
    let workers = args.get_usize("workers", 0);
    let queue_capacity = args.get_usize_in("queue-capacity", 16, 1..);
    let cache_path = args.get_str("cache-path", "");
    let sync_secs = args.get_usize("cache-sync-secs", 0);
    if sync_secs > 0 && cache_path.is_empty() {
        exit_usage("--cache-sync-secs needs --cache-path: there is no cache directory to re-merge");
    }
    let telemetry = Arc::new(TelemetryOutputs::create(args));
    if telemetry.any() {
        codesign_telemetry::set_enabled(true);
    }

    codesign_server::install_shutdown_handler();
    eprintln!("serve: building exhaustive <= {max_v}-vertex database...");
    let db = Arc::new(NasbenchDatabase::exhaustive(max_v));
    let salt = db.fingerprint();
    let cache = open_cache(&cache_path, salt, true)
        .unwrap_or_else(|err| exit_usage(&err))
        .unwrap_or_else(|| Arc::new(SharedEvalCache::new()));
    let server = CampaignServer::start(
        CodesignSpace::with_max_vertices(max_v),
        db,
        Arc::clone(&cache),
        ServerConfig {
            workers: if workers == 0 {
                ServerConfig::default().workers
            } else {
                workers
            },
            queue_capacity,
        },
    );
    let inner = server.inner();

    // Periodic re-merge: while serving, fold sibling processes' entries in
    // (and publish ours) every --cache-sync-secs.
    if sync_secs > 0 {
        let cache = Arc::clone(&cache);
        let path = cache_path.clone();
        let inner = server.inner();
        std::thread::spawn(move || loop {
            for _ in 0..sync_secs * 10 {
                if inner.is_shutting_down() || codesign_server::shutdown_requested() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            match cache.sync_sharded(&path, salt) {
                Ok(_) => eprintln!("serve: cache re-merged ({} pair entries)", cache.len()),
                Err(e) => eprintln!("serve: cache sync failed: {e}"),
            }
        });
    }

    // Signal path: cancel the running job at its shard boundary, fail the
    // queue, flush the cache (merge-on-save), print the telemetry summary,
    // exit. The session may be blocked reading stdin (glibc restarts the
    // read around the handler), so the watcher owns the exit.
    {
        let inner = Arc::clone(&inner);
        let cache = Arc::clone(&cache);
        let cache_path = cache_path.clone();
        let telemetry = Arc::clone(&telemetry);
        std::thread::spawn(move || {
            while !codesign_server::shutdown_requested() {
                if inner.is_shutting_down() {
                    return; // EOF/shutdown-frame path owns the flush
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            inner.abort();
            if !cache_path.is_empty() {
                persist_cache(&cache, &cache_path, salt, true);
            }
            telemetry.export();
            eprintln!("serve: shut down on signal");
            std::process::exit(130);
        });
    }

    let listen = args.get_str("listen", "");
    if args.flag("stdio") {
        server.serve_stdio();
    } else if listen.is_empty() {
        exit_usage("usage: campaign serve (--stdio | --listen SOCKET-PATH) [options]");
    } else {
        #[cfg(unix)]
        server
            .serve_unix(std::path::Path::new(&listen))
            .unwrap_or_else(|e| exit_usage(&format!("serve: cannot listen on {listen}: {e}")));
        #[cfg(not(unix))]
        exit_usage("serve: --listen requires unix domain sockets; use --stdio");
    }
    server.join();
    if !cache_path.is_empty() {
        persist_cache(&cache, &cache_path, salt, true);
    }
    telemetry.export();
    std::process::exit(0);
}

/// `campaign submit`: one-shot client for a `campaign serve --listen`
/// server. Reads the job from the same flags as the one-shot sweep, streams
/// the server's event lines to stdout, and exits 0 on `job_done` (1 on an
/// `error` event, 2 on usage errors).
#[cfg(unix)]
fn run_submit(args: &Args) -> ! {
    use codesign_server::{Event, Request};
    use std::io::{BufRead, Write};

    let path = args.get_str("connect", "");
    if path.is_empty() {
        exit_usage("usage: campaign submit --connect SOCKET-PATH [job flags]");
    }
    let job = job_spec(args);

    let stream = std::os::unix::net::UnixStream::connect(&path)
        .unwrap_or_else(|e| exit_usage(&format!("submit: cannot connect to {path}: {e}")));
    let mut writer = stream.try_clone().expect("clone socket");
    writeln!(writer, "{}", Request::Submit(job).to_line()).expect("send job");
    // Half-close: the server sees EOF, drains this session's jobs, and
    // closes its end — so "read until the stream ends" is the protocol.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close socket");

    let mut failed = false;
    for line in std::io::BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        println!("{line}");
        if let Ok(Event::Error { .. }) = Event::parse_line(&line) {
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

#[cfg(not(unix))]
fn run_submit(_args: &Args) -> ! {
    exit_usage("submit: requires unix domain sockets");
}

/// Reads the job from the flags: they become the keys of a job document,
/// which `JobSpec::from_json` checks and fills with its defaults. The
/// `--scenarios-file` scenarios come first, then `--scenario`. Bad input
/// exits 2.
fn job_spec(args: &Args) -> JobSpec {
    let mut scenarios = Vec::new();
    if let Some(file) = args.value("scenarios-file") {
        let specs = ScenarioSpec::load_file(file)
            .unwrap_or_else(|e| exit_usage(&format!("invalid scenarios: {file}: {e}")));
        scenarios.extend(specs.iter().map(ScenarioSpec::to_json));
    }
    if let Some(inline) = args.value("scenario") {
        scenarios.push(Json::Str(inline.to_owned()));
    }
    let mut fields = Vec::new();
    if !scenarios.is_empty() {
        fields.push(("scenarios", Json::Arr(scenarios)));
    }
    for (flag, _, key, numeric) in JOB_FLAGS {
        match args.value(flag) {
            Some(_) if fields.iter().any(|(set, _)| *set == key) => {}
            Some(_) if numeric => fields.push((key, Json::Num(args.get_u64(flag, 0) as f64))),
            Some(value) => fields.push((key, Json::Str(value.to_owned()))),
            None => {}
        }
    }
    JobSpec::from_json(&Json::obj(fields))
        .unwrap_or_else(|err| exit_usage(&format!("invalid job: {err}")))
}

fn describe(spec: &ScenarioSpec) {
    let objectives: Vec<String> = spec
        .objectives()
        .iter()
        .map(|o| {
            let mut s = format!("{}:{}", o.metric(), o.weight());
            if let Some(t) = o.threshold() {
                let op = if o.metric().maximize() { '>' } else { '<' };
                s.push_str(&format!(" ({}{op}{t})", o.metric()));
            }
            s
        })
        .collect();
    println!("  {:<24} {}", spec.name(), objectives.join(", "));
}

fn main() {
    let raw: Vec<String> = std::env::args().collect();
    if let Some((flag, why)) = REMOVED_FLAGS
        .iter()
        .find(|(flag, _)| raw.iter().any(|arg| arg == flag))
    {
        exit_usage(&format!("{flag} was removed: {why}"));
    }
    let job_flags: String = JOB_FLAGS
        .iter()
        .map(|(flag, value, _, _)| format!("--{flag} {value}, "))
        .collect();
    // Each mode checks its flags against the ones it reads, so a flag of
    // another mode exits 2 instead of being ignored. `--list-scenarios`
    // reads no other flag, and `--check-scenarios` only the job.
    let given = |flag: &str| raw.iter().any(|arg| arg == flag);
    let args = Args::parse(&match raw.get(1).map(String::as_str) {
        Some("serve") => format!("serve, {SERVE_FLAGS}"),
        Some("submit") => format!("submit, --connect SOCKET, {job_flags}{SCENARIO_FLAGS}"),
        _ if given("--list-scenarios") => "--list-scenarios".to_owned(),
        _ if given("--check-scenarios") => {
            format!("--check-scenarios, {job_flags}{SCENARIO_FLAGS}")
        }
        _ => format!("serve, submit, {job_flags}{SCENARIO_FLAGS}, {ONE_SHOT_FLAGS}"),
    });
    if args.flag("no-cache") && !args.get_str("cache-path", "").is_empty() {
        exit_usage("--no-cache and --cache-path are contradictory");
    }
    match args.command() {
        Some("serve") => run_serve(&args),
        Some("submit") => run_submit(&args),
        _ => {}
    }

    if args.flag("list-scenarios") {
        println!("built-in presets (usable via --scenario INDEX or --scenario NAME):");
        for spec in ScenarioSpec::paper_presets() {
            describe(&spec);
        }
        println!("\ncustom scenarios: --scenario 'lat<100; w=acc:0.9,area:0.1'");
        println!("                  --scenarios-file FILE (see examples/scenarios/)");
        return;
    }

    let job = job_spec(&args);
    if args.flag("check-scenarios") {
        println!("{} scenario(s) valid:", job.scenarios.len());
        for spec in &job.scenarios {
            describe(spec);
        }
        return;
    }

    let max_v = args.max_vertices(4);
    let workers = args.get_usize("workers", 0);
    let cache_path = args.get_str("cache-path", "");

    // Telemetry: any of the three flags enables the subsystem for the whole
    // process. Off, every instrumentation site is a single relaxed atomic
    // load.
    let telemetry = TelemetryOutputs::create(&args);
    let progress = args.flag("progress");
    if telemetry.any() || progress {
        codesign_telemetry::set_enabled(true);
    }

    let mut campaign = job.to_campaign(CodesignSpace::with_max_vertices(max_v));
    println!(
        "campaign: {} shards ({} scenarios x {} strategies x {} seeds x {} steps)",
        job.shard_count(),
        job.scenarios.len(),
        job.strategies.len(),
        job.seeds.len(),
        job.steps,
    );
    if job.reward_shaping.is_active() {
        println!(
            "reward shaping: {} (marginal-hypervolume bonus on the controller reward)",
            job.reward_shaping
        );
    }
    if let Some(cfg) = job.surrogate {
        println!("surrogate: {cfg} (predict-then-verify on the evolution/nsga strategies)");
    }
    for spec in &campaign.scenarios {
        describe(spec);
    }

    println!("building exhaustive <= {max_v}-vertex database...");
    let db = Arc::new(NasbenchDatabase::exhaustive(max_v));
    println!("database: {} cells\n", db.len());

    // Auto-ranged normalizations: measure each auto metric's span from the
    // engine's deterministic enumeration probe before anything is compiled.
    if campaign.needs_auto_norms() {
        println!(
            "auto norms: probing {} enumeration samples...",
            Campaign::NORM_PROBE_SAMPLES
        );
        let declared = campaign.scenarios.clone();
        campaign = campaign
            .with_auto_norms(&db)
            .unwrap_or_else(|err| exit_usage(&format!("auto-norm resolution failed: {err}")));
        for (declared, spec) in declared.iter().zip(&campaign.scenarios) {
            for (auto, objective) in declared.objectives().iter().zip(spec.objectives()) {
                if auto.norm_is_auto() {
                    let (lo, hi) = objective.norm();
                    println!(
                        "  {}: {} ranged to [{lo:.4}, {hi:.4}]",
                        spec.name(),
                        objective.metric()
                    );
                }
            }
        }
        println!();
    }

    let mut driver = ShardedDriver::new(workers);
    if args.flag("no-cache") {
        driver = driver.without_shared_cache();
    }

    let salt = db.fingerprint();
    let cache = open_cache(&cache_path, salt, false).unwrap_or_else(|err| exit_usage(&err));
    if let Some(cache) = &cache {
        driver = driver.with_cache(Arc::clone(cache));
    }

    // SIGINT/SIGTERM: cancel at the next shard boundary instead of dying
    // mid-sweep. Completed shards are reported, the cache is persisted,
    // and the telemetry summary still prints — an interrupted sweep's
    // evaluations warm-start the next one.
    let cancel = CancelToken::new();
    if codesign_server::install_shutdown_handler() {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            while !codesign_server::shutdown_requested() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("\ninterrupted: cancelling at the next shard boundary...");
            cancel.cancel();
        });
    }
    driver = driver.with_cancel_token(cancel);

    // --progress: a ticker thread polls the metrics registry (shards done,
    // cache hit rate) and repaints one stderr line until the sweep finishes.
    // Reads only counters; never touches results.
    let progress_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress_ticker = progress.then(|| {
        let stop = Arc::clone(&progress_stop);
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            let started = std::time::Instant::now();
            let paint = |final_paint: bool| {
                let snap = codesign_telemetry::metrics_snapshot();
                let total = snap.counter("engine.shards_total").unwrap_or(0);
                // The final repaint reads the counters *after* the sweep
                // returned, so done == total and the line closes at 100%.
                let done = snap.counter("engine.shards_done").unwrap_or(0);
                let percent = if total > 0 {
                    100.0 * done as f64 / total as f64
                } else {
                    0.0
                };
                let hits = snap.counter("cache.pair_hits").unwrap_or(0)
                    + snap.counter("cache.warm_hits").unwrap_or(0);
                let misses = snap.counter("cache.pair_misses").unwrap_or(0);
                let hit_rate = if hits + misses > 0 {
                    100.0 * hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                };
                let elapsed = started.elapsed().as_secs_f64();
                let eta = if final_paint {
                    "0s".to_owned()
                } else if done > 0 && total > done {
                    format!("{:.0}s", elapsed / done as f64 * (total - done) as f64)
                } else {
                    "-".to_owned()
                };
                eprint!(
                    "\rshards {done}/{total} ({percent:.0}%)  cache hit-rate {hit_rate:.1}%  \
                     elapsed {elapsed:.0}s  eta {eta}   "
                );
                let _ = std::io::Write::flush(&mut std::io::stderr());
            };
            while !stop.load(Ordering::Relaxed) {
                paint(false);
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            paint(true);
            eprintln!();
        })
    });

    let report = driver.run(&campaign, &db);
    progress_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(ticker) = progress_ticker {
        let _ = ticker.join();
    }
    println!("{report}");
    if let Some(stats) = &report.cache {
        println!(
            "cache warm hits: {} (evaluations paid for by previous invocations)",
            stats.total_warm_hits()
        );
    }

    for spec in &campaign.scenarios {
        let front = report.merged_front(spec.name());
        println!(
            "{:<24} merged front: {} points over axes [{}]",
            spec.name(),
            front.len(),
            front.schema()
        );
    }

    if let Some(cache) = &cache {
        // Stamp the sweep's scenario names into the persisted provenance.
        cache.note_scenarios(report.scenario_names());
        persist_cache(cache, &cache_path, salt, false);
    }

    let jsonl = out_dir().join("campaign.jsonl");
    let csv = out_dir().join("campaign.csv");
    report
        .write_jsonl(std::fs::File::create(&jsonl).expect("create jsonl"))
        .expect("write jsonl");
    report.write_csv(&csv).expect("write csv");
    println!(
        "\nreports written to {} and {}",
        jsonl.display(),
        csv.display()
    );

    telemetry.export();
}
