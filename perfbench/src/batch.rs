//! The batch workloads, paper-rl and guided-evo: each pass builds the
//! database, compiles the scenarios and runs one `ShardedDriver` sweep
//! without the shared cache, so every shard evaluates cold and its results
//! do not depend on which shards ran before it (see the canonical-hash
//! latency defect in `perfbench/README.md`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use codesign_core::{
    CodesignSpace, CompiledScenario, ScenarioSpec, SurrogateConfig, SurrogateStats,
};
use codesign_engine::{Campaign, CampaignReport, ShardedDriver, StrategyKind};
use codesign_nasbench::NasbenchDatabase;
use codesign_telemetry::MetricsSnapshot;

use crate::passes::{self, counter, hist_s, untraced, Passes};
use crate::stats::{median, quantile, ratio};
use crate::{replay, Args, Outcome, Workload, WORKERS};

/// Cell vertices of the batch workloads' space.
const VERTICES: usize = 4;
/// Steps per paper-rl shard.
const PAPER_RL_STEPS: usize = 200;
/// Steps per guided-evo shard.
const GUIDED_EVO_STEPS: usize = 300;
/// Set-ups a run makes besides the one in every pass, so the set-up
/// median rests on enough samples.
const EXTRA_SETUPS: usize = 30;

/// `count` campaign seeds derived from the workload seed; distinct workload
/// seeds give disjoint seed sets.
pub fn seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|k| seed.wrapping_mul(count).wrapping_add(k))
        .collect()
}

/// The campaign a batch workload sweeps.
fn campaign(workload: Workload, seed: u64) -> Campaign {
    let space = CodesignSpace::with_max_vertices(VERTICES);
    let presets = ScenarioSpec::paper_presets();
    match workload {
        Workload::PaperRl => Campaign::new(space)
            .scenarios(presets)
            .strategies(StrategyKind::ALL.to_vec())
            .seeds(seeds(seed, 3))
            .steps(PAPER_RL_STEPS),
        Workload::GuidedEvo => Campaign::new(space)
            .scenarios(presets)
            .strategies(vec![
                StrategyKind::Evolution,
                StrategyKind::Nsga {
                    population: StrategyKind::DEFAULT_NSGA_POPULATION,
                },
            ])
            .seeds(seeds(seed, 2))
            .steps(GUIDED_EVO_STEPS)
            .with_surrogate(Some(SurrogateConfig {
                overproduce: 4,
                retrain: 32,
            })),
        Workload::ServeMix => unreachable!("serve-mix is not a batch workload"),
    }
}

/// A built database and what building it took.
struct SetUp {
    db: Arc<NasbenchDatabase>,
    /// Database build plus scenario compilation, s.
    setup_s: f64,
    /// Database build alone, s.
    db_build_s: f64,
}

fn set_up(campaign: &Campaign) -> SetUp {
    let started = Instant::now();
    let db = Arc::new(NasbenchDatabase::exhaustive(VERTICES));
    let db_build_s = started.elapsed().as_secs_f64();
    black_box(campaign.shards());
    SetUp {
        db,
        setup_s: started.elapsed().as_secs_f64(),
        db_build_s,
    }
}

/// Every scenario's merged front as sorted metric bit patterns.
type FrontDigest = Vec<Vec<Vec<u64>>>;

/// What one sweep leaves for the report. The sweep's own report is dropped,
/// so memory does not grow with the number of passes.
#[derive(Debug)]
struct Pass {
    setup_s: f64,
    db_build_s: f64,
    /// The sweep's wall time, s.
    wall_s: f64,
    steps: f64,
    shard_ms: Vec<f64>,
    /// Workers × the driver's wall time, ms.
    capacity_ms: f64,
    surrogate: Vec<SurrogateStats>,
    front: FrontDigest,
    front_hv: f64,
    failures: Vec<String>,
}

fn run_pass(campaign: &Campaign, scenarios: &[CompiledScenario], expected: usize) -> Pass {
    let setup = set_up(campaign);
    let started = Instant::now();
    let report = ShardedDriver::new(WORKERS)
        .without_shared_cache()
        .run(campaign, &setup.db);
    let wall_s = started.elapsed().as_secs_f64();
    let (front, front_hv) = untraced(|| fronts(&report, scenarios));
    Pass {
        setup_s: setup.setup_s,
        db_build_s: setup.db_build_s,
        wall_s,
        steps: report.shards.iter().map(|s| s.steps as f64).sum(),
        shard_ms: report
            .shards
            .iter()
            .map(|s| s.wall_us as f64 / 1e3)
            .collect(),
        capacity_ms: report.workers as f64 * report.wall_us as f64 / 1e3,
        surrogate: report.shards.iter().filter_map(|s| s.surrogate).collect(),
        front,
        front_hv,
        failures: check_report(&report, expected),
    }
}

/// The merged fronts of a report and their hypervolume summed over the
/// scenarios, each against its own reference point.
fn fronts(report: &CampaignReport, scenarios: &[CompiledScenario]) -> (FrontDigest, f64) {
    let mut digest = Vec::with_capacity(scenarios.len());
    let mut hv = 0.0;
    for scenario in scenarios {
        let front = report.merged_front(scenario.name());
        hv += front.hypervolume(&scenario.hypervolume_reference());
        let mut points: Vec<Vec<u64>> = front
            .iter()
            .map(|(m, _)| m.iter().map(|x| x.to_bits()).collect())
            .collect();
        points.sort_unstable();
        digest.push(points);
    }
    (digest, hv)
}

/// The checks every sweep passes: nothing cancelled, every shard of the
/// grid present, every shard ran its full step budget.
fn check_report(report: &CampaignReport, expected: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if report.cancelled {
        failures.push("sweep reports cancelled".to_owned());
    }
    if report.shards.len() != expected {
        failures.push(format!(
            "{} shards reported, grid has {expected}",
            report.shards.len()
        ));
    }
    for shard in report.shards.iter().filter(|s| s.steps != s.spec.steps) {
        failures.push(format!(
            "shard {} ran {} of {} steps",
            shard.spec.index, shard.steps, shard.spec.steps
        ));
    }
    failures
}

/// Runs paper-rl or guided-evo.
pub fn run(args: &Args) -> Outcome {
    let campaign = campaign(args.workload, args.seed);
    let scenarios: Vec<CompiledScenario> = campaign
        .scenarios
        .iter()
        .map(ScenarioSpec::compile)
        .collect();
    let expected = campaign.shards().len();
    let (setups, db_builds): (Vec<f64>, Vec<f64>) = (0..EXTRA_SETUPS)
        .map(|_| {
            let s = set_up(&campaign);
            (s.setup_s, s.db_build_s)
        })
        .unzip();
    let passes = passes::measure(args, || run_pass(&campaign, &scenarios, expected));
    let snapshot = codesign_telemetry::metrics_snapshot();

    let mut out = Outcome::default();
    for pass in passes.all() {
        out.attempted += expected as u64;
        out.failures.extend(pass.failures.iter().cloned());
        out.check(pass.front == passes.warmup.front, || {
            "merged fronts differ between passes of one seed".to_owned()
        });
    }
    let setups: Vec<f64> = passes.all().map(|p| p.setup_s).chain(setups).collect();
    let db_builds: Vec<f64> = passes
        .all()
        .map(|p| p.db_build_s)
        .chain(db_builds)
        .collect();

    if args.trace {
        layers(&mut out, &passes, &snapshot);
        out.set("nasbench.db_build_s", median(&db_builds));
        if args.workload == Workload::PaperRl {
            let db = Arc::new(NasbenchDatabase::exhaustive(VERTICES));
            let campaigns = std::slice::from_ref(&campaign);
            replay::replay(&mut out, &db, campaigns, StrategyKind::Combined).report_all(&mut out);
        }
    } else {
        // A batch job is one search run of the grid: one shard.
        let jobs_ms: Vec<f64> = passes
            .untraced
            .iter()
            .flat_map(|p| p.shard_ms.iter().copied())
            .collect();
        let rates: Vec<f64> = passes.untraced.iter().map(|p| p.steps / p.wall_s).collect();
        out.set("steps_per_s", median(&rates));
        out.set("job_p50_ms", median(&jobs_ms));
        out.set("job_p90_ms", quantile(&jobs_ms, 0.9));
        out.set("front_hv", passes.warmup.front_hv);
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", passes.peak_rss_mb);
    }
    out
}

/// Per-layer metrics of a batch run, per sweep: histograms of the traced
/// sweeps, driver figures from the untraced ones. The sweeps have no shared
/// cache; the paper-rl replay later sets the cache layer and overrides the
/// layers it times directly.
fn layers(out: &mut Outcome, passes: &Passes<Pass>, snapshot: &MetricsSnapshot) {
    let n = passes.traced.len().max(1) as f64;
    let per_pass = |total: f64| total / n;

    let eval_s = evaluator_layer(out, snapshot, n);
    let train_s = hist_s(snapshot, "surrogate.train_us");
    let pred_s = hist_s(snapshot, "surrogate.pred_us");
    out.set("core.surrogate.train_s", per_pass(train_s));
    out.set("core.surrogate.pred_s", per_pass(pred_s));
    // Guidance counters are deterministic: read them from one sweep.
    let guided = &passes.warmup.surrogate;
    if !guided.is_empty() {
        let sum = |f: fn(&SurrogateStats) -> f64| guided.iter().map(f).sum::<f64>();
        out.set(
            "core.surrogate.train_rounds",
            sum(|s| s.train_rounds as f64),
        );
        out.set(
            "core.surrogate.verify_rate",
            ratio(sum(|s| s.verified as f64), sum(|s| s.candidates as f64)),
        );
        out.set(
            "core.surrogate.pred_mae",
            ratio(sum(|s| s.pred_err_sum), sum(|s| s.pred_count as f64)),
        );
    }
    let moo_s = moo_layer(out, snapshot, n);

    let shard_ms: Vec<f64> = passes
        .untraced
        .iter()
        .flat_map(|p| p.shard_ms.iter().copied())
        .collect();
    let capacity_ms: f64 = passes.untraced.iter().map(|p| p.capacity_ms).sum();
    driver_layer(out, &shard_ms, capacity_ms);

    let traced: Vec<f64> = passes.traced.iter().map(|p| p.wall_s).collect();
    let untraced: Vec<f64> = passes.untraced.iter().map(|p| p.wall_s).collect();
    out.set(
        "telemetry.overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
    );
    let shard_s: f64 = passes.traced.iter().flat_map(|p| &p.shard_ms).sum::<f64>() / 1e3;
    out.set(
        "unattributed_frac",
        1.0 - ratio(eval_s + train_s + pred_s + moo_s, shard_s),
    );
}

/// Evaluator figures from the `core.eval_us` histogram over `n` traced
/// passes. Returns the histogram's total, s.
pub fn evaluator_layer(out: &mut Outcome, snapshot: &MetricsSnapshot, n: f64) -> f64 {
    let calls = snapshot.histogram("core.eval_us").map_or(0, |h| h.count()) as f64;
    let eval_s = hist_s(snapshot, "core.eval_us");
    out.set("core.evaluator.calls", calls / n);
    out.set("core.evaluator.s", eval_s / n);
    out.set("core.evaluator.us_per_call", ratio(eval_s * 1e6, calls));
    eval_s
}

/// Front and hypervolume figures over `n` traced passes. Returns the time
/// in front inserts and scratch hypervolumes, s: incremental-hypervolume
/// updates nest inside the inserts, so they count once.
pub fn moo_layer(out: &mut Outcome, snapshot: &MetricsSnapshot, n: f64) -> f64 {
    let insert_s = hist_s(snapshot, "moo.front.insert_us");
    let scratch_hv_s = hist_s(snapshot, "moo.hypervolume_us");
    out.set("moo.front_insert_s", insert_s / n);
    out.set(
        "moo.hv_s",
        (scratch_hv_s + hist_s(snapshot, "moo.hv_delta_us")) / n,
    );
    insert_s + scratch_hv_s
}

/// Shared-cache figures from the cache counters and histograms over `n`
/// traced passes. Cache time nests inside the evaluator's.
pub fn cache_layer(out: &mut Outcome, snapshot: &MetricsSnapshot, n: f64) {
    let hits = counter(snapshot, "cache.pair_hits");
    let lookups = hits + counter(snapshot, "cache.pair_misses");
    out.set("engine.cache.lookups", lookups / n);
    out.set("engine.cache.hit_rate", ratio(hits, lookups));
    out.set(
        "engine.cache.warm_hit_rate",
        ratio(counter(snapshot, "cache.warm_hits"), lookups),
    );
    out.set(
        "engine.cache.lookup_s",
        hist_s(snapshot, "cache.lookup_us") / n,
    );
    out.set(
        "engine.cache.lock_wait_s",
        hist_s(snapshot, "cache.lock_wait_us") / n,
    );
}

/// Driver figures: the idle share of the workers' time (`capacity_ms` is
/// workers × driver wall time), the median and the longest shard.
pub fn driver_layer(out: &mut Outcome, shard_ms: &[f64], capacity_ms: f64) {
    let busy_ms: f64 = shard_ms.iter().sum();
    out.set("engine.driver.idle_frac", 1.0 - ratio(busy_ms, capacity_ms));
    out.set("engine.driver.shard_p50_ms", median(shard_ms));
    out.set(
        "engine.driver.shard_max_ms",
        shard_ms.iter().copied().fold(0.0, f64::max),
    );
}
