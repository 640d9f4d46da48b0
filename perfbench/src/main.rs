//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-rl|guided-evo|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run drives one workload through the public API of the workspace
//! crates for `--seconds` seconds, checks the program's outputs, prints a
//! human-readable table and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (measured with telemetry off); with
//! `--trace 1` they are the per-layer ones, attributed by timing the calls
//! into each layer from this benchmark's own code and by reading the
//! histograms the program already records. `perfbench/README.md` lists the
//! workloads, which end-to-end metric each per-layer metric should move,
//! and the known defects kept out of the output checks.

mod batch;
mod passes;
mod replay;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Worker threads of every driver and server: the benchmark machine's two
/// cores, one client thread besides.
pub const WORKERS: usize = 2;

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 6] = [
    ("steps_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("front_hv", "hv"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. Times are seconds per
/// workload pass (one sweep, one replay, or one server session).
const PER_LAYER: [(&str, &str); 33] = [
    ("rl.propose_s", "s"),
    ("rl.learn_s", "s"),
    ("rl.calls", "count"),
    ("core.decode_s", "s"),
    ("core.evaluator.calls", "count"),
    ("core.evaluator.s", "s"),
    ("core.evaluator.us_per_call", "us"),
    ("core.recorder.s", "s"),
    ("core.surrogate.train_s", "s"),
    ("core.surrogate.train_rounds", "count"),
    ("core.surrogate.pred_s", "s"),
    ("core.surrogate.verify_rate", "frac"),
    ("core.surrogate.pred_mae", "reward"),
    ("moo.front_insert_s", "s"),
    ("moo.hv_s", "s"),
    ("engine.cache.lookups", "count"),
    ("engine.cache.hit_rate", "frac"),
    ("engine.cache.warm_hit_rate", "frac"),
    ("engine.cache.inserts", "count"),
    ("engine.cache.lookup_s", "s"),
    ("engine.cache.lock_wait_s", "s"),
    ("engine.driver.idle_frac", "frac"),
    ("engine.driver.shard_p50_ms", "ms"),
    ("engine.driver.shard_max_ms", "ms"),
    ("engine.persist.load_s", "s"),
    ("engine.persist.save_s", "s"),
    ("engine.persist.bytes", "bytes"),
    ("server.queue_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("nasbench.db_build_s", "s"),
    ("telemetry.overhead_frac", "frac"),
    ("unattributed_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §III sweep: RL and random strategies, no shared cache.
    PaperRl,
    /// Surrogate-guided evolution + NSGA-II, no shared cache.
    GuidedEvo,
    /// A resident server answering a closed-loop client from a warm cache.
    ServeMix,
}

impl Workload {
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper-rl" => Some(Workload::PaperRl),
            "guided-evo" => Some(Workload::GuidedEvo),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed: every generated campaign and frame derives from it.
    pub seed: u64,
    /// Measured time, s.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload paper-rl|guided-evo|serve-mix --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: shards, or jobs on serve-mix.
    pub attempted: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::PaperRl | Workload::GuidedEvo => batch::run(&args),
        Workload::ServeMix => match serve::run(&args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: serve-mix failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    report(&args, outcome)
}

/// Prints the table and the final JSON line.
fn report(args: &Args, mut outcome: Outcome) -> ExitCode {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench workload={:?} seed={} seconds={} trace={} workers={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome
                    .failures
                    .push(format!("metric {name} is not finite ({v})"));
                0.0
            }
            // Per-layer metrics of layers a workload never reaches read 0.
            None if args.trace => 0.0,
            None => {
                outcome
                    .failures
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("  {name:<30} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let attempted = outcome.attempted.max(1);
    let failed = (outcome.failures.len() as u64).min(attempted);
    for failure in &outcome.failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!(
        "  failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "bogus"]).is_err());
        assert!(args(&["--workload", "paper-rl", "--seed", "1", "--seconds", "1"]).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
