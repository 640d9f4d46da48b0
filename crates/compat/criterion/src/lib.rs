//! Offline, API-compatible subset of the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! implements the benchmark-harness surface the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is a plain warmup + timed-batch loop around
//! `std::time::Instant` — robust enough to compare implementations and
//! track regressions, without upstream criterion's statistical machinery.
//! Batches are sized from a warm call, after one untimed call has filled
//! caches and lazy state. Each benchmark prints the median time per
//! iteration over its samples, their quartiles and the mean, and appends
//! the same figures as a JSON line to `target/criterion-shim.jsonl` for
//! scripted consumption.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_millis(400),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the total time budget of the timed phase.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_bench(id, self.sample_size, self.measurement_time, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_owned(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            _parent: self,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the time budget for benchmarks in this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        run_bench(&full, self.sample_size, self.measurement_time, &mut f);
        self
    }

    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        run_bench(&full, self.sample_size, self.measurement_time, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier, optionally parameterized.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id like `"sweep_3d/1000"`.
    #[must_use]
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// Hands the routine-under-test to the timing loop.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
    mode: BenchMode,
}

enum BenchMode {
    Calibrate,
    Measure,
}

impl Bencher {
    /// Times `routine`, running it enough times for a stable estimate.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            BenchMode::Calibrate => {
                // A cold first call would size the batches too small.
                black_box(routine());
                let t0 = Instant::now();
                black_box(routine());
                self.samples.push(t0.elapsed());
            }
            BenchMode::Measure => {
                let t0 = Instant::now();
                for _ in 0..self.iters_per_sample {
                    black_box(routine());
                }
                self.samples.push(t0.elapsed());
            }
        }
    }
}

fn run_bench(id: &str, sample_size: usize, budget: Duration, f: &mut dyn FnMut(&mut Bencher)) {
    // Calibration pass: how long does one invocation take?
    let mut bencher = Bencher {
        iters_per_sample: 1,
        samples: Vec::new(),
        mode: BenchMode::Calibrate,
    };
    f(&mut bencher);
    let per_iter = bencher
        .samples
        .first()
        .copied()
        .unwrap_or(Duration::from_nanos(1));
    let per_sample = budget.as_nanos() / sample_size.max(1) as u128;
    let iters = (per_sample / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let mut bencher = Bencher {
        iters_per_sample: iters,
        samples: Vec::new(),
        mode: BenchMode::Measure,
    };
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    let total: Duration = bencher.samples.iter().sum();
    let total_iters = iters * bencher.samples.len().max(1) as u64;
    let mean_ns = total.as_nanos() as f64 / total_iters.max(1) as f64;
    let mut per_iter: Vec<f64> = bencher
        .samples
        .iter()
        .map(|sample| sample.as_nanos() as f64 / iters as f64)
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let [q1_ns, median_ns, q3_ns] = [0.25, 0.5, 0.75].map(|q| quantile(&per_iter, q));
    println!(
        "bench: {id:<48} {:>12}/iter (quartiles {} .. {}, mean {}; {total_iters} iters)",
        fmt_ns(median_ns),
        fmt_ns(q1_ns),
        fmt_ns(q3_ns),
        fmt_ns(mean_ns)
    );
    append_json(id, [mean_ns, median_ns, q1_ns, q3_ns], total_iters);
}

/// The `q` quantile of ascending `sorted`, interpolated linearly between
/// the two nearest samples (0 when there are none).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q * last as f64;
    let (below, frac) = (rank.floor() as usize, rank.fract());
    let above = (below + 1).min(last);
    sorted[below] + (sorted[above] - sorted[below]) * frac
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Appends one result line; `times` are the mean, median, first and third
/// quartile per iteration, ns.
fn append_json(id: &str, times: [f64; 4], iters: u64) {
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("target/criterion-shim.jsonl")
    else {
        return;
    };
    let escaped: String = id
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    let [mean_ns, median_ns, q1_ns, q3_ns] = times;
    let _ = writeln!(
        file,
        "{{\"id\":\"{escaped}\",\"mean_ns\":{mean_ns:.1},\"median_ns\":{median_ns:.1},\
         \"q1_ns\":{q1_ns:.1},\"q3_ns\":{q3_ns:.1},\"iters\":{iters}}}"
    );
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let _ = std::fs::create_dir_all("target");
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        c.sample_size(3).measurement_time(Duration::from_millis(5));
        let mut count = 0u64;
        c.bench_function("shim/self_test", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }

    #[test]
    fn batches_are_sized_from_a_warm_call() {
        let mut c = Criterion::default();
        c.sample_size(2).measurement_time(Duration::from_millis(40));
        let mut calls = 0u64;
        c.bench_function("shim/cold_first_call", |b| {
            b.iter(|| {
                calls += 1;
                if calls == 1 {
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        });
        // Sized from the 100 ms call, each sample would run one iteration.
        assert!(calls > 4, "{calls} calls");
    }

    #[test]
    fn quantiles_interpolate_between_samples() {
        let sorted = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quantile(&sorted, 0.5), 4.0);
        assert_eq!(quantile(&sorted, 0.25), 2.0);
        assert_eq!(quantile(&sorted, 0.875), 12.0);
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn groups_run_parameterized_benches() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group
            .sample_size(2)
            .measurement_time(Duration::from_millis(4));
        let input = vec![1u64, 2, 3];
        let mut sum = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", input.len()), &input, |b, input| {
            b.iter(|| sum = input.iter().sum())
        });
        group.finish();
        assert_eq!(sum, 6);
    }
}
