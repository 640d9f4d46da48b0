//! The measurement loop every workload shares, and readers for the
//! telemetry the program records.

use std::time::Instant;

use codesign_telemetry::MetricsSnapshot;

use crate::Args;

/// Fewest measured passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// The passes of one run.
#[derive(Debug)]
pub struct Passes<P> {
    /// The first pass of the process, which runs slowest; it is checked but
    /// not measured.
    pub warmup: P,
    /// Peak RSS after set-up and the warm-up pass, MB. Later passes repeat
    /// the same work; what they add to the peak is allocator reuse, which
    /// varies from run to run.
    pub peak_rss_mb: f64,
    /// Passes with telemetry off: the end-to-end measurements.
    pub untraced: Vec<P>,
    /// Passes with telemetry on (`--trace 1` only), alternating with the
    /// untraced ones so both see the same machine state.
    pub traced: Vec<P>,
}

impl<P> Passes<P> {
    /// Every pass, warm-up first.
    pub fn all(&self) -> impl Iterator<Item = &P> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(&self.traced)
    }
}

/// Runs `pass` once to warm up, then repeatedly until `args.seconds` of
/// measurement have elapsed. On a traced run every untraced pass is
/// followed by a traced one; telemetry metrics are reset first, so the
/// registry afterwards holds the traced passes' totals.
pub fn measure<P>(args: &Args, mut pass: impl FnMut() -> P) -> Passes<P> {
    let warmup = pass();
    let peak_rss_mb = peak_rss_mb();
    codesign_telemetry::reset();
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        untraced.push(pass());
        if args.trace {
            codesign_telemetry::set_enabled(true);
            traced.push(pass());
            codesign_telemetry::set_enabled(false);
            // Spans are not read; drop them so memory stays flat.
            drop(codesign_telemetry::drain_spans());
        }
    }
    Passes {
        warmup,
        peak_rss_mb,
        untraced,
        traced,
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` with telemetry off, then restores it: the benchmark's own
/// bookkeeping must not count toward the traced layers.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = codesign_telemetry::enabled();
    codesign_telemetry::set_enabled(false);
    let value = f();
    codesign_telemetry::set_enabled(was);
    value
}

/// Total of a µs histogram, in seconds (0 if it never recorded).
pub fn hist_s(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

/// Value of a counter (0 if it never recorded).
pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).map_or(0.0, |c| c as f64)
}
