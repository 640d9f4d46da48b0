//! Fig. 4 — Pareto-optimal points in the codesign search space.
//!
//! Enumerates `CNN database × 8640 accelerators` exactly and extracts the 3-D
//! Pareto front over (area, latency, accuracy): the front on the
//! Unconstrained preset's axes `(−area, −lat, acc)`. The CNN universe is the
//! *complete* set of cells with up to `--max-vertices` vertices, 5 by default
//! (exact consistency with the Fig. 5/6 search experiments); the paper's
//! 423,624-cell census is `--max-vertices 7` — expect a long run.
//!
//! Run: `cargo run --release -p codesign-bench --bin fig4_pareto`
//! Args: `[--max-vertices 5] [--threads T]`

use std::collections::HashSet;

use codesign_accel::ConfigSpace;
use codesign_bench::{out_dir, Args};
use codesign_core::report::{fmt_f, write_csv, TextTable};
use codesign_core::{enumerate_scenario_front, ScenarioSpec};
use codesign_nasbench::NasbenchDatabase;

fn main() {
    let args = Args::parse("--max-vertices V, --threads T");
    let threads = args.get_usize("threads", 0);
    let max_v = args.max_vertices(5);
    println!("building exhaustive database of all cells with <= {max_v} vertices...");
    let db = NasbenchDatabase::exhaustive(max_v);
    println!("database: {} unique cells", db.len());

    let start = std::time::Instant::now();
    let scenario = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &scenario, threads);
    let elapsed = start.elapsed();
    let total_pairs = db.len() as u64 * ConfigSpace::chaidnn().len() as u64;
    // Natural units of one member: (latency ms, accuracy, area mm²).
    let points: Vec<(f64, f64, f64)> = front.iter().map(|(m, _)| (-m[1], m[2], -m[0])).collect();

    println!(
        "\nenumerated {total_pairs} model-accelerator pairs in {:.1}s",
        elapsed.as_secs_f64()
    );
    println!(
        "Pareto-optimal points: {} ({:.6}% of the space; paper: 3096 of 3.7B, <0.0001%)",
        front.len(),
        front.len() as f64 / total_pairs.max(1) as f64 * 100.0
    );
    let cells: HashSet<usize> = front.iter().map(|(_, (cell, _))| *cell).collect();
    let accels: HashSet<_> = front.iter().map(|(_, (_, config))| *config).collect();
    println!(
        "front diversity: {} distinct CNN cells (paper: 136), {} distinct accelerators (paper: 338)",
        cells.len(),
        accels.len()
    );

    // Terminal rendering of the frontier: accuracy/area stats by latency band.
    let mut bands = TextTable::new(vec![
        "Latency band [ms]",
        "points",
        "acc min",
        "acc max",
        "area min",
        "area max",
    ]);
    let edges = [
        0.0,
        25.0,
        50.0,
        100.0,
        150.0,
        200.0,
        300.0,
        400.0,
        f64::INFINITY,
    ];
    for w in edges.windows(2) {
        let pts: Vec<_> = points
            .iter()
            .filter(|(lat, _, _)| *lat >= w[0] && *lat < w[1])
            .collect();
        if pts.is_empty() {
            continue;
        }
        let acc_min = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let acc_max = pts.iter().map(|p| p.1).fold(0.0, f64::max);
        let ar_min = pts.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
        let ar_max = pts.iter().map(|p| p.2).fold(0.0, f64::max);
        bands.add_row(vec![
            format!("{:.0}..{:.0}", w[0], w[1]),
            pts.len().to_string(),
            fmt_f(acc_min * 100.0, 2),
            fmt_f(acc_max * 100.0, 2),
            fmt_f(ar_min, 0),
            fmt_f(ar_max, 0),
        ]);
    }
    println!("\nFig. 4 frontier by latency band:\n{bands}");

    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(front.iter())
        .map(|((lat, acc, area), (_, (cell_index, config)))| {
            vec![
                fmt_f(*lat, 4),
                fmt_f(*acc, 6),
                fmt_f(*area, 3),
                cell_index.to_string(),
                config.summary(),
            ]
        })
        .collect();
    let path = out_dir().join("fig4_pareto.csv");
    write_csv(
        &path,
        &["latency_ms", "accuracy", "area_mm2", "cell_index", "config"],
        &rows,
    )
    .expect("write fig4 csv");
    println!("frontier written to {}", path.display());
}
