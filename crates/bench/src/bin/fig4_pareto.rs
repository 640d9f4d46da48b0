//! Fig. 4 — Pareto-optimal points in the codesign search space.
//!
//! Enumerates `CNN database × 8640 accelerators` exactly and extracts the 3-D
//! Pareto front over (area, latency, accuracy). By default the CNN universe
//! is the *complete* set of cells with up to 5 vertices (exact consistency
//! with the Fig. 5/6 search experiments); pass `--cells N` to use an
//! N-cell sampled database over the full 7-vertex space instead (the paper's
//! 423k-cell census is `--cells 423000` — expect a long run).
//!
//! Run: `cargo run --release -p codesign-bench --bin fig4_pareto`
//! Args: `--max-vertices 5 | --cells N [--seed S] [--threads T]`

use codesign_bench::{out_dir, Args};
use codesign_core::enumerate_codesign_space;
use codesign_core::report::{fmt_f, write_csv, TextTable};
use codesign_nasbench::{Dataset, NasbenchDatabase};

fn main() {
    let args = Args::parse("--max-vertices V, --cells N, --seed S, --threads T");
    let threads = args.get_usize("threads", 0);
    let db = if let Some(cells) = args_cells(&args) {
        println!("building sampled database of {cells} unique 7-vertex-space cells...");
        NasbenchDatabase::build(cells, args.get_u64("seed", 2020))
    } else {
        let max_v = args.get_usize("max-vertices", 5);
        println!("building exhaustive database of all cells with <= {max_v} vertices...");
        NasbenchDatabase::exhaustive(max_v)
    };
    println!("database: {} unique cells", db.len());

    let start = std::time::Instant::now();
    let result = enumerate_codesign_space(&db, Dataset::Cifar10, threads);
    let elapsed = start.elapsed();

    println!(
        "\nenumerated {} model-accelerator pairs in {:.1}s",
        result.total_pairs,
        elapsed.as_secs_f64()
    );
    println!(
        "Pareto-optimal points: {} ({:.6}% of the space; paper: 3096 of 3.7B, <0.0001%)",
        result.front.len(),
        result.front_fraction() * 100.0
    );
    println!(
        "front diversity: {} distinct CNN cells (paper: 136), {} distinct accelerators (paper: 338)",
        result.distinct_front_cells, result.distinct_front_accels
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
        let pts: Vec<_> = result
            .front
            .iter()
            .filter(|p| p.latency_ms() >= w[0] && p.latency_ms() < w[1])
            .collect();
        if pts.is_empty() {
            continue;
        }
        let acc_min = pts
            .iter()
            .map(|p| p.accuracy())
            .fold(f64::INFINITY, f64::min);
        let acc_max = pts.iter().map(|p| p.accuracy()).fold(0.0, f64::max);
        let ar_min = pts
            .iter()
            .map(|p| p.area_mm2())
            .fold(f64::INFINITY, f64::min);
        let ar_max = pts.iter().map(|p| p.area_mm2()).fold(0.0, f64::max);
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

    let rows: Vec<Vec<String>> = result
        .front
        .iter()
        .map(|p| {
            vec![
                fmt_f(p.latency_ms(), 4),
                fmt_f(p.accuracy(), 6),
                fmt_f(p.area_mm2(), 3),
                p.cell_index.to_string(),
                p.config.summary(),
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

fn args_cells(args: &Args) -> Option<usize> {
    let cells = args.get_usize("cells", 0);
    (cells > 0).then_some(cells)
}
