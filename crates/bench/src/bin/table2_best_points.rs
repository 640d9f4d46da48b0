//! Table II — best points found by Codesign-NAS compared to the ResNet and
//! GoogLeNet cells on their best accelerators.
//!
//! Re-runs the §IV flow (deterministic for a fixed seed) and prints the
//! paper's table: accuracy, perf/area, latency and area with relative deltas
//! against the matched baseline.
//!
//! Run: `cargo run --release -p codesign-bench --bin table2_best_points`
//! Args: `[--quick] [--seed S]`

use codesign_bench::Args;
use codesign_core::report::{fmt_f, TextTable};
use codesign_core::{
    run_cifar100_codesign, table2_baselines, BaselineRow, Cifar100Config, DiscoveredPoint,
};

fn main() {
    let args = Args::parse("--quick, --seed S");
    let seed = args.get_u64("seed", 0);
    let config = if args.flag("quick") {
        Cifar100Config::quick(seed)
    } else {
        Cifar100Config {
            seed,
            ..Cifar100Config::default()
        }
    };
    println!("running the CIFAR-100 codesign flow (seed {seed})...");
    let result = run_cifar100_codesign(&config);
    let baselines = table2_baselines();
    let resnet = &baselines[0];
    let googlenet = &baselines[1];
    let cod1 = result.best_against(resnet);
    let cod2 = result.most_efficient_against(googlenet);

    println!("\nTable II: Best points found by Codesign-NAS vs baselines\n");
    let mut table = TextTable::new(vec![
        "CNN",
        "Accuracy [%]",
        "Perf/Area [img/s/cm2]",
        "Latency [ms]",
        "Area [mm2]",
    ]);
    add_baseline(&mut table, resnet);
    add_discovered(&mut table, "Cod-1", cod1, resnet);
    add_baseline(&mut table, googlenet);
    add_discovered(&mut table, "Cod-2", cod2, googlenet);
    println!("{table}");
    println!(
        "(paper: Cod-1 beats ResNet by +1.3% accuracy and +41% perf/area; Cod-2 edges \
         GoogLeNet by +0.5% accuracy and +3.3% perf/area)"
    );
}

fn add_baseline(table: &mut TextTable, row: &BaselineRow) {
    let e = &row.evaluation;
    table.add_row(vec![
        row.name.clone(),
        fmt_f(e.accuracy * 100.0, 1),
        fmt_f(e.perf_per_area(), 1),
        fmt_f(e.latency_ms, 1),
        fmt_f(e.area_mm2, 0),
    ]);
}

fn add_discovered(
    table: &mut TextTable,
    name: &str,
    point: Option<&DiscoveredPoint>,
    baseline: &BaselineRow,
) {
    let baseline = &baseline.evaluation;
    match point.map(|p| &p.evaluation) {
        Some(p) => {
            let d_acc = (p.accuracy - baseline.accuracy) * 100.0;
            let d_ppa = (p.perf_per_area() / baseline.perf_per_area() - 1.0) * 100.0;
            let d_lat = (p.latency_ms / baseline.latency_ms - 1.0) * 100.0;
            let d_area = (p.area_mm2 / baseline.area_mm2 - 1.0) * 100.0;
            table.add_row(vec![
                name.into(),
                format!("{:.1} ({:+.1}%)", p.accuracy * 100.0, d_acc),
                format!("{:.1} ({:+.0}%)", p.perf_per_area(), d_ppa),
                format!("{:.1} ({:+.1}%)", p.latency_ms, d_lat),
                format!("{:.0} ({:+.0}%)", p.area_mm2, d_area),
            ]);
        }
        None => {
            table.add_row(vec![
                name.into(),
                "not found".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
}
