//! Fig. 7 — CIFAR-100 codesign: top-10 points per perf/area threshold,
//! compared to the ResNet and GoogLeNet cells on their best accelerators.
//!
//! Runs the full §IV flow by default (thresholds 2/8/16/30/40 img/s/cm²,
//! ~2300 valid points, simulated training with GPU-hour accounting); pass
//! `--quick` for a miniature run. With `--repeats R` the flow runs for R
//! seeds fanned across worker threads, all sharing one engine evaluation
//! cache — a cell "trained" by any repeat is free for the others, so the
//! campaign's total simulated GPU-hours grow sublinearly in R (the old
//! behavior was a sequential copy of the whole loop per seed). The repeat
//! whose best point has the highest accuracy is reported in detail.
//!
//! Run: `cargo run --release -p codesign-bench --bin fig7_cifar100`
//! Args: `[--quick] [--seed S] [--repeats R] [--workers W]`

use std::sync::{Arc, Mutex};

use codesign_accel::AcceleratorConfig;
use codesign_bench::{out_dir, Args};
use codesign_core::report::{fmt_f, write_csv, TextTable};
use codesign_core::{
    run_cifar100_codesign_with_evaluator, table2_baselines, Cifar100Config, Cifar100Result,
    Evaluator, PairEvaluation,
};
use codesign_engine::SharedEvalCache;
use codesign_nasbench::Dataset;

fn main() {
    let args = Args::parse("--quick, --seed S, --repeats R, --workers W");
    let seed = args.get_u64("seed", 0);
    let repeats = args.get_usize_in("repeats", 1, 1..) as u64;
    let workers = {
        let w = args.get_usize("workers", 0);
        if w == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            w
        }
    };
    let make_config = |seed: u64| {
        if args.flag("quick") {
            Cifar100Config::quick(seed)
        } else {
            Cifar100Config {
                seed,
                ..Cifar100Config::default()
            }
        }
    };

    println!(
        "running Codesign-NAS on CIFAR-100 (combined strategy, rising thresholds, \
         {repeats} seed(s) on {workers} worker(s))..."
    );
    let start = std::time::Instant::now();
    let cache = Arc::new(SharedEvalCache::new());
    let results: Mutex<Vec<(u64, Cifar100Result)>> = Mutex::new(Vec::new());
    let seeds: Vec<u64> = (seed..seed + repeats).collect();
    std::thread::scope(|scope| {
        for chunk in seeds.chunks(repeats.div_ceil(workers as u64) as usize) {
            let cache = Arc::clone(&cache);
            let results = &results;
            let make_config = &make_config;
            scope.spawn(move || {
                for &s in chunk {
                    let mut evaluator = Evaluator::with_trainer(Dataset::Cifar100)
                        .with_shared_cache(Arc::clone(&cache) as _);
                    let result =
                        run_cifar100_codesign_with_evaluator(&make_config(s), &mut evaluator);
                    results.lock().expect("results poisoned").push((s, result));
                }
            });
        }
    });
    let mut runs = results.into_inner().expect("results poisoned");
    runs.sort_by_key(|(s, _)| *s);
    let total_gpu_hours: f64 = runs.iter().map(|(_, r)| r.gpu_hours).sum();
    for (s, r) in &runs {
        println!(
            "  seed {s}: {} steps, {} valid points, {} models trained, {:.0} GPU-hours",
            r.total_steps, r.total_valid_points, r.models_trained, r.gpu_hours
        );
    }
    if repeats > 1 {
        println!("shared cache across repeats: {}", cache.stats());
    }

    // Report the repeat whose best discovered point is the most accurate.
    let best_accuracy = |r: &Cifar100Result| {
        r.stages
            .iter()
            .flat_map(|s| s.top_points.iter().map(|p| p.evaluation.accuracy))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (best_seed, result) = runs
        .into_iter()
        .max_by(|(_, a), (_, b)| {
            best_accuracy(a)
                .partial_cmp(&best_accuracy(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one repeat");
    println!(
        "done in {:.1}s: best repeat seed {}; campaign total {:.0} simulated GPU-hours (paper: ~1000 per run)\n",
        start.elapsed().as_secs_f64(),
        best_seed,
        total_gpu_hours
    );

    let baselines = table2_baselines();
    println!("baselines (cells on their best perf/area accelerators):");
    for b in &baselines {
        let e = &b.evaluation;
        println!(
            "  {:<15} acc {:.1}%  perf/area {:.1} img/s/cm2  lat {:.1} ms  area {:.0} mm2",
            b.name,
            e.accuracy * 100.0,
            e.perf_per_area(),
            e.latency_ms,
            e.area_mm2
        );
    }

    let mut table = TextTable::new(vec![
        "threshold",
        "steps",
        "valid",
        "best acc [%]",
        "best perf/area",
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for stage in &result.stages {
        let best_acc = stage
            .top_points
            .first()
            .map_or(f64::NAN, |p| p.evaluation.accuracy * 100.0);
        let best_ppa = stage
            .top_points
            .iter()
            .map(|p| p.evaluation.perf_per_area())
            .fold(f64::NAN, f64::max);
        table.add_row(vec![
            format!("{:.0}", stage.threshold),
            stage.steps.to_string(),
            stage.valid_points.to_string(),
            fmt_f(best_acc, 2),
            fmt_f(best_ppa, 1),
        ]);
        for p in &stage.top_points {
            csv_rows.push(csv_row(
                format!("{:.0}", stage.threshold),
                &p.evaluation,
                &p.config,
            ));
        }
    }
    println!("\nFig. 7 series (top-10 per threshold):\n{table}");

    let resnet = &baselines[0].evaluation;
    let googlenet = &baselines[1].evaluation;
    match result.best_against(&baselines[0]).map(|p| &p.evaluation) {
        Some(cod1) => println!(
            "Cod-1 (beats ResNet on both axes): acc {:.1}% ({:+.1}%), perf/area {:.1} ({:+.0}%)",
            cod1.accuracy * 100.0,
            (cod1.accuracy - resnet.accuracy) * 100.0,
            cod1.perf_per_area(),
            (cod1.perf_per_area() / resnet.perf_per_area() - 1.0) * 100.0
        ),
        None => println!("no visited point beat the ResNet baseline on both axes"),
    }
    match result
        .most_efficient_against(&baselines[1])
        .map(|p| &p.evaluation)
    {
        Some(cod2) => println!(
            "Cod-2 (beats GoogLeNet on both axes): acc {:.1}% ({:+.1}%), perf/area {:.1} ({:+.1}%)",
            cod2.accuracy * 100.0,
            (cod2.accuracy - googlenet.accuracy) * 100.0,
            cod2.perf_per_area(),
            (cod2.perf_per_area() / googlenet.perf_per_area() - 1.0) * 100.0
        ),
        None => println!("no visited point beat the GoogLeNet baseline on both axes"),
    }

    for b in &baselines {
        csv_rows.push(csv_row(b.name.clone(), &b.evaluation, &b.config));
    }
    let path = out_dir().join("fig7_cifar100.csv");
    write_csv(
        &path,
        &[
            "series",
            "perf_per_area",
            "accuracy",
            "latency_ms",
            "area_mm2",
            "config",
        ],
        &csv_rows,
    )
    .expect("write fig7 csv");
    println!("\nscatter written to {}", path.display());
}

/// One scatter row: the series label, then the pair's metrics and config.
fn csv_row(series: String, e: &PairEvaluation, config: &AcceleratorConfig) -> Vec<String> {
    vec![
        series,
        fmt_f(e.perf_per_area(), 4),
        fmt_f(e.accuracy, 6),
        fmt_f(e.latency_ms, 3),
        fmt_f(e.area_mm2, 2),
        config.summary(),
    ]
}
