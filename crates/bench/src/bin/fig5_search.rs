//! Fig. 5 — top search results vs. the top-100 Pareto-optimal points, for the
//! three §III-C scenarios.
//!
//! For each scenario, the separate / combined / phase strategies run
//! `--repeats` times for `--steps` steps each over the exhaustively
//! enumerable ≤5-vertex CNN space (the same space Fig. 4 enumerates, so the
//! reference Pareto points are exact). The whole grid executes as one
//! sharded campaign on the engine — strategies and repeats run in parallel
//! and share one evaluation cache. The three presets share the
//! Unconstrained axes, so one enumerated front serves all three reference
//! sets. Paper scale is `--steps 10000 --repeats 10`.
//!
//! Run: `cargo run --release -p codesign-bench --bin fig5_search`
//! Args: `[--steps N] [--repeats R] [--max-vertices V] [--scenario 0|1|2]`
//!       `[--workers W] [--seed S]`

use std::sync::Arc;

use codesign_accel::ConfigSpace;
use codesign_bench::{out_dir, Args};
use codesign_core::report::{fmt_f, write_csv, TextTable};
use codesign_core::{enumerate_scenario_front, top_pareto_points, CodesignSpace, ScenarioSpec};
use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
use codesign_nasbench::NasbenchDatabase;

fn main() {
    let args = Args::parse(
        "--steps N, --repeats R, --max-vertices V, --scenario INDEX, --workers W, --seed S",
    );
    let steps = args.get_usize_in("steps", 2000, 1..);
    let repeats = args.get_usize_in("repeats", 5, 1..);
    let max_v = args.max_vertices(5);
    let presets = ScenarioSpec::paper_presets();
    let scenario_filter = args
        .value("scenario")
        .map(|_| args.get_usize_in("scenario", 0, 0..presets.len()));
    let seed_base = args.get_u64("seed", 0);

    println!("building exhaustive <= {max_v}-vertex database...");
    let db = Arc::new(NasbenchDatabase::exhaustive(max_v));
    let space = CodesignSpace::with_max_vertices(max_v);
    println!(
        "database: {} cells; enumerating the exact Pareto front...",
        db.len()
    );
    let unconstrained = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &unconstrained, 0);
    println!(
        "front: {} points over {} pairs\n",
        front.len(),
        db.len() * ConfigSpace::chaidnn().len()
    );

    let scenarios: Vec<ScenarioSpec> = presets
        .iter()
        .enumerate()
        .filter(|(i, _)| scenario_filter.is_none_or(|s| s == *i))
        .map(|(_, s)| s.clone())
        .collect();
    let campaign = Campaign::new(space)
        .scenarios(scenarios.clone())
        .strategies(vec![
            StrategyKind::Separate,
            StrategyKind::Combined,
            StrategyKind::Phase,
        ])
        .seeds((seed_base..seed_base + repeats as u64).collect())
        .steps(steps);
    let report = ShardedDriver::new(args.get_usize("workers", 0)).run(&campaign, &db);
    if let Some(stats) = &report.cache {
        println!("shared cache: {stats}\n");
    }

    for (idx, scenario) in presets.into_iter().enumerate() {
        if !scenarios.contains(&scenario) {
            continue;
        }
        println!(
            "=== Fig. 5{}: {} ===",
            (b'a' + idx as u8) as char,
            scenario.name()
        );
        // Members on the Unconstrained axes `(-area, -lat, acc)`.
        let reference = top_pareto_points(&scenario, &front, 100);
        if let (Some((first, _)), Some((last, _))) = (reference.first(), reference.last()) {
            println!(
                "top-100 Pareto reward points: lat {:.1}..{:.1} ms, acc {:.2}..{:.2}%",
                -first[1],
                -last[1],
                reference
                    .iter()
                    .map(|(m, _)| m[2])
                    .fold(f64::INFINITY, f64::min)
                    * 100.0,
                reference.iter().map(|(m, _)| m[2]).fold(0.0, f64::max) * 100.0
            );
        }
        let spec = scenario.compile();
        let mut table = TextTable::new(vec![
            "strategy",
            "runs",
            "feasible",
            "best lat [ms]",
            "best acc [%]",
            "best area [mm2]",
            "best reward",
        ]);
        let mut csv_rows: Vec<Vec<String>> = Vec::new();
        for &strategy in &campaign.strategies {
            let runs: Vec<_> = report
                .shards
                .iter()
                .filter(|s| {
                    s.spec.scenario_name() == scenario.name() && s.spec.strategy == strategy
                })
                .collect();
            let bests: Vec<_> = runs.iter().filter_map(|s| s.best.as_ref()).collect();
            let best = bests.iter().max_by(|a, b| a.reward.total_cmp(&b.reward));
            let (lat, acc, area, reward) = match best {
                Some(b) => {
                    let e = &b.evaluation;
                    (e.latency_ms, e.accuracy * 100.0, e.area_mm2, b.reward)
                }
                None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
            };
            table.add_row(vec![
                strategy.name().into(),
                runs.len().to_string(),
                bests.len().to_string(),
                fmt_f(lat, 1),
                fmt_f(acc, 2),
                fmt_f(area, 0),
                fmt_f(reward, 4),
            ]);
            for b in &bests {
                csv_rows.push(vec![
                    scenario.name().into(),
                    strategy.name().into(),
                    fmt_f(b.evaluation.latency_ms, 4),
                    fmt_f(b.evaluation.accuracy, 6),
                    fmt_f(b.evaluation.area_mm2, 3),
                ]);
            }
        }
        println!("{table}");
        // The campaign's merged front for this scenario, in the scenario's
        // own metric axes (runtime-dimension — whatever the scenario
        // declares), scored as one scalar against the normalization box.
        let merged = report.merged_front(scenario.name());
        let hv_reference = spec.hypervolume_reference();
        println!(
            "merged search front: {} points over axes [{}]; hypervolume {:.4}",
            merged.len(),
            merged.schema(),
            merged.hypervolume(&hv_reference)
        );
        for (m, _) in reference {
            csv_rows.push(vec![
                scenario.name().into(),
                "pareto".into(),
                fmt_f(-m[1], 4),
                fmt_f(m[2], 6),
                fmt_f(-m[0], 3),
            ]);
        }
        let path = out_dir().join(format!("fig5_{}.csv", idx));
        write_csv(
            &path,
            &["scenario", "series", "latency_ms", "accuracy", "area_mm2"],
            &csv_rows,
        )
        .expect("write fig5 csv");
        println!("series written to {}\n", path.display());
    }
}
