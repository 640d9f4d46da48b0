//! Fig. 6 — reward vs. search step for the separate / combined / phase
//! strategies under each scenario, averaged over repeats.
//!
//! As in the paper, only the reward function R is plotted: punished steps do
//! not contribute (the curve carries the trailing feasible-reward mean).
//!
//! The whole scenario × strategy × repeat grid executes as one sharded
//! campaign with `record_histories` on — strategies and repeats run in
//! parallel and share one evaluation cache — and the curves are
//! `CampaignReport::average_reward_curve` over the retained per-shard
//! histories.
//!
//! Run: `cargo run --release -p codesign-bench --bin fig6_reward`
//! Args: `[--steps N] [--repeats R] [--window W] [--max-vertices V]`
//!       `[--workers W] [--seed S]`

use std::sync::Arc;

use codesign_bench::{downsample, out_dir, Args};
use codesign_core::report::{fmt_f, write_csv, TextTable};
use codesign_core::{CodesignSpace, ScenarioSpec};
use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
use codesign_nasbench::NasbenchDatabase;

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Separate,
    StrategyKind::Combined,
    StrategyKind::Phase,
];

fn main() {
    let args =
        Args::parse("--steps N, --repeats R, --window W, --max-vertices V, --workers W, --seed S");
    let steps = args.get_usize_in("steps", 2000, 1..);
    let repeats = args.get_usize_in("repeats", 5, 1..);
    let window = args.get_usize_in("window", 100, 1..);
    let max_v = args.max_vertices(5);
    let seed_base = args.get_u64("seed", 0);

    println!("building exhaustive <= {max_v}-vertex database...");
    let db = Arc::new(NasbenchDatabase::exhaustive(max_v));
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(max_v))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(STRATEGIES.to_vec())
        .seeds((seed_base..seed_base + repeats as u64).collect())
        .steps(steps)
        .record_histories(true);
    let report = ShardedDriver::new(args.get_usize("workers", 0)).run(&campaign, &db);
    if let Some(stats) = &report.cache {
        println!("shared cache: {stats}\n");
    }

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for scenario in ScenarioSpec::paper_presets() {
        println!(
            "=== Fig. 6: {} (mean of {} runs, window {}) ===",
            scenario.name(),
            repeats,
            window
        );
        let mut table = TextTable::new(vec!["step", "separate", "combined", "phase"]);
        let curves: Vec<(&str, Vec<f64>)> = STRATEGIES
            .iter()
            .map(|&strategy| {
                (
                    strategy.name(),
                    report
                        .average_reward_curve(scenario.name(), strategy, window)
                        .expect("histories recorded for every shard"),
                )
            })
            .collect();
        let len = curves.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
        let probe = downsample(&(0..len).map(|i| i as f64).collect::<Vec<_>>(), 15);
        for (i, _) in probe {
            let mut row = vec![i.to_string()];
            for (_, curve) in &curves {
                row.push(fmt_f(curve[i], 4));
            }
            table.add_row(row);
        }
        println!("{table}");
        for (name, curve) in &curves {
            for (i, v) in curve.iter().enumerate() {
                csv_rows.push(vec![
                    scenario.name().into(),
                    (*name).into(),
                    i.to_string(),
                    fmt_f(*v, 6),
                ]);
            }
        }
        // Paper's qualitative claims, printed for quick inspection.
        let final_of = |name: &str| {
            curves
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, c)| c.last().copied())
                .unwrap_or(f64::NAN)
        };
        println!(
            "final rewards: separate {:.4}, combined {:.4}, phase {:.4}\n",
            final_of("separate"),
            final_of("combined"),
            final_of("phase")
        );
    }
    let path = out_dir().join("fig6_reward_curves.csv");
    write_csv(
        &path,
        &["scenario", "strategy", "step", "reward"],
        &csv_rows,
    )
    .expect("write fig6 csv");
    println!("curves written to {}", path.display());
}
