//! Quality ablations for the reproduction's documented design choices:
//!
//! 1. LSTM controller vs. uniform random search at equal step budgets;
//! 2. punishment function `Rv` on vs. off (constraint-satisfaction rate);
//! 3. gradual threshold schedule vs. jumping straight to the final
//!    threshold in the §IV flow;
//! 4. greedy multi-engine scheduling vs. serial single-queue execution.
//!
//! Run: `cargo run --release -p codesign-bench --bin ablations`
//! Args: `[--steps N] [--repeats R]`

use codesign_accel::{schedule_serial, ConfigSpace, Scheduler};
use codesign_bench::Args;
use codesign_core::report::{fmt_f, TextTable};
use codesign_core::{
    run_cifar100_codesign, Cifar100Config, CodesignSpace, CombinedSearch, Evaluator, RandomSearch,
    ScenarioSpec, SearchConfig, SearchContext, SearchStrategy, ThresholdSchedule,
};
use codesign_nasbench::{known_cells, Dataset, NasbenchDatabase, Network};

fn main() {
    let args = Args::parse("--steps N, --repeats R, --seed S");
    let steps = args.get_usize_in("steps", 1000, 1..);
    let repeats = args.get_usize_in("repeats", 3, 1..);

    controller_vs_random(steps, repeats);
    punishment_ablation(steps, repeats);
    schedule_ablation();
    threshold_schedule_ablation(args.get_u64("seed", 0));
}

fn run(
    strategy: &dyn SearchStrategy,
    scenario: &ScenarioSpec,
    db: &std::sync::Arc<NasbenchDatabase>,
    steps: usize,
    seed: u64,
) -> codesign_core::SearchOutcome {
    let space = CodesignSpace::with_max_vertices(5);
    let mut evaluator = Evaluator::with_shared_database(std::sync::Arc::clone(db));
    let reward = scenario.compile();
    let mut ctx = SearchContext {
        space: &space,
        evaluator: &mut evaluator,
        reward: &reward,
    };
    strategy.run(&mut ctx, &SearchConfig::quick(steps, seed))
}

fn controller_vs_random(steps: usize, repeats: usize) {
    println!("=== Ablation 1: LSTM controller vs random search ({steps} steps) ===");
    let db = std::sync::Arc::new(NasbenchDatabase::exhaustive(5));
    let mut table = TextTable::new(vec![
        "scenario",
        "combined best R",
        "random best R",
        "advantage",
        "front (axes)",
    ]);
    // Beyond the presets, a power-capped scenario — its visited front is
    // reported in its *own* axes.
    let mut scenarios = ScenarioSpec::paper_presets();
    scenarios.push(
        ScenarioSpec::parse_compact("name=power-capped; power<6; w=acc:1")
            .expect("static scenario"),
    );
    for scenario in scenarios {
        let mut combined = 0.0;
        let mut random = 0.0;
        let mut front_points = 0usize;
        let mut axes = String::new();
        for seed in 0..repeats as u64 {
            let out = run(&CombinedSearch, &scenario, &db, steps, seed);
            combined += out.best.as_ref().map_or(0.0, |b| b.reward);
            front_points += out.front.len();
            axes = out.front.schema().to_string();
            random += run(&RandomSearch, &scenario, &db, steps, seed)
                .best
                .map_or(0.0, |b| b.reward);
        }
        combined /= repeats as f64;
        random /= repeats as f64;
        table.add_row(vec![
            scenario.name().into(),
            fmt_f(combined, 4),
            fmt_f(random, 4),
            fmt_f(combined - random, 4),
            format!("{} ({axes})", front_points / repeats),
        ]);
    }
    println!("{table}");
}

fn punishment_ablation(steps: usize, repeats: usize) {
    println!("=== Ablation 2: punishment Rv vs zero reward for violations ===");
    // With Rv, the controller is steered away from infeasible regions; the
    // measured effect is the feasible-step rate under the 2-constraint
    // scenario.
    let db = std::sync::Arc::new(NasbenchDatabase::exhaustive(5));
    let mut with_rv = 0.0;
    for seed in 0..repeats as u64 {
        let out = run(
            &CombinedSearch,
            &ScenarioSpec::two_constraints(),
            &db,
            steps,
            seed,
        );
        with_rv += out.feasible_rate();
    }
    with_rv /= repeats as f64;
    println!("feasible-step rate with scaled-violation Rv: {with_rv:.3}");
    println!("(compare against Punishment::Constant via codesign_moo::Punishment in tests)\n");
}

fn schedule_ablation() {
    println!("=== Ablation 3: greedy multi-engine scheduler vs serial execution ===");
    let space = ConfigSpace::chaidnn();
    let mut table = TextTable::new(vec![
        "cell",
        "config",
        "greedy [ms]",
        "serial [ms]",
        "speedup",
    ]);
    for (name, cell) in known_cells::all_named() {
        let network = Network::assemble(&cell, Dataset::Cifar10);
        for idx in [8639, 5000] {
            let config = space.get(idx);
            let greedy = Scheduler::new(config).network_latency_ms(&network);
            let serial = schedule_serial(&config, &network);
            table.add_row(vec![
                name.into(),
                config.ratio_conv_engines.to_string(),
                fmt_f(greedy, 2),
                fmt_f(serial, 2),
                fmt_f(serial / greedy, 3),
            ]);
        }
    }
    println!("{table}");
}

fn threshold_schedule_ablation(seed: u64) {
    println!("=== Ablation 4: gradual threshold schedule vs fixed final threshold ===");
    let gradual = Cifar100Config {
        schedule: ThresholdSchedule {
            stages: vec![(2.0, 60), (16.0, 60), (40.0, 120)],
        },
        seed,
        max_steps_per_stage: 4000,
    };
    let fixed = Cifar100Config {
        schedule: ThresholdSchedule {
            stages: vec![(40.0, 240)],
        },
        seed,
        max_steps_per_stage: 12_000,
    };
    let g = run_cifar100_codesign(&gradual);
    let f = run_cifar100_codesign(&fixed);
    let best_acc = |r: &codesign_core::Cifar100Result| {
        r.all_top_points()
            .iter()
            .map(|p| &p.evaluation)
            .filter(|e| e.perf_per_area() >= 40.0)
            .map(|e| e.accuracy)
            .fold(f64::NAN, f64::max)
    };
    println!(
        "gradual: best acc @th40 {:.2}% in {} steps ({} models trained)",
        best_acc(&g) * 100.0,
        g.total_steps,
        g.models_trained
    );
    println!(
        "fixed:   best acc @th40 {:.2}% in {} steps ({} models trained)",
        best_acc(&f) * 100.0,
        f.total_steps,
        f.models_trained
    );
    println!("(the paper found the gradual increase 'makes it easier for the RL controller')");
}
