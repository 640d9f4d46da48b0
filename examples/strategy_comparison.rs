//! Compare the paper's three search strategies (§III-B) head-to-head on the
//! 1-constraint scenario (`latency < 100 ms`), plus the random-search
//! ablation and the two population extensions (aging evolution and NSGA-II),
//! on a fully enumerable space.
//!
//! Beyond the best-reward comparison, every run reports the dominated
//! hypervolume of its visited-points Pareto front against the scenario's
//! reference box — the scalar the NSGA-II strategy actually optimizes. A
//! second pass runs a 2-metric accuracy × power scenario, axes the
//! scalarized paper controllers cannot even express, where NSGA-II's front
//! dominates uniform sampling's.
//!
//! Run: `cargo run --release --example strategy_comparison`

use std::sync::Arc;

use codesign_nas::core::{
    CodesignSpace, CombinedSearch, Evaluator, EvolutionSearch, MetricId, NsgaSearch, PhaseSearch,
    RandomSearch, RewardShaping, ScenarioSpec, SearchConfig, SearchContext, SearchOutcome,
    SearchStrategy, SeparateSearch, SurrogateConfig,
};
use codesign_nas::nasbench::NasbenchDatabase;

fn run(
    strategy: &dyn SearchStrategy,
    scenario: &ScenarioSpec,
    db: &Arc<NasbenchDatabase>,
    space: &CodesignSpace,
    steps: usize,
) -> SearchOutcome {
    let mut evaluator = Evaluator::with_shared_database(Arc::clone(db));
    let reward = scenario.compile();
    let mut ctx = SearchContext {
        space,
        evaluator: &mut evaluator,
        reward: &reward,
    };
    strategy.run(&mut ctx, &SearchConfig::quick(steps, 7))
}

fn main() {
    let steps = 1500;
    let scenario = ScenarioSpec::one_constraint();
    println!("scenario: {} | {steps} steps per run\n", scenario.name());

    let db = Arc::new(NasbenchDatabase::exhaustive(5));
    let space = CodesignSpace::with_max_vertices(5);
    let reference = scenario.compile().hypervolume_reference();

    let strategies: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(SeparateSearch::scaled(steps)),
        Box::new(CombinedSearch),
        Box::new(PhaseSearch::scaled(steps)),
        Box::new(RandomSearch),
        Box::new(NsgaSearch::default()),
    ];

    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>10} {:>10} {:>7} {:>12}",
        "strategy",
        "feasible",
        "invalid",
        "best reward",
        "lat [ms]",
        "acc [%]",
        "front",
        "front hv"
    );
    for strategy in &strategies {
        let outcome = run(strategy.as_ref(), &scenario, &db, &space, steps);
        let (reward_v, lat, acc) = match &outcome.best {
            Some(b) => (
                b.reward,
                b.evaluation.latency_ms,
                b.evaluation.accuracy * 100.0,
            ),
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        println!(
            "{:<10} {:>9} {:>10} {:>12.4} {:>10.1} {:>10.2} {:>7} {:>12.1}",
            outcome.strategy,
            outcome.feasible_steps,
            outcome.invalid_steps,
            reward_v,
            lat,
            acc,
            outcome.front.len(),
            outcome.front.hypervolume(&reference),
        );
    }

    println!(
        "\nThe paper's observations to look for: separate search optimizes accuracy \
         blindly and meets the constraint only by luck; combined adapts fastest; \
         phase reaches high rewards but needs more steps under constraints. NSGA-II \
         trades best-reward for front coverage: it is the only strategy whose \
         *selection* targets the front hypervolume rather than one scalar."
    );

    // Part 2: a 2-metric accuracy × power front — axes the scalarized
    // controllers cannot target, and the regime NSGA-II exists for.
    let acc_power = ScenarioSpec::builder("acc-power")
        .weight(MetricId::Accuracy, 0.5)
        .weight(MetricId::PowerW, 0.5)
        .build()
        .expect("static spec");
    let reference = acc_power.compile().hypervolume_reference();
    println!(
        "\nscenario: {} (axes acc,power) | {steps} steps per run",
        acc_power.name()
    );
    println!(
        "{:<10} {:>7} {:>12} {:>12}",
        "strategy", "front", "front hv", "hv curve"
    );
    let mut nsga_hv = f64::NAN;
    let mut random_hv = f64::NAN;
    for strategy in [&RandomSearch as &dyn SearchStrategy, &NsgaSearch::default()] {
        let outcome = run(strategy, &acc_power, &db, &space, steps);
        let hv = outcome.front.hypervolume(&reference);
        let curve = if outcome.generations.is_empty() {
            "-".to_owned()
        } else {
            let g = outcome.generations.len() - 1;
            format!(
                "{:.2} -> {:.2} ({g} gens)",
                outcome.generations.first().unwrap().hypervolume,
                outcome.generations.last().unwrap().hypervolume,
            )
        };
        println!(
            "{:<10} {:>7} {:>12.3} {:>12}",
            outcome.strategy,
            outcome.front.len(),
            hv,
            curve
        );
        match outcome.strategy {
            "nsga" => nsga_hv = hv,
            _ => random_hv = hv,
        }
    }
    assert!(
        nsga_hv >= random_hv,
        "NSGA-II's acc x power front (hv {nsga_hv}) must dominate random's (hv {random_hv})"
    );
    println!("\nNSGA-II front hypervolume beats uniform sampling at equal budget.");

    // Part 3: hypervolume-gradient reward shaping, budget-matched. The
    // same REINFORCE controller runs the 1-constraint scenario twice at an
    // identical step budget — once on the plain scalarized reward, once
    // with each step's reward augmented by `weight × ΔHV`, the proposal's
    // marginal hypervolume contribution to the running front (computed by
    // the incremental staircase kernel, not a per-step full recompute).
    let shaped_weight = 0.5;
    let reference = scenario.compile().hypervolume_reference();
    let run_combined = |shaped: bool| {
        let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
        let mut reward = scenario.compile();
        if shaped {
            reward = reward.with_reward_shaping(RewardShaping::HypervolumeGradient {
                weight: shaped_weight,
            });
        }
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        CombinedSearch.run(&mut ctx, &SearchConfig::quick(steps, 7))
    };
    let plain = run_combined(false);
    let shaped = run_combined(true);
    println!(
        "\nreward shaping (combined, {} steps, hv:{shaped_weight}):",
        steps
    );
    for (label, outcome) in [("unshaped", &plain), ("shaped", &shaped)] {
        println!(
            "  {label:<9} front {:>3}  front hv {:>9.1}  hv bonus {:>9.1}  best {:.4}",
            outcome.front.len(),
            outcome.front.hypervolume(&reference),
            outcome.shaping_bonus,
            outcome.best.as_ref().map_or(f64::NAN, |b| b.reward),
        );
    }
    // Shaping is strictly opt-in, and the bonus only flows when active.
    assert_eq!(plain.shaping_bonus, 0.0, "unshaped runs pay no bonus");
    assert!(shaped.shaping_bonus > 0.0, "shaped run collected no bonus");
    // Budget-matched non-inferiority: steering some reward toward front
    // growth must not collapse front quality at the same step count.
    let plain_hv = plain.front.hypervolume(&reference);
    let shaped_hv = shaped.front.hypervolume(&reference);
    assert!(
        shaped_hv >= 0.9 * plain_hv,
        "shaped front hv {shaped_hv} collapsed vs unshaped {plain_hv}"
    );
    println!("\nShaped search holds front quality at an equal budget while paying HV bonuses.");

    // Part 4: surrogate-guided search, budget-matched. Aging evolution runs
    // the 1-constraint paper preset twice at an identical *real-evaluation*
    // budget — once classic, once with predict-then-verify guidance
    // (over-produce 4x candidates, rank by predicted reward, verify only
    // the argmax). The guided run pays the same number of real evaluations;
    // the surrogate only redirects them toward predicted-promising genomes.
    let guided_cfg = SurrogateConfig {
        overproduce: 4,
        retrain: 32,
    };
    let run_evolution = |surrogate: Option<SurrogateConfig>| {
        let strategy = EvolutionSearch { surrogate };
        run(&strategy, &scenario, &db, &space, steps)
    };
    let unguided = run_evolution(None);
    let guided = run_evolution(Some(guided_cfg));
    println!("\nsurrogate guidance (evolution, {steps} real evals, {guided_cfg}):");
    for (label, outcome) in [("unguided", &unguided), ("guided", &guided)] {
        let stats = outcome.surrogate.as_ref();
        println!(
            "  {label:<9} front {:>3}  front hv {:>9.1}  best {:.4}  verify rate {:.3}  pred mae {:.4}",
            outcome.front.len(),
            outcome.front.hypervolume(&reference),
            outcome.best.as_ref().map_or(f64::NAN, |b| b.reward),
            stats.map_or(1.0, |s| s.verify_rate()),
            stats.map_or(f64::NAN, |s| s.pred_mae()),
        );
    }
    // Guidance is strictly opt-in: classic runs carry no surrogate stats,
    // guided runs train and spend strictly fewer real evals per candidate.
    assert!(unguided.surrogate.is_none(), "unguided runs train no guide");
    let stats = guided.surrogate.as_ref().expect("guided run reports stats");
    assert!(stats.train_rounds > 0, "the guide never retrained");
    assert!(
        stats.verify_rate() < 1.0,
        "guided search never over-produced (verify rate {})",
        stats.verify_rate()
    );
    // The acceptance bar: at an equal real-evaluation budget on a paper
    // preset, the guided front must dominate (or match) the unguided one.
    let unguided_hv = unguided.front.hypervolume(&reference);
    let guided_hv = guided.front.hypervolume(&reference);
    assert!(
        guided_hv >= unguided_hv,
        "guided front hv {guided_hv} fell below unguided {unguided_hv} at equal budget"
    );
    println!(
        "\nSurrogate-guided evolution dominates classic evolution at an equal real-eval budget."
    );
}
