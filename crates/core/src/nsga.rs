//! NSGA-II-style true multi-objective search (extension).
//!
//! Every controller in [`crate::strategies`] — and the aging-evolution
//! baseline — optimizes the *scalarized* reward of Eq. 3: the Pareto fronts
//! they report are a by-product of a single-objective search. This module
//! adds the first strategy that optimizes **on the front itself**:
//! selection pressure comes from fast non-dominated sorting
//! ([`codesign_moo::rank_dyn`]) plus crowding distance
//! ([`codesign_moo::crowding_distance_dyn`]) computed over the scenario's
//! own [`codesign_moo::AxisSchema`], à la NSGA-II (Deb et al., 2002) — the
//! standard population-based multi-objective selection used by co-design
//! frameworks like CODEBench (Tuli et al., 2022).
//!
//! The genome, seeding, and mutation operators are shared with
//! [`crate::EvolutionSearch`] (the joint CNN edge/op + accelerator-parameter
//! action sequence); what changes is purely the selection scheme:
//!
//! 1. **Seed** a population of uniform random genomes.
//! 2. Each generation, breed one offspring per population slot: two binary
//!    tournaments on `(rank, crowding)` pick the parents, uniform
//!    crossover mixes their genomes, and the shared mutation operator
//!    perturbs the child.
//! 3. **Environmental selection**: parents ∪ offspring are re-ranked and
//!    truncated back to the population size by `(rank, crowding)`.
//!
//! Feasibility is handled constraint-first (feasible points always rank
//! ahead of valid-but-infeasible ones, which rank ahead of invalid
//! proposals; within the infeasible band the scaled-violation punishment
//! orders candidates), so ε-constrained scenarios steer the population into
//! the feasible region before spreading along its front.
//!
//! Every generation closes with a [`crate::GenerationStat`] snapshot —
//! front size and dominated hypervolume against the scenario's fixed
//! reference box — so an NSGA run carries its hypervolume-over-time curve
//! into campaign reports and JSONL exports.
//!
//! Like every strategy, all randomness comes from the injected per-shard
//! stream and selection is a pure function of the population, so campaigns
//! stay bit-identical at any worker count.

use rand::rngs::SmallRng;
use rand::Rng;

use codesign_moo::{crowding_distance_dyn, rank_dyn, MetricVector};

use crate::evolution::{mutate_genome, random_genome};
use crate::search::{SearchConfig, SearchContext, SearchOutcome, SearchRecorder, SearchStrategy};
use crate::surrogate::{pair_features, SurrogateConfig, SurrogateGuide};

/// Telemetry: wall-clock of NSGA-II selection, µs — each
/// [`selection_keys`] call and each predicted-rank ordering of a guided
/// generation's candidates.
static SELECT_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("nsga.select_us");

/// NSGA-II-style multi-objective search over the joint codesign genome.
///
/// # Examples
///
/// ```
/// use codesign_core::{
///     CodesignSpace, Evaluator, NsgaSearch, ScenarioSpec, SearchConfig, SearchContext,
///     SearchStrategy,
/// };
/// use codesign_nasbench::NasbenchDatabase;
///
/// let space = CodesignSpace::with_max_vertices(4);
/// let mut evaluator = Evaluator::with_database(NasbenchDatabase::exhaustive(4));
/// let reward = ScenarioSpec::unconstrained().compile();
/// let mut ctx = SearchContext {
///     space: &space,
///     evaluator: &mut evaluator,
///     reward: &reward,
/// };
/// let strategy = NsgaSearch {
///     population: 8,
///     surrogate: None,
/// };
/// let outcome = strategy.run(&mut ctx, &SearchConfig::quick(40, 0));
/// assert_eq!(outcome.history.len(), 40);
/// // 8 seeds + 4 generations of 8 offspring = 5 snapshots.
/// assert_eq!(outcome.generations.len(), 5);
/// // The cumulative front's hypervolume never decreases (up to one ulp of
/// // recomputation noise — the front is rebuilt at every snapshot).
/// assert!(outcome
///     .generations
///     .windows(2)
///     .all(|w| w[1].hypervolume >= w[0].hypervolume - 1e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsgaSearch {
    /// Living individuals per generation (also the offspring count).
    /// Mutation resamples as many genome positions as
    /// [`crate::EvolutionSearch`]'s does.
    pub population: usize,
    /// Optional surrogate predict-then-verify guidance: once the guide is
    /// trained, each generation over-produces `k × offspring` candidates
    /// through the normal breed operator, ranks them by *predicted*
    /// non-dominated rank (then predicted reward, then index), and spends
    /// real evaluations only on the top `offspring`. `None` runs classic
    /// NSGA-II, bit-identical to the pre-surrogate strategy.
    pub surrogate: Option<SurrogateConfig>,
}

impl NsgaSearch {
    /// The default population size ([`Default`] uses it, and the engine's
    /// `StrategyKind` resolves a bare `"nsga"` to it — one source of
    /// truth).
    pub const DEFAULT_POPULATION: usize = 32;
}

impl Default for NsgaSearch {
    fn default() -> Self {
        Self {
            population: Self::DEFAULT_POPULATION,
            surrogate: None,
        }
    }
}

/// One member of the NSGA population.
struct Individual {
    genome: Vec<usize>,
    /// The scenario-axis signed metric point — `None` for proposals that
    /// did not decode to a valid, known CNN.
    objectives: Option<MetricVector>,
    /// Whether every ε-constraint of the scenario was met.
    feasible: bool,
    /// The scalar the recorder fed the history (reward or punishment);
    /// orders the infeasible band (scaled violation is monotone in the
    /// constraint miss).
    reward: f64,
}

/// The selection key of one individual: lower `class`/`rank` first, then
/// *larger* `crowding` (less crowded), then lower index — a total,
/// deterministic order.
#[derive(Debug, Clone, Copy)]
struct SelectionKey {
    /// 0 = valid + feasible, 1 = valid + infeasible, 2 = invalid.
    class: u8,
    /// Non-dominated-sorting rank within the feasible class; 0 elsewhere.
    rank: usize,
    /// Crowding distance within the `(class, rank)` band; for the
    /// infeasible band this is the punished reward (less violation =
    /// preferred), for invalid proposals 0.
    crowding: f64,
}

impl SelectionKey {
    /// `true` when `self` is preferred over `other` under NSGA-II's
    /// crowded-comparison operator (extended constraint-first).
    fn beats(&self, other: &SelectionKey) -> bool {
        (self.class, self.rank)
            .cmp(&(other.class, other.rank))
            .then(other.crowding.total_cmp(&self.crowding))
            .is_lt()
    }
}

impl SearchStrategy for NsgaSearch {
    fn name(&self) -> &'static str {
        "nsga"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let vocab = ctx.space.vocab_sizes();
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);
        let pop_size = self.population.max(2);
        // A disabled guide draws nothing: the stream, and hence the run, is
        // bit-identical to classic NSGA-II.
        let mut guide = self
            .surrogate
            .map(|cfg| SurrogateGuide::for_run(cfg, ctx.evaluator, rng));

        // Generation 0: uniform random seeding (capped by the step budget).
        let mut population: Vec<Individual> = {
            let _span = codesign_telemetry::span("nsga.generation", "strategy")
                .with_arg("generation", 0u64);
            let population: Vec<Individual> = (0..pop_size.min(config.steps))
                .map(|_| {
                    let genome = random_genome(&vocab, rng);
                    evaluate(ctx, &mut recorder, genome, guide.as_mut(), None)
                })
                .collect();
            if let Some(g) = guide.as_mut() {
                g.note_candidates(population.len());
            }
            recorder.snapshot_generation(ctx.reward);
            population
        };
        let mut generation = 0u64;

        while recorder.steps() < config.steps {
            generation += 1;
            let _span = codesign_telemetry::span("nsga.generation", "strategy")
                .with_arg("generation", generation);
            let keys = selection_keys(&population);
            let offspring_budget = pop_size.min(config.steps - recorder.steps());
            // Predict-then-verify: once trained, breed k×budget candidates
            // through the normal operator and keep the predicted-best
            // `budget` of them; otherwise breed exactly the budget.
            let produced = match guide.as_ref() {
                Some(g) if g.ready() => g.config().overproduce * offspring_budget,
                _ => offspring_budget,
            };
            if let Some(g) = guide.as_mut() {
                g.note_candidates(produced);
            }
            let candidates: Vec<Vec<usize>> = (0..produced)
                .map(|_| {
                    let a = tournament(&keys, rng);
                    let b = tournament(&keys, rng);
                    let mut genome = crossover(&population[a].genome, &population[b].genome, rng);
                    mutate_genome(&mut genome, &vocab, rng);
                    genome
                })
                .collect();
            let chosen: Vec<(Vec<usize>, Option<f64>)> = match guide.as_ref() {
                Some(g) if produced > offspring_budget => {
                    select_predicted(g, ctx, candidates, offspring_budget)
                }
                _ => candidates.into_iter().map(|g| (g, None)).collect(),
            };
            let offspring: Vec<Individual> = chosen
                .into_iter()
                .map(|(genome, predicted)| {
                    evaluate(ctx, &mut recorder, genome, guide.as_mut(), predicted)
                })
                .collect();

            // Environmental selection: parents ∪ offspring, re-ranked and
            // truncated back to the population size. Sorting by
            // (class, rank, crowding desc, index) fills whole fronts first
            // and cuts the last front by crowding — the NSGA-II truncation.
            population.extend(offspring);
            let keys = selection_keys(&population);
            let mut order: Vec<usize> = (0..population.len()).collect();
            // A total order (ties broken by index): the unstable sort gives
            // the one sorted order.
            order.sort_unstable_by(|&a, &b| {
                (keys[a].class, keys[a].rank)
                    .cmp(&(keys[b].class, keys[b].rank))
                    .then(keys[b].crowding.total_cmp(&keys[a].crowding))
                    .then(a.cmp(&b))
            });
            order.truncate(pop_size);
            // Survivors keep their original (age) order so the population
            // layout — and everything downstream of it — is a pure
            // function of the run so far.
            order.sort_unstable();
            let mut pool: Vec<Option<Individual>> = population.into_iter().map(Some).collect();
            population = order
                .into_iter()
                .map(|i| pool[i].take().expect("indices unique"))
                .collect();
            recorder.snapshot_generation(ctx.reward);
        }
        if let Some(g) = &guide {
            recorder.set_surrogate_stats(g.stats());
        }
        recorder.finish()
    }
}

/// Ranks `candidates` by predicted quality and keeps the best `budget` of
/// them, preserving candidate order (ascending index) among the survivors.
///
/// Each candidate is decoded and scored entirely on the guide's *predicted*
/// evaluation: predicted-feasible candidates are non-dominated-sorted on
/// their predicted metric points, predicted-infeasible ones form the next
/// band, undecodable ones trail. Ties break by higher predicted reward,
/// then lower index — a total, deterministic order. Survivors carry their
/// predicted reward so verification can score the guide's accuracy.
fn select_predicted(
    guide: &SurrogateGuide,
    ctx: &SearchContext<'_>,
    candidates: Vec<Vec<usize>>,
    budget: usize,
) -> Vec<(Vec<usize>, Option<f64>)> {
    struct Predicted {
        class: u8,
        point: Option<MetricVector>,
        reward: f64,
    }
    let predictions: Vec<Predicted> = candidates
        .iter()
        .map(|genome| {
            let proposal = ctx.space.decode(genome);
            match &proposal.cell {
                Ok(cell) => {
                    let features = pair_features(cell, ctx.evaluator.dataset(), &proposal.config);
                    let eval = guide.predict_eval(&features);
                    let scored = ctx.reward.reward(&eval);
                    Predicted {
                        class: u8::from(!scored.is_feasible()),
                        point: Some(ctx.reward.metric_point(&eval)),
                        reward: scored.value(),
                    }
                }
                Err(_) => Predicted {
                    class: 2,
                    point: None,
                    reward: f64::NEG_INFINITY,
                },
            }
        })
        .collect();
    let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
    let feasible: Vec<usize> = (0..predictions.len())
        .filter(|&i| predictions[i].class == 0)
        .collect();
    let points: Vec<&MetricVector> = feasible
        .iter()
        .map(|&i| predictions[i].point.as_ref().expect("class 0 has a point"))
        .collect();
    let mut ranks = vec![0usize; predictions.len()];
    for (&i, rank) in feasible.iter().zip(rank_dyn(&points)) {
        ranks[i] = rank;
    }
    let mut order: Vec<usize> = (0..predictions.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        (predictions[a].class, ranks[a])
            .cmp(&(predictions[b].class, ranks[b]))
            .then(predictions[b].reward.total_cmp(&predictions[a].reward))
            .then(a.cmp(&b))
    });
    order.truncate(budget);
    order.sort_unstable();
    if let Some(t) = timer {
        SELECT_US.record_duration(t.elapsed());
    }
    let mut pool: Vec<Option<Vec<usize>>> = candidates.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| {
            let genome = pool[i].take().expect("indices unique");
            (genome, Some(predictions[i].reward))
        })
        .collect()
}

/// Decodes, evaluates, and records one genome, capturing the scenario-axis
/// objectives the selection operators work on. A guided run also feeds the
/// verified evaluation back to the surrogate (and scores the prediction it
/// was picked on, when there was one).
fn evaluate(
    ctx: &mut SearchContext<'_>,
    recorder: &mut SearchRecorder,
    genome: Vec<usize>,
    guide: Option<&mut SurrogateGuide>,
    predicted: Option<f64>,
) -> Individual {
    let proposal = ctx.space.decode(&genome);
    let outcome = ctx.evaluator.evaluate(&proposal);
    let reward = recorder.record(
        ctx.reward,
        &outcome,
        proposal.cell.as_ref().ok(),
        &proposal.config,
    );
    if let Some(g) = guide {
        g.observe_verified(ctx, &proposal, &outcome, predicted);
    }
    let (objectives, feasible) = match (outcome.evaluation(), proposal.cell.is_ok()) {
        (Some(eval), true) => (
            Some(ctx.reward.metric_point(eval)),
            ctx.reward.reward(eval).is_feasible(),
        ),
        _ => (None, false),
    };
    Individual {
        genome,
        objectives,
        feasible,
        reward,
    }
}

/// Computes every individual's [`SelectionKey`]: feasible points are ranked
/// by fast non-dominated sorting with per-front crowding distances;
/// infeasible-but-valid points form one band ordered by punished reward;
/// invalid proposals trail.
fn selection_keys(population: &[Individual]) -> Vec<SelectionKey> {
    let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
    let feasible: Vec<usize> = (0..population.len())
        .filter(|&i| population[i].feasible && population[i].objectives.is_some())
        .collect();
    let points: Vec<&MetricVector> = feasible
        .iter()
        .map(|&i| population[i].objectives.as_ref().expect("filtered above"))
        .collect();
    let ranks = rank_dyn(&points);

    // Crowding is only comparable within one front: sort the points by
    // (rank, index) once, then score each run of equal rank.
    let mut crowding = vec![0.0f64; feasible.len()];
    let mut by_rank: Vec<usize> = (0..feasible.len()).collect();
    by_rank.sort_unstable_by_key(|&i| (ranks[i], i));
    let mut front_points: Vec<&MetricVector> = Vec::new();
    for members in by_rank.chunk_by(|&a, &b| ranks[a] == ranks[b]) {
        front_points.clear();
        front_points.extend(members.iter().map(|&i| points[i]));
        for (&member, distance) in members.iter().zip(crowding_distance_dyn(&front_points)) {
            crowding[member] = distance;
        }
    }

    let mut keys = vec![
        SelectionKey {
            class: 2,
            rank: 0,
            crowding: 0.0,
        };
        population.len()
    ];
    for ((&i, &rank), &distance) in feasible.iter().zip(&ranks).zip(&crowding) {
        keys[i] = SelectionKey {
            class: 0,
            rank,
            crowding: distance,
        };
    }
    for (i, individual) in population.iter().enumerate() {
        if !individual.feasible && individual.objectives.is_some() {
            keys[i] = SelectionKey {
                class: 1,
                rank: 0,
                // Scaled-violation punishment is monotone in the miss:
                // higher reward = closer to feasible = preferred.
                crowding: individual.reward,
            };
        }
    }
    if let Some(t) = timer {
        SELECT_US.record_duration(t.elapsed());
    }
    keys
}

/// Binary tournament under the crowded-comparison operator; ties keep the
/// first-drawn contestant (deterministic, stream-order-stable).
fn tournament(keys: &[SelectionKey], rng: &mut SmallRng) -> usize {
    let a = rng.gen_range(0..keys.len());
    let b = rng.gen_range(0..keys.len());
    if keys[b].beats(&keys[a]) {
        b
    } else {
        a
    }
}

/// Uniform crossover: each child position comes from one parent or the
/// other with equal probability. With identical parents (a self-cross, or
/// a converged population) the child is a clone — mutation then supplies
/// the variation.
fn crossover(a: &[usize], b: &[usize], rng: &mut SmallRng) -> Vec<usize> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| if rng.gen_range(0..2) == 0 { x } else { y })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::scenarios::ScenarioSpec;
    use crate::space::CodesignSpace;
    use crate::strategies::RandomSearch;
    use codesign_nasbench::NasbenchDatabase;

    fn run_scenario(
        strategy: &dyn SearchStrategy,
        scenario: &ScenarioSpec,
        steps: usize,
        seed: u64,
    ) -> SearchOutcome {
        let space = CodesignSpace::with_max_vertices(5);
        let mut evaluator = Evaluator::with_database(NasbenchDatabase::exhaustive(5));
        let reward = scenario.compile();
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        strategy.run(&mut ctx, &SearchConfig::quick(steps, seed))
    }

    fn run(strategy: &dyn SearchStrategy, steps: usize, seed: u64) -> SearchOutcome {
        run_scenario(strategy, &ScenarioSpec::unconstrained(), steps, seed)
    }

    #[test]
    fn nsga_runs_exactly_steps_and_snapshots_generations() {
        let strategy = NsgaSearch {
            population: 10,
            surrogate: None,
        };
        let out = run(&strategy, 95, 0);
        assert_eq!(out.strategy, "nsga");
        assert_eq!(out.history.len(), 95);
        // 10 seeds + 8 full generations + one 5-step partial = 10 snapshots.
        assert_eq!(out.generations.len(), 10);
        assert_eq!(out.generations.last().unwrap().evaluations, 95);
        for (g, stat) in out.generations.iter().enumerate() {
            assert_eq!(stat.generation, g);
            assert!(stat.front_size <= stat.evaluations);
        }
        assert!(out.best.is_some());
    }

    #[test]
    fn nsga_hypervolume_curve_is_monotone() {
        let out = run(&NsgaSearch::default(), 200, 1);
        assert!(out
            .generations
            .windows(2)
            .all(|w| w[1].hypervolume >= w[0].hypervolume - 1e-9));
        assert!(out.generations.last().unwrap().hypervolume > 0.0);
    }

    #[test]
    fn nsga_is_reproducible() {
        let strategy = NsgaSearch {
            population: 12,
            surrogate: None,
        };
        let a = run(&strategy, 150, 9);
        let b = run(&strategy, 150, 9);
        let ra: Vec<u64> = a.history.iter().map(|r| r.reward.to_bits()).collect();
        let rb: Vec<u64> = b.history.iter().map(|r| r.reward.to_bits()).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.generations, b.generations);
    }

    #[test]
    fn nsga_front_beats_random_at_equal_budget() {
        // The acceptance bar: at an equal evaluation budget, NSGA-II's
        // final-front hypervolume meets or beats uniform sampling's on the
        // paper presets (averaged over seeds for robustness).
        for scenario in ScenarioSpec::paper_presets() {
            let reference = scenario.compile().hypervolume_reference();
            let mut nsga_hv = 0.0;
            let mut random_hv = 0.0;
            for seed in 0..2 {
                nsga_hv += run_scenario(&NsgaSearch::default(), &scenario, 400, seed)
                    .front
                    .hypervolume(&reference);
                random_hv += run_scenario(&RandomSearch, &scenario, 400, seed)
                    .front
                    .hypervolume(&reference);
            }
            assert!(
                nsga_hv >= random_hv,
                "{}: nsga {nsga_hv} < random {random_hv}",
                scenario.name()
            );
        }
    }

    #[test]
    fn nsga_targets_axes_scalarized_controllers_cannot() {
        // A 2-metric acc × power scenario: the front lives in (acc, −power),
        // axes the fixed paper triple cannot even express.
        let scenario = ScenarioSpec::builder("acc-power")
            .weight(crate::MetricId::Accuracy, 0.5)
            .weight(crate::MetricId::PowerW, 0.5)
            .build()
            .expect("static spec");
        let out = run_scenario(&NsgaSearch::default(), &scenario, 300, 3);
        assert_eq!(out.front.schema().names(), ["acc", "power"]);
        assert!(out.front.len() >= 2, "a 2-D front should hold trade-offs");
        let reference = scenario.compile().hypervolume_reference();
        assert!(out.front.hypervolume(&reference) > 0.0);
    }

    #[test]
    fn population_larger_than_budget_still_terminates() {
        let strategy = NsgaSearch {
            population: 64,
            surrogate: None,
        };
        let out = run(&strategy, 20, 4);
        assert_eq!(out.history.len(), 20);
        assert_eq!(out.generations.len(), 1, "seeding alone exhausts budget");
    }

    #[test]
    fn guided_nsga_reports_stats_and_is_reproducible() {
        let strategy = NsgaSearch {
            population: 8,
            surrogate: Some(crate::SurrogateConfig {
                overproduce: 3,
                retrain: 8,
            }),
        };
        let a = run(&strategy, 120, 7);
        let b = run(&strategy, 120, 7);
        let stats = a.surrogate.expect("guided runs export stats");
        assert_eq!(stats.verified, 120);
        assert!(
            stats.candidates > 120,
            "over-production must kick in once trained ({} candidates)",
            stats.candidates
        );
        assert!(stats.train_rounds >= 1);
        let ra: Vec<u64> = a.history.iter().map(|r| r.reward.to_bits()).collect();
        let rb: Vec<u64> = b.history.iter().map(|r| r.reward.to_bits()).collect();
        assert_eq!(ra, rb, "guided runs are bit-identical at a fixed seed");
        assert_eq!(a.surrogate, b.surrogate);
        assert_eq!(a.generations, b.generations);
        // Unguided runs export no surrogate stats.
        assert!(run(&NsgaSearch::default(), 40, 7).surrogate.is_none());
    }

    #[test]
    fn selection_prefers_feasible_then_rank_then_crowding() {
        let feasible_rank0 = SelectionKey {
            class: 0,
            rank: 0,
            crowding: 1.0,
        };
        let feasible_rank1 = SelectionKey {
            class: 0,
            rank: 1,
            crowding: f64::INFINITY,
        };
        let uncrowded = SelectionKey {
            class: 0,
            rank: 0,
            crowding: f64::INFINITY,
        };
        let infeasible = SelectionKey {
            class: 1,
            rank: 0,
            crowding: 100.0,
        };
        let invalid = SelectionKey {
            class: 2,
            rank: 0,
            crowding: 0.0,
        };
        assert!(feasible_rank0.beats(&feasible_rank1));
        assert!(uncrowded.beats(&feasible_rank0));
        assert!(feasible_rank1.beats(&infeasible));
        assert!(infeasible.beats(&invalid));
        assert!(!invalid.beats(&invalid));
    }
}
