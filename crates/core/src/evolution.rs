//! Aging-evolution search (extension).
//!
//! The paper's introduction notes NAS can use "reinforcement learning,
//! evolutionary algorithms or other approaches"; it evaluates only RL. This
//! module adds the standard NAS evolutionary baseline — regularized (aging)
//! evolution à la Real et al. — over the *joint* codesign genome, so the RL
//! controller can be ablated against a strong non-gradient searcher under
//! identical evaluators and rewards.
//!
//! The genome is the same decision sequence the LSTM policy emits (CNN edge
//! bits + op labels + accelerator parameter indices); mutation resamples a
//! small number of positions uniformly.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::search::{SearchConfig, SearchContext, SearchOutcome, SearchRecorder, SearchStrategy};
use crate::surrogate::{pair_features, SurrogateConfig, SurrogateGuide};

/// Telemetry: genomes created by uniform random seeding.
static SEEDED: codesign_telemetry::Counter = codesign_telemetry::Counter::new("evolution.seeded");
/// Telemetry: genomes bred by tournament + mutation.
static BRED: codesign_telemetry::Counter = codesign_telemetry::Counter::new("evolution.bred");

/// A uniform random genome over `vocab` (one action per position).
///
/// The seeding operator shared by [`EvolutionSearch`] and
/// [`crate::NsgaSearch`].
pub(crate) fn random_genome(vocab: &[usize], rng: &mut SmallRng) -> Vec<usize> {
    vocab.iter().map(|&v| rng.gen_range(0..v)).collect()
}

/// Living individuals of the aging population.
const POPULATION: usize = 64;
/// Tournament sample size per reproduction event.
const SAMPLE: usize = 16;
/// Genome positions resampled per mutation.
const MUTATIONS: usize = 2;

/// Resamples [`MUTATIONS`] uniformly-chosen positions of `genome` (with
/// replacement, so the effective count can be lower).
///
/// The mutation operator shared by [`EvolutionSearch`] and
/// [`crate::NsgaSearch`]; both strategies walk the joint codesign genome
/// with exactly these draws, in this order, from the injected stream.
pub(crate) fn mutate_genome(genome: &mut [usize], vocab: &[usize], rng: &mut SmallRng) {
    for _ in 0..MUTATIONS {
        let pos = rng.gen_range(0..genome.len());
        genome[pos] = rng.gen_range(0..vocab[pos]);
    }
}

/// Regularized-evolution search over the joint codesign genome: a
/// population of 64, tournaments of 16, two positions resampled per
/// mutation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvolutionSearch {
    /// Optional surrogate predict-then-verify guidance: once the guide is
    /// trained, each step over-produces `k` candidates through the normal
    /// seed-or-breed operator, ranks them by *predicted* scalarized reward,
    /// and spends the real evaluation only on the argmax (lowest index on
    /// ties). `None` runs classic aging evolution, bit-identical to the
    /// pre-surrogate strategy.
    pub surrogate: Option<SurrogateConfig>,
}

/// The seed-or-breed reproduction operator of one step: uniform random
/// genomes while the population fills, then mutate the best of a tournament
/// sample. Draws exactly the same stream positions as classic aging
/// evolution, whether called once (unguided) or `k` times (guided).
fn propose_genome(
    population: &VecDeque<(Vec<usize>, f64)>,
    vocab: &[usize],
    rng: &mut SmallRng,
) -> Vec<usize> {
    if population.len() < POPULATION {
        // Seeding phase: uniform random genomes.
        SEEDED.add(1);
        random_genome(vocab, rng)
    } else {
        // Tournament: mutate the best of a random sample.
        let mut best: Option<&(Vec<usize>, f64)> = None;
        for _ in 0..SAMPLE {
            let idx = rng.gen_range(0..population.len());
            let candidate = &population[idx];
            if best.is_none_or(|b| candidate.1 > b.1) {
                best = Some(candidate);
            }
        }
        let mut child = best.expect("non-empty population").0.clone();
        mutate_genome(&mut child, vocab, rng);
        BRED.add(1);
        child
    }
}

/// The guide's predicted scalarized reward of one candidate genome:
/// featurize the decoded pair, predict its evaluation, and score it under
/// the scenario's (unshaped) reward. Undecodable candidates predict
/// `-inf`, so a guided step never wastes its real evaluation on a genome
/// the guide can already tell is invalid.
pub(crate) fn predict_reward(
    guide: &SurrogateGuide,
    ctx: &SearchContext<'_>,
    genome: &[usize],
) -> f64 {
    let proposal = ctx.space.decode(genome);
    match &proposal.cell {
        Ok(cell) => {
            let features = pair_features(cell, ctx.evaluator.dataset(), &proposal.config);
            ctx.reward.reward(&guide.predict_eval(&features)).value()
        }
        Err(_) => f64::NEG_INFINITY,
    }
}

impl SearchStrategy for EvolutionSearch {
    fn name(&self) -> &'static str {
        "evolution"
    }

    fn run_with_rng(
        &self,
        ctx: &mut SearchContext<'_>,
        config: &SearchConfig,
        rng: &mut SmallRng,
    ) -> SearchOutcome {
        let vocab = ctx.space.vocab_sizes();
        let mut recorder = SearchRecorder::new(self.name(), config.steps, ctx.reward);
        // A disabled guide draws nothing: the stream, and hence the run, is
        // bit-identical to classic evolution.
        let mut guide = self
            .surrogate
            .map(|cfg| SurrogateGuide::for_run(cfg, ctx.evaluator, rng));
        // Aging queue of (genome, reward); the oldest dies on overflow.
        let mut population: VecDeque<(Vec<usize>, f64)> = VecDeque::with_capacity(POPULATION);

        while recorder.steps() < config.steps {
            // Predict-then-verify: once trained, over-produce k candidates
            // through the normal operator and keep the best predicted one
            // (strict improvement, so ties keep the lowest index).
            let (genome, predicted) = match guide.as_mut() {
                Some(g) if g.ready() => {
                    let k = g.config().overproduce;
                    g.note_candidates(k);
                    let mut best: Option<(f64, Vec<usize>)> = None;
                    for _ in 0..k {
                        let candidate = propose_genome(&population, &vocab, rng);
                        let score = predict_reward(g, ctx, &candidate);
                        if best.as_ref().is_none_or(|(b, _)| score > *b) {
                            best = Some((score, candidate));
                        }
                    }
                    let (score, genome) = best.expect("k >= 2 candidates");
                    (genome, Some(score))
                }
                other => {
                    if let Some(g) = other {
                        g.note_candidates(1);
                    }
                    let genome = propose_genome(&population, &vocab, rng);
                    (genome, None)
                }
            };
            let proposal = ctx.space.decode(&genome);
            let outcome = ctx.evaluator.evaluate(&proposal);
            let reward = recorder.record(
                ctx.reward,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            );
            if let Some(g) = guide.as_mut() {
                g.observe_verified(ctx, &proposal, &outcome, predicted);
            }
            population.push_back((genome, reward));
            if population.len() > POPULATION {
                population.pop_front();
            }
        }
        if let Some(g) = &guide {
            recorder.set_surrogate_stats(g.stats());
        }
        recorder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::scenarios::ScenarioSpec;
    use crate::space::CodesignSpace;
    use crate::strategies::RandomSearch;
    use codesign_nasbench::NasbenchDatabase;

    fn run(strategy: &dyn SearchStrategy, steps: usize, seed: u64) -> SearchOutcome {
        let space = CodesignSpace::with_max_vertices(5);
        let mut evaluator = Evaluator::with_database(NasbenchDatabase::exhaustive(5));
        let reward = ScenarioSpec::unconstrained().compile();
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        strategy.run(&mut ctx, &SearchConfig::quick(steps, seed))
    }

    #[test]
    fn evolution_completes_and_finds_feasible_points() {
        let out = run(&EvolutionSearch::default(), 300, 0);
        assert_eq!(out.history.len(), 300);
        assert_eq!(out.strategy, "evolution");
        assert!(out.best.is_some());
    }

    #[test]
    fn evolution_is_reproducible() {
        let a = run(&EvolutionSearch::default(), 150, 9);
        let b = run(&EvolutionSearch::default(), 150, 9);
        let ra: Vec<f64> = a.history.iter().map(|r| r.reward).collect();
        let rb: Vec<f64> = b.history.iter().map(|r| r.reward).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn evolution_beats_random_on_average() {
        let mut evo = 0.0;
        let mut rnd = 0.0;
        for seed in 0..3 {
            evo += run(&EvolutionSearch::default(), 500, seed)
                .best
                .map_or(0.0, |b| b.reward);
            rnd += run(&RandomSearch, 500, seed).best.map_or(0.0, |b| b.reward);
        }
        assert!(
            evo > rnd * 0.98,
            "evolution {evo} should be at least on par with random {rnd}"
        );
    }

    #[test]
    fn guided_evolution_reports_stats_and_is_reproducible() {
        let strategy = EvolutionSearch {
            surrogate: Some(crate::SurrogateConfig {
                overproduce: 3,
                retrain: 8,
            }),
        };
        let a = run(&strategy, 120, 5);
        let b = run(&strategy, 120, 5);
        let stats = a.surrogate.expect("guided runs export stats");
        assert_eq!(stats.verified, 120, "every recorded step is a real eval");
        assert!(
            stats.candidates > 120,
            "over-production must kick in once trained ({} candidates)",
            stats.candidates
        );
        assert!(stats.train_rounds >= 1);
        assert!(stats.verify_rate() < 1.0 && stats.verify_rate() > 0.0);
        let ra: Vec<u64> = a.history.iter().map(|r| r.reward.to_bits()).collect();
        let rb: Vec<u64> = b.history.iter().map(|r| r.reward.to_bits()).collect();
        assert_eq!(ra, rb, "guided runs are bit-identical at a fixed seed");
        assert_eq!(a.surrogate, b.surrogate);
    }

    #[test]
    fn unguided_runs_export_no_surrogate_stats() {
        let out = run(&EvolutionSearch::default(), 50, 0);
        assert!(out.surrogate.is_none());
    }
}
