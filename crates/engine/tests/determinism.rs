//! Campaign-level invariants: worker-count determinism, recorder
//! bookkeeping, cache transparency, database sharing, and Pareto-merge
//! equivalence.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use codesign_accel::AcceleratorConfig;
use codesign_core::{
    CodesignSpace, Evaluator, PairEvaluation, ScenarioSpec, SearchConfig, SearchContext,
    INVALID_PROPOSAL_REWARD,
};
use codesign_engine::{
    Campaign, CampaignReport, ShardObserver, ShardResult, ShardedDriver, SharedEvalCache,
    StrategyKind,
};
use codesign_moo::DynParetoFront;
use codesign_nasbench::{AdjMatrix, CellSpec, NasbenchDatabase, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn sweep_campaign() -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(StrategyKind::ALL.to_vec())
        .seeds(vec![0, 1])
        .steps(60)
}

fn front_bits<T>(front: &DynParetoFront<T>) -> Vec<Vec<u64>> {
    let mut bits: Vec<Vec<u64>> = front
        .iter()
        .map(|(m, _)| m.iter().map(|x| x.to_bits()).collect())
        .collect();
    bits.sort_unstable();
    bits
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.shards.len(), b.shards.len());
    for (x, y) in a.shards.iter().zip(b.shards.iter()) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.steps, y.steps);
        assert_eq!(x.feasible_steps, y.feasible_steps);
        assert_eq!(x.invalid_steps, y.invalid_steps);
        assert_eq!(x.best, y.best, "shard {} best diverged", x.spec.index);
        assert_eq!(
            front_bits(&x.front),
            front_bits(&y.front),
            "shard {} front diverged",
            x.spec.index
        );
    }
    for scenario in ScenarioSpec::paper_presets() {
        assert_eq!(
            front_bits(&a.merged_front(scenario.name())),
            front_bits(&b.merged_front(scenario.name())),
            "merged front diverged for {}",
            scenario.name()
        );
    }
}

#[test]
fn campaigns_are_bit_identical_across_worker_counts() {
    let campaign = sweep_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let one = ShardedDriver::new(1).run(&campaign, &db);
    let eight = ShardedDriver::new(8).run(&campaign, &db);
    assert_reports_identical(&one, &eight);
}

/// Every shard's recorded history re-scores, step by step, under the
/// shard's own compiled scenario, and the shard's feasible/invalid counts,
/// best reward and front are exactly what that history implies.
#[test]
fn recorded_histories_rederive_shard_bookkeeping() {
    let campaign = sweep_campaign()
        .strategies(
            StrategyKind::ALL
                .into_iter()
                .chain([StrategyKind::Evolution])
                .collect(),
        )
        .record_histories(true);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(4).run(&campaign, &db);
    assert_eq!(report.shards.len(), 3 * 5 * 2);

    for shard in &report.shards {
        let scenario = shard.spec.scenario.as_ref();
        let history = shard.history.as_ref().expect("histories recorded");
        assert_eq!(history.len(), shard.steps);
        let mut feasible = 0usize;
        let mut invalid = 0usize;
        let mut best_reward = f64::NEG_INFINITY;
        let mut front: DynParetoFront<()> = scenario.empty_front();
        for (step, record) in history.iter().enumerate() {
            let Some(eval) = record.evaluation else {
                assert_eq!(record.reward, INVALID_PROPOSAL_REWARD);
                assert!(!record.feasible);
                invalid += 1;
                continue;
            };
            front.insert(scenario.metric_point(&eval), ());
            let rescored = scenario.reward(&eval);
            assert_eq!(
                record.reward.to_bits(),
                rescored.value().to_bits(),
                "shard {} ({} / {} / seed {}) step {step}",
                shard.spec.index,
                shard.spec.scenario_name(),
                shard.spec.strategy.name(),
                shard.spec.seed,
            );
            assert_eq!(record.feasible, rescored.is_feasible());
            if record.feasible {
                feasible += 1;
                best_reward = best_reward.max(record.reward);
            }
        }
        assert_eq!(shard.feasible_steps, feasible, "shard {}", shard.spec.index);
        assert_eq!(shard.invalid_steps, invalid, "shard {}", shard.spec.index);
        assert_eq!(
            front_bits(&front),
            front_bits(&shard.front),
            "shard {}: front is the front of the recorded history",
            shard.spec.index
        );
        match &shard.best {
            Some(best) => {
                assert_eq!(
                    best.reward.to_bits(),
                    best_reward.to_bits(),
                    "shard {}: best reward is the max feasible recorded reward",
                    shard.spec.index
                );
                // The stored best point re-scores to its stored reward.
                let rescored = scenario.reward(&best.evaluation);
                assert_eq!(best.reward.to_bits(), rescored.value().to_bits());
            }
            None => assert_eq!(feasible, 0, "shard {}", shard.spec.index),
        }
    }
}

/// The acceptance check for shared ownership: running a campaign grows the
/// database's `Arc` refcount (one bump per worker) and never duplicates the
/// data. Each of the four workers runs one shard, and the shard observer
/// reads the strong count only once all four have reached it, so every
/// worker still holds its bump.
#[test]
fn driver_shares_the_database_by_refcount_not_by_clone() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![ScenarioSpec::unconstrained()])
        .strategies(vec![StrategyKind::Random])
        .seeds(vec![0, 1, 2, 3])
        .steps(400);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    assert_eq!(Arc::strong_count(&db), 1);

    let workers = campaign.shards().len();
    let all_in = Arc::new(Barrier::new(workers));
    let seen = Arc::new(AtomicUsize::new(0));
    let observer: ShardObserver = {
        let (db, all_in, seen) = (Arc::downgrade(&db), Arc::clone(&all_in), Arc::clone(&seen));
        Arc::new(move |_: &ShardResult| {
            all_in.wait();
            seen.fetch_max(db.strong_count(), Ordering::Relaxed);
            all_in.wait();
        })
    };
    let _ = ShardedDriver::new(workers)
        .with_shard_observer(observer)
        .run(&campaign, &db);
    let peak = seen.load(Ordering::Relaxed);
    assert!(
        peak > 2,
        "workers must share the database through refcount bumps (peak {peak})"
    );
    // Everything was a borrow: the test's handle is the only one left.
    assert_eq!(Arc::strong_count(&db), 1);
}

#[test]
fn shared_cache_is_transparent_to_results() {
    let campaign = sweep_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let cached = ShardedDriver::new(4).run(&campaign, &db);
    let uncached = ShardedDriver::new(4)
        .without_shared_cache()
        .run(&campaign, &db);
    assert!(cached.cache.is_some() && uncached.cache.is_none());
    assert_reports_identical(&cached, &uncached);
}

/// An evaluator memoizes each pair in one place: its private map, or the
/// shared cache when one is attached. Both answer one stream of pairs, with
/// revisits and with two labellings of one class at one config, with the
/// same bits, and the shared cache stores each distinct key once.
#[test]
fn one_pair_memo_answers_alike_with_and_without_a_shared_cache() {
    let space = CodesignSpace::with_max_vertices(4);
    let vocab = space.vocab_sizes();
    let mut rng = SmallRng::seed_from_u64(29);
    let mut stream: Vec<(CellSpec, AcceleratorConfig)> = Vec::new();
    while stream.len() < 300 {
        let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
        let proposal = space.decode(&actions);
        if let Ok(cell) = proposal.cell {
            stream.push((cell, proposal.config));
        }
        // Revisit an earlier pair every third step.
        if stream.len().is_multiple_of(3) {
            let earlier = stream[rng.gen_range(0..stream.len())].clone();
            stream.push(earlier);
        }
    }
    // Two parallel branches, labelled both ways round.
    let branches = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let config = stream[0].1;
    for ops in [[Op::Conv3x3, Op::Conv1x1], [Op::Conv1x1, Op::Conv3x3]] {
        stream.push((
            CellSpec::new(branches.clone(), ops.to_vec()).unwrap(),
            config,
        ));
    }
    let [.., (first, _), (second, _)] = stream.as_slice() else {
        unreachable!("the stream ends with the two labellings")
    };
    assert_ne!(first, second);
    assert_eq!(first.canonical_hash(), second.canonical_hash());

    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let cache = Arc::new(SharedEvalCache::new());
    let mut private = Evaluator::with_shared_database(Arc::clone(&db));
    let mut shared = Evaluator::with_shared_database(db).with_shared_cache(Arc::clone(&cache) as _);
    let bits =
        |e: PairEvaluation| [e.accuracy, e.latency_ms, e.area_mm2, e.power_w].map(f64::to_bits);
    let mut keys = HashSet::new();
    for (step, (cell, config)) in stream.iter().enumerate() {
        let alone = private
            .evaluate_pair(cell, config)
            .expect("a 4-vertex cell");
        let backed = shared.evaluate_pair(cell, config).expect("a 4-vertex cell");
        assert_eq!(bits(alone), bits(backed), "step {step}");
        keys.insert((cell.canonical_hash(), *config));
    }
    assert!(keys.len() < stream.len() - 1, "the stream revisits pairs");
    assert_eq!(cache.stats().inserts, keys.len() as u64);
}

/// The warm-start contract end to end through the v3 binary format: a
/// campaign warm-started from a persisted cache produces a JSONL export
/// bit-identical to the cold run's (wall-clock and cache-attribution
/// fields scrubbed — those legitimately differ), while actually reaping
/// warm hits.
#[test]
fn warm_started_campaign_jsonl_is_bit_identical_to_cold() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
        .seeds(vec![0])
        .steps(60);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let salt = db.fingerprint();

    // Cold run: compute everything, persist the cache as v3 binary.
    let cold_cache = Arc::new(codesign_engine::SharedEvalCache::new());
    let cold = ShardedDriver::new(4)
        .with_cache(Arc::clone(&cold_cache))
        .run(&campaign, &db);
    let mut file = Vec::new();
    cold_cache.save(&mut file, salt).unwrap();

    // Warm run: reload the persisted bytes and sweep again.
    let warm_cache =
        Arc::new(codesign_engine::SharedEvalCache::load(file.as_slice(), salt).unwrap());
    let warm = ShardedDriver::new(4)
        .with_cache(warm_cache)
        .run(&campaign, &db);
    assert!(
        warm.cache.expect("cache enabled").total_warm_hits() > 0,
        "the reloaded cache must actually answer lookups"
    );
    assert_reports_identical(&cold, &warm);

    // Byte-level check on the JSONL export, nondeterministic fields
    // scrubbed: wall-clock and warm/cold attribution differ by design,
    // every result byte must not.
    fn scrub(json: &mut codesign_nasbench::Json) {
        use codesign_nasbench::Json;
        match json {
            Json::Obj(pairs) => {
                for (key, value) in pairs.iter_mut() {
                    match key.as_str() {
                        "wall_ms" | "wall_us" | "cache_warm_hits" | "cache_cold_hits"
                        | "cache_misses" | "warm_hits" | "cold_hits" | "hits" | "misses"
                        | "hit_rate" | "accuracy_hits" | "accuracy_warm_hits"
                        | "accuracy_misses" | "inserts" | "preloaded" => {
                            *value = Json::Num(0.0);
                        }
                        _ => scrub(value),
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let normalized = |text: &str| {
        text.lines()
            .map(|line| {
                let mut json = codesign_nasbench::Json::parse(line).expect("export line parses");
                scrub(&mut json);
                json.to_string()
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (mut cold_jsonl, mut warm_jsonl) = (Vec::new(), Vec::new());
    cold.write_jsonl(&mut cold_jsonl).unwrap();
    warm.write_jsonl(&mut warm_jsonl).unwrap();
    assert_eq!(
        normalized(&String::from_utf8(cold_jsonl).unwrap()),
        normalized(&String::from_utf8(warm_jsonl).unwrap()),
        "warm-started JSONL diverged from the cold run"
    );
}

#[test]
fn campaign_cache_sees_substantial_reuse() {
    let campaign = sweep_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(4).run(&campaign, &db);
    let stats = report.cache.expect("cache enabled");
    assert!(
        stats.hits > 0,
        "a 24-shard sweep must revisit pairs: {stats}"
    );
    assert!(stats.inserts > 0);
    assert_eq!(stats.entries as u64, stats.inserts);
}

/// Merged per-shard fronts must equal the front of the concatenated visit
/// histories. Runs the exact shards the campaign would, via the same
/// injected-RNG path, collecting every visited point.
#[test]
fn merged_shard_fronts_equal_front_of_concatenated_histories() {
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![ScenarioSpec::unconstrained()])
        .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
        .seeds(vec![0, 1, 2])
        .steps(50);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(4).run(&campaign, &db);

    // Re-run each shard standalone and pool every *visited* point from the
    // step histories; the front of that concatenation must equal the
    // campaign's merged per-shard fronts (multiplicity included — ties are
    // retained by both paths).
    let mut concatenated: DynParetoFront<()> =
        ScenarioSpec::unconstrained().compile().empty_front();
    for shard in campaign.shards() {
        let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
        let mut ctx = SearchContext {
            space: &campaign.space,
            evaluator: &mut evaluator,
            reward: shard.scenario.as_ref(),
        };
        let config = SearchConfig {
            steps: shard.steps,
            seed: shard.rng_seed,
            ..SearchConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(shard.rng_seed);
        let outcome = shard
            .strategy
            .build(shard.steps, shard.surrogate)
            .run_with_rng(&mut ctx, &config, &mut rng);
        for record in &outcome.history {
            if let Some(eval) = record.evaluation {
                concatenated.insert(shard.scenario.metric_point(&eval), ());
            }
        }
    }
    let mut history_bits: Vec<Vec<u64>> = concatenated
        .iter()
        .map(|(m, ())| m.iter().map(|x| x.to_bits()).collect())
        .collect();
    history_bits.sort_unstable();
    assert_eq!(
        front_bits(&report.merged_front("Unconstrained")),
        history_bits,
        "merged shard fronts != front of concatenated histories"
    );
}
