//! Job specifications: the one description of a campaign. The one-shot
//! `campaign` CLI, `campaign submit` and the server's `submit` frames all
//! read their input through [`JobSpec::from_json`], so they share one
//! parser, one set of defaults and one set of checks, and input becomes a
//! [`Campaign`] only through [`JobSpec::to_campaign`].

use codesign_core::{CodesignSpace, RewardShaping, ScenarioSpec, SurrogateConfig};
use codesign_engine::{Campaign, StrategyKind};
use codesign_nasbench::Json;

/// Upper bound on one job's step budget per shard.
pub const MAX_STEPS: usize = 1_000_000;

/// Upper bound on one job's grid size (scenarios × strategies × seeds).
pub const MAX_SHARDS: usize = 100_000;

/// Every seed of a job is below this bound, 2⁵³: a job travels as JSON,
/// whose numbers are `f64`, and past 2⁵³ an `f64` no longer holds every
/// integer, so `9007199254740993` would read as its neighbour
/// `9007199254740992` and a run would silently take another seed.
const SEED_LIMIT: u64 = 1 << 53;

/// Seeds of a job that names neither `seeds` nor `repeats`.
const DEFAULT_REPEATS: usize = 3;

/// Steps per shard of a job that names neither `steps` nor `generations`.
const DEFAULT_STEPS: usize = 1000;

/// A validated campaign job: the grid of scenarios × strategies × seeds at
/// one step budget, plus the reward shaping and surrogate guidance every
/// shard runs under. The job never names a database — it runs against
/// whatever database (and `--max-vertices`) its runner was started with,
/// which is exactly what makes a server's job N+1 warm-start from job N's
/// cache entries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario axis (never empty; defaults to the paper presets).
    pub scenarios: Vec<ScenarioSpec>,
    /// Strategy axis (never empty; defaults to `StrategyKind::ALL`).
    pub strategies: Vec<StrategyKind>,
    /// Seed axis (never empty; defaults to `[0, 1, 2]`).
    pub seeds: Vec<u64>,
    /// Step budget per shard (defaults to 1000).
    pub steps: usize,
    /// Reward shaping of every shard (defaults to none).
    pub reward_shaping: RewardShaping,
    /// Surrogate guidance of the generational shards (defaults to off).
    pub surrogate: Option<SurrogateConfig>,
}

impl JobSpec {
    /// Parses and validates a job object:
    ///
    /// ```text
    /// {
    ///   "scenarios":      ["0" | "1 Constraint" | "lat<100; w=acc:1.0"
    ///                      | {…ScenarioSpec JSON…}, …],  // default: presets
    ///   "strategies":     ["random", "nsga", …] | "random,nsga",
    ///                                      // default: separate,combined,phase,random
    ///   "seeds":          [0, 1, 2],       // or "seed_base" (0) + "repeats" (3)
    ///   "steps":          1000,            // or "population" + "generations"
    ///   "reward_shaping": "hv:0.5",        // default: none
    ///   "surrogate":      "4:16",          // default: off
    /// }
    /// ```
    ///
    /// Scenario strings resolve as a preset index, a preset name, or the
    /// compact grammar. Scenario objects are full `ScenarioSpec` documents
    /// ([`ScenarioSpec::from_json`]). `reward_shaping` and `surrogate` use
    /// the grammar of [`RewardShaping::parse`] and [`SurrogateConfig::parse`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason; the server wraps it in a typed
    /// `invalid_job` error event and the CLI exits with code 2.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        if !matches!(doc, Json::Obj(_)) {
            return Err("job must be an object".into());
        }

        let mut scenarios = Vec::new();
        match doc.get("scenarios") {
            None => scenarios = ScenarioSpec::paper_presets(),
            Some(Json::Arr(entries)) => {
                for (i, entry) in entries.iter().enumerate() {
                    scenarios
                        .push(resolve_scenario(entry).map_err(|e| format!("scenarios[{i}]: {e}"))?);
                }
            }
            Some(_) => return Err("'scenarios' must be an array".into()),
        }
        if scenarios.is_empty() {
            return Err("'scenarios' must not be empty".into());
        }
        // Reports and merged fronts key on scenario names; a duplicate
        // would silently pool unrelated reward functions.
        codesign_core::check_unique_names(&scenarios).map_err(|e| e.to_string())?;

        // Every count key: absent, or an integer of at least `min`.
        let count = |key: &str, min: usize| {
            doc.get(key)
                .map(|v| {
                    v.as_usize()
                        .filter(|&n| n >= min)
                        .ok_or(format!("'{key}' must be an integer >= {min}"))
                })
                .transpose()
        };

        // NSGA population: one knob for every nsga strategy in the job.
        let population = count("population", 2)?.unwrap_or(StrategyKind::DEFAULT_NSGA_POPULATION);
        let names: Vec<&str> = match doc.get("strategies") {
            None => StrategyKind::ALL.iter().map(StrategyKind::name).collect(),
            Some(Json::Str(csv)) => csv.split(',').map(str::trim).collect(),
            Some(Json::Arr(entries)) => entries
                .iter()
                .map(|e| e.as_str().ok_or("'strategies' entries must be strings"))
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'strategies' must be an array or a comma list".into()),
        };
        let strategies: Vec<StrategyKind> = names
            .iter()
            .map(|name| match StrategyKind::from_name(name) {
                Some(StrategyKind::Nsga { .. }) => Ok(StrategyKind::Nsga { population }),
                Some(kind) => Ok(kind),
                None => Err(format!(
                    "unknown strategy '{name}' \
                     (separate|combined|reinforce|phase|random|evolution|nsga)"
                )),
            })
            .collect::<Result<_, _>>()?;
        if strategies.is_empty() {
            return Err("'strategies' must not be empty".into());
        }

        let seeds: Vec<u64> = match doc.get("seeds") {
            Some(Json::Arr(entries)) => entries
                .iter()
                .map(|e| {
                    e.as_f64()
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                        .map(|n| n as u64)
                        .ok_or("'seeds' entries must be non-negative integers")
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'seeds' must be an array of integers".into()),
            None => {
                let base = count("seed_base", 0)?.unwrap_or(0) as u64;
                let repeats = count("repeats", 1)?.unwrap_or(DEFAULT_REPEATS) as u64;
                (base..base.saturating_add(repeats)).collect()
            }
        };
        if seeds.is_empty() {
            return Err("'seeds' must not be empty".into());
        }
        if let Some(seed) = seeds.iter().find(|&&seed| seed >= SEED_LIMIT) {
            return Err(format!(
                "seed {seed} is not below 2^53 = {SEED_LIMIT}, past which a JSON number \
                 rounds integers"
            ));
        }

        // Step budget: explicit steps, or population × generations (the
        // generational unit, which overrides steps).
        let steps = match count("generations", 1)? {
            Some(generations) => population.saturating_mul(generations),
            None => count("steps", 1)?.unwrap_or(DEFAULT_STEPS),
        };
        if steps > MAX_STEPS {
            return Err(format!(
                "steps {steps} exceeds the per-shard cap {MAX_STEPS}"
            ));
        }
        let shard_count = scenarios.len() * strategies.len() * seeds.len();
        if shard_count > MAX_SHARDS {
            return Err(format!(
                "grid of {shard_count} shards exceeds the {MAX_SHARDS}-shard cap"
            ));
        }

        let text = |key: &str| match doc.get(key) {
            None => Ok(""),
            Some(value) => value.as_str().ok_or(format!("'{key}' must be a string")),
        };
        let reward_shaping = RewardShaping::parse(text("reward_shaping")?)
            .map_err(|e| format!("'reward_shaping': {e}"))?;
        let surrogate =
            SurrogateConfig::parse(text("surrogate")?).map_err(|e| format!("'surrogate': {e}"))?;
        // A guided generation breeds k × offspring genomes, and offspring
        // never exceed the step budget, so this cap also keeps that product
        // far inside `usize`.
        if let Some(config) = surrogate.filter(|c| c.overproduce > MAX_STEPS) {
            return Err(format!(
                "'surrogate': over-production factor {} exceeds the per-shard cap {MAX_STEPS}",
                config.overproduce
            ));
        }

        Ok(JobSpec {
            scenarios,
            strategies,
            seeds,
            steps,
            reward_shaping,
            surrogate,
        })
    }

    /// The job as a submit payload. Scenarios are written as full
    /// `ScenarioSpec` documents (lossless — names, thresholds, weights and
    /// normalizations all survive), so `to_json` → [`JobSpec::from_json`]
    /// reconstructs an equivalent job. `reward_shaping` and `surrogate` are
    /// written only when active.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioSpec::to_json).collect()),
            ),
            (
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|s| Json::Str(s.name().into()))
                        .collect(),
                ),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("steps", Json::Num(self.steps as f64)),
        ];
        // The one strategy parameter not captured by its name.
        if let Some(StrategyKind::Nsga { population }) = self
            .strategies
            .iter()
            .find(|s| matches!(s, StrategyKind::Nsga { .. }))
        {
            fields.push(("population", Json::Num(*population as f64)));
        }
        if self.reward_shaping.is_active() {
            fields.push(("reward_shaping", Json::Str(self.reward_shaping.to_string())));
        }
        if let Some(surrogate) = self.surrogate {
            fields.push(("surrogate", Json::Str(surrogate.to_string())));
        }
        Json::obj(fields)
    }

    /// The number of shards this job dispatches.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.scenarios.len() * self.strategies.len() * self.seeds.len()
    }

    /// Instantiates the campaign over the runner's search space. Auto-ranged
    /// normalizations stay unresolved until the runner, which holds the
    /// database, calls [`Campaign::with_auto_norms`].
    #[must_use]
    pub fn to_campaign(&self, space: CodesignSpace) -> Campaign {
        Campaign::new(space)
            .scenarios(self.scenarios.clone())
            .strategies(self.strategies.clone())
            .seeds(self.seeds.clone())
            .steps(self.steps)
            .with_reward_shaping(self.reward_shaping)
            .with_surrogate(self.surrogate)
    }
}

/// Resolves one scenario entry: a preset index, a preset name, a compact
/// spec, or a full `ScenarioSpec` JSON object.
fn resolve_scenario(entry: &Json) -> Result<ScenarioSpec, String> {
    match entry {
        Json::Str(text) => {
            let presets = ScenarioSpec::paper_presets();
            match text.parse::<usize>() {
                Ok(index) if index < presets.len() => Ok(presets[index].clone()),
                Ok(index) => Err(format!(
                    "preset index {index} out of range (0..={})",
                    presets.len() - 1
                )),
                Err(_) => match ScenarioSpec::preset_by_name(text) {
                    Some(preset) => Ok(preset),
                    None => ScenarioSpec::parse_compact(text).map_err(|e| e.to_string()),
                },
            }
        }
        Json::Obj(_) => ScenarioSpec::from_json(entry).map_err(|e| e.to_string()),
        _ => Err("scenario entries must be strings or objects".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_an_empty_job() {
        let job = JobSpec::from_json(&Json::obj(vec![])).unwrap();
        assert_eq!(job.scenarios, ScenarioSpec::paper_presets());
        assert_eq!(job.strategies, StrategyKind::ALL.to_vec());
        assert_eq!(job.seeds, vec![0, 1, 2]);
        assert_eq!(job.steps, 1000);
        assert_eq!(job.reward_shaping, RewardShaping::None);
        assert_eq!(job.surrogate, None);
        // Inactive shaping and guidance stay out of the submit payload.
        let doc = job.to_json();
        assert!(doc.get("reward_shaping").is_none() && doc.get("surrogate").is_none());
    }

    #[test]
    fn job_json_round_trips() {
        let doc = Json::parse(
            r#"{"scenarios":["0","lat<100; w=acc:1.0"],"strategies":"random,nsga",
                "seeds":[3,4],"steps":120,"population":8,
                "reward_shaping":"hv:0.5","surrogate":"4:16"}"#,
        )
        .unwrap();
        let job = JobSpec::from_json(&doc).unwrap();
        assert_eq!(job.shard_count(), 2 * 2 * 2);
        assert_eq!(job.strategies[1], StrategyKind::Nsga { population: 8 });
        // Shaping and guidance are written back in the grammar they were
        // read in.
        let payload = job.to_json();
        assert_eq!(payload.get("reward_shaping"), doc.get("reward_shaping"));
        assert_eq!(payload.get("surrogate"), doc.get("surrogate"));
        assert_eq!(JobSpec::from_json(&payload).unwrap(), job);
    }

    #[test]
    fn validation_rejects_bad_jobs() {
        let cases = [
            (r#"{"scenarios":[]}"#, "empty"),
            (r#"{"scenarios":["99"]}"#, "out of range"),
            (r#"{"strategies":["warp-drive"]}"#, "unknown strategy"),
            (r#"{"steps":0}"#, ">= 1"),
            (r#"{"steps":99000000}"#, "cap"),
            (r#"{"seeds":[-1]}"#, "non-negative"),
            (r#"{"scenarios":["0","0"]}"#, ""),
            (r#"{"repeats":0}"#, ">= 1"),
            (r#"{"population":1}"#, ">= 2"),
            (r#"{"generations":0}"#, ">= 1"),
            (r#"{"reward_shaping":"hv:-1"}"#, "positive"),
            (r#"{"reward_shaping":"hv:1e308"}"#, "at most 1e6"),
            (r#"{"surrogate":"1:16"}"#, "at least 2"),
            (r#"{"surrogate":"1000001:16"}"#, "cap 1000000"),
            (r#"{"seeds":[1e30]}"#, "not below 2^53"),
            (r#"{"seeds":[9007199254740992]}"#, "not below 2^53"),
            (
                r#"{"seed_base":9007199254740990,"repeats":3}"#,
                "not below 2^53",
            ),
            (r#"{"surrogate":4}"#, "must be a string"),
        ];
        for (text, needle) in cases {
            let doc = Json::parse(text).unwrap();
            let err = JobSpec::from_json(&doc).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn generations_express_the_budget_for_nsga() {
        let doc =
            Json::parse(r#"{"strategies":["nsga"],"population":10,"generations":7}"#).unwrap();
        let job = JobSpec::from_json(&doc).unwrap();
        assert_eq!(job.steps, 70);
    }
}
