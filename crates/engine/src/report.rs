//! Campaign results: per-shard outcomes, merged Pareto fronts, and export.

use std::io::{self, Write};
use std::path::Path;

use codesign_accel::AcceleratorConfig;
use codesign_core::report::{fmt_f, TextTable};
use codesign_core::{reward_curve, BestPoint, GenerationStat, MetricId, SearchOutcome, StepRecord};
use codesign_moo::{AxisSchema, DynParetoFront};
use codesign_nasbench::{CellSpec, Json};

use crate::cache::CacheStats;
use crate::campaign::{ShardSpec, StrategyKind};

/// The distilled outcome of one shard (the full per-step history is only
/// retained under `Campaign::record_histories` — campaigns run thousands
/// of shards).
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Which grid cell this was.
    pub spec: ShardSpec,
    /// Steps actually executed.
    pub steps: usize,
    /// Steps meeting every scenario constraint.
    pub feasible_steps: usize,
    /// Steps proposing invalid/unknown CNNs.
    pub invalid_steps: usize,
    /// Best feasible point of the run.
    pub best: Option<BestPoint>,
    /// Pareto front of every valid point the run visited, in the shard
    /// scenario's own signed metric axes.
    pub front: DynParetoFront<(CellSpec, AcceleratorConfig)>,
    /// Dominated hypervolume of [`ShardResult::front`] against the shard
    /// scenario's fixed reference box
    /// ([`CompiledScenario::hypervolume_reference`]) — the scalar front
    /// quality every shard exports, comparable across strategies of the
    /// same scenario.
    ///
    /// [`CompiledScenario::hypervolume_reference`]:
    /// codesign_core::CompiledScenario::hypervolume_reference
    pub hypervolume: f64,
    /// Total reward-shaping bonus paid out over the run
    /// (`Σ weight × ΔHV` under
    /// [`RewardShaping::HypervolumeGradient`]; `0.0` unshaped). Kept
    /// separate from `best.reward` — best tracking always uses the
    /// unshaped scalar, so shaped and unshaped campaigns stay comparable.
    ///
    /// [`RewardShaping::HypervolumeGradient`]:
    /// codesign_core::RewardShaping::HypervolumeGradient
    pub shaping_bonus: f64,
    /// Surrogate predict-then-verify counters, when the shard ran guided
    /// (`Campaign::with_surrogate` on a strategy that supports guidance);
    /// `None` on unguided shards.
    pub surrogate: Option<codesign_core::SurrogateStats>,
    /// Per-generation front snapshots (size + hypervolume), for population
    /// strategies that record them (`nsga`); empty otherwise.
    pub generations: Vec<GenerationStat>,
    /// The full per-step history, when the campaign recorded histories.
    pub history: Option<Vec<StepRecord>>,
    /// Shared-cache lookups this shard answered from entries preloaded
    /// off disk (work a *previous invocation* saved this one).
    pub cache_warm_hits: u64,
    /// Shared-cache lookups answered from entries other shards of *this*
    /// campaign computed.
    pub cache_cold_hits: u64,
    /// Shared-cache lookups this shard had to compute itself.
    pub cache_misses: u64,
    /// Wall-clock of the shard, whole ms (informational; not
    /// deterministic). Kept for export compatibility; derived from
    /// [`ShardResult::wall_us`], the authoritative measurement.
    pub wall_ms: u64,
    /// Wall-clock of the shard, µs (informational; not deterministic).
    /// Keeps sub-millisecond shards, which truncate to `wall_ms == 0`,
    /// measurable.
    pub wall_us: u64,
}

impl ShardResult {
    /// Distills a [`SearchOutcome`] into the campaign record, keeping the
    /// raw history only when asked. Cache attribution starts zeroed; the
    /// driver fills it in from the shard's cache view. Timing is taken in
    /// microseconds; the millisecond field is derived.
    #[must_use]
    pub fn from_outcome(
        spec: ShardSpec,
        outcome: SearchOutcome,
        wall_us: u64,
        keep_history: bool,
    ) -> Self {
        // `hypervolume_cached` answers from the front's incremental tracker
        // when one is live (NSGA generation snapshots and shaped runs seed
        // it); fronts without a tracker fall back to the scratch kernel.
        // Either path is a pure function of the shard's insert sequence, so
        // the exported scalar stays deterministic across worker counts.
        let hypervolume = outcome
            .front
            .hypervolume_cached(&spec.scenario.hypervolume_reference());
        Self {
            spec,
            steps: outcome.history.len(),
            feasible_steps: outcome.feasible_steps,
            invalid_steps: outcome.invalid_steps,
            best: outcome.best,
            front: outcome.front,
            hypervolume,
            shaping_bonus: outcome.shaping_bonus,
            surrogate: outcome.surrogate,
            generations: outcome.generations,
            history: keep_history.then_some(outcome.history),
            cache_warm_hits: 0,
            cache_cold_hits: 0,
            cache_misses: 0,
            wall_ms: wall_us / 1000,
            wall_us,
        }
    }

    /// The shard's Fig. 6 smoothed reward curve, when its history was
    /// recorded.
    #[must_use]
    pub fn reward_curve(&self, window: usize) -> Option<Vec<f64>> {
        self.history.as_deref().map(|h| reward_curve(h, window))
    }

    /// The shard as one JSONL record.
    ///
    /// The `metrics` field names the shard scenario's own axes, in order;
    /// `front` rows and the `best` object's metric entries are written in
    /// exactly those axes (signed convention for `front`, natural units
    /// for `best`), so a power-capped scenario exports `power` columns —
    /// never a borrowed triple. `hypervolume` scores the final front
    /// against the scenario's reference box, and population strategies add
    /// a `generations` array whose entries each carry their own
    /// per-generation `hypervolume` — the front-quality-over-time curve.
    /// `reward_shaping` records the shard's shaping mode (`"none"` or
    /// `"hv:<weight>"`) and `hv_bonus` the total shaping bonus paid out,
    /// so shaped runs are self-describing in the export. `surrogate`
    /// records the guidance mode (`"k:R"` or `"off"`), `verify_rate` the
    /// fraction of produced candidates that received real evaluations
    /// (1.0 unguided), and `pred_mae` the mean absolute error of the
    /// guide's predicted rewards against the verified real rewards (`null`
    /// until the guide has made predictions).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let axes = self.front.schema().clone();
        let best = match &self.best {
            Some(b) => {
                let mut fields: Vec<(&str, Json)> = axes
                    .names()
                    .iter()
                    .map(|name| {
                        let metric =
                            MetricId::from_name(name).expect("schema names are registry names");
                        (name.as_str(), Json::Num(metric.extract(&b.evaluation)))
                    })
                    .collect();
                fields.push(("reward", Json::Num(b.reward)));
                fields.push(("step", Json::Num(b.step as f64)));
                Json::obj(fields)
            }
            None => Json::Null,
        };
        let front = self
            .front
            .iter()
            .map(|(m, _)| Json::Arr(m.iter().map(|&x| Json::Num(x)).collect()))
            .collect();
        let generations = self
            .generations
            .iter()
            .map(|g| {
                Json::obj(vec![
                    ("generation", Json::Num(g.generation as f64)),
                    ("evaluations", Json::Num(g.evaluations as f64)),
                    ("front", Json::Num(g.front_size as f64)),
                    ("hypervolume", Json::Num(g.hypervolume)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("type", Json::Str("shard".into())),
            ("index", Json::Num(self.spec.index as f64)),
            ("scenario", Json::Str(self.spec.scenario_name().into())),
            ("strategy", Json::Str(self.spec.strategy.name().into())),
            ("seed", Json::Num(self.spec.seed as f64)),
            ("steps", Json::Num(self.steps as f64)),
            ("feasible_steps", Json::Num(self.feasible_steps as f64)),
            ("invalid_steps", Json::Num(self.invalid_steps as f64)),
            (
                "metrics",
                Json::Arr(axes.names().iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            ("best", best),
            ("front", Json::Arr(front)),
            ("hypervolume", Json::Num(self.hypervolume)),
            (
                "reward_shaping",
                Json::Str(self.spec.scenario.reward_shaping().to_string()),
            ),
            ("hv_bonus", Json::Num(self.shaping_bonus)),
            (
                "surrogate",
                Json::Str(match (self.spec.surrogate, &self.surrogate) {
                    (Some(cfg), Some(_)) => cfg.to_string(),
                    _ => "off".to_owned(),
                }),
            ),
            (
                "verify_rate",
                Json::Num(self.surrogate.as_ref().map_or(1.0, |s| s.verify_rate())),
            ),
            (
                "pred_mae",
                match self.surrogate.as_ref().map(|s| s.pred_mae()) {
                    Some(mae) if mae.is_finite() => Json::Num(mae),
                    _ => Json::Null,
                },
            ),
            (
                "surrogate_train_rounds",
                Json::Num(self.surrogate.as_ref().map_or(0, |s| s.train_rounds) as f64),
            ),
            ("generations", Json::Arr(generations)),
            ("cache_warm_hits", Json::Num(self.cache_warm_hits as f64)),
            ("cache_cold_hits", Json::Num(self.cache_cold_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("wall_ms", Json::Num(self.wall_ms as f64)),
            ("wall_us", Json::Num(self.wall_us as f64)),
        ])
    }
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-shard results in grid order (stable across worker counts).
    pub shards: Vec<ShardResult>,
    /// Shared-cache statistics, when the cache was enabled.
    pub cache: Option<CacheStats>,
    /// Worker threads the driver used (informational).
    pub workers: usize,
    /// Total campaign wall-clock, whole ms (informational; not
    /// deterministic). Derived from [`CampaignReport::wall_us`].
    pub wall_ms: u64,
    /// Total campaign wall-clock, µs (informational; not deterministic).
    pub wall_us: u64,
    /// Whether the campaign was cancelled mid-run (graceful shutdown or an
    /// aborted server job). When set, [`CampaignReport::shards`] holds only
    /// the shards that completed — each still bit-identical to its
    /// uncancelled counterpart — and the scheduled-but-skipped rest are
    /// absent.
    pub cancelled: bool,
}

impl CampaignReport {
    /// The distinct scenario names present, in shard order — the report's
    /// scenario provenance (also stamped into persisted caches by the
    /// campaign CLI).
    #[must_use]
    pub fn scenario_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.shards {
            let name = shard.spec.scenario_name();
            if !names.iter().any(|n| n == name) {
                names.push(name.to_owned());
            }
        }
        names
    }

    /// The axis schema of the named scenario's fronts, when any of its
    /// shards ran.
    #[must_use]
    pub fn scenario_schema(&self, scenario: &str) -> Option<AxisSchema> {
        self.shards
            .iter()
            .find(|s| s.spec.scenario_name() == scenario)
            .map(|s| s.front.schema().clone())
    }

    /// Every distinct metric axis named by any shard's scenario, in
    /// first-appearance order — the dynamic column set of the CSV export.
    #[must_use]
    pub fn metric_columns(&self) -> Vec<String> {
        let mut columns: Vec<String> = Vec::new();
        for shard in &self.shards {
            for name in shard.front.schema().names() {
                if !columns.iter().any(|c| c == name) {
                    columns.push(name.clone());
                }
            }
        }
        columns
    }

    /// Merges the Pareto fronts of every shard of the named scenario into
    /// one front — exactly the front of the concatenation of those shards'
    /// visited points (dominance filtering is order-insensitive in its
    /// result set), in the scenario's own metric axes. An unknown scenario
    /// name yields an empty, axis-less front.
    #[must_use]
    pub fn merged_front(&self, scenario: &str) -> DynParetoFront<(CellSpec, AcceleratorConfig)> {
        let schema = self
            .scenario_schema(scenario)
            .unwrap_or_else(|| AxisSchema::new(std::iter::empty::<String>()));
        let mut merged = DynParetoFront::new(schema);
        for shard in self
            .shards
            .iter()
            .filter(|s| s.spec.scenario_name() == scenario)
        {
            for (m, p) in shard.front.iter() {
                merged.insert_with(m, || p.clone());
            }
        }
        merged
    }

    /// The best feasible point any shard of the named scenario found, by
    /// reward.
    #[must_use]
    pub fn best_point(&self, scenario: &str) -> Option<&BestPoint> {
        self.shards
            .iter()
            .filter(|s| s.spec.scenario_name() == scenario)
            .filter_map(|s| s.best.as_ref())
            .max_by(|a, b| {
                a.reward
                    .partial_cmp(&b.reward)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Mean smoothed reward curve across every recorded shard of
    /// `(scenario, strategy)` — the Fig. 6 series. `None` when no matching
    /// shard recorded its history (`Campaign::record_histories` off). The
    /// curve is truncated to the shortest matching run.
    #[must_use]
    pub fn average_reward_curve(
        &self,
        scenario: &str,
        strategy: StrategyKind,
        window: usize,
    ) -> Option<Vec<f64>> {
        let curves: Vec<Vec<f64>> = self
            .shards
            .iter()
            .filter(|s| s.spec.scenario_name() == scenario && s.spec.strategy == strategy)
            .filter_map(|s| s.reward_curve(window))
            .collect();
        if curves.is_empty() {
            return None;
        }
        let len = curves.iter().map(Vec::len).min().unwrap_or(0);
        Some(
            (0..len)
                .map(|i| curves.iter().map(|c| c[i]).sum::<f64>() / curves.len() as f64)
                .collect(),
        )
    }

    /// The distinct `(scenario, strategy)` pairs present, in shard order.
    fn groups(&self) -> Vec<(String, StrategyKind)> {
        let mut groups = Vec::new();
        for shard in &self.shards {
            let key = (shard.spec.scenario_name().to_owned(), shard.spec.strategy);
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        groups
    }

    /// A per-(scenario, strategy) summary table. The `axes` column names
    /// the metric axes each scenario's front is collected in; `hv` is the
    /// dominated hypervolume of the group's merged front against the
    /// scenario's reference box (comparable across strategies of one
    /// scenario — the strategy-comparison scalar).
    #[must_use]
    pub fn summary_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "scenario",
            "strategy",
            "runs",
            "feasible runs",
            "best reward",
            "best lat [ms]",
            "best acc [%]",
            "front",
            "hv",
            "axes",
        ]);
        for (scenario, strategy) in self.groups() {
            let members: Vec<&ShardResult> = self
                .shards
                .iter()
                .filter(|s| s.spec.scenario_name() == scenario && s.spec.strategy == strategy)
                .collect();
            let feasible = members.iter().filter(|s| s.best.is_some()).count();
            let best = members
                .iter()
                .filter_map(|s| s.best.as_ref())
                .max_by(|a, b| {
                    a.reward
                        .partial_cmp(&b.reward)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let schema = members
                .first()
                .map(|m| m.front.schema().clone())
                .unwrap_or_else(|| AxisSchema::new(std::iter::empty::<String>()));
            let mut group_front = DynParetoFront::new(schema.clone());
            for member in &members {
                for (m, p) in member.front.iter() {
                    group_front.insert_with(m, || p.clone());
                }
            }
            let group_hv = members.first().map_or(0.0, |m| {
                group_front.hypervolume(&m.spec.scenario.hypervolume_reference())
            });
            table.add_row(vec![
                scenario,
                strategy.name().into(),
                members.len().to_string(),
                feasible.to_string(),
                best.map_or("-".into(), |b| fmt_f(b.reward, 4)),
                best.map_or("-".into(), |b| fmt_f(b.evaluation.latency_ms, 1)),
                best.map_or("-".into(), |b| fmt_f(b.evaluation.accuracy * 100.0, 2)),
                group_front.len().to_string(),
                fmt_f(group_hv, 4),
                schema.to_string(),
            ]);
        }
        table
    }

    /// Per-scenario shared-cache attribution, summed over each scenario's
    /// shards: `(scenario, warm_hits, cold_hits, misses)` in
    /// first-appearance order. Tells a mixed campaign *which* scenario's
    /// evaluations the cache is actually absorbing — campaign-wide totals
    /// can hide one scenario missing every lookup.
    #[must_use]
    pub fn cache_by_scenario(&self) -> Vec<(String, u64, u64, u64)> {
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for shard in &self.shards {
            let name = shard.spec.scenario_name();
            let row = match rows.iter_mut().find(|(n, ..)| n == name) {
                Some(row) => row,
                None => {
                    rows.push((name.to_owned(), 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += shard.cache_warm_hits;
            row.2 += shard.cache_cold_hits;
            row.3 += shard.cache_misses;
        }
        rows
    }

    /// The campaign-level header record of the JSONL export.
    #[must_use]
    pub fn header_json(&self) -> Json {
        let cache = match &self.cache {
            Some(stats) => Json::obj(vec![
                ("hits", Json::Num(stats.hits as f64)),
                ("warm_hits", Json::Num(stats.warm_hits as f64)),
                ("misses", Json::Num(stats.misses as f64)),
                ("inserts", Json::Num(stats.inserts as f64)),
                ("preloaded", Json::Num(stats.preloaded as f64)),
                ("entries", Json::Num(stats.entries as f64)),
                ("hit_rate", Json::Num(stats.hit_rate())),
                ("accuracy_hits", Json::Num(stats.accuracy_hits as f64)),
                (
                    "accuracy_warm_hits",
                    Json::Num(stats.accuracy_warm_hits as f64),
                ),
                ("accuracy_misses", Json::Num(stats.accuracy_misses as f64)),
                ("accuracy_entries", Json::Num(stats.accuracy_entries as f64)),
            ]),
            None => Json::Null,
        };
        let scenarios = self
            .scenario_names()
            .into_iter()
            .map(|name| {
                let axes = self.scenario_schema(&name).map_or_else(Vec::new, |schema| {
                    schema
                        .names()
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect()
                });
                Json::obj(vec![
                    ("name", Json::Str(name)),
                    ("metrics", Json::Arr(axes)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("type", Json::Str("campaign".into())),
            ("shards", Json::Num(self.shards.len() as f64)),
            ("scenarios", Json::Arr(scenarios)),
            ("workers", Json::Num(self.workers as f64)),
            ("wall_ms", Json::Num(self.wall_ms as f64)),
            ("wall_us", Json::Num(self.wall_us as f64)),
            ("cancelled", Json::Bool(self.cancelled)),
            ("cache", cache),
            (
                "cache_by_scenario",
                Json::Arr(
                    self.cache_by_scenario()
                        .into_iter()
                        .map(|(name, warm, cold, misses)| {
                            Json::obj(vec![
                                ("scenario", Json::Str(name)),
                                ("warm_hits", Json::Num(warm as f64)),
                                ("cold_hits", Json::Num(cold as f64)),
                                ("misses", Json::Num(misses as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the campaign as JSON Lines: one header record, then one
    /// record per shard.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "{}", self.header_json())?;
        for shard in &self.shards {
            writeln!(writer, "{}", shard.to_json())?;
        }
        Ok(())
    }

    /// Writes one CSV row per shard through the standard report writer.
    ///
    /// The best-point columns are derived from the campaign's scenarios:
    /// one `best_<metric>` column per metric axis any scenario declares,
    /// in first-appearance order and natural units. A shard fills only the
    /// columns of its *own* scenario's axes — a power-capped sweep exports
    /// `best_power`, and no `best_area_mm2` column exists unless some
    /// scenario optimizes area. `front_axes` records each shard's axis
    /// schema and `hypervolume` its final front quality against the
    /// scenario's reference box.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut writer = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_csv_to(&mut writer)?;
        writer.flush()
    }

    /// Streaming form of [`CampaignReport::write_csv`]: emits the header
    /// and then one row per shard directly into `writer`, never holding
    /// more than a single row in memory — a 10k-shard campaign exports in
    /// O(row), not O(campaign). Commas inside cells become semicolons, as
    /// in `codesign_core::report::write_csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_csv_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let metric_columns = self.metric_columns();
        let mut headers: Vec<String> = [
            "shard",
            "scenario",
            "strategy",
            "seed",
            "steps",
            "feasible_steps",
            "invalid_steps",
            "best_reward",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
        headers.extend(metric_columns.iter().map(|m| format!("best_{m}")));
        headers.extend(
            [
                "front_size",
                "front_axes",
                "hypervolume",
                "hv_bonus",
                "surrogate",
                "verify_rate",
                "pred_mae",
                "cache_warm_hits",
                "cache_cold_hits",
                "cache_misses",
                "wall_ms",
                "wall_us",
            ]
            .into_iter()
            .map(str::to_owned),
        );
        writeln!(writer, "{}", headers.join(","))?;
        let mut row: Vec<String> = Vec::with_capacity(headers.len());
        for s in &self.shards {
            row.clear();
            let best = s.best.as_ref();
            let schema = s.front.schema();
            row.extend([
                s.spec.index.to_string(),
                s.spec.scenario_name().into(),
                s.spec.strategy.name().into(),
                s.spec.seed.to_string(),
                s.steps.to_string(),
                s.feasible_steps.to_string(),
                s.invalid_steps.to_string(),
                best.map_or("nan".into(), |b| fmt_f(b.reward, 6)),
            ]);
            for column in &metric_columns {
                let value = match (best, schema.position(column)) {
                    (Some(b), Some(_)) => {
                        let metric =
                            MetricId::from_name(column).expect("schema names are registry names");
                        fmt_f(metric.extract(&b.evaluation), 6)
                    }
                    _ => "nan".into(),
                };
                row.push(value);
            }
            row.extend([
                s.front.len().to_string(),
                // '|'-separated: a comma would split the CSV cell.
                schema.names().join("|"),
                fmt_f(s.hypervolume, 6),
                fmt_f(s.shaping_bonus, 6),
                match (s.spec.surrogate, &s.surrogate) {
                    (Some(cfg), Some(_)) => cfg.to_string(),
                    _ => "off".into(),
                },
                fmt_f(s.surrogate.as_ref().map_or(1.0, |st| st.verify_rate()), 6),
                match s.surrogate.as_ref().map(|st| st.pred_mae()) {
                    Some(mae) if mae.is_finite() => fmt_f(mae, 6),
                    _ => "nan".into(),
                },
                s.cache_warm_hits.to_string(),
                s.cache_cold_hits.to_string(),
                s.cache_misses.to_string(),
                s.wall_ms.to_string(),
                s.wall_us.to_string(),
            ]);
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(writer, ",")?;
                }
                write!(writer, "{}", cell.replace(',', ";"))?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign: {} shards on {} workers in {:.2}s{}",
            self.shards.len(),
            self.workers,
            self.wall_ms as f64 / 1000.0,
            if self.cancelled {
                " [CANCELLED: partial results]"
            } else {
                ""
            }
        )?;
        if let Some(stats) = &self.cache {
            writeln!(f, "shared cache: {stats}")?;
        }
        write!(f, "{}", self.summary_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, ShardedDriver};
    use codesign_core::{CodesignSpace, ScenarioSpec};
    use codesign_nasbench::NasbenchDatabase;
    use std::sync::Arc;

    fn tiny_campaign() -> Campaign {
        Campaign::new(CodesignSpace::with_max_vertices(4))
            .scenarios(vec![
                ScenarioSpec::unconstrained(),
                ScenarioSpec::one_constraint(),
            ])
            .strategies(vec![StrategyKind::Random])
            .seeds(vec![0, 1])
            .steps(60)
    }

    fn tiny_report() -> CampaignReport {
        ShardedDriver::new(2).run(&tiny_campaign(), &Arc::new(NasbenchDatabase::exhaustive(4)))
    }

    #[test]
    fn merged_front_is_scenario_scoped_and_non_dominated() {
        let report = tiny_report();
        let front = report.merged_front("Unconstrained");
        assert!(!front.is_empty());
        assert_eq!(front.schema().names(), ["area", "lat", "acc"]);
        let points: Vec<&[f64]> = front.iter().map(|(m, _)| m).collect();
        for (i, a) in points.iter().enumerate() {
            for (j, b) in points.iter().enumerate() {
                if i != j {
                    assert!(!codesign_moo::dominates_dyn(a, b), "{i} dominates {j}");
                }
            }
        }
        // An unknown scenario yields an empty, axis-less front.
        let missing = report.merged_front("nope");
        assert!(missing.is_empty() && missing.schema().is_empty());
    }

    #[test]
    fn best_point_maximizes_reward_within_scenario() {
        let report = tiny_report();
        let best = report.best_point("Unconstrained").expect("feasible runs");
        for shard in report
            .shards
            .iter()
            .filter(|s| s.spec.scenario_name() == "Unconstrained")
        {
            if let Some(b) = &shard.best {
                assert!(b.reward <= best.reward);
            }
        }
    }

    #[test]
    fn jsonl_export_parses_line_by_line() {
        let report = tiny_report();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + report.shards.len());
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(header.get("type").and_then(Json::as_str), Some("campaign"));
        assert_eq!(
            header.get("shards").and_then(Json::as_usize),
            Some(report.shards.len())
        );
        assert!(header.get("scenarios").and_then(Json::as_arr).is_some());
        for line in &lines[1..] {
            let shard = Json::parse(line).unwrap();
            assert_eq!(shard.get("type").and_then(Json::as_str), Some("shard"));
            assert!(shard.get("front").and_then(Json::as_arr).is_some());
            // Every shard names its scenario's own metric axes.
            let metrics = shard.get("metrics").and_then(Json::as_arr).unwrap();
            let names: Vec<&str> = metrics.iter().filter_map(Json::as_str).collect();
            assert_eq!(names, ["area", "lat", "acc"]);
            // Front rows have exactly that many coordinates.
            for row in shard.get("front").and_then(Json::as_arr).unwrap() {
                assert_eq!(row.as_arr().unwrap().len(), names.len());
            }
            // Surrogate fields are always present; this campaign is unguided.
            assert_eq!(shard.get("surrogate").and_then(Json::as_str), Some("off"));
            assert_eq!(shard.get("verify_rate").and_then(Json::as_f64), Some(1.0));
            assert!(matches!(shard.get("pred_mae"), Some(Json::Null)));
        }
    }

    #[test]
    fn csv_export_has_one_row_per_shard() {
        let report = tiny_report();
        let dir = std::env::temp_dir().join("codesign_engine_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.csv");
        report.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 1 + report.shards.len());
        assert!(content.starts_with("shard,scenario,strategy"));
        // Best-point columns are the scenarios' own metric axes.
        let header = content.lines().next().unwrap();
        assert!(header.contains("best_area,best_lat,best_acc"));
        assert!(!header.contains("best_power"), "no scenario declares power");
        assert!(header.contains("front_axes"));
        assert!(header.contains("surrogate,verify_rate,pred_mae"));
    }

    #[test]
    fn display_summarizes_groups() {
        let report = tiny_report();
        let text = report.to_string();
        assert!(text.contains("campaign: 4 shards on 2 workers"));
        assert!(text.contains("shared cache:"));
        assert!(text.contains("Unconstrained"));
        assert!(text.contains("random"));
    }

    #[test]
    fn histories_are_off_by_default_and_averaged_when_on() {
        let db = Arc::new(NasbenchDatabase::exhaustive(4));
        let cold = ShardedDriver::new(2).run(&tiny_campaign(), &db);
        assert!(cold.shards.iter().all(|s| s.history.is_none()));
        assert!(cold
            .average_reward_curve("Unconstrained", StrategyKind::Random, 10)
            .is_none());

        let recorded = ShardedDriver::new(2).run(&tiny_campaign().record_histories(true), &db);
        for shard in &recorded.shards {
            let history = shard.history.as_ref().expect("history retained");
            assert_eq!(history.len(), shard.steps);
        }
        let curve = recorded
            .average_reward_curve("Unconstrained", StrategyKind::Random, 10)
            .expect("two recorded runs");
        assert_eq!(curve.len(), 60);
        assert!(curve.iter().all(|v| v.is_finite()));
        // Averaging two identical-length curves is the mean at every step.
        let singles: Vec<Vec<f64>> = recorded
            .shards
            .iter()
            .filter(|s| {
                s.spec.scenario_name() == "Unconstrained" && s.spec.strategy == StrategyKind::Random
            })
            .map(|s| s.reward_curve(10).unwrap())
            .collect();
        assert_eq!(singles.len(), 2);
        for (i, v) in curve.iter().enumerate() {
            let mean = (singles[0][i] + singles[1][i]) / 2.0;
            assert!((v - mean).abs() < 1e-12);
        }
        // Recording histories never changes the search itself.
        for (a, b) in cold.shards.iter().zip(recorded.shards.iter()) {
            assert_eq!(a.best, b.best);
        }
    }

    #[test]
    fn two_metric_scenario_exports_exactly_its_own_axes() {
        let scenario = ScenarioSpec::builder("power-capped")
            .weight(MetricId::Accuracy, 1.0)
            .constraint(MetricId::PowerW, 6.0)
            .build()
            .expect("valid scenario");
        let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
            .scenarios(vec![scenario])
            .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
            .seeds(vec![0])
            .steps(80);
        let db = Arc::new(NasbenchDatabase::exhaustive(4));
        let report = ShardedDriver::new(2).run(&campaign, &db);

        // Fronts carry exactly the declared axes.
        let merged = report.merged_front("power-capped");
        assert_eq!(merged.schema().names(), ["acc", "power"]);
        assert!(!merged.is_empty());
        for (m, _) in merged.iter() {
            assert_eq!(m.len(), 2);
            assert!(m[0] > 0.0, "signed accuracy is positive");
            assert!(m[1] < 0.0, "signed power is negated");
        }
        assert_eq!(report.metric_columns(), ["acc", "power"]);

        // JSONL: the shard records name the two axes and nothing else.
        let mut jsonl = Vec::new();
        report.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert!(text.contains(r#""metrics":["acc","power"]"#));
        for line in text.lines().skip(1) {
            let shard = Json::parse(line).unwrap();
            let names: Vec<&str> = shard
                .get("metrics")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_str)
                .collect();
            assert_eq!(names, ["acc", "power"]);
            for row in shard.get("front").and_then(Json::as_arr).unwrap() {
                assert_eq!(row.as_arr().unwrap().len(), 2);
            }
            // The best-point record is written in the scenario's own metrics.
            let best = shard.get("best").unwrap();
            if !matches!(best, Json::Null) {
                assert!(best.get("acc").is_some() && best.get("power").is_some());
                assert!(best.get("area_mm2").is_none() && best.get("latency_ms").is_none());
            }
        }

        // CSV: the header carries the scenario's own columns — power, not area.
        let dir = std::env::temp_dir().join("codesign_engine_report_axes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("power_capped.csv");
        report.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let header = content.lines().next().unwrap();
        assert!(header.contains("best_acc") && header.contains("best_power"));
        assert!(!header.contains("best_area") && !header.contains("best_lat"));
        assert!(content.lines().skip(1).all(|row| row.contains("acc|power")));
    }
}
