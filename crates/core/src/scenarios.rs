//! Declarative search scenarios: named metrics, weights, and constraints.
//!
//! The paper's §III-C experiments are three fixed reward functions over the
//! metric triple `(−area, −lat, acc)` (Eq. 3–4). This module generalizes
//! them into an *open* objective space:
//!
//! * [`MetricId`] — the named-metric registry the evaluator exposes:
//!   accuracy, latency, area, power, and derived metrics like
//!   performance-per-area;
//! * [`ScenarioSpec`] — a declarative scenario: a name plus per-metric
//!   weight / normalization / threshold and a punishment policy. Validated
//!   at construction, JSON round-trippable (versioned, like the evaluation
//!   cache format), and parseable from a compact CLI grammar
//!   (`"lat<100; w=acc:0.9,area:0.1"`);
//! * [`CompiledScenario`] — the executable form: metric selectors plus a
//!   runtime-dimension [`DynRewardSpec`], fed straight from
//!   [`PairEvaluation`]s during search.
//!
//! The paper's three experiments are [`ScenarioSpec::paper_presets`]; their
//! compiled rewards are pinned bit for bit by this module's tests.
//!
//! All normalization ranges and thresholds are written in *natural* units
//! (milliseconds, mm², watts); the all-maximize signing of Eq. 4 is an
//! internal detail of compilation.
//!
//! # Examples
//!
//! A scenario outside the paper's three presets — maximize accuracy under a
//! 6 W power cap:
//!
//! ```
//! use codesign_core::{MetricId, ScenarioSpec};
//!
//! # fn main() -> Result<(), codesign_core::ScenarioError> {
//! let spec = ScenarioSpec::builder("power-capped")
//!     .weight(MetricId::Accuracy, 1.0)
//!     .constraint(MetricId::PowerW, 6.0) // power < 6 W
//!     .build()?;
//! let compiled = spec.compile();
//! assert_eq!(compiled.name(), "power-capped");
//! # Ok(())
//! # }
//! ```

use std::fmt;

use codesign_moo::{
    AxisSchema, DynParetoFront, DynRewardSpec, LinearNorm, MetricVector, Punishment, RewardOutcome,
};
use codesign_nasbench::Json;

use crate::evaluator::PairEvaluation;
use crate::search::RewardShaping;

/// The scenario file-format marker (see [`scenarios_to_document`]).
pub const SCENARIO_FORMAT: &str = "codesign-scenarios";

/// The current scenario file-format version.
pub const SCENARIO_VERSION: u64 = 1;

/// A named metric the evaluator can produce for every valid
/// `(CNN, accelerator)` pair — the registry scenario objectives select
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricId {
    /// Mean test accuracy of the CNN (0..1, maximized).
    Accuracy,
    /// Single-image latency on the accelerator, ms (minimized).
    LatencyMs,
    /// Accelerator silicon area, mm² (minimized).
    AreaMm2,
    /// Worst-case accelerator power draw, W (minimized).
    PowerW,
    /// Throughput per silicon area, images/s/cm² (maximized; §IV's
    /// efficiency metric).
    PerfPerArea,
}

impl MetricId {
    /// Every registered metric.
    pub const ALL: [MetricId; 5] = [
        MetricId::Accuracy,
        MetricId::LatencyMs,
        MetricId::AreaMm2,
        MetricId::PowerW,
        MetricId::PerfPerArea,
    ];

    /// Canonical short name (used in JSON, the CLI grammar, and exports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MetricId::Accuracy => "acc",
            MetricId::LatencyMs => "lat",
            MetricId::AreaMm2 => "area",
            MetricId::PowerW => "power",
            MetricId::PerfPerArea => "perf_per_area",
        }
    }

    /// Parses a canonical name or a common alias.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "acc" | "accuracy" => Some(MetricId::Accuracy),
            "lat" | "latency" | "latency_ms" => Some(MetricId::LatencyMs),
            "area" | "area_mm2" => Some(MetricId::AreaMm2),
            "power" | "power_w" => Some(MetricId::PowerW),
            "perf_per_area" | "ppa" => Some(MetricId::PerfPerArea),
            _ => None,
        }
    }

    /// `true` when larger is better; minimized metrics are negated into the
    /// all-maximize convention at compile time.
    #[must_use]
    pub fn maximize(&self) -> bool {
        matches!(self, MetricId::Accuracy | MetricId::PerfPerArea)
    }

    /// The metric's value in natural units.
    #[must_use]
    pub fn extract(&self, eval: &PairEvaluation) -> f64 {
        match self {
            MetricId::Accuracy => eval.accuracy,
            MetricId::LatencyMs => eval.latency_ms,
            MetricId::AreaMm2 => eval.area_mm2,
            MetricId::PowerW => eval.power_w,
            MetricId::PerfPerArea => eval.perf_per_area(),
        }
    }

    /// Whether [`MetricId::extract`] reads `PairEvaluation::latency_ms` —
    /// the one metric input that needs per-pair scheduling rather than a
    /// per-cell or per-config lookup. Enumerators skip the scheduler for
    /// scenarios whose metrics all return `false`. Keep in sync with
    /// `extract` when adding a metric.
    #[must_use]
    pub fn uses_latency(&self) -> bool {
        matches!(self, MetricId::LatencyMs | MetricId::PerfPerArea)
    }

    /// The metric under the all-maximize convention of Eq. 4 (minimized
    /// metrics negated).
    #[must_use]
    pub fn signed(&self, eval: &PairEvaluation) -> f64 {
        let v = self.extract(eval);
        if self.maximize() {
            v
        } else {
            -v
        }
    }

    /// Default normalization range in natural units, covering the observed
    /// spread of the codesign space (the axes of Figs. 4–7).
    #[must_use]
    pub fn default_norm(&self) -> (f64, f64) {
        match self {
            MetricId::Accuracy => (0.80, 0.95),
            MetricId::LatencyMs => (5.0, 400.0),
            MetricId::AreaMm2 => (45.0, 215.0),
            MetricId::PowerW => (0.5, 12.0),
            MetricId::PerfPerArea => (1.0, 120.0),
        }
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One objective of a [`ScenarioSpec`]: a metric with its weight,
/// normalization range, and optional constraint, all in natural units.
///
/// Constructed through [`ScenarioSpecBuilder`]; fields are read-only so an
/// `ObjectiveSpec` is valid by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSpec {
    metric: MetricId,
    weight: f64,
    norm_lo: f64,
    norm_hi: f64,
    /// `true` when the normalization range should be measured from an
    /// enumeration probe sample at campaign start instead of the declared
    /// (or default) bounds.
    norm_auto: bool,
    threshold: Option<f64>,
}

impl ObjectiveSpec {
    /// The metric this objective addresses.
    #[must_use]
    pub fn metric(&self) -> MetricId {
        self.metric
    }

    /// The scalarization weight (0 for constraint-only objectives).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Normalization range in natural units, `lo < hi`. For an unresolved
    /// auto-ranged objective this is the registry default range (the
    /// fallback [`ScenarioSpec::compile`] uses when no probe ran).
    #[must_use]
    pub fn norm(&self) -> (f64, f64) {
        (self.norm_lo, self.norm_hi)
    }

    /// `true` when the range is auto-ranged: campaign drivers measure it
    /// from an enumeration probe sample
    /// ([`ScenarioSpec::resolve_auto_norms`]) before compiling.
    #[must_use]
    pub fn norm_is_auto(&self) -> bool {
        self.norm_auto
    }

    /// The constraint bound in natural units: an upper bound for minimized
    /// metrics (`lat < 100`), a lower bound for maximized ones
    /// (`acc > 0.92`).
    #[must_use]
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// The normalization in the all-maximize (signed) convention.
    fn signed_norm(&self) -> LinearNorm {
        let natural = LinearNorm::new(self.norm_lo, self.norm_hi).expect("validated at build");
        if self.metric.maximize() {
            natural
        } else {
            natural.negated()
        }
    }

    /// The threshold in the all-maximize convention (a lower bound on the
    /// signed metric).
    fn signed_threshold(&self) -> Option<f64> {
        self.threshold
            .map(|t| if self.metric.maximize() { t } else { -t })
    }
}

/// Why a scenario specification (or scenario file) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario name was empty.
    EmptyName,
    /// A metric name did not resolve against the registry.
    UnknownMetric {
        /// The unresolvable name.
        name: String,
    },
    /// The same metric appeared twice in one declaration.
    DuplicateMetric {
        /// The repeated metric.
        metric: MetricId,
    },
    /// Two scenarios in one collection share a display name. Reports and
    /// merged fronts key on the name, so a duplicate would silently pool
    /// unrelated reward functions.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A weight was negative or non-finite (NaN included).
    InvalidWeight {
        /// The offending metric.
        metric: MetricId,
        /// The rejected value.
        value: f64,
    },
    /// No objective was declared at all.
    NoObjectives,
    /// Every declared weight was zero, leaving nothing to optimize.
    NoPositiveWeight,
    /// A normalization range was degenerate or non-finite.
    InvalidNorm {
        /// The offending metric.
        metric: MetricId,
        /// The rejected lower bound.
        lo: f64,
        /// The rejected upper bound.
        hi: f64,
    },
    /// A constraint bound was non-finite.
    InvalidThreshold {
        /// The offending metric.
        metric: MetricId,
        /// The rejected value.
        value: f64,
    },
    /// The punishment magnitude was non-positive or non-finite.
    InvalidPunishment,
    /// A constraint's comparison ran against the metric's sense (e.g.
    /// `lat>100`: ε-constraints only express "good enough" bounds).
    WrongDirection {
        /// The offending metric.
        metric: MetricId,
        /// The operator the user wrote.
        op: char,
    },
    /// A JSON document or compact clause did not parse structurally.
    Malformed(String),
    /// A scenario file carried a different `format` marker.
    WrongFormat {
        /// The marker found.
        found: String,
    },
    /// A scenario file was written by an incompatible format version.
    WrongVersion {
        /// The version found.
        found: u64,
    },
    /// A scenario file could not be read from disk.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyName => write!(f, "scenario name must not be empty"),
            ScenarioError::UnknownMetric { name } => {
                write!(
                    f,
                    "unknown metric {name:?} (known: acc, lat, area, power, perf_per_area)"
                )
            }
            ScenarioError::DuplicateMetric { metric } => {
                write!(f, "metric '{metric}' declared more than once")
            }
            ScenarioError::DuplicateName { name } => {
                write!(f, "scenario name {name:?} declared more than once")
            }
            ScenarioError::InvalidWeight { metric, value } => {
                write!(f, "weight {value} for '{metric}' must be finite and >= 0")
            }
            ScenarioError::NoObjectives => write!(f, "a scenario needs at least one objective"),
            ScenarioError::NoPositiveWeight => {
                write!(f, "at least one objective must carry a positive weight")
            }
            ScenarioError::InvalidNorm { metric, lo, hi } => {
                write!(f, "normalization [{lo}, {hi}] for '{metric}' is degenerate")
            }
            ScenarioError::InvalidThreshold { metric, value } => {
                write!(f, "threshold {value} for '{metric}' must be finite")
            }
            ScenarioError::InvalidPunishment => {
                write!(f, "punishment magnitude must be positive and finite")
            }
            ScenarioError::WrongDirection { metric, op } => {
                let want = if metric.maximize() { '>' } else { '<' };
                write!(
                    f,
                    "constraint '{metric}{op}' runs against the metric's sense (use '{metric}{want}')"
                )
            }
            ScenarioError::Malformed(reason) => write!(f, "malformed scenario: {reason}"),
            ScenarioError::WrongFormat { found } => {
                write!(f, "not a scenario file (format {found:?})")
            }
            ScenarioError::WrongVersion { found } => {
                write!(
                    f,
                    "scenario format version {found} unsupported (expected {SCENARIO_VERSION})"
                )
            }
            ScenarioError::Io(reason) => write!(f, "scenario file unreadable: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A declarative, named search scenario: which metrics to optimize, how to
/// weigh and normalize them, which to constrain, and how to punish
/// violations (Eq. 3 generalized to arbitrary named objectives).
///
/// A `ScenarioSpec` is *valid by construction* — every path into one
/// ([`ScenarioSpec::builder`], [`ScenarioSpec::from_json`],
/// [`ScenarioSpec::parse_compact`]) applies the same validation — so
/// [`ScenarioSpec::compile`] never fails.
///
/// # Examples
///
/// The paper's "1 Constraint" experiment, declared instead of hard-coded:
///
/// ```
/// use codesign_core::{MetricId, ScenarioSpec};
///
/// # fn main() -> Result<(), codesign_core::ScenarioError> {
/// let spec = ScenarioSpec::builder("1 Constraint")
///     .weight(MetricId::AreaMm2, 0.1)
///     .weight(MetricId::LatencyMs, 0.0)
///     .constraint(MetricId::LatencyMs, 100.0)
///     .weight(MetricId::Accuracy, 0.9)
///     .build()?;
/// assert_eq!(spec.constraint_count(), 1);
///
/// // Round-trips through JSON, and parses from the compact CLI grammar:
/// let back = ScenarioSpec::from_json(&spec.to_json())?;
/// assert_eq!(back, spec);
/// let compact = ScenarioSpec::parse_compact("lat<100; w=acc:0.9,area:0.1")?;
/// assert_eq!(compact.constraint_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    name: String,
    objectives: Vec<ObjectiveSpec>,
    punishment: Punishment,
}

impl ScenarioSpec {
    /// Starts declaring a scenario named `name`.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder::new(name)
    }

    /// The scenario's display name (flows into reports and exports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The objectives, in declaration order (the order scalarization sums
    /// them in).
    #[must_use]
    pub fn objectives(&self) -> &[ObjectiveSpec] {
        &self.objectives
    }

    /// The punishment policy for constraint violations.
    #[must_use]
    pub fn punishment(&self) -> Punishment {
        self.punishment
    }

    /// Number of constrained objectives.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.objectives
            .iter()
            .filter(|o| o.threshold.is_some())
            .count()
    }

    /// `true` when any objective declares an auto-ranged normalization
    /// (`"norm": "auto"` in JSON, `norm=<metric>:auto` in the compact
    /// grammar) that has not been resolved from a probe sample yet.
    #[must_use]
    pub fn has_auto_norms(&self) -> bool {
        self.objectives.iter().any(|o| o.norm_auto)
    }

    /// Resolves every auto-ranged normalization from an enumeration probe
    /// sample: each auto metric's range becomes the observed span of its
    /// values across `probe`, padded by `pad_fraction` on both sides so
    /// the extremes do not saturate at exactly 0 or 1
    /// (via [`LinearNorm::from_samples`]). Explicitly-declared ranges are
    /// untouched; a scenario without auto norms is returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidNorm`] when the probe observes fewer
    /// than two distinct finite values of an auto metric (the measured
    /// range would be degenerate).
    ///
    /// # Examples
    ///
    /// ```
    /// use codesign_core::{PairEvaluation, ScenarioSpec};
    ///
    /// let spec = ScenarioSpec::parse_compact("w=acc:1; norm=acc:auto").unwrap();
    /// assert!(spec.has_auto_norms());
    /// let probe = vec![
    ///     PairEvaluation { accuracy: 0.85, latency_ms: 40.0, area_mm2: 100.0, power_w: 3.0 },
    ///     PairEvaluation { accuracy: 0.95, latency_ms: 90.0, area_mm2: 180.0, power_w: 6.0 },
    /// ];
    /// let resolved = spec.resolve_auto_norms(&probe, 0.0).unwrap();
    /// assert!(!resolved.has_auto_norms());
    /// assert_eq!(resolved.objectives()[0].norm(), (0.85, 0.95));
    /// ```
    pub fn resolve_auto_norms(
        &self,
        probe: &[PairEvaluation],
        pad_fraction: f64,
    ) -> Result<ScenarioSpec, ScenarioError> {
        if !self.has_auto_norms() {
            return Ok(self.clone());
        }
        let mut resolved = self.clone();
        for objective in &mut resolved.objectives {
            if !objective.norm_auto {
                continue;
            }
            let samples = probe.iter().map(|e| objective.metric.extract(e));
            let norm = LinearNorm::from_samples(samples, pad_fraction).map_err(|e| {
                let (lo, hi) = match e {
                    codesign_moo::MooError::DegenerateRange { min, max } => (min, max),
                    _ => (f64::NAN, f64::NAN),
                };
                ScenarioError::InvalidNorm {
                    metric: objective.metric,
                    lo,
                    hi,
                }
            })?;
            objective.norm_lo = norm.min();
            objective.norm_hi = norm.max();
            objective.norm_auto = false;
        }
        Ok(resolved)
    }

    /// The paper's three §III-C scenarios, in paper order:
    ///
    /// 1. **Unconstrained** — `w(area, lat, acc) = (0.1, 0.8, 0.1)`;
    /// 2. **1 Constraint** — `lat < 100 ms`, `w = (0.1, 0, 0.9)`;
    /// 3. **2 Constraints** — `acc > 0.92`, `area < 100 mm²`, optimize
    ///    latency.
    ///
    /// Their compiled rewards are pinned bit for bit by this module's
    /// tests.
    #[must_use]
    pub fn paper_presets() -> Vec<ScenarioSpec> {
        vec![
            Self::unconstrained(),
            Self::one_constraint(),
            Self::two_constraints(),
        ]
    }

    /// The "Unconstrained" paper preset.
    #[must_use]
    pub fn unconstrained() -> ScenarioSpec {
        Self::paper_builder("Unconstrained")
            .weight(MetricId::AreaMm2, 0.1)
            .weight(MetricId::LatencyMs, 0.8)
            .weight(MetricId::Accuracy, 0.1)
            .build()
            .expect("static preset")
    }

    /// The "1 Constraint" paper preset (`lat < 100 ms`).
    #[must_use]
    pub fn one_constraint() -> ScenarioSpec {
        Self::paper_builder("1 Constraint")
            .weight(MetricId::AreaMm2, 0.1)
            .weight(MetricId::LatencyMs, 0.0)
            .constraint(MetricId::LatencyMs, 100.0)
            .weight(MetricId::Accuracy, 0.9)
            .build()
            .expect("static preset")
    }

    /// The "2 Constraints" paper preset (`acc > 0.92`, `area < 100 mm²`).
    #[must_use]
    pub fn two_constraints() -> ScenarioSpec {
        Self::paper_builder("2 Constraints")
            .weight(MetricId::AreaMm2, 0.0)
            .constraint(MetricId::AreaMm2, 100.0)
            .weight(MetricId::LatencyMs, 1.0)
            .weight(MetricId::Accuracy, 0.0)
            .constraint(MetricId::Accuracy, 0.92)
            .build()
            .expect("static preset")
    }

    /// Looks a paper preset up by its display name.
    #[must_use]
    pub fn preset_by_name(name: &str) -> Option<ScenarioSpec> {
        Self::paper_presets().into_iter().find(|s| s.name == name)
    }

    /// A builder pre-loaded with the paper's normalization ranges, in
    /// natural units.
    fn paper_builder(name: &str) -> ScenarioSpecBuilder {
        Self::builder(name)
            .norm(MetricId::AreaMm2, 45.0, 215.0)
            .norm(MetricId::LatencyMs, 5.0, 400.0)
            .norm(MetricId::Accuracy, 0.80, 0.95)
    }

    /// Compiles the declaration into its executable form. Infallible:
    /// every `ScenarioSpec` is validated at construction.
    #[must_use]
    pub fn compile(&self) -> CompiledScenario {
        let metrics: Vec<MetricId> = self.objectives.iter().map(|o| o.metric).collect();
        let mut builder = DynRewardSpec::builder()
            .weights(self.objectives.iter().map(|o| o.weight).collect())
            .expect("validated at build")
            .norms(
                self.objectives
                    .iter()
                    .map(ObjectiveSpec::signed_norm)
                    .collect(),
            )
            .punishment(self.punishment)
            .expect("validated at build");
        for (i, objective) in self.objectives.iter().enumerate() {
            if let Some(t) = objective.signed_threshold() {
                builder = builder.threshold(i, t).expect("index in bounds");
            }
        }
        let reward = builder.build().expect("validated at build");
        let accuracy_norm = self
            .objectives
            .iter()
            .find(|o| o.metric == MetricId::Accuracy)
            .map_or_else(
                || {
                    let (lo, hi) = MetricId::Accuracy.default_norm();
                    LinearNorm::new(lo, hi).expect("static range")
                },
                ObjectiveSpec::signed_norm,
            );
        let schema = AxisSchema::new(metrics.iter().map(MetricId::name));
        CompiledScenario {
            spec: self.clone(),
            metrics,
            schema,
            reward,
            accuracy_norm,
            shaping: RewardShaping::default(),
        }
    }

    /// The scenario as one JSON object (see the module docs; everything in
    /// natural units).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let objectives = self
            .objectives
            .iter()
            .map(|o| {
                let norm = if o.norm_auto {
                    Json::Str("auto".into())
                } else {
                    Json::Arr(vec![Json::Num(o.norm_lo), Json::Num(o.norm_hi)])
                };
                Json::obj(vec![
                    ("metric", Json::Str(o.metric.name().into())),
                    ("weight", Json::Num(o.weight)),
                    ("norm", norm),
                    ("threshold", o.threshold.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect();
        let punishment = match self.punishment {
            Punishment::ScaledViolation { scale } => Json::obj(vec![
                ("kind", Json::Str("scaled".into())),
                ("scale", Json::Num(scale)),
            ]),
            Punishment::Constant(value) => Json::obj(vec![
                ("kind", Json::Str("constant".into())),
                ("value", Json::Num(value)),
            ]),
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("objectives", Json::Arr(objectives)),
            ("punishment", punishment),
        ])
    }

    /// Parses one scenario object written by [`ScenarioSpec::to_json`],
    /// applying full validation.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScenarioError`] naming exactly what was rejected —
    /// an unknown metric, an invalid weight, a degenerate norm, a missing
    /// field.
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, ScenarioError> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::Malformed("missing 'name'".into()))?;
        let mut builder = ScenarioSpec::builder(name);
        let objectives = doc
            .get("objectives")
            .and_then(Json::as_arr)
            .ok_or_else(|| ScenarioError::Malformed("missing 'objectives'".into()))?;
        for (i, objective) in objectives.iter().enumerate() {
            let metric_name = objective
                .get("metric")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    ScenarioError::Malformed(format!("objective {i}: missing 'metric'"))
                })?;
            let metric =
                MetricId::from_name(metric_name).ok_or_else(|| ScenarioError::UnknownMetric {
                    name: metric_name.to_owned(),
                })?;
            if builder.has_metric(metric) {
                return Err(ScenarioError::DuplicateMetric { metric });
            }
            let weight = objective
                .get("weight")
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    ScenarioError::Malformed(format!("objective {i}: missing 'weight'"))
                })?;
            builder = builder.weight(metric, weight);
            match objective.get("norm") {
                None => {}
                Some(Json::Str(mode)) if mode == "auto" => {
                    builder = builder.auto_norm(metric);
                }
                Some(norm) => {
                    let bounds = norm.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                        ScenarioError::Malformed(format!(
                            "objective {i}: 'norm' must be [lo, hi] or \"auto\""
                        ))
                    })?;
                    let (lo, hi) = match (bounds[0].as_f64(), bounds[1].as_f64()) {
                        (Some(lo), Some(hi)) => (lo, hi),
                        _ => {
                            return Err(ScenarioError::Malformed(format!(
                                "objective {i}: non-numeric 'norm' bound"
                            )))
                        }
                    };
                    builder = builder.norm(metric, lo, hi);
                }
            }
            match objective.get("threshold") {
                None | Some(Json::Null) => {}
                Some(Json::Num(t)) => builder = builder.constraint(metric, *t),
                Some(_) => {
                    return Err(ScenarioError::Malformed(format!(
                        "objective {i}: 'threshold' must be a number or null"
                    )))
                }
            }
        }
        if let Some(p) = doc.get("punishment") {
            let kind = p
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| ScenarioError::Malformed("punishment: missing 'kind'".into()))?;
            let punishment = match kind {
                "scaled" => Punishment::ScaledViolation {
                    scale: p.get("scale").and_then(Json::as_f64).ok_or_else(|| {
                        ScenarioError::Malformed("punishment: missing 'scale'".into())
                    })?,
                },
                "constant" => {
                    Punishment::Constant(p.get("value").and_then(Json::as_f64).ok_or_else(
                        || ScenarioError::Malformed("punishment: missing 'value'".into()),
                    )?)
                }
                other => {
                    return Err(ScenarioError::Malformed(format!(
                        "punishment: unknown kind {other:?}"
                    )))
                }
            };
            builder = builder.punishment(punishment);
        }
        builder.build()
    }

    /// Parses the compact CLI grammar: semicolon-separated clauses of
    ///
    /// * `w=<metric>:<weight>[,<metric>:<weight>...]` — scalarization
    ///   weights;
    /// * `<metric><<bound>` / `<metric>><bound>` — ε-constraints in natural
    ///   units (`<` for minimized metrics, `>` for maximized ones);
    /// * `norm=<metric>:<lo>..<hi>` — normalization override, or
    ///   `norm=<metric>:auto` to range the metric from an enumeration probe
    ///   sample at campaign start;
    /// * `punish=<scale>` or `punish=const:<value>` — punishment policy;
    /// * `name=<display name>` — optional; defaults to the input itself.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScenarioError`] for unknown metrics,
    /// wrong-direction constraints, and malformed clauses.
    ///
    /// # Examples
    ///
    /// ```
    /// use codesign_core::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::parse_compact("lat<100; w=acc:0.9,area:0.1").unwrap();
    /// assert_eq!(spec.name(), "lat<100; w=acc:0.9,area:0.1");
    /// assert_eq!(spec.constraint_count(), 1);
    /// ```
    pub fn parse_compact(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let mut name: Option<String> = None;
        let mut builder = ScenarioSpec::builder(text.trim());
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(n) = clause.strip_prefix("name=") {
                name = Some(n.trim().to_owned());
            } else if let Some(weights) = clause.strip_prefix("w=") {
                for part in weights.split(',') {
                    let (metric, value) = split_metric_value(part, ':')?;
                    if builder.has_weight(metric) {
                        return Err(ScenarioError::DuplicateMetric { metric });
                    }
                    builder = builder.weight(metric, value);
                }
            } else if let Some(norm) = clause.strip_prefix("norm=") {
                let (metric, range) = split_once(norm, ':')?;
                let metric = resolve_metric(metric)?;
                if range.trim() == "auto" {
                    builder = builder.auto_norm(metric);
                } else {
                    let (lo, hi) = range.split_once("..").ok_or_else(|| {
                        ScenarioError::Malformed(format!(
                            "norm clause {clause:?}: expected lo..hi or auto"
                        ))
                    })?;
                    builder = builder.norm(metric, parse_number(lo)?, parse_number(hi)?);
                }
            } else if let Some(p) = clause.strip_prefix("punish=") {
                let punishment = match p.strip_prefix("const:") {
                    Some(v) => Punishment::Constant(parse_number(v)?),
                    None => Punishment::ScaledViolation {
                        scale: parse_number(p)?,
                    },
                };
                builder = builder.punishment(punishment);
            } else if let Some(op_pos) = clause.find(['<', '>']) {
                let op = clause.as_bytes()[op_pos] as char;
                let metric = resolve_metric(&clause[..op_pos])?;
                let bound = parse_number(&clause[op_pos + 1..])?;
                let want = if metric.maximize() { '>' } else { '<' };
                if op != want {
                    return Err(ScenarioError::WrongDirection { metric, op });
                }
                builder = builder.constraint(metric, bound);
            } else {
                return Err(ScenarioError::Malformed(format!(
                    "unrecognized clause {clause:?}"
                )));
            }
        }
        if let Some(name) = name {
            builder = builder.rename(name);
        }
        builder.build()
    }

    /// Reads scenarios from a versioned file written by
    /// [`scenarios_to_document`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] for filesystem failures and the
    /// document-level errors of [`scenarios_from_document`] otherwise.
    pub fn load_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Vec<ScenarioSpec>, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io(e.to_string()))?;
        let doc = Json::parse(&text).map_err(ScenarioError::Malformed)?;
        scenarios_from_document(&doc)
    }
}

/// Bundles scenarios into the versioned on-disk document
/// (`{"format": "codesign-scenarios", "version": 1, "scenarios": [...]}`).
#[must_use]
pub fn scenarios_to_document(scenarios: &[ScenarioSpec]) -> Json {
    Json::obj(vec![
        ("format", Json::Str(SCENARIO_FORMAT.into())),
        ("version", Json::Num(SCENARIO_VERSION as f64)),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
}

/// Parses a versioned scenario document, rejecting wrong formats and
/// versions instead of guessing.
///
/// # Errors
///
/// [`ScenarioError::WrongFormat`] / [`ScenarioError::WrongVersion`] for
/// mismatched headers, [`ScenarioError::Malformed`] for structural
/// problems, and the per-scenario errors of [`ScenarioSpec::from_json`].
pub fn scenarios_from_document(doc: &Json) -> Result<Vec<ScenarioSpec>, ScenarioError> {
    let format = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or_else(|| ScenarioError::Malformed("missing 'format'".into()))?;
    if format != SCENARIO_FORMAT {
        return Err(ScenarioError::WrongFormat {
            found: format.to_owned(),
        });
    }
    let version =
        doc.get("version")
            .and_then(Json::as_usize)
            .ok_or_else(|| ScenarioError::Malformed("missing 'version'".into()))? as u64;
    if version != SCENARIO_VERSION {
        return Err(ScenarioError::WrongVersion { found: version });
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or_else(|| ScenarioError::Malformed("missing 'scenarios'".into()))?;
    if scenarios.is_empty() {
        return Err(ScenarioError::Malformed("empty 'scenarios' array".into()));
    }
    let specs: Vec<ScenarioSpec> = scenarios
        .iter()
        .map(ScenarioSpec::from_json)
        .collect::<Result<_, _>>()?;
    check_unique_names(&specs)?;
    Ok(specs)
}

/// Rejects collections in which two scenarios share a display name —
/// everything downstream (report grouping, merged fronts, cache
/// provenance) keys on the name.
///
/// # Errors
///
/// Returns [`ScenarioError::DuplicateName`] naming the first repeat.
pub fn check_unique_names(scenarios: &[ScenarioSpec]) -> Result<(), ScenarioError> {
    let mut seen: Vec<&str> = Vec::with_capacity(scenarios.len());
    for spec in scenarios {
        if seen.contains(&spec.name()) {
            return Err(ScenarioError::DuplicateName {
                name: spec.name().to_owned(),
            });
        }
        seen.push(spec.name());
    }
    Ok(())
}

fn resolve_metric(name: &str) -> Result<MetricId, ScenarioError> {
    let name = name.trim();
    MetricId::from_name(name).ok_or_else(|| ScenarioError::UnknownMetric {
        name: name.to_owned(),
    })
}

fn parse_number(text: &str) -> Result<f64, ScenarioError> {
    text.trim()
        .parse::<f64>()
        .map_err(|_| ScenarioError::Malformed(format!("expected a number, got {text:?}")))
}

fn split_once(text: &str, sep: char) -> Result<(&str, &str), ScenarioError> {
    text.split_once(sep)
        .ok_or_else(|| ScenarioError::Malformed(format!("expected '{sep}' in {text:?}")))
}

fn split_metric_value(text: &str, sep: char) -> Result<(MetricId, f64), ScenarioError> {
    let (metric, value) = split_once(text, sep)?;
    Ok((resolve_metric(metric)?, parse_number(value)?))
}

/// Builder for [`ScenarioSpec`]. Objectives appear in first-mention order
/// (the order scalarization sums them in); repeated mentions of a metric
/// update its entry in place.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    name: String,
    objectives: Vec<ObjectiveSpec>,
    weighted: Vec<MetricId>,
    punishment: Punishment,
}

impl ScenarioSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            objectives: Vec::new(),
            weighted: Vec::new(),
            punishment: Punishment::default(),
        }
    }

    fn entry(&mut self, metric: MetricId) -> &mut ObjectiveSpec {
        if let Some(i) = self.objectives.iter().position(|o| o.metric == metric) {
            return &mut self.objectives[i];
        }
        let (norm_lo, norm_hi) = metric.default_norm();
        self.objectives.push(ObjectiveSpec {
            metric,
            weight: 0.0,
            norm_lo,
            norm_hi,
            norm_auto: false,
            threshold: None,
        });
        self.objectives.last_mut().expect("just pushed")
    }

    /// `true` when `metric` already has an objective entry.
    #[must_use]
    pub fn has_metric(&self, metric: MetricId) -> bool {
        self.objectives.iter().any(|o| o.metric == metric)
    }

    /// `true` when `metric` was already given an explicit weight.
    #[must_use]
    pub fn has_weight(&self, metric: MetricId) -> bool {
        self.weighted.contains(&metric)
    }

    /// Sets the scalarization weight of `metric` (0 declares a
    /// constraint-only objective explicitly).
    #[must_use]
    pub fn weight(mut self, metric: MetricId, weight: f64) -> Self {
        self.entry(metric).weight = weight;
        if !self.weighted.contains(&metric) {
            self.weighted.push(metric);
        }
        self
    }

    /// Overrides the normalization range of `metric`, in natural units.
    #[must_use]
    pub fn norm(mut self, metric: MetricId, lo: f64, hi: f64) -> Self {
        let entry = self.entry(metric);
        entry.norm_lo = lo;
        entry.norm_hi = hi;
        entry.norm_auto = false;
        self
    }

    /// Marks `metric`'s normalization range as auto-ranged: campaign
    /// drivers call [`ScenarioSpec::resolve_auto_norms`] with an
    /// enumeration probe sample before compiling; until then the registry
    /// default range stands in (any earlier explicit range is discarded —
    /// the declaration serializes as `"auto"`, so keeping it would make
    /// an unresolved spec compile differently across a save/load).
    #[must_use]
    pub fn auto_norm(mut self, metric: MetricId) -> Self {
        let (norm_lo, norm_hi) = metric.default_norm();
        let entry = self.entry(metric);
        entry.norm_lo = norm_lo;
        entry.norm_hi = norm_hi;
        entry.norm_auto = true;
        self
    }

    /// Constrains `metric`: an upper bound for minimized metrics, a lower
    /// bound for maximized ones, in natural units.
    #[must_use]
    pub fn constraint(mut self, metric: MetricId, bound: f64) -> Self {
        self.entry(metric).threshold = Some(bound);
        self
    }

    /// Sets the punishment policy for infeasible points.
    #[must_use]
    pub fn punishment(mut self, punishment: Punishment) -> Self {
        self.punishment = punishment;
        self
    }

    /// Replaces the scenario name.
    #[must_use]
    pub fn rename(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Validates and finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a typed [`ScenarioError`]: empty
    /// name, no objectives, invalid weight (negative, NaN), all-zero
    /// weights, degenerate norm, non-finite threshold, or non-positive
    /// punishment.
    pub fn build(self) -> Result<ScenarioSpec, ScenarioError> {
        if self.name.trim().is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        if self.objectives.is_empty() {
            return Err(ScenarioError::NoObjectives);
        }
        for o in &self.objectives {
            // Per-objective pre-check so the error can name the metric; the
            // authoritative per-entry rules are re-applied by the shared
            // moo validator over the full vector below.
            if !o.weight.is_finite() || o.weight < 0.0 {
                return Err(ScenarioError::InvalidWeight {
                    metric: o.metric,
                    value: o.weight,
                });
            }
            if LinearNorm::new(o.norm_lo, o.norm_hi).is_err() {
                return Err(ScenarioError::InvalidNorm {
                    metric: o.metric,
                    lo: o.norm_lo,
                    hi: o.norm_hi,
                });
            }
            if let Some(t) = o.threshold {
                if !t.is_finite() {
                    return Err(ScenarioError::InvalidThreshold {
                        metric: o.metric,
                        value: t,
                    });
                }
            }
        }
        // The aggregate rules are the moo builders' own validators — the
        // exact checks `compile()` later relies on — so a rule tightened in
        // moo surfaces here as a typed error, never as a panic inside the
        // documented-infallible `compile()`.
        let weights: Vec<f64> = self.objectives.iter().map(|o| o.weight).collect();
        if codesign_moo::validate_weights(&weights).is_err() {
            return Err(ScenarioError::NoPositiveWeight);
        }
        if codesign_moo::validate_punishment(self.punishment).is_err() {
            return Err(ScenarioError::InvalidPunishment);
        }
        Ok(ScenarioSpec {
            name: self.name,
            objectives: self.objectives,
            punishment: self.punishment,
        })
    }
}

/// The executable form of a [`ScenarioSpec`]: named-metric selectors over
/// [`PairEvaluation`] plus a runtime-dimension reward
/// ([`DynRewardSpec`]).
///
/// This is what search strategies consume (`SearchContext::reward`):
/// [`CompiledScenario::reward`] turns an evaluation into the controller
/// scalar of Eq. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    spec: ScenarioSpec,
    metrics: Vec<MetricId>,
    /// The shared axis schema of every front this scenario produces: the
    /// metric names in objective order, one `Arc` allocation per compiled
    /// scenario.
    schema: AxisSchema,
    reward: DynRewardSpec,
    accuracy_norm: LinearNorm,
    /// Per-step shaping applied on top of the Eq. 3 scalar; `None` by
    /// default. An execution-time knob (set by the campaign layer via
    /// [`CompiledScenario::with_reward_shaping`]), not part of the
    /// declarative [`ScenarioSpec`] — the JSON round trip is unaffected.
    shaping: RewardShaping,
}

impl CompiledScenario {
    /// The scenario's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// Returns this scenario with per-step [`RewardShaping`] applied to
    /// every controller scalar it scores.
    #[must_use]
    pub fn with_reward_shaping(mut self, shaping: RewardShaping) -> Self {
        self.shaping = shaping;
        self
    }

    /// The per-step shaping mode controllers run under (default
    /// [`RewardShaping::None`]).
    #[must_use]
    pub fn reward_shaping(&self) -> RewardShaping {
        self.shaping
    }

    /// The declaration this was compiled from.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The selected metrics, in objective order.
    #[must_use]
    pub fn metrics(&self) -> &[MetricId] {
        &self.metrics
    }

    /// The underlying runtime-dimension reward (all-maximize convention).
    #[must_use]
    pub fn reward_spec(&self) -> &DynRewardSpec {
        &self.reward
    }

    /// Number of constrained objectives.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.spec.constraint_count()
    }

    /// The axis schema of this scenario's fronts: the metric names in
    /// objective order. Cloning the returned schema is an `Arc` bump, so
    /// every front and export of this scenario shares one allocation.
    #[must_use]
    pub fn axis_schema(&self) -> AxisSchema {
        self.schema.clone()
    }

    /// The signed (all-maximize) metric vector of an evaluation, in
    /// objective order — the point type the scenario's fronts store.
    #[must_use]
    pub fn metric_point(&self, eval: &PairEvaluation) -> MetricVector {
        let mut values = [0.0f64; MetricId::ALL.len()];
        for (slot, metric) in values.iter_mut().zip(self.metrics.iter()) {
            *slot = metric.signed(eval);
        }
        MetricVector::from_slice(&values[..self.metrics.len()])
    }

    /// An empty Pareto front over this scenario's own axes.
    #[must_use]
    pub fn empty_front<T>(&self) -> DynParetoFront<T> {
        DynParetoFront::new(self.axis_schema())
    }

    /// A hypervolume reference point in the signed convention: the worst
    /// corner of the scenario's normalization box (each objective's signed
    /// norm minimum). Fixing the reference to the declared box makes one
    /// scenario's hypervolumes comparable across runs; note that points
    /// at or below the floor in some axis contribute nothing, while
    /// points *above* the box ceiling still add their full overshoot.
    #[must_use]
    pub fn hypervolume_reference(&self) -> Vec<f64> {
        self.reward.norms().iter().map(LinearNorm::min).collect()
    }

    /// Eq. 3 over the named objectives: the scalar fed to the controller.
    #[must_use]
    pub fn reward(&self, eval: &PairEvaluation) -> RewardOutcome {
        self.reward.evaluate(&self.metric_point(eval))
    }

    /// The signed normalization used for accuracy-only phases (separate
    /// search's CNN stage): the accuracy objective's norm when the scenario
    /// has one, the standard accuracy range otherwise.
    #[must_use]
    pub fn accuracy_norm(&self) -> LinearNorm {
        self.accuracy_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(accuracy: f64, latency_ms: f64, area_mm2: f64, power_w: f64) -> PairEvaluation {
        PairEvaluation {
            accuracy,
            latency_ms,
            area_mm2,
            power_w,
        }
    }

    /// `to_bits()` of each paper preset's reward at the six probe points
    /// of `presets_match_pinned_reward_bits`, in preset order.
    const PRESET_REWARD_BITS: [(&str, [u64; 6]); 3] = [
        (
            "Unconstrained",
            [
                0x3feb_3ebf_b897_89ee,
                0x3fd6_35ed_56fa_f32d,
                0x3fec_70c1_1e72_0cf3,
                0x3fb9_9999_9999_999a,
                0x3fe8_03dc_fa24_44ae,
                0x0000_0000_0000_0000,
            ],
        ),
        (
            "1 Constraint",
            [
                0x3fea_bf8c_5925_f2c5,
                0xbfc3_47f0_7210_d9c4,
                0x3fec_e4e4_e4e4_e4e5,
                0xbfc6_8582_44b2_e03f,
                0xbfb9_aa30_ff17_b874,
                0xbfd3_5cad_b0ee_8054,
            ],
        ),
        (
            "2 Constraints",
            [
                0xbfbc_9c9c_9c9c_9c9d,
                0xbfc0_369d_0369_d038,
                0xbfc5_1515_1515_1515,
                0xbfc7_0a3d_70a3_d70c,
                0xbfba_740d_a740_da75,
                0xbfea_16e3_b07d_4a1a,
            ],
        ),
    ];

    #[test]
    fn presets_match_pinned_reward_bits() {
        let probes = [
            eval(0.93, 50.0, 120.0, 3.0),
            eval(0.88, 300.0, 60.0, 1.5),
            eval(0.95, 12.0, 210.0, 9.0),
            eval(0.80, 400.0, 45.0, 0.6),
            eval(0.915, 101.0, 99.0, 5.0), // near every preset threshold
            eval(0.2, 900.0, 500.0, 25.0), // far outside every norm range
        ];
        let presets = ScenarioSpec::paper_presets();
        assert_eq!(presets.len(), PRESET_REWARD_BITS.len());
        for (spec, (name, pinned)) in presets.iter().zip(PRESET_REWARD_BITS) {
            assert_eq!(spec.name(), name);
            let compiled = spec.compile();
            for (e, bits) in probes.iter().zip(pinned) {
                let reward = compiled.reward(e);
                assert_eq!(
                    reward.value().to_bits(),
                    bits,
                    "{name}: {e:?} reward {}",
                    reward.value()
                );
                // Feasible rewards are weighted sums (>= 0); punishments
                // are strictly negative.
                assert_eq!(reward.is_feasible(), f64::from_bits(bits) >= 0.0);
                if reward.is_feasible() {
                    let point = compiled.metric_point(e);
                    let sum = compiled.reward_spec().scalarize(&point);
                    assert_eq!(sum.to_bits(), bits, "{name}: {e:?}");
                }
            }
        }
    }

    #[test]
    fn unconstrained_everything_is_feasible() {
        let spec = ScenarioSpec::unconstrained().compile();
        assert!(spec.reward(&eval(0.2, 900.0, 500.0, 30.0)).is_feasible());
    }

    #[test]
    fn one_constraint_enforces_latency() {
        let spec = ScenarioSpec::one_constraint().compile();
        assert!(spec.reward(&eval(0.93, 99.0, 120.0, 3.0)).is_feasible());
        assert!(!spec.reward(&eval(0.93, 101.0, 120.0, 3.0)).is_feasible());
    }

    #[test]
    fn two_constraints_enforce_accuracy_and_area() {
        let spec = ScenarioSpec::two_constraints().compile();
        assert!(spec.reward(&eval(0.925, 300.0, 99.0, 3.0)).is_feasible());
        assert!(!spec.reward(&eval(0.925, 300.0, 101.0, 3.0)).is_feasible());
        assert!(!spec.reward(&eval(0.915, 300.0, 99.0, 3.0)).is_feasible());
    }

    #[test]
    fn unconstrained_prefers_low_latency() {
        let spec = ScenarioSpec::unconstrained().compile();
        let fast = spec.reward(&eval(0.92, 20.0, 120.0, 3.0)).value();
        let accurate = spec.reward(&eval(0.94, 200.0, 120.0, 3.0)).value();
        assert!(fast > accurate);
    }

    #[test]
    fn power_scenario_constrains_what_the_enum_never_could() {
        let spec = ScenarioSpec::builder("power-capped")
            .weight(MetricId::Accuracy, 1.0)
            .constraint(MetricId::PowerW, 6.0)
            .build()
            .unwrap()
            .compile();
        assert!(spec.reward(&eval(0.9, 50.0, 120.0, 5.9)).is_feasible());
        assert!(!spec.reward(&eval(0.9, 50.0, 120.0, 6.1)).is_feasible());
    }

    #[test]
    fn builder_rejects_bad_declarations() {
        assert_eq!(
            ScenarioSpec::builder("  ")
                .weight(MetricId::Accuracy, 1.0)
                .build(),
            Err(ScenarioError::EmptyName)
        );
        assert_eq!(
            ScenarioSpec::builder("x").build(),
            Err(ScenarioError::NoObjectives)
        );
        assert!(matches!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, f64::NAN)
                .build(),
            Err(ScenarioError::InvalidWeight { .. })
        ));
        assert!(matches!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, -1.0)
                .build(),
            Err(ScenarioError::InvalidWeight { .. })
        ));
        assert_eq!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, 0.0)
                .build(),
            Err(ScenarioError::NoPositiveWeight)
        );
        assert!(matches!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, 1.0)
                .norm(MetricId::Accuracy, 0.9, 0.9)
                .build(),
            Err(ScenarioError::InvalidNorm { .. })
        ));
        assert!(matches!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, 1.0)
                .constraint(MetricId::Accuracy, f64::INFINITY)
                .build(),
            Err(ScenarioError::InvalidThreshold { .. })
        ));
        assert_eq!(
            ScenarioSpec::builder("x")
                .weight(MetricId::Accuracy, 1.0)
                .punishment(Punishment::Constant(0.0))
                .build(),
            Err(ScenarioError::InvalidPunishment)
        );
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let spec = ScenarioSpec::builder("round trip")
            .weight(MetricId::PowerW, 0.25)
            .norm(MetricId::PowerW, 0.25, 14.5)
            .constraint(MetricId::PowerW, 7.5)
            .weight(MetricId::Accuracy, 0.75)
            .punishment(Punishment::Constant(0.3))
            .build()
            .unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Document-level round trip too.
        let presets = ScenarioSpec::paper_presets();
        let doc = scenarios_to_document(&presets);
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(scenarios_from_document(&reparsed).unwrap(), presets);
    }

    #[test]
    fn documents_reject_bad_headers_with_typed_errors() {
        let presets = ScenarioSpec::paper_presets();
        let mut doc = scenarios_to_document(&presets);
        if let Json::Obj(pairs) = &mut doc {
            pairs[1].1 = Json::Num(99.0);
        }
        assert_eq!(
            scenarios_from_document(&doc),
            Err(ScenarioError::WrongVersion { found: 99 })
        );
        let doc = Json::obj(vec![("format", Json::Str("something".into()))]);
        assert_eq!(
            scenarios_from_document(&doc),
            Err(ScenarioError::WrongFormat {
                found: "something".into()
            })
        );
    }

    #[test]
    fn json_rejects_unknown_metrics_and_duplicates() {
        let doc =
            Json::parse(r#"{"name":"x","objectives":[{"metric":"speed","weight":1}]}"#).unwrap();
        assert_eq!(
            ScenarioSpec::from_json(&doc),
            Err(ScenarioError::UnknownMetric {
                name: "speed".into()
            })
        );
        let doc = Json::parse(
            r#"{"name":"x","objectives":[
                {"metric":"acc","weight":1},{"metric":"acc","weight":0.5}]}"#,
        )
        .unwrap();
        assert_eq!(
            ScenarioSpec::from_json(&doc),
            Err(ScenarioError::DuplicateMetric {
                metric: MetricId::Accuracy
            })
        );
    }

    #[test]
    fn compact_grammar_parses_the_issue_example() {
        let spec = ScenarioSpec::parse_compact("lat<100; w=acc:0.9,area:0.1").unwrap();
        assert_eq!(spec.constraint_count(), 1);
        let compiled = spec.compile();
        // Same constraint semantics as the preset: 100 ms is the cap.
        assert!(compiled.reward(&eval(0.9, 99.0, 120.0, 3.0)).is_feasible());
        assert!(!compiled.reward(&eval(0.9, 101.0, 120.0, 3.0)).is_feasible());
    }

    #[test]
    fn compact_grammar_full_clause_set() {
        let spec = ScenarioSpec::parse_compact(
            "name=tuned; power<6; w=acc:0.8,power:0.2; norm=power:0.1..15; punish=const:0.5",
        )
        .unwrap();
        assert_eq!(spec.name(), "tuned");
        assert_eq!(spec.punishment(), Punishment::Constant(0.5));
        let power = spec
            .objectives()
            .iter()
            .find(|o| o.metric() == MetricId::PowerW)
            .unwrap();
        assert_eq!(power.norm(), (0.1, 15.0));
        assert_eq!(power.threshold(), Some(6.0));
        // Objective order is first-mention order: power (constraint) then
        // the weights clause's remaining metrics.
        assert_eq!(
            spec.objectives()
                .iter()
                .map(|o| o.metric())
                .collect::<Vec<_>>(),
            vec![MetricId::PowerW, MetricId::Accuracy]
        );
    }

    #[test]
    fn compact_grammar_rejects_bad_clauses_with_typed_errors() {
        assert!(matches!(
            ScenarioSpec::parse_compact("w=speed:1"),
            Err(ScenarioError::UnknownMetric { .. })
        ));
        assert_eq!(
            ScenarioSpec::parse_compact("lat>100; w=acc:1"),
            Err(ScenarioError::WrongDirection {
                metric: MetricId::LatencyMs,
                op: '>'
            })
        );
        assert_eq!(
            ScenarioSpec::parse_compact("acc<0.9; w=acc:1"),
            Err(ScenarioError::WrongDirection {
                metric: MetricId::Accuracy,
                op: '<'
            })
        );
        assert!(matches!(
            ScenarioSpec::parse_compact("w=acc:1,acc:2"),
            Err(ScenarioError::DuplicateMetric { .. })
        ));
        assert!(matches!(
            ScenarioSpec::parse_compact("bogus clause"),
            Err(ScenarioError::Malformed(_))
        ));
        assert!(matches!(
            ScenarioSpec::parse_compact("lat<fast; w=acc:1"),
            Err(ScenarioError::Malformed(_))
        ));
    }

    #[test]
    fn metric_names_roundtrip() {
        for metric in MetricId::ALL {
            assert_eq!(MetricId::from_name(metric.name()), Some(metric));
        }
        assert_eq!(MetricId::from_name("accuracy"), Some(MetricId::Accuracy));
        assert_eq!(MetricId::from_name("ppa"), Some(MetricId::PerfPerArea));
        assert_eq!(MetricId::from_name("bogus"), None);
    }

    #[test]
    fn names_match_paper() {
        let presets = ScenarioSpec::paper_presets();
        let names: Vec<&str> = presets.iter().map(ScenarioSpec::name).collect();
        assert_eq!(
            names,
            vec!["Unconstrained", "1 Constraint", "2 Constraints"]
        );
        assert!(ScenarioSpec::preset_by_name("1 Constraint").is_some());
        assert!(ScenarioSpec::preset_by_name("bogus").is_none());
    }

    #[test]
    fn axis_schema_names_follow_objective_order() {
        let compiled = ScenarioSpec::unconstrained().compile();
        assert_eq!(compiled.axis_schema().names(), ["area", "lat", "acc"]);
        let power = ScenarioSpec::builder("p")
            .weight(MetricId::Accuracy, 1.0)
            .constraint(MetricId::PowerW, 6.0)
            .build()
            .unwrap()
            .compile();
        assert_eq!(power.axis_schema().names(), ["acc", "power"]);
        // The schema is shared, not re-allocated, across clones.
        assert_eq!(power.axis_schema(), power.axis_schema());
    }

    #[test]
    fn metric_point_matches_metric_vector_bitwise() {
        let compiled = ScenarioSpec::two_constraints().compile();
        let e = eval(0.93, 42.0, 130.0, 5.0);
        let vec: Vec<f64> = compiled.metrics().iter().map(|m| m.signed(&e)).collect();
        let point = compiled.metric_point(&e);
        assert_eq!(point.as_slice(), vec.as_slice());
        let mut front = compiled.empty_front::<()>();
        assert!(front.insert(point, ()));
        assert_eq!(front.schema(), &compiled.axis_schema());
    }

    #[test]
    fn hypervolume_reference_is_the_norm_floor() {
        let compiled = ScenarioSpec::unconstrained().compile();
        // Signed norms: -area in [-215,-45], -lat in [-400,-5], acc in [0.8,0.95].
        assert_eq!(compiled.hypervolume_reference(), vec![-215.0, -400.0, 0.80]);
    }

    #[test]
    fn auto_norms_declare_resolve_and_roundtrip() {
        let spec = ScenarioSpec::builder("auto")
            .weight(MetricId::Accuracy, 0.5)
            .auto_norm(MetricId::Accuracy)
            .weight(MetricId::PowerW, 0.5)
            .build()
            .unwrap();
        assert!(spec.has_auto_norms());
        assert!(spec.objectives()[0].norm_is_auto());
        assert!(!spec.objectives()[1].norm_is_auto());

        // JSON round-trips the auto marker.
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert!(back.has_auto_norms());

        // The compact grammar declares it too.
        let compact = ScenarioSpec::parse_compact("w=acc:1; norm=acc:auto").unwrap();
        assert!(compact.has_auto_norms());

        // An explicit range followed by auto is discarded: the serialized
        // form is "auto", so the in-memory spec must match what a
        // round-tripped copy would compile to (the registry default).
        let overridden = ScenarioSpec::builder("o")
            .weight(MetricId::Accuracy, 1.0)
            .norm(MetricId::Accuracy, 0.0, 1.0)
            .auto_norm(MetricId::Accuracy)
            .build()
            .unwrap();
        assert_eq!(
            overridden.objectives()[0].norm(),
            MetricId::Accuracy.default_norm()
        );
        assert_eq!(
            ScenarioSpec::from_json(&overridden.to_json()).unwrap(),
            overridden
        );

        // Resolution measures the probe's observed span.
        let probe = vec![
            eval(0.82, 30.0, 90.0, 2.0),
            eval(0.94, 60.0, 140.0, 8.0),
            eval(0.88, 45.0, 120.0, 4.0),
        ];
        let resolved = spec.resolve_auto_norms(&probe, 0.0).unwrap();
        assert!(!resolved.has_auto_norms());
        assert_eq!(resolved.objectives()[0].norm(), (0.82, 0.94));
        // The explicit (default-range) power norm is untouched.
        assert_eq!(
            resolved.objectives()[1].norm(),
            MetricId::PowerW.default_norm()
        );
        // Resolving a spec without autos is the identity.
        let plain = ScenarioSpec::unconstrained();
        assert_eq!(plain.resolve_auto_norms(&probe, 0.1).unwrap(), plain);
    }

    #[test]
    fn auto_norm_resolution_rejects_degenerate_probes() {
        let spec = ScenarioSpec::parse_compact("w=acc:1; norm=acc:auto").unwrap();
        let constant = vec![eval(0.9, 30.0, 90.0, 2.0); 5];
        assert!(matches!(
            spec.resolve_auto_norms(&constant, 0.1),
            Err(ScenarioError::InvalidNorm {
                metric: MetricId::Accuracy,
                ..
            })
        ));
        // Unresolved autos still compile, on the registry default range.
        let compiled = spec.compile();
        assert_eq!(
            compiled.spec().objectives()[0].norm(),
            MetricId::Accuracy.default_norm()
        );
    }

    #[test]
    fn accuracy_norm_falls_back_to_the_standard_range() {
        let standard = LinearNorm::new(0.80, 0.95).unwrap();
        let with_acc = ScenarioSpec::one_constraint().compile();
        assert_eq!(with_acc.accuracy_norm(), standard);
        let without_acc = ScenarioSpec::builder("hw-only")
            .weight(MetricId::LatencyMs, 1.0)
            .build()
            .unwrap()
            .compile();
        assert_eq!(without_acc.accuracy_norm(), standard);
    }
}
