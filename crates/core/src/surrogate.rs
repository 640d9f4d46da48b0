//! Surrogate-guided search: an online cache-trained predictor with a
//! predict-then-verify candidate filter (extension).
//!
//! The paper spends one real evaluation per controller step; CODEBench
//! (Tuli et al., 2022) and learned co-design follow-ups show the budget
//! goes further when a cheap learned surrogate screens candidates first.
//! This module supplies that layer for the population strategies:
//!
//! * [`pair_features`] — a fixed 18-dimensional featurization of one
//!   `(CNN cell, accelerator config)` pair: 10 structural cell descriptors
//!   (from [`codesign_nasbench::CellFeatures`]) and 8 accelerator
//!   parameters.
//! * [`SurrogateGuide`] — a small MLP regressor
//!   ([`codesign_rl::MlpRegressor`]) predicting `[accuracy, ln latency,
//!   ln area, ln power]`, retrained from scratch at fixed seed every
//!   [`SurrogateConfig::retrain`] observed evaluations. Because the targets
//!   are scenario-independent raw metrics, a guide warm-started from a
//!   cache populated by *other* scenarios still predicts usefully — the
//!   scenario's own reward is applied to the *predicted* evaluation at
//!   ranking time.
//! * [`SurrogateConfig`] — the campaign-flag syntax `k:R`: over-produce
//!   `k ×` candidates per real evaluation, retrain every `R` observations.
//!
//! # Determinism contract
//!
//! Guided search must be bit-identical at any worker count, and disabled
//! guidance must be bit-identical to unguided search. Three rules enforce
//! this:
//!
//! 1. The guide trains **only** on warm (preloaded) cache entries — fixed
//!    before any shard runs — plus the shard's *own* evaluation stream,
//!    never on live entries concurrently inserted by sibling shards.
//! 2. Model initialization is seeded by a single `u64` drawn from the
//!    shard's injected RNG stream when guidance is enabled (and nothing is
//!    drawn when it is off), so a guided run is a pure function of that
//!    stream and a disabled guide leaves the stream untouched.
//! 3. Training itself is full-batch gradient descent in sample-index order
//!    ([`MlpRegressor::fit`]), and ranking ties break on the lowest
//!    candidate index — no unordered collections anywhere.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

use codesign_accel::AcceleratorConfig;
use codesign_nasbench::{CellFeatures, CellSpec, Dataset};
use codesign_rl::MlpRegressor;

use crate::evaluator::{EvalOutcome, Evaluator, PairEvaluation};
use crate::search::SearchContext;
use crate::space::Proposal;

/// Structural cell descriptors per feature vector.
pub const CELL_FEATURE_DIM: usize = 10;
/// Accelerator-parameter descriptors per feature vector.
pub const HW_FEATURE_DIM: usize = 8;
/// Total feature dimensionality of one `(cell, config)` pair.
pub const FEATURE_DIM: usize = CELL_FEATURE_DIM + HW_FEATURE_DIM;
/// Predicted targets: `[accuracy, ln latency_ms, ln area_mm2, ln power_w]`.
pub const TARGET_DIM: usize = 4;

/// Observations required before the first training round.
const MIN_TRAIN_SAMPLES: usize = 16;
/// Training-set cap: retraining fits the most recent window, keeping each
/// round O(window) instead of O(run length).
const MAX_TRAIN_SAMPLES: usize = 512;
/// Floor applied before `ln` so degenerate metrics cannot produce `-inf`.
const LN_FLOOR: f64 = 1e-12;

/// Telemetry: wall-clock of surrogate training rounds, µs.
static TRAIN_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("surrogate.train_us");
/// Telemetry: wall-clock of surrogate predictions, µs.
static PRED_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("surrogate.pred_us");

/// The structural feature vector of a CNN cell on `dataset`'s skeleton,
/// the first [`CELL_FEATURE_DIM`] entries of [`pair_features`].
///
/// Extracted once per cold evaluation and stored in the shared cache (the
/// raw `CellSpec` is unrecoverable from a salted cache key), so cache
/// snapshots can hand back `(features, metrics)` pairs.
#[must_use]
pub fn cell_feature_vec(cell: &CellSpec, dataset: Dataset) -> [f64; CELL_FEATURE_DIM] {
    let f = CellFeatures::extract(cell, dataset);
    [
        f.num_vertices as f64,
        f.num_edges as f64,
        f.depth as f64,
        f.width as f64,
        f.conv3_count as f64,
        f.conv1_count as f64,
        f.pool_count as f64,
        if f.has_skip { 1.0 } else { 0.0 },
        (f.macs.max(1) as f64).log10(),
        f.log10_params(),
    ]
}

/// The accelerator-parameter feature vector, the last [`HW_FEATURE_DIM`]
/// entries of [`pair_features`].
#[must_use]
pub fn config_feature_vec(config: &AcceleratorConfig) -> [f64; HW_FEATURE_DIM] {
    [
        config.filter_par as f64,
        config.pixel_par as f64,
        config.input_buffer_depth as f64,
        config.weight_buffer_depth as f64,
        config.output_buffer_depth as f64,
        config.mem_interface_width as f64,
        if config.pool_enable { 1.0 } else { 0.0 },
        config.ratio_conv_engines.value(),
    ]
}

/// Joins stored cell features with an accelerator config into the full
/// [`FEATURE_DIM`]-dimensional surrogate input.
#[must_use]
pub fn features_with_config(
    cell_features: &[f64; CELL_FEATURE_DIM],
    config: &AcceleratorConfig,
) -> Vec<f64> {
    let mut v = Vec::with_capacity(FEATURE_DIM);
    v.extend_from_slice(cell_features);
    v.extend_from_slice(&config_feature_vec(config));
    v
}

/// The full surrogate feature vector of one `(cell, config)` pair.
#[must_use]
pub fn pair_features(cell: &CellSpec, dataset: Dataset, config: &AcceleratorConfig) -> Vec<f64> {
    features_with_config(&cell_feature_vec(cell, dataset), config)
}

/// The regression targets of one evaluation:
/// `[accuracy, ln latency_ms, ln area_mm2, ln power_w]`. Latency, area and
/// power are log-transformed because they span orders of magnitude across
/// the accelerator space.
#[must_use]
pub fn surrogate_targets(eval: &PairEvaluation) -> [f64; TARGET_DIM] {
    [
        eval.accuracy,
        eval.latency_ms.max(LN_FLOOR).ln(),
        eval.area_mm2.max(LN_FLOOR).ln(),
        eval.power_w.max(LN_FLOOR).ln(),
    ]
}

/// One deterministically-ordered training pair handed out by cache
/// snapshots ([`crate::EvalCache::snapshot_labeled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// The [`FEATURE_DIM`]-dimensional pair featurization.
    pub features: Vec<f64>,
    /// The [`surrogate_targets`] of the recorded evaluation.
    pub targets: [f64; TARGET_DIM],
}

impl LabeledSample {
    /// Builds a sample from a feature vector and the evaluation it labels.
    #[must_use]
    pub fn from_eval(features: Vec<f64>, eval: &PairEvaluation) -> Self {
        Self {
            features,
            targets: surrogate_targets(eval),
        }
    }
}

/// Predict-then-verify knobs, parsed from the campaign-flag syntax `k:R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurrogateConfig {
    /// Candidates produced per real evaluation once the guide is trained
    /// (`k ≥ 2`; `k = 1` would be unguided search at guided cost).
    pub overproduce: usize,
    /// Observed evaluations between training rounds (`R ≥ 1`).
    pub retrain: usize,
}

impl SurrogateConfig {
    /// Parses the campaign-flag syntax: `none`/`off` (or empty) for no
    /// guidance, `<k>:<R>` for predict-then-verify with `k×`
    /// over-production retrained every `R` observations.
    ///
    /// # Errors
    ///
    /// Returns a description when the syntax is unknown, `k < 2`, or
    /// `R < 1`.
    pub fn parse(s: &str) -> Result<Option<Self>, String> {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("none") || s.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        let Some((k, r)) = s.split_once(':') else {
            return Err(format!(
                "unknown surrogate mode '{s}' (expected 'off' or '<k>:<R>', e.g. '4:32')"
            ));
        };
        let overproduce: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("invalid surrogate over-production factor '{k}'"))?;
        let retrain: usize = r
            .trim()
            .parse()
            .map_err(|_| format!("invalid surrogate retrain interval '{r}'"))?;
        if overproduce < 2 {
            return Err(format!(
                "surrogate over-production factor must be at least 2, got {overproduce}"
            ));
        }
        if retrain == 0 {
            return Err("surrogate retrain interval must be at least 1".into());
        }
        Ok(Some(Self {
            overproduce,
            retrain,
        }))
    }
}

impl std::fmt::Display for SurrogateConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.overproduce, self.retrain)
    }
}

/// Counters a guided run exports: how hard the guide filtered and how well
/// it predicted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SurrogateStats {
    /// Genomes produced across all selection events (over-produced
    /// candidates included).
    pub candidates: usize,
    /// Genomes actually evaluated for real (every recorded step).
    pub verified: usize,
    /// Training rounds run.
    pub train_rounds: usize,
    /// Labeled samples taken from the warm cache snapshot at startup.
    pub warm_samples: usize,
    /// Σ |predicted − actual| scalarized reward over verified guided picks.
    pub pred_err_sum: f64,
    /// Number of verified guided picks with a valid prediction error.
    pub pred_count: usize,
}

impl SurrogateStats {
    /// Fraction of produced candidates that were really evaluated
    /// (`1.0` while unguided, `1/k` under full `k×` over-production).
    #[must_use]
    pub fn verify_rate(&self) -> f64 {
        self.verified as f64 / self.candidates.max(1) as f64
    }

    /// Mean |predicted − actual| scalarized reward over verified guided
    /// picks (`NaN` before any guided pick was verified).
    #[must_use]
    pub fn pred_mae(&self) -> f64 {
        if self.pred_count == 0 {
            f64::NAN
        } else {
            self.pred_err_sum / self.pred_count as f64
        }
    }
}

/// The online surrogate: observation buffer, fixed-seed retraining, and
/// metric prediction.
///
/// # Examples
///
/// ```
/// use codesign_core::{PairEvaluation, SurrogateConfig, SurrogateGuide};
///
/// let config = SurrogateConfig::parse("4:8").unwrap().unwrap();
/// let mut guide = SurrogateGuide::new(config, 7);
/// assert!(!guide.ready());
/// for i in 0..32 {
///     let features: Vec<f64> = (0..18).map(|d| ((i * 7 + d) % 5) as f64).collect();
///     let eval = PairEvaluation {
///         accuracy: 0.9,
///         latency_ms: 10.0 + i as f64,
///         area_mm2: 100.0,
///         power_w: 4.0,
///     };
///     guide.observe(features, &eval);
/// }
/// assert!(guide.ready());
/// let pred = guide.predict_eval(&vec![1.0; 18]);
/// assert!(pred.latency_ms > 0.0 && (0.0..=1.0).contains(&pred.accuracy));
/// ```
#[derive(Debug, Clone)]
pub struct SurrogateGuide {
    config: SurrogateConfig,
    /// Seed of every (re)training round's model initialization.
    seed: u64,
    /// `None` until the first training round completes.
    model: Option<MlpRegressor>,
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    /// Sample count at the last training round (0 = never trained); the
    /// retrain rule is a pure function of this and the current count.
    trained_at: usize,
    stats: SurrogateStats,
}

impl SurrogateGuide {
    /// A fresh guide. `seed` fixes model initialization for every training
    /// round; campaign strategies draw it from the shard's injected RNG
    /// stream.
    #[must_use]
    pub fn new(config: SurrogateConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            model: None,
            xs: Vec::new(),
            ys: Vec::new(),
            trained_at: 0,
            stats: SurrogateStats::default(),
        }
    }

    /// The predict-then-verify knobs.
    #[must_use]
    pub fn config(&self) -> SurrogateConfig {
        self.config
    }

    /// Whether at least one training round has completed — the gate for
    /// guided candidate selection.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.model.is_some()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SurrogateStats {
        self.stats
    }

    /// Observations buffered so far (warm samples included).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.xs.len()
    }

    /// Seeds the observation buffer from a cache snapshot (warm entries
    /// preloaded from disk — fixed before any shard runs, so warm-started
    /// guides stay deterministic at any worker count).
    pub fn warm_start(&mut self, samples: &[LabeledSample]) {
        for sample in samples {
            self.xs.push(sample.features.clone());
            self.ys.push(sample.targets.to_vec());
        }
        self.stats.warm_samples += samples.len();
        self.maybe_retrain();
    }

    /// Records one real evaluation and retrains when due.
    pub fn observe(&mut self, features: Vec<f64>, eval: &PairEvaluation) {
        self.xs.push(features);
        self.ys.push(surrogate_targets(eval).to_vec());
        self.maybe_retrain();
    }

    /// Retrains from scratch when the sample count crosses the next
    /// watermark. The rule — first round at [`MIN_TRAIN_SAMPLES`], then
    /// every [`SurrogateConfig::retrain`] samples — is a pure function of
    /// the sample count, so guided runs retrain at identical points on
    /// every worker layout.
    fn maybe_retrain(&mut self) {
        let n = self.xs.len();
        if n < MIN_TRAIN_SAMPLES {
            return;
        }
        let due = self.trained_at == 0 || n >= self.trained_at + self.config.retrain;
        if !due {
            return;
        }
        let timer = codesign_telemetry::enabled().then(Instant::now);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut model = MlpRegressor::new(FEATURE_DIM, TARGET_DIM, &mut rng);
        let start = n.saturating_sub(MAX_TRAIN_SAMPLES);
        model.fit(&self.xs[start..], &self.ys[start..]);
        if let Some(t) = timer {
            TRAIN_US.record_duration(t.elapsed());
        }
        self.model = model.is_trained().then_some(model);
        self.trained_at = n;
        self.stats.train_rounds += 1;
    }

    /// Predicts the evaluation of a candidate pair from its
    /// [`pair_features`]. Accuracy is clamped to `[0, 1]`; latency, area
    /// and power are exponentiated back from log space (clamped so a wild
    /// extrapolation cannot overflow).
    ///
    /// # Panics
    ///
    /// Panics when called before [`SurrogateGuide::ready`].
    #[must_use]
    pub fn predict_eval(&self, features: &[f64]) -> PairEvaluation {
        let model = self.model.as_ref().expect("predict_eval requires ready()");
        let timer = codesign_telemetry::enabled().then(Instant::now);
        let y = model.predict(features);
        if let Some(t) = timer {
            PRED_US.record_duration(t.elapsed());
        }
        PairEvaluation {
            accuracy: y[0].clamp(0.0, 1.0),
            latency_ms: y[1].clamp(-40.0, 40.0).exp(),
            area_mm2: y[2].clamp(-40.0, 40.0).exp(),
            power_w: y[3].clamp(-40.0, 40.0).exp(),
        }
    }

    /// Accounts `n` produced candidate genomes (1 per unguided step, `k`
    /// per guided selection event).
    pub fn note_candidates(&mut self, n: usize) {
        self.stats.candidates += n;
    }

    /// Accounts one real evaluation.
    pub fn note_verified(&mut self) {
        self.stats.verified += 1;
    }

    /// Accounts the prediction error of one verified guided pick:
    /// |predicted − actual| scalarized reward (skipped when either side is
    /// non-finite).
    pub fn note_prediction(&mut self, predicted: f64, actual: f64) {
        if predicted.is_finite() && actual.is_finite() {
            self.stats.pred_err_sum += (predicted - actual).abs();
            self.stats.pred_count += 1;
        }
    }

    /// The guide of one generational run: draws the model-initialization
    /// seed from the run's injected stream — exactly one `u64`, so enabling
    /// guidance perturbs the stream identically across strategies, and
    /// disabling it draws nothing — then warm-starts from the preloaded
    /// entries of the evaluator's shared cache, if any.
    #[must_use]
    pub fn for_run(config: SurrogateConfig, evaluator: &Evaluator, rng: &mut SmallRng) -> Self {
        let mut guide = Self::new(config, rng.gen::<u64>());
        if let Some(shared) = evaluator.shared_cache() {
            guide.warm_start(&shared.snapshot_labeled());
        }
        guide
    }

    /// Feeds one real evaluation back: accounts it, scores the reward
    /// `predicted` for it when it was a guided pick, and observes the pair
    /// when it is valid.
    pub fn observe_verified(
        &mut self,
        ctx: &SearchContext<'_>,
        proposal: &Proposal,
        outcome: &EvalOutcome,
        predicted: Option<f64>,
    ) {
        self.note_verified();
        if let (Ok(cell), Some(eval)) = (&proposal.cell, outcome.evaluation()) {
            if let Some(score) = predicted {
                self.note_prediction(score, ctx.reward.reward(eval).value());
            }
            self.observe(
                pair_features(cell, ctx.evaluator.dataset(), &proposal.config),
                eval,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_accel::ConfigSpace;
    use codesign_nasbench::known_cells;

    fn sample_eval(i: usize) -> PairEvaluation {
        PairEvaluation {
            accuracy: 0.85 + 0.001 * (i % 50) as f64,
            latency_ms: 20.0 + (i % 17) as f64,
            area_mm2: 90.0 + (i % 11) as f64,
            power_w: 3.0 + 0.1 * (i % 7) as f64,
        }
    }

    fn sample_features(i: usize) -> Vec<f64> {
        (0..FEATURE_DIM)
            .map(|d| (((i * 31 + d * 7) % 13) as f64).sin())
            .collect()
    }

    #[test]
    fn config_parses_the_flag_syntax() {
        assert_eq!(SurrogateConfig::parse(""), Ok(None));
        assert_eq!(SurrogateConfig::parse("none"), Ok(None));
        assert_eq!(SurrogateConfig::parse("off"), Ok(None));
        assert_eq!(
            SurrogateConfig::parse("4:32"),
            Ok(Some(SurrogateConfig {
                overproduce: 4,
                retrain: 32,
            }))
        );
        assert!(SurrogateConfig::parse("1:32").is_err(), "k < 2 rejected");
        assert!(SurrogateConfig::parse("4:0").is_err(), "R < 1 rejected");
        assert!(SurrogateConfig::parse("4").is_err());
        assert!(SurrogateConfig::parse("a:b").is_err());
        assert_eq!(
            SurrogateConfig::parse("4:32").unwrap().unwrap().to_string(),
            "4:32"
        );
    }

    #[test]
    fn feature_vectors_have_the_documented_dims() {
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(123);
        let cf = cell_feature_vec(&cell, Dataset::Cifar10);
        assert!(cf.iter().all(|v| v.is_finite()));
        assert_eq!(cf[7], 1.0, "resnet cell has an input→output skip");
        let full = pair_features(&cell, Dataset::Cifar10, &config);
        assert_eq!(full.len(), FEATURE_DIM);
        assert_eq!(full[..CELL_FEATURE_DIM], cf);
        assert_eq!(
            full[CELL_FEATURE_DIM..],
            config_feature_vec(&config),
            "pair features are cell features ++ config features"
        );
    }

    #[test]
    fn guide_trains_at_the_watermarks_and_predicts() {
        let config = SurrogateConfig {
            overproduce: 4,
            retrain: 8,
        };
        let mut guide = SurrogateGuide::new(config, 42);
        for i in 0..MIN_TRAIN_SAMPLES - 1 {
            guide.observe(sample_features(i), &sample_eval(i));
            assert!(!guide.ready());
        }
        guide.observe(sample_features(99), &sample_eval(99));
        assert!(guide.ready(), "first round at MIN_TRAIN_SAMPLES");
        assert_eq!(guide.stats().train_rounds, 1);
        for i in 0..7 {
            guide.observe(sample_features(100 + i), &sample_eval(i));
        }
        assert_eq!(guide.stats().train_rounds, 1, "not due yet");
        guide.observe(sample_features(200), &sample_eval(3));
        assert_eq!(guide.stats().train_rounds, 2, "due every R = 8");
        let pred = guide.predict_eval(&sample_features(5));
        assert!((0.0..=1.0).contains(&pred.accuracy));
        assert!(pred.latency_ms > 0.0 && pred.area_mm2 > 0.0 && pred.power_w > 0.0);
    }

    #[test]
    fn guide_training_is_bit_identical_across_runs() {
        let config = SurrogateConfig {
            overproduce: 2,
            retrain: 4,
        };
        let run = || {
            let mut guide = SurrogateGuide::new(config, 7);
            for i in 0..40 {
                guide.observe(sample_features(i), &sample_eval(i));
            }
            guide.predict_eval(&sample_features(77))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
        assert_eq!(a.area_mm2.to_bits(), b.area_mm2.to_bits());
        assert_eq!(a.power_w.to_bits(), b.power_w.to_bits());
    }

    #[test]
    fn warm_start_counts_and_can_train_alone() {
        let config = SurrogateConfig {
            overproduce: 4,
            retrain: 32,
        };
        let mut guide = SurrogateGuide::new(config, 1);
        let samples: Vec<LabeledSample> = (0..24)
            .map(|i| LabeledSample::from_eval(sample_features(i), &sample_eval(i)))
            .collect();
        guide.warm_start(&samples);
        assert!(guide.ready(), "24 warm samples ≥ MIN_TRAIN_SAMPLES");
        assert_eq!(guide.stats().warm_samples, 24);
        assert_eq!(guide.samples(), 24);
    }

    #[test]
    fn stats_rates_are_well_defined() {
        let mut stats = SurrogateStats::default();
        assert_eq!(stats.verify_rate(), 0.0);
        assert!(stats.pred_mae().is_nan());
        stats.candidates = 40;
        stats.verified = 10;
        stats.pred_err_sum = 0.5;
        stats.pred_count = 10;
        assert_eq!(stats.verify_rate(), 0.25);
        assert!((stats.pred_mae() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn targets_roundtrip_through_log_space() {
        let eval = sample_eval(3);
        let t = surrogate_targets(&eval);
        assert_eq!(t[0], eval.accuracy);
        assert!((t[1].exp() - eval.latency_ms).abs() < 1e-9);
        assert!((t[2].exp() - eval.area_mm2).abs() < 1e-9);
        assert!((t[3].exp() - eval.power_w).abs() < 1e-9);
    }
}
