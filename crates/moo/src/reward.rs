//! The multi-objective reward of Eq. 3/4 and the punishment function `Rv`.
//!
//! The paper combines two standard multi-objective techniques (§II-A):
//!
//! 1. **ε-constraint**: points with any metric below its threshold are
//!    infeasible and receive a punishment `Rv` "with opposite sign to the
//!    reward" to deter the controller from similar regions;
//! 2. **weighted sum**: feasible points are scored `R(m) = w · N(m)` where `N`
//!    is the element-wise linear normalization of [`crate::LinearNorm`].
//!
//! Everything uses the all-maximize convention, so the paper's
//! `E(s) = R(−area(s), −lat(s), acc(s))` is expressed by negating area and
//! latency before calling [`DynRewardSpec::evaluate`], and a latency
//! constraint `lat < 100 ms` becomes a threshold of `−100` on the negated
//! metric.

use crate::normalize::LinearNorm;
use crate::MooError;

/// How infeasible points are punished.
///
/// The paper specifies only that `Rv` has "opposite sign to the reward"; both
/// variants below satisfy that and are worth comparing (see the punishment
/// ablation bench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Punishment {
    /// A fixed negative reward, independent of how badly constraints are missed.
    Constant(f64),
    /// `-(scale * (1 + total normalized violation))`: points that miss the
    /// constraints by more are punished harder, giving the controller a
    /// gradient back toward the feasible region.
    ScaledViolation {
        /// Base magnitude of the punishment.
        scale: f64,
    },
}

impl Default for Punishment {
    fn default() -> Self {
        Punishment::ScaledViolation { scale: 0.1 }
    }
}

/// Outcome of evaluating one metric vector under a [`DynRewardSpec`].
///
/// # Examples
///
/// ```
/// use codesign_moo::RewardOutcome;
///
/// let r = RewardOutcome::Feasible(0.8);
/// assert_eq!(r.value(), 0.8);
/// assert!(r.is_feasible());
/// assert!(!RewardOutcome::Punished(-0.1).is_feasible());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardOutcome {
    /// All thresholds were met; contains `w · N(m)`.
    Feasible(f64),
    /// At least one threshold was violated; contains the (negative) `Rv`.
    Punished(f64),
}

impl RewardOutcome {
    /// The scalar fed to the controller, regardless of feasibility.
    #[must_use]
    pub fn value(&self) -> f64 {
        match *self {
            RewardOutcome::Feasible(v) | RewardOutcome::Punished(v) => v,
        }
    }

    /// `true` when the point met every constraint.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, RewardOutcome::Feasible(_))
    }
}

/// Validates a weight vector: every entry finite and non-negative, at least
/// one strictly positive. Public so higher-level declaration layers
/// (scenario specs) can apply the *same* rules up front instead of
/// re-implementing them.
///
/// # Errors
///
/// Returns [`MooError::InvalidWeights`] describing the violated rule.
pub fn validate_weights(w: &[f64]) -> Result<(), MooError> {
    if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(MooError::InvalidWeights {
            reason: "weights must be finite and >= 0",
        });
    }
    if w.iter().sum::<f64>() <= 0.0 {
        return Err(MooError::InvalidWeights {
            reason: "weights must not all be zero",
        });
    }
    Ok(())
}

/// Validates a punishment policy: positive, finite magnitude. Public for the
/// same reason as [`validate_weights`].
///
/// # Errors
///
/// Returns [`MooError::InvalidPunishment`] for non-positive or non-finite
/// magnitudes.
pub fn validate_punishment(p: Punishment) -> Result<(), MooError> {
    let magnitude = match p {
        Punishment::Constant(c) => c.abs(),
        Punishment::ScaledViolation { scale } => scale,
    };
    if !(magnitude > 0.0 && magnitude.is_finite()) {
        return Err(MooError::InvalidPunishment {
            reason: "magnitude must be positive",
        });
    }
    Ok(())
}

/// A complete multi-objective reward specification (Eq. 3) whose dimension
/// is chosen at runtime.
///
/// Declarative scenario specifications let users pick an arbitrary set of
/// named metrics, so the objective count is data: the paper's
/// `(−area, −lat, acc)` triple is one three-objective spec among many.
/// Built with [`DynRewardSpec::builder`]; the builder applies
/// [`validate_weights`] and [`validate_punishment`].
///
/// # Examples
///
/// The paper's "1 Constraint" scenario, with the dimension as data:
///
/// ```
/// use codesign_moo::{DynRewardSpec, LinearNorm};
///
/// # fn main() -> Result<(), codesign_moo::MooError> {
/// let spec = DynRewardSpec::builder()
///     .weights(vec![0.1, 0.0, 0.9])?
///     .norms(vec![
///         LinearNorm::new(-250.0, -50.0)?,
///         LinearNorm::new(-400.0, -1.0)?,
///         LinearNorm::new(0.8, 0.95)?,
///     ])
///     .threshold(1, -100.0)?
///     .build()?;
/// assert_eq!(spec.len(), 3);
/// assert!(spec.evaluate(&[-120.0, -80.0, 0.93]).is_feasible());
/// assert!(!spec.evaluate(&[-120.0, -150.0, 0.93]).is_feasible());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynRewardSpec {
    weights: Vec<f64>,
    norms: Vec<LinearNorm>,
    thresholds: Vec<Option<f64>>,
    punishment: Punishment,
}

impl DynRewardSpec {
    /// Starts building a runtime-dimension reward specification.
    #[must_use]
    pub fn builder() -> DynRewardSpecBuilder {
        DynRewardSpecBuilder::new()
    }

    /// The number of objectives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the spec has no objectives (never constructible through
    /// the builder, which rejects all-zero weight vectors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight vector `w`.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-metric normalizations `N`.
    #[must_use]
    pub fn norms(&self) -> &[LinearNorm] {
        &self.norms
    }

    /// Per-metric lower-bound thresholds (all-maximize convention).
    #[must_use]
    pub fn thresholds(&self) -> &[Option<f64>] {
        &self.thresholds
    }

    /// Returns `true` when `m` meets every configured threshold.
    ///
    /// # Panics
    ///
    /// Panics if `m.len()` differs from [`DynRewardSpec::len`].
    #[must_use]
    pub fn is_feasible(&self, m: &[f64]) -> bool {
        self.check_dim(m);
        self.thresholds
            .iter()
            .zip(m.iter())
            .all(|(th, v)| th.is_none_or(|t| *v >= t))
    }

    /// Evaluates Eq. 3: the weighted normalized sum for feasible points, the
    /// punishment `Rv` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m.len()` differs from [`DynRewardSpec::len`].
    #[must_use]
    pub fn evaluate(&self, m: &[f64]) -> RewardOutcome {
        if self.is_feasible(m) {
            RewardOutcome::Feasible(self.scalarize(m))
        } else {
            RewardOutcome::Punished(self.punish(m))
        }
    }

    /// The weighted sum `w · N(m)` ignoring feasibility.
    ///
    /// # Panics
    ///
    /// Panics if `m.len()` differs from [`DynRewardSpec::len`].
    #[must_use]
    pub fn scalarize(&self, m: &[f64]) -> f64 {
        self.check_dim(m);
        let mut acc = 0.0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.weights.len() {
            acc += self.weights[i] * self.norms[i].apply(m[i]);
        }
        acc
    }

    /// Total normalized constraint violation (0 for feasible points).
    ///
    /// # Panics
    ///
    /// Panics if `m.len()` differs from [`DynRewardSpec::len`].
    #[must_use]
    pub fn violation(&self, m: &[f64]) -> f64 {
        self.check_dim(m);
        let mut total = 0.0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.weights.len() {
            if let Some(t) = self.thresholds[i] {
                if m[i] < t {
                    let span = self.norms[i].max() - self.norms[i].min();
                    total += (t - m[i]) / span;
                }
            }
        }
        total
    }

    fn punish(&self, m: &[f64]) -> f64 {
        match self.punishment {
            Punishment::Constant(c) => -c.abs(),
            Punishment::ScaledViolation { scale } => -(scale * (1.0 + self.violation(m).min(10.0))),
        }
    }

    fn check_dim(&self, m: &[f64]) {
        assert_eq!(
            m.len(),
            self.weights.len(),
            "metric vector dimension {} does not match the {}-objective spec",
            m.len(),
            self.weights.len()
        );
    }
}

/// Builder for [`DynRewardSpec`] (see [C-BUILDER]): weights and
/// punishments are validated as they are set, the weight and norm vectors
/// must agree on the dimension, and thresholds must index into it.
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone, Default)]
pub struct DynRewardSpecBuilder {
    weights: Option<Vec<f64>>,
    norms: Option<Vec<LinearNorm>>,
    thresholds: Vec<(usize, f64)>,
    punishment: Punishment,
}

impl DynRewardSpecBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            weights: None,
            norms: None,
            thresholds: Vec::new(),
            punishment: Punishment::default(),
        }
    }

    /// Sets the weight vector `w`, fixing the dimension.
    ///
    /// # Errors
    ///
    /// Returns [`MooError::InvalidWeights`] if any weight is negative or
    /// non-finite, or if all weights are zero.
    pub fn weights(mut self, w: Vec<f64>) -> Result<Self, MooError> {
        validate_weights(&w)?;
        self.weights = Some(w);
        Ok(self)
    }

    /// Sets the per-metric normalizations.
    #[must_use]
    pub fn norms(mut self, norms: Vec<LinearNorm>) -> Self {
        self.norms = Some(norms);
        self
    }

    /// Adds a lower-bound threshold on metric `index` (all-maximize
    /// convention).
    ///
    /// # Errors
    ///
    /// Returns [`MooError::DimensionMismatch`] when `index` is out of bounds
    /// of an already-fixed dimension (bounds of a later-fixed dimension are
    /// checked at [`DynRewardSpecBuilder::build`]).
    pub fn threshold(mut self, index: usize, min_value: f64) -> Result<Self, MooError> {
        if let Some(dim) = self.dimension() {
            if index >= dim {
                return Err(MooError::DimensionMismatch {
                    expected: dim,
                    found: index,
                });
            }
        }
        self.thresholds.push((index, min_value));
        Ok(self)
    }

    /// Sets the punishment policy for infeasible points.
    ///
    /// # Errors
    ///
    /// Returns [`MooError::InvalidPunishment`] for non-positive or
    /// non-finite magnitudes.
    pub fn punishment(mut self, p: Punishment) -> Result<Self, MooError> {
        validate_punishment(p)?;
        self.punishment = p;
        Ok(self)
    }

    fn dimension(&self) -> Option<usize> {
        self.weights
            .as_ref()
            .map(Vec::len)
            .or_else(|| self.norms.as_ref().map(Vec::len))
    }

    /// Finalizes the specification.
    ///
    /// # Errors
    ///
    /// Returns [`MooError::IncompleteSpec`] when weights or norms were never
    /// provided, and [`MooError::DimensionMismatch`] when their lengths
    /// disagree or a threshold indexes past the dimension.
    pub fn build(self) -> Result<DynRewardSpec, MooError> {
        let weights = self
            .weights
            .ok_or(MooError::IncompleteSpec { missing: "weights" })?;
        let norms = self
            .norms
            .ok_or(MooError::IncompleteSpec { missing: "norms" })?;
        if weights.len() != norms.len() {
            return Err(MooError::DimensionMismatch {
                expected: weights.len(),
                found: norms.len(),
            });
        }
        let mut thresholds = vec![None; weights.len()];
        for (index, value) in self.thresholds {
            if index >= weights.len() {
                return Err(MooError::DimensionMismatch {
                    expected: weights.len(),
                    found: index,
                });
            }
            thresholds[index] = Some(value);
        }
        Ok(DynRewardSpec {
            weights,
            norms,
            thresholds,
            punishment: self.punishment,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec with unit norms on every axis and the given thresholds.
    fn unit_spec(weights: Vec<f64>, thresholds: &[(usize, f64)]) -> DynRewardSpecBuilder {
        let norms = vec![LinearNorm::unit(); weights.len()];
        let mut builder = DynRewardSpec::builder()
            .weights(weights)
            .unwrap()
            .norms(norms);
        for &(index, min_value) in thresholds {
            builder = builder.threshold(index, min_value).unwrap();
        }
        builder
    }

    #[test]
    fn feasible_reward_is_weighted_sum() {
        let spec = unit_spec(vec![0.1, 0.8, 0.1], &[]).build().unwrap();
        let r = spec.evaluate(&[1.0, 0.5, 0.0]);
        assert!(r.is_feasible());
        assert!((r.value() - (0.1 + 0.8 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn reward_is_bounded_by_weight_sum() {
        let spec = unit_spec(vec![0.1, 0.8, 0.1], &[]).build().unwrap();
        let r = spec.evaluate(&[100.0, 100.0, 100.0]); // clamped to 1 each
        assert!((r.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_violation_punishes_with_negative_value() {
        let spec = unit_spec(vec![1.0, 1.0, 1.0], &[(2, 0.92)])
            .build()
            .unwrap();
        let r = spec.evaluate(&[0.5, 0.5, 0.91]);
        assert!(!r.is_feasible());
        assert!(r.value() < 0.0);
    }

    #[test]
    fn scaled_violation_punishes_worse_misses_harder() {
        let spec = unit_spec(vec![1.0], &[(0, 0.5)])
            .punishment(Punishment::ScaledViolation { scale: 0.2 })
            .unwrap()
            .build()
            .unwrap();
        let near = spec.evaluate(&[0.49]).value();
        let far = spec.evaluate(&[0.0]).value();
        assert!(far < near && near < 0.0);
    }

    #[test]
    fn constant_punishment_is_flat() {
        let spec = unit_spec(vec![1.0], &[(0, 0.5)])
            .punishment(Punishment::Constant(0.3))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(spec.evaluate(&[0.4]).value(), -0.3);
        assert_eq!(spec.evaluate(&[-10.0]).value(), -0.3);
    }

    #[test]
    fn multiple_thresholds_all_enforced() {
        // The paper's "2 Constraints": acc > 0.92, area < 100mm^2, optimize latency.
        let spec = DynRewardSpec::builder()
            .weights(vec![0.0, 1.0, 0.0])
            .unwrap()
            .norms(vec![
                LinearNorm::new(-250.0, -50.0).unwrap(),
                LinearNorm::new(-400.0, -1.0).unwrap(),
                LinearNorm::new(0.8, 0.95).unwrap(),
            ])
            .threshold(0, -100.0)
            .unwrap()
            .threshold(2, 0.92)
            .unwrap()
            .build()
            .unwrap();
        assert!(spec.evaluate(&[-90.0, -40.0, 0.93]).is_feasible());
        assert!(!spec.evaluate(&[-110.0, -40.0, 0.93]).is_feasible());
        assert!(!spec.evaluate(&[-90.0, -40.0, 0.91]).is_feasible());
    }

    #[test]
    fn weights_validation() {
        assert!(DynRewardSpec::builder().weights(vec![-0.1, 1.0]).is_err());
        assert!(DynRewardSpec::builder().weights(vec![0.0, 0.0]).is_err());
        assert!(DynRewardSpec::builder()
            .weights(vec![f64::NAN, 1.0])
            .is_err());
    }

    #[test]
    fn build_requires_weights_and_norms() {
        let err = DynRewardSpec::builder().build().unwrap_err();
        assert!(matches!(
            err,
            MooError::IncompleteSpec { missing: "weights" }
        ));
        let err = DynRewardSpec::builder()
            .weights(vec![1.0])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, MooError::IncompleteSpec { missing: "norms" }));
    }

    #[test]
    fn punishment_validation() {
        assert!(DynRewardSpec::builder()
            .punishment(Punishment::Constant(0.0))
            .is_err());
        assert!(DynRewardSpec::builder()
            .punishment(Punishment::ScaledViolation { scale: -1.0 })
            .is_err());
    }

    #[test]
    fn violation_accumulates_across_metrics() {
        let spec = unit_spec(vec![1.0, 1.0], &[(0, 0.5), (1, 0.5)])
            .build()
            .unwrap();
        let v_one = spec.violation(&[0.4, 0.6]);
        let v_two = spec.violation(&[0.4, 0.4]);
        assert!(v_two > v_one && v_one > 0.0);
        assert_eq!(spec.violation(&[0.6, 0.6]), 0.0);
    }

    #[test]
    fn dyn_builder_rejects_dimension_mismatches() {
        let err = DynRewardSpec::builder()
            .weights(vec![1.0, 1.0])
            .unwrap()
            .norms(vec![LinearNorm::unit()])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            MooError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        ));
        let err = DynRewardSpec::builder()
            .weights(vec![1.0])
            .unwrap()
            .threshold(3, 0.0)
            .unwrap_err();
        assert!(matches!(
            err,
            MooError::DimensionMismatch {
                expected: 1,
                found: 3
            }
        ));
        // A threshold added before the dimension is fixed is checked at build.
        let err = DynRewardSpec::builder()
            .threshold(5, 0.0)
            .unwrap()
            .weights(vec![1.0])
            .unwrap()
            .norms(vec![LinearNorm::unit()])
            .build()
            .unwrap_err();
        assert!(matches!(err, MooError::DimensionMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dyn_spec_panics_on_wrong_metric_dimension() {
        let spec = DynRewardSpec::builder()
            .weights(vec![1.0, 1.0])
            .unwrap()
            .norms(vec![LinearNorm::unit(), LinearNorm::unit()])
            .build()
            .unwrap();
        let _ = spec.evaluate(&[0.5]);
    }
}
