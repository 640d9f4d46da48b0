//! Multi-objective optimization utilities for Codesign-NAS.
//!
//! This crate implements the multi-objective machinery of §II-A of
//! *"Best of Both Worlds: AutoML Codesign of a CNN and its Hardware
//! Accelerator"* (DAC 2020):
//!
//! * [`dominance`] — Pareto dominance between metric vectors, plus
//!   [`rank_dyn`] fast non-dominated sorting,
//! * [`dynfront`] — fronts in whatever named axes a scenario declares
//!   ([`AxisSchema`], [`MetricVector`], [`crowding_distance_dyn`] and the
//!   incremental [`DynParetoFront`], which also filters the
//!   ~billions-of-points codesign space one pair at a time),
//! * [`normalize`] — the element-wise linear normalization `N` of Eq. 3,
//! * [`reward`] — the ε-constraint + weighted-sum reward `R` of Eq. 3/4
//!   ([`DynRewardSpec`]) and the punishment function `Rv` for infeasible
//!   points,
//! * [`hypervolume`] — dominated-hypervolume indicators used to compare search
//!   strategies quantitatively (an extension over the paper's visual comparison),
//! * [`hv_incremental`] — [`IncrementalHypervolume`], the marginal-contribution
//!   tracker behind cached front hypervolume, per-generation snapshots, and
//!   hypervolume-gradient reward shaping.
//!
//! All functions use the **all-maximize convention**: metrics to be minimized
//! (area, latency) are negated by the caller, exactly as the paper writes
//! `E(s) = R(−area(s), −lat(s), acc(s))`.
//!
//! # Examples
//!
//! Extract a Pareto front and score points with the paper's "Unconstrained"
//! reward, `w = (0.1, 0.8, 0.1)` over `(−area, −lat, acc)`:
//!
//! ```
//! use codesign_moo::{AxisSchema, DynParetoFront, DynRewardSpec, LinearNorm, RewardOutcome};
//!
//! # fn main() -> Result<(), codesign_moo::MooError> {
//! let points = [
//!     [-100.0, -50.0, 0.94], // area 100, latency 50ms, accuracy 94%
//!     [-200.0, -20.0, 0.93],
//!     [-200.0, -60.0, 0.92], // dominated by the first point
//! ];
//! let mut front = DynParetoFront::new(AxisSchema::new(["area", "lat", "acc"]));
//! for (i, point) in points.iter().enumerate() {
//!     front.insert_with(point, || i);
//! }
//! let members: Vec<usize> = front.iter().map(|(_, &i)| i).collect();
//! assert_eq!(members, [0, 1]);
//!
//! let spec = DynRewardSpec::builder()
//!     .weights(vec![0.1, 0.8, 0.1])?
//!     .norms(vec![
//!         LinearNorm::new(-250.0, -50.0)?,
//!         LinearNorm::new(-400.0, 0.0)?,
//!         LinearNorm::new(0.80, 0.95)?,
//!     ])
//!     .build()?;
//! let r = spec.evaluate(&points[0]);
//! assert!(matches!(r, RewardOutcome::Feasible(_)));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod dominance;
pub mod dynfront;
pub mod hv_incremental;
pub mod hypervolume;
pub mod normalize;
pub mod reward;

mod error;

pub use dominance::{dominates, dominates_dyn, rank_dyn, Dominance};
pub use dynfront::{crowding_distance_dyn, AxisSchema, DynParetoFront, MetricVector};
pub use error::MooError;
pub use hv_incremental::IncrementalHypervolume;
pub use hypervolume::{hypervolume_2d, hypervolume_3d, hypervolume_dyn, hypervolume_dyn_iter};
pub use normalize::LinearNorm;
pub use reward::{
    validate_punishment, validate_weights, DynRewardSpec, DynRewardSpecBuilder, Punishment,
    RewardOutcome,
};
