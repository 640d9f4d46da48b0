//! Runtime-dimension Pareto fronts with named axes.
//!
//! Declarative scenarios choose an arbitrary set of named metrics at
//! *runtime* — the paper's `(−area, −lat, acc)` triple is one choice among
//! many — so everything downstream of a scenario (search fronts, campaign
//! reports, exports) needs the dimension, and the axis labels, to be data.
//! This module provides that stack:
//!
//! * [`AxisSchema`] — an `Arc`-shared, ordered list of axis names. Cloning a
//!   schema is a refcount bump; every front of one scenario shares one
//!   allocation, and exports read column names straight from it.
//! * [`MetricVector`] — a small-vec-style point: up to
//!   [`MetricVector::INLINE_DIMS`] values live inline (no heap allocation for
//!   any registry-sized scenario), larger vectors spill to a `Vec`.
//! * [`DynParetoFront`] — an incrementally-maintained front: insertion with
//!   dominated-member eviction, duplicate metric vectors retained, members'
//!   metrics in one flat array scanned in a single pass. It is the one
//!   front type, from a search shard's to the exhaustive enumeration's,
//!   which inserts every pair of the codesign space and so holds only the
//!   members, never the stream.
//!
//! All points use the all-maximize convention of the rest of the crate.
//!
//! # Examples
//!
//! A two-axis accuracy × power front — inexpressible as a paper triple:
//!
//! ```
//! use codesign_moo::{AxisSchema, DynParetoFront, MetricVector};
//!
//! let schema = AxisSchema::new(["acc", "power"]);
//! let mut front: DynParetoFront<&str> = DynParetoFront::new(schema);
//! assert!(front.insert(MetricVector::from_slice(&[0.94, -8.0]), "accurate"));
//! assert!(front.insert(MetricVector::from_slice(&[0.90, -2.0]), "frugal"));
//! assert!(!front.insert(MetricVector::from_slice(&[0.89, -9.0]), "bad"));
//! assert_eq!(front.len(), 2);
//! assert_eq!(front.schema().names(), ["acc", "power"]);
//! ```

use std::sync::Arc;

use codesign_telemetry::Histogram;

use crate::dominance::{compare_dyn, dominates_dyn, Dominance};
use crate::hv_incremental::IncrementalHypervolume;
use crate::hypervolume::hypervolume_dyn_iter;

/// Latency of [`DynParetoFront::insert`] (dominance scan + eviction), µs.
static FRONT_INSERT_US: Histogram = Histogram::new("moo.front.insert_us");
/// Latency of [`DynParetoFront::hypervolume`] evaluations, µs.
static HYPERVOLUME_US: Histogram = Histogram::new("moo.hypervolume_us");

/// An ordered, shared list of metric axis names — the identity of a
/// runtime-dimension front.
///
/// Schemas are cheap to clone (`Arc` bump) and compare (pointer equality
/// fast path, name-by-name fallback), so every front and export of one
/// scenario can carry the same schema without duplicating strings.
///
/// # Examples
///
/// ```
/// use codesign_moo::AxisSchema;
///
/// let a = AxisSchema::new(["acc", "power"]);
/// let b = a.clone(); // refcount bump, same allocation
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 2);
/// assert_eq!(a.position("power"), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct AxisSchema {
    axes: Arc<[String]>,
}

impl AxisSchema {
    /// Builds a schema from axis names, in objective order.
    #[must_use]
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            axes: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of axes (the dimension of every point under this schema).
    #[must_use]
    pub fn len(&self) -> usize {
        self.axes.len()
    }

    /// `true` when the schema names no axes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The axis names, in objective order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.axes
    }

    /// The name of axis `index`, if in range.
    #[must_use]
    pub fn name(&self, index: usize) -> Option<&str> {
        self.axes.get(index).map(String::as_str)
    }

    /// The index of the named axis, if present.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.axes.iter().position(|a| a == name)
    }
}

impl PartialEq for AxisSchema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.axes, &other.axes) || self.axes == other.axes
    }
}

impl Eq for AxisSchema {}

impl std::fmt::Display for AxisSchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.axes.join(","))
    }
}

/// A runtime-dimension metric point.
///
/// Vectors of up to [`MetricVector::INLINE_DIMS`] values — every scenario
/// over the five-metric registry — are stored inline; pushing one into a
/// front never allocates. Larger vectors spill to the heap transparently.
///
/// # Examples
///
/// ```
/// use codesign_moo::MetricVector;
///
/// let v = MetricVector::from_slice(&[-120.0, -40.0, 0.93]);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v[2], 0.93);
/// assert_eq!(v.as_slice(), &[-120.0, -40.0, 0.93]);
/// ```
#[derive(Clone)]
pub struct MetricVector {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        values: [f64; MetricVector::INLINE_DIMS],
    },
    Heap(Vec<f64>),
}

impl MetricVector {
    /// Dimensions stored without heap allocation.
    pub const INLINE_DIMS: usize = 6;

    /// Copies a slice into a metric vector.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        if values.len() <= Self::INLINE_DIMS {
            let mut inline = [0.0; Self::INLINE_DIMS];
            inline[..values.len()].copy_from_slice(values);
            Self {
                repr: Repr::Inline {
                    len: values.len() as u8,
                    values: inline,
                },
            }
        } else {
            Self {
                repr: Repr::Heap(values.to_vec()),
            }
        }
    }

    /// The values as a slice, in axis order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        match &self.repr {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }

    /// The dimension of the point.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` for the zero-dimensional vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The bit patterns of the values — the exact-identity key used by
    /// determinism tests and deterministic fingerprints.
    #[must_use]
    pub fn to_bits(&self) -> Vec<u64> {
        self.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}

impl std::ops::Deref for MetricVector {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl AsRef<[f64]> for MetricVector {
    fn as_ref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl PartialEq for MetricVector {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for MetricVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<f64>> for MetricVector {
    fn from(values: Vec<f64>) -> Self {
        Self::from_slice(&values)
    }
}

impl<const N: usize> From<[f64; N]> for MetricVector {
    fn from(values: [f64; N]) -> Self {
        Self::from_slice(&values)
    }
}

impl FromIterator<f64> for MetricVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let values: Vec<f64> = iter.into_iter().collect();
        Self::from_slice(&values)
    }
}

/// An incrementally-maintained Pareto front whose dimension — and axis
/// names — are chosen at runtime.
///
/// Search loops push every evaluated `(metrics, payload)` pair; the front
/// keeps only non-dominated entries. Insertion is linear in the current
/// front size, which stays small in practice (the paper's full-space front
/// has 3,096 members).
///
/// The members' metrics live in one contiguous `Vec<f64>`, row-major with
/// a stride of the schema's axis count, and their payloads in a parallel
/// `Vec<T>`. An insert reads the rows until it meets a member that
/// dominates the point, which rejects it, or one that the point dominates,
/// from which one compaction pass evicts; a point that dominates nothing
/// is appended after a full scan. Members keep their insertion order.
///
/// # Examples
///
/// ```
/// use codesign_moo::{AxisSchema, DynParetoFront};
///
/// let mut front: DynParetoFront<&str> = DynParetoFront::new(AxisSchema::new(["lat", "acc"]));
/// assert!(front.insert([-20.0, 0.91].into(), "fast"));
/// assert!(front.insert([-90.0, 0.94].into(), "accurate"));
/// assert!(!front.insert([-95.0, 0.93].into(), "dominated"));
/// assert_eq!(front.len(), 2);
/// let (metrics, payload) = front.iter().next().expect("two members");
/// assert_eq!((metrics, *payload), (&[-20.0, 0.91][..], "fast"));
/// ```
#[derive(Debug, Clone)]
pub struct DynParetoFront<T> {
    schema: AxisSchema,
    /// Member `i`'s metrics are `metrics[i * dims..(i + 1) * dims]`.
    metrics: Vec<f64>,
    /// Member `i`'s payload, in the same order as the metric rows.
    payloads: Vec<T>,
    hv_cache: Option<IncrementalHypervolume>,
}

impl<T> DynParetoFront<T> {
    /// Creates an empty front over `schema`'s axes.
    #[must_use]
    pub fn new(schema: AxisSchema) -> Self {
        Self {
            schema,
            metrics: Vec::new(),
            payloads: Vec::new(),
            hv_cache: None,
        }
    }

    /// The axis schema every member conforms to.
    #[must_use]
    pub fn schema(&self) -> &AxisSchema {
        &self.schema
    }

    /// Attempts to insert a point. Returns `true` if the point joined the
    /// front (it was not dominated by any current member); dominated
    /// members are evicted. Duplicate metric vectors are retained: distinct
    /// pairs that tie in every objective are equally optimal.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimension differs from the schema's.
    pub fn insert(&mut self, metrics: MetricVector, payload: T) -> bool {
        self.insert_with(&metrics, || payload)
    }

    /// [`Self::insert`] with a lazily built payload: `payload` runs only
    /// when the point joins the front, so a search loop pays for the
    /// payload of the few points the front keeps, not of every point it
    /// rejects.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimension differs from the schema's.
    pub fn insert_with(&mut self, metrics: &[f64], payload: impl FnOnce() -> T) -> bool {
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let (accepted, _) = self.insert_untimed(metrics, payload);
        if let Some(t) = timer {
            FRONT_INSERT_US.record_duration(t.elapsed());
        }
        accepted
    }

    /// Inserts a point like [`Self::insert_with`], returning
    /// `(accepted, delta)` where `delta` is the point's marginal
    /// hypervolume contribution against the cached tracker's reference —
    /// the per-step signal behind hypervolume-gradient reward shaping.
    /// Rejected points price at `0.0` and never build their payload.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::enable_hv_cache`] was never called, or if the
    /// point's dimension differs from the schema's.
    pub fn insert_with_hv_delta(
        &mut self,
        metrics: &[f64],
        payload: impl FnOnce() -> T,
    ) -> (bool, f64) {
        assert!(
            self.hv_cache.is_some(),
            "insert_with_hv_delta requires enable_hv_cache first"
        );
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let out = self.insert_untimed(metrics, payload);
        if let Some(t) = timer {
            FRONT_INSERT_US.record_duration(t.elapsed());
        }
        out
    }

    /// The single delta-aware insert core: every mutation path (`insert`,
    /// `insert_with`, `insert_with_hv_delta`, `merge`, `extend`) lands
    /// here, so an enabled hypervolume cache stays coherent with the member
    /// set.
    ///
    /// Members never dominate one another and dominance is transitive on
    /// NaN-free points, so once the point dominates a member no later
    /// member can dominate the point (it would dominate that member too):
    /// the scan stops at the first member the point dominates, and the
    /// compaction pass classifies the rows from there.
    fn insert_untimed(&mut self, metrics: &[f64], payload: impl FnOnce() -> T) -> (bool, f64) {
        self.check_dims(metrics);
        let dims = metrics.len();
        let mut first_evicted = None;
        // `chunks_exact` needs a positive stride; a zero-axis point
        // dominates nothing and is dominated by nothing.
        if dims > 0 {
            for (i, row) in self.metrics.chunks_exact(dims).enumerate() {
                match compare_dyn(row, metrics) {
                    // A rejected point is dominated by an existing member,
                    // so its marginal volume is exactly zero — the cache
                    // never needs to see it.
                    Dominance::Dominates => return (false, 0.0),
                    Dominance::DominatedBy => {
                        first_evicted = Some(i);
                        break;
                    }
                    Dominance::Equal | Dominance::Incomparable => {}
                }
            }
        }
        let delta = match &mut self.hv_cache {
            Some(cache) => cache.insert(metrics),
            None => 0.0,
        };
        if let Some(first) = first_evicted {
            self.evict_dominated_from(first, metrics);
        }
        self.metrics.extend_from_slice(metrics);
        self.payloads.push(payload());
        (true, delta)
    }

    /// Removes every member from row `first` on that `point` dominates,
    /// keeping the survivors' order. Rows before `first` all survive.
    fn evict_dominated_from(&mut self, first: usize, point: &[f64]) {
        let dims = point.len();
        let Self {
            metrics, payloads, ..
        } = self;
        let mut row = 0;
        let mut kept = 0;
        payloads.retain(|_| {
            let r = row;
            row += 1;
            let keep = r < first || !dominates_dyn(point, &metrics[r * dims..(r + 1) * dims]);
            if keep {
                metrics.copy_within(r * dims..(r + 1) * dims, kept * dims);
                kept += 1;
            }
            keep
        });
        metrics.truncate(kept * dims);
    }

    /// Returns `true` if `metrics` would be rejected (some member dominates
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if the point's dimension differs from the schema's.
    #[must_use]
    pub fn would_reject(&self, metrics: &[f64]) -> bool {
        assert_eq!(metrics.len(), self.schema.len(), "dimension mismatch");
        self.rows().any(|m| dominates_dyn(m, metrics))
    }

    /// Number of points currently on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Returns `true` when the front holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Iterates over `(metrics, payload)` pairs in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[f64], &T)> + '_ {
        self.rows().zip(&self.payloads)
    }

    /// The members' metric rows, in insertion order.
    fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        let dims = self.schema.len();
        (0..self.payloads.len()).map(move |i| &self.metrics[i * dims..(i + 1) * dims])
    }

    /// Consumes the front and returns its entries, in insertion order.
    #[must_use]
    pub fn into_vec(self) -> Vec<(MetricVector, T)> {
        let dims = self.schema.len();
        self.payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let row = &self.metrics[i * dims..(i + 1) * dims];
                (MetricVector::from_slice(row), p)
            })
            .collect()
    }

    /// Merges another front of the *same schema* into this one (the merged
    /// front is exactly the front of the two member sets' concatenation).
    /// Every merged point routes through the delta-aware insert core, so an
    /// enabled hypervolume cache stays coherent across merges.
    ///
    /// # Panics
    ///
    /// Panics if the schemas disagree.
    pub fn merge(&mut self, other: DynParetoFront<T>) {
        assert_eq!(
            self.schema, other.schema,
            "cannot merge fronts with different axes"
        );
        let dims = other.schema.len();
        for (i, p) in other.payloads.into_iter().enumerate() {
            self.insert_with(&other.metrics[i * dims..(i + 1) * dims], || p);
        }
    }

    /// Dominated hypervolume of the front relative to `reference`
    /// (see [`crate::hypervolume::hypervolume_dyn`]).
    ///
    /// Always recomputes from scratch — bit-identical to
    /// [`crate::hypervolume::hypervolume_dyn`] over the member set
    /// regardless of any cache state. For the cached running total, see
    /// [`Self::enable_hv_cache`] / [`Self::hypervolume_cached`].
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different dimension than the schema.
    #[must_use]
    pub fn hypervolume(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.schema.len(), "dimension mismatch");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let hv = hypervolume_dyn_iter(self.rows(), reference);
        if let Some(t) = timer {
            HYPERVOLUME_US.record_duration(t.elapsed());
        }
        hv
    }

    /// Switches the front into cached-hypervolume mode against `reference`
    /// and returns the current dominated hypervolume.
    ///
    /// The first call seeds an [`IncrementalHypervolume`] from the current
    /// members (one pass, in insertion order); from then on every insert
    /// path updates the running total with its marginal contribution, so
    /// repeated hypervolume reads — per-generation snapshots, per-step
    /// reward shaping — cost `O(1)` instead of a scratch recompute.
    /// Calling it again with the same reference is a cheap cache read; a
    /// different reference rebuilds the tracker.
    ///
    /// The cached total is the sum of exact marginal contributions, each
    /// clamped to `≥ 0`: monotone non-decreasing over inserts, and equal to
    /// the scratch [`Self::hypervolume`] up to accumulated rounding (≤1e-9
    /// relative at campaign scales; proptest-pinned).
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different dimension than the schema.
    pub fn enable_hv_cache(&mut self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.schema.len(), "dimension mismatch");
        match &self.hv_cache {
            Some(cache) if cache.reference() == reference => cache.hypervolume(),
            _ => {
                let cache = IncrementalHypervolume::from_points(reference, self.rows());
                let hv = cache.hypervolume();
                self.hv_cache = Some(cache);
                hv
            }
        }
    }

    /// The cached running hypervolume, if [`Self::enable_hv_cache`] was
    /// called, along with the reference it was built against.
    #[must_use]
    pub fn cached_hypervolume(&self) -> Option<(&[f64], f64)> {
        self.hv_cache
            .as_ref()
            .map(|c| (c.reference(), c.hypervolume()))
    }

    /// Dominated hypervolume relative to `reference`, served from the cache
    /// when one is enabled against the same reference, otherwise a scratch
    /// [`Self::hypervolume`] recompute.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different dimension than the schema.
    #[must_use]
    pub fn hypervolume_cached(&self, reference: &[f64]) -> f64 {
        match &self.hv_cache {
            Some(cache) if cache.reference() == reference => cache.hypervolume(),
            _ => self.hypervolume(reference),
        }
    }

    fn check_dims(&self, metrics: &[f64]) {
        assert_eq!(
            metrics.len(),
            self.schema.len(),
            "point dimension {} does not match the {}-axis schema [{}]",
            metrics.len(),
            self.schema.len(),
            self.schema
        );
    }
}

impl<T> Extend<(MetricVector, T)> for DynParetoFront<T> {
    fn extend<I: IntoIterator<Item = (MetricVector, T)>>(&mut self, iter: I) {
        for (m, p) in iter {
            self.insert(m, p);
        }
    }
}

/// Crowding distance of every point in one front (the diversity half of
/// NSGA-II selection), under the all-maximize convention.
///
/// For each objective the points are sorted by value (ties broken by input
/// index, keeping the result a deterministic function of the input); the
/// extreme points of every objective receive `f64::INFINITY`, and each
/// interior point accumulates the normalized gap between its sorted
/// neighbors, summed over objectives. Larger is less crowded — NSGA-II
/// prefers larger distances to spread the population along the front.
/// An objective whose values are all equal contributes nothing. Sets of
/// fewer than three points are all boundary: every distance is infinite.
///
/// Callers group points by [`crate::rank_dyn`] rank first and compute
/// crowding within each front — distances compare meaningfully only
/// between points of equal rank.
///
/// # Panics
///
/// Panics if the points differ in dimension; in debug builds also if any
/// point contains NaN.
///
/// # Examples
///
/// ```
/// use codesign_moo::crowding_distance_dyn;
///
/// // Three points on a 2-D front: the extremes are infinitely uncrowded,
/// // the middle point's gap spans the whole range in both objectives.
/// let d = crowding_distance_dyn(&[[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]);
/// assert_eq!(d[0], f64::INFINITY);
/// assert_eq!(d[2], f64::INFINITY);
/// assert!((d[1] - 2.0).abs() < 1e-12); // (2-0)/2 per objective, twice
/// ```
#[must_use]
pub fn crowding_distance_dyn<P: AsRef<[f64]>>(points: &[P]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let dims = points[0].as_ref().len();
    for p in points {
        assert_eq!(
            p.as_ref().len(),
            dims,
            "crowding distance across mixed dimensions"
        );
        debug_assert!(
            p.as_ref().iter().all(|v| !v.is_nan()),
            "NaN metric in crowding distance"
        );
    }
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let mut distance = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    for m in 0..dims {
        let value = |i: usize| points[i].as_ref()[m];
        // A total order (ties broken by index), so an unstable sort gives
        // the one sorted order a stable sort would.
        order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)).then(a.cmp(&b)));
        let (first, last) = (order[0], order[n - 1]);
        let span = value(last) - value(first);
        distance[first] = f64::INFINITY;
        distance[last] = f64::INFINITY;
        if span <= 0.0 {
            continue;
        }
        for w in order.windows(3) {
            let (prev, mid, next) = (w[0], w[1], w[2]);
            distance[mid] += (value(next) - value(prev)) / span;
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The non-dominated indices by direct pairwise checks.
    fn brute_force<const N: usize>(points: &[[f64; N]]) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| !points.iter().any(|q| dominates_dyn(q, &points[i])))
            .collect()
    }

    #[test]
    fn schema_equality_and_lookup() {
        let a = AxisSchema::new(["acc", "lat", "area"]);
        let b = AxisSchema::new(vec!["acc".to_owned(), "lat".to_owned(), "area".to_owned()]);
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, AxisSchema::new(["acc", "lat"]));
        assert_eq!(a.position("area"), Some(2));
        assert_eq!(a.position("power"), None);
        assert_eq!(a.name(1), Some("lat"));
        assert_eq!(a.to_string(), "acc,lat,area");
    }

    #[test]
    fn metric_vector_inline_and_heap_agree() {
        let small = MetricVector::from_slice(&[1.0, 2.0, 3.0]);
        assert!(matches!(small.repr, Repr::Inline { .. }));
        let big: MetricVector = (0..9).map(f64::from).collect();
        assert!(matches!(big.repr, Repr::Heap(_)));
        assert_eq!(big.len(), 9);
        assert_eq!(big[8], 8.0);
        assert_eq!(small, MetricVector::from(vec![1.0, 2.0, 3.0]));
        assert_eq!(
            small.to_bits(),
            vec![1.0f64.to_bits(), 2.0f64.to_bits(), 3.0f64.to_bits()]
        );
    }

    /// Inserts and final membership of the runtime-dimension front against
    /// a brute-force oracle on the const-generic `dominates::<3>` kernel.
    #[test]
    fn dyn_front_matches_const_generic_membership() {
        use crate::dominance::dominates;

        let points: Vec<[f64; 3]> = vec![
            [1.0, 1.0, 1.0], // evicted by the next point
            [3.0, 1.0, 2.0],
            [1.0, 3.0, 2.0],
            [2.0, 2.0, 2.0],
            [0.5, 0.5, 0.5], // rejected
            [3.0, 1.0, 2.0], // duplicate: retained
            [0.0, 0.0, 5.0],
        ];
        let mut front: DynParetoFront<usize> =
            DynParetoFront::new(AxisSchema::new(["a", "b", "c"]));
        for (i, p) in points.iter().enumerate() {
            // A point joins iff nothing inserted before it dominates it
            // (an evicted dominator was itself dominated by a member).
            let joins = !points[..i].iter().any(|q| dominates(q, p));
            assert_eq!(front.insert((*p).into(), i), joins, "point {i}");
        }
        let mut members: Vec<usize> = front.iter().map(|(_, i)| *i).collect();
        members.sort_unstable();
        let fixed: Vec<usize> = (0..points.len())
            .filter(|&i| !points.iter().any(|q| dominates(q, &points[i])))
            .collect();
        assert_eq!(members, fixed);
        assert!(front.would_reject(&[0.5, 0.5, 0.5]));
        assert!(!front.would_reject(&[9.0, 0.0, 0.0]));
    }

    #[test]
    fn rejected_points_never_build_their_payload() {
        let mut front: DynParetoFront<String> = DynParetoFront::new(AxisSchema::new(["x", "y"]));
        assert!(front.insert_with(&[1.0, 1.0], || "kept".to_owned()));
        let dominated = || -> String { panic!("a dominated point built its payload") };
        assert!(!front.insert_with(&[0.5, 1.0], dominated));
        front.enable_hv_cache(&[0.0, 0.0]);
        assert_eq!(
            front.insert_with_hv_delta(&[1.0, 0.0], dominated),
            (false, 0.0)
        );
        // An accepted point builds its payload once, after evicting.
        let mut built = 0;
        assert!(front.insert_with(&[2.0, 2.0], || {
            built += 1;
            "evicts".to_owned()
        }));
        assert_eq!(built, 1);
        let members: Vec<(&[f64], &String)> = front.iter().collect();
        assert_eq!(members, [(&[2.0, 2.0][..], &"evicts".to_owned())]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dyn_front_rejects_wrong_dimension() {
        let mut front: DynParetoFront<()> = DynParetoFront::new(AxisSchema::new(["a", "b"]));
        front.insert([1.0, 2.0, 3.0].into(), ());
    }

    #[test]
    #[should_panic(expected = "different axes")]
    fn dyn_front_merge_rejects_schema_mismatch() {
        let mut a: DynParetoFront<()> = DynParetoFront::new(AxisSchema::new(["x"]));
        let b: DynParetoFront<()> = DynParetoFront::new(AxisSchema::new(["y"]));
        a.merge(b);
    }

    #[test]
    fn dyn_front_merge_equals_front_of_concatenation() {
        let schema = AxisSchema::new(["x", "y"]);
        let pts_a = [[1.0, 0.0], [0.5, 0.5]];
        let pts_b = [[0.0, 1.0], [0.4, 0.4], [0.6, 0.6]];
        let mut a: DynParetoFront<()> = DynParetoFront::new(schema.clone());
        let mut b: DynParetoFront<()> = DynParetoFront::new(schema.clone());
        for p in pts_a {
            a.insert(p.into(), ());
        }
        for p in pts_b {
            b.insert(p.into(), ());
        }
        a.merge(b);
        let all: Vec<[f64; 2]> = pts_a.iter().chain(pts_b.iter()).copied().collect();
        assert_eq!(a.len(), brute_force(&all).len());
    }

    fn front_2d<T>() -> DynParetoFront<T> {
        DynParetoFront::new(AxisSchema::new(["x", "y"]))
    }

    #[test]
    fn front_insert_evicts_dominated_members() {
        let mut front = front_2d();
        front.insert([0.0, 0.0].into(), 0u8);
        front.insert([1.0, 1.0].into(), 1); // evicts the first point
        assert_eq!(front.len(), 1);
        assert_eq!(front.iter().next().map(|(_, p)| *p), Some(1));
    }

    #[test]
    fn front_rejects_dominated_insert() {
        let mut front = front_2d();
        assert!(front.insert([1.0, 1.0].into(), 0u8));
        assert!(!front.insert([0.5, 0.5].into(), 1));
        assert!(front.would_reject(&[0.0, 0.0]));
        assert!(!front.would_reject(&[2.0, 0.0]));
    }

    #[test]
    fn front_keeps_equal_metric_payloads() {
        let mut front = front_2d();
        assert!(front.insert([1.0, 1.0].into(), 0u8));
        assert!(front.insert([1.0, 1.0].into(), 1));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn front_from_iterator_matches_batch_filter() {
        let pts = [[3.0, 1.0], [1.0, 3.0], [2.0, 2.0], [1.0, 1.0]];
        let mut front = front_2d();
        front.extend(pts.iter().enumerate().map(|(i, &m)| (m.into(), i)));
        let members: Vec<usize> = front.iter().map(|(_, &i)| i).collect();
        assert_eq!(members, brute_force(&pts));
        assert_eq!(members, [0, 1, 2]);
    }

    #[test]
    fn crowding_extremes_are_infinite_and_interior_sums_gaps() {
        // 4 points on a line front: interior gaps are normalized per axis.
        let d = crowding_distance_dyn(&[[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        // Each interior point: (2/3) per objective, two objectives.
        assert!((d[1] - 4.0 / 3.0).abs() < 1e-12);
        assert!((d[2] - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn crowding_small_sets_are_all_boundary() {
        assert!(crowding_distance_dyn::<[f64; 2]>(&[]).is_empty());
        assert_eq!(crowding_distance_dyn(&[[1.0, 2.0]]), vec![f64::INFINITY]);
        assert_eq!(
            crowding_distance_dyn(&[[1.0, 2.0], [2.0, 1.0]]),
            vec![f64::INFINITY; 2]
        );
    }

    #[test]
    fn crowding_constant_objective_contributes_nothing() {
        // Second objective is flat: only the first objective's gaps count,
        // and the flat axis still marks its (index-tie-broken) extremes.
        let d = crowding_distance_dyn(&[[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [4.0, 5.0]]);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!((d[1] - 0.5).abs() < 1e-12); // (2-0)/4
        assert!((d[2] - 0.75).abs() < 1e-12); // (4-1)/4
    }

    #[test]
    fn crowding_ties_break_by_input_index() {
        // Indices 0 and 1 tie at the minimum of axis 0: the *earlier* index
        // sorts first and takes the boundary infinity of that axis. The
        // result is a deterministic function of the input sequence.
        let pts = [[0.0, 1.0], [0.0, 2.0], [3.0, 0.0], [1.0, 0.5]];
        let d = crowding_distance_dyn(&pts);
        assert_eq!(d[0], f64::INFINITY, "axis-0 tie boundary goes to index 0");
        assert_eq!(d[1], f64::INFINITY, "index 1 is the axis-1 maximum");
        assert_eq!(d[2], f64::INFINITY, "index 2 is the axis-0 maximum");
        assert!(d[3].is_finite(), "interior point stays finite");
        assert_eq!(d, crowding_distance_dyn(&pts), "pure function of input");
    }

    #[test]
    #[should_panic(expected = "mixed dimensions")]
    fn crowding_rejects_mixed_dimensions() {
        let pts: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![1.0]];
        let _ = crowding_distance_dyn(&pts);
    }

    #[test]
    fn dyn_front_hypervolume_matches_batch() {
        let schema = AxisSchema::new(["x", "y"]);
        let mut front: DynParetoFront<()> = DynParetoFront::new(schema);
        front.insert([1.0, 2.0].into(), ());
        front.insert([2.0, 1.0].into(), ());
        assert!((front.hypervolume(&[0.0, 0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hv_cache_stays_coherent_across_inserts_and_merges() {
        let schema = AxisSchema::new(["x", "y"]);
        let mut front: DynParetoFront<u32> = DynParetoFront::new(schema.clone());
        front.insert([1.0, 2.0].into(), 0);
        let hv0 = front.enable_hv_cache(&[0.0, 0.0]);
        assert!((hv0 - 2.0).abs() < 1e-12);
        // Re-enabling with the same reference is a cache read.
        assert_eq!(front.enable_hv_cache(&[0.0, 0.0]), hv0);
        let (accepted, delta) = front.insert_with_hv_delta(&[2.0, 1.0], || 1);
        assert!(accepted);
        assert!((delta - 1.0).abs() < 1e-12);
        let (rejected, zero) = front.insert_with_hv_delta(&[0.5, 0.5], || 2);
        assert!(!rejected);
        assert_eq!(zero, 0.0);
        // Merge routes through the same delta-aware core.
        let mut other: DynParetoFront<u32> = DynParetoFront::new(schema);
        other.insert([3.0, 0.5].into(), 3);
        front.merge(other);
        let (reference, cached) = front.cached_hypervolume().expect("cache enabled");
        assert_eq!(reference, &[0.0, 0.0]);
        let scratch = front.hypervolume(&[0.0, 0.0]);
        assert!((cached - scratch).abs() <= 1e-9 * scratch.abs());
        assert_eq!(front.hypervolume_cached(&[0.0, 0.0]), cached);
        // A different reference falls back to a scratch recompute.
        assert_eq!(
            front.hypervolume_cached(&[-1.0, -1.0]).to_bits(),
            front.hypervolume(&[-1.0, -1.0]).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "enable_hv_cache")]
    fn insert_with_hv_delta_requires_the_cache() {
        let mut front: DynParetoFront<()> = DynParetoFront::new(AxisSchema::new(["x", "y"]));
        let _ = front.insert_with_hv_delta(&[1.0, 1.0], || ());
    }
}
