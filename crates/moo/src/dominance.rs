//! Pareto dominance between metric vectors.
//!
//! All comparisons use the **all-maximize convention**: a point `a` dominates
//! `b` when `a` is at least as good in every objective and strictly better in
//! at least one. Metrics to be minimized must be negated by the caller
//! (matching the paper's `E(s) = R(−area, −lat, acc)` formulation).

/// The outcome of comparing two metric vectors under Pareto dominance.
///
/// # Examples
///
/// ```
/// use codesign_moo::dominance::{Dominance, compare};
///
/// assert_eq!(compare(&[1.0, 2.0], &[0.5, 1.0]), Dominance::Dominates);
/// assert_eq!(compare(&[1.0, 0.0], &[0.0, 1.0]), Dominance::Incomparable);
/// assert_eq!(compare(&[1.0, 1.0], &[1.0, 1.0]), Dominance::Equal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dominance {
    /// The first point dominates the second.
    Dominates,
    /// The first point is dominated by the second.
    DominatedBy,
    /// The points are identical in every objective.
    Equal,
    /// Neither point dominates the other.
    Incomparable,
}

/// Compares two metric vectors and classifies their dominance relation.
///
/// # Panics
///
/// Panics in debug builds if the vectors contain NaN (NaN has no dominance
/// order; use [`crate::MooError::NanMetric`]-producing validation upstream).
#[must_use]
pub fn compare<const N: usize>(a: &[f64; N], b: &[f64; N]) -> Dominance {
    debug_assert!(
        a.iter().all(|v| !v.is_nan()),
        "NaN metric in dominance comparison"
    );
    debug_assert!(
        b.iter().all(|v| !v.is_nan()),
        "NaN metric in dominance comparison"
    );
    let mut a_better = false;
    let mut b_better = false;
    for i in 0..N {
        if a[i] > b[i] {
            a_better = true;
        } else if a[i] < b[i] {
            b_better = true;
        }
        if a_better && b_better {
            return Dominance::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (false, false) => Dominance::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

/// Returns `true` when `a` strictly dominates `b`: at least as good everywhere
/// and strictly better somewhere.
///
/// # Examples
///
/// ```
/// use codesign_moo::dominates;
///
/// assert!(dominates(&[2.0, 3.0, 1.0], &[2.0, 2.0, 1.0]));
/// assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0])); // equal points do not dominate
/// ```
#[must_use]
pub fn dominates<const N: usize>(a: &[f64; N], b: &[f64; N]) -> bool {
    compare(a, b) == Dominance::Dominates
}

/// [`compare`] with the dimension chosen at runtime: classifies the dominance
/// relation of two equal-length metric slices.
///
/// It makes the exact comparisons of the fixed-array [`compare`], so the two
/// can never disagree on points of the same dimension, but on every
/// objective with no early exit: metric vectors are short, and on them the
/// exit's hard-to-predict branch costs more than the comparisons it saves.
///
/// # Panics
///
/// Panics if the slices differ in length; in debug builds also if either
/// contains NaN.
///
/// # Examples
///
/// ```
/// use codesign_moo::dominance::{compare_dyn, Dominance};
///
/// assert_eq!(compare_dyn(&[1.0, 2.0], &[0.5, 1.0]), Dominance::Dominates);
/// assert_eq!(compare_dyn(&[1.0, 0.0], &[0.0, 1.0]), Dominance::Incomparable);
/// ```
#[must_use]
#[inline]
pub fn compare_dyn(a: &[f64], b: &[f64]) -> Dominance {
    assert_eq!(
        a.len(),
        b.len(),
        "dominance between different dimensions ({} vs {})",
        a.len(),
        b.len()
    );
    debug_assert!(
        a.iter().chain(b.iter()).all(|v| !v.is_nan()),
        "NaN metric in dominance comparison"
    );
    let mut a_better = false;
    let mut b_better = false;
    for (&x, &y) in a.iter().zip(b) {
        a_better |= x > y;
        b_better |= y > x;
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (false, false) => Dominance::Equal,
        (true, true) => Dominance::Incomparable,
    }
}

/// [`dominates`] over runtime-dimension slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// use codesign_moo::dominates_dyn;
///
/// assert!(dominates_dyn(&[2.0, 3.0], &[2.0, 2.0]));
/// assert!(!dominates_dyn(&[2.0, 2.0], &[2.0, 2.0]));
/// ```
#[must_use]
pub fn dominates_dyn(a: &[f64], b: &[f64]) -> bool {
    compare_dyn(a, b) == Dominance::Dominates
}

/// Fast non-dominated sorting (the ranking half of NSGA-II selection):
/// assigns every point its Pareto front index under the all-maximize
/// convention.
///
/// Rank 0 is the non-dominated front of the whole set; rank `k` is the
/// front that remains after peeling ranks `0..k`. Equal points share a
/// rank (neither strictly dominates the other). The result is a pure
/// function of the point values — independent of input order up to the
/// obvious index permutation — so population-based strategies built on it
/// stay bit-identical across worker counts.
///
/// Runs the Deb et al. bookkeeping: one `O(n²·d)` pairwise-dominance pass
/// over a flat copy of the points, building per-point domination counts
/// and a bitset row per point of the points it dominates, then a linear
/// peel per front.
///
/// # Panics
///
/// Panics if the points differ in dimension; in debug builds also if any
/// point contains NaN.
///
/// # Examples
///
/// ```
/// use codesign_moo::rank_dyn;
///
/// // Two incomparable optima, one dominated point, one worst point.
/// let ranks = rank_dyn(&[
///     [1.0, 3.0], // rank 0
///     [3.0, 1.0], // rank 0 (incomparable with the first)
///     [2.0, 0.5], // rank 1 (dominated by [3,1] only)
///     [0.5, 0.5], // rank 2
/// ]);
/// assert_eq!(ranks, vec![0, 0, 1, 2]);
/// ```
#[must_use]
pub fn rank_dyn<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let n = points.len();
    let mut ranks = vec![0usize; n];
    if n == 0 {
        return ranks;
    }
    let dims = points[0].as_ref().len();
    let mut flat = Vec::with_capacity(n * dims);
    for p in points {
        let p = p.as_ref();
        assert_eq!(
            p.len(),
            dims,
            "dominance between different dimensions ({} vs {dims})",
            p.len()
        );
        flat.extend_from_slice(p);
    }
    let row = |i: usize| &flat[i * dims..(i + 1) * dims];
    // dominated_by[i]: how many points strictly dominate i.
    // Bit j of row i of `beats`: i strictly dominates j.
    let words = n.div_ceil(64);
    let mut dominated_by = vec![0usize; n];
    let mut beats = vec![0u64; n * words];
    for i in 0..n {
        for j in (i + 1)..n {
            match compare_dyn(row(i), row(j)) {
                Dominance::Dominates => {
                    beats[i * words + j / 64] |= 1u64 << (j % 64);
                    dominated_by[j] += 1;
                }
                Dominance::DominatedBy => {
                    beats[j * words + i / 64] |= 1u64 << (i % 64);
                    dominated_by[i] += 1;
                }
                Dominance::Equal | Dominance::Incomparable => {}
            }
        }
    }
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut next = Vec::new();
    let mut rank = 0usize;
    while !current.is_empty() {
        for &i in &current {
            ranks[i] = rank;
            for (w, &bits) in beats[i * words..(i + 1) * words].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
        }
        std::mem::swap(&mut current, &mut next);
        next.clear();
        rank += 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_requires_strict_improvement_somewhere() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 2.0]));
    }

    #[test]
    fn compare_is_antisymmetric() {
        let a = [3.0, 1.0, 2.0];
        let b = [2.0, 1.0, 1.0];
        assert_eq!(compare(&a, &b), Dominance::Dominates);
        assert_eq!(compare(&b, &a), Dominance::DominatedBy);
    }

    #[test]
    fn incomparable_points_in_both_directions() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert_eq!(compare(&a, &b), Dominance::Incomparable);
        assert_eq!(compare(&b, &a), Dominance::Incomparable);
    }

    #[test]
    fn single_objective_reduces_to_total_order() {
        assert_eq!(compare(&[2.0], &[1.0]), Dominance::Dominates);
        assert_eq!(compare(&[1.0], &[2.0]), Dominance::DominatedBy);
        assert_eq!(compare(&[1.0], &[1.0]), Dominance::Equal);
    }

    #[test]
    fn negated_metrics_express_minimization() {
        // area 100 < area 200 is better; negated: -100 > -200.
        assert!(dominates(&[-100.0, 0.9], &[-200.0, 0.9]));
    }

    #[test]
    fn infinities_are_ordered() {
        assert!(dominates(&[f64::INFINITY, 0.0], &[0.0, 0.0]));
        assert!(dominates(&[0.0, 0.0], &[f64::NEG_INFINITY, 0.0]));
    }

    #[test]
    fn dyn_compare_agrees_with_const_generic() {
        let pairs = [
            ([3.0, 1.0, 2.0], [2.0, 1.0, 1.0]),
            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
            ([-5.0, 2.0, 0.5], [-5.0, 2.0, 0.6]),
        ];
        for (a, b) in pairs {
            assert_eq!(compare(&a, &b), compare_dyn(&a, &b));
            assert_eq!(dominates(&a, &b), dominates_dyn(&a, &b));
        }
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn dyn_compare_rejects_mismatched_lengths() {
        let _ = compare_dyn(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn rank_dyn_peels_fronts_in_order() {
        // A 2-D staircase: each shell is one rank.
        let ranks = rank_dyn(&[
            [2.0, 2.0], // dominates everything: rank 0
            [1.0, 2.0], // rank 1
            [2.0, 1.0], // rank 1
            [1.0, 1.0], // rank 2
            [0.0, 0.0], // rank 3
        ]);
        assert_eq!(ranks, vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn rank_dyn_handles_duplicates_and_empty_sets() {
        assert!(rank_dyn::<[f64; 2]>(&[]).is_empty());
        // Equal points never dominate each other: same rank.
        let ranks = rank_dyn(&[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]);
        assert_eq!(ranks, vec![0, 0, 1]);
    }

    #[test]
    fn rank_zero_is_exactly_the_pareto_front() {
        let pts = [
            [3.0, 1.0, 2.0],
            [1.0, 3.0, 2.0],
            [2.0, 2.0, 2.0],
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 5.0],
        ];
        let ranks = rank_dyn(&pts);
        let rank0: Vec<usize> = (0..pts.len()).filter(|&i| ranks[i] == 0).collect();
        let front: Vec<usize> = (0..pts.len())
            .filter(|&i| !pts.iter().any(|q| dominates(q, &pts[i])))
            .collect();
        assert_eq!(rank0, front);
    }
}
