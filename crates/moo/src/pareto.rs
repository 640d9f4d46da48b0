//! Pareto-front extraction.
//!
//! §III-A of the paper filters ~3.7 billion model–accelerator pairs down to
//! 3,096 Pareto-optimal points "iteratively by filtering dominated points from
//! the search space". This module provides the batch filters behind that:
//!
//! * [`pareto_indices_dyn`] — front extraction for any objective count,
//! * [`pareto_indices_3d`] — an `O(n log n)` sort-and-staircase sweep
//!   specialized for the paper's three objectives (area, latency, accuracy),
//!   which [`pareto_indices_dyn`] runs automatically on 3-D input,
//! * [`pareto_filter_dyn`] — the same filter over `(metrics, payload)` pairs.
//!
//! The incremental front and the bounded-memory streaming filter built on
//! them live in [`crate::dynfront`].
//!
//! All functions use the all-maximize convention (negate minimized metrics).
//! Points with identical metric vectors are all retained: distinct
//! model–accelerator pairs that tie in every objective are equally optimal.

use crate::dominance::{dominates, dominates_dyn};

/// Returns the indices of the non-dominated points of a three-objective set
/// using an `O(n log n)` sweep.
///
/// Points are processed in descending order of the first objective; a
/// staircase over the remaining two objectives answers dominance queries in
/// logarithmic time. Points with identical metric vectors are all kept.
///
/// # Examples
///
/// ```
/// use codesign_moo::pareto::pareto_indices_3d;
///
/// let pts = vec![
///     [-120.0, -40.0, 0.93],
///     [-120.0, -40.0, 0.93], // exact duplicate: kept
///     [-130.0, -45.0, 0.93], // dominated
///     [-60.0, -200.0, 0.91],
/// ];
/// assert_eq!(pareto_indices_3d(&pts), vec![0, 1, 3]);
/// ```
#[must_use]
pub fn pareto_indices_3d(points: &[[f64; 3]]) -> Vec<usize> {
    let n = points.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Descending lexicographic order on (x, y, z).
    order.sort_unstable_by(|&a, &b| lex_cmp(&points[b], &points[a]));

    let mut stairs = Staircase::new();
    let mut front: Vec<usize> = Vec::new();
    let mut g = 0;
    while g < n {
        // Group of equal first objective.
        let x = points[order[g]][0];
        let mut h = g;
        while h < n && points[order[h]][0] == x {
            h += 1;
        }
        // Pass 1: test each group member against the staircase built from
        // strictly-greater x, and against earlier members of its own group
        // (full 3D dominance, since x ties make the first objective equal).
        let mut survivors: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        'members: for k in g..h {
            let i = order[k];
            let (y, z) = (points[i][1], points[i][2]);
            if stairs.dominates_query(y, z) {
                continue 'members;
            }
            for &j in &survivors {
                if dominates(&points[j], &points[i]) {
                    continue 'members;
                }
            }
            survivors.push(i);
        }
        // Pass 2: commit survivors to the staircase and the front.
        for &i in &survivors {
            stairs.insert(points[i][1], points[i][2]);
            front.push(i);
        }
        g = h;
    }
    front.sort_unstable();
    front
}

/// Returns the indices of the non-dominated points of a runtime-dimension
/// point set, in ascending index order.
///
/// Candidates are sorted lexicographically (descending), so each point only
/// needs to be tested against already-accepted front members — fast when
/// the front is small relative to the input, the regime of the paper, where
/// under 0.0001% of points are Pareto-optimal. When the points have exactly
/// three objectives the `O(n log n)` staircase sweep of
/// [`pareto_indices_3d`] runs instead; tie handling is identical, so the
/// fast path is invisible in the result.
///
/// # Panics
///
/// Panics if the points do not all share one dimension.
///
/// # Examples
///
/// ```
/// use codesign_moo::pareto::pareto_indices_dyn;
///
/// let pts = vec![vec![1.0, 0.0], vec![0.5, 0.5], vec![0.4, 0.4]];
/// assert_eq!(pareto_indices_dyn(&pts), vec![0, 1]);
/// ```
#[must_use]
pub fn pareto_indices_dyn<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let dims = first.as_ref().len();
    assert!(
        points.iter().all(|p| p.as_ref().len() == dims),
        "all points must share one dimension ({dims})"
    );
    if dims == 3 {
        // Automatic fast path: the staircase sweep, bit-identical in its
        // result set (exact tie handling matches the generic filter).
        let triples: Vec<[f64; 3]> = points
            .iter()
            .map(|p| {
                let s = p.as_ref();
                [s[0], s[1], s[2]]
            })
            .collect();
        return pareto_indices_3d(&triples);
    }
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by(|&a, &b| lex_cmp(points[b].as_ref(), points[a].as_ref()));
    let mut front: Vec<usize> = Vec::new();
    'candidates: for &i in &order {
        for &j in &front {
            if dominates_dyn(points[j].as_ref(), points[i].as_ref()) {
                continue 'candidates;
            }
        }
        front.push(i);
    }
    front.sort_unstable();
    front
}

/// Filters runtime-dimension `(metrics, payload)` pairs down to the
/// non-dominated subset, preserving input order among survivors (the
/// compaction pass of [`crate::DynStreamingParetoFilter`]).
///
/// # Panics
///
/// Panics if the points do not all share one dimension.
///
/// # Examples
///
/// ```
/// use codesign_moo::pareto::pareto_filter_dyn;
///
/// let pairs = vec![(vec![1.0, 0.0], "a"), (vec![0.5, 0.5], "b"), (vec![0.4, 0.4], "c")];
/// let names: Vec<_> = pareto_filter_dyn(pairs).into_iter().map(|(_, n)| n).collect();
/// assert_eq!(names, vec!["a", "b"]);
/// ```
#[must_use]
pub fn pareto_filter_dyn<M: AsRef<[f64]>, T>(pairs: Vec<(M, T)>) -> Vec<(M, T)> {
    let keep = {
        let metrics: Vec<&[f64]> = pairs.iter().map(|(m, _)| m.as_ref()).collect();
        pareto_indices_dyn(&metrics)
    };
    let mut keep_iter = keep.into_iter().peekable();
    pairs
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| {
            if keep_iter.peek() == Some(&i) {
                keep_iter.next();
                Some(p)
            } else {
                None
            }
        })
        .collect()
}

/// A staircase over `(y, z)` supporting "is (y, z) weakly dominated?" queries.
///
/// Invariant: entries are sorted by `y` strictly descending with `z` strictly
/// increasing, so the entry with the smallest `y ≥ y_query` carries the
/// maximum `z` among all entries with `y ≥ y_query`.
#[derive(Debug, Default)]
struct Staircase {
    /// `(y, z)` pairs, y strictly descending / z strictly increasing.
    steps: Vec<(f64, f64)>,
}

impl Staircase {
    fn new() -> Self {
        Self { steps: Vec::new() }
    }

    /// Returns `true` if some stored point has `y' >= y && z' >= z`.
    fn dominates_query(&self, y: f64, z: f64) -> bool {
        // Find the last index with steps[idx].0 >= y (steps sorted y desc).
        let mut lo = 0usize;
        let mut hi = self.steps.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.steps[mid].0 >= y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return false;
        }
        self.steps[lo - 1].1 >= z
    }

    /// Inserts `(y, z)`, pruning entries it weakly dominates. No-op if the
    /// point is itself weakly dominated.
    fn insert(&mut self, y: f64, z: f64) {
        if self.dominates_query(y, z) {
            return;
        }
        // Position of the first entry with y' < y.
        let mut lo = 0usize;
        let mut hi = self.steps.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.steps[mid].0 >= y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Entries after the insertion point have smaller y; those with z <= z
        // are weakly dominated and must be removed to keep z increasing.
        let mut end = lo;
        while end < self.steps.len() && self.steps[end].1 <= z {
            end += 1;
        }
        self.steps.splice(lo..end, std::iter::once((y, z)));
    }
}

/// Lexicographic comparison of two equal-length metric slices (NaN compares
/// equal, so it never decides an order).
fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for i in 0..a.len() {
        match a[i].partial_cmp(&b[i]) {
            Some(std::cmp::Ordering::Equal) | None => continue,
            Some(o) => return o,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynfront::{AxisSchema, DynParetoFront, DynStreamingParetoFilter};

    /// The non-dominated indices by direct pairwise checks.
    fn brute_force<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| {
                !points
                    .iter()
                    .any(|q| dominates_dyn(q.as_ref(), points[i].as_ref()))
            })
            .collect()
    }

    #[test]
    fn empty_input_gives_empty_front() {
        let pts: Vec<[f64; 3]> = vec![];
        assert!(pareto_indices_dyn(&pts).is_empty());
        assert!(pareto_indices_3d(&pts).is_empty());
    }

    #[test]
    fn single_point_is_optimal() {
        let pts = vec![[1.0, 2.0, 3.0]];
        assert_eq!(pareto_indices_3d(&pts), vec![0]);
    }

    #[test]
    fn duplicates_are_all_kept() {
        let pts = vec![[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]];
        assert_eq!(pareto_indices_3d(&pts), vec![0, 1]);
        let pts2 = vec![[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]];
        assert_eq!(pareto_indices_dyn(&pts2), vec![0, 1]);
    }

    #[test]
    fn chain_of_dominated_points_leaves_one() {
        let pts: Vec<[f64; 3]> = (0..10).map(|i| [f64::from(i); 3]).collect();
        assert_eq!(pareto_indices_3d(&pts), vec![9]);
    }

    #[test]
    fn anti_chain_is_fully_kept() {
        let pts: Vec<[f64; 2]> = (0..50).map(|i| [f64::from(i), f64::from(-i)]).collect();
        assert_eq!(pareto_indices_dyn(&pts).len(), 50);
    }

    #[test]
    fn sweep_matches_brute_force_on_tie_heavy_grid() {
        // Small grids with many ties in every coordinate.
        let mut pts = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    pts.push([f64::from(x), f64::from(y), f64::from(z)]);
                }
            }
        }
        assert_eq!(pareto_indices_3d(&pts), brute_force(&pts));
        let pts4: Vec<[f64; 4]> = pts.iter().map(|p| [p[0], p[1], p[2], -p[0]]).collect();
        assert_eq!(pareto_indices_dyn(&pts4), brute_force(&pts4));
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
        let pts = vec![
            ([3.0, 1.0], 'a'),
            ([1.0, 3.0], 'b'),
            ([2.0, 2.0], 'c'),
            ([1.0, 1.0], 'd'),
        ];
        let mut front = front_2d();
        front.extend(pts.iter().map(|&(m, c)| (m.into(), c)));
        let batch = pareto_filter_dyn(pts);
        let mut a: Vec<char> = front.iter().map(|(_, c)| *c).collect();
        let b: Vec<char> = batch.iter().map(|(_, c)| *c).collect();
        a.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(b, vec!['a', 'b', 'c']);
    }

    /// Four objectives, so every compaction runs the generic filter rather
    /// than the 3-D sweep.
    #[test]
    fn streaming_filter_is_exact_under_tiny_buffer() {
        let pts: Vec<[f64; 4]> = (0..200)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                [t.sin(), t.cos(), (t * 0.37).sin(), (t * 0.11).cos()]
            })
            .collect();
        let mut filter: DynStreamingParetoFilter<usize> =
            DynStreamingParetoFilter::with_capacity(AxisSchema::new(["a", "b", "c", "d"]), 8);
        for (i, p) in pts.iter().enumerate() {
            filter.push((*p).into(), i);
        }
        let mut got: Vec<usize> = filter.finish().into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&pts));
    }

    #[test]
    fn staircase_query_semantics() {
        let mut s = Staircase::new();
        s.insert(5.0, 1.0);
        s.insert(3.0, 2.0);
        assert!(s.dominates_query(4.0, 1.0)); // (5,1) covers it
        assert!(s.dominates_query(3.0, 2.0)); // equal is weak dominance
        assert!(!s.dominates_query(3.0, 2.5));
        assert!(!s.dominates_query(6.0, 0.0));
    }

    #[test]
    fn staircase_insert_prunes_dominated_steps() {
        let mut s = Staircase::new();
        s.insert(5.0, 1.0);
        s.insert(3.0, 2.0);
        s.insert(6.0, 3.0); // dominates both
        assert_eq!(s.steps.len(), 1);
        assert_eq!(s.steps[0], (6.0, 3.0));
    }
}
