//! Dominated-hypervolume indicators.
//!
//! The paper compares searches to the Pareto frontier visually (Fig. 5); for
//! quantitative regression tests and the strategy-comparison benches we also
//! compute the hypervolume dominated by a point set with respect to a
//! reference point — the standard scalar measure of front quality. All
//! metrics follow the all-maximize convention and the reference point must be
//! dominated by (i.e. no better than) every input point in every objective;
//! points that do not dominate the reference contribute nothing.

/// Hypervolume (area) dominated by `points` relative to `reference` in 2D.
///
/// # Examples
///
/// ```
/// use codesign_moo::hypervolume_2d;
///
/// let pts = vec![[1.0, 2.0], [2.0, 1.0]];
/// let hv = hypervolume_2d(&pts, [0.0, 0.0]);
/// assert!((hv - 3.0).abs() < 1e-12); // union of 1x2 and 2x1 rectangles
/// ```
#[must_use]
pub fn hypervolume_2d(points: &[[f64; 2]], reference: [f64; 2]) -> f64 {
    let mut pts: Vec<[f64; 2]> = points
        .iter()
        .copied()
        .filter(|p| p[0] > reference[0] && p[1] > reference[1])
        .collect();
    // Sort by x descending; sweep keeping the best y seen so far.
    pts.sort_by(|a, b| b[0].partial_cmp(&a[0]).unwrap_or(std::cmp::Ordering::Equal));
    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for p in pts {
        if p[1] > prev_y {
            hv += (p[0] - reference[0]) * (p[1] - prev_y);
            prev_y = p[1];
        }
    }
    hv
}

/// Hypervolume (volume) dominated by `points` relative to `reference` in 3D.
///
/// Uses the sweep over the third objective with incremental 2D hypervolumes —
/// `O(n^2)` overall, ample for fronts of a few thousand points (the paper's
/// full-space front has 3,096 members).
///
/// # Examples
///
/// ```
/// use codesign_moo::hypervolume_3d;
///
/// let pts = vec![[1.0, 1.0, 1.0]];
/// assert!((hypervolume_3d(&pts, [0.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn hypervolume_3d(points: &[[f64; 3]], reference: [f64; 3]) -> f64 {
    let mut pts: Vec<[f64; 3]> = points
        .iter()
        .copied()
        .filter(|p| p.iter().zip(reference.iter()).all(|(a, r)| a > r))
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    // Sweep z from high to low; between consecutive z levels the dominated
    // cross-section is the 2D hypervolume of all points with z above the slab.
    pts.sort_by(|a, b| b[2].partial_cmp(&a[2]).unwrap_or(std::cmp::Ordering::Equal));
    let mut hv = 0.0;
    let mut active: Vec<[f64; 2]> = Vec::new();
    let mut i = 0;
    while i < pts.len() {
        let z_hi = pts[i][2];
        // Add every point at this z level.
        while i < pts.len() && pts[i][2] == z_hi {
            active.push([pts[i][0], pts[i][1]]);
            i += 1;
        }
        let z_lo = if i < pts.len() {
            pts[i][2]
        } else {
            reference[2]
        };
        let slab = z_hi - z_lo;
        if slab > 0.0 {
            hv += slab * hypervolume_2d(&active, [reference[0], reference[1]]);
        }
    }
    hv
}

/// Hypervolume dominated by a runtime-dimension point set relative to
/// `reference`.
///
/// The dimension is read from `reference`; every point must match it. The
/// two- and three-objective cases delegate to [`hypervolume_2d`] and
/// [`hypervolume_3d`] — the exact same floating-point operations, so a
/// scenario over the paper triple scores the same hypervolume bit-for-bit
/// through either API. Higher dimensions use the standard slicing
/// recursion (sweep the last objective; between consecutive levels the
/// dominated cross-section is the `(d−1)`-dimensional hypervolume of the
/// active points' projections), `O(n^(d-1))` — ample for the
/// few-thousand-point fronts this repo produces.
///
/// # Panics
///
/// Panics if any point's dimension differs from the reference's.
///
/// # Examples
///
/// ```
/// use codesign_moo::{hypervolume_3d, hypervolume_dyn};
///
/// let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
/// assert!((hypervolume_dyn(&pts, &[0.0, 0.0]) - 3.0).abs() < 1e-12);
///
/// // Bit-identical to the fixed-array kernel at three objectives:
/// let triple = [[-120.0, -40.0, 0.93], [-60.0, -200.0, 0.91]];
/// let dyn_pts: Vec<&[f64]> = triple.iter().map(|p| p.as_slice()).collect();
/// let reference = [-250.0, -500.0, 0.5];
/// assert_eq!(
///     hypervolume_dyn(&dyn_pts, &reference).to_bits(),
///     hypervolume_3d(&triple, reference).to_bits(),
/// );
/// ```
#[must_use]
pub fn hypervolume_dyn<P: AsRef<[f64]>>(points: &[P], reference: &[f64]) -> f64 {
    hypervolume_dyn_iter(points.iter().map(AsRef::as_ref), reference)
}

/// [`hypervolume_dyn`] over borrowed point slices, without materializing a
/// `Vec<&[f64]>` first.
///
/// For one, two, and three objectives — every registry-sized scenario — the
/// points are read straight out of the iterator into the fixed-dimension
/// kernels. Four or more objectives collect once and sweep slabs.
///
/// # Panics
///
/// Panics if any point's dimension differs from the reference's.
///
/// # Examples
///
/// ```
/// use codesign_moo::{hypervolume_dyn, hypervolume_dyn_iter};
///
/// let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
/// let hv = hypervolume_dyn_iter(pts.iter().map(Vec::as_slice), &[0.0, 0.0]);
/// assert_eq!(hv.to_bits(), hypervolume_dyn(&pts, &[0.0, 0.0]).to_bits());
/// ```
#[must_use]
pub fn hypervolume_dyn_iter<'a, I>(points: I, reference: &[f64]) -> f64
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let dims = reference.len();
    let points = points.into_iter().inspect(|p| {
        assert!(
            p.len() == dims,
            "all points must match the reference dimension ({dims})"
        );
    });
    match dims {
        0 => {
            // Consumed only for the dimension check.
            points.for_each(drop);
            0.0
        }
        1 => {
            let best = points.map(|p| p[0]).fold(f64::NEG_INFINITY, f64::max);
            if best > reference[0] {
                best - reference[0]
            } else {
                0.0
            }
        }
        2 => {
            let pts: Vec<[f64; 2]> = points.map(|p| [p[0], p[1]]).collect();
            hypervolume_2d(&pts, [reference[0], reference[1]])
        }
        3 => {
            let pts: Vec<[f64; 3]> = points.map(|p| [p[0], p[1], p[2]]).collect();
            hypervolume_3d(&pts, [reference[0], reference[1], reference[2]])
        }
        _ => hypervolume_slabs(points.collect(), reference),
    }
}

/// [`hypervolume_dyn`]'s slicing recursion for four or more objectives,
/// over points already checked against the reference dimension.
fn hypervolume_slabs(mut pts: Vec<&[f64]>, reference: &[f64]) -> f64 {
    pts.retain(|p| p.iter().zip(reference.iter()).all(|(a, r)| a > r));
    let last = reference.len() - 1;
    pts.sort_by(|a, b| {
        b[last]
            .partial_cmp(&a[last])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut hv = 0.0;
    let mut active: Vec<&[f64]> = Vec::new();
    let mut i = 0;
    while i < pts.len() {
        let z_hi = pts[i][last];
        while i < pts.len() && pts[i][last] == z_hi {
            active.push(pts[i]);
            i += 1;
        }
        let z_lo = if i < pts.len() {
            pts[i][last]
        } else {
            reference[last]
        };
        let slab = z_hi - z_lo;
        if slab > 0.0 {
            hv +=
                slab * hypervolume_dyn_iter(active.iter().map(|p| &p[..last]), &reference[..last]);
        }
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_zero_volume() {
        assert_eq!(hypervolume_2d(&[], [0.0, 0.0]), 0.0);
        assert_eq!(hypervolume_3d(&[], [0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn points_not_dominating_reference_are_ignored() {
        let hv = hypervolume_2d(&[[1.0, -1.0], [2.0, 2.0]], [0.0, 0.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dominated_points_do_not_add_volume() {
        let alone = hypervolume_2d(&[[2.0, 2.0]], [0.0, 0.0]);
        let with_dominated = hypervolume_2d(&[[2.0, 2.0], [1.0, 1.0]], [0.0, 0.0]);
        assert!((alone - with_dominated).abs() < 1e-12);
    }

    #[test]
    fn two_boxes_union_2d() {
        let hv = hypervolume_2d(&[[3.0, 1.0], [1.0, 3.0]], [0.0, 0.0]);
        assert!((hv - 5.0).abs() < 1e-12); // 3 + 3 - overlap 1
    }

    #[test]
    fn staircase_3d_volume() {
        let pts = vec![[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]];
        // By inclusion-exclusion: boxes of volume 2 each, pairwise overlap 1, triple 1.
        // |A∪B∪C| = 6 - 3 + 1 = 4.
        let hv = hypervolume_3d(&pts, [0.0, 0.0, 0.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_is_monotone_in_points() {
        let base = vec![[1.0, 1.0, 1.0]];
        let more = vec![[1.0, 1.0, 1.0], [0.5, 2.0, 1.5]];
        assert!(hypervolume_3d(&more, [0.0, 0.0, 0.0]) >= hypervolume_3d(&base, [0.0, 0.0, 0.0]));
    }

    #[test]
    fn duplicate_points_do_not_double_count() {
        let pts = vec![[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]];
        assert!((hypervolume_3d(&pts, [0.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn translation_of_reference_shrinks_volume() {
        let pts = vec![[2.0, 2.0, 2.0]];
        let big = hypervolume_3d(&pts, [0.0, 0.0, 0.0]);
        let small = hypervolume_3d(&pts, [1.0, 1.0, 1.0]);
        assert!((big - 8.0).abs() < 1e-12);
        assert!((small - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dyn_delegates_bitwise_to_fixed_dimensions() {
        let pts2 = vec![[3.0, 1.0], [1.0, 3.0]];
        let dyn2: Vec<&[f64]> = pts2.iter().map(|p| p.as_slice()).collect();
        assert_eq!(
            hypervolume_dyn(&dyn2, &[0.0, 0.0]).to_bits(),
            hypervolume_2d(&pts2, [0.0, 0.0]).to_bits()
        );
        let pts3 = vec![[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]];
        let dyn3: Vec<&[f64]> = pts3.iter().map(|p| p.as_slice()).collect();
        assert_eq!(
            hypervolume_dyn(&dyn3, &[0.0, 0.0, 0.0]).to_bits(),
            hypervolume_3d(&pts3, [0.0, 0.0, 0.0]).to_bits()
        );
    }

    #[test]
    fn dyn_one_dimension_is_the_best_margin() {
        let pts = vec![vec![3.0], vec![1.0], vec![-2.0]];
        assert!((hypervolume_dyn(&pts, &[0.0]) - 3.0).abs() < 1e-12);
        assert_eq!(hypervolume_dyn(&pts, &[5.0]), 0.0);
        // Negative values above a lower reference still count their margin.
        assert!((hypervolume_dyn(&[vec![-1.0]], &[-5.0]) - 4.0).abs() < 1e-12);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert_eq!(hypervolume_dyn(&empty, &[0.0]), 0.0);
    }

    #[test]
    fn dyn_four_dimensions_box_and_union() {
        // One unit hypercube.
        let unit = vec![vec![1.0, 1.0, 1.0, 1.0]];
        assert!((hypervolume_dyn(&unit, &[0.0; 4]) - 1.0).abs() < 1e-12);
        // Two boxes overlapping in a known volume: by inclusion-exclusion
        // |A∪B| = 2·2 − 1 = 3 when each box has volume 2 and overlap 1.
        let boxes = vec![vec![2.0, 1.0, 1.0, 1.0], vec![1.0, 2.0, 1.0, 1.0]];
        assert!((hypervolume_dyn(&boxes, &[0.0; 4]) - 3.0).abs() < 1e-12);
        // Dominated points add nothing; duplicates do not double-count.
        let dup = vec![
            vec![2.0, 1.0, 1.0, 1.0],
            vec![2.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ];
        assert!((hypervolume_dyn(&dup, &[0.0; 4]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dyn_zero_dimensions_is_empty_volume() {
        let pts: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert_eq!(hypervolume_dyn(&pts, &[]), 0.0);
    }

    #[test]
    fn iter_entry_point_is_bitwise_identical_at_every_dimension() {
        for dims in 0..5usize {
            let pts: Vec<Vec<f64>> = (0..6)
                .map(|i| {
                    (0..dims)
                        .map(|d| f64::from(((i * 7 + d * 3) % 5) as u32))
                        .collect()
                })
                .collect();
            let reference = vec![-1.0; dims];
            assert_eq!(
                hypervolume_dyn_iter(pts.iter().map(Vec::as_slice), &reference).to_bits(),
                hypervolume_dyn(&pts, &reference).to_bits(),
                "{dims} dims"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must match the reference dimension")]
    fn iter_entry_point_rejects_wrong_dimension() {
        let pts = [vec![1.0, 2.0, 3.0]];
        let _ = hypervolume_dyn_iter(pts.iter().map(Vec::as_slice), &[0.0, 0.0]);
    }
}
