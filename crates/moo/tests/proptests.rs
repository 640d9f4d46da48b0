//! Property-based tests for the multi-objective primitives.

use codesign_moo::dominance::{compare, Dominance};
use codesign_moo::{
    crowding_distance_dyn, dominates, dominates_dyn, hypervolume_3d, hypervolume_dyn, rank_dyn,
    AxisSchema, DynParetoFront, DynRewardSpec, IncrementalHypervolume, LinearNorm, MetricVector,
};
use proptest::prelude::*;

fn metric() -> impl Strategy<Value = f64> {
    // Small integer grid: maximizes tie probability, the hard case.
    (-3i32..=3).prop_map(f64::from)
}

fn point2() -> impl Strategy<Value = [f64; 2]> {
    [metric(), metric()]
}

fn point3() -> impl Strategy<Value = [f64; 3]> {
    [metric(), metric(), metric()]
}

fn point4() -> impl Strategy<Value = [f64; 4]> {
    [metric(), metric(), metric(), metric()]
}

fn point5() -> impl Strategy<Value = [f64; 5]> {
    [metric(), metric(), metric(), metric(), metric()]
}

/// A stream at 1–6 axes, with its axis count, over the tie-heavy grid.
/// Every point is drawn from a small pool, so exact duplicates recur
/// throughout the stream.
fn duplicate_heavy_stream() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (1usize..=6)
        .prop_flat_map(|dims| {
            (
                Just(dims),
                prop::collection::vec(prop::collection::vec(metric(), dims), 1..48),
                prop::collection::vec(0usize..64, 0..150),
            )
        })
        .prop_map(|(dims, pool, picks)| {
            let stream = picks
                .iter()
                .map(|&k| pool[k % pool.len()].clone())
                .collect();
            (dims, stream)
        })
}

/// The naive incremental front: a point some member dominates is
/// rejected; otherwise the members it dominates leave and it is appended.
fn naive_insert(front: &mut Vec<(MetricVector, usize)>, point: &[f64], payload: usize) -> bool {
    if front.iter().any(|(m, _)| dominates_dyn(m, point)) {
        return false;
    }
    front.retain(|(m, _)| !dominates_dyn(point, m));
    front.push((MetricVector::from_slice(point), payload));
    true
}

/// A point in the paper-triple value ranges (signed `(−area, −lat, acc)`),
/// the regime the dyn/fixed-array hypervolume parity must hold bitwise in.
fn paper_point() -> impl Strategy<Value = [f64; 3]> {
    [-215.0f64..-45.0, -400.0f64..-5.0, 0.80f64..0.95]
}

/// Brute-force front oracle: the indices no other point dominates, by
/// direct pairwise checks.
fn brute_force<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .any(|q| dominates_dyn(q.as_ref(), points[i].as_ref()))
        })
        .collect()
}

/// [`brute_force`] on the const-generic `dominates::<N>` kernel, the
/// fixed-array dominance check the runtime-dimension stack must agree with.
fn brute_force_fixed<const N: usize>(points: &[[f64; N]]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|q| dominates(q, &points[i])))
        .collect()
}

/// The indices of `points` that a [`DynParetoFront`] keeps when they are
/// inserted in order, in its member order.
fn front_indices<const N: usize>(points: &[[f64; N]]) -> Vec<usize> {
    let mut front = DynParetoFront::new(AxisSchema::new((0..N).map(|k| format!("m{k}"))));
    for (i, p) in points.iter().enumerate() {
        front.insert_with(p, || i);
    }
    front.iter().map(|(_, &i)| i).collect()
}

/// Brute-force non-dominated-sorting oracle: peel the non-dominated set of
/// the remainder, one rank at a time, by direct pairwise dominance checks
/// (`O(n³)` — fine at test sizes).
fn brute_force_ranks(points: &[Vec<f64>]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; points.len()];
    let mut rank = 0;
    while ranks.contains(&usize::MAX) {
        let alive: Vec<usize> = (0..points.len())
            .filter(|&i| ranks[i] == usize::MAX)
            .collect();
        for &i in &alive {
            if !alive.iter().any(|&j| dominates_dyn(&points[j], &points[i])) {
                ranks[i] = rank;
            }
        }
        rank += 1;
    }
    ranks
}

/// Brute-force crowding oracle with the same tie semantics as the library
/// (sort by value with index tie-break), written independently: for each
/// point and objective, scan for the sorted predecessor/successor directly
/// instead of sorting once.
fn brute_force_crowding(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let dims = points[0].len();
    let mut distance = vec![0.0f64; n];
    // Sort key with index tie-break; predecessor = greatest key below ours.
    let key = |i: usize, m: usize| (points[i][m], i);
    let below = |a: (f64, usize), b: (f64, usize)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
    for m in 0..dims {
        let lo = points.iter().map(|p| p[m]).fold(f64::INFINITY, f64::min);
        let hi = points
            .iter()
            .map(|p| p[m])
            .fold(f64::NEG_INFINITY, f64::max);
        for (i, slot) in distance.iter_mut().enumerate() {
            let me = key(i, m);
            let prev = (0..n)
                .filter(|&j| below(key(j, m), me))
                .max_by(|&a, &b| (points[a][m], a).partial_cmp(&(points[b][m], b)).unwrap());
            let next = (0..n)
                .filter(|&j| below(me, key(j, m)))
                .min_by(|&a, &b| (points[a][m], a).partial_cmp(&(points[b][m], b)).unwrap());
            match (prev, next) {
                (Some(p), Some(q)) => {
                    if hi > lo {
                        *slot += (points[q][m] - points[p][m]) / (hi - lo);
                    }
                }
                _ => *slot = f64::INFINITY,
            }
        }
    }
    distance
}

proptest! {
    #[test]
    fn incremental_front_matches_batch(pts in prop::collection::vec(point4(), 0..120)) {
        let mut front: DynParetoFront<usize> =
            DynParetoFront::new(AxisSchema::new(["area", "lat", "acc", "power"]));
        for (i, p) in pts.iter().enumerate() {
            front.insert((*p).into(), i);
        }
        let mut got: Vec<usize> = front.iter().map(|(_, i)| *i).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&pts));
    }

    // Shard fronts are exported in insertion order, so the front must keep
    // the naive reference's members in its order, with its payloads, and
    // build a payload only for a point it accepts.
    #[test]
    fn dyn_front_matches_the_naive_reference_in_order((dims, stream) in duplicate_heavy_stream()) {
        let schema = AxisSchema::new((0..dims).map(|k| format!("m{k}")));
        let mut front: DynParetoFront<usize> = DynParetoFront::new(schema);
        let mut reference: Vec<(MetricVector, usize)> = Vec::new();
        let mut built = 0;
        let mut accepted = 0;
        for (i, p) in stream.iter().enumerate() {
            let joins = naive_insert(&mut reference, p, i);
            accepted += usize::from(joins);
            prop_assert_eq!(front.would_reject(p), !joins);
            let inserted = front.insert_with(p, || {
                built += 1;
                i
            });
            prop_assert_eq!(inserted, joins);
        }
        prop_assert_eq!(built, accepted);
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let got: Vec<(Vec<u64>, usize)> = front.iter().map(|(m, &i)| (bits(m), i)).collect();
        let want: Vec<(Vec<u64>, usize)> =
            reference.iter().map(|(m, i)| (bits(m), *i)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(front.into_vec(), reference);
    }

    #[test]
    fn crowding_dyn_equals_brute_force_bitwise((_dims, stream) in duplicate_heavy_stream()) {
        let got: Vec<u64> = crowding_distance_dyn(&stream).iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = brute_force_crowding(&stream).iter().map(|d| d.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dominance_is_antisymmetric(a in point3(), b in point3()) {
        let fwd = compare(&a, &b);
        let bwd = compare(&b, &a);
        let expected = match fwd {
            Dominance::Dominates => Dominance::DominatedBy,
            Dominance::DominatedBy => Dominance::Dominates,
            Dominance::Equal => Dominance::Equal,
            Dominance::Incomparable => Dominance::Incomparable,
        };
        prop_assert_eq!(bwd, expected);
    }

    #[test]
    fn dominance_is_transitive(a in point3(), b in point3(), c in point3()) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    #[test]
    fn normalization_is_bounded_and_monotone(
        lo in -100.0f64..0.0,
        span in 0.1f64..100.0,
        x in -200.0f64..200.0,
        dx in 0.0f64..50.0,
    ) {
        let n = LinearNorm::new(lo, lo + span).unwrap();
        let y = n.apply(x);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!(n.apply(x + dx) >= y);
    }

    #[test]
    fn reward_monotone_in_each_metric(
        m in [0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0],
        bump in 0.0f64..0.5,
        axis in 0usize..3,
    ) {
        let spec = DynRewardSpec::builder()
            .weights(vec![0.1, 0.8, 0.1]).unwrap()
            .norms(vec![LinearNorm::unit(); 3])
            .build().unwrap();
        let mut better = m;
        better[axis] += bump;
        prop_assert!(spec.scalarize(&better) >= spec.scalarize(&m) - 1e-12);
    }

    #[test]
    fn hypervolume_monotone_under_point_addition(
        pts in prop::collection::vec([0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0], 1..40),
        extra in [0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0],
    ) {
        let reference = [0.0, 0.0, 0.0];
        let base = hypervolume_3d(&pts, reference);
        let mut more = pts.clone();
        more.push(extra);
        prop_assert!(hypervolume_3d(&more, reference) >= base - 1e-9);
    }

    // The runtime-dimension front agrees with the const-generic dominance
    // kernel at every dimension scenarios use; its members keep their
    // insertion order.
    #[test]
    fn dyn_indices_equal_const_generic_2d(pts in prop::collection::vec(point2(), 0..120)) {
        prop_assert_eq!(front_indices(&pts), brute_force_fixed(&pts));
    }

    #[test]
    fn dyn_indices_equal_const_generic_3d(pts in prop::collection::vec(point3(), 0..120)) {
        prop_assert_eq!(front_indices(&pts), brute_force_fixed(&pts));
    }

    #[test]
    fn dyn_indices_equal_const_generic_4d(pts in prop::collection::vec(point4(), 0..120)) {
        prop_assert_eq!(front_indices(&pts), brute_force_fixed(&pts));
    }

    #[test]
    fn dyn_front_membership_equals_const_generic(pts in prop::collection::vec(point3(), 0..120)) {
        let mut front: DynParetoFront<usize> =
            DynParetoFront::new(AxisSchema::new(["area", "lat", "acc"]));
        for (i, p) in pts.iter().enumerate() {
            // A point joins iff nothing inserted before it dominates it.
            let joins = !pts[..i].iter().any(|q| dominates(q, p));
            prop_assert_eq!(front.insert((*p).into(), i), joins);
        }
        let mut got: Vec<usize> = front.iter().map(|(_, i)| *i).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force_fixed(&pts));
    }

    #[test]
    fn dyn_hypervolume_matches_3d_bitwise_on_the_paper_triple(
        pts in prop::collection::vec(paper_point(), 0..60),
    ) {
        let reference = [-215.0, -400.0, 0.80];
        let fixed = hypervolume_3d(&pts, reference);
        let dynamic = hypervolume_dyn(&pts, &reference);
        prop_assert_eq!(fixed.to_bits(), dynamic.to_bits());
    }

    #[test]
    fn dyn_hypervolume_4d_is_monotone_and_bounded(
        pts in prop::collection::vec([0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0], 1..25),
        extra in [0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0],
    ) {
        let reference = [0.0; 4];
        let base = hypervolume_dyn(&pts, &reference);
        let bound: f64 = pts
            .iter()
            .map(|p| p.iter().product::<f64>())
            .sum();
        prop_assert!(base <= bound + 1e-9, "union volume exceeds sum of boxes");
        let mut more = pts.clone();
        more.push(extra);
        prop_assert!(hypervolume_dyn(&more, &reference) >= base - 1e-9);
    }

    // NSGA-II primitives: pinned against brute-force oracles at every
    // dimension scenarios use (the integer grid maximizes ties, the hard
    // case for rank peeling).
    #[test]
    fn rank_dyn_equals_brute_force_1d(pts in prop::collection::vec([metric()], 0..80)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(rank_dyn(&pts), brute_force_ranks(&dyn_pts));
    }

    #[test]
    fn rank_dyn_equals_brute_force_2d(pts in prop::collection::vec(point2(), 0..80)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(rank_dyn(&pts), brute_force_ranks(&dyn_pts));
    }

    #[test]
    fn rank_dyn_equals_brute_force_3d(pts in prop::collection::vec(point3(), 0..80)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(rank_dyn(&pts), brute_force_ranks(&dyn_pts));
    }

    #[test]
    fn rank_dyn_equals_brute_force_4d(pts in prop::collection::vec(point4(), 0..80)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(rank_dyn(&pts), brute_force_ranks(&dyn_pts));
    }

    // 5 axes and up to 130 points: bitset rows span three 64-bit words.
    #[test]
    fn rank_dyn_equals_brute_force_5d(pts in prop::collection::vec(point5(), 0..130)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(rank_dyn(&pts), brute_force_ranks(&dyn_pts));
    }

    #[test]
    fn crowding_dyn_equals_brute_force_2d(pts in prop::collection::vec(point2(), 0..60)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        let got = crowding_distance_dyn(&pts);
        let want = brute_force_crowding(&dyn_pts);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9 || (g.is_infinite() && w.is_infinite()));
        }
    }

    #[test]
    fn crowding_dyn_equals_brute_force_3d(
        pts in prop::collection::vec([0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0], 0..60),
    ) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        let got = crowding_distance_dyn(&pts);
        let want = brute_force_crowding(&dyn_pts);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9 || (g.is_infinite() && w.is_infinite()));
        }
    }

    #[test]
    fn crowding_dyn_equals_brute_force_4d(pts in prop::collection::vec(point4(), 0..50)) {
        let dyn_pts: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
        let got = crowding_distance_dyn(&pts);
        let want = brute_force_crowding(&dyn_pts);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9 || (g.is_infinite() && w.is_infinite()));
        }
    }

    #[test]
    fn rank_zero_matches_pareto_indices_dyn(pts in prop::collection::vec(point3(), 0..80)) {
        let ranks = rank_dyn(&pts);
        let rank0: Vec<usize> = (0..pts.len()).filter(|&i| ranks[i] == 0).collect();
        prop_assert_eq!(rank0, brute_force(&pts));
    }

    #[test]
    fn hypervolume_equals_front_hypervolume(
        pts in prop::collection::vec([0.01f64..2.0, 0.01f64..2.0, 0.01f64..2.0], 1..40),
    ) {
        let reference = [0.0, 0.0, 0.0];
        let front: Vec<[f64; 3]> = brute_force(&pts).into_iter().map(|i| pts[i]).collect();
        let a = hypervolume_3d(&pts, reference);
        let b = hypervolume_3d(&front, reference);
        prop_assert!((a - b).abs() < 1e-9);
    }

    // Incremental hypervolume vs the scratch `hypervolume_dyn` oracle, for
    // N ∈ {2, 3, 4}, under arbitrary insertion orders drawn from the
    // tie-heavy integer grid (the eviction-heavy hard case) shifted above a
    // fixed reference. Deltas must telescope to the scratch total after
    // *every* prefix, to ≤1e-9 relative.
    #[test]
    fn incremental_hv_matches_scratch_oracle_2d(
        pts in prop::collection::vec(point2(), 0..60),
    ) {
        check_incremental_hv(&pts.iter().map(|p| p.to_vec()).collect::<Vec<_>>(), &[-4.0; 2]);
    }

    #[test]
    fn incremental_hv_matches_scratch_oracle_3d(
        pts in prop::collection::vec(point3(), 0..60),
    ) {
        check_incremental_hv(&pts.iter().map(|p| p.to_vec()).collect::<Vec<_>>(), &[-4.0; 3]);
    }

    #[test]
    fn incremental_hv_matches_scratch_oracle_4d(
        pts in prop::collection::vec(point4(), 0..40),
    ) {
        check_incremental_hv(&pts.iter().map(|p| p.to_vec()).collect::<Vec<_>>(), &[-4.0; 4]);
    }

    // The paper-triple regime: continuous values, no ties, real scales.
    #[test]
    fn incremental_hv_matches_scratch_oracle_on_paper_triples(
        pts in prop::collection::vec(paper_point(), 0..60),
    ) {
        let reference = [-250.0, -500.0, 0.5];
        check_incremental_hv(&pts.iter().map(|p| p.to_vec()).collect::<Vec<_>>(), &reference);
    }

    // The front-level cached mode: cache enabled mid-stream, the rest of
    // the points inserted through `insert_with_hv_delta`; the running total
    // must match a scratch recompute of the surviving members.
    #[test]
    fn dyn_front_cached_hv_matches_scratch(
        pts in prop::collection::vec(point3(), 1..60),
        split in 0usize..60,
    ) {
        let reference = [-4.0; 3];
        let schema = AxisSchema::new(["a", "b", "c"]);
        let mut front: DynParetoFront<usize> = DynParetoFront::new(schema);
        let split = split.min(pts.len());
        for (i, p) in pts[..split].iter().enumerate() {
            front.insert((*p).into(), i);
        }
        let seeded = front.enable_hv_cache(&reference);
        prop_assert!(relative_close(seeded, front.hypervolume(&reference)));
        for (i, p) in pts[split..].iter().enumerate() {
            let before = front.hypervolume_cached(&reference);
            let (_, delta) = front.insert_with_hv_delta(p, || split + i);
            prop_assert!(delta >= 0.0);
            let after = front.hypervolume_cached(&reference);
            prop_assert!(relative_close(before + delta, after));
        }
        prop_assert!(relative_close(
            front.hypervolume_cached(&reference),
            front.hypervolume(&reference),
        ));
    }
}

/// `a` and `b` agree to ≤1e-9 relative (absolute near zero).
fn relative_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(a.abs()).max(1.0)
}

/// Feeds `pts` one at a time into an [`IncrementalHypervolume`] and checks
/// every prefix's running total against the scratch oracle, plus the
/// marginal-delta bookkeeping (each delta ≥ 0 and exactly the growth of
/// the running total).
fn check_incremental_hv(pts: &[Vec<f64>], reference: &[f64]) {
    let mut tracker = IncrementalHypervolume::new(reference);
    let mut seen: Vec<Vec<f64>> = Vec::new();
    for p in pts {
        let before = tracker.hypervolume();
        let delta = tracker.insert(p);
        assert!(delta >= 0.0, "negative marginal {delta}");
        assert!(
            (before + delta - tracker.hypervolume()).abs() <= f64::EPSILON * tracker.hypervolume(),
            "delta does not telescope"
        );
        seen.push(p.clone());
        let scratch = hypervolume_dyn(&seen, reference);
        assert!(
            relative_close(tracker.hypervolume(), scratch),
            "incremental {} vs scratch {} after {:?}",
            tracker.hypervolume(),
            scratch,
            seen,
        );
    }
}
