//! Pins the memory budget of a sharded cache save: `save_sharded` copies
//! each pair once, into one sorted `Vec` of 56-byte records, and encodes
//! one shard file at a time, so its heap peak above the live heap it
//! starts from stays under 80 bytes per pair.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator sees only this crate's code. Bytes are counted per thread, so
//! the test harness's other threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codesign_accel::ConfigSpace;
use codesign_core::{EvalCache, PairEvaluation};
use codesign_engine::{mix64, SharedEvalCache, CACHE_SHARD_FILES};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed; memory freed on
    /// another thread than it was allocated on makes it drift, so it is
    /// signed and wraps.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(delta);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only thread-local `Cell`s,
// which never allocate. `realloc` goes through the default implementation,
// i.e. `alloc`, copy, `dealloc`, so a growing buffer briefly counts twice,
// as it is held twice.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size().cast_signed());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-layout.size().cast_signed());
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with how far this thread's live heap
/// rose above where it started, at its highest.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let value = f();
    let peak = PEAK.with(Cell::get);
    (value, peak.wrapping_sub(start).unsigned_abs())
}

#[test]
fn sharded_save_copies_each_pair_once() {
    const PAIRS: usize = 50_000;
    let space = ConfigSpace::chaidnn();
    let cache = SharedEvalCache::new();
    for i in 0..PAIRS as u64 {
        // Hashes spread over every shard file, as canonical hashes do.
        let hash = u128::from(mix64(i)) << 64 | u128::from(mix64(!i));
        let config = space.get(usize::try_from(i).unwrap() % space.len());
        let x = i as f64;
        let eval = PairEvaluation {
            accuracy: x,
            latency_ms: x + 0.5,
            area_mm2: x + 0.25,
            power_w: x + 0.125,
        };
        cache.put(hash, &config, eval);
    }
    assert_eq!(cache.len(), PAIRS);

    let dir = std::env::temp_dir().join(format!("codesign_alloc_budget_{}.d", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (written, peak) = peak_above_start(|| cache.save_sharded(&dir, 1).expect("save"));
    let _ = std::fs::remove_dir_all(&dir);

    // A 56-byte header per file and a 68-byte record per pair.
    assert_eq!(written, CACHE_SHARD_FILES * 56 + PAIRS * 68);
    let per_pair = peak as f64 / PAIRS as f64;
    assert!(
        per_pair < 80.0,
        "save_sharded peaked {peak} B above its starting heap, {per_pair:.1} B per pair"
    );
}
