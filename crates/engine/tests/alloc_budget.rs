//! Pins the memory budget of sharded cache persistence: `save_sharded`
//! and `sync_sharded` build each of the 16 shard files from that file's
//! own records, one file at a time, so their heap peak above the live heap
//! they start from is about one file's share of the cache: its sorted
//! 56-byte records and its encoded 68-byte records, ≈8 bytes per pair,
//! held under 16. A sync's merge phase holds one file's bytes and its
//! decoded records at a time, about as much. A save that first copied
//! every pair into one sorted `Vec` peaked at ≈60 bytes per pair.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator sees only this crate's code. Bytes are counted per thread, so
//! the test harness's other threads never leak into a measured window;
//! a save and a sync run on their caller's thread, so the count sees all
//! of their allocations.

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

/// Pairs in each measured cache.
const PAIRS: usize = 50_000;

/// The heap a save or sync may hold above its start, per pair.
const BUDGET_PER_PAIR: f64 = 16.0;

/// A cache of `PAIRS` pairs whose hashes spread over every shard file, as
/// canonical hashes do.
fn filled_cache() -> SharedEvalCache {
    let space = ConfigSpace::chaidnn();
    let cache = SharedEvalCache::new();
    for i in 0..PAIRS as u64 {
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
    cache
}

/// A fresh directory for one test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "codesign_alloc_budget_{tag}_{}.d",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks the bytes written and the peak against the budget.
fn assert_within_budget(op: &str, written: usize, peak: usize) {
    // A 56-byte header per file and a 68-byte record per pair.
    assert_eq!(written, CACHE_SHARD_FILES * 56 + PAIRS * 68);
    let per_pair = peak as f64 / PAIRS as f64;
    assert!(
        per_pair < BUDGET_PER_PAIR,
        "{op} peaked {peak} B above its starting heap, {per_pair:.1} B per pair"
    );
}

#[test]
fn sharded_save_copies_each_pair_once() {
    let cache = filled_cache();
    let dir = scratch_dir("save");
    let (written, peak) = peak_above_start(|| cache.save_sharded(&dir, 1).expect("save"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_within_budget("save_sharded", written, peak);
}

#[test]
fn sharded_sync_copies_each_pair_once() {
    let cache = filled_cache();
    let dir = scratch_dir("sync");
    cache.save_sharded(&dir, 1).expect("save");
    // The directory holds every pair, so the sync merges 16 full files
    // before it writes them back.
    let (written, peak) = peak_above_start(|| cache.sync_sharded(&dir, 1).expect("sync"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cache.len(), PAIRS);
    assert_within_budget("sync_sharded", written, peak);
}
