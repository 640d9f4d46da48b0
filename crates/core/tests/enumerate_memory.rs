//! Pins the enumerator's memory: a thread of `enumerate_scenario_front`
//! walks its chunk of cells in fixed-size blocks and holds one block's
//! networks at a time, so its heap peak does not grow with the cells it
//! enumerates.
//!
//! This lives in its own integration-test binary with one test, because
//! the counting global allocator counts the whole process: the
//! enumeration's worker threads allocate on threads of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use codesign_core::{enumerate_scenario_front, MetricId, ScenarioSpec};
use codesign_nasbench::{Dataset, NasbenchDatabase, Network};

struct CountingAlloc;

/// Bytes the process allocated minus bytes it freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only atomics, which never
// allocate. `realloc` goes through the default implementation, i.e.
// `alloc`, copy, `dealloc`, so a growing buffer briefly counts twice, as it
// is held twice.
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

/// Runs `f` and returns how far the process's live heap rose above where
/// it started, at its highest, while `f` ran (its result included).
fn peak_above_start<T>(f: impl FnOnce() -> T) -> usize {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let value = f();
    let peak = PEAK.load(Ordering::SeqCst);
    drop(value);
    (peak - start).unsigned_abs()
}

#[test]
fn an_enumeration_thread_holds_one_block_of_networks() {
    // A scenario that schedules every pair and keeps a front of a few
    // members, so the heap an enumeration needs beyond its networks is
    // about the same on one cell as on the 91 cells of 4 vertices.
    let scenario = ScenarioSpec::builder("efficiency")
        .weight(MetricId::PerfPerArea, 1.0)
        .weight(MetricId::Accuracy, 1.0)
        .build()
        .expect("valid scenario")
        .compile();
    let (one_cell, all_cells) = (
        NasbenchDatabase::exhaustive(2),
        NasbenchDatabase::exhaustive(4),
    );
    assert_eq!((one_cell.len(), all_cells.len()), (1, 91));
    let assemble_all = || -> Vec<Network> {
        all_cells
            .iter()
            .map(|entry| Network::assemble(&entry.spec, Dataset::Cifar10))
            .collect()
    };
    // Interning the ops of every network fills process-wide tables that
    // never allocate; assembling them once first keeps the measurements
    // below free of first-use costs all the same.
    drop(assemble_all());
    let networks = peak_above_start(assemble_all);

    let front_len = |db: &NasbenchDatabase| enumerate_scenario_front(db, &scenario, 1).len();
    assert!(front_len(&all_cells) <= 16);
    let one = peak_above_start(|| front_len(&one_cell));
    let all = peak_above_start(|| front_len(&all_cells));
    // One thread enumerates all 91 cells. Holding every cell's network
    // would add about `networks` bytes over the one-cell run; one block of
    // at most 16 cells adds at most a sixth of it.
    let growth = all.saturating_sub(one);
    assert!(
        growth < networks / 3,
        "91 cells peaked {growth} B above one cell; all 91 networks take {networks} B"
    );
}
