//! Pins the allocation budget of the cell pipeline every search step runs:
//! hashing a cell allocates nothing, validating and pruning one allocates
//! at most twice, and assembling its network allocates about twice per
//! unit.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator sees only this crate's code. Counts are kept per thread, so
//! the test harness's other threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codesign_nasbench::canon::canonical_hash;
use codesign_nasbench::{known_cells, CellSpec, Dataset, Network};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a thread-local `Cell`,
// which never allocates. `realloc` goes through the default implementation,
// i.e. through `alloc`, so a growing buffer counts once per growth.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn canonical_hash_does_not_allocate() {
    for (name, cell) in known_cells::all_named() {
        let (matrix, ops) = (cell.matrix().clone(), cell.ops().to_vec());
        let (hash, count) = allocations(|| canonical_hash(&matrix, &ops));
        assert_eq!(hash, cell.canonical_hash(), "{name}");
        assert_eq!(count, 0, "canonical_hash({name}) allocated {count} times");
    }
}

#[test]
fn cell_spec_new_allocates_at_most_twice() {
    for (name, cell) in known_cells::all_named() {
        let (matrix, ops) = (cell.matrix().clone(), cell.ops().to_vec());
        let (rebuilt, count) = allocations(|| CellSpec::new(matrix, ops));
        assert_eq!(rebuilt.as_ref(), Ok(&cell), "{name}");
        assert!(count <= 2, "CellSpec::new({name}) allocated {count} times");
    }
}

#[test]
fn network_assembly_allocates_about_twice_per_unit() {
    for (name, cell) in known_cells::all_named() {
        let (network, count) = allocations(|| Network::assemble(&cell, Dataset::Cifar10));
        let budget = 2 * network.units().len() as u64 + 1;
        assert!(
            count <= budget,
            "Network::assemble({name}) allocated {count} times (budget {budget})"
        );
    }
}
