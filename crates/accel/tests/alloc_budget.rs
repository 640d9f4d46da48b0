//! Pins the allocation budget of the accelerator half: walking the
//! configuration space, building a scheduler and scheduling a network,
//! greedy or serial, allocate nothing, including the first fill of an op's
//! row.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator sees only this crate's code. Counts are kept per thread, so
//! the test harness's other threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codesign_accel::{schedule_serial, ConfigSpace, Scheduler};
use codesign_nasbench::{known_cells, Dataset, Network};

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
fn config_space_does_not_allocate() {
    let (visited, count) = allocations(|| {
        let space = ConfigSpace::chaidnn();
        let mut visited = 0;
        for (index, config) in space.iter().enumerate() {
            assert_eq!(space.get(index), config);
            assert_eq!(space.try_encode(&config), Some(space.encode(&config)));
            assert_eq!(space.index_of(&config), Some(index));
            visited += 1;
        }
        assert_eq!(visited, space.len());
        visited
    });
    assert_eq!(visited, 8640);
    assert_eq!(count, 0, "walking the space allocated {count} times");
}

#[test]
fn scheduling_a_network_does_not_allocate() {
    let space = ConfigSpace::chaidnn();
    let configs = [0, 5000, 8639].map(|index| space.get(index));
    let networks: Vec<_> = known_cells::all_named()
        .into_iter()
        .map(|(name, cell)| (name, Network::assemble(&cell, Dataset::Cifar10)))
        .collect();
    for (name, network) in &networks {
        for config in configs {
            let (greedy, count) =
                allocations(|| Scheduler::new(config).network_latency_ms(network));
            assert!(greedy > 0.0);
            assert_eq!(
                count, 0,
                "greedy {name} at {config} allocated {count} times"
            );
            let (serial, count) = allocations(|| schedule_serial(&config, network));
            assert!(serial >= greedy);
            assert_eq!(
                count, 0,
                "serial {name} at {config} allocated {count} times"
            );
        }
    }
}
