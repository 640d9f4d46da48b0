//! Pins the allocation budget of the layer passes: `Linear` and
//! `LstmCell` forward passes, backward passes, gradient accumulation and
//! `zero_grad` allocate nothing, as `nn`'s module docs promise, including
//! the first call of each kernel.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator sees only this crate's code. Counts are kept per thread, so
//! the test harness's other threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codesign_rl::nn::{Linear, LstmCell};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Runs `f` and returns the allocations it made.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `len` values uniform on [-1, 1).
fn values(rng: &mut SmallRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn linear_passes_do_not_allocate() {
    let mut rng = SmallRng::seed_from_u64(1);
    // The surrogate's first layer over one refit's samples (more terms
    // than one outer-sum kernel call adds), and the controller's head over
    // a 34-decision rollout.
    for (inputs, outputs, samples) in [(18, 16, 272), (64, 40, 34)] {
        let mut layer = Linear::new(inputs, outputs, &mut rng);
        let xs = values(&mut rng, samples * inputs);
        let dys = values(&mut rng, samples * outputs);
        let mut ys = vec![0.0; samples * outputs];
        let mut dx = vec![0.0; inputs];
        let count = allocations(|| {
            layer.zero_grad();
            for (x, y) in xs.chunks_exact(inputs).zip(ys.chunks_exact_mut(outputs)) {
                layer.forward_into(x, y);
            }
            for dy in dys.chunks_exact(outputs) {
                dx.fill(0.0);
                layer.w.add_matvec_transpose(dy, &mut dx);
            }
            layer.accumulate(
                samples,
                |s| &dys[s * outputs..][..outputs],
                |s| &xs[s * inputs..][..inputs],
            );
        });
        assert_eq!(
            count, 0,
            "{inputs} -> {outputs} over {samples} samples allocated {count} times"
        );
        assert!(layer.dw.as_slice().iter().any(|&g| g != 0.0));
    }
}

#[test]
fn lstm_passes_do_not_allocate() {
    let mut rng = SmallRng::seed_from_u64(2);
    // The controller's cell over a 34-decision rollout.
    let (inputs, hidden, steps) = (32, 64, 34);
    let mut cell = LstmCell::new(inputs, hidden, &mut rng);
    let len = cell.record_len();
    let xs = values(&mut rng, steps * inputs);
    let zeros = vec![0.0; hidden];
    let mut records = vec![0.0; steps * len];
    let mut zh = vec![0.0; 4 * hidden];
    let (mut dh, mut dc) = (vec![0.0; hidden], vec![0.0; hidden]);
    let (mut dz, mut dx) = (vec![0.0; steps * 4 * hidden], vec![0.0; inputs]);
    let count = allocations(|| {
        cell.zero_grad();
        for t in 0..steps {
            let (done, rest) = records.split_at_mut(t * len);
            let prev = t.checked_sub(1).map(|p| &done[p * len..][..len]);
            let h_prev = prev.map_or(&zeros[..], LstmCell::hidden_state);
            let c_prev = prev.map_or(&zeros[..], LstmCell::cell_state);
            let x = &xs[t * inputs..][..inputs];
            cell.forward(x, h_prev, c_prev, &mut zh, &mut rest[..len]);
        }
        dh.fill(1.0);
        dc.fill(0.0);
        for t in (0..steps).rev() {
            let prev = t.checked_sub(1).map(|p| &records[p * len..][..len]);
            let c_prev = prev.map_or(&zeros[..], LstmCell::cell_state);
            let dz_t = &mut dz[t * 4 * hidden..][..4 * hidden];
            cell.backward(
                &records[t * len..][..len],
                c_prev,
                &mut dh,
                &mut dc,
                dz_t,
                &mut dx,
            );
        }
        let h_prev = |t: usize| match t {
            0 => &zeros[..],
            _ => LstmCell::hidden_state(&records[(t - 1) * len..][..len]),
        };
        cell.accumulate(
            steps,
            |t| &dz[t * 4 * hidden..][..4 * hidden],
            |t| &xs[t * inputs..][..inputs],
            h_prev,
        );
    });
    assert_eq!(count, 0, "an LSTM rollout's passes allocated {count} times");
    assert!(cell.dwh.as_slice().iter().any(|&g| g != 0.0));
    let last = &records[(steps - 1) * len..];
    assert!(LstmCell::hidden_state(last).iter().any(|&h| h != 0.0));
}
