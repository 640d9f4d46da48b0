//! `CellSpec::new` reads canonical hashes through a process-wide memo; it
//! must return the reference `canon::canonical_hash` whether a cell is a
//! hit, a miss racing other threads, or a miss past the memo's cap.
//!
//! This lives in its own integration-test binary, so the memo starts empty
//! and the race below is what fills it.

use std::sync::{Arc, Barrier};
use std::thread;

use codesign_nasbench::canon::canonical_hash;
use codesign_nasbench::{enumerate_cells, AdjMatrix, CellSpec, Op};

const THREADS: usize = 4;

/// Every raw (edge mask, ops) pair of 2 to 5 vertices, valid or not.
fn raw_pairs() -> Vec<(AdjMatrix, Vec<Op>)> {
    let mut pairs = Vec::new();
    for n in 2..=5 {
        let slots: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        for mask in 0u32..1 << slots.len() {
            let edges: Vec<(usize, usize)> = (0..slots.len())
                .filter(|&bit| mask >> bit & 1 == 1)
                .map(|bit| slots[bit])
                .collect();
            let matrix = AdjMatrix::from_edges(n, &edges).expect("upper-triangular edges");
            for combo in 0..3usize.pow(n as u32 - 2) {
                let ops = (0..n - 2)
                    .map(|i| Op::ALL[combo / 3usize.pow(i as u32) % 3])
                    .collect();
                pairs.push((matrix.clone(), ops));
            }
        }
    }
    pairs
}

fn assert_reference(spec: &CellSpec) {
    assert_eq!(
        spec.canonical_hash(),
        canonical_hash(spec.matrix(), spec.ops()),
        "{spec:?}"
    );
}

#[test]
fn memo_returns_the_reference_hash_under_races_and_past_its_cap() {
    let pairs = Arc::new(raw_pairs());
    assert_eq!(pairs.len(), 2 + 8 * 3 + 64 * 9 + 1024 * 27);
    // Race: every thread builds every pair, each from its own offset, so
    // the threads miss, claim and hit the same cells at different times.
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (pairs, barrier) = (Arc::clone(&pairs), Arc::clone(&barrier));
            thread::spawn(move || {
                barrier.wait();
                let offset = t * pairs.len() / THREADS;
                let mut valid = 0;
                for i in 0..pairs.len() {
                    let (matrix, ops) = &pairs[(offset + i) % pairs.len()];
                    if let Ok(spec) = CellSpec::new(matrix.clone(), ops.clone()) {
                        assert_reference(&spec);
                        valid += 1;
                    }
                }
                valid
            })
        })
        .collect();
    let valid: Vec<usize> = workers
        .into_iter()
        .map(|worker| worker.join().expect("worker panicked"))
        .collect();
    assert!(valid.iter().all(|&count| count == valid[0] && count > 0));

    // Cap: the 62,010 cells of the 6-vertex space, and the many more raw
    // cells enumerating them builds, overflow the memo. A strided sample,
    // rebuilt as hits or misses, still hashes as the reference does.
    let six = enumerate_cells(6);
    assert_eq!(six.len(), 62_010);
    for spec in six.iter().step_by(31) {
        assert_reference(spec);
        let rebuilt = CellSpec::new(spec.matrix().clone(), spec.ops().to_vec());
        assert_eq!(rebuilt.as_ref(), Ok(spec));
    }
    for (matrix, ops) in pairs.iter().step_by(7) {
        if let Ok(spec) = CellSpec::new(matrix.clone(), ops.clone()) {
            assert_reference(&spec);
        }
    }
}
