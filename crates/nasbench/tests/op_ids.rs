//! Interning ops from several threads at once: every thread gets the same
//! id for each op, distinct ops get distinct ids, and the ids are dense.
//!
//! This lives in its own integration-test binary, so the interner starts
//! empty and the threads race for the first insert of every op.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::thread;

use codesign_nasbench::{OpId, OpInstance, OpKind};

const THREADS: usize = 4;

/// 576 distinct ops of every kind lowering emits.
fn catalog() -> Vec<OpInstance> {
    let mut ops = Vec::new();
    for channels in (16..=512).step_by(16) {
        for size in [8, 16, 32] {
            ops.push(OpInstance::conv(3, channels, channels, size, size));
            ops.push(OpInstance::conv(1, channels / 2, channels, size, size));
            ops.push(OpInstance::maxpool3x3(channels, size, size));
            for kind in [OpKind::Add { arity: 2 }, OpKind::Concat { arity: 3 }] {
                ops.push(OpInstance {
                    kind,
                    in_channels: channels,
                    out_channels: channels,
                    height: size,
                    width: size,
                });
            }
        }
        ops.push(OpInstance::downsample(channels, 32, 32));
        ops.push(OpInstance {
            kind: OpKind::Dense,
            in_channels: channels,
            out_channels: 10,
            height: 1,
            width: 1,
        });
        ops.push(OpInstance {
            kind: OpKind::GlobalAvgPool,
            in_channels: channels,
            out_channels: channels,
            height: 8,
            width: 8,
        });
    }
    ops
}

#[test]
fn threads_interning_in_different_orders_agree() {
    let ops = catalog();
    assert_eq!(ops.iter().collect::<HashSet<_>>().len(), 576);
    let barrier = Barrier::new(THREADS);
    let interned: Vec<Vec<(OpInstance, OpId)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (ops, barrier) = (&ops, &barrier);
                scope.spawn(move || {
                    // Each thread starts at another quarter; odd ones walk
                    // backwards.
                    let mut order = ops.clone();
                    order.rotate_left(t * ops.len() / THREADS);
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    barrier.wait();
                    order.into_iter().map(|op| (op, OpId::of(&op))).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("interning thread panicked"))
            .collect()
    });
    let ids: HashMap<OpInstance, OpId> = interned[0].iter().copied().collect();
    for pairs in &interned[1..] {
        for (op, id) in pairs {
            assert_eq!(ids[op], *id, "threads disagree on {op:?}");
        }
    }
    let distinct: HashSet<usize> = ids.values().map(|id| id.index()).collect();
    assert_eq!(distinct.len(), ops.len(), "distinct ops share an id");
    assert!(
        distinct.iter().all(|&index| index < ops.len()),
        "ids are dense"
    );
}
