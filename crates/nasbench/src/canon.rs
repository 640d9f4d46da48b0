//! Isomorphism-invariant graph fingerprints.
//!
//! NASBench-101 deduplicates its ~510M raw graphs down to ~423k unique models
//! with an iterative neighborhood-hashing scheme (`graph_util.hash_module`):
//! every vertex starts from a hash of `(in-degree, out-degree, label)` and is
//! repeatedly re-hashed with the sorted hashes of its in- and out-neighbors;
//! the fingerprint is the hash of the sorted final vertex hashes. We implement
//! the same scheme with a 128-bit FNV-style mixer instead of MD5 — collisions
//! are astronomically unlikely at the scale of this search space, and the
//! property tests in this module verify invariance under vertex relabeling.
//!
//! [`canonical_hash`] is the reference. [`CellSpec::new`](crate::CellSpec::new)
//! reads it through one process-wide table from a pruned cell, packed into a
//! 62-bit key, to its hash: a search decodes hundreds of thousands of
//! genomes into a few thousand distinct cells, and the byte-wise hash costs
//! far more than a lookup. The table is filled only from
//! [`canonical_hash`]. What it holds depends on which thread got there
//! first; what it returns never does.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::graph::{AdjMatrix, MAX_VERTICES};
use crate::Op;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Feeds `bytes` into a 128-bit FNV-1a state.
fn fnv128(mut state: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        state ^= u128::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Feeds each word's little-endian bytes, in order, into an FNV-1a state:
/// the hash of the words' concatenated bytes, without building them.
fn fnv128_words(state: u128, words: &[u128]) -> u128 {
    words
        .iter()
        .fold(state, |state, word| fnv128(state, &word.to_le_bytes()))
}

/// Feeds the hashes of `vertices`, sorted, into an FNV-1a state.
fn fnv128_sorted(
    state: u128,
    vertices: impl Iterator<Item = usize>,
    hashes: &[u128; MAX_VERTICES],
) -> u128 {
    let mut sorted = [0u128; MAX_VERTICES];
    let mut len = 0;
    for v in vertices {
        sorted[len] = hashes[v];
        len += 1;
    }
    sorted[..len].sort_unstable();
    fnv128_words(state, &sorted[..len])
}

/// Computes the isomorphism-invariant fingerprint of a pruned cell.
///
/// `ops[i]` labels interior vertex `i + 1`; the input and output vertices use
/// reserved labels so they can never be confused with interior operations.
///
/// Two graphs that differ only by a topological-order-preserving relabeling
/// of interior vertices receive the same fingerprint; graphs with different
/// structure or labels receive different fingerprints with overwhelming
/// probability.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{AdjMatrix, Op};
/// use codesign_nasbench::canon::canonical_hash;
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// let a = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// // Swap the two parallel branches: isomorphic graph, same hash.
/// let h1 = canonical_hash(&a, &[Op::Conv3x3, Op::Conv1x1]);
/// let h2 = canonical_hash(&a, &[Op::Conv1x1, Op::Conv3x3]);
/// assert_eq!(h1, h2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn canonical_hash(matrix: &AdjMatrix, ops: &[Op]) -> u128 {
    let n = matrix.num_vertices();
    // Reserved labels: input = 250, output = 251, interior = op label.
    let label = |v: usize| -> u8 {
        if v == 0 {
            250
        } else if v == n - 1 {
            251
        } else {
            ops[v - 1].label()
        }
    };
    let mut hashes = [0u128; MAX_VERTICES];
    for (v, hash) in hashes[..n].iter_mut().enumerate() {
        let seed = [
            matrix.in_degree(v) as u8,
            matrix.out_degree(v) as u8,
            label(v),
        ];
        *hash = fnv128(FNV_OFFSET, &seed);
    }
    // Each round re-hashes every vertex from its sorted in-neighbour hashes,
    // a separator, its sorted out-neighbour hashes, a second separator and
    // its own hash.
    let mut next = [0u128; MAX_VERTICES];
    for _round in 0..n {
        for (v, next) in next[..n].iter_mut().enumerate() {
            let state = fnv128_sorted(FNV_OFFSET, matrix.in_neighbors(v), &hashes);
            let state = fnv128_words(state, &[u128::MAX]);
            let state = fnv128_sorted(state, matrix.out_neighbors(v), &hashes);
            *next = fnv128_words(state, &[u128::MAX - 1, hashes[v]]);
        }
        hashes = next;
    }
    hashes[..n].sort_unstable();
    fnv128_words(FNV_OFFSET, &hashes[..n])
}

/// Where a memo key keeps the vertex count: above the edge mask.
const KEY_VERTICES: u32 = (MAX_VERTICES * MAX_VERTICES) as u32;
/// Where a memo key keeps interior vertex `i + 1`'s op label: 2 bits at
/// `KEY_OPS + 2 * i`.
const KEY_OPS: u32 = KEY_VERTICES + 3;

// The vertex count takes 3 bits and each op label 2, so a key fits in 62
// bits and bit 63 is free for `CLAIMED`.
const _: () = assert!(MAX_VERTICES < 8 && Op::COUNT <= 4);
const _: () = assert!(KEY_OPS as usize + 2 * (MAX_VERTICES - 2) <= 62);
// The slots take 192 KiB.
const _: () = assert!(std::mem::size_of::<[MemoSlot; MEMO_SLOTS]>() == 192 * 1024);

/// log2 of the memo's slot count.
const MEMO_BITS: u32 = 13;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;
/// The memo inserts while at most this many slots are filled, so every
/// probe meets an empty slot after a short run: once the table stops
/// growing, a miss costs the reference hash and a few loads.
const MEMO_CAP: usize = MEMO_SLOTS / 2;
/// A slot's key while its writer stores the hash.
const CLAIMED: u64 = 1 << 63;

/// One memo entry. A slot is written once: its key goes from 0 to
/// `CLAIMED`, by the one thread that claims it, and then to the cell's key,
/// published after both hash halves.
struct MemoSlot {
    key: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
}

impl MemoSlot {
    const fn empty() -> Self {
        Self {
            key: AtomicU64::new(0),
            lo: AtomicU64::new(0),
            hi: AtomicU64::new(0),
        }
    }
}

/// The memo: slots probed linearly from a multiply-shift hash of the key.
/// Every field starts at zero, so the table takes memory only for the
/// slots in use.
static MEMO: [MemoSlot; MEMO_SLOTS] = [const { MemoSlot::empty() }; MEMO_SLOTS];

/// Slots reserved so far: a miss reserves one before it claims a slot, and
/// once `MEMO_CAP` are reserved no miss inserts. It publishes no data, so
/// it is `Relaxed`.
static MEMO_FILLED: AtomicUsize = AtomicUsize::new(0);

/// A pruned cell as one word: the edge mask, the vertex count, then 2 bits
/// per interior op label. Distinct cells get distinct keys, and no key is 0
/// because a cell has at least 2 vertices.
fn memo_key(matrix: &AdjMatrix, ops: &[Op]) -> u64 {
    let n = matrix.num_vertices();
    debug_assert_eq!(ops.len(), n - 2);
    ops.iter().enumerate().fold(
        matrix.edge_bits() | (n as u64) << KEY_VERTICES,
        |key, (i, op)| key | u64::from(op.label()) << (KEY_OPS as usize + 2 * i),
    )
}

/// The memo's first probe slot for `key`: the top [`MEMO_BITS`] bits of
/// `key` times a 64-bit odd constant.
fn memo_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - MEMO_BITS)) as usize
}

/// [`canonical_hash`] of a pruned cell, read from the memo when a thread
/// has hashed the same cell before.
pub(crate) fn memoized_hash(matrix: &AdjMatrix, ops: &[Op]) -> u128 {
    let key = memo_key(matrix, ops);
    let mut slot = memo_slot(key);
    // At most `MEMO_CAP` slots are ever claimed, so the probe meets an empty
    // one. A claimed slot or another key's slot is passed over.
    loop {
        let entry = &MEMO[slot];
        // Pairs with the `Release` store of the key below: a reader that
        // sees the key sees both halves of its hash.
        let found = entry.key.load(Ordering::Acquire);
        if found == key {
            let (lo, hi) = (
                entry.lo.load(Ordering::Relaxed),
                entry.hi.load(Ordering::Relaxed),
            );
            return u128::from(hi) << 64 | u128::from(lo);
        }
        if found == 0 {
            break;
        }
        slot = (slot + 1) % MEMO_SLOTS;
    }
    let hash = canonical_hash(matrix, ops);
    if MEMO_FILLED.load(Ordering::Relaxed) < MEMO_CAP
        && MEMO_FILLED.fetch_add(1, Ordering::Relaxed) < MEMO_CAP
    {
        // Claim the first empty slot from where the probe stopped. Another
        // thread may have claimed it meanwhile, perhaps for this very key:
        // two slots holding one key are harmless.
        loop {
            let entry = &MEMO[slot];
            if entry
                .key
                .compare_exchange(0, CLAIMED, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                entry.lo.store(hash as u64, Ordering::Relaxed);
                entry.hi.store((hash >> 64) as u64, Ordering::Relaxed);
                entry.key.store(key, Ordering::Release);
                break;
            }
            slot = (slot + 1) % MEMO_SLOTS;
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_edges(n: usize, edges: &[(usize, usize)], ops: &[Op]) -> u128 {
        let m = AdjMatrix::from_edges(n, edges).unwrap();
        canonical_hash(&m, ops)
    }

    #[test]
    fn different_structure_different_hash() {
        let chain = hash_edges(4, &[(0, 1), (1, 2), (2, 3)], &[Op::Conv3x3, Op::Conv3x3]);
        let skip = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
            &[Op::Conv3x3, Op::Conv3x3],
        );
        assert_ne!(chain, skip);
    }

    #[test]
    fn different_ops_different_hash() {
        let a = hash_edges(3, &[(0, 1), (1, 2)], &[Op::Conv3x3]);
        let b = hash_edges(3, &[(0, 1), (1, 2)], &[Op::Conv1x1]);
        let c = hash_edges(3, &[(0, 1), (1, 2)], &[Op::MaxPool3x3]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_branch_swap_is_isomorphic() {
        // Diamond with two parallel interior vertices of different ops.
        let h1 = hash_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[Op::Conv3x3, Op::MaxPool3x3],
        );
        let h2 = hash_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[Op::MaxPool3x3, Op::Conv3x3],
        );
        assert_eq!(h1, h2);
    }

    #[test]
    fn non_isomorphic_labelings_of_asymmetric_graph_differ() {
        // v1 feeds v2: which vertex holds which op matters.
        let h1 = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 2)],
            &[Op::Conv3x3, Op::Conv1x1],
        );
        let h2 = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 2)],
            &[Op::Conv1x1, Op::Conv3x3],
        );
        assert_ne!(h1, h2);
    }

    #[test]
    fn input_output_labels_are_distinct_from_ops() {
        // A 2-vertex identity cell must not collide with any 3-vertex cell.
        let id = hash_edges(2, &[(0, 1)], &[]);
        for op in Op::ALL {
            let three = hash_edges(3, &[(0, 1), (1, 2)], &[op]);
            assert_ne!(id, three);
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let h1 = hash_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
        );
        let h2 = hash_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
        );
        assert_eq!(h1, h2);
    }

    #[test]
    fn cells_differing_in_one_edge_op_or_vertex_count_get_distinct_keys() {
        assert!(Op::ALL.iter().all(|op| op.label() < 4));
        let key = |n: usize, edges: &[(usize, usize)], ops: &[Op]| {
            memo_key(&AdjMatrix::from_edges(n, edges).unwrap(), ops)
        };
        // A 7-vertex chain of max-pools sets the key's highest bits.
        let chain: Vec<(usize, usize)> = (0..6).map(|v| (v, v + 1)).collect();
        let ops = [Op::MaxPool3x3; 5];
        let base = key(7, &chain, &ops);
        assert!(base != 0 && base & CLAIMED == 0);
        let skip = [&chain[..], &[(0, 6)]].concat();
        assert_ne!(base, key(7, &skip, &ops));
        for i in 0..ops.len() {
            let mut relabelled = ops;
            relabelled[i] = Op::Conv1x1;
            assert_ne!(base, key(7, &chain, &relabelled));
        }
        // Same edge bits and op labels (the extra op has label 0): only the
        // vertex count tells them apart.
        let pools = [Op::MaxPool3x3; 4];
        let padded = [pools[0], pools[1], pools[2], pools[3], Op::Conv3x3];
        assert_ne!(key(6, &chain[..5], &pools), key(7, &chain[..5], &padded));
    }

    #[test]
    fn three_parallel_branches_permutation_invariance() {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)];
        let perms: [[Op; 3]; 3] = [
            [Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
            [Op::MaxPool3x3, Op::Conv3x3, Op::Conv1x1],
            [Op::Conv1x1, Op::MaxPool3x3, Op::Conv3x3],
        ];
        let hashes: Vec<u128> = perms.iter().map(|p| hash_edges(5, &edges, p)).collect();
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[1], hashes[2]);
    }
}
