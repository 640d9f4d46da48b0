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
