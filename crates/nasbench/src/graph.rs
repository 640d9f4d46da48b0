//! Upper-triangular adjacency matrices for cell DAGs.
//!
//! Cells in the NASBench-101 space are DAGs whose vertices are numbered in
//! topological order: vertex 0 is the cell input, the last vertex is the cell
//! output, and every edge points from a lower to a higher index. This module
//! provides the matrix representation plus the reachability and pruning
//! primitives the validation logic (see [`crate::CellSpec`]) is built on.
//! Every primitive works on fixed-size arrays and bit masks: decoding,
//! validating and pruning a cell never touches the heap.

use std::fmt;

use crate::SpecError;

/// Maximum number of vertices per cell (input + output + 5 interior).
pub const MAX_VERTICES: usize = 7;

/// A strictly upper-triangular boolean adjacency matrix.
///
/// The edges live in one `u64`: edge `src -> dst` is bit
/// `src * MAX_VERTICES + dst`, so a matrix is two words, copying it is a
/// `memcpy` and row `v` (the out-neighbours of `v`) is one shift.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::AdjMatrix;
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// // input -> v1 -> output, plus a skip connection input -> output
/// let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2), (0, 2)])?;
/// assert_eq!(m.num_vertices(), 3);
/// assert_eq!(m.num_edges(), 3);
/// assert!(m.has_edge(0, 2));
/// assert_eq!(m.out_neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdjMatrix {
    vertices: usize,
    /// Bit `src * MAX_VERTICES + dst` is the edge `src -> dst`; only
    /// `src < dst < vertices` bits may be set.
    edges: u64,
}

impl AdjMatrix {
    /// Creates an empty (edge-free) matrix with `vertices` vertices.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::TooManyVertices`] above [`MAX_VERTICES`] and
    /// [`SpecError::TooFewVertices`] below 2.
    pub fn empty(vertices: usize) -> Result<Self, SpecError> {
        if vertices > MAX_VERTICES {
            return Err(SpecError::TooManyVertices {
                got: vertices,
                max: MAX_VERTICES,
            });
        }
        if vertices < 2 {
            return Err(SpecError::TooFewVertices { got: vertices });
        }
        Ok(Self { vertices, edges: 0 })
    }

    /// Creates a matrix from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates [`AdjMatrix::empty`] errors and returns
    /// [`SpecError::NotUpperTriangular`] / [`SpecError::EdgeOutOfBounds`] for
    /// malformed edges.
    pub fn from_edges(vertices: usize, edges: &[(usize, usize)]) -> Result<Self, SpecError> {
        let mut m = Self::empty(vertices)?;
        for &(src, dst) in edges {
            m.add_edge(src, dst)?;
        }
        Ok(m)
    }

    /// Creates a matrix from row-major `0/1` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NotUpperTriangular`] if any entry on or below the
    /// diagonal is set, and size errors as in [`AdjMatrix::empty`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not square.
    pub fn from_rows(rows: &[&[u8]]) -> Result<Self, SpecError> {
        let vertices = rows.len();
        let mut m = Self::empty(vertices)?;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), vertices, "adjacency matrix must be square");
            for (j, &bit) in row.iter().enumerate() {
                if bit != 0 {
                    m.add_edge(i, j)?;
                }
            }
        }
        Ok(m)
    }

    /// Adds the edge `src -> dst`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NotUpperTriangular`] when `src >= dst` and
    /// [`SpecError::EdgeOutOfBounds`] when either endpoint is out of range.
    pub fn add_edge(&mut self, src: usize, dst: usize) -> Result<(), SpecError> {
        if src >= self.vertices || dst >= self.vertices {
            return Err(SpecError::EdgeOutOfBounds {
                src,
                dst,
                vertices: self.vertices,
            });
        }
        if src >= dst {
            return Err(SpecError::NotUpperTriangular { src, dst });
        }
        self.edges |= 1 << (src * MAX_VERTICES + dst);
        Ok(())
    }

    /// Number of vertices (including input and output).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.vertices
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.count_ones() as usize
    }

    /// The edge mask: bit `src * MAX_VERTICES + dst` is the edge
    /// `src -> dst`, so only the low `MAX_VERTICES * MAX_VERTICES` bits are
    /// ever set.
    pub(crate) fn edge_bits(&self) -> u64 {
        self.edges
    }

    /// Returns `true` when the edge `src -> dst` exists.
    #[must_use]
    pub fn has_edge(&self, src: usize, dst: usize) -> bool {
        src < self.vertices
            && dst < self.vertices
            && (self.edges >> (src * MAX_VERTICES + dst)) & 1 == 1
    }

    /// Out-neighbours of `v` as a vertex mask (bit `w` is the edge `v -> w`).
    fn out_mask(&self, v: usize) -> u8 {
        (self.edges >> (v * MAX_VERTICES)) as u8 & ((1 << MAX_VERTICES) - 1)
    }

    /// In-neighbours of `v` as a vertex mask (bit `u` is the edge `u -> v`).
    fn in_mask(&self, v: usize) -> u8 {
        (0..v).fold(0, |mask, u| {
            mask | ((((self.edges >> (u * MAX_VERTICES + v)) & 1) as u8) << u)
        })
    }

    /// Indices of vertices with an edge into `v`, ascending.
    pub fn in_neighbors(&self, v: usize) -> impl Iterator<Item = usize> {
        VertexBits(self.in_mask(v))
    }

    /// Indices of vertices with an edge out of `v`, ascending.
    pub fn out_neighbors(&self, v: usize) -> impl Iterator<Item = usize> {
        VertexBits(self.out_mask(v))
    }

    /// In-degree of `v`.
    #[must_use]
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_mask(v).count_ones() as usize
    }

    /// Out-degree of `v`.
    #[must_use]
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_mask(v).count_ones() as usize
    }

    /// Vertices reachable from vertex 0 (the input), as a membership mask.
    /// Entries past [`AdjMatrix::num_vertices`] are `false`.
    #[must_use]
    pub fn reachable_from_input(&self) -> [bool; MAX_VERTICES] {
        let mut seen = [false; MAX_VERTICES];
        seen[0] = true;
        // Topological order == index order, so one forward pass suffices.
        for v in 0..self.vertices {
            if seen[v] {
                for w in self.out_neighbors(v) {
                    seen[w] = true;
                }
            }
        }
        seen
    }

    /// Vertices that can reach the output vertex, as a membership mask.
    /// Entries past [`AdjMatrix::num_vertices`] are `false`.
    #[must_use]
    pub fn reaching_output(&self) -> [bool; MAX_VERTICES] {
        let last = self.vertices - 1;
        let mut seen = [false; MAX_VERTICES];
        seen[last] = true;
        for v in (0..self.vertices).rev() {
            if seen[v] {
                for u in self.in_neighbors(v) {
                    seen[u] = true;
                }
            }
        }
        seen
    }

    /// Removes vertices that are not on any input→output path, compacting
    /// indices while preserving relative order. Returns the pruned matrix and
    /// the kept original indices, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Disconnected`] when the input cannot reach the
    /// output at all.
    pub fn prune(&self) -> Result<(AdjMatrix, IndexList<MAX_VERTICES>), SpecError> {
        let fwd = self.reachable_from_input();
        // Input and output survive exactly when the input reaches the output.
        if !fwd[self.vertices - 1] {
            return Err(SpecError::Disconnected);
        }
        let bwd = self.reaching_output();
        let keep: IndexList<MAX_VERTICES> =
            (0..self.vertices).filter(|&v| fwd[v] && bwd[v]).collect();
        if keep.len() == self.vertices {
            return Ok((self.clone(), keep));
        }
        let mut pruned = AdjMatrix::empty(keep.len())?;
        for (new_src, old_src) in keep.iter().enumerate() {
            for (new_dst, old_dst) in keep.iter().enumerate() {
                if self.has_edge(old_src, old_dst) {
                    pruned.add_edge(new_src, new_dst)?;
                }
            }
        }
        Ok((pruned, keep))
    }

    /// Length (in edges) of the longest input→output path.
    ///
    /// Returns 0 when the output is unreachable.
    #[must_use]
    pub fn longest_path(&self) -> usize {
        let mut dist = [usize::MAX; MAX_VERTICES];
        dist[0] = 0;
        for v in 0..self.vertices {
            if dist[v] == usize::MAX {
                continue;
            }
            for w in self.out_neighbors(v) {
                let cand = dist[v] + 1;
                if dist[w] == usize::MAX || cand > dist[w] {
                    dist[w] = cand;
                }
            }
        }
        match dist[self.vertices - 1] {
            usize::MAX => 0,
            d => d,
        }
    }

    /// Maximum number of vertices that share the same longest-path depth —
    /// a cheap proxy for how parallel (wide) the cell is.
    #[must_use]
    pub fn max_width(&self) -> usize {
        let mut depth = [0usize; MAX_VERTICES];
        for v in 0..self.vertices {
            for w in self.out_neighbors(v) {
                depth[w] = depth[w].max(depth[v] + 1);
            }
        }
        // Depths are below the vertex count; only interior vertices count.
        let mut counts = [0usize; MAX_VERTICES];
        for &d in &depth[1..self.vertices - 1] {
            counts[d] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Row-major `0/1` rendering, useful for debugging and persistence.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<u8>> {
        (0..self.vertices)
            .map(|i| {
                (0..self.vertices)
                    .map(|j| u8::from(self.has_edge(i, j)))
                    .collect()
            })
            .collect()
    }
}

/// Ascending indices of the set bits of a vertex mask.
struct VertexBits(u8);

impl Iterator for VertexBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let v = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(v)
    }
}

/// Up to `N` small indices (each below 256) stored inline, in push order.
///
/// The cell pipeline's index lists are bounded by the cell size — the
/// vertices [`AdjMatrix::prune`] keeps, a lowered node's dependencies — so
/// they live on the stack instead of in a `Vec`.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::IndexList;
///
/// let list: IndexList<4> = [3, 1].into_iter().collect();
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.iter().collect::<Vec<_>>(), vec![3, 1]);
/// assert_eq!(format!("{list:?}"), "[3, 1]");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IndexList<const N: usize> {
    len: u8,
    /// `items[..len]` are the indices; the rest stay 0, so the derived
    /// comparisons see only the indices.
    items: [u8; N],
}

impl<const N: usize> IndexList<N> {
    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            len: 0,
            items: [0; N],
        }
    }

    /// Appends `index`.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds `N` indices or `index` is 256 or
    /// more.
    pub fn push(&mut self, index: usize) {
        let len = usize::from(self.len);
        assert!(len < N, "index list is full ({N} entries)");
        self.items[len] = u8::try_from(index).expect("index list entries are below 256");
        self.len += 1;
    }

    /// Number of indices.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` when the list holds no index.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first index, if any.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The indices, in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.items[..self.len()].iter().map(|&i| usize::from(i))
    }
}

impl<const N: usize> Default for IndexList<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> fmt::Debug for IndexList<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<const N: usize> FromIterator<usize> for IndexList<N> {
    /// Collects indices in order.
    ///
    /// # Panics
    ///
    /// Panics as [`IndexList::push`] does.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut list = Self::new();
        for index in iter {
            list.push(index);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> AdjMatrix {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        AdjMatrix::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_matrix_bounds() {
        assert!(AdjMatrix::empty(1).is_err());
        assert!(AdjMatrix::empty(2).is_ok());
        assert!(AdjMatrix::empty(7).is_ok());
        assert!(AdjMatrix::empty(8).is_err());
    }

    #[test]
    fn rejects_lower_triangular_edges() {
        let mut m = AdjMatrix::empty(3).unwrap();
        assert_eq!(
            m.add_edge(2, 1),
            Err(SpecError::NotUpperTriangular { src: 2, dst: 1 })
        );
        assert_eq!(
            m.add_edge(1, 1),
            Err(SpecError::NotUpperTriangular { src: 1, dst: 1 })
        );
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        let mut m = AdjMatrix::empty(3).unwrap();
        assert!(matches!(
            m.add_edge(0, 5),
            Err(SpecError::EdgeOutOfBounds { .. })
        ));
    }

    #[test]
    fn neighbors_and_degrees() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(m.out_neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(m.in_neighbors(3).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(m.in_degree(3), 2);
        assert_eq!(m.out_degree(0), 2);
    }

    #[test]
    fn reachability_masks() {
        // Vertex 2 dangles: reachable from input but cannot reach output.
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
        assert_eq!(m.reachable_from_input()[..4], [true, true, true, true]);
        assert_eq!(m.reaching_output()[..4], [true, true, false, true]);
    }

    #[test]
    fn prune_removes_dangling_vertices() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
        let (pruned, kept) = m.prune().unwrap();
        assert_eq!(kept.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(pruned.num_vertices(), 3);
        assert_eq!(pruned.num_edges(), 2);
        assert!(pruned.has_edge(0, 1) && pruned.has_edge(1, 2));
    }

    #[test]
    fn prune_detects_disconnection() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(m.prune().unwrap_err(), SpecError::Disconnected);
    }

    #[test]
    fn prune_keeps_fully_connected_graph_intact() {
        let m = chain(5);
        let (pruned, kept) = m.prune().unwrap();
        assert_eq!(kept.len(), 5);
        assert_eq!(pruned, m);
    }

    #[test]
    fn longest_path_on_diamond() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)]).unwrap();
        assert_eq!(m.longest_path(), 2);
        assert_eq!(chain(6).longest_path(), 5);
    }

    #[test]
    fn longest_path_zero_when_disconnected() {
        let m = AdjMatrix::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(m.longest_path(), 0);
    }

    #[test]
    fn width_of_parallel_branches() {
        // input feeds three parallel interior vertices joined at output.
        let m =
            AdjMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        assert_eq!(m.max_width(), 3);
        assert_eq!(chain(4).max_width(), 1);
    }

    #[test]
    fn rows_roundtrip() {
        let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let rows = m.to_rows();
        let rows_ref: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let back = AdjMatrix::from_rows(&rows_ref).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn from_rows_rejects_diagonal() {
        let err = AdjMatrix::from_rows(&[&[1, 0], &[0, 0]]).unwrap_err();
        assert!(matches!(err, SpecError::NotUpperTriangular { .. }));
    }
}
