//! Channel inference and cell-to-program lowering.
//!
//! NASBench-101 turns a cell DAG into a concrete sub-network with fixed
//! tensor shapes: interior vertices combine their inputs by element-wise
//! addition, edges leaving the cell input pass through 1×1 projections, the
//! cell output concatenates the interior vertices feeding it, and a direct
//! input→output edge is projected and added to the concatenation. This module
//! reproduces that lowering (`compute_vertex_channels` + `build_module` in
//! the reference implementation) so the accelerator latency model sees the
//! exact multiset of convolutions the paper's lookup table contains.
//! Lowering keeps its temporaries on the stack: a program is one `Vec` of
//! nodes whose dependency lists are inline. Each node carries the dense
//! [`OpId`] of its op, interned as the node is built.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;

use crate::graph::{AdjMatrix, IndexList, MAX_VERTICES};
use crate::{CellSpec, Op};

/// A concrete tensor operation with fully resolved shape — one row of the
/// paper's latency lookup table ("85 unique variations of convolutions,
/// pooling and element-wise operations").
///
/// # Examples
///
/// ```
/// use codesign_nasbench::cell::{OpInstance, OpKind};
///
/// let conv = OpInstance::conv(3, 128, 128, 32, 32);
/// assert_eq!(conv.kind, OpKind::Conv { kernel: 3, stride: 1 });
/// assert_eq!(conv.macs(), 9 * 128 * 128 * 32 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpInstance {
    /// What the operation computes.
    pub kind: OpKind,
    /// Channels of the (combined) input tensor.
    pub in_channels: usize,
    /// Channels of the output tensor.
    pub out_channels: usize,
    /// Input height in pixels.
    pub height: usize,
    /// Input width in pixels.
    pub width: usize,
}

/// The operation family of an [`OpInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `kernel × kernel` convolution (with batch-norm + ReLU folded in).
    Conv {
        /// Kernel size (1 or 3 in this space).
        kernel: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Max pooling window.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Global average pooling down to 1×1.
    GlobalAvgPool,
    /// Fully-connected classifier layer.
    Dense,
    /// Element-wise addition of `arity` tensors.
    Add {
        /// Number of summed tensors.
        arity: usize,
    },
    /// Channel-wise concatenation of `arity` tensors.
    Concat {
        /// Number of concatenated tensors.
        arity: usize,
    },
}

impl OpInstance {
    /// A stride-1 same-padding convolution.
    #[must_use]
    pub fn conv(kernel: usize, in_c: usize, out_c: usize, h: usize, w: usize) -> Self {
        Self {
            kind: OpKind::Conv { kernel, stride: 1 },
            in_channels: in_c,
            out_channels: out_c,
            height: h,
            width: w,
        }
    }

    /// The 3×3 stride-1 max-pool used inside cells.
    #[must_use]
    pub fn maxpool3x3(channels: usize, h: usize, w: usize) -> Self {
        Self {
            kind: OpKind::MaxPool {
                kernel: 3,
                stride: 1,
            },
            in_channels: channels,
            out_channels: channels,
            height: h,
            width: w,
        }
    }

    /// The 2×2 stride-2 max-pool between stacks (Fig. 2 "Downsample").
    #[must_use]
    pub fn downsample(channels: usize, h: usize, w: usize) -> Self {
        Self {
            kind: OpKind::MaxPool {
                kernel: 2,
                stride: 2,
            },
            in_channels: channels,
            out_channels: channels,
            height: h,
            width: w,
        }
    }

    /// Output spatial size after applying this op.
    #[must_use]
    pub fn out_hw(&self) -> (usize, usize) {
        match self.kind {
            OpKind::Conv { stride, .. } | OpKind::MaxPool { stride, .. } => {
                (self.height.div_ceil(stride), self.width.div_ceil(stride))
            }
            OpKind::GlobalAvgPool | OpKind::Dense => (1, 1),
            OpKind::Add { .. } | OpKind::Concat { .. } => (self.height, self.width),
        }
    }

    /// Multiply-accumulate count (the FLOP proxy used by the surrogate and
    /// the compute half of the latency model).
    #[must_use]
    pub fn macs(&self) -> u64 {
        let (oh, ow) = self.out_hw();
        let (oh, ow) = (oh as u64, ow as u64);
        let ic = self.in_channels as u64;
        let oc = self.out_channels as u64;
        match self.kind {
            OpKind::Conv { kernel, .. } => (kernel * kernel) as u64 * ic * oc * oh * ow,
            OpKind::MaxPool { kernel, .. } => (kernel * kernel) as u64 * ic * oh * ow,
            OpKind::GlobalAvgPool => ic * self.height as u64 * self.width as u64,
            OpKind::Dense => ic * oc,
            OpKind::Add { arity } => arity as u64 * ic * oh * ow,
            OpKind::Concat { .. } => 0,
        }
    }

    /// Learnable parameter count.
    #[must_use]
    pub fn params(&self) -> u64 {
        let ic = self.in_channels as u64;
        let oc = self.out_channels as u64;
        match self.kind {
            OpKind::Conv { kernel, .. } => (kernel * kernel) as u64 * ic * oc + 2 * oc,
            OpKind::Dense => ic * oc + oc,
            _ => 0,
        }
    }
}

/// The process-wide dense id of an [`OpInstance`]: equal ops get equal
/// ids, so a table indexed by id holds one row per distinct op.
///
/// Lowering interns every op it emits. Ids count up from 0 in the order
/// ops are first interned, so their values differ between processes and
/// thread interleavings: nothing that reaches an output may depend on
/// them.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::cell::{OpId, OpInstance};
///
/// let conv = OpInstance::conv(3, 128, 128, 32, 32);
/// assert_eq!(OpId::of(&conv), OpId::of(&conv));
/// assert_ne!(OpId::of(&conv), OpId::of(&OpInstance::conv(1, 128, 128, 32, 32)));
/// assert!(OpId::of(&conv).index() < OpId::CAPACITY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(u16);

/// log2 of [`OpId::CAPACITY`].
const OP_SLOT_BITS: u32 = 10;

/// The interner: slots probed linearly from a multiply-shift hash of the
/// op's fields. A slot is written once, by the first thread to claim it,
/// with its op and the next id; a read of a filled slot takes no lock.
static OP_SLOTS: [OnceLock<(OpInstance, OpId)>; OpId::CAPACITY] =
    [const { OnceLock::new() }; OpId::CAPACITY];

/// The id the next newly interned op gets.
static NEXT_OP_ID: AtomicU16 = AtomicU16::new(0);

impl OpId {
    /// How many distinct ops one process can intern. The networks of the
    /// ≤7-vertex space use 112 on the CIFAR-10 and CIFAR-100 skeletons
    /// together.
    pub const CAPACITY: usize = 1 << OP_SLOT_BITS;

    /// Interns `op` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when `op` is new and [`OpId::CAPACITY`] distinct ops are
    /// already interned.
    #[must_use]
    pub fn of(op: &OpInstance) -> Self {
        let mut slot = op_slot_hash(op);
        for _ in 0..Self::CAPACITY {
            let (interned, id) = OP_SLOTS[slot]
                .get_or_init(|| (*op, OpId(NEXT_OP_ID.fetch_add(1, Ordering::Relaxed))));
            if interned == op {
                return *id;
            }
            slot = (slot + 1) % Self::CAPACITY;
        }
        panic!("the op interner is full: {} distinct ops", Self::CAPACITY);
    }

    /// The id as a dense index, `0..OpId::CAPACITY`.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// The interner's first probe slot for `op`: its fields packed into one
/// word (wrapping, so large values only collide), multiplied by a 64-bit
/// odd constant, then the top [`OP_SLOT_BITS`] bits.
fn op_slot_hash(op: &OpInstance) -> usize {
    let (tag, a, b) = match op.kind {
        OpKind::Conv { kernel, stride } => (0, kernel, stride),
        OpKind::MaxPool { kernel, stride } => (1, kernel, stride),
        OpKind::GlobalAvgPool => (2, 0, 0),
        OpKind::Dense => (3, 0, 0),
        OpKind::Add { arity } => (4, arity, 0),
        OpKind::Concat { arity } => (5, arity, 0),
    };
    let word = (op.in_channels as u64)
        ^ (op.out_channels as u64).rotate_left(16)
        ^ (op.height as u64).rotate_left(32)
        ^ (op.width as u64).rotate_left(40)
        ^ ((tag | a << 3 | b << 7) as u64).rotate_left(48);
    (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - OP_SLOT_BITS)) as usize
}

/// The in-cell dependencies of a [`ProgramNode`]: program node indices,
/// stored inline.
///
/// An add's arity is an interior vertex's in-degree and a concat's arity is
/// the number of interior vertices feeding the output, so no node depends on
/// more than `MAX_VERTICES - 2` others.
pub type NodeDeps = IndexList<{ MAX_VERTICES - 2 }>;

/// The most nodes a lowered cell has: a projection, an add and the op per
/// interior vertex, then the output's concat, projection and add.
pub const MAX_PROGRAM_NODES: usize = 3 * (MAX_VERTICES - 2) + 3;

/// One node of a lowered cell program: an op, its interned id and its
/// in-cell dependencies.
///
/// A node is a plain `Copy` value: its dependency list is inline, so a
/// lowered program is one `Vec` of nodes.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::cell::{CellProgram, OpKind};
/// use codesign_nasbench::known_cells;
///
/// // The ResNet cell ends in an add of its last conv and the projected input.
/// let prog = CellProgram::lower(&known_cells::resnet_cell(), 128, 128, 32, 32);
/// let add = prog.nodes().last().unwrap();
/// assert_eq!(add.op.kind, OpKind::Add { arity: 2 });
/// assert_eq!(add.deps.len(), 2);
/// assert!(add.deps.iter().all(|d| d < prog.nodes().len() - 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramNode {
    /// The concrete operation.
    pub op: OpInstance,
    /// The op's interned id.
    pub id: OpId,
    /// Indices of program nodes that must complete first, in operand order.
    pub deps: NodeDeps,
}

impl ProgramNode {
    /// A node running `op` after `deps`, with the op interned.
    #[must_use]
    pub fn new(op: OpInstance, deps: NodeDeps) -> Self {
        Self {
            op,
            id: OpId::of(&op),
            deps,
        }
    }
}

/// A cell lowered to concrete ops with dependencies — the unit the
/// accelerator scheduler consumes.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::known_cells;
/// use codesign_nasbench::cell::CellProgram;
///
/// let cell = known_cells::resnet_cell();
/// let prog = CellProgram::lower(&cell, 128, 128, 32, 32);
/// assert!(prog.nodes().iter().any(|n| n.op.params() > 0)); // has convolutions
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProgram {
    nodes: Vec<ProgramNode>,
}

impl CellProgram {
    /// Lowers `cell` with the given input/output channel counts and spatial
    /// size, reproducing the NASBench-101 shape rules.
    ///
    /// # Panics
    ///
    /// Panics if `c_out` is smaller than the number of interior vertices
    /// feeding the output (each must receive at least one channel); network
    /// configurations in this crate always satisfy this.
    #[must_use]
    pub fn lower(cell: &CellSpec, c_in: usize, c_out: usize, h: usize, w: usize) -> Self {
        let matrix = cell.matrix();
        let n = matrix.num_vertices();
        let ch = compute_vertex_channels(c_in, c_out, matrix);
        // At most a projection, an add and the op per interior vertex, then
        // the output's concat, projection and add (`MAX_PROGRAM_NODES`).
        let mut nodes: Vec<ProgramNode> = Vec::with_capacity(3 * (n - 2) + 3);
        // result[v] = node index producing interior vertex v's tensor.
        let mut result = [0usize; MAX_VERTICES];

        for v in 1..n - 1 {
            let mut operands = NodeDeps::new();
            for u in matrix.in_neighbors(v) {
                if u == 0 {
                    // Edge from the cell input: 1x1 projection to ch[v].
                    nodes.push(ProgramNode::new(
                        OpInstance::conv(1, c_in, ch[v], h, w),
                        NodeDeps::new(),
                    ));
                    operands.push(nodes.len() - 1);
                } else {
                    // Interior edge: channel truncation is free; depend on u.
                    operands.push(result[u]);
                }
            }
            let combined = if operands.len() > 1 {
                let add = OpInstance {
                    kind: OpKind::Add {
                        arity: operands.len(),
                    },
                    in_channels: ch[v],
                    out_channels: ch[v],
                    height: h,
                    width: w,
                };
                nodes.push(ProgramNode::new(add, operands));
                nodes.len() - 1
            } else {
                operands.first().expect("pruned vertex has an input")
            };
            let op = match cell.op(v).expect("interior vertex has an op") {
                Op::Conv3x3 => OpInstance::conv(3, ch[v], ch[v], h, w),
                Op::Conv1x1 => OpInstance::conv(1, ch[v], ch[v], h, w),
                Op::MaxPool3x3 => OpInstance::maxpool3x3(ch[v], h, w),
            };
            nodes.push(ProgramNode::new(op, [combined].into_iter().collect()));
            result[v] = nodes.len() - 1;
        }

        // Output vertex: concat interior feeders (elided when there is only
        // one, as in the reference implementation), then add the projected
        // input if a skip edge exists.
        let interior_feeders: NodeDeps = (1..n - 1)
            .filter(|&v| matrix.has_edge(v, n - 1))
            .map(|v| result[v])
            .collect();
        let mut final_node: Option<usize> = None;
        if interior_feeders.len() == 1 {
            final_node = interior_feeders.first();
        } else if !interior_feeders.is_empty() {
            let concat = OpInstance {
                kind: OpKind::Concat {
                    arity: interior_feeders.len(),
                },
                in_channels: c_out,
                out_channels: c_out,
                height: h,
                width: w,
            };
            nodes.push(ProgramNode::new(concat, interior_feeders));
            final_node = Some(nodes.len() - 1);
        }
        if matrix.has_edge(0, n - 1) {
            nodes.push(ProgramNode::new(
                OpInstance::conv(1, c_in, c_out, h, w),
                NodeDeps::new(),
            ));
            let proj = nodes.len() - 1;
            if let Some(concat) = final_node {
                let add = OpInstance {
                    kind: OpKind::Add { arity: 2 },
                    in_channels: c_out,
                    out_channels: c_out,
                    height: h,
                    width: w,
                };
                nodes.push(ProgramNode::new(add, [concat, proj].into_iter().collect()));
            }
        }
        Self { nodes }
    }

    /// Wraps a single op as a one-node program (stem, downsample, classifier).
    #[must_use]
    pub fn single(op: OpInstance) -> Self {
        Self {
            nodes: vec![ProgramNode::new(op, NodeDeps::new())],
        }
    }

    /// The lowered nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[ProgramNode] {
        &self.nodes
    }

    /// Total multiply-accumulates in the program.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.macs()).sum()
    }

    /// Total learnable parameters in the program.
    #[must_use]
    pub fn params(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.params()).sum()
    }
}

/// NASBench-101's `compute_vertex_channels`: how many channels each vertex
/// carries when the cell maps `c_in` input channels to `c_out` output
/// channels.
///
/// Interior vertices feeding the output split `c_out` as evenly as possible
/// (earlier vertices absorb the remainder); other interior vertices take the
/// maximum channel count among their interior consumers. A direct
/// input→output edge does not participate in the split — the input is
/// projected separately and added.
///
/// # Panics
///
/// Panics if an interior share would be zero (`c_out` smaller than the number
/// of output feeders).
///
/// Entry `v` is vertex `v`'s channel count; entries past the vertex count
/// are 0.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{AdjMatrix, cell::compute_vertex_channels};
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// // Two parallel branches into the output split c_out evenly (64 + 64),
/// // and an odd c_out gives the extra channel to the earlier branch (65 + 64).
/// let m = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// assert_eq!(compute_vertex_channels(64, 128, &m)[..4], [64, 64, 64, 128]);
/// let m = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// assert_eq!(compute_vertex_channels(64, 129, &m)[..4], [64, 65, 64, 129]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn compute_vertex_channels(
    c_in: usize,
    c_out: usize,
    matrix: &AdjMatrix,
) -> [usize; MAX_VERTICES] {
    let n = matrix.num_vertices();
    let mut ch = [0usize; MAX_VERTICES];
    ch[0] = c_in;
    ch[n - 1] = c_out;
    if n == 2 {
        return ch;
    }
    let out_feeders = (1..n - 1).filter(|&v| matrix.has_edge(v, n - 1)).count();
    assert!(
        out_feeders > 0,
        "pruned cell must have an interior vertex feeding the output"
    );
    assert!(
        c_out >= out_feeders,
        "c_out too small to split among {out_feeders} feeders"
    );
    let share = c_out / out_feeders;
    let mut correction = c_out % out_feeders;
    #[allow(clippy::needless_range_loop)]
    for v in 1..n - 1 {
        if matrix.has_edge(v, n - 1) {
            ch[v] = share
                + if correction > 0 {
                    correction -= 1;
                    1
                } else {
                    0
                };
        }
    }
    for v in (1..n - 1).rev() {
        if !matrix.has_edge(v, n - 1) {
            for w in v + 1..n - 1 {
                if matrix.has_edge(v, w) {
                    ch[v] = ch[v].max(ch[w]);
                }
            }
        }
        debug_assert!(ch[v] > 0, "interior vertex {v} ended with zero channels");
    }
    ch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known_cells;

    #[test]
    fn conv_macs_and_params() {
        let c = OpInstance::conv(3, 16, 32, 8, 8);
        assert_eq!(c.macs(), 9 * 16 * 32 * 64);
        assert_eq!(c.params(), 9 * 16 * 32 + 64);
    }

    #[test]
    fn downsample_halves_spatial() {
        let d = OpInstance::downsample(128, 32, 32);
        assert_eq!(d.out_hw(), (16, 16));
        assert_eq!(d.out_channels, 128);
    }

    #[test]
    fn dense_shapes() {
        let d = OpInstance {
            kind: OpKind::Dense,
            in_channels: 512,
            out_channels: 100,
            height: 1,
            width: 1,
        };
        assert_eq!(d.macs(), 512 * 100);
        assert_eq!(d.params(), 512 * 100 + 100);
    }

    #[test]
    fn interning_the_same_op_twice_gives_the_same_id() {
        let conv = OpInstance::conv(3, 40, 40, 6, 6);
        let id = OpId::of(&conv);
        assert_eq!(OpId::of(&conv), id);
        assert_ne!(OpId::of(&OpInstance::conv(3, 40, 41, 6, 6)), id);
        assert_eq!(ProgramNode::new(conv, NodeDeps::new()).id, id);
    }

    #[test]
    fn lowered_nodes_carry_their_ops_ids() {
        let prog = CellProgram::lower(&known_cells::googlenet_cell(), 128, 256, 16, 16);
        assert!(prog.nodes().len() <= MAX_PROGRAM_NODES);
        for node in prog.nodes() {
            assert_eq!(node.id, OpId::of(&node.op));
        }
    }

    #[test]
    fn channels_split_with_remainder_to_earlier_feeders() {
        let m =
            AdjMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        let ch = compute_vertex_channels(64, 128, &m);
        assert_eq!(ch[..5], [64, 43, 43, 42, 128]);
        assert_eq!(ch[1] + ch[2] + ch[3], 128);
    }

    #[test]
    fn non_feeder_takes_max_of_consumers() {
        // 0 -> 1 -> 2 -> 3(out); 1 -> 3: vertex 1 feeds output AND vertex 2.
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let ch = compute_vertex_channels(32, 100, &m);
        // Both interior vertices feed the output: 50 each.
        assert_eq!(ch[..4], [32, 50, 50, 100]);
        // Chain where vertex 1 does NOT feed output: takes consumer's channels.
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(
            compute_vertex_channels(32, 100, &m)[..4],
            [32, 100, 100, 100]
        );
    }

    #[test]
    fn skip_edge_does_not_join_the_split() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let ch = compute_vertex_channels(64, 128, &m);
        assert_eq!(ch[..4], [64, 128, 128, 128]);
    }

    #[test]
    fn identity_cell_channels() {
        let m = AdjMatrix::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(compute_vertex_channels(64, 128, &m)[..2], [64, 128]);
    }

    #[test]
    fn resnet_cell_program_structure() {
        let cell = known_cells::resnet_cell();
        let prog = CellProgram::lower(&cell, 128, 128, 32, 32);
        let convs3 = prog
            .nodes()
            .iter()
            .filter(|n| matches!(n.op.kind, OpKind::Conv { kernel: 3, .. }))
            .count();
        let adds = prog
            .nodes()
            .iter()
            .filter(|n| matches!(n.op.kind, OpKind::Add { .. }))
            .count();
        assert_eq!(convs3, 2, "two 3x3 convolutions");
        assert_eq!(adds, 1, "one skip-add at the output");
        assert!(prog.macs() > 0);
    }

    #[test]
    fn program_deps_are_topological() {
        let cell = known_cells::googlenet_cell();
        let prog = CellProgram::lower(&cell, 128, 256, 16, 16);
        for (i, node) in prog.nodes().iter().enumerate() {
            for d in node.deps.iter() {
                assert!(d < i, "dependency {d} of node {i} must precede it");
            }
        }
    }

    #[test]
    fn projection_inserted_for_input_edges() {
        // input feeds a pool vertex: a projection must adapt channels first
        // when the pool vertex carries different channels than the input.
        let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let cell = CellSpec::new(m, vec![Op::MaxPool3x3]).unwrap();
        let prog = CellProgram::lower(&cell, 128, 256, 16, 16);
        let has_projection = prog.nodes().iter().any(|n| {
            matches!(n.op.kind, OpKind::Conv { kernel: 1, .. })
                && n.op.in_channels == 128
                && n.op.out_channels == 256
        });
        assert!(has_projection);
    }

    #[test]
    fn concat_arity_matches_output_feeders() {
        let cell = known_cells::googlenet_cell();
        let prog = CellProgram::lower(&cell, 128, 128, 32, 32);
        let concat = prog
            .nodes()
            .iter()
            .find(|n| matches!(n.op.kind, OpKind::Concat { .. }))
            .expect("googlenet cell concatenates at the output");
        if let OpKind::Concat { arity } = concat.op.kind {
            assert_eq!(arity, 3);
        }
    }
}
