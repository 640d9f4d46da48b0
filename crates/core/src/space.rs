//! The joint codesign search space (Eq. 1).
//!
//! `S = Onn1 × Onn2 × ... × Ohw1 × Ohw2 × ...`: the controller emits one
//! decision per CNN edge slot, one per CNN operation slot, and one per
//! accelerator parameter. A [`CodesignSpace`] owns the decision vocabulary
//! and decodes controller action sequences into `(CellSpec, AcceleratorConfig)`
//! pairs; invalid CNN decodes (disconnected graphs, edge-budget violations)
//! surface as errors so the evaluator can apply the punishment `Rv`.

use codesign_accel::{AcceleratorConfig, ConfigSpace, NUM_DECISIONS};
use codesign_nasbench::{AdjMatrix, CellSpec, Op, SpecError, MAX_VERTICES};

/// Decision encoding for the CNN half: binary edge inclusion for every
/// upper-triangular slot plus a ternary op label per interior vertex.
///
/// # Examples
///
/// ```
/// use codesign_core::CnnSpace;
///
/// let space = CnnSpace::new(7);
/// // 21 edge slots + 5 interior ops for the full NASBench encoding.
/// assert_eq!(space.vocab_sizes().len(), 26);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnSpace {
    max_vertices: usize,
}

impl CnnSpace {
    /// Encoding over cells with up to `max_vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= max_vertices <= 7`.
    #[must_use]
    pub fn new(max_vertices: usize) -> Self {
        assert!(
            (2..=MAX_VERTICES).contains(&max_vertices),
            "max_vertices must be in 2..=7"
        );
        Self { max_vertices }
    }

    /// The vertex bound of this encoding.
    #[must_use]
    pub fn max_vertices(&self) -> usize {
        self.max_vertices
    }

    /// Number of edge decision slots.
    #[must_use]
    pub fn num_edge_slots(&self) -> usize {
        self.max_vertices * (self.max_vertices - 1) / 2
    }

    /// Number of op decision slots.
    #[must_use]
    pub fn num_op_slots(&self) -> usize {
        self.max_vertices - 2
    }

    /// Option counts per decision: `[2; edges] ++ [3; ops]`.
    #[must_use]
    pub fn vocab_sizes(&self) -> Vec<usize> {
        let mut v = vec![2; self.num_edge_slots()];
        v.extend(std::iter::repeat_n(Op::COUNT, self.num_op_slots()));
        v
    }

    /// Edge slot order: `(0,1), (0,2), ..., (0,V-1), (1,2), ...`.
    fn edge_slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.max_vertices).flat_map(move |i| ((i + 1)..self.max_vertices).map(move |j| (i, j)))
    }

    /// Decodes controller actions into a validated cell.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] for disconnected or over-budget graphs — the
    /// search treats these as punishable proposals, not bugs.
    ///
    /// # Panics
    ///
    /// Panics if `actions` has the wrong length or an out-of-vocabulary entry
    /// (the controller masks vocabularies, so this indicates a harness bug).
    pub fn decode(&self, actions: &[usize]) -> Result<CellSpec, SpecError> {
        let expected = self.num_edge_slots() + self.num_op_slots();
        assert_eq!(actions.len(), expected, "cnn action count mismatch");
        let mut matrix = AdjMatrix::empty(self.max_vertices)?;
        for (slot, (i, j)) in self.edge_slots().enumerate() {
            match actions[slot] {
                0 => {}
                1 => matrix.add_edge(i, j)?,
                other => panic!("edge decision {other} out of vocabulary"),
            }
        }
        let ops: Vec<Op> = actions[self.num_edge_slots()..]
            .iter()
            .map(|&a| {
                u8::try_from(a)
                    .ok()
                    .and_then(Op::from_label)
                    .expect("op decision out of vocabulary")
            })
            .collect();
        CellSpec::new(matrix, ops)
    }

    /// Encodes a cell back into actions (embedding smaller cells by routing
    /// their output vertex to the encoding's last slot). Decoding the result
    /// prunes the unused vertices away again.
    ///
    /// # Panics
    ///
    /// Panics if the cell has more vertices than this encoding supports.
    #[must_use]
    pub fn encode(&self, cell: &CellSpec) -> Vec<usize> {
        let v = cell.num_vertices();
        assert!(v <= self.max_vertices, "cell too large for this encoding");
        // Map cell vertex -> encoding vertex: interiors keep their index,
        // the cell output maps to the encoding's last vertex.
        let map = |x: usize| if x == v - 1 { self.max_vertices - 1 } else { x };
        let mut actions = vec![0usize; self.num_edge_slots()];
        for (slot, (i, j)) in self.edge_slots().enumerate() {
            let has = (0..v).any(|a| {
                (a + 1..v).any(|b| cell.matrix().has_edge(a, b) && map(a) == i && map(b) == j)
            });
            actions[slot] = usize::from(has);
        }
        for k in 0..self.num_op_slots() {
            let op = cell.op(k + 1).unwrap_or(Op::Conv3x3);
            actions.push(op.label() as usize);
        }
        actions
    }
}

/// Decision encoding for the accelerator half (one decision per Fig. 3
/// parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwSpace {
    space: ConfigSpace,
}

impl HwSpace {
    /// The CHaiDNN space of the paper.
    #[must_use]
    pub fn chaidnn() -> Self {
        Self {
            space: ConfigSpace::chaidnn(),
        }
    }

    /// The wrapped configuration space.
    #[must_use]
    pub fn config_space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Option counts per decision.
    #[must_use]
    pub fn vocab_sizes(&self) -> Vec<usize> {
        self.space.option_counts().to_vec()
    }

    /// Decodes controller actions into a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `actions` has the wrong length or out-of-range entries.
    #[must_use]
    pub fn decode(&self, actions: &[usize]) -> AcceleratorConfig {
        assert_eq!(actions.len(), NUM_DECISIONS, "hw action count mismatch");
        let mut idx = [0usize; NUM_DECISIONS];
        idx.copy_from_slice(actions);
        self.space.decode(&idx)
    }

    /// Encodes a configuration into actions.
    #[must_use]
    pub fn encode(&self, config: &AcceleratorConfig) -> Vec<usize> {
        self.space.encode(config).to_vec()
    }
}

impl Default for HwSpace {
    fn default() -> Self {
        Self::chaidnn()
    }
}

/// A decoded codesign proposal: the CNN half may be invalid.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The decoded cell, or why it is invalid.
    pub cell: Result<CellSpec, SpecError>,
    /// The decoded accelerator (always valid: every combination is legal).
    pub config: AcceleratorConfig,
}

/// The joint space `S` of Eq. 1.
///
/// # Examples
///
/// ```
/// use codesign_core::CodesignSpace;
///
/// let space = CodesignSpace::paper();
/// // 26 CNN decisions + 8 accelerator decisions.
/// assert_eq!(space.vocab_sizes().len(), 34);
/// assert!(space.num_points() > 1e9); // ~4 billion raw combinations
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodesignSpace {
    cnn: CnnSpace,
    hw: HwSpace,
}

impl CodesignSpace {
    /// The paper's full joint space: 7-vertex cells × CHaiDNN accelerators.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            cnn: CnnSpace::new(7),
            hw: HwSpace::chaidnn(),
        }
    }

    /// A joint space over a reduced CNN encoding (used when exact
    /// enumeration of the whole space is wanted).
    #[must_use]
    pub fn with_max_vertices(max_vertices: usize) -> Self {
        Self {
            cnn: CnnSpace::new(max_vertices),
            hw: HwSpace::chaidnn(),
        }
    }

    /// The CNN half.
    #[must_use]
    pub fn cnn(&self) -> &CnnSpace {
        &self.cnn
    }

    /// The accelerator half.
    #[must_use]
    pub fn hw(&self) -> &HwSpace {
        &self.hw
    }

    /// Joint decision vocabulary (CNN decisions first, as in Eq. 1).
    #[must_use]
    pub fn vocab_sizes(&self) -> Vec<usize> {
        let mut v = self.cnn.vocab_sizes();
        v.extend(self.hw.vocab_sizes());
        v
    }

    /// Raw combination count (before CNN validity/deduplication) — the
    /// paper's "~4 billion model-accelerator pairs" headline number.
    #[must_use]
    pub fn num_points(&self) -> f64 {
        self.vocab_sizes().iter().map(|&v| v as f64).product()
    }

    /// Splits a joint action sequence and decodes both halves.
    ///
    /// # Panics
    ///
    /// Panics on action-count mismatch.
    #[must_use]
    pub fn decode(&self, actions: &[usize]) -> Proposal {
        let n_cnn = self.cnn.num_edge_slots() + self.cnn.num_op_slots();
        assert_eq!(
            actions.len(),
            n_cnn + NUM_DECISIONS,
            "joint action count mismatch"
        );
        Proposal {
            cell: self.cnn.decode(&actions[..n_cnn]),
            config: self.hw.decode(&actions[n_cnn..]),
        }
    }
}

impl Default for CodesignSpace {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_nasbench::known_cells;

    #[test]
    fn paper_space_is_about_4_billion() {
        let space = CodesignSpace::paper();
        // 2^21 * 3^5 * 8640 ≈ 4.4e12 raw; the paper's 3.7e9 counts unique
        // *valid* cells (423k) x 8640. Raw combination count:
        let raw = space.num_points();
        assert!(raw > 4e12 && raw < 5e12, "raw combinations {raw}");
        // Unique-model framing: 423k x 8640 = 3.65e9.
        let unique = 423_000.0f64 * 8640.0;
        assert!(unique > 3.6e9 && unique < 3.7e9);
    }

    #[test]
    fn cnn_roundtrip_known_cells() {
        for max_v in [5, 6, 7] {
            let space = CnnSpace::new(max_v);
            for (name, cell) in known_cells::all_named() {
                if cell.num_vertices() > max_v {
                    continue;
                }
                let actions = space.encode(&cell);
                let decoded = space.decode(&actions).expect("encode gives valid actions");
                assert_eq!(
                    decoded.canonical_hash(),
                    cell.canonical_hash(),
                    "{name} roundtrip at max_v={max_v}"
                );
            }
        }
    }

    #[test]
    fn invalid_decodes_are_errors_not_panics() {
        let space = CnnSpace::new(4);
        // No edges at all: disconnected.
        let actions = vec![0usize; space.vocab_sizes().len()];
        assert!(space.decode(&actions).is_err());
    }

    #[test]
    #[should_panic(expected = "op decision out of vocabulary")]
    fn op_action_past_the_vocabulary_panics() {
        // A 4-vertex chain whose first op action would wrap to conv3x3 as a u8.
        let space = CnnSpace::new(4);
        let mut actions = vec![1, 0, 0, 1, 0, 1];
        actions.extend([256, 1]);
        let _ = space.decode(&actions);
    }

    #[test]
    fn hw_roundtrip_whole_space() {
        let hw = HwSpace::chaidnn();
        for i in (0..8640).step_by(321) {
            let config = hw.config_space().get(i);
            let actions = hw.encode(&config);
            assert_eq!(hw.decode(&actions), config);
        }
    }

    #[test]
    fn joint_decode_splits_halves() {
        let space = CodesignSpace::with_max_vertices(4);
        let cnn_len = space.cnn().vocab_sizes().len();
        let mut actions = space.cnn().encode(&known_cells::resnet_cell());
        assert_eq!(actions.len(), cnn_len);
        actions.extend([1, 4, 3, 2, 2, 1, 1, 5]);
        let proposal = space.decode(&actions);
        assert!(proposal.cell.is_ok());
        assert_eq!(proposal.config.filter_par, 16);
        assert_eq!(proposal.config.pixel_par, 64);
    }

    #[test]
    fn vocab_sizes_match_decision_structure() {
        let space = CodesignSpace::paper();
        let vocab = space.vocab_sizes();
        assert_eq!(vocab.len(), 21 + 5 + 8);
        assert!(vocab[..21].iter().all(|&v| v == 2));
        assert!(vocab[21..26].iter().all(|&v| v == 3));
        assert_eq!(&vocab[26..], &[2, 5, 4, 3, 3, 2, 2, 6]);
    }

    #[test]
    #[should_panic(expected = "max_vertices")]
    fn oversized_encoding_panics() {
        let _ = CnnSpace::new(9);
    }
}
