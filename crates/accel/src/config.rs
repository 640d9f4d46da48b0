//! The accelerator design space (Fig. 3 of the paper).
//!
//! Eight configurable parameters of a CHaiDNN-style FPGA accelerator form
//! 8,640 valid combinations: parallelism in the filter and pixel dimensions,
//! three on-chip buffer depths, the external memory interface width, an
//! optional pooling engine, and `ratio_conv_engines` — the paper's addition
//! that splits the DSP budget between a 3×3-specialized and a
//! 1×1-specialized convolution engine.

use std::fmt;

/// How the DSP budget is divided between convolution engines.
///
/// `Single` is CHaiDNN's default (one general engine runs every convolution);
/// the fractional variants give that fraction of the MAC array to a
/// 3×3-specialized engine and the remainder to a 1×1-specialized engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConvEngineRatio {
    /// One general-purpose convolution engine (`ratio = 1`).
    Single,
    /// 75% of MACs to the 3×3 engine, 25% to the 1×1 engine.
    R75,
    /// 67% / 33% split.
    R67,
    /// 50% / 50% split.
    R50,
    /// 33% / 67% split.
    R33,
    /// 25% / 75% split.
    R25,
}

impl ConvEngineRatio {
    /// All ratio options in the paper's order `{1, 0.75, 0.67, 0.5, 0.33, 0.25}`.
    pub const ALL: [ConvEngineRatio; 6] = [
        ConvEngineRatio::Single,
        ConvEngineRatio::R75,
        ConvEngineRatio::R67,
        ConvEngineRatio::R50,
        ConvEngineRatio::R33,
        ConvEngineRatio::R25,
    ];

    /// The fraction of MACs assigned to the 3×3-specialized engine
    /// (1.0 means a single general engine).
    #[must_use]
    pub fn value(&self) -> f64 {
        match self {
            ConvEngineRatio::Single => 1.0,
            ConvEngineRatio::R75 => 0.75,
            ConvEngineRatio::R67 => 0.67,
            ConvEngineRatio::R50 => 0.5,
            ConvEngineRatio::R33 => 0.33,
            ConvEngineRatio::R25 => 0.25,
        }
    }

    /// Returns `true` when two specialized engines exist.
    #[must_use]
    pub fn is_split(&self) -> bool {
        !matches!(self, ConvEngineRatio::Single)
    }

    /// The ratio whose [`ConvEngineRatio::value`] equals `value` exactly,
    /// if any — the inverse used when decoding serialized configurations.
    #[must_use]
    pub fn from_value(value: f64) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.value() == value)
    }
}

impl fmt::Display for ConvEngineRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

/// One point in the accelerator design space.
///
/// Configs order lexicographically over their fields (`Ord`), which gives
/// serialized caches and reports a deterministic entry order.
///
/// # Examples
///
/// ```
/// use codesign_accel::{AcceleratorConfig, ConfigSpace};
///
/// let space = ConfigSpace::chaidnn();
/// assert_eq!(space.len(), 8640);
/// let config = space.get(0);
/// assert!(space.iter().any(|c| c == config));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AcceleratorConfig {
    /// Output-filter parallelism of the convolution MAC array (8 or 16).
    pub filter_par: usize,
    /// Pixel parallelism of the MAC array (4–64).
    pub pixel_par: usize,
    /// Input (activation) buffer depth in 64-bit words.
    pub input_buffer_depth: usize,
    /// Weight buffer depth in 64-bit words.
    pub weight_buffer_depth: usize,
    /// Output buffer depth in 64-bit words.
    pub output_buffer_depth: usize,
    /// External memory interface width in bits (256 or 512).
    pub mem_interface_width: usize,
    /// Whether the dedicated pooling engine is instantiated.
    pub pool_enable: bool,
    /// DSP split between specialized convolution engines.
    pub ratio_conv_engines: ConvEngineRatio,
}

impl AcceleratorConfig {
    /// Total MAC-array multiplier slots (`filter_par × pixel_par`).
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.filter_par * self.pixel_par
    }

    /// MACs per cycle of the 3×3-specialized engine (the whole array for
    /// [`ConvEngineRatio::Single`]).
    #[must_use]
    pub fn macs_3x3(&self) -> usize {
        ((self.mac_count() as f64) * self.ratio_conv_engines.value()).round() as usize
    }

    /// MACs per cycle of the 1×1-specialized engine (0 for a single engine).
    #[must_use]
    pub fn macs_1x1(&self) -> usize {
        if self.ratio_conv_engines.is_split() {
            self.mac_count() - self.macs_3x3()
        } else {
            0
        }
    }

    /// Short textual form, e.g. for experiment reports.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fp{} pp{} buf({},{},{}) mem{} pool{} ratio{}",
            self.filter_par,
            self.pixel_par,
            self.input_buffer_depth,
            self.weight_buffer_depth,
            self.output_buffer_depth,
            self.mem_interface_width,
            u8::from(self.pool_enable),
            self.ratio_conv_engines,
        )
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

// Fig. 3's option lists, per decision dimension in decode order; the ratio
// options are `ConvEngineRatio::ALL`.
const FILTER_PAR: [usize; 2] = [8, 16];
const PIXEL_PAR: [usize; 5] = [4, 8, 16, 32, 64];
const INPUT_BUFFER_DEPTH: [usize; 4] = [1024, 2048, 4096, 8192];
const WEIGHT_BUFFER_DEPTH: [usize; 3] = [1024, 2048, 4096];
const OUTPUT_BUFFER_DEPTH: [usize; 3] = [1024, 2048, 4096];
const MEM_INTERFACE_WIDTH: [usize; 2] = [256, 512];
const POOL_ENABLE: [bool; 2] = [false, true];

/// The paper's CHaiDNN accelerator space (Fig. 3): 8,640 configurations
/// over eight `const` option lists, so a value holds no data and building
/// one allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigSpace;

/// Number of decision dimensions an accelerator config exposes to the
/// controller.
pub const NUM_DECISIONS: usize = 8;

impl ConfigSpace {
    /// The paper's CHaiDNN space (Fig. 3): 8,640 combinations.
    #[must_use]
    pub const fn chaidnn() -> Self {
        Self
    }

    /// Number of configurations in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.option_counts().iter().product()
    }

    /// Always `false`: every dimension has options.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Option count per decision dimension, in decode order.
    #[must_use]
    pub fn option_counts(&self) -> [usize; NUM_DECISIONS] {
        [
            FILTER_PAR.len(),
            PIXEL_PAR.len(),
            INPUT_BUFFER_DEPTH.len(),
            WEIGHT_BUFFER_DEPTH.len(),
            OUTPUT_BUFFER_DEPTH.len(),
            MEM_INTERFACE_WIDTH.len(),
            POOL_ENABLE.len(),
            ConvEngineRatio::ALL.len(),
        ]
    }

    /// Decodes a per-dimension index vector into a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its dimension.
    #[must_use]
    pub fn decode(&self, indices: &[usize; NUM_DECISIONS]) -> AcceleratorConfig {
        AcceleratorConfig {
            filter_par: FILTER_PAR[indices[0]],
            pixel_par: PIXEL_PAR[indices[1]],
            input_buffer_depth: INPUT_BUFFER_DEPTH[indices[2]],
            weight_buffer_depth: WEIGHT_BUFFER_DEPTH[indices[3]],
            output_buffer_depth: OUTPUT_BUFFER_DEPTH[indices[4]],
            mem_interface_width: MEM_INTERFACE_WIDTH[indices[5]],
            pool_enable: POOL_ENABLE[indices[6]],
            ratio_conv_engines: ConvEngineRatio::ALL[indices[7]],
        }
    }

    /// Encodes a configuration back into per-dimension indices.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's values are not members of this space.
    #[must_use]
    pub fn encode(&self, config: &AcceleratorConfig) -> [usize; NUM_DECISIONS] {
        self.try_encode(config)
            .unwrap_or_else(|| panic!("configuration {config} is not in the configuration space"))
    }

    /// Encodes a configuration into per-dimension indices, or `None` when
    /// one of its values is not an option of this space.
    #[must_use]
    pub fn try_encode(&self, config: &AcceleratorConfig) -> Option<[usize; NUM_DECISIONS]> {
        fn pos<T: PartialEq>(options: &[T], value: &T) -> Option<usize> {
            options.iter().position(|option| option == value)
        }
        Some([
            pos(&FILTER_PAR, &config.filter_par)?,
            pos(&PIXEL_PAR, &config.pixel_par)?,
            pos(&INPUT_BUFFER_DEPTH, &config.input_buffer_depth)?,
            pos(&WEIGHT_BUFFER_DEPTH, &config.weight_buffer_depth)?,
            pos(&OUTPUT_BUFFER_DEPTH, &config.output_buffer_depth)?,
            pos(&MEM_INTERFACE_WIDTH, &config.mem_interface_width)?,
            pos(&POOL_ENABLE, &config.pool_enable)?,
            pos(&ConvEngineRatio::ALL, &config.ratio_conv_engines)?,
        ])
    }

    /// The configuration at flat index `i` (row-major over the dimensions).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> AcceleratorConfig {
        assert!(
            i < self.len(),
            "config index {i} out of range {}",
            self.len()
        );
        let counts = self.option_counts();
        let mut rem = i;
        let mut idx = [0usize; NUM_DECISIONS];
        for d in (0..NUM_DECISIONS).rev() {
            idx[d] = rem % counts[d];
            rem /= counts[d];
        }
        self.decode(&idx)
    }

    /// The flat index of `config`, the inverse of [`ConfigSpace::get`], or
    /// `None` when one of its values is not an option of this space.
    ///
    /// Flat-index order is `AcceleratorConfig`'s `Ord` order: the fields
    /// come in decode order and every option list is ascending.
    #[must_use]
    pub fn index_of(&self, config: &AcceleratorConfig) -> Option<usize> {
        let indices = self.try_encode(config)?;
        Some(
            indices
                .iter()
                .zip(self.option_counts())
                .fold(0, |flat, (&index, count)| flat * count + index),
        )
    }

    /// Iterates over every configuration in the space.
    pub fn iter(&self) -> impl Iterator<Item = AcceleratorConfig> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaidnn_space_has_8640_configs() {
        let space = ConfigSpace::chaidnn();
        assert_eq!(space.len(), 8640);
        assert_eq!(space.option_counts(), [2, 5, 4, 3, 3, 2, 2, 6]);
    }

    #[test]
    fn get_covers_all_distinct_configs() {
        let space = ConfigSpace::chaidnn();
        let mut seen = std::collections::HashSet::new();
        for c in space.iter() {
            assert!(seen.insert(c), "duplicate config {c}");
        }
        assert_eq!(seen.len(), 8640);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let space = ConfigSpace::chaidnn();
        for i in [0usize, 1, 17, 1234, 8639] {
            let c = space.get(i);
            let idx = space.encode(&c);
            assert_eq!(space.decode(&idx), c);
        }
    }

    #[test]
    fn try_encode_rejects_values_outside_the_space() {
        let space = ConfigSpace::chaidnn();
        let config = AcceleratorConfig {
            pixel_par: 12,
            ..space.get(8639)
        };
        assert_eq!(space.try_encode(&config), None);
        assert_eq!(
            space.try_encode(&space.get(8639)),
            Some(space.encode(&space.get(8639)))
        );
    }

    /// Persisted cache records keep their `(hash, config)` order only
    /// because flat-index order is config order.
    #[test]
    fn index_of_inverts_get_in_config_order() {
        let space = ConfigSpace::chaidnn();
        for i in 0..space.len() {
            assert_eq!(space.index_of(&space.get(i)), Some(i));
            if i + 1 < space.len() {
                assert!(space.get(i) < space.get(i + 1), "configs {i} and {}", i + 1);
            }
        }
        let off_space = AcceleratorConfig {
            pixel_par: 12,
            ..space.get(8639)
        };
        assert_eq!(space.index_of(&off_space), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = ConfigSpace::chaidnn().get(8640);
    }

    #[test]
    fn ratio_values_match_paper() {
        let vals: Vec<f64> = ConvEngineRatio::ALL
            .iter()
            .map(ConvEngineRatio::value)
            .collect();
        assert_eq!(vals, vec![1.0, 0.75, 0.67, 0.5, 0.33, 0.25]);
    }

    #[test]
    fn ratio_from_value_inverts_value() {
        for r in ConvEngineRatio::ALL {
            assert_eq!(ConvEngineRatio::from_value(r.value()), Some(r));
        }
        assert_eq!(ConvEngineRatio::from_value(0.42), None);
    }

    #[test]
    fn engine_split_conserves_macs() {
        let space = ConfigSpace::chaidnn();
        for c in space.iter() {
            if c.ratio_conv_engines.is_split() {
                assert_eq!(c.macs_3x3() + c.macs_1x1(), c.mac_count(), "{c}");
                assert!(c.macs_3x3() > 0 && c.macs_1x1() > 0, "{c}");
            } else {
                assert_eq!(c.macs_3x3(), c.mac_count());
                assert_eq!(c.macs_1x1(), 0);
            }
        }
    }

    #[test]
    fn summary_mentions_every_parameter() {
        let c = ConfigSpace::chaidnn().get(42);
        let s = c.summary();
        assert!(s.contains("fp") && s.contains("pp") && s.contains("mem"));
    }
}
