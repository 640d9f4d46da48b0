//! The accelerator area model (§II-C1).
//!
//! The paper breaks the accelerator into components — convolution engine(s),
//! buffers, pooling engine, memory interface — and models each component's
//! CLB/DSP/BRAM utilization from its configuration parameters (e.g. the
//! sliding-window buffer inside the convolution engine is a function of
//! `pixel_par` and `filter_par`). Resource counts convert to silicon area via
//! Table I. The constants below are calibrated so the space spans the
//! ≈55–210 mm² range visible in Fig. 4's color bar and every configuration
//! fits the device budget; `validation.rs` checks the model against a
//! higher-fidelity reference, mirroring the paper's "1.6% average error
//! against 10 full FPGA compilations".

use crate::config::AcceleratorConfig;
use crate::device::{ResourceUsage, DEVICE};

/// Per-component resource breakdown of one accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaBreakdown {
    /// The convolution engine(s), including MAC arrays and window buffers.
    pub conv_engines: ResourceUsage,
    /// The dedicated pooling engine (zero when disabled).
    pub pooling_engine: ResourceUsage,
    /// Input, weight and output buffers.
    pub buffers: ResourceUsage,
    /// External memory interface (AXI masters, width converters).
    pub mem_interface: ResourceUsage,
    /// Fixed platform overhead: DMA, interconnect, control processor glue.
    pub platform: ResourceUsage,
}

impl AreaBreakdown {
    /// Sum over all components.
    #[must_use]
    pub fn total(&self) -> ResourceUsage {
        self.conv_engines + self.pooling_engine + self.buffers + self.mem_interface + self.platform
    }
}

/// DSPs per MAC slot (16-bit multiply-accumulate uses a DSP pair).
const DSPS_PER_MAC: u64 = 2;
/// Glue CLBs per DSP in the MAC array datapath.
const CLBS_PER_DSP: u64 = 4;

/// Component-level resource estimate for `config`.
#[must_use]
pub fn breakdown(config: &AcceleratorConfig) -> AreaBreakdown {
    AreaBreakdown {
        conv_engines: conv_engines(config),
        pooling_engine: pooling_engine(config),
        buffers: buffers(config),
        mem_interface: mem_interface(config),
        platform: platform(),
    }
}

/// Total resource estimate for `config`.
#[must_use]
pub fn resources(config: &AcceleratorConfig) -> ResourceUsage {
    breakdown(config).total()
}

/// Estimated silicon area, mm² (Table I conversion).
///
/// # Examples
///
/// ```
/// use codesign_accel::{area, ConfigSpace};
///
/// let area = area::area_mm2(&ConfigSpace::chaidnn().get(0));
/// assert!(area > 40.0 && area < 250.0);
/// ```
#[must_use]
pub fn area_mm2(config: &AcceleratorConfig) -> f64 {
    DEVICE.silicon_area_mm2(&resources(config))
}

/// Returns `true` when the configuration fits the device budget.
#[must_use]
pub fn fits_device(config: &AcceleratorConfig) -> bool {
    DEVICE.fits(&resources(config))
}

fn conv_engines(config: &AcceleratorConfig) -> ResourceUsage {
    let fp = config.filter_par as u64;
    let pp = config.pixel_par as u64;
    if config.ratio_conv_engines.is_split() {
        let macs3 = config.macs_3x3() as u64;
        let macs1 = config.macs_1x1() as u64;
        // Engine pixel width scales with its MAC share.
        let pp3 = (macs3 / fp).max(1);
        let pp1 = (macs1 / fp).max(1);
        let e3 = one_engine(fp, pp3, macs3, EngineFlavor::Spatial3x3);
        let e1 = one_engine(fp, pp1, macs1, EngineFlavor::Pointwise);
        e3 + e1
    } else {
        one_engine(fp, pp, config.mac_count() as u64, EngineFlavor::General)
    }
}

fn one_engine(fp: u64, pp: u64, macs: u64, flavor: EngineFlavor) -> ResourceUsage {
    let dsps = macs * DSPS_PER_MAC;
    let (base_clbs, window_clbs_per_pixel) = match flavor {
        // A general engine needs the full 3x3 window machinery plus mode
        // muxing; the 1x1 engine has no sliding window at all.
        EngineFlavor::General => (2000, 25),
        EngineFlavor::Spatial3x3 => (1800, 25),
        EngineFlavor::Pointwise => (1200, 10),
    };
    let clbs = base_clbs + CLBS_PER_DSP * dsps + window_clbs_per_pixel * pp + 12 * fp;
    // Line buffers for the sliding window.
    let brams = match flavor {
        EngineFlavor::Pointwise => 2 + fp / 4,
        _ => 2 + pp / 4 + fp / 4,
    };
    ResourceUsage { clbs, brams, dsps }
}

fn pooling_engine(config: &AcceleratorConfig) -> ResourceUsage {
    if config.pool_enable {
        ResourceUsage {
            clbs: 1500 + 10 * config.pixel_par as u64,
            brams: 4,
            dsps: 0,
        }
    } else {
        ResourceUsage::zero()
    }
}

fn buffers(config: &AcceleratorConfig) -> ResourceUsage {
    let pp = config.pixel_par as u64;
    let fp = config.filter_par as u64;
    let depth_brams = |depth: usize| (depth as u64).div_ceil(1024);
    let input = depth_brams(config.input_buffer_depth) * (pp / 2).max(1);
    let weights = depth_brams(config.weight_buffer_depth) * (fp / 2).max(1);
    let output = depth_brams(config.output_buffer_depth) * (pp / 4).max(1);
    ResourceUsage {
        // Address generation and banking glue per buffer.
        clbs: 3 * 200,
        brams: input + weights + output,
        dsps: 0,
    }
}

fn mem_interface(config: &AcceleratorConfig) -> ResourceUsage {
    match config.mem_interface_width {
        512 => ResourceUsage {
            clbs: 2400,
            brams: 16,
            dsps: 0,
        },
        _ => ResourceUsage {
            clbs: 1200,
            brams: 8,
            dsps: 0,
        },
    }
}

fn platform() -> ResourceUsage {
    ResourceUsage {
        clbs: 6500,
        brams: 40,
        dsps: 32,
    }
}

#[derive(Debug, Clone, Copy)]
enum EngineFlavor {
    General,
    Spatial3x3,
    Pointwise,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigSpace, ConvEngineRatio};

    fn space() -> ConfigSpace {
        ConfigSpace::chaidnn()
    }

    fn min_config() -> AcceleratorConfig {
        AcceleratorConfig {
            filter_par: 8,
            pixel_par: 4,
            input_buffer_depth: 1024,
            weight_buffer_depth: 1024,
            output_buffer_depth: 1024,
            mem_interface_width: 256,
            pool_enable: false,
            ratio_conv_engines: ConvEngineRatio::Single,
        }
    }

    fn max_config() -> AcceleratorConfig {
        AcceleratorConfig {
            filter_par: 16,
            pixel_par: 64,
            input_buffer_depth: 8192,
            weight_buffer_depth: 4096,
            output_buffer_depth: 4096,
            mem_interface_width: 512,
            pool_enable: true,
            ratio_conv_engines: ConvEngineRatio::R50,
        }
    }

    #[test]
    fn every_config_fits_the_device() {
        for c in space().iter() {
            assert!(fits_device(&c), "{c} does not fit: {}", resources(&c));
        }
    }

    #[test]
    fn area_range_matches_fig4_color_bar() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in space().iter() {
            let a = area_mm2(&c);
            lo = lo.min(a);
            hi = hi.max(a);
        }
        assert!(
            (45.0..=70.0).contains(&lo),
            "min area {lo}, Fig 4 shows ~55"
        );
        assert!(
            (180.0..=230.0).contains(&hi),
            "max area {hi}, Fig 4 shows ~200"
        );
    }

    #[test]
    fn extreme_configs_order_correctly() {
        assert!(area_mm2(&max_config()) > 2.5 * area_mm2(&min_config()));
    }

    #[test]
    fn area_is_monotone_in_each_parameter() {
        let base = min_config();
        let bumps: Vec<AcceleratorConfig> = vec![
            AcceleratorConfig {
                filter_par: 16,
                ..base
            },
            AcceleratorConfig {
                pixel_par: 8,
                ..base
            },
            AcceleratorConfig {
                input_buffer_depth: 2048,
                ..base
            },
            AcceleratorConfig {
                weight_buffer_depth: 2048,
                ..base
            },
            AcceleratorConfig {
                output_buffer_depth: 2048,
                ..base
            },
            AcceleratorConfig {
                mem_interface_width: 512,
                ..base
            },
            AcceleratorConfig {
                pool_enable: true,
                ..base
            },
        ];
        let a0 = area_mm2(&base);
        for c in bumps {
            assert!(area_mm2(&c) > a0, "bumping a parameter must grow area: {c}");
        }
    }

    #[test]
    fn splitting_engines_costs_area_but_conserves_dsps() {
        let single = min_config();
        let split = AcceleratorConfig {
            ratio_conv_engines: ConvEngineRatio::R50,
            ..single
        };
        let rs = resources(&single);
        let rp = resources(&split);
        assert_eq!(rs.dsps, rp.dsps, "MAC budget is shared, not duplicated");
        assert!(rp.clbs > rs.clbs, "control duplication costs CLBs");
    }

    #[test]
    fn breakdown_sums_to_total() {
        for c in [min_config(), max_config()] {
            let b = breakdown(&c);
            assert_eq!(b.total(), resources(&c));
        }
    }

    #[test]
    fn pooling_engine_is_free_when_disabled() {
        let b = breakdown(&min_config());
        assert_eq!(b.pooling_engine, ResourceUsage::zero());
    }

    #[test]
    fn resnet_class_accelerator_area_near_table2() {
        // Table II pairs ResNet with a 186 mm^2 accelerator and GoogLeNet /
        // Cod-1 with ~132 mm^2 ones; the model must reach both regimes.
        let areas: Vec<f64> = space().iter().map(|c| area_mm2(&c)).collect();
        assert!(
            areas.iter().any(|&a| (180.0..=195.0).contains(&a)),
            "no ~186mm2 config"
        );
        assert!(
            areas.iter().any(|&a| (125.0..=140.0).contains(&a)),
            "no ~132mm2 config"
        );
    }
}
