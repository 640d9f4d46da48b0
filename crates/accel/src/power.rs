//! Accelerator power model (extension).
//!
//! Fig. 1 of the paper lists *power* among the evaluator outputs feeding the
//! multi-objective reward, but the evaluation sections only ever use
//! accuracy/latency/area. This module supplies the missing piece so
//! four-objective codesign can be explored (the evaluator reports the peak
//! estimate as the `power` metric that scenarios can weight or constrain;
//! see the `power_aware` test): a standard CMOS-style decomposition into
//! static leakage proportional to provisioned resources and dynamic power
//! proportional to switched capacitance times utilization.
//!
//! Constants are set so a mid-size configuration under full load draws a few
//! watts — the regime Xilinx reports for CHaiDNN-class Zynq UltraScale+
//! deployments.

use crate::area;
use crate::config::AcceleratorConfig;

/// Power estimate for one accelerator configuration under a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Leakage + clock-tree power of the provisioned fabric, watts.
    pub static_w: f64,
    /// Activity-proportional switching power, watts.
    pub dynamic_w: f64,
}

impl PowerEstimate {
    /// Total power, watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.static_w + self.dynamic_w
    }
}

/// Static watts per CLB.
const CLB_STATIC_W: f64 = 25e-6;
/// Static watts per BRAM36.
const BRAM_STATIC_W: f64 = 350e-6;
/// Static watts per DSP.
const DSP_STATIC_W: f64 = 250e-6;
/// Dynamic watts per DSP at 100% utilization.
const DSP_DYNAMIC_W: f64 = 1.6e-3;
/// Dynamic watts per BRAM at 100% utilization.
const BRAM_DYNAMIC_W: f64 = 0.9e-3;
/// DRAM interface dynamic watts per bit of interface width.
const DRAM_W_PER_BIT: f64 = 2.2e-3;
/// Embedded CPU power when running fallback layers, watts.
const CPU_W: f64 = 1.2;

/// Worst-case (fully-utilized) power for a configuration.
///
/// # Examples
///
/// ```
/// use codesign_accel::{power, ConfigSpace};
///
/// let peak = power::peak_power(&ConfigSpace::chaidnn().get(8639));
/// assert!(peak.total_w() > peak.static_w && peak.total_w() < 20.0);
/// ```
#[must_use]
pub fn peak_power(config: &AcceleratorConfig) -> PowerEstimate {
    power(config, 1.0, 1.0)
}

/// Power at given utilizations: `compute_util` for the MAC arrays / BRAMs
/// and `cpu_util` for the fallback core, each clamped to `0..=1`.
#[must_use]
pub fn power(config: &AcceleratorConfig, compute_util: f64, cpu_util: f64) -> PowerEstimate {
    let usage = area::resources(config);
    let static_w = usage.clbs as f64 * CLB_STATIC_W
        + usage.brams as f64 * BRAM_STATIC_W
        + usage.dsps as f64 * DSP_STATIC_W;
    let compute_util = compute_util.clamp(0.0, 1.0);
    let cpu_util = cpu_util.clamp(0.0, 1.0);
    let dynamic_w = usage.dsps as f64 * DSP_DYNAMIC_W * compute_util
        + usage.brams as f64 * BRAM_DYNAMIC_W * compute_util
        + config.mem_interface_width as f64 * DRAM_W_PER_BIT * compute_util
        + CPU_W * cpu_util;
    PowerEstimate {
        static_w,
        dynamic_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;

    #[test]
    fn peak_power_is_single_digit_watts() {
        let space = ConfigSpace::chaidnn();
        for idx in [0usize, 4000, 8639] {
            let config = space.get(idx);
            let p = peak_power(&config).total_w();
            assert!((0.5..20.0).contains(&p), "config {idx}: {p} W");
        }
    }

    #[test]
    fn bigger_configs_draw_more_power() {
        let space = ConfigSpace::chaidnn();
        let small = peak_power(&space.get(0)).total_w();
        let large = peak_power(&space.get(8639)).total_w();
        assert!(large > 2.0 * small, "{small} vs {large}");
    }

    #[test]
    fn idle_fabric_still_leaks() {
        let config = ConfigSpace::chaidnn().get(8639);
        let idle = power(&config, 0.0, 0.0);
        assert_eq!(idle.dynamic_w, 0.0);
        assert!(idle.static_w > 0.1);
    }

    #[test]
    fn utilization_scales_dynamic_power_linearly() {
        let config = ConfigSpace::chaidnn().get(100);
        let half = power(&config, 0.5, 0.0).dynamic_w;
        let full = power(&config, 1.0, 0.0).dynamic_w;
        assert!((full - 2.0 * half).abs() < 1e-12);
    }
}
