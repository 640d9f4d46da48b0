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

use crate::area::AreaModel;
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

/// The power model: per-resource leakage plus per-engine dynamic cost scaled
/// by measured utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static watts per CLB.
    pub clb_static_w: f64,
    /// Static watts per BRAM36.
    pub bram_static_w: f64,
    /// Static watts per DSP.
    pub dsp_static_w: f64,
    /// Dynamic watts per DSP at 100% utilization.
    pub dsp_dynamic_w: f64,
    /// Dynamic watts per BRAM at 100% utilization.
    pub bram_dynamic_w: f64,
    /// DRAM interface dynamic watts per bit of interface width.
    pub dram_w_per_bit: f64,
    /// Embedded CPU power when running fallback layers, watts.
    pub cpu_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            clb_static_w: 25e-6,
            bram_static_w: 350e-6,
            dsp_static_w: 250e-6,
            dsp_dynamic_w: 1.6e-3,
            bram_dynamic_w: 0.9e-3,
            dram_w_per_bit: 2.2e-3,
            cpu_w: 1.2,
        }
    }
}

impl PowerModel {
    /// Worst-case (fully-utilized) power for a configuration.
    #[must_use]
    pub fn peak_power(&self, area_model: &AreaModel, config: &AcceleratorConfig) -> PowerEstimate {
        self.power(area_model, config, 1.0, 1.0)
    }

    /// Power at given utilizations: `compute_util` for the MAC arrays /
    /// BRAMs and `cpu_util` for the fallback core, each clamped to `0..=1`.
    #[must_use]
    pub fn power(
        &self,
        area_model: &AreaModel,
        config: &AcceleratorConfig,
        compute_util: f64,
        cpu_util: f64,
    ) -> PowerEstimate {
        let usage = area_model.resources(config);
        let static_w = usage.clbs as f64 * self.clb_static_w
            + usage.brams as f64 * self.bram_static_w
            + usage.dsps as f64 * self.dsp_static_w;
        let compute_util = compute_util.clamp(0.0, 1.0);
        let cpu_util = cpu_util.clamp(0.0, 1.0);
        let dynamic_w = usage.dsps as f64 * self.dsp_dynamic_w * compute_util
            + usage.brams as f64 * self.bram_dynamic_w * compute_util
            + config.mem_interface_width as f64 * self.dram_w_per_bit * compute_util
            + self.cpu_w * cpu_util;
        PowerEstimate {
            static_w,
            dynamic_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;

    fn models() -> (AreaModel, PowerModel) {
        (AreaModel::default(), PowerModel::default())
    }

    #[test]
    fn peak_power_is_single_digit_watts() {
        let (area, power) = models();
        let space = ConfigSpace::chaidnn();
        for idx in [0usize, 4000, 8639] {
            let config = space.get(idx);
            let p = power.peak_power(&area, &config).total_w();
            assert!((0.5..20.0).contains(&p), "config {idx}: {p} W");
        }
    }

    #[test]
    fn bigger_configs_draw_more_power() {
        let (area, power) = models();
        let space = ConfigSpace::chaidnn();
        let small = power.peak_power(&area, &space.get(0)).total_w();
        let large = power.peak_power(&area, &space.get(8639)).total_w();
        assert!(large > 2.0 * small, "{small} vs {large}");
    }

    #[test]
    fn idle_fabric_still_leaks() {
        let (area, power) = models();
        let config = ConfigSpace::chaidnn().get(8639);
        let idle = power.power(&area, &config, 0.0, 0.0);
        assert_eq!(idle.dynamic_w, 0.0);
        assert!(idle.static_w > 0.1);
    }

    #[test]
    fn utilization_scales_dynamic_power_linearly() {
        let (area, power) = models();
        let config = ConfigSpace::chaidnn().get(100);
        let half = power.power(&area, &config, 0.5, 0.0).dynamic_w;
        let full = power.power(&area, &config, 1.0, 0.0).dynamic_w;
        assert!((full - 2.0 * half).abs() < 1e-12);
    }
}
