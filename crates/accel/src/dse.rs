//! Design-space exploration of the accelerator space for a fixed CNN.
//!
//! Table II pairs the ResNet and GoogLeNet baselines with "their most optimal
//! HW accelerator" — the configuration maximizing performance-per-area for
//! that network. This module sweeps all 8,640 configurations for a network
//! and reports the best by several criteria. (The "separate" search
//! baseline of §III-B3 does not use it: its second phase searches the
//! accelerator with an RL controller, as the paper does.)

use codesign_nasbench::Network;

use crate::area::AreaModel;
use crate::config::{AcceleratorConfig, ConfigSpace};
use crate::latency::LatencyModel;
use crate::scheduler::Scheduler;

/// Metrics of one (network, accelerator) pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMetrics {
    /// Accelerator silicon area, mm².
    pub area_mm2: f64,
    /// Single-image latency, ms.
    pub latency_ms: f64,
}

impl PairMetrics {
    /// Performance per area in images/s/cm², the paper's §IV efficiency
    /// metric (`perf/area`).
    ///
    /// # Examples
    ///
    /// ```
    /// use codesign_accel::PairMetrics;
    ///
    /// // Table II, ResNet row: 42 ms at 186 mm^2 -> 12.8 img/s/cm^2.
    /// let m = PairMetrics { area_mm2: 186.0, latency_ms: 42.0 };
    /// assert!((m.perf_per_area() - 12.8).abs() < 0.1);
    /// ```
    #[must_use]
    pub fn perf_per_area(&self) -> f64 {
        let images_per_second = 1000.0 / self.latency_ms;
        let area_cm2 = self.area_mm2 / 100.0;
        images_per_second / area_cm2
    }
}

/// What the sweep should maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DseObjective {
    /// Maximize images/s/cm² (Table II's pairing rule).
    PerfPerArea,
    /// Minimize latency outright.
    Latency,
    /// Minimize latency subject to an area cap in mm².
    LatencyUnderArea(f64),
}

/// Result of sweeping the accelerator space for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The winning configuration.
    pub config: AcceleratorConfig,
    /// Its metrics.
    pub metrics: PairMetrics,
    /// Number of configurations evaluated.
    pub evaluated: usize,
}

/// Evaluates one (network, config) pair.
#[must_use]
pub fn evaluate_pair(
    network: &Network,
    config: &AcceleratorConfig,
    area_model: &AreaModel,
    latency_model: &LatencyModel,
) -> PairMetrics {
    let area = area_model.area_mm2(config);
    let latency = Scheduler::new(*latency_model, *config)
        .schedule_network(network)
        .total_ms;
    PairMetrics {
        area_mm2: area,
        latency_ms: latency,
    }
}

/// Sweeps every configuration in `space` and returns the best under
/// `objective`.
///
/// Returns `None` only when the space is empty or no configuration satisfies
/// the objective's constraint.
#[must_use]
pub fn best_accelerator_for(
    network: &Network,
    space: &ConfigSpace,
    objective: DseObjective,
    area_model: &AreaModel,
    latency_model: &LatencyModel,
) -> Option<DseResult> {
    let mut best: Option<DseResult> = None;
    let mut evaluated = 0usize;
    for config in space.iter() {
        let metrics = evaluate_pair(network, &config, area_model, latency_model);
        evaluated += 1;
        let candidate_score = match objective {
            DseObjective::PerfPerArea => metrics.perf_per_area(),
            DseObjective::Latency => -metrics.latency_ms,
            DseObjective::LatencyUnderArea(cap) => {
                if metrics.area_mm2 > cap {
                    continue;
                }
                -metrics.latency_ms
            }
        };
        let beats = match &best {
            None => true,
            Some(b) => {
                let best_score = match objective {
                    DseObjective::PerfPerArea => b.metrics.perf_per_area(),
                    DseObjective::Latency | DseObjective::LatencyUnderArea(_) => {
                        -b.metrics.latency_ms
                    }
                };
                candidate_score > best_score
            }
        };
        if beats {
            best = Some(DseResult {
                config,
                metrics,
                evaluated,
            });
        }
    }
    best.map(|mut b| {
        b.evaluated = evaluated;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_nasbench::{known_cells, NetworkConfig};

    fn sweep(cell: &codesign_nasbench::CellSpec, objective: DseObjective) -> DseResult {
        let network = Network::assemble(cell, &NetworkConfig::cifar100());
        best_accelerator_for(
            &network,
            &ConfigSpace::chaidnn(),
            objective,
            &AreaModel::default(),
            &LatencyModel::default(),
        )
        .expect("non-empty space")
    }

    #[test]
    fn perf_per_area_formula_matches_table2_rows() {
        // GoogLeNet row: 19.3 ms at 132 mm^2 -> 39.3 img/s/cm^2.
        let m = PairMetrics {
            area_mm2: 132.0,
            latency_ms: 19.3,
        };
        assert!((m.perf_per_area() - 39.3).abs() < 0.3);
    }

    #[test]
    fn latency_objective_never_beats_unconstrained_best() {
        let free = sweep(&known_cells::plain_cell(), DseObjective::Latency);
        let capped = sweep(
            &known_cells::plain_cell(),
            DseObjective::LatencyUnderArea(100.0),
        );
        assert!(capped.metrics.latency_ms >= free.metrics.latency_ms);
        assert!(capped.metrics.area_mm2 <= 100.0);
    }

    #[test]
    fn evaluated_counts_whole_space() {
        let r = sweep(&known_cells::plain_cell(), DseObjective::Latency);
        assert_eq!(r.evaluated, 8640);
    }

    #[test]
    fn resnet_best_pairing_reproduces_table2_shape() {
        let r = sweep(&known_cells::resnet_cell(), DseObjective::PerfPerArea);
        let g = sweep(&known_cells::googlenet_cell(), DseObjective::PerfPerArea);
        // Shape checks against Table II: GoogLeNet pairs with a smaller/equal
        // accelerator, runs faster, and has much higher perf/area (the paper
        // reports 2.2x faster and 3.1x the perf/area).
        assert!(g.metrics.latency_ms < r.metrics.latency_ms / 1.25);
        assert!(g.metrics.perf_per_area() > 2.0 * r.metrics.perf_per_area());
        assert!(g.metrics.area_mm2 <= r.metrics.area_mm2 * 1.1);
    }
}
