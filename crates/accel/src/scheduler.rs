//! The greedy multi-engine scheduler (§II-C2, part 2).
//!
//! "The scheduler assigns operations to the parallel compute units greedily
//! and calculates the total latency of the CNN model using the lookup table."
//! Operations are visited in topological order; each is placed on the
//! eligible engine that finishes it earliest given operand readiness and
//! engine availability. Because consecutive cells are serially dependent, a
//! network's latency is the sum of its units' makespans weighted by repeat
//! counts — scheduling each *distinct* cell parameterization exactly once,
//! which is what makes exhaustive enumeration of the codesign space feasible.

use codesign_nasbench::{CellProgram, Network, ProgramNode, MAX_PROGRAM_NODES};

use crate::config::AcceleratorConfig;
use crate::latency::{self, EngineKind};
use crate::lut::ConfigTerms;

/// Greedy list scheduler bound to one accelerator configuration.
///
/// Op latencies come from the process-wide lookup table when every value of
/// the configuration is an option of `ConfigSpace::chaidnn()`, and from
/// [`latency::op_latency_ns`] otherwise, with the same bits. Scheduling
/// neither hashes nor allocates.
///
/// # Examples
///
/// ```
/// use codesign_accel::{ConfigSpace, Scheduler};
/// use codesign_nasbench::{known_cells, Dataset, Network};
///
/// let config = ConfigSpace::chaidnn().get(8639);
/// let scheduler = Scheduler::new(config);
/// let net = Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10);
/// let ms = scheduler.network_latency_ms(&net);
/// assert!(ms > 1.0 && ms < 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: AcceleratorConfig,
    /// The config's entries in the lookup table, if the table holds them.
    terms: Option<ConfigTerms>,
}

impl Scheduler {
    /// Creates a scheduler for `config`.
    #[must_use]
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            terms: ConfigTerms::of(&config),
        }
    }

    /// The bound configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Latency of `node`'s op on its engine, ns.
    fn op_latency_ns(&self, node: &ProgramNode, engine: EngineKind) -> f64 {
        match self.terms {
            Some(terms) => terms.op_latency_ns(node, engine),
            None => latency::op_latency_ns(&node.op, engine, &self.config),
        }
    }

    /// The scheduling kernel: greedy list scheduling of one op program
    /// with dense per-engine state. Returns the makespan, ns.
    fn program_makespan_ns(&self, program: &CellProgram) -> f64 {
        let mut engine_free = [0.0f64; EngineKind::COUNT];
        let mut finish = [0.0f64; MAX_PROGRAM_NODES];
        let mut makespan = 0.0f64;
        for (i, node) in program.nodes().iter().enumerate() {
            let mut ready = 0.0f64;
            for d in node.deps.iter() {
                ready = ready.max(finish[d]);
            }
            let engine = latency::primary_engine(&node.op, &self.config);
            let idx = engine.index();
            let end = ready.max(engine_free[idx]) + self.op_latency_ns(node, engine);
            engine_free[idx] = end;
            finish[i] = end;
            makespan = makespan.max(end);
        }
        makespan
    }

    /// End-to-end single-image latency of a network, ms: the sum of its
    /// units' makespans times their repeat counts (units are serially
    /// dependent by construction). This is the one network-latency entry
    /// point.
    #[must_use]
    pub fn network_latency_ms(&self, network: &Network) -> f64 {
        let mut total_ns = 0.0;
        for unit in network.units() {
            total_ns += self.program_makespan_ns(&unit.program) * unit.count as f64;
        }
        total_ns / 1e6
    }
}

/// Reference single-engine scheduler: every op serializes on one queue.
/// Returns the network's latency, ms.
///
/// This is the ablation baseline for the greedy multi-engine scheduler — it
/// answers "how much does engine-level parallelism buy?" for a given pair.
/// It prices ops exactly as [`Scheduler`] does.
#[must_use]
pub fn schedule_serial(config: &AcceleratorConfig, network: &Network) -> f64 {
    let scheduler = Scheduler::new(*config);
    let mut total_ns = 0.0;
    for unit in network.units() {
        let mut unit_ns = 0.0;
        for node in unit.program.nodes() {
            // Serial baseline uses the same placement, it just never
            // overlaps two ops in time.
            let engine = latency::primary_engine(&node.op, config);
            unit_ns += scheduler.op_latency_ns(node, engine);
        }
        total_ns += unit_ns * unit.count as f64;
    }
    total_ns / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigSpace, ConvEngineRatio};
    use codesign_nasbench::{known_cells, Dataset};

    /// The greedy schedule with every op priced by the model itself: the
    /// reference the lookup table is filled from.
    fn reference_ms(config: &AcceleratorConfig, network: &Network) -> f64 {
        let mut total_ns = 0.0;
        for unit in network.units() {
            let mut engine_free = [0.0f64; EngineKind::COUNT];
            let mut finish = Vec::new();
            let mut makespan = 0.0f64;
            for node in unit.program.nodes() {
                let mut ready = 0.0f64;
                for d in node.deps.iter() {
                    ready = ready.max(finish[d]);
                }
                let engine = latency::primary_engine(&node.op, config);
                let end = ready.max(engine_free[engine.index()])
                    + latency::op_latency_ns(&node.op, engine, config);
                engine_free[engine.index()] = end;
                finish.push(end);
                makespan = makespan.max(end);
            }
            total_ns += makespan * unit.count as f64;
        }
        total_ns / 1e6
    }

    /// Asserts the scheduler gives `reference_ms`'s bits for every named
    /// cell on `dataset`'s skeleton.
    fn assert_reference_bits(config: AcceleratorConfig, dataset: Dataset) {
        for (name, cell) in known_cells::all_named() {
            let network = Network::assemble(&cell, dataset);
            let scheduled = Scheduler::new(config).network_latency_ms(&network);
            let reference = reference_ms(&config, &network);
            assert_eq!(
                scheduled.to_bits(),
                reference.to_bits(),
                "{name} at {config}"
            );
        }
    }

    fn big_config() -> AcceleratorConfig {
        AcceleratorConfig {
            filter_par: 16,
            pixel_par: 64,
            input_buffer_depth: 8192,
            weight_buffer_depth: 4096,
            output_buffer_depth: 4096,
            mem_interface_width: 512,
            pool_enable: false,
            ratio_conv_engines: ConvEngineRatio::Single,
        }
    }

    fn resnet_network() -> Network {
        Network::assemble(&known_cells::resnet_cell(), Dataset::Cifar10)
    }

    #[test]
    fn schedule_respects_dependencies() {
        // A chain program's makespan is the sum of its op latencies.
        let s = Scheduler::new(big_config());
        let cell = known_cells::plain_cell();
        let prog = codesign_nasbench::CellProgram::lower(&cell, 128, 128, 32, 32);
        let makespan = s.program_makespan_ns(&prog);
        let sum: f64 = prog
            .nodes()
            .iter()
            .map(|n| {
                let e = latency::primary_engine(&n.op, &big_config());
                latency::op_latency_ns(&n.op, e, &big_config())
            })
            .sum();
        assert!((makespan - sum).abs() < 1.0, "chain must serialize");
    }

    #[test]
    fn a_config_outside_the_space_schedules_with_the_model() {
        let off_space = AcceleratorConfig {
            pixel_par: 12,
            ..big_config()
        };
        assert_reference_bits(off_space, Dataset::Cifar10);
    }

    #[test]
    fn the_cifar100_skeleton_schedules_with_the_model_bits() {
        let space = ConfigSpace::chaidnn();
        for index in [0, 5000, 8639] {
            assert_reference_bits(space.get(index), Dataset::Cifar100);
        }
    }

    #[test]
    fn split_engines_overlap_parallel_branches() {
        // Cod-2-like cells mix 1x1 and 3x3 branches; with split engines the
        // greedy scheduler overlaps them, with a single engine it cannot.
        let net = Network::assemble(&known_cells::cod1_cell(), Dataset::Cifar10);
        let single = big_config();
        let split = AcceleratorConfig {
            ratio_conv_engines: ConvEngineRatio::R50,
            ..single
        };
        let greedy_split = Scheduler::new(split).network_latency_ms(&net);
        let serial_split = schedule_serial(&split, &net);
        assert!(
            greedy_split < serial_split,
            "greedy {greedy_split} must beat serial {serial_split} when branches overlap"
        );
    }

    #[test]
    fn greedy_never_beats_critical_path_bound() {
        let s = Scheduler::new(big_config());
        let net = resnet_network();
        let greedy = s.network_latency_ms(&net);
        let serial = schedule_serial(&big_config(), &net);
        assert!(greedy <= serial + 1e-9, "greedy {greedy} > serial {serial}");
        assert!(greedy > 0.25 * serial, "overlap cannot exceed engine count");
    }

    #[test]
    fn resnet_latency_in_table2_band() {
        // Table II: ResNet cell on its best accelerator = 42 ms. The best
        // config is found by DSE; the biggest single-engine config must land
        // in the same decade.
        let s = Scheduler::new(big_config());
        let ms = s.network_latency_ms(&resnet_network());
        assert!((15.0..=80.0).contains(&ms), "resnet latency {ms} ms");
    }

    #[test]
    fn googlenet_is_faster_than_resnet() {
        let g = Scheduler::new(big_config()).network_latency_ms(&Network::assemble(
            &known_cells::googlenet_cell(),
            Dataset::Cifar10,
        ));
        let r = Scheduler::new(big_config()).network_latency_ms(&resnet_network());
        assert!(g < 0.7 * r, "googlenet {g} vs resnet {r}");
    }

    #[test]
    fn latency_spread_matches_fig4_axis() {
        // Fig 4's x-axis spans ~10..400 ms across configs for mid-size CNNs.
        let net = resnet_network();
        let space = ConfigSpace::chaidnn();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in (0..space.len()).step_by(111) {
            let ms = Scheduler::new(space.get(i)).network_latency_ms(&net);
            lo = lo.min(ms);
            hi = hi.max(ms);
        }
        assert!(lo < 80.0, "fastest config {lo} ms");
        assert!(hi > 100.0, "slowest config {hi} ms");
        assert!(hi < 2000.0, "slowest config {hi} ms is off the chart");
    }
}
