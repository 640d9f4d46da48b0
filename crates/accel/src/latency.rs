//! The per-operation latency model (§II-C2, part 1: the lookup table).
//!
//! The paper measures each of the "85 unique variations of convolutions,
//! pooling and element-wise operations" on the FPGA and stores the results in
//! a lookup table. Without the board, this module computes those entries from
//! an analytical engine model instead (a documented substitution — see
//! the module docs below and `ARCHITECTURE.md`): convolutions run on a MAC array whose compute time is the
//! quantized ideal cycle count divided by a pipeline efficiency, overlapped
//! (double-buffered) with external-memory traffic whose volume depends on how
//! the layer tiles into the configured on-chip buffers; pooling runs on the
//! dedicated engine when present; everything CHaiDNN does not accelerate
//! (element-wise adds, concats, global pooling, the classifier) falls back to
//! the embedded CPU. The scheduler reads these latencies from one
//! process-wide table, filled from this model on each op's first use.

use codesign_nasbench::{OpInstance, OpKind};

use crate::config::AcceleratorConfig;

/// Compute units an operation can be placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The single general convolution engine (`ratio_conv_engines = 1`).
    GeneralConv,
    /// The 3×3-specialized convolution engine (`ratio < 1`).
    Conv3x3,
    /// The 1×1-specialized convolution engine (`ratio < 1`).
    Conv1x1,
    /// The dedicated pooling engine (`pool_enable`).
    Pool,
    /// The embedded CPU running CHaiDNN's unsupported layers.
    Cpu,
}

impl EngineKind {
    /// Number of engine kinds (dense-array indexing in the scheduler).
    pub const COUNT: usize = 5;

    /// Dense index of this kind, `0..COUNT`.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            EngineKind::GeneralConv => 0,
            EngineKind::Conv3x3 => 1,
            EngineKind::Conv1x1 => 2,
            EngineKind::Pool => 3,
            EngineKind::Cpu => 4,
        }
    }

    /// All kinds, in [`EngineKind::index`] order.
    pub const ALL: [EngineKind; EngineKind::COUNT] = [
        EngineKind::GeneralConv,
        EngineKind::Conv3x3,
        EngineKind::Conv1x1,
        EngineKind::Pool,
        EngineKind::Cpu,
    ];
}

// Analytical model constants, calibrated (pinned by
// `crates/core/tests/calibration.rs`) so the ResNet-cell network on its best
// accelerator lands near Table II's 42 ms and the GoogLeNet-cell network
// near 19 ms, with the 0–400 ms spread of Fig. 4 across the space.

/// Nanoseconds per cycle of the 200 MHz accelerator clock.
const NS_PER_CYCLE: f64 = 1000.0 / 200.0;
/// Bytes per activation/weight element (16-bit CHaiDNN deployment).
const BYTES_PER_ELEM: f64 = 2.0;
/// Fraction of peak DRAM bandwidth that is sustainable.
const DRAM_EFFICIENCY: f64 = 0.5;
/// Fraction of peak MAC throughput the HLS pipeline sustains.
const COMPUTE_EFFICIENCY: f64 = 0.45;
/// Effective CPU memory throughput for element-wise ops, bytes/second.
const CPU_BYTES_PER_SEC: f64 = 1.2e9;
/// CPU multiply-accumulate throughput (classifier layer), MACs/second.
const CPU_MACS_PER_SEC: f64 = 2.0e9;
/// Fixed per-op accelerator dispatch overhead, cycles.
const OP_OVERHEAD_CYCLES: f64 = 25_000.0;
/// Fixed per-op CPU dispatch overhead, nanoseconds.
const CPU_OVERHEAD_NS: f64 = 80_000.0;

/// The engine an operation executes on under `config`.
///
/// Convolutions bind to the matching specialized engine when the array is
/// split and to the general engine otherwise; pooling uses the dedicated
/// engine only when instantiated; everything else runs on the CPU.
#[must_use]
pub fn primary_engine(op: &OpInstance, config: &AcceleratorConfig) -> EngineKind {
    match op.kind {
        OpKind::Conv { kernel, .. } => {
            if config.ratio_conv_engines.is_split() {
                if kernel == 3 {
                    EngineKind::Conv3x3
                } else {
                    EngineKind::Conv1x1
                }
            } else {
                EngineKind::GeneralConv
            }
        }
        OpKind::MaxPool { .. } => {
            if config.pool_enable {
                EngineKind::Pool
            } else {
                EngineKind::Cpu
            }
        }
        OpKind::GlobalAvgPool | OpKind::Dense | OpKind::Add { .. } | OpKind::Concat { .. } => {
            EngineKind::Cpu
        }
    }
}

/// Latency of `op` on `engine` under `config`, nanoseconds.
///
/// # Panics
///
/// Panics (debug builds) when the op/engine pairing is not one
/// [`primary_engine`] would produce.
#[must_use]
pub fn op_latency_ns(op: &OpInstance, engine: EngineKind, config: &AcceleratorConfig) -> f64 {
    match (op.kind, engine) {
        (
            OpKind::Conv { .. },
            EngineKind::GeneralConv | EngineKind::Conv3x3 | EngineKind::Conv1x1,
        ) => accelerator_ns(
            conv_compute_cycles(op, engine, config),
            conv_memory_cycles(op, config),
        ),
        (OpKind::MaxPool { .. }, EngineKind::Pool) => pool_engine_ns(op, config),
        (_, EngineKind::Cpu) => cpu_ns(op),
        (kind, engine) => {
            debug_assert!(false, "op {kind:?} cannot run on engine {engine:?}");
            cpu_ns(op)
        }
    }
}

/// Latency of an accelerator op whose compute and memory traffic overlap
/// (double buffering), plus dispatch overhead, ns.
pub(crate) fn accelerator_ns(compute_cycles: f64, memory_cycles: f64) -> f64 {
    (compute_cycles.max(memory_cycles) + OP_OVERHEAD_CYCLES) * NS_PER_CYCLE
}

/// Compute cycles of a convolution on the MAC array of `engine`; reads only
/// `filter_par`, `pixel_par` and `ratio_conv_engines`.
pub(crate) fn conv_compute_cycles(
    op: &OpInstance,
    engine: EngineKind,
    config: &AcceleratorConfig,
) -> f64 {
    let OpKind::Conv { kernel, .. } = op.kind else {
        unreachable!("conv op")
    };
    let fp = config.filter_par;
    let (pp, slack) = match engine {
        // The general engine pays a small mode-switch penalty on 1x1.
        EngineKind::GeneralConv => (config.pixel_par, if kernel == 1 { 1.1 } else { 1.0 }),
        EngineKind::Conv3x3 => {
            debug_assert_eq!(kernel, 3, "3x3 engine only runs 3x3 convolutions");
            ((config.macs_3x3() / fp).max(1), 1.0)
        }
        EngineKind::Conv1x1 => {
            debug_assert_eq!(kernel, 1, "1x1 engine only runs 1x1 convolutions");
            ((config.macs_1x1() / fp).max(1), 1.0)
        }
        EngineKind::Pool | EngineKind::Cpu => unreachable!("{engine:?} runs no convolution"),
    };
    let (oh, ow) = op.out_hw();
    let opix = (oh * ow) as f64;
    (op.out_channels as f64 / fp as f64).ceil()
        * (opix / pp as f64).ceil()
        * (op.in_channels * kernel * kernel) as f64
        * slack
        / COMPUTE_EFFICIENCY
}

/// Memory cycles of a convolution's external traffic; reads only the three
/// buffer depths and `mem_interface_width`.
pub(crate) fn conv_memory_cycles(op: &OpInstance, config: &AcceleratorConfig) -> f64 {
    conv_traffic_bytes(op, config) / dram_bytes_per_cycle(config)
}

/// External-memory traffic of a convolution after tiling into the configured
/// buffers: the better of input-stationary and weight-stationary loop
/// orders, plus output (and partial-sum spill) traffic.
#[must_use]
pub fn conv_traffic_bytes(op: &OpInstance, config: &AcceleratorConfig) -> f64 {
    let w_bytes = op.params() as f64 * BYTES_PER_ELEM;
    let i_bytes = (op.in_channels * op.height * op.width) as f64 * BYTES_PER_ELEM;
    let (oh, ow) = op.out_hw();
    let o_bytes = (op.out_channels * oh * ow) as f64 * BYTES_PER_ELEM;
    let i_buf = (config.input_buffer_depth * 8) as f64;
    let w_buf = (config.weight_buffer_depth * 8) as f64;
    let o_buf = (config.output_buffer_depth * 8) as f64;
    let n_w_tiles = (w_bytes / w_buf).ceil().max(1.0);
    let n_i_tiles = (i_bytes / i_buf).ceil().max(1.0);
    // Input-stationary: weights stream once per input tile.
    let input_stationary = i_bytes + w_bytes * n_i_tiles;
    // Weight-stationary: inputs stream once per weight tile.
    let weight_stationary = w_bytes + i_bytes * n_w_tiles;
    // Outputs that overflow the output buffer spill partial sums.
    let o_factor = if o_bytes > o_buf { 3.0 } else { 1.0 };
    input_stationary.min(weight_stationary) + o_bytes * o_factor
}

/// Sustained DRAM bytes per accelerator cycle for `config`.
#[must_use]
pub fn dram_bytes_per_cycle(config: &AcceleratorConfig) -> f64 {
    (config.mem_interface_width as f64 / 8.0) * DRAM_EFFICIENCY
}

/// Pooling on the dedicated engine: a few output pixels per cycle, plus
/// streaming the activations through the memory interface.
fn pool_engine_ns(op: &OpInstance, config: &AcceleratorConfig) -> f64 {
    let (oh, ow) = op.out_hw();
    let out_elems = (op.in_channels * oh * ow) as f64;
    let pixels_per_cycle = (config.pixel_par as f64 / 4.0).max(1.0);
    let compute_cycles = out_elems / pixels_per_cycle / COMPUTE_EFFICIENCY;
    let traffic = ((op.in_channels * op.height * op.width) as f64 + out_elems) * BYTES_PER_ELEM;
    let mem_cycles = traffic / dram_bytes_per_cycle(config);
    accelerator_ns(compute_cycles, mem_cycles)
}

/// CPU fallback: memory-throughput-bound element-wise work plus a MAC term
/// for the classifier.
pub(crate) fn cpu_ns(op: &OpInstance) -> f64 {
    let (oh, ow) = op.out_hw();
    let out_elems = (op.out_channels * oh * ow) as f64;
    let in_elems = (op.in_channels * op.height * op.width) as f64;
    let bytes = match op.kind {
        // k^2 window reads plus one write per output element.
        OpKind::MaxPool { kernel, .. } => {
            (out_elems * (kernel * kernel) as f64 + out_elems) * BYTES_PER_ELEM
        }
        // `arity` reads plus one write per element.
        OpKind::Add { arity } => (in_elems * (arity as f64 + 1.0)) * BYTES_PER_ELEM,
        // Concat re-arranges the feeding tensors into one buffer.
        OpKind::Concat { .. } => 2.0 * out_elems * BYTES_PER_ELEM,
        OpKind::GlobalAvgPool => in_elems * BYTES_PER_ELEM,
        OpKind::Dense => (in_elems + out_elems) * BYTES_PER_ELEM,
        OpKind::Conv { .. } => (in_elems + out_elems) * BYTES_PER_ELEM,
    };
    let mac_ns = match op.kind {
        OpKind::Dense | OpKind::Conv { .. } => op.macs() as f64 / CPU_MACS_PER_SEC * 1e9,
        _ => 0.0,
    };
    bytes / CPU_BYTES_PER_SEC * 1e9 + mac_ns + CPU_OVERHEAD_NS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigSpace, ConvEngineRatio};

    fn big_config() -> AcceleratorConfig {
        AcceleratorConfig {
            filter_par: 16,
            pixel_par: 64,
            input_buffer_depth: 8192,
            weight_buffer_depth: 4096,
            output_buffer_depth: 4096,
            mem_interface_width: 512,
            pool_enable: true,
            ratio_conv_engines: ConvEngineRatio::Single,
        }
    }

    fn small_config() -> AcceleratorConfig {
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

    #[test]
    fn bigger_engine_is_faster_on_convs() {
        let conv = OpInstance::conv(3, 128, 128, 32, 32);
        let fast = op_latency_ns(&conv, EngineKind::GeneralConv, &big_config());
        let slow = op_latency_ns(&conv, EngineKind::GeneralConv, &small_config());
        assert!(slow > 4.0 * fast, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn conv_latency_is_sane_for_resnet_layer() {
        // conv3x3 512->512 @ 8x8 on the big engine: ~1.3ms at 200MHz/45% eff.
        let conv = OpInstance::conv(3, 512, 512, 8, 8);
        let ns = op_latency_ns(&conv, EngineKind::GeneralConv, &big_config());
        let ms = ns / 1e6;
        assert!((0.5..=3.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn small_buffers_inflate_memory_traffic() {
        let conv = OpInstance::conv(3, 512, 512, 8, 8); // 4.7MB of weights
        let small_buf = AcceleratorConfig {
            input_buffer_depth: 1024,
            ..big_config()
        };
        let t_small = conv_traffic_bytes(&conv, &small_buf);
        let t_big = conv_traffic_bytes(&conv, &big_config());
        assert!(t_small > 1.5 * t_big, "small {t_small} vs big {t_big}");
    }

    #[test]
    fn wider_memory_interface_helps_memory_bound_ops() {
        // Small buffers force weight re-streaming, making the op memory-bound.
        let conv = OpInstance::conv(3, 512, 512, 8, 8);
        let tiny_buf = AcceleratorConfig {
            input_buffer_depth: 1024,
            weight_buffer_depth: 1024,
            output_buffer_depth: 1024,
            ..big_config()
        };
        let narrow = AcceleratorConfig {
            mem_interface_width: 256,
            ..tiny_buf
        };
        let t_wide = op_latency_ns(&conv, EngineKind::GeneralConv, &tiny_buf);
        let t_narrow = op_latency_ns(&conv, EngineKind::GeneralConv, &narrow);
        assert!(
            t_narrow > 1.5 * t_wide,
            "narrow {t_narrow} vs wide {t_wide}"
        );
    }

    #[test]
    fn pool_engine_beats_cpu_by_an_order_of_magnitude() {
        let pool = OpInstance::maxpool3x3(128, 32, 32);
        let on_engine = op_latency_ns(&pool, EngineKind::Pool, &big_config());
        let on_cpu = op_latency_ns(&pool, EngineKind::Cpu, &big_config());
        assert!(
            on_cpu > 10.0 * on_engine,
            "cpu {on_cpu} vs engine {on_engine}"
        );
    }

    #[test]
    fn eligible_engines_follow_config() {
        let split = AcceleratorConfig {
            ratio_conv_engines: ConvEngineRatio::R50,
            ..big_config()
        };
        let conv3 = OpInstance::conv(3, 64, 64, 8, 8);
        let conv1 = OpInstance::conv(1, 64, 64, 8, 8);
        let pool = OpInstance::maxpool3x3(64, 8, 8);
        let engine = primary_engine;
        assert_eq!(engine(&conv3, &split), EngineKind::Conv3x3);
        assert_eq!(engine(&conv1, &split), EngineKind::Conv1x1);
        assert_eq!(engine(&conv3, &big_config()), EngineKind::GeneralConv);
        assert_eq!(engine(&pool, &big_config()), EngineKind::Pool);
        assert_eq!(engine(&pool, &small_config()), EngineKind::Cpu);
    }

    #[test]
    fn specialized_engine_throughput_scales_with_ratio() {
        let conv = OpInstance::conv(3, 128, 128, 16, 16);
        let mostly_3x3 = AcceleratorConfig {
            ratio_conv_engines: ConvEngineRatio::R75,
            ..big_config()
        };
        let mostly_1x1 = AcceleratorConfig {
            ratio_conv_engines: ConvEngineRatio::R25,
            ..big_config()
        };
        let fast = op_latency_ns(&conv, EngineKind::Conv3x3, &mostly_3x3);
        let slow = op_latency_ns(&conv, EngineKind::Conv3x3, &mostly_1x1);
        assert!(slow > fast);
    }

    #[test]
    fn cpu_ops_cost_microseconds_not_nanoseconds() {
        let add = OpInstance {
            kind: OpKind::Add { arity: 2 },
            in_channels: 128,
            out_channels: 128,
            height: 32,
            width: 32,
        };
        let ns = op_latency_ns(&add, EngineKind::Cpu, &big_config());
        assert!(ns > 100_000.0, "CPU add should cost > 0.1ms, got {ns} ns");
    }

    #[test]
    fn every_op_has_at_least_one_engine_everywhere() {
        // Every op lands on an engine the configuration instantiates.
        let ops = [
            OpInstance::conv(3, 64, 64, 16, 16),
            OpInstance::conv(1, 64, 64, 16, 16),
            OpInstance::maxpool3x3(64, 16, 16),
            OpInstance::downsample(64, 16, 16),
            OpInstance {
                kind: OpKind::Dense,
                in_channels: 512,
                out_channels: 10,
                height: 1,
                width: 1,
            },
        ];
        for c in ConfigSpace::chaidnn().iter().step_by(97) {
            let split = c.ratio_conv_engines.is_split();
            for op in &ops {
                let exists = match primary_engine(op, &c) {
                    EngineKind::GeneralConv => !split,
                    EngineKind::Conv3x3 | EngineKind::Conv1x1 => split,
                    EngineKind::Pool => c.pool_enable,
                    EngineKind::Cpu => true,
                };
                assert!(exists, "{op:?} placed on a missing engine of {c}");
            }
        }
    }
}
