//! Property-based tests over random accelerator configurations and ops.

use codesign_accel::latency::{op_latency_ns, primary_engine};
use codesign_accel::{
    area, power, schedule_serial, AcceleratorConfig, ConfigSpace, ConvEngineRatio, Scheduler,
    DEVICE,
};
use codesign_nasbench::{known_cells, Dataset, Network, OpInstance};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = AcceleratorConfig> {
    (0usize..8640).prop_map(|i| ConfigSpace::chaidnn().get(i))
}

fn arb_conv() -> impl Strategy<Value = OpInstance> {
    (
        prop::sample::select(vec![1usize, 3]),
        prop::sample::select(vec![16usize, 43, 64, 128, 171, 256, 512]),
        prop::sample::select(vec![16usize, 43, 64, 128, 171, 256, 512]),
        prop::sample::select(vec![8usize, 16, 32]),
    )
        .prop_map(|(k, ic, oc, hw)| OpInstance::conv(k, ic, oc, hw, hw))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_config_fits_and_has_positive_area(config in arb_config()) {
        prop_assert!(area::fits_device(&config));
        let area = area::area_mm2(&config);
        prop_assert!(area > 0.0 && area < DEVICE.total_area_mm2());
    }

    #[test]
    fn op_latency_is_positive_and_finite(config in arb_config(), op in arb_conv()) {
        let engine = primary_engine(&op, &config);
        let ns = op_latency_ns(&op, engine, &config);
        prop_assert!(ns.is_finite() && ns > 0.0);
    }

    #[test]
    fn bigger_mac_array_never_slows_a_conv(op in arb_conv()) {
        // Fix everything but the MAC array size on a single-engine config.
        let base = AcceleratorConfig {
            filter_par: 8,
            pixel_par: 8,
            input_buffer_depth: 4096,
            weight_buffer_depth: 4096,
            output_buffer_depth: 4096,
            mem_interface_width: 512,
            pool_enable: false,
            ratio_conv_engines: ConvEngineRatio::Single,
        };
        let big = AcceleratorConfig { filter_par: 16, pixel_par: 64, ..base };
        let engine = primary_engine(&op, &base);
        let slow = op_latency_ns(&op, engine, &base);
        let fast = op_latency_ns(&op, engine, &big);
        prop_assert!(fast <= slow + 1e-9, "fast {fast} > slow {slow}");
    }

    #[test]
    fn greedy_schedule_never_exceeds_serial(config in arb_config()) {
        let network = Network::assemble(&known_cells::cod2_cell(), Dataset::Cifar10);
        let greedy = Scheduler::new(config).network_latency_ms(&network);
        let serial = schedule_serial(&config, &network);
        prop_assert!(greedy <= serial + 1e-9);
        // Overlap is bounded by the number of parallel units.
        prop_assert!(greedy >= serial / 4.0);
    }

    #[test]
    fn power_is_positive_and_bounded(config in arb_config()) {
        let p = power::peak_power(&config);
        prop_assert!(p.static_w > 0.0);
        prop_assert!(p.dynamic_w > 0.0);
        prop_assert!(p.total_w() < 25.0, "implausible power {}", p.total_w());
    }

    #[test]
    fn encode_decode_roundtrip(config in arb_config()) {
        let space = ConfigSpace::chaidnn();
        prop_assert_eq!(space.decode(&space.encode(&config)), config);
    }
}
