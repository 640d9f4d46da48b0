//! Table I — estimated FPGA block areas for the Zynq UltraScale+, plus the
//! §II-C1 area-model validation (the paper reports 1.6% mean error against
//! 10 full compilations) and a component breakdown of an example
//! configuration.
//!
//! Run: `cargo run --release -p codesign-bench --bin table1_area`

use codesign_accel::{area, validate_area_model, ConfigSpace, DEVICE};
use codesign_bench::Args;
use codesign_core::report::{fmt_f, TextTable};

fn main() {
    // No flags, but an unknown one still exits 2 and `--help` answers.
    let _ = Args::parse("");

    println!("Table I: Estimated FPGA block area for Zynq UltraScale+\n");
    let mut table = TextTable::new(vec!["Resource", "Relative Area (CLB)", "Tile Area (mm2)"]);
    table.add_row(vec![
        "CLB".into(),
        "1".into(),
        fmt_f(DEVICE.clb_area_mm2, 4),
    ]);
    table.add_row(vec![
        "BRAM - 36 Kbit".into(),
        fmt_f(DEVICE.bram_area_mm2 / DEVICE.clb_area_mm2, 0),
        fmt_f(DEVICE.bram_area_mm2, 3),
    ]);
    table.add_row(vec![
        "DSP".into(),
        fmt_f(DEVICE.dsp_area_mm2 / DEVICE.clb_area_mm2, 0),
        fmt_f(DEVICE.dsp_area_mm2, 3),
    ]);
    // Table I's total: the device's CLB-equivalents at a CLB's area.
    let clb_equivalents = DEVICE.total_clb_equivalents();
    table.add_row(vec![
        "Total".into(),
        format!("{clb_equivalents}"),
        fmt_f(clb_equivalents as f64 * DEVICE.clb_area_mm2, 0),
    ]);
    println!("{table}");

    let report = validate_area_model();
    println!(
        "Area-model validation vs {} reference compilations: mean {:.2}% / max {:.2}% error",
        report.samples, report.mean_abs_pct_error, report.max_abs_pct_error
    );
    println!("(paper: 1.6% average error against 10 full FPGA compilations)\n");

    let space = ConfigSpace::chaidnn();
    let config = space.get(space.len() - 1);
    let breakdown = area::breakdown(&config);
    println!("Component breakdown of the largest configuration ({config}):\n");
    let mut comp = TextTable::new(vec!["Component", "CLB", "BRAM", "DSP", "mm2"]);
    for (name, usage) in [
        ("conv engines", breakdown.conv_engines),
        ("pooling engine", breakdown.pooling_engine),
        ("buffers", breakdown.buffers),
        ("mem interface", breakdown.mem_interface),
        ("platform", breakdown.platform),
        ("total", breakdown.total()),
    ] {
        comp.add_row(vec![
            name.into(),
            usage.clbs.to_string(),
            usage.brams.to_string(),
            usage.dsps.to_string(),
            fmt_f(DEVICE.silicon_area_mm2(&usage), 1),
        ]);
    }
    println!("{comp}");

    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in space.iter() {
        let a = area::area_mm2(&c);
        lo = lo.min(a);
        hi = hi.max(a);
    }
    println!("Accelerator area range across all 8640 configs: {lo:.1} .. {hi:.1} mm2");
}
