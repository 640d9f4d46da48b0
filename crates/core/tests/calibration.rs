//! Calibration of the accelerator models against Table II of the paper.
//!
//! Table II (baseline rows):
//!   ResNet cell:    42.0 ms, 186 mm^2, 12.8 img/s/cm^2 on its best accelerator
//!   GoogLeNet cell: 19.3 ms, 132 mm^2, 39.3 img/s/cm^2 on its best accelerator
//!
//! Absolute numbers from an analytical substitute cannot match a measured
//! board exactly; these tests pin the *shape*: latency ordering, area
//! regime, and perf/area ratios within generous bands. The `print_calibration`
//! test (ignored by default) dumps the full calibration table.

use codesign_core::{baseline_row, BaselineRow};
use codesign_nasbench::{known_cells, CellSpec, Dataset};

fn best(name: &str, cell: CellSpec) -> BaselineRow {
    baseline_row(name, cell, Dataset::Cifar100)
}

#[test]
fn table2_baseline_shape() {
    let r = best("resnet", known_cells::resnet_cell()).evaluation;
    let g = best("googlenet", known_cells::googlenet_cell()).evaluation;
    // Latency ordering and rough factor (paper: 42.0 vs 19.3 ms => 2.2x).
    assert!(
        r.latency_ms > 1.25 * g.latency_ms,
        "resnet {} ms vs googlenet {} ms",
        r.latency_ms,
        g.latency_ms
    );
    // Perf/area ordering and rough factor (paper: 12.8 vs 39.3 => 3.1x).
    assert!(
        g.perf_per_area() > 2.0 * r.perf_per_area(),
        "googlenet {} vs resnet {}",
        g.perf_per_area(),
        r.perf_per_area()
    );
    // Latency bands (paper: 42 / 19.3 ms).
    assert!(
        (20.0..=90.0).contains(&r.latency_ms),
        "resnet best latency {}",
        r.latency_ms
    );
    assert!(
        (7.0..=45.0).contains(&g.latency_ms),
        "googlenet best latency {}",
        g.latency_ms
    );
}

#[test]
#[ignore = "diagnostic: prints the full calibration table"]
fn print_calibration() {
    for (name, cell) in known_cells::all_named() {
        let b = best(name, cell);
        println!(
            "{name:>10}: {:6.1} ms  {:6.1} mm^2  {:6.1} img/s/cm^2  config {}",
            b.evaluation.latency_ms,
            b.evaluation.area_mm2,
            b.evaluation.perf_per_area(),
            b.config
        );
    }
}
