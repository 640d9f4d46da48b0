//! Table III — hardware parameters of the best points found by Codesign-NAS.
//!
//! Prints the accelerator configurations of Cod-1 and Cod-2 (discovered by
//! the same deterministic §IV flow as `table2_best_points`), alongside the
//! baselines' best accelerators and the discovered CNN cell structures
//! (the Fig. 8 analog).
//!
//! Run: `cargo run --release -p codesign-bench --bin table3_hw_params`
//! Args: `[--quick] [--seed S]`

use codesign_accel::AcceleratorConfig;
use codesign_bench::Args;
use codesign_core::report::TextTable;
use codesign_core::{run_cifar100_codesign, table2_baselines, Cifar100Config};
use codesign_nasbench::CellSpec;

fn main() {
    let args = Args::parse("--quick, --seed S");
    let seed = args.get_u64("seed", 0);
    let config = if args.flag("quick") {
        Cifar100Config::quick(seed)
    } else {
        Cifar100Config {
            seed,
            ..Cifar100Config::default()
        }
    };
    println!("running the CIFAR-100 codesign flow (seed {seed})...");
    let result = run_cifar100_codesign(&config);
    let baselines = table2_baselines();
    let cod1 = result.best_against(&baselines[0]);
    let cod2 = result.most_efficient_against(&baselines[1]);

    println!("\nTable III: HW of best points found by Codesign-NAS\n");
    let mut table = TextTable::new(vec!["HW Parameter", "Cod-1", "Cod-2"]);
    let c1 = cod1.map(|p| p.config);
    let c2 = cod2.map(|p| p.config);
    let cell = |f: &dyn Fn(&AcceleratorConfig) -> String, c: Option<AcceleratorConfig>| {
        c.map_or_else(|| "-".to_owned(), |cfg| f(&cfg))
    };
    table.add_row(vec![
        "filter_par, pixel_par".into(),
        cell(&|c| format!("({}, {})", c.filter_par, c.pixel_par), c1),
        cell(&|c| format!("({}, {})", c.filter_par, c.pixel_par), c2),
    ]);
    table.add_row(vec![
        "buffer depths".into(),
        cell(
            &|c| {
                format!(
                    "({}K, {}K, {}K)",
                    c.input_buffer_depth / 1024,
                    c.weight_buffer_depth / 1024,
                    c.output_buffer_depth / 1024
                )
            },
            c1,
        ),
        cell(
            &|c| {
                format!(
                    "({}K, {}K, {}K)",
                    c.input_buffer_depth / 1024,
                    c.weight_buffer_depth / 1024,
                    c.output_buffer_depth / 1024
                )
            },
            c2,
        ),
    ]);
    table.add_row(vec![
        "mem_interface_width".into(),
        cell(&|c| c.mem_interface_width.to_string(), c1),
        cell(&|c| c.mem_interface_width.to_string(), c2),
    ]);
    table.add_row(vec![
        "pool_en".into(),
        cell(&|c| c.pool_enable.to_string(), c1),
        cell(&|c| c.pool_enable.to_string(), c2),
    ]);
    table.add_row(vec![
        "ratio_conv_engines".into(),
        cell(&|c| c.ratio_conv_engines.to_string(), c1),
        cell(&|c| c.ratio_conv_engines.to_string(), c2),
    ]);
    println!("{table}");

    for b in &baselines {
        println!("{} best accelerator: {}", b.name, b.config);
    }

    println!("\nDiscovered cells (Fig. 8 analog):");
    if let Some(p) = cod1 {
        print_cell("Cod-1", &p.cell);
    }
    if let Some(p) = cod2 {
        print_cell("Cod-2", &p.cell);
    }
}

fn print_cell(name: &str, cell: &CellSpec) {
    println!(
        "  {name}: {} vertices, {} edges, ops {:?}, input->output skip: {}",
        cell.num_vertices(),
        cell.num_edges(),
        cell.ops(),
        cell.has_input_output_skip()
    );
    for row in cell.matrix().to_rows() {
        let line: String = row
            .iter()
            .map(|&b| if b == 1 { '1' } else { '.' })
            .collect();
        println!("      {line}");
    }
}
