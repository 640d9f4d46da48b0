//! Space statistics — the §II-C2 claim check and general census numbers.
//!
//! The paper states: "In our CNN search space, there are 85 unique variations
//! of convolutions, pooling and element-wise operations (different
//! input/filter sizes etc.)". This binary counts the unique op signatures
//! across our enumerated cell universe and prints the census (cells per
//! vertex count, op mix, parameter ranges) alongside it.
//!
//! Run: `cargo run --release -p codesign-bench --bin space_stats`
//! Args: `[--max-vertices V]`

use std::collections::HashMap;

use codesign_bench::Args;
use codesign_core::report::TextTable;
use codesign_nasbench::{enumerate_cells, Dataset, Network, OpInstance, OpKind};

fn main() {
    let args = Args::parse("--max-vertices V");
    let max_v = args.max_vertices(5);

    let mut census = TextTable::new(vec!["vertices", "unique cells"]);
    let mut all_ops: HashMap<OpInstance, usize> = HashMap::new();
    let mut total_cells = 0usize;
    for v in 2..=max_v {
        let cells = enumerate_cells(v);
        census.add_row(vec![v.to_string(), cells.len().to_string()]);
        total_cells += cells.len();
        for cell in &cells {
            let network = Network::assemble(cell, Dataset::Cifar10);
            for (op, count) in network.op_histogram() {
                *all_ops.entry(op).or_insert(0) += count;
            }
        }
    }
    println!("cell census up to {max_v} vertices ({total_cells} unique cells):\n{census}");

    let mut by_kind: HashMap<&'static str, usize> = HashMap::new();
    for op in all_ops.keys() {
        let kind = match op.kind {
            OpKind::Conv { kernel: 3, .. } => "conv3x3",
            OpKind::Conv { .. } => "conv1x1",
            OpKind::MaxPool { .. } => "maxpool",
            OpKind::GlobalAvgPool => "globalpool",
            OpKind::Dense => "dense",
            OpKind::Add { .. } => "add",
            OpKind::Concat { .. } => "concat",
        };
        *by_kind.entry(kind).or_insert(0) += 1;
    }
    let mut kinds = TextTable::new(vec!["op family", "unique variations"]);
    let mut names: Vec<&&str> = by_kind.keys().collect();
    names.sort();
    for name in names {
        kinds.add_row(vec![(*name).into(), by_kind[*name].to_string()]);
    }
    println!(
        "unique op variations across the space: {} (paper: 85 for the full 423k-cell space)\n",
        all_ops.len()
    );
    println!("{kinds}");

    let total_instances: usize = all_ops.values().sum();
    println!("total op instances across all networks: {total_instances}");
    let busiest = all_ops.iter().max_by_key(|(_, c)| **c);
    if let Some((op, count)) = busiest {
        println!("most common signature ({count} uses): {op:?}");
    }
}
