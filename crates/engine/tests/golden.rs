//! Golden digests: committed fingerprints of canonical campaign outputs.
//!
//! Each case runs a fixed campaign on the 4-vertex space over the three
//! paper presets, strips only the wall-clock fields (`wall_ms`, `wall_us`)
//! from its JSONL export, and compares the FNV-1a 64 digest of the rest
//! with a committed constant. Two more digests pin the bytes of the 16
//! `shard-NN.bin` files `save_sharded` writes from a campaign's cache, i.e.
//! the v4 on-disk format including the cell-feature section. A sixth
//! pins the exact Fig. 4 front of the 4-vertex space. Three more pin the
//! paper's hardware-side results: the Table II baselines, the quick §IV
//! flow, and the network latencies of the scheduler and its serial
//! baseline together with the §II-C latency validation. A tenth pins the
//! cell pipeline at seven vertices: decode, prune, hash, lowering and
//! scheduling of random genomes of the paper's space. The last two pin the
//! latency model over the whole configuration space: every op the searched
//! networks use, priced at every config, and the network latencies of the
//! 4- and 5-vertex spaces on both skeletons. A thirteenth pins the cell
//! enumerator: the canonical hash of every cell it yields at two to six
//! vertices, in order. A fourteenth runs the benchmark's resident-server
//! job shape on the 5-vertex space: random and NSGA-II at its default
//! population for 1,000 steps, long enough for many ranks, crowding ties
//! and fronts of about a hundred members. A fifteenth pins the area and
//! power models at every config, with the §II-C area validation. A
//! sixteenth pins the exact 4-vertex fronts in the axes of two-axis and
//! four-axis scenarios, where the sixth pins only the paper's three. A
//! seventeenth pins the CNN half over the 5-vertex census: the database's
//! stored columns, the trainer's answers and the cell features on both
//! skeletons, and the database's fingerprint.
//!
//! Campaigns run on one worker: with several, the order in which two
//! labellings of one cell reach the shared cache can differ between runs,
//! and their latencies differ (see "Known defects" in perfbench/README.md).
//!
//! A mismatch prints every actual digest. A change that moves results on
//! purpose re-pins the affected constants in the same commit and says why.

use std::sync::Arc;

use std::collections::HashSet;

use codesign_accel::latency::{op_latency_ns, primary_engine};
use codesign_accel::{
    area, power, schedule_serial, validate_area_model, validate_latency_model, AcceleratorConfig,
    ConfigSpace, Scheduler,
};
use codesign_core::{
    cell_feature_vec, enumerate_scenario_front, run_cifar100_codesign, table2_baselines,
    Cifar100Config, CodesignSpace, RewardShaping, ScenarioSpec, SurrogateConfig,
};
use codesign_engine::{Campaign, ShardedDriver, SharedEvalCache, StrategyKind, CACHE_SHARD_FILES};
use codesign_moo::DynParetoFront;
use codesign_nasbench::byteio::{fnv1a64, put_f64, put_u128, put_u64};
use codesign_nasbench::{
    enumerate_cells, known_cells, surrogate, CellFeatures, CellSpec, Dataset, Json,
    NasbenchDatabase, Network, OpId, OpInstance, SpecError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// (a) every strategy × seeds {0, 1}: the campaign's JSONL.
const STRATEGY_GRID_JSONL: u64 = 0x44a9_4ce8_3774_bc3a;
/// (d) the shard files of (a)'s cache.
const STRATEGY_GRID_SHARDS: u64 = 0x48e2_a5c6_fe8f_21a3;
/// (b) combined + nsga, seed 0, `hv:0.5` reward shaping: the JSONL.
const SHAPED_GRID_JSONL: u64 = 0xa0c2_c790_d04c_28b0;
/// (c) evolution + nsga, seed 0, `--surrogate 4:16`: the JSONL.
const GUIDED_GRID_JSONL: u64 = 0x24b6_04f3_fac5_4e72;
/// (d) the shard files of (c)'s cache, cell features included.
const GUIDED_GRID_SHARDS: u64 = 0x5064_04f7_d5da_aacb;
/// (e) the exact front of the 4-vertex space on the Unconstrained axes.
const FRONT_V4: u64 = 0xb532_8a44_52c2_8c9a;
/// (f) both Table II baseline rows: config, accuracy, latency, area.
const TABLE2_BASELINES: u64 = 0x2404_9926_eb70_0e6e;
/// (g) the quick §IV flow at seed 0: every stage and its top points.
const SECTION_IV_QUICK: u64 = 0xc335_326b_a75a_02f6;
/// (h) greedy and serial latencies of the named cells at three configs,
/// then the §II-C latency validation errors.
const SCHEDULES: u64 = 0x9489_2e87_a2b0_5a79;
/// (i) 20,000 random 7-vertex genomes: each decode outcome, pruned matrix,
/// lowered network and two network latencies.
const CELL_PIPELINE_V7: u64 = 0x224b_3b8e_7691_de1b;
/// (j) every op of the ≤5-vertex and (i)'s 7-vertex networks on both
/// skeletons, priced by the latency model at every config.
const OP_LATENCIES: u64 = 0xc6ee_0b32_efb2_00e9;
/// (k) the scheduler's latency of every 4-vertex network at every config,
/// and of every 5-vertex network at every 97th, on both skeletons.
const NETWORK_LATENCIES: u64 = 0x2315_3de6_5623_75db;
/// (l) the canonical hash of every cell `enumerate_cells` yields at 2 to 6
/// vertices, in its order.
const ENUMERATION_V6: u64 = 0x20af_389d_18cb_53d7;
/// (m) random + nsga at the default population, seeds {0, 1}, 1,000 steps
/// on the 5-vertex space: the JSONL.
const LONG_NSGA_V5_JSONL: u64 = 0xa0ff_75cc_a9c0_d2a6;
/// (n) every config's component resources, area and peak power, then the
/// §II-C area validation errors.
const HW_COSTS: u64 = 0x4516_2a3c_2b9a_04a8;
/// (o) the exact fronts of the 4-vertex space in the axes of both
/// scenarios of `examples/scenarios/custom.json` and of
/// acc/lat/area/power, one after the other.
const SCENARIO_FRONTS_V4: u64 = 0x64d1_3470_3bd4_4366;
/// (p) every cell of the 5-vertex census: its hash, stored accuracies and
/// training time, the trainer's answers and the cell features on both
/// skeletons; then the database's fingerprint.
const CNN_SURROGATE: u64 = 0x1798_f37f_5672_023b;

const STEPS: usize = 64;
const NSGA: StrategyKind = StrategyKind::Nsga { population: 16 };

fn campaign(strategies: Vec<StrategyKind>, seeds: Vec<u64>) -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(strategies)
        .seeds(seeds)
        .steps(STEPS)
}

/// Runs `campaign` on one worker into a fresh cache. Returns the digest
/// of its JSONL export without the wall-clock fields, and the cache.
fn run(campaign: &Campaign, db: &Arc<NasbenchDatabase>) -> (u64, Arc<SharedEvalCache>) {
    let cache = Arc::new(SharedEvalCache::new());
    let report = ShardedDriver::new(1)
        .with_cache(Arc::clone(&cache))
        .run(campaign, db);
    let mut jsonl = Vec::new();
    report.write_jsonl(&mut jsonl).expect("write jsonl");
    let mut stripped = String::new();
    for line in String::from_utf8(jsonl).expect("utf-8 jsonl").lines() {
        let mut record = Json::parse(line).expect("jsonl line parses");
        if let Json::Obj(fields) = &mut record {
            fields.retain(|(key, _)| key != "wall_ms" && key != "wall_us");
        }
        stripped.push_str(&record.to_string());
        stripped.push('\n');
    }
    (fnv1a64(stripped.as_bytes()), cache)
}

/// Digest of the shard files `save_sharded` writes from `cache`, read in
/// file-name order.
fn shard_files_digest(cache: &SharedEvalCache, salt: u64, tag: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("codesign_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache.save_sharded(&dir, salt).expect("save_sharded");
    let mut bytes = Vec::new();
    for index in 0..CACHE_SHARD_FILES {
        let name = format!("shard-{index:02}.bin");
        bytes.extend(std::fs::read(dir.join(name)).expect("read shard file"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    fnv1a64(&bytes)
}

/// Asserts every `(case, actual, expected)` digest, printing each
/// mismatch first so one run shows all the digests that moved.
fn check(digests: &[(&str, u64, u64)]) {
    let mut mismatches = 0;
    for &(case, actual, expected) in digests {
        if actual != expected {
            eprintln!("golden {case}: expected {expected:#018x}, actual {actual:#018x}");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "{mismatches} golden digest(s) moved");
}

#[test]
fn strategy_grid_and_its_shard_files() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let strategies = vec![
        StrategyKind::Separate,
        StrategyKind::Combined,
        StrategyKind::Phase,
        StrategyKind::Random,
        StrategyKind::Evolution,
        NSGA,
    ];
    let (jsonl, cache) = run(&campaign(strategies, vec![0, 1]), &db);
    let shards = shard_files_digest(&cache, db.fingerprint(), "strategy");
    check(&[
        ("strategy-grid jsonl", jsonl, STRATEGY_GRID_JSONL),
        ("strategy-grid shard files", shards, STRATEGY_GRID_SHARDS),
    ]);
}

#[test]
fn shaped_grid() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let shaped = campaign(vec![StrategyKind::Combined, NSGA], vec![0])
        .with_reward_shaping(RewardShaping::HypervolumeGradient { weight: 0.5 });
    let (jsonl, _) = run(&shaped, &db);
    check(&[("shaped-grid jsonl", jsonl, SHAPED_GRID_JSONL)]);
}

#[test]
fn guided_grid_and_its_shard_files() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let guided = campaign(vec![StrategyKind::Evolution, NSGA], vec![0]).with_surrogate(Some(
        SurrogateConfig {
            overproduce: 4,
            retrain: 16,
        },
    ));
    let (jsonl, cache) = run(&guided, &db);
    assert!(
        cache.feature_len() > 0,
        "guided caches record cell features"
    );
    let shards = shard_files_digest(&cache, db.fingerprint(), "guided");
    check(&[
        ("guided-grid jsonl", jsonl, GUIDED_GRID_JSONL),
        ("guided-grid shard files", shards, GUIDED_GRID_SHARDS),
    ]);
}

#[test]
fn long_random_and_nsga_grid_on_five_vertices() {
    let db = Arc::new(NasbenchDatabase::exhaustive(5));
    let nsga = StrategyKind::from_name("nsga").expect("a strategy name");
    let grid = Campaign::new(CodesignSpace::with_max_vertices(5))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(vec![StrategyKind::Random, nsga])
        .seeds(vec![0, 1])
        .steps(1000);
    let (jsonl, _) = run(&grid, &db);
    check(&[("long nsga grid v5 jsonl", jsonl, LONG_NSGA_V5_JSONL)]);
}

#[test]
fn exhaustive_front_on_the_unconstrained_axes() {
    let db = NasbenchDatabase::exhaustive(4);
    let scenario = ScenarioSpec::unconstrained().compile();
    let digest = |threads| {
        let front = enumerate_scenario_front(&db, &scenario, threads);
        assert_eq!(front.len(), 401);
        let mut bytes = Vec::new();
        put_front(&mut bytes, &front);
        fnv1a64(&bytes)
    };
    check(&[
        ("front at 1 thread", digest(1), FRONT_V4),
        ("front at 2 threads", digest(2), FRONT_V4),
    ]);
}

#[test]
fn exhaustive_fronts_in_two_and_four_axes() {
    let db = NasbenchDatabase::exhaustive(4);
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/custom.json"
    );
    let mut scenarios = ScenarioSpec::load_file(file).expect("custom.json loads");
    scenarios.push(ScenarioSpec::parse_compact("w=acc:1,lat:1,area:1,power:1").expect("valid"));
    let axes: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| s.compile().axis_schema().names().to_vec())
        .collect();
    assert_eq!(
        axes,
        [
            vec!["acc", "power"],
            vec!["perf_per_area", "acc"],
            vec!["acc", "lat", "area", "power"]
        ]
    );
    let digest = |threads| {
        let mut bytes = Vec::new();
        for scenario in &scenarios {
            put_front(
                &mut bytes,
                &enumerate_scenario_front(&db, &scenario.compile(), threads),
            );
        }
        fnv1a64(&bytes)
    };
    check(&[
        ("fronts at 1 thread", digest(1), SCENARIO_FRONTS_V4),
        ("fronts at 2 threads", digest(2), SCENARIO_FRONTS_V4),
    ]);
}

/// Appends each member of `front`, in the enumerator's `(cell_index,
/// config)` order: its metric bits, the cell index and the config's
/// decision indices.
fn put_front(bytes: &mut Vec<u8>, front: &DynParetoFront<(usize, AcceleratorConfig)>) {
    for (metrics, (cell_index, config)) in front.iter() {
        for &value in metrics {
            put_f64(bytes, value);
        }
        put_u64(bytes, *cell_index as u64);
        put_config(bytes, config);
    }
}

/// Appends `config`'s decision indices, one byte each.
fn put_config(bytes: &mut Vec<u8>, config: &AcceleratorConfig) {
    bytes.extend(ConfigSpace::chaidnn().encode(config).map(|i| i as u8));
}

#[test]
fn table2_baselines_and_the_section_iv_flow() {
    let mut table2 = Vec::new();
    for row in table2_baselines() {
        put_config(&mut table2, &row.config);
        put_f64(&mut table2, row.evaluation.accuracy);
        put_f64(&mut table2, row.evaluation.latency_ms);
        put_f64(&mut table2, row.evaluation.area_mm2);
    }
    assert_eq!(table2.len(), 64);

    let result = run_cifar100_codesign(&Cifar100Config::quick(0));
    let mut flow = Vec::new();
    for stage in &result.stages {
        put_f64(&mut flow, stage.threshold);
        put_u64(&mut flow, stage.steps as u64);
        put_u64(&mut flow, stage.valid_points as u64);
        for point in &stage.top_points {
            put_u128(&mut flow, point.cell.canonical_hash());
            put_config(&mut flow, &point.config);
            put_f64(&mut flow, point.evaluation.accuracy);
            put_f64(&mut flow, point.evaluation.latency_ms);
            put_f64(&mut flow, point.evaluation.area_mm2);
            put_u64(&mut flow, point.step as u64);
        }
    }
    put_u64(&mut flow, result.total_steps as u64);
    put_u64(&mut flow, result.models_trained as u64);
    put_f64(&mut flow, result.gpu_hours);
    check(&[
        ("table2 baselines", fnv1a64(&table2), TABLE2_BASELINES),
        ("section IV quick flow", fnv1a64(&flow), SECTION_IV_QUICK),
    ]);
}

#[test]
fn greedy_and_serial_schedules_and_the_latency_validation() {
    let space = ConfigSpace::chaidnn();
    let mut bytes = Vec::new();
    for (_, cell) in known_cells::all_named() {
        let network = Network::assemble(&cell, Dataset::Cifar10);
        for index in [0, 5000, 8639] {
            let config = space.get(index);
            put_f64(
                &mut bytes,
                Scheduler::new(config).network_latency_ms(&network),
            );
            put_f64(&mut bytes, schedule_serial(&config, &network));
        }
    }
    let validation = validate_latency_model();
    put_f64(&mut bytes, validation.mean_abs_pct_error);
    put_f64(&mut bytes, validation.max_abs_pct_error);
    assert_eq!(bytes.len(), 256);
    check(&[("schedules", fnv1a64(&bytes), SCHEDULES)]);
}

#[test]
fn area_and_power_over_the_config_space() {
    let mut bytes = Vec::new();
    for config in ConfigSpace::chaidnn().iter() {
        let breakdown = area::breakdown(&config);
        for usage in [
            breakdown.conv_engines,
            breakdown.pooling_engine,
            breakdown.buffers,
            breakdown.mem_interface,
            breakdown.platform,
        ] {
            put_u64(&mut bytes, usage.clbs);
            put_u64(&mut bytes, usage.brams);
            put_u64(&mut bytes, usage.dsps);
        }
        put_f64(&mut bytes, area::area_mm2(&config));
        let power = power::peak_power(&config);
        put_f64(&mut bytes, power.static_w);
        put_f64(&mut bytes, power.dynamic_w);
    }
    let validation = validate_area_model();
    put_f64(&mut bytes, validation.mean_abs_pct_error);
    put_f64(&mut bytes, validation.max_abs_pct_error);
    assert_eq!(bytes.len(), 1_244_176);
    check(&[("hw costs", fnv1a64(&bytes), HW_COSTS)]);
}

/// The decode outcomes of 20,000 random genomes of the paper's 7-vertex
/// space (seed 7): 14,795 of them are valid cells.
fn seven_vertex_decodes() -> impl Iterator<Item = Result<CellSpec, SpecError>> {
    let space = CodesignSpace::paper();
    let vocab = space.cnn().vocab_sizes();
    let mut rng = SmallRng::seed_from_u64(7);
    (0..20_000).map(move |_| {
        let genome: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
        space.cnn().decode(&genome)
    })
}

#[test]
fn decoded_lowered_and_scheduled_cells_at_seven_vertices() {
    let configs = ConfigSpace::chaidnn();
    let (fastest, slowest) = (configs.get(0), configs.get(8639));
    let mut digests = Vec::new();
    let mut valid = 0;
    for decoded in seven_vertex_decodes() {
        // Per genome: the error text, or the cell's hash, pruned matrix,
        // ops, lowered units and latencies at two configs.
        let mut bytes = Vec::new();
        match decoded {
            Err(err) => bytes.extend(format!("{err:?}").bytes()),
            Ok(cell) => {
                valid += 1;
                put_u128(&mut bytes, cell.canonical_hash());
                for row in cell.matrix().to_rows() {
                    bytes.extend(row);
                }
                bytes.extend(cell.ops().iter().map(|op| op.label()));
                let network = Network::assemble(&cell, Dataset::Cifar10);
                for unit in network.units() {
                    bytes.extend(unit.role.to_string().bytes());
                    put_u64(&mut bytes, unit.count as u64);
                    for node in unit.program.nodes() {
                        bytes.extend(format!("{:?}", node.op).bytes());
                        put_u64(&mut bytes, node.deps.len() as u64);
                        for dep in node.deps.iter() {
                            put_u64(&mut bytes, dep as u64);
                        }
                    }
                }
                for config in [fastest, slowest] {
                    let latency = Scheduler::new(config).network_latency_ms(&network);
                    put_f64(&mut bytes, latency);
                }
            }
        }
        put_u64(&mut digests, fnv1a64(&bytes));
    }
    assert_eq!(valid, 14_795);
    assert_eq!(digests.len(), 160_000);
    check(&[("cell pipeline v7", fnv1a64(&digests), CELL_PIPELINE_V7)]);
}

#[test]
fn op_and_network_latencies_over_the_config_space() {
    let datasets = [Dataset::Cifar10, Dataset::Cifar100];
    let (v4, v5) = (
        NasbenchDatabase::exhaustive(4),
        NasbenchDatabase::exhaustive(5),
    );
    let v7: Vec<CellSpec> = seven_vertex_decodes().filter_map(Result::ok).collect();
    assert_eq!(v7.len(), 14_795);

    // The distinct ops of every network below, in first-appearance order.
    let mut catalog: Vec<OpInstance> = Vec::new();
    let mut seen = HashSet::new();
    for dataset in datasets {
        for cell in v5.iter().map(|entry| &entry.spec).chain(&v7) {
            for unit in Network::assemble(cell, dataset).units() {
                for node in unit.program.nodes() {
                    if seen.insert(node.op) {
                        catalog.push(node.op);
                    }
                }
            }
        }
    }
    assert_eq!(catalog.len(), 112);
    let ids: HashSet<OpId> = catalog.iter().map(OpId::of).collect();
    assert_eq!(ids.len(), 112, "distinct ops get distinct ids");

    let space = ConfigSpace::chaidnn();
    let mut ops = Vec::new();
    for config in space.iter() {
        for op in &catalog {
            let engine = primary_engine(op, &config);
            put_f64(&mut ops, op_latency_ns(op, engine, &config));
        }
    }
    assert_eq!(ops.len(), 7_741_440);

    let mut networks = Vec::new();
    for dataset in datasets {
        let assemble = |db: &NasbenchDatabase| -> Vec<Network> {
            db.iter()
                .map(|entry| Network::assemble(&entry.spec, dataset))
                .collect()
        };
        let (nets4, nets5) = (assemble(&v4), assemble(&v5));
        for (index, config) in space.iter().enumerate() {
            let scheduler = Scheduler::new(config);
            let sampled: &[Network] = if index % 97 == 0 { &nets5 } else { &[] };
            for network in nets4.iter().chain(sampled) {
                put_f64(&mut networks, scheduler.network_latency_ms(network));
            }
        }
    }
    assert_eq!(networks.len(), 8 * 2_028_240);
    check(&[
        ("op latencies", fnv1a64(&ops), OP_LATENCIES),
        ("network latencies", fnv1a64(&networks), NETWORK_LATENCIES),
    ]);
}

#[test]
fn enumerated_cells_up_to_six_vertices() {
    let mut hashes = Vec::new();
    for (vertices, expected) in (2..=6).zip([1, 6, 84, 2_441, 62_010]) {
        let cells = enumerate_cells(vertices);
        assert_eq!(cells.len(), expected, "cells at {vertices} vertices");
        for cell in &cells {
            put_u128(&mut hashes, cell.canonical_hash());
        }
    }
    assert_eq!(hashes.len(), 1_032_672);
    check(&[("enumeration v6", fnv1a64(&hashes), ENUMERATION_V6)]);
}

#[test]
fn cnn_surrogate_over_the_five_vertex_census() {
    let db = NasbenchDatabase::exhaustive(5);
    let mut bytes = Vec::new();
    for entry in db.iter() {
        let cell = &entry.spec;
        put_u128(&mut bytes, cell.canonical_hash());
        for &accuracy in entry
            .cifar10_accuracy
            .iter()
            .chain(&entry.cifar100_accuracy)
        {
            put_f64(&mut bytes, accuracy);
        }
        put_f64(&mut bytes, entry.training_seconds);
        for dataset in [Dataset::Cifar10, Dataset::Cifar100] {
            let trained = surrogate::evaluate(cell, dataset);
            for &accuracy in &trained.accuracy {
                put_f64(&mut bytes, accuracy);
            }
            put_f64(&mut bytes, trained.training_seconds);
            let f = CellFeatures::extract(cell, dataset);
            for count in [
                f.num_vertices,
                f.num_edges,
                f.depth,
                f.width,
                f.conv3_count,
                f.conv1_count,
                f.pool_count,
                usize::from(f.has_skip),
            ] {
                put_u64(&mut bytes, count as u64);
            }
            put_u64(&mut bytes, f.macs);
            put_u64(&mut bytes, f.params);
            for value in cell_feature_vec(cell, dataset) {
                put_f64(&mut bytes, value);
            }
        }
    }
    put_u64(&mut bytes, db.fingerprint());
    assert_eq!(db.len(), 2_532);
    assert_eq!(bytes.len(), 2_532 * 456 + 8);
    check(&[("cnn surrogate", fnv1a64(&bytes), CNN_SURROGATE)]);
}
