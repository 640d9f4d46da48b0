//! The evaluator of Fig. 1: proposals in, metrics out.
//!
//! Given a `(CNN, accelerator)` proposal the evaluator produces the three
//! §II-A quality metrics — accuracy of the CNN, silicon area of the
//! accelerator, and latency of the CNN *on* that accelerator. Accuracy comes
//! either from the precomputed database (the §III NASBench setting, where a
//! cell outside the benchmark is an invalid proposal) or from the surrogate
//! trainer (the §IV CIFAR-100 setting, where every new cell is "trained from
//! scratch" and its simulated GPU-time is accounted).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use codesign_accel::{area, power, AcceleratorConfig, ConfigSpace, Scheduler};
use codesign_nasbench::{surrogate, CellSpec, Dataset, NasbenchDatabase, Network, SpecError};

use crate::space::Proposal;

/// End-to-end latency of one pair resolution (shared-cache lookup through
/// metric computation), µs.
static EVAL_US: codesign_telemetry::Histogram = codesign_telemetry::Histogram::new("core.eval_us");
/// Pair resolutions attempted (cache hits included).
static EVALUATIONS: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("core.evaluations");

/// A pluggable pair memo keyed by `(canonical cell hash, accelerator
/// config)`: attached to an evaluator, it is where that evaluator looks
/// pairs up and stores them, in place of its private map.
///
/// Implementations are shared across evaluators (and threads — hence
/// `Send + Sync`), letting a whole campaign of searches reuse each other's
/// work. The evaluator salts `cell_hash` with its accuracy source, dataset
/// and class count before calling these methods, making every metric a
/// deterministic function of the key; a hit therefore returns bit-identical
/// values to a recomputation, so plugging a cache in never changes search
/// results — only their cost.
///
/// The engine crate provides the canonical implementation
/// (`codesign_engine::SharedEvalCache`, a sharded-mutex map with hit/miss
/// accounting).
pub trait EvalCache: Send + Sync {
    /// Returns the cached evaluation of the pair, if present.
    fn get(&self, cell_hash: u128, config: &AcceleratorConfig) -> Option<PairEvaluation>;

    /// Stores the evaluation of a valid pair.
    fn put(&self, cell_hash: u128, config: &AcceleratorConfig, eval: PairEvaluation);

    /// Stores the evaluation of a valid pair unless the cache holds one
    /// already, and returns the evaluation the cache keeps; the evaluator
    /// goes on with that value. When two evaluators miss one pair at once,
    /// both then use the first value stored, so a later hit returns a
    /// value some run used. The default stores through [`EvalCache::put`]
    /// and returns `eval`.
    fn put_or_get(
        &self,
        cell_hash: u128,
        config: &AcceleratorConfig,
        eval: PairEvaluation,
    ) -> PairEvaluation {
        self.put(cell_hash, config, eval);
        eval
    }

    /// Returns the cached accuracy of a cell, if present — the expensive
    /// half of an evaluation under the §IV trainer source, shared at cell
    /// granularity because accuracy is accelerator-independent.
    fn get_accuracy(&self, _cell_hash: u128) -> Option<f64> {
        None
    }

    /// Stores the accuracy of a cell.
    fn put_accuracy(&self, _cell_hash: u128, _accuracy: f64) {}

    /// Whether the cache wants [`EvalCache::put_cell_features`] calls —
    /// surrogate-guided campaigns turn this on so cold evaluations record
    /// the structural featurization alongside the metrics (the raw
    /// `CellSpec` is unrecoverable from a salted key). Defaults to `false`
    /// so plain caches pay nothing.
    fn wants_cell_features(&self) -> bool {
        false
    }

    /// Stores the structural cell features under the salted cell hash
    /// (no-op by default).
    fn put_cell_features(
        &self,
        _cell_hash: u128,
        _features: [f64; crate::surrogate::CELL_FEATURE_DIM],
    ) {
    }

    /// Deterministically-ordered `(features, targets)` training pairs from
    /// entries that were *preloaded* from disk (warm entries only — live
    /// entries written by concurrent shards are excluded so training sets
    /// are identical at any worker count). Empty by default.
    fn snapshot_labeled(&self) -> Vec<crate::surrogate::LabeledSample> {
        Vec::new()
    }
}

/// SplitMix64's output mix: scatters neighbouring inputs across the full
/// 64-bit range.
///
/// Campaign shards feed it `seed ^ f(grid position)`, so their RNG streams
/// are decorrelated even when the user's seed list is `[0, 1, 2]`, and
/// [`PairKey`] hashes itself with it.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of one memoized pair: a canonical cell hash (salted, in a
/// shared cache) and the config's flat index in [`ConfigSpace::chaidnn`].
///
/// A key takes 24 bytes and is hashed once, when it is made: 32 bits of
/// [`mix64`] of its fields fill what would be padding.
/// [`PairKey::lock_shard`] reads six of them and [`PairKeyHasher`] hands
/// them to the map, so neither hashes the key again. Keys order as
/// `(cell hash, config)` do, because flat-index order is config order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairKey {
    cell_hi: u64,
    cell_lo: u64,
    config: u32,
    /// `mix64` of the fields above, high half; a function of them, so it
    /// never decides an order or an equality.
    hash: u32,
}

impl PairKey {
    /// The number of lock shards [`PairKey::lock_shard`] spreads keys over.
    pub const LOCK_SHARDS: usize = 64;

    /// The key of `(cell_hash, config)`, or `None` when `config` is not in
    /// [`ConfigSpace::chaidnn`] (such a pair is not memoized).
    #[must_use]
    pub fn new(cell_hash: u128, config: &AcceleratorConfig) -> Option<Self> {
        let index = ConfigSpace::chaidnn().index_of(config)?;
        let config = u32::try_from(index).expect("the config space has under 2^32 members");
        #[allow(clippy::cast_possible_truncation)]
        let (cell_hi, cell_lo) = ((cell_hash >> 64) as u64, cell_hash as u64);
        #[allow(clippy::cast_possible_truncation)]
        let hash = (mix64(cell_lo ^ mix64(cell_hi ^ u64::from(config))) >> 32) as u32;
        Some(Self {
            cell_hi,
            cell_lo,
            config,
            hash,
        })
    }

    /// The cell hash the key was made from.
    #[must_use]
    pub fn cell_hash(&self) -> u128 {
        u128::from(self.cell_hi) << 64 | u128::from(self.cell_lo)
    }

    /// The config the key was made from.
    #[must_use]
    pub fn config(&self) -> AcceleratorConfig {
        ConfigSpace::chaidnn().get(self.config as usize)
    }

    /// The key's hash as a map reads it: the 32 stored bits, and bits 0–25
    /// of them again from bit 38 up. A SwissTable map (std's `HashMap`)
    /// picks the bucket from the low bits and a probe tag from the top
    /// seven, bits 19–25 of the stored hash; under 2^19 buckets the two
    /// share no bit with each other or with [`PairKey::lock_shard`].
    fn hash64(&self) -> u64 {
        let hash = u64::from(self.hash);
        hash | hash << 38
    }

    /// The lock shard of the key, below [`PairKey::LOCK_SHARDS`]: bits
    /// 26–31 of the stored hash, which no map probe reads, so the keys of
    /// one shard still spread over their map's buckets.
    #[must_use]
    pub fn lock_shard(&self) -> usize {
        (self.hash >> 26) as usize
    }
}

impl Hash for PairKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

/// The `Hasher` of [`PairKeyMap`]: passes a [`PairKey`]'s hash through,
/// so the map does not hash the key again.
///
/// The hash is unkeyed, unlike std's default, so whoever writes the keys
/// can make them collide. Keys come from this program's evaluations and
/// its own persisted caches, which are trusted like the metrics they hold.
#[derive(Debug, Default, Clone, Copy)]
pub struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PairKeyHasher only hashes PairKey, which writes one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by [`PairKey`], hashed once per access.
pub type PairKeyMap<V> = HashMap<PairKey, V, BuildHasherDefault<PairKeyHasher>>;

/// Where accuracies come from.
enum AccuracySource {
    /// Query the precomputed database's CIFAR-10 column; unknown cells are
    /// invalid proposals (the §III setting, mirroring NASBench membership).
    ///
    /// The database is behind an [`Arc`] so that fleets of evaluators — one
    /// per campaign shard — share a single copy: spinning an evaluator up is
    /// a refcount bump, never a deep clone of a 423k-cell table.
    Database(Arc<NasbenchDatabase>),
    /// Evaluate the surrogate trainer on the dataset on demand and account
    /// its simulated training cost (the §IV setting).
    Trainer(Dataset),
}

impl AccuracySource {
    /// The dataset whose accuracies the source answers, and whose
    /// classifier proposals are assembled with.
    fn dataset(&self) -> Dataset {
        match self {
            AccuracySource::Database(_) => Dataset::Cifar10,
            AccuracySource::Trainer(dataset) => *dataset,
        }
    }
}

impl std::fmt::Debug for AccuracySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccuracySource::Database(db) => {
                write!(f, "AccuracySource::Database({} cells)", db.len())
            }
            AccuracySource::Trainer(dataset) => {
                write!(f, "AccuracySource::Trainer({dataset:?})")
            }
        }
    }
}

/// Metrics of one valid model-accelerator pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEvaluation {
    /// Mean test accuracy of the CNN (0..1).
    pub accuracy: f64,
    /// Single-image latency on the proposed accelerator, ms.
    pub latency_ms: f64,
    /// Accelerator silicon area, mm².
    pub area_mm2: f64,
    /// Worst-case (fully-utilized) accelerator power draw, watts — Fig. 1
    /// lists power among the evaluator outputs; this is the
    /// `codesign_accel::power::peak_power` estimate, a deterministic
    /// function of the accelerator configuration.
    pub power_w: f64,
}

impl PairEvaluation {
    /// Performance per area, images/s/cm² (§IV's efficiency metric).
    #[must_use]
    pub fn perf_per_area(&self) -> f64 {
        (1000.0 / self.latency_ms) / (self.area_mm2 / 100.0)
    }
}

/// Outcome of evaluating one proposal.
#[derive(Debug, Clone)]
pub enum EvalOutcome {
    /// A valid pair with its metrics.
    Valid(PairEvaluation),
    /// The CNN decode failed structural validation.
    InvalidCnn(SpecError),
    /// The CNN is valid but absent from the accuracy database.
    UnknownCell,
}

impl EvalOutcome {
    /// The metrics, when valid.
    #[must_use]
    pub fn evaluation(&self) -> Option<&PairEvaluation> {
        match self {
            EvalOutcome::Valid(e) => Some(e),
            _ => None,
        }
    }
}

/// The Fig. 1 evaluator with memoization.
///
/// Each pair's metrics are memoized in one place — the attached
/// [`EvalCache`], or else a private map — and accuracy per cell, so a
/// 10,000-step search re-visits points for free, mirroring how the paper
/// re-reads NASBench rather than re-training revisited models. A miss
/// recomputes latency, area and peak power from the models.
pub struct Evaluator {
    accuracy: AccuracySource,
    accuracy_cache: HashMap<u128, f64>,
    /// The pair memo when no shared cache is attached. Two labellings of
    /// one cell share a canonical hash but may schedule to different
    /// latencies, so this map, keyed like the shared cache, makes a
    /// relabelled revisit answer the same with and without one.
    pairs: PairKeyMap<PairEvaluation>,
    /// Optional process-wide cache shared with other evaluators.
    shared_cache: Option<Arc<dyn EvalCache>>,
    /// Salt mixed into shared-cache keys so evaluators with different
    /// accuracy sources or datasets never collide.
    cache_salt: u128,
    /// Distinct cells resolved by this evaluator's own source (shared-cache
    /// hits excluded).
    resolved_cells: usize,
    /// Simulated GPU-seconds spent training distinct cells (§IV accounting).
    training_seconds: f64,
    evaluations: u64,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("accuracy", &self.accuracy)
            .field("evaluations", &self.evaluations)
            .field("distinct_cells", &self.accuracy_cache.len())
            .finish()
    }
}

impl Evaluator {
    /// Database-backed evaluator (the §III NASBench setting: CIFAR-10),
    /// taking ownership of the database. Prefer
    /// [`Evaluator::with_shared_database`] when several evaluators run
    /// against the same table.
    #[must_use]
    pub fn with_database(db: NasbenchDatabase) -> Self {
        Self::with_shared_database(Arc::new(db))
    }

    /// Database-backed evaluator sharing an existing [`Arc`]'d database —
    /// the construction campaign drivers use for every shard. Cloning the
    /// `Arc` only bumps a refcount; the cell table itself is never copied.
    #[must_use]
    pub fn with_shared_database(db: Arc<NasbenchDatabase>) -> Self {
        Self::new(AccuracySource::Database(db))
    }

    /// Trainer-backed evaluator (the §IV CIFAR-100 setting).
    #[must_use]
    pub fn with_trainer(dataset: Dataset) -> Self {
        Self::new(AccuracySource::Trainer(dataset))
    }

    fn new(accuracy: AccuracySource) -> Self {
        // Namespace shared-cache keys by everything the metrics depend on
        // that varies across constructors: the accuracy source kind and
        // its dataset, whose class count changes both the accuracy head
        // and the latency.
        let kind: u128 = match &accuracy {
            AccuracySource::Database(_) => 1,
            AccuracySource::Trainer(Dataset::Cifar10) => 2,
            AccuracySource::Trainer(Dataset::Cifar100) => 3,
        };
        let cache_salt = (kind << 64) | ((accuracy.dataset().num_classes() as u128) << 32);
        Self {
            accuracy,
            accuracy_cache: HashMap::new(),
            pairs: PairKeyMap::default(),
            shared_cache: None,
            cache_salt,
            resolved_cells: 0,
            training_seconds: 0.0,
            evaluations: 0,
        }
    }

    /// Attaches a process-wide cache, which then memoizes this evaluator's
    /// pairs in place of its private map.
    ///
    /// With a database accuracy source a hit is exactly equivalent to a
    /// recomputation. With a trainer source, a hit also skips the simulated
    /// training-time accounting — the cell was already "trained" by whoever
    /// populated the cache — so [`Evaluator::gpu_hours`] then reports only
    /// this evaluator's *new* training work.
    ///
    /// Keys are salted with the evaluator's accuracy-source kind and
    /// dataset, so one cache may safely back evaluators of different
    /// configurations — a CIFAR-10 evaluator never reads a
    /// CIFAR-100 evaluator's entries.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<dyn EvalCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// The attached shared cache, if any.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<dyn EvalCache>> {
        self.shared_cache.as_ref()
    }

    /// The shared accuracy database, when this evaluator is
    /// database-backed. Useful for asserting that evaluators share one
    /// allocation (`Arc::ptr_eq`) rather than holding copies.
    #[must_use]
    pub fn database(&self) -> Option<&Arc<NasbenchDatabase>> {
        match &self.accuracy {
            AccuracySource::Database(db) => Some(db),
            AccuracySource::Trainer(_) => None,
        }
    }

    /// The dataset accuracies come from, whose classifier proposals are
    /// assembled with: CIFAR-10 for a database-backed evaluator.
    #[must_use]
    pub fn dataset(&self) -> Dataset {
        self.accuracy.dataset()
    }

    /// Total proposals evaluated (including invalid ones).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Distinct cells whose accuracy is known to this evaluator (including
    /// cells answered by the shared cache).
    #[must_use]
    pub fn distinct_cells(&self) -> usize {
        self.accuracy_cache.len()
    }

    /// Distinct cells this evaluator resolved through its *own* source —
    /// under the trainer source, the cells it actually "trained".
    /// Shared-cache hits are excluded, matching [`Evaluator::gpu_hours`].
    #[must_use]
    pub fn resolved_cells(&self) -> usize {
        self.resolved_cells
    }

    /// Simulated GPU-hours spent on (distinct) model training so far.
    #[must_use]
    pub fn gpu_hours(&self) -> f64 {
        self.training_seconds / 3600.0
    }

    /// Evaluates a decoded proposal.
    pub fn evaluate(&mut self, proposal: &Proposal) -> EvalOutcome {
        self.evaluations += 1;
        let cell = match &proposal.cell {
            Ok(cell) => cell,
            Err(err) => return EvalOutcome::InvalidCnn(err.clone()),
        };
        match self.resolve_pair(cell, &proposal.config) {
            Some(eval) => EvalOutcome::Valid(eval),
            None => EvalOutcome::UnknownCell,
        }
    }

    /// Evaluates a known-valid `(cell, config)` pair directly.
    pub fn evaluate_pair(
        &mut self,
        cell: &CellSpec,
        config: &AcceleratorConfig,
    ) -> Option<PairEvaluation> {
        self.evaluations += 1;
        self.resolve_pair(cell, config)
    }

    /// Resolves the metrics of a structurally-valid pair: from the pair
    /// memo, or else from the accuracy source and the hardware models. A
    /// config outside [`ConfigSpace::chaidnn`] has no [`PairKey`], so its
    /// pairs are priced every time and never memoized.
    fn resolve_pair(
        &mut self,
        cell: &CellSpec,
        config: &AcceleratorConfig,
    ) -> Option<PairEvaluation> {
        EVALUATIONS.add(1);
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let eval = self.resolve_pair_untimed(cell, config);
        if let Some(t) = timer {
            EVAL_US.record_duration(t.elapsed());
        }
        eval
    }

    fn resolve_pair_untimed(
        &mut self,
        cell: &CellSpec,
        config: &AcceleratorConfig,
    ) -> Option<PairEvaluation> {
        let hash = cell.canonical_hash();
        let salted = hash ^ self.cache_salt;
        let memo = match &self.shared_cache {
            Some(shared) => shared.get(salted, config),
            None => PairKey::new(hash, config).and_then(|key| self.pairs.get(&key).copied()),
        };
        if memo.is_some() {
            return memo;
        }
        let accuracy = self.resolve_accuracy(cell)?;
        let network = Network::assemble(cell, self.dataset());
        let eval = PairEvaluation {
            accuracy,
            latency_ms: Scheduler::new(*config).network_latency_ms(&network),
            area_mm2: area::area_mm2(config),
            power_w: power::peak_power(config).total_w(),
        };
        match &self.shared_cache {
            Some(shared) => {
                if shared.wants_cell_features() {
                    shared.put_cell_features(
                        salted,
                        crate::surrogate::cell_feature_vec(cell, self.dataset()),
                    );
                }
                Some(shared.put_or_get(salted, config, eval))
            }
            None => {
                if let Some(key) = PairKey::new(hash, config) {
                    self.pairs.insert(key, eval);
                }
                Some(eval)
            }
        }
    }

    fn resolve_accuracy(&mut self, cell: &CellSpec) -> Option<f64> {
        let hash = cell.canonical_hash();
        if let Some(&acc) = self.accuracy_cache.get(&hash) {
            return Some(acc);
        }
        // A cell another evaluator already resolved is free — including its
        // simulated training time under the trainer source.
        if let Some(shared) = &self.shared_cache {
            if let Some(acc) = shared.get_accuracy(hash ^ self.cache_salt) {
                self.accuracy_cache.insert(hash, acc);
                return Some(acc);
            }
        }
        let (acc, train_secs) = match &self.accuracy {
            AccuracySource::Database(db) => {
                let entry = db.query_hash(hash).ok()?;
                (entry.mean_accuracy(Dataset::Cifar10), 0.0)
            }
            AccuracySource::Trainer(dataset) => {
                let eval = surrogate::evaluate(cell, *dataset);
                (eval.mean_accuracy(), eval.training_seconds)
            }
        };
        self.accuracy_cache.insert(hash, acc);
        self.resolved_cells += 1;
        if let Some(shared) = &self.shared_cache {
            shared.put_accuracy(hash ^ self.cache_salt, acc);
        }
        self.training_seconds += train_secs;
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CodesignSpace;
    use codesign_nasbench::known_cells;

    /// Peak power of `ConfigSpace::chaidnn().get(4321)` (see
    /// `power_metric_is_plumbed_and_pinned`).
    const PINNED_POWER_W_4321: f64 = 2.454975;

    /// Every cell up to 5 vertices: holds resnet and cod1.
    fn db_evaluator() -> Evaluator {
        Evaluator::with_database(NasbenchDatabase::exhaustive(5))
    }

    fn some_config() -> AcceleratorConfig {
        codesign_accel::ConfigSpace::chaidnn().get(4321)
    }

    #[test]
    fn database_evaluator_resolves_known_cells() {
        let mut ev = db_evaluator();
        let e = ev
            .evaluate_pair(&known_cells::resnet_cell(), &some_config())
            .expect("resnet is always in the database");
        assert!(e.accuracy > 0.9);
        assert!(e.latency_ms > 0.0 && e.area_mm2 > 0.0);
    }

    #[test]
    fn database_evaluator_rejects_unknown_cells() {
        // A database that holds no 7-vertex cell.
        let mut ev = Evaluator::with_database(NasbenchDatabase::exhaustive(4));
        let space = CodesignSpace::paper();
        let mut actions = space.cnn().encode(&known_cells::googlenet_cell());
        // Perturb one op: still a valid 7-vertex cell, so absent.
        actions[22] = (actions[22] + 1) % 3;
        let cnn = space.cnn().decode(&actions).unwrap();
        assert_eq!(cnn.num_vertices(), 7);
        assert!(ev.evaluate_pair(&cnn, &some_config()).is_none());
    }

    #[test]
    fn trainer_evaluator_accounts_gpu_time_once_per_cell() {
        let mut ev = Evaluator::with_trainer(Dataset::Cifar100);
        let cfg = some_config();
        assert_eq!(ev.gpu_hours(), 0.0);
        ev.evaluate_pair(&known_cells::resnet_cell(), &cfg);
        let after_one = ev.gpu_hours();
        assert!(after_one > 0.2, "about a GPU-hour, got {after_one}");
        // Re-evaluating the same cell (even on new hardware) costs nothing.
        let cfg2 = codesign_accel::ConfigSpace::chaidnn().get(1);
        ev.evaluate_pair(&known_cells::resnet_cell(), &cfg2);
        assert_eq!(ev.gpu_hours(), after_one);
        assert_eq!(ev.distinct_cells(), 1);
    }

    /// A cache whose lookups miss while its slot already holds `held`: the
    /// state another evaluator leaves when it stores the pair between this
    /// one's miss and its put.
    struct RacedCache {
        held: PairEvaluation,
    }

    impl EvalCache for RacedCache {
        fn get(&self, _: u128, _: &AcceleratorConfig) -> Option<PairEvaluation> {
            None
        }

        fn put(&self, _: u128, _: &AcceleratorConfig, _: PairEvaluation) {}

        fn put_or_get(&self, _: u128, _: &AcceleratorConfig, _: PairEvaluation) -> PairEvaluation {
            self.held
        }
    }

    #[test]
    fn a_racing_miss_uses_the_value_the_cache_keeps() {
        let held = PairEvaluation {
            accuracy: 0.5,
            latency_ms: 1.0,
            area_mm2: 2.0,
            power_w: 3.0,
        };
        let cell = known_cells::resnet_cell();
        let own = Evaluator::with_trainer(Dataset::Cifar10)
            .evaluate_pair(&cell, &some_config())
            .expect("trained");
        assert_ne!(own, held);
        let mut ev = Evaluator::with_trainer(Dataset::Cifar10)
            .with_shared_cache(Arc::new(RacedCache { held }));
        assert_eq!(ev.evaluate_pair(&cell, &some_config()), Some(held));
    }

    #[test]
    fn metrics_vector_matches_eq4_signs() {
        let e = PairEvaluation {
            accuracy: 0.93,
            latency_ms: 50.0,
            area_mm2: 120.0,
            power_w: 4.5,
        };
        let unconstrained = crate::ScenarioSpec::unconstrained().compile();
        assert_eq!(
            unconstrained.metric_point(&e).as_slice(),
            [-120.0, -50.0, 0.93]
        );
    }

    #[test]
    fn power_metric_is_plumbed_and_pinned() {
        // The evaluator's power figure is the deterministic peak-power
        // estimate of the configuration; pin one known config so the model
        // (and its constants) cannot drift silently.
        let mut ev = db_evaluator();
        let config = some_config();
        let e = ev
            .evaluate_pair(&known_cells::resnet_cell(), &config)
            .expect("resnet is always in the database");
        let expected = power::peak_power(&config).total_w();
        assert!(e.power_w > 0.0);
        assert_eq!(e.power_w.to_bits(), expected.to_bits());
        // Numeric pin for ConfigSpace::chaidnn().get(4321): single-digit
        // watts, the CHaiDNN-class regime.
        assert!(
            (e.power_w - PINNED_POWER_W_4321).abs() < 1e-9,
            "power for config 4321 drifted: {} W",
            e.power_w
        );
    }

    #[test]
    fn perf_per_area_matches_table2_formula() {
        let e = PairEvaluation {
            accuracy: 0.729,
            latency_ms: 42.0,
            area_mm2: 186.0,
            power_w: 6.0,
        };
        assert!((e.perf_per_area() - 12.8).abs() < 0.1);
    }

    #[test]
    fn perf_per_area_formula_matches_table2_rows() {
        // GoogLeNet row: 19.3 ms at 132 mm^2 -> 39.3 img/s/cm^2.
        let e = PairEvaluation {
            accuracy: 0.729,
            latency_ms: 19.3,
            area_mm2: 132.0,
            power_w: 6.0,
        };
        assert!((e.perf_per_area() - 39.3).abs() < 0.3);
    }

    #[test]
    fn invalid_cnn_outcome_carries_the_error() {
        let mut ev = db_evaluator();
        let space = CodesignSpace::with_max_vertices(4);
        let mut actions = vec![0usize; space.cnn().vocab_sizes().len()];
        actions.extend([0, 0, 0, 0, 0, 0, 0, 0]);
        let proposal = space.decode(&actions);
        match ev.evaluate(&proposal) {
            EvalOutcome::InvalidCnn(err) => {
                assert_eq!(err, SpecError::Disconnected);
            }
            other => panic!("expected InvalidCnn, got {other:?}"),
        }
    }

    #[test]
    fn shared_database_is_refcounted_not_cloned() {
        let db = Arc::new(NasbenchDatabase::exhaustive(3));
        assert_eq!(Arc::strong_count(&db), 1);
        let a = Evaluator::with_shared_database(Arc::clone(&db));
        let b = Evaluator::with_shared_database(Arc::clone(&db));
        assert_eq!(Arc::strong_count(&db), 3);
        assert!(Arc::ptr_eq(a.database().unwrap(), b.database().unwrap()));
        drop(a);
        drop(b);
        assert_eq!(Arc::strong_count(&db), 1);
    }

    #[test]
    fn shared_cache_salts_are_pinned() {
        // Persisted caches and every evaluator sharing one cache key pairs
        // by these salts: the source kind above bit 64, the class count
        // above bit 32.
        let database = Evaluator::with_database(NasbenchDatabase::exhaustive(2));
        let cifar10 = Evaluator::with_trainer(Dataset::Cifar10);
        let cifar100 = Evaluator::with_trainer(Dataset::Cifar100);
        assert_eq!(database.cache_salt, 0x1_0000_000a_0000_0000);
        assert_eq!(cifar10.cache_salt, 0x2_0000_000a_0000_0000);
        assert_eq!(cifar100.cache_salt, 0x3_0000_0064_0000_0000);
    }

    #[test]
    fn caching_is_transparent() {
        let mut ev = db_evaluator();
        let cfg = some_config();
        let a = ev.evaluate_pair(&known_cells::cod1_cell(), &cfg).unwrap();
        let b = ev.evaluate_pair(&known_cells::cod1_cell(), &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(ev.evaluations(), 2);
    }
}
