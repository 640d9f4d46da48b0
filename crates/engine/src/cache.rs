//! The process-wide shared evaluation cache.
//!
//! One `(canonical cell hash, accelerator config)` key maps to the full
//! [`PairEvaluation`]; all three metrics are deterministic functions of the
//! key, so a hit is bit-identical to a recomputation and sharing the cache
//! across concurrent searches never changes any search's results — only
//! how much work the campaign does.
//!
//! The key is a [`PairKey`]: the cell hash and the config's flat index in
//! `ConfigSpace::chaidnn()`, 24 bytes, hashed once when it is made, so a
//! map entry takes 64 bytes. A config outside that space has no key and
//! is never stored; its lookups miss.
//!
//! Lock contention is kept low by splitting the map into 64 independently
//! locked shards, picked by six bits of the key's hash, so worker threads
//! rarely collide.
//!
//! Entries carry a *warm* flag: entries preloaded from a persisted cache
//! file (see [`SharedEvalCache::load`] in the `persist` module) are warm,
//! entries computed during the current process are cold. The split shows up
//! in [`CacheStats`] and in per-shard accounting through
//! [`ShardCacheView`], which is what lets a warm-started campaign report
//! how much work the previous invocation saved it.
//!
//! The cache keeps every entry it is given: attached to an evaluator, it
//! is that evaluator's only pair memo. A live put never replaces a stored
//! value ([`EvalCache::put_or_get`]): when two workers miss one pair at
//! once, both go on with the value the first one stored.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use codesign_accel::AcceleratorConfig;
use codesign_core::{
    features_with_config, EvalCache, LabeledSample, PairEvaluation, PairKey, PairKeyMap,
    CELL_FEATURE_DIM,
};

/// Independently locked shards of each map. A pair's shard is
/// [`PairKey::lock_shard`], six bits of its hash; a cell's is its hash's
/// low six bits.
const SHARDS: usize = PairKey::LOCK_SHARDS;

/// Telemetry: pair lookups answered from the cache.
static TM_HITS: codesign_telemetry::Counter = codesign_telemetry::Counter::new("cache.pair_hits");
/// Telemetry: pair lookups answered by preloaded (warm) entries.
static TM_WARM_HITS: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.warm_hits");
/// Telemetry: pair lookups that missed.
static TM_MISSES: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.pair_misses");
/// Telemetry: per-cell accuracy lookups answered from the cache.
static TM_ACC_HITS: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.accuracy_hits");
/// Telemetry: per-cell accuracy lookups that missed.
static TM_ACC_MISSES: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.accuracy_misses");
/// Telemetry: time spent acquiring a map-shard lock (contention), µs.
static TM_LOCK_WAIT_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("cache.lock_wait_us");
/// Telemetry: end-to-end pair lookup latency (lock + probe), µs.
static TM_LOOKUP_US: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("cache.lookup_us");

/// A snapshot of the cache's accounting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Pair lookups answered from the cache.
    pub hits: u64,
    /// Pair lookups answered by entries preloaded from a persisted cache
    /// (always `<= hits`).
    pub warm_hits: u64,
    /// Pair lookups that missed.
    pub misses: u64,
    /// Pair entries newly stored this process (re-insertions of an existing
    /// key and preloaded entries don't count).
    pub inserts: u64,
    /// Pair entries preloaded from a persisted cache file.
    pub preloaded: u64,
    /// Pair entries currently stored.
    pub entries: usize,
    /// Per-cell accuracy lookups answered from the cache.
    pub accuracy_hits: u64,
    /// Per-cell accuracy lookups answered by preloaded entries.
    pub accuracy_warm_hits: u64,
    /// Per-cell accuracy lookups that missed.
    pub accuracy_misses: u64,
    /// Per-cell accuracy entries currently stored.
    pub accuracy_entries: usize,
}

impl CacheStats {
    /// Fraction of pair lookups answered from the cache (0 when none
    /// happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of per-cell accuracy lookups answered from the cache.
    #[must_use]
    pub fn accuracy_hit_rate(&self) -> f64 {
        let total = self.accuracy_hits + self.accuracy_misses;
        if total == 0 {
            0.0
        } else {
            self.accuracy_hits as f64 / total as f64
        }
    }

    /// Total lookups answered by preloaded (persisted) entries, across both
    /// the pair and the per-cell accuracy maps — the headline number of a
    /// warm-started campaign.
    #[must_use]
    pub fn total_warm_hits(&self) -> u64 {
        self.warm_hits + self.accuracy_warm_hits
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pair entries ({} preloaded), {} hits / {} misses ({:.1}% hit rate), \
             warm hits: {}; {} cell accuracies, {:.1}% hit rate",
            self.entries,
            self.preloaded,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.total_warm_hits(),
            self.accuracy_entries,
            self.accuracy_hit_rate() * 100.0
        )
    }
}

/// One stored value plus its provenance.
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    value: V,
    /// `true` when the entry was preloaded from a persisted cache file.
    warm: bool,
}

// A pair entry, as the map stores it: a 24-byte key and a 40-byte slot.
const _: () = assert!(std::mem::size_of::<(PairKey, Slot<PairEvaluation>)>() <= 64);

/// The shard of a per-cell map that holds `cell_hash`.
fn cell_shard(cell_hash: u128) -> usize {
    (cell_hash % SHARDS as u128) as usize
}

/// Stores `value` under `key` and returns the value the map keeps and
/// whether the key is new.
///
/// A live put (`warm == false`) leaves a taken slot as it is: when two
/// workers miss one pair at once, both use the first value stored, so a
/// later hit never returns a value that no run used. A preloaded value
/// replaces the stored one, keeping the entry's provenance, so a sync
/// converges on the values its directory holds.
fn insert_slot<K: Hash + Eq, V: Copy, S: BuildHasher>(
    map: &mut HashMap<K, Slot<V>, S>,
    key: K,
    value: V,
    warm: bool,
) -> (V, bool) {
    match map.entry(key) {
        Entry::Occupied(mut entry) => {
            if warm {
                entry.get_mut().value = value;
            }
            (entry.get().value, false)
        }
        Entry::Vacant(entry) => {
            entry.insert(Slot { value, warm });
            (value, true)
        }
    }
}

/// A sharded-mutex `(cell, accelerator) -> metrics` map shared by every
/// evaluator in a campaign.
///
/// # Examples
///
/// ```
/// use codesign_engine::SharedEvalCache;
/// use codesign_core::{EvalCache, PairEvaluation};
/// use codesign_accel::ConfigSpace;
///
/// let cache = SharedEvalCache::new();
/// let config = ConfigSpace::chaidnn().get(17);
/// let eval = PairEvaluation {
///     accuracy: 0.93,
///     latency_ms: 40.0,
///     area_mm2: 120.0,
///     power_w: 4.2,
/// };
/// assert!(cache.get(7, &config).is_none());
/// cache.put(7, &config, eval);
/// assert_eq!(cache.get(7, &config), Some(eval));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct SharedEvalCache {
    /// Picked by [`PairKey::lock_shard`], the hash of the whole key. A
    /// variant that picked it from the cell hash alone, as the per-cell maps
    /// do, put every config of a cell in one shard and raised the serve-mix
    /// benchmark's peak RSS from 100–101 MB to 113–115 MB (release build,
    /// 2 vCPUs).
    shards: [Mutex<PairKeyMap<Slot<PairEvaluation>>>; SHARDS],
    accuracy_shards: [Mutex<HashMap<u128, Slot<f64>>>; SHARDS],
    /// Per-cell structural featurizations keyed by salted cell hash —
    /// written on cold evaluations when [`SharedEvalCache::set_record_features`]
    /// is on (surrogate-guided campaigns), persisted alongside the metric
    /// entries, and joined with *warm* pair entries by
    /// [`EvalCache::snapshot_labeled`].
    feature_shards: [Mutex<HashMap<u128, [f64; CELL_FEATURE_DIM]>>; SHARDS],
    /// Whether evaluators should record cell features on cold computes.
    record_features: AtomicBool,
    /// Names of the scenarios whose campaigns populated this cache —
    /// informational provenance carried through persistence. Entries are
    /// scenario-independent (keyed by `(cell, config)` only); the list
    /// records *which sweeps paid* for them.
    provenance: Mutex<Vec<String>>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    preloaded: AtomicU64,
    accuracy_hits: AtomicU64,
    accuracy_warm_hits: AtomicU64,
    accuracy_misses: AtomicU64,
}

impl Default for SharedEvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedEvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::default()),
            accuracy_shards: std::array::from_fn(|_| Mutex::default()),
            feature_shards: std::array::from_fn(|_| Mutex::default()),
            record_features: AtomicBool::new(false),
            provenance: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
            accuracy_hits: AtomicU64::new(0),
            accuracy_warm_hits: AtomicU64::new(0),
            accuracy_misses: AtomicU64::new(0),
        }
    }

    /// Total entries currently stored (sums across shards; O(shards)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Returns `true` when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters plus the current entry counts.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
            entries: self.len(),
            accuracy_hits: self.accuracy_hits.load(Ordering::Relaxed),
            accuracy_warm_hits: self.accuracy_warm_hits.load(Ordering::Relaxed),
            accuracy_misses: self.accuracy_misses.load(Ordering::Relaxed),
            accuracy_entries: self
                .accuracy_shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len())
                .sum(),
        }
    }

    /// A pair lookup that also reports whether the hit came from a
    /// preloaded (warm) entry. Counts into the cache-wide statistics; a
    /// config outside `ConfigSpace::chaidnn()` counts as a miss.
    pub fn get_flagged(
        &self,
        cell_hash: u128,
        config: &AcceleratorConfig,
    ) -> Option<(PairEvaluation, bool)> {
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let found = PairKey::new(cell_hash, config).and_then(|key| {
            let guard = self.shards[key.lock_shard()]
                .lock()
                .expect("cache shard poisoned");
            if let Some(t) = timer {
                TM_LOCK_WAIT_US.record_duration(t.elapsed());
            }
            guard.get(&key).map(|slot| (slot.value, slot.warm))
        });
        if let Some(t) = timer {
            TM_LOOKUP_US.record_duration(t.elapsed());
        }
        match found {
            Some((eval, warm)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                TM_HITS.add(1);
                if warm {
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                    TM_WARM_HITS.add(1);
                }
                Some((eval, warm))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                TM_MISSES.add(1);
                None
            }
        }
    }

    /// An accuracy lookup that also reports warm provenance.
    pub fn get_accuracy_flagged(&self, cell_hash: u128) -> Option<(f64, bool)> {
        let found = self.accuracy_shards[cell_shard(cell_hash)]
            .lock()
            .expect("cache shard poisoned")
            .get(&cell_hash)
            .map(|slot| (slot.value, slot.warm));
        match found {
            Some((acc, warm)) => {
                self.accuracy_hits.fetch_add(1, Ordering::Relaxed);
                TM_ACC_HITS.add(1);
                if warm {
                    self.accuracy_warm_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some((acc, warm))
            }
            None => {
                self.accuracy_misses.fetch_add(1, Ordering::Relaxed);
                TM_ACC_MISSES.add(1);
                None
            }
        }
    }

    /// Stores a pair entry (see [`insert_slot`]) and returns the value the
    /// cache keeps.
    fn insert_pair(&self, key: PairKey, eval: PairEvaluation, warm: bool) -> PairEvaluation {
        let mut shard = self.shards[key.lock_shard()]
            .lock()
            .expect("cache shard poisoned");
        let (kept, inserted) = insert_slot(&mut shard, key, eval, warm);
        drop(shard);
        if inserted {
            let counter = if warm { &self.preloaded } else { &self.inserts };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        kept
    }

    fn insert_accuracy(&self, cell_hash: u128, accuracy: f64, warm: bool) {
        let mut shard = self.accuracy_shards[cell_shard(cell_hash)]
            .lock()
            .expect("cache shard poisoned");
        insert_slot(&mut shard, cell_hash, accuracy, warm);
    }

    /// Records scenario names into the cache's provenance (deduplicated,
    /// kept sorted so persistence is deterministic).
    pub fn note_scenarios<I>(&self, names: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut provenance = self.provenance.lock().expect("provenance poisoned");
        for name in names {
            let name = name.into();
            if !provenance.contains(&name) {
                provenance.push(name);
            }
        }
        provenance.sort_unstable();
    }

    /// The scenario names recorded by [`SharedEvalCache::note_scenarios`]
    /// (including names reloaded from a persisted cache), sorted.
    #[must_use]
    pub fn provenance(&self) -> Vec<String> {
        self.provenance.lock().expect("provenance poisoned").clone()
    }

    /// Stores a pair entry preloaded from a persisted cache (warm).
    pub(crate) fn put_preloaded(&self, key: PairKey, eval: PairEvaluation) {
        self.insert_pair(key, eval, true);
    }

    /// Stores an accuracy entry preloaded from a persisted cache (warm).
    pub(crate) fn put_accuracy_preloaded(&self, cell_hash: u128, accuracy: f64) {
        self.insert_accuracy(cell_hash, accuracy, true);
    }

    /// Every stored pair entry, sorted by key: one copy of each, in a `Vec`
    /// of exactly their number. Every shard stays locked while it is
    /// filled, so the count cannot move under it.
    pub(crate) fn sorted_pairs(&self) -> Vec<(PairKey, PairEvaluation)> {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned"))
            .collect();
        let mut pairs = Vec::with_capacity(guards.iter().map(|g| g.len()).sum());
        for guard in &guards {
            pairs.extend(guard.iter().map(|(key, slot)| (*key, slot.value)));
        }
        drop(guards);
        pairs.sort_unstable_by_key(|&(key, _)| key);
        pairs
    }

    /// Calls `f` on every stored pair entry, in no particular order,
    /// holding one lock shard at a time.
    pub(crate) fn for_each_pair(&self, mut f: impl FnMut(&PairKey, &PairEvaluation)) {
        for shard in &self.shards {
            for (key, slot) in shard.lock().expect("cache shard poisoned").iter() {
                f(key, &slot.value);
            }
        }
    }

    /// Calls `f` on every stored per-cell accuracy entry, in no particular
    /// order, holding one lock shard at a time.
    pub(crate) fn for_each_accuracy(&self, mut f: impl FnMut(u128, f64)) {
        for shard in &self.accuracy_shards {
            for (hash, slot) in shard.lock().expect("cache shard poisoned").iter() {
                f(*hash, slot.value);
            }
        }
    }

    /// Every stored per-cell accuracy entry, unordered.
    pub(crate) fn snapshot_accuracies(&self) -> Vec<(u128, f64)> {
        let mut accuracies = Vec::new();
        self.for_each_accuracy(|hash, accuracy| accuracies.push((hash, accuracy)));
        accuracies
    }

    /// Turns on (or off) cell-feature recording: while on, evaluators that
    /// compute a cold pair entry also store the cell's structural feature
    /// vector, which surrogate guides later join with the metric entries.
    /// Campaign drivers enable this exactly when a surrogate is configured,
    /// so unguided campaigns pay nothing.
    pub fn set_record_features(&self, record: bool) {
        self.record_features.store(record, Ordering::Relaxed);
    }

    /// Total cell-feature rows currently stored (sums across shards).
    #[must_use]
    pub fn feature_len(&self) -> usize {
        self.feature_shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    fn insert_features(&self, cell_hash: u128, features: [f64; CELL_FEATURE_DIM]) {
        self.feature_shards[cell_shard(cell_hash)]
            .lock()
            .expect("cache shard poisoned")
            .insert(cell_hash, features);
    }

    /// Stores a cell-feature row preloaded from a persisted cache.
    pub(crate) fn put_features_preloaded(
        &self,
        cell_hash: u128,
        features: [f64; CELL_FEATURE_DIM],
    ) {
        self.insert_features(cell_hash, features);
    }

    /// Calls `f` on every stored cell-feature row, in no particular order,
    /// holding one lock shard at a time.
    pub(crate) fn for_each_features(&self, mut f: impl FnMut(u128, &[f64; CELL_FEATURE_DIM])) {
        for shard in &self.feature_shards {
            for (hash, features) in shard.lock().expect("cache shard poisoned").iter() {
                f(*hash, features);
            }
        }
    }

    /// Every stored cell-feature row, unordered (persistence sorts them).
    pub(crate) fn snapshot_features(&self) -> Vec<(u128, [f64; CELL_FEATURE_DIM])> {
        let mut rows = Vec::new();
        self.for_each_features(|hash, features| rows.push((hash, *features)));
        rows
    }
}

impl EvalCache for SharedEvalCache {
    fn get(&self, cell_hash: u128, config: &AcceleratorConfig) -> Option<PairEvaluation> {
        self.get_flagged(cell_hash, config).map(|(eval, _)| eval)
    }

    /// Stores the pair, unless the cache holds it already or its config
    /// is outside `ConfigSpace::chaidnn()`.
    fn put(&self, cell_hash: u128, config: &AcceleratorConfig, eval: PairEvaluation) {
        self.put_or_get(cell_hash, config, eval);
    }

    /// Stores the pair unless the cache holds it already, and returns the
    /// value the cache keeps; a config outside `ConfigSpace::chaidnn()` is
    /// never stored, so `eval` comes back.
    fn put_or_get(
        &self,
        cell_hash: u128,
        config: &AcceleratorConfig,
        eval: PairEvaluation,
    ) -> PairEvaluation {
        match PairKey::new(cell_hash, config) {
            Some(key) => self.insert_pair(key, eval, false),
            None => eval,
        }
    }

    fn get_accuracy(&self, cell_hash: u128) -> Option<f64> {
        self.get_accuracy_flagged(cell_hash).map(|(acc, _)| acc)
    }

    fn put_accuracy(&self, cell_hash: u128, accuracy: f64) {
        self.insert_accuracy(cell_hash, accuracy, false);
    }

    fn wants_cell_features(&self) -> bool {
        self.record_features.load(Ordering::Relaxed)
    }

    fn put_cell_features(&self, cell_hash: u128, features: [f64; CELL_FEATURE_DIM]) {
        self.insert_features(cell_hash, features);
    }

    /// Deterministically-ordered labeled training pairs: every *warm*
    /// (preloaded) pair entry whose cell has a stored feature row, joined
    /// into `(cell ++ config features, metric targets)` samples and sorted
    /// by `(cell hash, config)`. Restricting to warm entries keeps guided
    /// shards deterministic at any worker count — the snapshot is a pure
    /// function of the persisted cache, never of live concurrent inserts.
    fn snapshot_labeled(&self) -> Vec<LabeledSample> {
        let features: HashMap<u128, [f64; CELL_FEATURE_DIM]> =
            self.snapshot_features().into_iter().collect();
        let mut warm: Vec<(PairKey, PairEvaluation)> = self
            .shards
            .iter()
            .flat_map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                shard
                    .iter()
                    .filter(|(_, slot)| slot.warm)
                    .map(|(k, slot)| (*k, slot.value))
                    .collect::<Vec<_>>()
            })
            .collect();
        warm.sort_unstable_by_key(|&(key, _)| key);
        warm.into_iter()
            .filter_map(|(key, eval)| {
                let cell = features.get(&key.cell_hash())?;
                Some(LabeledSample::from_eval(
                    features_with_config(cell, &key.config()),
                    &eval,
                ))
            })
            .collect()
    }
}

impl std::fmt::Debug for SharedEvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEvalCache")
            .field("shards", &SHARDS)
            .field("stats", &self.stats())
            .finish()
    }
}

/// One shard's window onto the campaign-wide [`SharedEvalCache`]: delegates
/// every lookup to the shared map while counting this shard's own warm
/// hits, cold hits, and misses, so the campaign report can attribute cache
/// reuse per shard.
///
/// Pair and per-cell accuracy lookups both count — a warm accuracy hit is
/// exactly as much saved work as a warm pair hit under the trainer source.
#[derive(Debug)]
pub struct ShardCacheView {
    inner: Arc<SharedEvalCache>,
    warm_hits: AtomicU64,
    cold_hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardCacheView {
    /// A fresh per-shard view of `inner`.
    #[must_use]
    pub fn new(inner: Arc<SharedEvalCache>) -> Self {
        Self {
            inner,
            warm_hits: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lookups this shard answered from preloaded (persisted) entries.
    #[must_use]
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Lookups this shard answered from entries computed this process.
    #[must_use]
    pub fn cold_hits(&self) -> u64 {
        self.cold_hits.load(Ordering::Relaxed)
    }

    /// Lookups this shard had to compute itself.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn count(&self, warm: bool) {
        let counter = if warm {
            &self.warm_hits
        } else {
            &self.cold_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl EvalCache for ShardCacheView {
    fn get(&self, cell_hash: u128, config: &AcceleratorConfig) -> Option<PairEvaluation> {
        match self.inner.get_flagged(cell_hash, config) {
            Some((eval, warm)) => {
                self.count(warm);
                Some(eval)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, cell_hash: u128, config: &AcceleratorConfig, eval: PairEvaluation) {
        self.inner.put(cell_hash, config, eval);
    }

    fn put_or_get(
        &self,
        cell_hash: u128,
        config: &AcceleratorConfig,
        eval: PairEvaluation,
    ) -> PairEvaluation {
        self.inner.put_or_get(cell_hash, config, eval)
    }

    fn get_accuracy(&self, cell_hash: u128) -> Option<f64> {
        match self.inner.get_accuracy_flagged(cell_hash) {
            Some((acc, warm)) => {
                self.count(warm);
                Some(acc)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put_accuracy(&self, cell_hash: u128, accuracy: f64) {
        self.inner.put_accuracy(cell_hash, accuracy);
    }

    fn wants_cell_features(&self) -> bool {
        self.inner.wants_cell_features()
    }

    fn put_cell_features(&self, cell_hash: u128, features: [f64; CELL_FEATURE_DIM]) {
        self.inner.put_cell_features(cell_hash, features);
    }

    fn snapshot_labeled(&self) -> Vec<LabeledSample> {
        self.inner.snapshot_labeled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_accel::ConfigSpace;
    use std::sync::Arc;

    fn eval(x: f64) -> PairEvaluation {
        PairEvaluation {
            accuracy: x,
            latency_ms: 10.0 * x,
            area_mm2: 100.0 * x,
            power_w: x,
        }
    }

    fn key(cell_hash: u128, config: &AcceleratorConfig) -> PairKey {
        PairKey::new(cell_hash, config).expect("config in the space")
    }

    #[test]
    fn hit_miss_and_insert_accounting() {
        let cache = SharedEvalCache::new();
        let config = ConfigSpace::chaidnn().get(0);
        assert!(cache.get(1, &config).is_none());
        cache.put(1, &config, eval(0.9));
        cache.put(1, &config, eval(0.9)); // re-insert: not a new entry
        assert_eq!(cache.get(1, &config), Some(eval(0.9)));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 1, 1, 1)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Nothing was preloaded, so no hit is warm.
        assert_eq!((stats.warm_hits, stats.preloaded), (0, 0));
    }

    #[test]
    fn a_second_put_keeps_the_first_value() {
        let cache = SharedEvalCache::new();
        let config = ConfigSpace::chaidnn().get(0);
        cache.put(1, &config, eval(0.9));
        cache.put(1, &config, eval(0.8));
        assert_eq!(cache.get(1, &config), Some(eval(0.9)));
        assert_eq!(cache.put_or_get(1, &config, eval(0.7)), eval(0.9));
        assert_eq!(cache.stats().inserts, 1, "a taken key is no new entry");
        // A preloaded value replaces it, as a sync's merge does, and the
        // entry stays cold.
        cache.put_preloaded(key(1, &config), eval(0.6));
        assert_eq!(cache.get_flagged(1, &config), Some((eval(0.6), false)));
        assert_eq!(cache.stats().preloaded, 0);
    }

    #[test]
    fn distinct_configs_are_distinct_keys() {
        let cache = SharedEvalCache::new();
        let space = ConfigSpace::chaidnn();
        cache.put(5, &space.get(0), eval(0.1));
        cache.put(5, &space.get(1), eval(0.2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(5, &space.get(1)), Some(eval(0.2)));
    }

    #[test]
    fn snapshot_labeled_order_is_independent_of_insertion_order() {
        let space = ConfigSpace::chaidnn();
        let entries: Vec<(u128, AcceleratorConfig, PairEvaluation)> = (0..12u32)
            .map(|i| {
                // Spread hashes across shards; two configs per hash parity.
                let hash = u128::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                (
                    hash,
                    space.get(i as usize % 8),
                    eval(0.5 + f64::from(i) / 100.0),
                )
            })
            .collect();
        let feats = |hash: u128| [(hash % 97) as f64; CELL_FEATURE_DIM];

        let forward = SharedEvalCache::new();
        for (hash, config, e) in &entries {
            forward.put_preloaded(key(*hash, config), *e);
            forward.put_features_preloaded(*hash, feats(*hash));
        }
        let backward = SharedEvalCache::new();
        for (hash, config, e) in entries.iter().rev() {
            backward.put_features_preloaded(*hash, feats(*hash));
            backward.put_preloaded(key(*hash, config), *e);
        }

        let a = forward.snapshot_labeled();
        let b = backward.snapshot_labeled();
        assert_eq!(a.len(), entries.len());
        assert_eq!(a, b, "snapshot order must not depend on insertion order");

        // Cold (computed-this-process) entries and feature-less warm
        // entries are both excluded.
        forward.put(7777, &space.get(3), eval(0.9));
        forward.put_cell_features(7777, feats(7777));
        forward.put_preloaded(key(8888, &space.get(4)), eval(0.8));
        assert_eq!(forward.snapshot_labeled(), a);
    }

    #[test]
    fn feature_recording_is_gated_and_delegated() {
        let cache = Arc::new(SharedEvalCache::new());
        let view = ShardCacheView::new(Arc::clone(&cache));
        assert!(!view.wants_cell_features());
        cache.set_record_features(true);
        assert!(view.wants_cell_features());
        view.put_cell_features(42, [1.0; CELL_FEATURE_DIM]);
        assert_eq!(cache.feature_len(), 1);
        assert_eq!(
            cache.snapshot_features(),
            vec![(42, [1.0; CELL_FEATURE_DIM])]
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(SharedEvalCache::new());
        let space = ConfigSpace::chaidnn();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                let config = space.get(usize::try_from(t).unwrap());
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let key = u128::from(i % 50);
                        cache.put(key, &config, eval(0.5));
                        assert_eq!(cache.get(key, &config), Some(eval(0.5)));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 8 * 50);
        assert_eq!(stats.inserts, 8 * 50);
        assert_eq!(stats.hits, 8 * 500);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = SharedEvalCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.stats().accuracy_hit_rate(), 0.0);
    }

    #[test]
    fn cache_is_partitioned_by_evaluator_configuration() {
        use codesign_core::Evaluator;
        use codesign_nasbench::{known_cells, Dataset};

        let cache = Arc::new(SharedEvalCache::new());
        let cell = known_cells::resnet_cell();
        let config = ConfigSpace::chaidnn().get(0);
        let mut e10 =
            Evaluator::with_trainer(Dataset::Cifar10).with_shared_cache(Arc::clone(&cache) as _);
        let mut e100 =
            Evaluator::with_trainer(Dataset::Cifar100).with_shared_cache(Arc::clone(&cache) as _);
        let a10 = e10.evaluate_pair(&cell, &config).unwrap();
        // Without key salting this would read the CIFAR-10 entry back.
        let a100 = e100.evaluate_pair(&cell, &config).unwrap();
        assert_ne!(
            a10.accuracy, a100.accuracy,
            "datasets must not share entries"
        );
        // Same-configuration evaluators do share.
        let mut e10b =
            Evaluator::with_trainer(Dataset::Cifar10).with_shared_cache(Arc::clone(&cache) as _);
        assert_eq!(e10b.evaluate_pair(&cell, &config), Some(a10));
        assert!(cache.stats().hits > 0);
        // The second evaluator trained its own cell; the third trained none.
        assert_eq!(e100.resolved_cells(), 1);
        assert_eq!(e10b.resolved_cells(), 0);
    }

    #[test]
    fn accuracy_entries_are_cell_scoped() {
        let cache = SharedEvalCache::new();
        assert_eq!(cache.get_accuracy(9), None);
        cache.put_accuracy(9, 0.91);
        cache.put_accuracy(10, 0.88);
        assert_eq!(cache.get_accuracy(9), Some(0.91));
        assert_eq!(cache.get_accuracy(10), Some(0.88));
        let stats = cache.stats();
        assert_eq!((stats.accuracy_hits, stats.accuracy_misses), (2, 1));
        assert_eq!(stats.accuracy_entries, 2);
        // Pair-level counters are untouched.
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn shard_view_attributes_warm_and_cold_hits() {
        let cache = Arc::new(SharedEvalCache::new());
        let config = ConfigSpace::chaidnn().get(0);
        cache.put_preloaded(key(1, &config), eval(0.9)); // warm entry
        let view = ShardCacheView::new(Arc::clone(&cache));
        view.put(2, &config, eval(0.8)); // cold entry through the view
        assert_eq!(view.get(1, &config), Some(eval(0.9)));
        assert_eq!(view.get(2, &config), Some(eval(0.8)));
        assert!(view.get(3, &config).is_none());
        assert_eq!(
            (view.warm_hits(), view.cold_hits(), view.misses()),
            (1, 1, 1)
        );
        // The shared cache saw the same traffic globally.
        let stats = cache.stats();
        assert_eq!((stats.warm_hits, stats.hits, stats.preloaded), (1, 2, 1));
    }

    #[test]
    fn shard_view_counts_accuracy_lookups() {
        let cache = Arc::new(SharedEvalCache::new());
        cache.put_accuracy_preloaded(7, 0.93);
        let view = ShardCacheView::new(Arc::clone(&cache));
        assert_eq!(view.get_accuracy(7), Some(0.93));
        assert_eq!(view.get_accuracy(8), None);
        view.put_accuracy(8, 0.88);
        assert_eq!(view.get_accuracy(8), Some(0.88));
        assert_eq!(
            (view.warm_hits(), view.cold_hits(), view.misses()),
            (1, 1, 1)
        );
        assert_eq!(cache.stats().accuracy_warm_hits, 1);
    }

    #[test]
    fn off_space_configs_are_priced_but_not_memoized() {
        use codesign_core::Evaluator;
        use codesign_nasbench::{known_cells, Dataset};

        let cell = known_cells::resnet_cell();
        let config = AcceleratorConfig {
            pixel_par: 12,
            ..ConfigSpace::chaidnn().get(8639)
        };
        let trainer = || Evaluator::with_trainer(Dataset::Cifar10);
        let cache = Arc::new(SharedEvalCache::new());
        let mut with_cache = trainer().with_shared_cache(Arc::clone(&cache) as _);
        let mut without = trainer();
        let bits =
            |e: PairEvaluation| [e.accuracy, e.latency_ms, e.area_mm2, e.power_w].map(f64::to_bits);
        for _ in 0..2 {
            let a = with_cache.evaluate_pair(&cell, &config).expect("trained");
            let b = without.evaluate_pair(&cell, &config).expect("trained");
            assert_eq!(bits(a), bits(b));
        }
        assert!(cache.is_empty(), "an off-space pair was stored");
    }

    /// Unbalanced lock shards cost memory: see the `shards` field.
    #[test]
    fn pair_keys_fill_the_lock_shards_evenly() {
        use codesign_nasbench::NasbenchDatabase;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let space = ConfigSpace::chaidnn();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut configs: Vec<usize> = (0..100).map(|_| rng.gen_range(0..space.len())).collect();
        configs.sort_unstable();
        configs.dedup();
        let db = NasbenchDatabase::exhaustive(5);
        let mut counts = [0usize; SHARDS];
        for entry in db.iter() {
            for &config in &configs {
                counts[key(entry.spec.canonical_hash(), &space.get(config)).lock_shard()] += 1;
            }
        }
        let mean = (db.len() * configs.len()) as f64 / SHARDS as f64;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64 - mean).abs() <= 0.1 * mean,
                "lock shard {shard} holds {count} keys against a mean of {mean}"
            );
        }
    }
}
