//! Cross-process persistence of the shared evaluation cache.
//!
//! A campaign's [`SharedEvalCache`] persists as a *cache directory*
//! (conventionally `cache.d`) of [`CACHE_SHARD_FILES`] `shard-NN.bin`
//! files, so successive CLI runs and resident servers reuse each other's
//! evaluations instead of recomputing them — the cross-run economy that
//! CODEBench's accelerator-embedding cache argues for at benchmark scale.
//!
//! # The v4 document
//!
//! Each shard file is one v4 document: a fixed header, then fixed-width
//! little-endian records built on [`codesign_nasbench::byteio`].
//! [`SharedEvalCache::save`] and [`SharedEvalCache::load`] write and read
//! one document; [`SharedEvalCache::load_bytes`] and
//! [`SharedEvalCache::merge_bytes`] walk a borrowed `&[u8]` in place. The
//! cell-feature section carries the surrogate guide's per-cell structural
//! featurizations (see `codesign_core::surrogate`), so a warm-started
//! campaign can train a predictor from the persisted entries. All offsets
//! below are bytes:
//!
//! ```text
//! offset  size  field
//!      0     6  magic "CDNEVC"
//!      6     2  format version, u16 LE (= 4)
//!      8     8  salt, u64 LE
//!     16     8  FNV-1a 64 checksum of every byte from offset 24 on
//!     24     8  pair record count, u64 LE
//!     32     8  accuracy record count, u64 LE
//!     40     8  cell-feature record count, u64 LE
//!     48     8  scenario-provenance section length in bytes, u64 LE
//!     56     …  pair records, 68 B each, sorted by (hash, config)
//!      …     …  accuracy records, 24 B each, sorted by hash
//!      …     …  cell-feature records, 96 B each, sorted by hash
//!      …     …  scenario names: (u32 LE length + UTF-8 bytes) each, sorted
//! ```
//!
//! A pair record is `cell hash u128 | filter_par u16 | pixel_par u16 |
//! input/weight/output buffer depths u32×3 | mem width u16 | pool u8 |
//! ratio index u8 | accuracy/latency/area/power f64×4` — metrics travel as
//! raw IEEE 754 bit patterns, so a reload is bit-exact. The config must be
//! a member of `ConfigSpace::chaidnn()`, the only configs the cache keys.
//! An accuracy record is `cell hash u128 | accuracy f64`. A cell-feature
//! record is `cell hash u128 | feature f64 ×`[`CELL_FEATURE_DIM`]\.
//!
//! All record sections are sorted, so equal cache contents always
//! serialize to byte-identical files. Pair records sort by their
//! [`PairKey`], whose config index orders as the config does. Truncated
//! files fail the length-vs-counts consistency check and bit flips fail
//! the checksum; both reject with a typed [`CacheLoadError`] rather than
//! loading garbage, and so does a record with a field no save writes.
//!
//! # The cache directory
//!
//! [`SharedEvalCache::save_sharded`] splits the records across the shard
//! files by the top 4 bits of the cell hash; every file carries the salt
//! and the full scenario provenance. A save copies every pair once, into
//! one `Vec` sorted by key, and since the top 4 bits lead that order, each
//! file is encoded from one contiguous run of it. Because the files
//! partition the key space, [`SharedEvalCache::load_sharded`]
//! reconstructs one cache bit-identically in any merge order.
//! [`SharedEvalCache::sync_sharded`] is the merge-on-save that lets
//! several processes share one directory: under per-shard file locks it
//! pulls the on-disk entries in, then writes the union back.
//!
//! # Versioning and the salt contract
//!
//! A document of any other version (older releases wrote v2 JSON and v3
//! binary documents) rejects with [`CacheLoadError::WrongVersion`]. The
//! cache is a rebuildable artifact: the `campaign` CLI cold-starts on that
//! error and [`SharedEvalCache::sync_sharded`] overwrites stale shards in
//! the current version.
//!
//! The `salt` is supplied by the caller and must describe everything the
//! cached metrics depend on that the keys themselves don't — in practice
//! the [`NasbenchDatabase::fingerprint`] of the database the campaign runs
//! against (cache keys are already salted with the evaluator configuration
//! by `codesign_core::Evaluator`). Loading rejects a file whose salt
//! doesn't match instead of silently serving stale metrics.
//!
//! [`NasbenchDatabase::fingerprint`]: codesign_nasbench::NasbenchDatabase::fingerprint

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use codesign_accel::{AcceleratorConfig, ConvEngineRatio};
use codesign_core::{PairEvaluation, PairKey, CELL_FEATURE_DIM};
use codesign_nasbench::byteio::{self, ByteReader};

use crate::cache::SharedEvalCache;

/// The on-disk format version.
pub const CACHE_VERSION: u64 = 4;

/// Leading magic bytes of a cache document.
pub const CACHE_MAGIC: [u8; 6] = *b"CDNEVC";

/// Number of `shard-NN.bin` files a cache directory holds (keyed by the
/// top 4 bits of the cell hash).
pub const CACHE_SHARD_FILES: usize = 16;

/// Fixed header length of a document, bytes.
const HEADER_LEN: usize = 56;
/// Fixed length of one pair record, bytes.
const PAIR_RECORD_LEN: usize = 68;
/// Fixed length of one per-cell accuracy record, bytes.
const ACC_RECORD_LEN: usize = 24;
/// Fixed length of one cell-feature record, bytes.
const FEAT_RECORD_LEN: usize = 16 + 8 * CELL_FEATURE_DIM;
/// Offset of the checksummed region (everything after the checksum field).
const CHECKSUM_START: usize = 24;

/// Telemetry: bytes written by cache saves.
static TM_SAVE_BYTES: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.save_bytes");
/// Telemetry: bytes read by cache loads.
static TM_LOAD_BYTES: codesign_telemetry::Counter =
    codesign_telemetry::Counter::new("cache.load_bytes");
/// Telemetry: cache save throughput, MB/s.
static TM_SAVE_MBPS: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("cache.save_mbps");
/// Telemetry: cache load throughput, MB/s.
static TM_LOAD_MBPS: codesign_telemetry::Histogram =
    codesign_telemetry::Histogram::new("cache.load_mbps");

/// Records byte-count and throughput telemetry for one save/load.
fn record_io_metrics(
    span: &mut codesign_telemetry::SpanGuard,
    bytes: usize,
    elapsed: Duration,
    counter: &'static codesign_telemetry::Counter,
    throughput: &'static codesign_telemetry::Histogram,
) {
    span.add_arg("bytes", bytes as u64);
    counter.add(bytes as u64);
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        throughput.record((bytes as f64 / 1e6 / secs) as u64);
    }
}

/// Why a persisted cache file was rejected.
#[derive(Debug)]
pub enum CacheLoadError {
    /// The file could not be read.
    Io(io::Error),
    /// The document is corrupt: no magic, truncated, bit-flipped
    /// (checksum mismatch), or with invalid record fields.
    Malformed(String),
    /// The document was written by another format version, e.g. by an
    /// older release. Callers treat it as a cold start.
    WrongVersion {
        /// The version found in the file.
        found: u64,
    },
    /// The cache was built under a different evaluation context (different
    /// database, typically) and must not be reused.
    SaltMismatch {
        /// The salt the caller expected.
        expected: u64,
        /// The salt found in the file.
        found: u64,
    },
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Io(e) => write!(f, "cache file unreadable: {e}"),
            CacheLoadError::Malformed(reason) => write!(f, "cache file malformed: {reason}"),
            CacheLoadError::WrongVersion { found } => write!(
                f,
                "cache format version {found} unsupported (expected {CACHE_VERSION})"
            ),
            CacheLoadError::SaltMismatch { expected, found } => write!(
                f,
                "cache salt {found:016x} does not match this run's {expected:016x} \
                 (stale or built against a different database); refusing to reuse it"
            ),
        }
    }
}

impl std::error::Error for CacheLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheLoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CacheLoadError {
    fn from(e: io::Error) -> Self {
        CacheLoadError::Io(e)
    }
}

/// Map-shard index of a cell hash for sharded persistence: the top 4 bits,
/// so the `shard-NN.bin` files partition the key space.
fn persist_shard_of(hash: u128) -> usize {
    #[allow(clippy::cast_possible_truncation)]
    let index = (hash >> 124) as usize;
    index
}

/// The run of `records`, sorted by cell hash, that persistence shard
/// `index` holds.
fn shard_run<T>(records: &[T], index: usize, hash: impl Fn(&T) -> u128) -> &[T] {
    let start = records.partition_point(|r| persist_shard_of(hash(r)) < index);
    let end = records.partition_point(|r| persist_shard_of(hash(r)) <= index);
    &records[start..end]
}

/// The file name of persistence shard `index`.
fn shard_file_name(index: usize) -> String {
    format!("shard-{index:02}.bin")
}

/// The advisory-lock file guarding persistence shard `index` (see
/// [`SharedEvalCache::sync_sharded`]). Lock files never match the
/// `shard-*.bin` glob, so loaders skip them.
fn lock_file_name(index: usize) -> String {
    format!("shard-{index:02}.lock")
}

fn put_config(buf: &mut Vec<u8>, config: &AcceleratorConfig) {
    let narrow16 = |v: usize| u16::try_from(v).expect("config field exceeds u16");
    let narrow32 = |v: usize| u32::try_from(v).expect("config field exceeds u32");
    byteio::put_u16(buf, narrow16(config.filter_par));
    byteio::put_u16(buf, narrow16(config.pixel_par));
    byteio::put_u32(buf, narrow32(config.input_buffer_depth));
    byteio::put_u32(buf, narrow32(config.weight_buffer_depth));
    byteio::put_u32(buf, narrow32(config.output_buffer_depth));
    byteio::put_u16(buf, narrow16(config.mem_interface_width));
    buf.push(u8::from(config.pool_enable));
    let ratio = ConvEngineRatio::ALL
        .iter()
        .position(|r| *r == config.ratio_conv_engines)
        .expect("every ratio is in ALL");
    #[allow(clippy::cast_possible_truncation)]
    buf.push(ratio as u8);
}

fn read_config(reader: &mut ByteReader<'_>) -> Result<AcceleratorConfig, String> {
    let filter_par = usize::from(reader.u16()?);
    let pixel_par = usize::from(reader.u16()?);
    let input_buffer_depth = reader.u32()? as usize;
    let weight_buffer_depth = reader.u32()? as usize;
    let output_buffer_depth = reader.u32()? as usize;
    let mem_interface_width = usize::from(reader.u16()?);
    let pool_enable = match reader.u8()? {
        0 => false,
        1 => true,
        other => return Err(format!("bad pool flag {other}")),
    };
    let ratio_index = usize::from(reader.u8()?);
    let ratio_conv_engines = *ConvEngineRatio::ALL
        .get(ratio_index)
        .ok_or_else(|| format!("bad ratio index {ratio_index}"))?;
    Ok(AcceleratorConfig {
        filter_par,
        pixel_par,
        input_buffer_depth,
        weight_buffer_depth,
        output_buffer_depth,
        mem_interface_width,
        pool_enable,
        ratio_conv_engines,
    })
}

/// Encodes sorted records as one complete v4 document.
fn encode_records(
    pairs: &[PairRecord],
    accuracies: &[(u128, f64)],
    features: &[(u128, [f64; CELL_FEATURE_DIM])],
    scenarios: &[String],
    salt: u64,
) -> Vec<u8> {
    let mut scenario_section = Vec::new();
    for name in scenarios {
        byteio::put_u32(
            &mut scenario_section,
            u32::try_from(name.len()).expect("scenario name exceeds u32 bytes"),
        );
        scenario_section.extend_from_slice(name.as_bytes());
    }
    let mut buf = Vec::with_capacity(
        HEADER_LEN
            + pairs.len() * PAIR_RECORD_LEN
            + accuracies.len() * ACC_RECORD_LEN
            + features.len() * FEAT_RECORD_LEN
            + scenario_section.len(),
    );
    buf.extend_from_slice(&CACHE_MAGIC);
    #[allow(clippy::cast_possible_truncation)]
    byteio::put_u16(&mut buf, CACHE_VERSION as u16);
    byteio::put_u64(&mut buf, salt);
    byteio::put_u64(&mut buf, 0); // checksum, patched below
    byteio::put_u64(&mut buf, pairs.len() as u64);
    byteio::put_u64(&mut buf, accuracies.len() as u64);
    byteio::put_u64(&mut buf, features.len() as u64);
    byteio::put_u64(&mut buf, scenario_section.len() as u64);
    for (key, eval) in pairs {
        byteio::put_u128(&mut buf, key.cell_hash());
        put_config(&mut buf, &key.config());
        byteio::put_f64(&mut buf, eval.accuracy);
        byteio::put_f64(&mut buf, eval.latency_ms);
        byteio::put_f64(&mut buf, eval.area_mm2);
        byteio::put_f64(&mut buf, eval.power_w);
    }
    for (hash, acc) in accuracies {
        byteio::put_u128(&mut buf, *hash);
        byteio::put_f64(&mut buf, *acc);
    }
    for (hash, feats) in features {
        byteio::put_u128(&mut buf, *hash);
        for value in feats {
            byteio::put_f64(&mut buf, *value);
        }
    }
    buf.extend_from_slice(&scenario_section);
    let checksum = byteio::fnv1a64(&buf[CHECKSUM_START..]);
    buf[16..24].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// A pair-cache entry as snapshotted for persistence: key plus metrics.
type PairRecord = (PairKey, PairEvaluation);

/// A cell-feature entry as snapshotted for persistence.
type FeatRecord = (u128, [f64; CELL_FEATURE_DIM]);

impl SharedEvalCache {
    /// Every pair entry sorted by key, every accuracy entry sorted by
    /// hash, and every cell-feature row sorted by hash — the canonical
    /// record order of persisted documents.
    fn sorted_records(&self) -> (Vec<PairRecord>, Vec<(u128, f64)>, Vec<FeatRecord>) {
        let pairs = self.sorted_pairs();
        let mut accuracies = self.snapshot_accuracies();
        accuracies.sort_unstable_by_key(|&(key, _)| key);
        let mut features = self.snapshot_features();
        features.sort_unstable_by_key(|&(key, _)| key);
        (pairs, accuracies, features)
    }

    /// Serializes the cache as one v4 binary document stamped with `salt`
    /// (see the module docs for the layout and the salt contract). Records
    /// are sorted, so identical contents always produce an identical file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn save<W: Write>(&self, mut writer: W, salt: u64) -> io::Result<()> {
        let mut span = codesign_telemetry::span("cache.save", "persist")
            .with_arg("entries", self.len() as u64)
            .with_arg("format", "v4-binary");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let (pairs, accuracies, features) = self.sorted_records();
        let bytes = encode_records(&pairs, &accuracies, &features, &self.provenance(), salt);
        writer.write_all(&bytes)?;
        if let Some(t) = timer {
            record_io_metrics(
                &mut span,
                bytes.len(),
                t.elapsed(),
                &TM_SAVE_BYTES,
                &TM_SAVE_MBPS,
            );
        }
        Ok(())
    }

    /// Reads a cache written by [`SharedEvalCache::save`], verifying the
    /// magic, version, salt, length, and checksum. Loaded entries are
    /// marked *warm*, so hits against them are reported as work saved by
    /// the previous invocation.
    ///
    /// The returned cache keeps every entry it is given.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheLoadError`] describing exactly why the file was
    /// rejected: unreadable, malformed/corrupt, another format version,
    /// or a salt mismatch.
    pub fn load<R: Read>(mut reader: R, expected_salt: u64) -> Result<Self, CacheLoadError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::load_bytes(&bytes, expected_salt)
    }

    /// [`SharedEvalCache::load`] straight from a borrowed byte slice,
    /// walked in place with no intermediate document tree.
    ///
    /// # Errors
    ///
    /// Same rejection contract as [`SharedEvalCache::load`].
    pub fn load_bytes(bytes: &[u8], expected_salt: u64) -> Result<Self, CacheLoadError> {
        let mut span =
            codesign_telemetry::span("cache.load", "persist").with_arg("format", "binary");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let cache = SharedEvalCache::new();
        cache.merge_bytes(bytes, expected_salt)?;
        if let Some(t) = timer {
            record_io_metrics(
                &mut span,
                bytes.len(),
                t.elapsed(),
                &TM_LOAD_BYTES,
                &TM_LOAD_MBPS,
            );
        }
        Ok(cache)
    }

    /// Decodes one persisted v4 document and merges its entries into this
    /// cache (preloaded entries are *warm*). Merging is idempotent and —
    /// because persisted values are deterministic functions of their keys —
    /// order-independent: merging N shard files in any order reconstructs
    /// the same cache. This is the primitive [`SharedEvalCache::load_sharded`]
    /// and [`SharedEvalCache::sync_sharded`] are built on.
    ///
    /// # Errors
    ///
    /// Same rejection contract as [`SharedEvalCache::load`]. Validation
    /// (version, salt, length, checksum and every record's fields) runs
    /// before any insertion, so a rejected document contributes nothing —
    /// the cache keeps exactly the entries earlier merges added.
    pub fn merge_bytes(&self, bytes: &[u8], expected_salt: u64) -> Result<(), CacheLoadError> {
        let malformed = |reason: String| CacheLoadError::Malformed(reason);
        if !bytes.starts_with(&CACHE_MAGIC) {
            return Err(malformed("not a cache file (no CDNEVC magic)".into()));
        }
        // The version comes first, so a stale document of any length
        // rejects as stale rather than as truncated.
        let mut header = ByteReader::new(&bytes[CACHE_MAGIC.len()..]);
        let version = u64::from(header.u16().map_err(malformed)?);
        if version != CACHE_VERSION {
            return Err(CacheLoadError::WrongVersion { found: version });
        }
        if bytes.len() < HEADER_LEN {
            return Err(malformed(format!(
                "truncated header: {} bytes (need {HEADER_LEN})",
                bytes.len()
            )));
        }
        let salt = header.u64().map_err(malformed)?;
        if salt != expected_salt {
            return Err(CacheLoadError::SaltMismatch {
                expected: expected_salt,
                found: salt,
            });
        }
        let checksum = header.u64().map_err(malformed)?;
        let pair_count = header.u64().map_err(malformed)?;
        let acc_count = header.u64().map_err(malformed)?;
        let feat_count = header.u64().map_err(malformed)?;
        let scenario_len = header.u64().map_err(malformed)?;
        let expected_len = HEADER_LEN as u128
            + u128::from(pair_count) * PAIR_RECORD_LEN as u128
            + u128::from(acc_count) * ACC_RECORD_LEN as u128
            + u128::from(feat_count) * FEAT_RECORD_LEN as u128
            + u128::from(scenario_len);
        if bytes.len() as u128 != expected_len {
            return Err(malformed(format!(
                "length mismatch: header promises {expected_len} bytes, file has {} \
                 (truncated or corrupt counts)",
                bytes.len()
            )));
        }
        if byteio::fnv1a64(&bytes[CHECKSUM_START..]) != checksum {
            return Err(malformed(
                "checksum mismatch (bit corruption or tampering)".into(),
            ));
        }

        // Validated: decode every record before inserting any, so a record
        // that a field rejects leaves the cache as it was. The length check
        // bounds each count by the document's size, so each `Vec` can be
        // sized up front.
        let mut reader = ByteReader::new(&bytes[HEADER_LEN..]);
        let mut pairs = Vec::with_capacity(pair_count as usize);
        for i in 0..pair_count {
            let context = |e: String| malformed(format!("pair {i}: {e}"));
            let hash = reader.u128().map_err(context)?;
            let config = read_config(&mut reader).map_err(context)?;
            let key = PairKey::new(hash, &config)
                .ok_or_else(|| context(format!("config {config} is outside the space")))?;
            let eval = PairEvaluation {
                accuracy: reader.f64().map_err(context)?,
                latency_ms: reader.f64().map_err(context)?,
                area_mm2: reader.f64().map_err(context)?,
                power_w: reader.f64().map_err(context)?,
            };
            pairs.push((key, eval));
        }
        let mut accuracies = Vec::with_capacity(acc_count as usize);
        for i in 0..acc_count {
            let context = |e: String| malformed(format!("accuracy {i}: {e}"));
            let hash = reader.u128().map_err(context)?;
            accuracies.push((hash, reader.f64().map_err(context)?));
        }
        let mut features = Vec::with_capacity(feat_count as usize);
        for i in 0..feat_count {
            let context = |e: String| malformed(format!("feature {i}: {e}"));
            let hash = reader.u128().map_err(context)?;
            let mut feats = [0.0; CELL_FEATURE_DIM];
            for value in &mut feats {
                *value = reader.f64().map_err(context)?;
            }
            features.push((hash, feats));
        }
        let mut scenarios = Vec::new();
        while !reader.is_empty() {
            let len = reader.u32().map_err(malformed)? as usize;
            let raw = reader.take(len).map_err(malformed)?;
            let name =
                std::str::from_utf8(raw).map_err(|e| malformed(format!("scenario name: {e}")))?;
            scenarios.push(name.to_owned());
        }
        for (key, eval) in pairs {
            self.put_preloaded(key, eval);
        }
        for (hash, accuracy) in accuracies {
            self.put_accuracy_preloaded(hash, accuracy);
        }
        for (hash, feats) in features {
            self.put_features_preloaded(hash, feats);
        }
        self.note_scenarios(scenarios);
        Ok(())
    }

    /// Persists the cache as [`CACHE_SHARD_FILES`] v4 files
    /// (`shard-00.bin` … `shard-15.bin`) inside `dir`, each holding the
    /// entries whose cell hash falls in its slice of the key space (top 4
    /// bits). Every shard carries the salt and the full scenario
    /// provenance; every file is written even when its slice is empty, so
    /// the directory is always a complete, deterministic snapshot.
    ///
    /// Returns the total bytes written.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save_sharded<P: AsRef<Path>>(&self, dir: P, salt: u64) -> io::Result<usize> {
        let mut span = codesign_telemetry::span("cache.save", "persist")
            .with_arg("entries", self.len() as u64)
            .with_arg("format", "v4-sharded");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut total = 0usize;
        for (index, bytes) in self.shard_documents(salt) {
            std::fs::write(dir.join(shard_file_name(index)), &bytes)?;
            total += bytes.len();
        }
        if let Some(t) = timer {
            record_io_metrics(&mut span, total, t.elapsed(), &TM_SAVE_BYTES, &TM_SAVE_MBPS);
        }
        Ok(total)
    }

    /// One v4 document per persistence shard, in shard order, encoded
    /// lazily so a save holds one shard's bytes at a time. Each document
    /// reads its shard's contiguous run of the sorted records, so it is
    /// canonical on its own.
    fn shard_documents(&self, salt: u64) -> impl Iterator<Item = (usize, Vec<u8>)> {
        let (pairs, accuracies, features) = self.sorted_records();
        let scenarios = self.provenance();
        (0..CACHE_SHARD_FILES).map(move |index| {
            let bytes = encode_records(
                shard_run(&pairs, index, |(key, _)| key.cell_hash()),
                shard_run(&accuracies, index, |&(hash, _)| hash),
                shard_run(&features, index, |&(hash, _)| hash),
                &scenarios,
                salt,
            );
            (index, bytes)
        })
    }

    /// Merge-on-save: exchanges entries with a sharded cache directory
    /// that *other processes may be writing concurrently*, leaving the
    /// directory holding the union.
    ///
    /// Per invocation: every `shard-NN.lock` advisory lock is taken (in
    /// index order — every cooperating process acquires in the same order,
    /// so a fleet cannot deadlock), the current on-disk entries are pulled
    /// into this cache via [`SharedEvalCache::merge_bytes`], and the union
    /// is written back through temp-file + atomic rename, so lockless
    /// readers ([`SharedEvalCache::load_sharded`]) only ever observe
    /// complete documents. Because persisted records are sorted and values
    /// are deterministic functions of their keys, the directory contents
    /// are byte-identical no matter how many processes sync or in what
    /// order — last-writer-wins can reorder *writes*, never change bytes.
    ///
    /// A directory written by an older format version is treated as a
    /// rebuildable artifact and overwritten (like the CLI's cold-start
    /// fallback); a salt mismatch or corruption stays fatal — those files
    /// may describe a different database, and clobbering them would
    /// destroy work.
    ///
    /// Returns the total bytes written.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors and rejected shard files (corrupt or
    /// salted for a different database).
    pub fn sync_sharded<P: AsRef<Path>>(&self, dir: P, salt: u64) -> Result<usize, CacheLoadError> {
        let mut span = codesign_telemetry::span("cache.sync", "persist")
            .with_arg("entries", self.len() as u64)
            .with_arg("format", "v4-sharded");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Phase 1: lock the whole directory (ascending index order), then
        // pull every on-disk shard into this cache. Holding all the locks
        // across the read-merge-rewrite cycle makes the sync atomic with
        // respect to other *syncing* processes.
        let mut locks = Vec::with_capacity(CACHE_SHARD_FILES);
        for index in 0..CACHE_SHARD_FILES {
            locks.push(crate::sys::FileLock::acquire(
                dir.join(lock_file_name(index)),
            )?);
        }
        for index in 0..CACHE_SHARD_FILES {
            match std::fs::read(dir.join(shard_file_name(index))) {
                Ok(bytes) => match self.merge_bytes(&bytes, salt) {
                    // Stale format: rebuildable, will be overwritten below.
                    Ok(()) | Err(CacheLoadError::WrongVersion { .. }) => {}
                    Err(e) => return Err(e),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Phase 2: this cache now holds the union; write it back.
        let mut total = 0usize;
        for (index, bytes) in self.shard_documents(salt) {
            let name = shard_file_name(index);
            let tmp = dir.join(format!("{name}.tmp"));
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, dir.join(name))?;
            total += bytes.len();
        }
        drop(locks);
        if let Some(t) = timer {
            record_io_metrics(&mut span, total, t.elapsed(), &TM_SAVE_BYTES, &TM_SAVE_MBPS);
        }
        Ok(total)
    }

    /// Reconstructs one cache from every `shard-*.bin` file in `dir`,
    /// merging their entries (see [`SharedEvalCache::merge_bytes`] — the
    /// shard files partition the key space, so the merge is
    /// order-independent and the result equals loading the same contents
    /// from a single file). An existing directory with no shard files
    /// yields an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheLoadError`] when the directory is unreadable or
    /// any shard file is rejected (corrupt, wrong version, or salted for
    /// a different database).
    pub fn load_sharded<P: AsRef<Path>>(
        dir: P,
        expected_salt: u64,
    ) -> Result<Self, CacheLoadError> {
        let mut span =
            codesign_telemetry::span("cache.load", "persist").with_arg("format", "sharded");
        let timer = codesign_telemetry::enabled().then(std::time::Instant::now);
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir.as_ref())?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".bin"))
            })
            .collect();
        files.sort();
        let cache = SharedEvalCache::new();
        let mut total = 0usize;
        for file in files {
            let bytes = std::fs::read(&file)?;
            cache.merge_bytes(&bytes, expected_salt)?;
            total += bytes.len();
        }
        if let Some(t) = timer {
            record_io_metrics(&mut span, total, t.elapsed(), &TM_LOAD_BYTES, &TM_LOAD_MBPS);
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_accel::ConfigSpace;
    use codesign_core::EvalCache;

    fn eval(x: f64) -> PairEvaluation {
        PairEvaluation {
            accuracy: x,
            latency_ms: 10.0 * x,
            area_mm2: 100.0 * x,
            power_w: x,
        }
    }

    fn populated() -> SharedEvalCache {
        let cache = SharedEvalCache::new();
        let space = ConfigSpace::chaidnn();
        cache.put(1, &space.get(0), eval(0.91));
        cache.put(u128::MAX - 7, &space.get(8639), eval(0.87));
        cache.put_accuracy(42, 0.935);
        cache
    }

    #[test]
    fn save_load_roundtrip_preserves_lookups_and_marks_warm() {
        let cache = populated();
        let mut buf = Vec::new();
        cache.save(&mut buf, 0xDEAD).unwrap();
        assert!(buf.starts_with(&CACHE_MAGIC), "binary is the default");
        let back = SharedEvalCache::load(buf.as_slice(), 0xDEAD).unwrap();
        let space = ConfigSpace::chaidnn();
        assert_eq!(back.get(1, &space.get(0)), Some(eval(0.91)));
        assert_eq!(back.get(u128::MAX - 7, &space.get(8639)), Some(eval(0.87)));
        assert_eq!(back.get_accuracy(42), Some(0.935));
        let stats = back.stats();
        assert_eq!((stats.preloaded, stats.inserts), (2, 0));
        assert_eq!(stats.warm_hits, 2, "reloaded entries answer warm");
        assert_eq!(stats.accuracy_warm_hits, 1);
    }

    #[test]
    fn binary_records_are_fixed_width() {
        let cache = populated();
        cache.put_features_preloaded(1, [0.5; CELL_FEATURE_DIM]);
        let mut buf = Vec::new();
        cache.save(&mut buf, 1).unwrap();
        let scenario_len = 0; // no provenance noted
        assert_eq!(
            buf.len(),
            56 + 2 * 68 + 24 + 96 + scenario_len,
            "header + 2 pair records + 1 accuracy record + 1 feature record"
        );
    }

    #[test]
    fn cell_features_survive_the_round_trip() {
        let cache = populated();
        let feats = core::array::from_fn(|i| i as f64 / 7.0);
        cache.put_features_preloaded(1, feats);
        let mut buf = Vec::new();
        cache.save(&mut buf, 2).unwrap();
        let back = SharedEvalCache::load(buf.as_slice(), 2).unwrap();
        assert_eq!(back.snapshot_features(), vec![(1, feats)]);
        // Features join with the warm pair entries into labeled samples.
        let labeled = back.snapshot_labeled();
        assert_eq!(labeled.len(), 1, "one warm pair has stored features");
        // And the sharded path carries them too.
        let dir = std::env::temp_dir().join("codesign_persist_feat_shard_test");
        let _ = std::fs::remove_dir_all(&dir);
        cache.save_sharded(&dir, 2).unwrap();
        let merged = SharedEvalCache::load_sharded(&dir, 2).unwrap();
        assert_eq!(merged.snapshot_features(), vec![(1, feats)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = populated();
        let b = populated();
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.save(&mut ba, 7).unwrap();
        b.save(&mut bb, 7).unwrap();
        assert_eq!(ba, bb, "same contents must serialize identically");
    }

    #[test]
    fn salt_mismatch_is_rejected() {
        let cache = populated();
        let mut buf = Vec::new();
        cache.save(&mut buf, 0xAAAA).unwrap();
        match SharedEvalCache::load(buf.as_slice(), 0xBBBB) {
            Err(CacheLoadError::SaltMismatch { expected, found }) => {
                assert_eq!((expected, found), (0xBBBB, 0xAAAA));
            }
            other => panic!("expected SaltMismatch, got {other:?}"),
        }
    }

    #[test]
    fn provenance_survives_the_round_trip() {
        let cache = populated();
        cache.note_scenarios(["power-capped".to_owned(), "1 Constraint".to_owned()]);
        let mut buf = Vec::new();
        cache.save(&mut buf, 3).unwrap();
        let back = SharedEvalCache::load(buf.as_slice(), 3).unwrap();
        assert_eq!(
            back.provenance(),
            vec!["1 Constraint".to_owned(), "power-capped".to_owned()],
            "provenance is reloaded, sorted"
        );
        // Merging more names keeps the list deduplicated and sorted.
        back.note_scenarios(["Unconstrained".to_owned(), "power-capped".to_owned()]);
        assert_eq!(
            back.provenance(),
            vec![
                "1 Constraint".to_owned(),
                "Unconstrained".to_owned(),
                "power-capped".to_owned()
            ]
        );
    }

    #[test]
    fn sharded_save_load_reconstructs_the_single_file_cache() {
        let dir = std::env::temp_dir().join("codesign_persist_shard_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = populated();
        cache.note_scenarios(["power-capped".to_owned()]);
        let bytes = cache.save_sharded(&dir, 9).unwrap();
        assert!(bytes >= CACHE_SHARD_FILES * 48, "every shard has a header");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), CACHE_SHARD_FILES);
        assert!(names.contains(&"shard-00.bin".to_owned()));
        assert!(names.contains(&"shard-15.bin".to_owned()));

        let merged = SharedEvalCache::load_sharded(&dir, 9).unwrap();
        let space = ConfigSpace::chaidnn();
        assert_eq!(merged.get(1, &space.get(0)), Some(eval(0.91)));
        assert_eq!(
            merged.get(u128::MAX - 7, &space.get(8639)),
            Some(eval(0.87))
        );
        assert_eq!(merged.get_accuracy(42), Some(0.935));
        assert_eq!(merged.provenance(), vec!["power-capped".to_owned()]);

        // Re-serializing the merged cache as a single file is
        // byte-identical to serializing the original directly.
        let (mut single, mut resaved) = (Vec::new(), Vec::new());
        cache.save(&mut single, 9).unwrap();
        merged.save(&mut resaved, 9).unwrap();
        assert_eq!(single, resaved);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_sharded_produces_the_union_in_any_order() {
        let space = ConfigSpace::chaidnn();
        let make = |range: std::ops::Range<u64>| {
            let cache = SharedEvalCache::new();
            for i in range {
                cache.put(u128::from(i) << 100, &space.get(i as usize % 64), eval(0.9));
            }
            cache
        };

        // Two caches with overlapping key ranges, synced in both orders
        // into two directories: both directories must hold the union,
        // byte-identically.
        let base = std::env::temp_dir().join("codesign_persist_sync_test");
        let _ = std::fs::remove_dir_all(&base);
        let (dir_ab, dir_ba) = (base.join("ab.d"), base.join("ba.d"));
        make(0..40).sync_sharded(&dir_ab, 5).unwrap();
        make(20..60).sync_sharded(&dir_ab, 5).unwrap();
        make(20..60).sync_sharded(&dir_ba, 5).unwrap();
        make(0..40).sync_sharded(&dir_ba, 5).unwrap();

        let union = SharedEvalCache::load_sharded(&dir_ab, 5).unwrap();
        assert_eq!(union.len(), 60, "no entry may be lost by merge-on-save");
        for index in 0..CACHE_SHARD_FILES {
            let name = shard_file_name(index);
            assert_eq!(
                std::fs::read(dir_ab.join(&name)).unwrap(),
                std::fs::read(dir_ba.join(&name)).unwrap(),
                "{name} differs between save orders"
            );
        }

        // The syncing cache itself pulled the on-disk entries (the
        // bidirectional exchange a fleet relies on).
        let third = make(100..101);
        third.sync_sharded(&dir_ab, 5).unwrap();
        assert_eq!(third.len(), 61);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn sync_sharded_rejects_foreign_salt_instead_of_clobbering() {
        let dir = std::env::temp_dir().join("codesign_persist_sync_salt_test");
        let _ = std::fs::remove_dir_all(&dir);
        populated().sync_sharded(&dir, 1).unwrap();
        let before = std::fs::read(dir.join(shard_file_name(0))).unwrap();
        assert!(matches!(
            populated().sync_sharded(&dir, 2),
            Err(CacheLoadError::SaltMismatch { .. })
        ));
        let after = std::fs::read(dir.join(shard_file_name(0))).unwrap();
        assert_eq!(before, after, "a rejected sync must not touch the files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_load_rejects_mismatched_salt() {
        let dir = std::env::temp_dir().join("codesign_persist_shard_salt_test");
        let _ = std::fs::remove_dir_all(&dir);
        populated().save_sharded(&dir, 1).unwrap();
        assert!(matches!(
            SharedEvalCache::load_sharded(&dir, 2),
            Err(CacheLoadError::SaltMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_binary_versions_are_rejected() {
        let mut buf = Vec::new();
        populated().save(&mut buf, 0).unwrap();
        buf[6] = 9; // version u16 LE low byte
        match SharedEvalCache::load(buf.as_slice(), 0) {
            Err(CacheLoadError::WrongVersion { found: 9 }) => {}
            other => panic!("expected WrongVersion(9), got {other:?}"),
        }
    }

    /// The stale-format contract: a shard whose version field reads 3
    /// (bytes 6–7, before the checksummed region) rejects as stale, and
    /// merge-on-save rewrites it as v4 without touching its v4 siblings.
    #[test]
    fn stale_shards_reject_as_wrong_version_and_sync_rewrites_them() {
        let dir = std::env::temp_dir().join(format!(
            "codesign_persist_stale_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for i in 0..CACHE_SHARD_FILES {
            cache.put((i as u128) << 124 | 1, &space.get(i), eval(0.9));
        }
        cache.save_sharded(&dir, 5).unwrap();
        let stale = dir.join(shard_file_name(3));
        let mut bytes = std::fs::read(&stale).unwrap();
        bytes[6..8].copy_from_slice(&3u16.to_le_bytes());
        std::fs::write(&stale, &bytes).unwrap();
        let siblings = || -> Vec<Vec<u8>> {
            (0..CACHE_SHARD_FILES)
                .filter(|&i| i != 3)
                .map(|i| std::fs::read(dir.join(shard_file_name(i))).unwrap())
                .collect()
        };
        let before = siblings();

        assert!(matches!(
            SharedEvalCache::load_sharded(&dir, 5),
            Err(CacheLoadError::WrongVersion { found: 3 })
        ));
        SharedEvalCache::new().sync_sharded(&dir, 5).unwrap();
        assert_eq!(std::fs::read(&stale).unwrap()[6], CACHE_VERSION as u8);
        assert_eq!(siblings(), before, "every v4 sibling keeps its entries");
        let reloaded = SharedEvalCache::load_sharded(&dir, 5).unwrap();
        assert_eq!(reloaded.len(), CACHE_SHARD_FILES - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_documents_are_rejected_cleanly() {
        for bad in ["{truncated", "", "[1,2,3]", "{\"format\":3}", "CDNEV"] {
            let err = SharedEvalCache::load(bad.as_bytes(), 0).unwrap_err();
            assert!(
                matches!(err, CacheLoadError::Malformed(_)),
                "{bad:?} gave {err:?}"
            );
            // The error formats without panicking.
            let _ = err.to_string();
        }
    }

    #[test]
    fn off_space_pair_records_are_malformed() {
        let cache = SharedEvalCache::new();
        cache.put(1, &ConfigSpace::chaidnn().get(0), eval(0.9));
        let mut buf = Vec::new();
        cache.save(&mut buf, 4).unwrap();
        // The record's pixel_par follows its cell hash and filter_par.
        let pixel_par = HEADER_LEN + 18;
        buf[pixel_par..pixel_par + 2].copy_from_slice(&12u16.to_le_bytes());
        let checksum = byteio::fnv1a64(&buf[CHECKSUM_START..]);
        buf[16..24].copy_from_slice(&checksum.to_le_bytes());
        let fresh = SharedEvalCache::new();
        match fresh.merge_bytes(&buf, 4) {
            Err(CacheLoadError::Malformed(reason)) => {
                assert!(reason.starts_with("pair 0: config fp8 pp12 "), "{reason}");
            }
            other => panic!("expected a malformed pair record, got {other:?}"),
        }
        assert!(fresh.is_empty());
    }

    #[test]
    fn a_rejected_record_leaves_the_cache_as_it_was() {
        let cache = SharedEvalCache::new();
        let space = ConfigSpace::chaidnn();
        cache.put(1, &space.get(0), eval(0.9));
        cache.put(2, &space.get(1), eval(0.8));
        let mut buf = Vec::new();
        cache.save(&mut buf, 4).unwrap();
        // Pair record 1's pool flag follows its 16-byte cell hash and the
        // 18 bytes of six config fields.
        let pool_flag = HEADER_LEN + PAIR_RECORD_LEN + 16 + 18;
        buf[pool_flag] = 7;
        let checksum = byteio::fnv1a64(&buf[CHECKSUM_START..]);
        buf[16..24].copy_from_slice(&checksum.to_le_bytes());
        let fresh = SharedEvalCache::new();
        match fresh.merge_bytes(&buf, 4) {
            Err(CacheLoadError::Malformed(reason)) => {
                assert_eq!(reason, "pair 1: bad pool flag 7");
            }
            other => panic!("expected a malformed pair record, got {other:?}"),
        }
        assert!(fresh.is_empty(), "merged {} of 2 pairs", fresh.len());
    }

    #[test]
    fn bit_flips_are_rejected_by_the_checksum() {
        let cache = populated();
        let mut buf = Vec::new();
        cache.save(&mut buf, 7).unwrap();
        // Flip one metric bit deep inside the payload: the length checks
        // still pass, so only the checksum can catch it.
        let target = buf.len() - 10;
        buf[target] ^= 0x10;
        match SharedEvalCache::load(buf.as_slice(), 7) {
            Err(CacheLoadError::Malformed(reason)) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected checksum rejection, got {other:?}"),
        }
    }
}
