//! Property-based coverage of evaluation-cache persistence: arbitrary
//! cache contents survive a `save` → `load` round trip with identical
//! lookups, and corrupt or mismatched files are rejected with clean
//! errors, never garbage entries.

use codesign_accel::ConfigSpace;
use codesign_core::{EvalCache, PairEvaluation};
use codesign_engine::{CacheLoadError, SharedEvalCache};
use proptest::prelude::*;

/// A cache key universe small enough to collide often (the hard case for
/// dedup on reload) but wide enough to exercise hex round-tripping of big
/// hashes.
fn cell_hash() -> impl Strategy<Value = u128> {
    prop::sample::select(vec![
        0u128,
        1,
        42,
        0xDEAD_BEEF,
        u128::from(u64::MAX),
        u128::MAX - 3,
        u128::MAX,
    ])
}

fn evaluation() -> impl Strategy<Value = PairEvaluation> {
    (
        (0.5f64..1.0),
        (1.0f64..500.0),
        (40.0f64..250.0),
        (0.5f64..15.0),
    )
        .prop_map(|(accuracy, latency_ms, area_mm2, power_w)| PairEvaluation {
            accuracy,
            latency_ms,
            area_mm2,
            power_w,
        })
}

/// `(hash, config index, evaluation)` pair entries plus `(hash, accuracy)`
/// cell entries.
type CacheContents = (Vec<(u128, usize, PairEvaluation)>, Vec<(u128, f64)>);

fn cache_contents() -> impl Strategy<Value = CacheContents> {
    (
        prop::collection::vec((cell_hash(), 0usize..8640, evaluation()), 0..40),
        prop::collection::vec((cell_hash(), 0.5f64..1.0), 0..20),
    )
}

proptest! {
    #[test]
    fn save_load_roundtrip_preserves_every_lookup(
        (pairs, accuracies) in cache_contents(),
        salt in 0u64..u64::MAX,
    ) {
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for (hash, config_index, eval) in &pairs {
            cache.put(*hash, &space.get(*config_index), *eval);
        }
        for (hash, acc) in &accuracies {
            cache.put_accuracy(*hash, *acc);
        }

        let mut buf = Vec::new();
        cache.save(&mut buf, salt).unwrap();
        let back = SharedEvalCache::load(buf.as_slice(), salt).unwrap();

        // Every key answers bit-identically to the original cache (later
        // duplicate inserts were refreshes of the same key, so the final
        // value wins on both sides).
        for (hash, config_index, _) in &pairs {
            let config = space.get(*config_index);
            prop_assert_eq!(back.get(*hash, &config), cache.get(*hash, &config));
        }
        for (hash, _) in &accuracies {
            prop_assert_eq!(back.get_accuracy(*hash), cache.get_accuracy(*hash));
        }
        prop_assert_eq!(back.len(), cache.len());

        // A second round trip is byte-identical: serialization is a pure
        // function of contents.
        let mut again = Vec::new();
        back.save(&mut again, salt).unwrap();
        prop_assert_eq!(&buf, &again);
    }

    #[test]
    fn mismatched_salt_is_always_rejected(
        (pairs, accuracies) in cache_contents(),
        salt in 0u64..1000,
        other_salt in 1000u64..2000,
    ) {
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for (hash, config_index, eval) in &pairs {
            cache.put(*hash, &space.get(*config_index), *eval);
        }
        for (hash, acc) in &accuracies {
            cache.put_accuracy(*hash, *acc);
        }
        let mut buf = Vec::new();
        cache.save(&mut buf, salt).unwrap();
        match SharedEvalCache::load(buf.as_slice(), other_salt) {
            Err(CacheLoadError::SaltMismatch { expected, found }) => {
                prop_assert_eq!(expected, other_salt);
                prop_assert_eq!(found, salt);
            }
            other => prop_assert!(false, "expected SaltMismatch, got {:?}", other),
        }
    }

    #[test]
    fn truncated_files_error_cleanly(
        (pairs, accuracies) in cache_contents(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for (hash, config_index, eval) in &pairs {
            cache.put(*hash, &space.get(*config_index), *eval);
        }
        for (hash, acc) in &accuracies {
            cache.put_accuracy(*hash, *acc);
        }
        let mut buf = Vec::new();
        cache.save(&mut buf, 7).unwrap();
        // Chop the document somewhere strictly inside it: any shorter
        // prefix fails the header's length consistency check (or the
        // magic/header checks when the cut lands inside them).
        let cut = ((buf.len() as f64 * cut_fraction) as usize).min(buf.len() - 2);
        let result = SharedEvalCache::load(&buf[..cut], 7);
        match result {
            Err(err) => {
                // Clean, printable rejection — never a panic.
                let _ = err.to_string();
            }
            Ok(_) => prop_assert!(false, "truncated file at byte {} must not load", cut),
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        (pairs, accuracies) in cache_contents(),
        position in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for (hash, config_index, eval) in &pairs {
            cache.put(*hash, &space.get(*config_index), *eval);
        }
        for (hash, acc) in &accuracies {
            cache.put_accuracy(*hash, *acc);
        }
        let mut buf = Vec::new();
        cache.save(&mut buf, 7).unwrap();
        let target = ((buf.len() as f64 * position) as usize).min(buf.len() - 1);
        buf[target] ^= 1 << bit;
        // A flipped bit may land in the magic, the version, the salt, the
        // checksum, a count, or the payload — each yields a *different*
        // typed error, but never a successful load of corrupt data.
        match SharedEvalCache::load(buf.as_slice(), 7) {
            Err(err) => { let _ = err.to_string(); }
            Ok(_) => prop_assert!(
                false, "bit {} of byte {} flipped yet the file loaded", bit, target
            ),
        }
    }

    #[test]
    fn sharded_roundtrip_equals_single_file(
        (pairs, accuracies) in cache_contents(),
        salt in 0u64..u64::MAX,
    ) {
        let space = ConfigSpace::chaidnn();
        let cache = SharedEvalCache::new();
        for (hash, config_index, eval) in &pairs {
            cache.put(*hash, &space.get(*config_index), *eval);
        }
        for (hash, acc) in &accuracies {
            cache.put_accuracy(*hash, *acc);
        }

        let dir = std::env::temp_dir().join(format!(
            "codesign_shard_prop_{}_{salt:x}", std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        cache.save_sharded(&dir, salt).unwrap();
        let merged = SharedEvalCache::load_sharded(&dir, salt).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // The merged cache re-serializes byte-identically to the original:
        // sharding is a pure partition, merge order cannot matter because
        // the shards are disjoint slices of the key space.
        let (mut single, mut resaved) = (Vec::new(), Vec::new());
        cache.save(&mut single, salt).unwrap();
        merged.save(&mut resaved, salt).unwrap();
        prop_assert_eq!(&single, &resaved);
        prop_assert_eq!(merged.len(), cache.len());
    }
}

/// Shard files merged in *reverse* name order reconstruct the same cache
/// as forward order — merge order independence, explicitly.
#[test]
fn shard_merge_is_order_independent() {
    let space = ConfigSpace::chaidnn();
    let cache = SharedEvalCache::new();
    // Hashes spread across several persistence shards (top 4 bits differ).
    for i in 0u128..64 {
        let hash = i << 122 | i;
        cache.put(
            hash,
            &space.get((i as usize * 131) % 8640),
            PairEvaluation {
                accuracy: 0.9,
                latency_ms: i as f64,
                area_mm2: 100.0,
                power_w: 5.0,
            },
        );
        cache.put_accuracy(hash, 0.93);
    }
    let dir = std::env::temp_dir().join(format!("codesign_shard_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache.save_sharded(&dir, 11).unwrap();

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let forward = SharedEvalCache::new();
    for file in &files {
        forward
            .merge_bytes(&std::fs::read(file).unwrap(), 11)
            .unwrap();
    }
    let backward = SharedEvalCache::new();
    for file in files.iter().rev() {
        backward
            .merge_bytes(&std::fs::read(file).unwrap(), 11)
            .unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (mut a, mut b) = (Vec::new(), Vec::new());
    forward.save(&mut a, 11).unwrap();
    backward.save(&mut b, 11).unwrap();
    assert_eq!(a, b, "merge order must not change the reconstructed cache");
}
