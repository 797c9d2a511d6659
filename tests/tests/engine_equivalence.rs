//! Cross-engine integration tests: every engine must agree with an in-memory
//! model and with each other on the same workload — including reads through
//! pinned snapshots and streaming cursors.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_btree::BTreeStore;
use pebblesdb_common::{Db, KvStore, ReadOptions, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::{LsmDb, LsmPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 32 << 10;
    opts.max_file_size = 16 << 10;
    opts.base_level_bytes = 64 << 10;
    opts.level0_compaction_trigger = 2;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts
}

fn all_engines() -> Vec<(&'static str, Arc<dyn KvStore>)> {
    let opts = small_options();
    let pebbles_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let rocks_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let btree_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    // Column-family handles are full `KvStore`s: one non-default family per
    // LSM engine runs the *same* suites as the whole stores, unmodified.
    // The handles keep their stores (and background threads) alive.
    let pebbles_cf_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let pebbles_cf = PebblesDb::open_with_options(pebbles_cf_env, Path::new("/pcf"), opts.clone())
        .unwrap()
        .create_cf("shard")
        .unwrap();
    let lsm_cf_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm_cf = LsmDb::open_with_options(lsm_cf_env, Path::new("/hcf"), opts.clone())
        .unwrap()
        .create_cf("shard")
        .unwrap();
    vec![
        (
            "pebblesdb",
            Arc::new(
                PebblesDb::open_with_options(pebbles_env, Path::new("/p"), opts.clone()).unwrap(),
            ) as Arc<dyn KvStore>,
        ),
        (
            "hyperleveldb",
            Arc::new(LsmDb::open_with_options(lsm_env, Path::new("/h"), opts.clone()).unwrap()),
        ),
        (
            "rocksdb",
            Arc::new(
                LsmDb::open(
                    LsmPolicy::with_preset(&opts, StorePreset::RocksDb),
                    rocks_env,
                    Path::new("/r"),
                    opts.clone(),
                )
                .unwrap(),
            ),
        ),
        (
            "btree",
            Arc::new(BTreeStore::open(btree_env, Path::new("/b"), opts).unwrap()),
        ),
        ("pebblesdb-cf", Arc::new(pebbles_cf)),
        ("hyperleveldb-cf", Arc::new(lsm_cf)),
    ]
}

/// Applies the same randomized workload of puts, deletes and overwrites to
/// every engine and to a `BTreeMap` model, then checks point reads and range
/// scans agree with the model.
#[test]
fn engines_agree_with_model_on_mixed_workload() {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(2024);

    for op in 0..8000u32 {
        let key = format!("key{:05}", rng.gen_range(0..2000u32)).into_bytes();
        if rng.gen_bool(0.8) {
            let value = format!("value-{op}").into_bytes();
            for (_, engine) in &engines {
                engine.put(&key, &value).unwrap();
            }
            model.insert(key, value);
        } else {
            for (_, engine) in &engines {
                engine.delete(&key).unwrap();
            }
            model.remove(&key);
        }
    }
    for (_, engine) in &engines {
        engine.flush().unwrap();
    }

    // Point reads.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let key = format!("key{:05}", rng.gen_range(0..2100u32)).into_bytes();
        let expected = model.get(&key).cloned();
        for (name, engine) in &engines {
            assert_eq!(engine.get(&key).unwrap(), expected, "{name} get {key:?}");
        }
    }

    // Range scans.
    for start in [0u32, 123, 999, 1990] {
        let start_key = format!("key{start:05}").into_bytes();
        let end_key = format!("key{:05}", start + 50).into_bytes();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(start_key.clone()..end_key.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, engine) in &engines {
            let got = engine.scan(&start_key, &end_key, 10_000).unwrap();
            assert_eq!(got, expected, "{name} scan from {start}");
        }
    }

    // Bounded scans respect the limit.
    for (name, engine) in &engines {
        let got = engine.scan(b"key", &[], 7).unwrap();
        assert!(got.len() <= 7, "{name} limit");
    }
}

/// The FLSM engine must write less to the device than the LSM baseline for
/// the same random-update workload, while the B+Tree writes the most — the
/// paper's central claim at integration scale.
#[test]
fn write_amplification_ordering_matches_the_paper() {
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..10_000u32 {
        let key = format!("key{:05}", rng.gen_range(0..5000u32)).into_bytes();
        let value = vec![b'v'; 200];
        for (_, engine) in &engines {
            engine.put(&key, &value).unwrap();
        }
    }
    for (_, engine) in &engines {
        engine.flush().unwrap();
    }
    let amp: std::collections::HashMap<&str, f64> = engines
        .iter()
        .map(|(name, engine)| (*name, engine.stats().write_amplification()))
        .collect();

    assert!(
        amp["pebblesdb"] < amp["hyperleveldb"],
        "PebblesDB {:.2} should beat the LSM baseline {:.2}",
        amp["pebblesdb"],
        amp["hyperleveldb"]
    );
    assert!(
        amp["btree"] > amp["hyperleveldb"],
        "the B+Tree {:.2} should be worse than any LSM {:.2}",
        amp["btree"],
        amp["hyperleveldb"]
    );
}

/// Snapshot isolation, on every engine: writes issued after `snapshot()`
/// are invisible to `get_opts` and `iter` on that snapshot — across
/// overwrites, deletes, fresh inserts, flushes and the compactions they
/// trigger — while latest reads see everything.
#[test]
fn snapshots_isolate_reads_on_every_engine() {
    for (name, engine) in all_engines() {
        // Base state the snapshot will pin.
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 0..800u32 {
            let key = format!("key{i:05}").into_bytes();
            let value = format!("base-{i}").into_bytes();
            engine.put(&key, &value).unwrap();
            model.insert(key, value);
        }

        let snap = engine.snapshot();
        let snap_opts = snap.read_options();

        // Mutate heavily after the snapshot: overwrite, delete, insert —
        // enough churn to force memtable flushes and compactions past it.
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..4u32 {
            for i in 0..800u32 {
                let key = format!("key{i:05}").into_bytes();
                match rng.gen_range(0..3u32) {
                    0 => engine
                        .put(&key, format!("new-{round}-{i}").as_bytes())
                        .unwrap(),
                    1 => engine.delete(&key).unwrap(),
                    _ => {}
                }
            }
            for i in 0..200u32 {
                engine
                    .put(format!("zzz{round:02}{i:05}").as_bytes(), b"late")
                    .unwrap();
            }
            engine.flush().unwrap();
        }

        // Point reads through the snapshot see exactly the base state.
        for i in (0..800u32).step_by(7) {
            let key = format!("key{i:05}").into_bytes();
            assert_eq!(
                engine.get_opts(&snap_opts, &key).unwrap(),
                model.get(&key).cloned(),
                "{name} snapshot get key{i:05}"
            );
        }
        // Late inserts are invisible through the snapshot.
        assert_eq!(
            engine.get_opts(&snap_opts, b"zzz0000001").unwrap(),
            None,
            "{name} snapshot hides late insert"
        );

        // The snapshot cursor streams exactly the base state, in order.
        let mut iter = engine.iter(&snap_opts).unwrap();
        iter.seek(b"key");
        let mut streamed: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        while iter.valid() && iter.key() < b"z".as_slice() {
            streamed.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(streamed, expected, "{name} snapshot cursor");
        drop(iter);

        // Latest reads observe the churn (at least one key must differ).
        let latest = engine.scan(b"key", b"z", 10_000).unwrap();
        assert_ne!(latest, expected, "{name} latest reads see new writes");

        // Dropping the snapshot releases it: a fresh snapshot pins the new
        // state, not the old one.
        drop(snap);
        let fresh = engine.snapshot();
        assert_eq!(
            engine
                .get_opts(&fresh.read_options(), b"zzz0000001")
                .unwrap(),
            engine.get(b"zzz0000001").unwrap(),
            "{name} fresh snapshot sees current state"
        );
    }
}

/// Forward and backward cursor traversal agree with the materialised `scan`
/// on randomized content — the cursor is the source of truth `scan` is
/// defined on, so walking it both ways must reproduce the same entries.
#[test]
fn cursor_traversal_matches_scan_forward_and_backward() {
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(4242);
    for op in 0..4000u32 {
        let key = format!("key{:05}", rng.gen_range(0..1200u32)).into_bytes();
        if rng.gen_bool(0.75) {
            let value = format!("v{op}").into_bytes();
            for (_, engine) in &engines {
                engine.put(&key, &value).unwrap();
            }
        } else {
            for (_, engine) in &engines {
                engine.delete(&key).unwrap();
            }
        }
    }
    for (name, engine) in &engines {
        engine.flush().unwrap();
        let scanned = engine.scan(b"", &[], 100_000).unwrap();

        let mut iter = engine.iter(&ReadOptions::default()).unwrap();
        iter.seek_to_first();
        let mut forward = Vec::new();
        while iter.valid() {
            forward.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        assert_eq!(forward, scanned, "{name} forward traversal");

        iter.seek_to_last();
        let mut backward = Vec::new();
        while iter.valid() {
            backward.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.prev();
        }
        backward.reverse();
        assert_eq!(backward, scanned, "{name} backward traversal");

        // Mid-stream seeks land on the scan's lower bound.
        let probe = b"key00600".to_vec();
        let expected_at = scanned
            .iter()
            .find(|(k, _)| k.as_slice() >= probe.as_slice());
        iter.seek(&probe);
        match expected_at {
            Some((k, v)) => {
                assert!(iter.valid(), "{name} seek lands");
                assert_eq!((iter.key(), iter.value()), (k.as_slice(), v.as_slice()));
            }
            None => assert!(!iter.valid(), "{name} seek past end"),
        }
    }
}

/// Engines expose consistent statistics after a workload.
#[test]
fn stats_are_consistent_across_engines() {
    let engines = all_engines();
    for (_, engine) in &engines {
        for i in 0..2000u32 {
            engine
                .put(format!("k{i:06}").as_bytes(), &[b'x'; 128])
                .unwrap();
        }
        engine.flush().unwrap();
    }
    for (name, engine) in &engines {
        let stats = engine.stats();
        assert!(stats.user_bytes_written >= 2000 * 128, "{name}");
        assert!(stats.bytes_written >= stats.user_bytes_written, "{name}");
        assert!(stats.disk_bytes_live > 0, "{name}");
        assert!(!engine.engine_name().is_empty(), "{name}");
    }
}
