//! # PebblesDB: a key-value store built on Fragmented Log-Structured Merge Trees
//!
//! This crate is a from-scratch Rust implementation of the system described
//! in *PebblesDB: Building Key-Value Stores using Fragmented Log-Structured
//! Merge Trees* (SOSP 2017). The FLSM data structure keeps the familiar
//! levelled layout of an LSM but organises every level with **guards**
//! (inspired by skip lists): guards partition a level's key space into
//! disjoint ranges, while the sstables *inside* a guard may overlap. When a
//! guard is compacted its sstables are merge-sorted and *fragmented* along
//! the next level's guards — new fragments are simply appended to the child
//! guards, and data already in the next level is never rewritten. That is
//! what removes the write amplification of classical LSM compaction.
//!
//! On top of the FLSM structure, PebblesDB layers the read-side techniques
//! from chapter 4 of the paper: sstable-level bloom filters, parallel seeks
//! on the last level, seek-triggered compaction and aggressive whole-level
//! compaction.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pebblesdb::{PebblesDb, StoreOptions, StorePreset};
//! use pebblesdb_common::KvStore;
//! use pebblesdb_env::MemEnv;
//!
//! let env = Arc::new(MemEnv::new());
//! let options = StoreOptions::with_preset(StorePreset::PebblesDb);
//! let db = PebblesDb::open_with_options(env, std::path::Path::new("/db"), options).unwrap();
//! db.put(b"pebble", b"stone").unwrap();
//! assert_eq!(db.get(b"pebble").unwrap(), Some(b"stone".to_vec()));
//! let range = db.scan(b"a", b"z", 100).unwrap();
//! assert_eq!(range.len(), 1);
//! ```
//!
//! [`PebblesDb`] is the shared engine chassis shaped by [`FlsmPolicy`]; it
//! implements the shared [`KvStore`](pebblesdb_common::KvStore) trait, so the
//! YCSB runner, the application layers and the benchmark harness drive it
//! exactly as they drive the baseline LSM engine.

pub mod compaction;
pub mod db;
pub mod guards;
pub mod iter;
pub mod version;

pub use db::{FlsmPolicy, PebblesDb};
pub use guards::{GuardMeta, GuardPicker, UncommittedGuards};
pub use pebblesdb_common::{StoreOptions, StorePreset};
pub use pebblesdb_engine::ShapePolicy;
pub use version::{CompactionReason, FlsmVersion};

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::{KvStore, WriteBatch};
    use pebblesdb_env::{DiskEnv, Env, MemEnv};
    use std::path::Path;
    use std::sync::Arc;

    fn small_options() -> StoreOptions {
        let mut opts = StoreOptions::default();
        opts.write_buffer_size = 32 << 10;
        opts.max_file_size = 16 << 10;
        opts.base_level_bytes = 64 << 10;
        opts.level0_compaction_trigger = 2;
        opts.level0_slowdown_writes_trigger = 4;
        opts.level0_stop_writes_trigger = 8;
        opts.max_sstables_per_guard = 4;
        opts.top_level_bits = 8;
        opts.bit_decrement = 1;
        opts
    }

    fn open_small(env: Arc<dyn Env>, path: &Path) -> PebblesDb {
        PebblesDb::open_with_options(env, path, small_options()).unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    fn value(i: u32, len: usize) -> Vec<u8> {
        let mut v = format!("value{i:08}-").into_bytes();
        v.resize(len, b'x');
        v
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"missing").unwrap(), None);
        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        db.put(b"a", b"3").unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"3".to_vec()));
        assert_eq!(db.engine_name(), "PebblesDB");
    }

    #[test]
    fn batched_writes_are_atomic() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        let mut batch = WriteBatch::new();
        batch.put(b"x", b"1");
        batch.delete(b"x");
        batch.put(b"y", b"2");
        db.write(batch).unwrap();
        assert_eq!(db.get(b"x").unwrap(), None);
        assert_eq!(db.get(b"y").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn bulk_writes_build_guards_and_stay_readable() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(Arc::clone(&env), Path::new("/db"));
        let n = 4000u32;
        for i in 0..n {
            db.put(&key(i), &value(i, 100)).unwrap();
        }
        db.flush().unwrap();

        // Data must have reached deeper levels and guards must exist.
        let per_level = db.files_per_level();
        assert!(per_level.iter().skip(1).any(|&c| c > 0), "{per_level:?}");
        let guards = db.guards_per_level();
        assert!(
            guards.iter().skip(1).any(|&g| g > 1),
            "expected real guards beyond sentinels: {guards:?}"
        );

        for i in (0..n).step_by(41) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 100)), "key {i}");
        }
        let stats = db.stats();
        assert!(stats.compactions > 0);
        assert!(stats.write_amplification() > 1.0);
    }

    #[test]
    fn flsm_write_amplification_is_lower_than_baseline_lsm() {
        let n = 6000u32;
        let value_len = 128;

        let pebbles_env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let pebbles = open_small(Arc::clone(&pebbles_env), Path::new("/pebbles"));
        for i in 0..n {
            // Pseudo-random order to force overlap.
            let k = (i.wrapping_mul(2654435761)) % n;
            pebbles.put(&key(k), &value(k, value_len)).unwrap();
        }
        pebbles.flush().unwrap();
        let pebbles_amp = pebbles.stats().write_amplification();

        let lsm_env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let lsm =
            pebblesdb_lsm::LsmDb::open_with_options(Arc::clone(&lsm_env), Path::new("/lsm"), {
                let mut o = small_options();
                o.max_sstables_per_guard = 8;
                o
            })
            .unwrap();
        for i in 0..n {
            let k = (i.wrapping_mul(2654435761)) % n;
            lsm.put(&key(k), &value(k, value_len)).unwrap();
        }
        lsm.flush().unwrap();
        let lsm_amp = lsm.stats().write_amplification();

        assert!(
            pebbles_amp < lsm_amp,
            "FLSM write amplification ({pebbles_amp:.2}) should be below the LSM baseline ({lsm_amp:.2})"
        );
    }

    /// Shape introspection lives once on the chassis: both shapes answer
    /// it, and the leveled shape, having no explicit guards, reports none.
    /// Every preset keeps the label its benchmark output and background
    /// threads are named after.
    #[test]
    fn shape_introspection_and_labels_cover_both_shapes() {
        use pebblesdb_lsm::{LsmDb, LsmPolicy};

        let fill = |db: &dyn KvStore| {
            for i in 0..4000u32 {
                db.put(&key(i), &value(i, 100)).unwrap();
            }
            db.flush().unwrap();
        };
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let flsm = PebblesDb::open_with_options(Arc::clone(&env), Path::new("/f"), small_options())
            .unwrap();
        let lsm =
            LsmDb::open_with_options(Arc::clone(&env), Path::new("/l"), small_options()).unwrap();
        fill(&flsm);
        fill(&lsm);

        for (files, live) in [
            (flsm.files_per_level(), flsm.live_file_sizes().len()),
            (lsm.files_per_level(), lsm.live_file_sizes().len()),
        ] {
            assert!(files.iter().skip(1).any(|&c| c > 0), "{files:?}");
            assert_eq!(files.iter().sum::<usize>(), live, "{files:?}");
        }

        let guards = flsm.guards_per_level();
        assert_eq!(guards.len(), flsm.files_per_level().len());
        // Real guards exist beyond the one sentinel per deeper level.
        let deep_guards: usize = guards.iter().skip(1).sum();
        assert!(deep_guards > guards.len() - 1, "{guards:?}");
        // Data reached a deeper level, so at least one guard holds files.
        assert!(flsm.empty_guards() < deep_guards, "{guards:?}");
        assert!(flsm.level_summary().starts_with("L0:"));

        assert!(lsm.guards_per_level().is_empty());
        assert_eq!(lsm.empty_guards(), 0);
        assert!(lsm.level_summary().starts_with("L0:"));

        let open_lsm = |path: &str, preset: StorePreset| -> Arc<dyn KvStore> {
            let options = StoreOptions::with_preset(preset);
            let policy = LsmPolicy::with_preset(&options, preset);
            Arc::new(LsmDb::open(policy, Arc::clone(&env), Path::new(path), options).unwrap())
        };
        let open_flsm = |path: &str, preset: StorePreset| -> Arc<dyn KvStore> {
            let options = StoreOptions::with_preset(preset);
            Arc::new(
                PebblesDb::open_with_options(Arc::clone(&env), Path::new(path), options).unwrap(),
            )
        };
        let hyper: Arc<dyn KvStore> = Arc::new(
            LsmDb::open_with_options(
                Arc::clone(&env),
                Path::new("/hyper"),
                StoreOptions::with_preset(StorePreset::HyperLevelDb),
            )
            .unwrap(),
        );
        let labels = [
            (open_flsm("/pebbles", StorePreset::PebblesDb), "PebblesDB"),
            (
                open_flsm("/pebbles1", StorePreset::PebblesDb1),
                "PebblesDB-1",
            ),
            (hyper, "HyperLevelDB"),
            (open_lsm("/level", StorePreset::LevelDb), "LevelDB"),
            (open_lsm("/rocks", StorePreset::RocksDb), "RocksDB"),
        ];
        for (db, label) in labels {
            assert_eq!(db.engine_name(), label);
        }
    }

    #[test]
    fn overwrites_and_deletes_survive_compaction() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for round in 0..3u32 {
            for i in 0..600u32 {
                db.put(&key(i), &value(i + round * 1000, 64)).unwrap();
            }
        }
        for i in (0..600).step_by(3) {
            db.delete(&key(i)).unwrap();
        }
        db.flush().unwrap();
        for i in 0..600u32 {
            let got = db.get(&key(i)).unwrap();
            if i % 3 == 0 {
                assert_eq!(got, None, "key {i} should be deleted");
            } else {
                assert_eq!(got, Some(value(i + 2000, 64)), "key {i}");
            }
        }
    }

    #[test]
    fn scans_cross_guard_boundaries_and_see_fresh_writes() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for i in 0..2000u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        db.flush().unwrap();
        db.put(&key(1000), b"fresh").unwrap();
        db.delete(&key(1001)).unwrap();

        let results = db.scan(&key(998), &key(1005), 100).unwrap();
        let keys: Vec<Vec<u8>> = results.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                key(998),
                key(999),
                key(1000),
                key(1002),
                key(1003),
                key(1004)
            ]
        );
        let map: std::collections::HashMap<_, _> = results.into_iter().collect();
        assert_eq!(map[&key(1000)], b"fresh".to_vec());

        // A long scan spanning many guards returns every live key in order.
        let results = db.scan(&key(0), &[], 2500).unwrap();
        assert_eq!(results.len(), 1999, "one key was deleted in the range");
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(!results.iter().any(|(k, _)| k == &key(1001)));
    }

    #[test]
    fn data_survives_reopen_including_guard_metadata() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let path = Path::new("/db");
        let guards_before;
        {
            let db = open_small(Arc::clone(&env), path);
            for i in 0..3000u32 {
                db.put(&key(i), &value(i, 64)).unwrap();
            }
            db.flush().unwrap();
            // More writes that stay in the WAL only.
            for i in 3000..3200u32 {
                db.put(&key(i), &value(i, 64)).unwrap();
            }
            guards_before = db.guards_per_level();
        }
        let db = open_small(Arc::clone(&env), path);
        for i in (0..3200).step_by(111) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
        }
        let guards_after = db.guards_per_level();
        assert_eq!(
            guards_before, guards_after,
            "guards must be recovered from the MANIFEST"
        );
    }

    #[test]
    fn crash_mid_wal_write_recovers_prefix() {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let path = Path::new("/db");
        {
            let db = open_small(Arc::clone(&env), path);
            for i in 0..200u32 {
                db.put(&key(i), &value(i, 64)).unwrap();
            }
            // Simulate a crash: truncate the live WAL by a few bytes.
            let children = env.children(path).unwrap();
            let wal = children
                .iter()
                .filter(|name| name.ends_with(".log"))
                .max()
                .cloned()
                .unwrap();
            let wal_path = path.join(&wal);
            let size = env.file_size(&wal_path).unwrap() as usize;
            mem_env
                .truncate_file(&wal_path, size.saturating_sub(5))
                .unwrap();
        }
        let db = open_small(env, path);
        // All but (at most) the torn tail record must be readable.
        for i in 0..195u32 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
        }
    }

    #[test]
    fn pebblesdb1_mode_degenerates_towards_lsm() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut opts = small_options();
        opts.max_sstables_per_guard = 1;
        let db = PebblesDb::open_with_options(env, Path::new("/db"), opts).unwrap();
        assert_eq!(db.engine_name(), "PebblesDB-1");
        for i in 0..1000u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        db.flush().unwrap();
        for i in (0..1000).step_by(29) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Arc::new(open_small(env, Path::new("/db")));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..600u32 {
                        let k = format!("t{t}-{i:06}");
                        db.put(k.as_bytes(), &[b'v'; 64]).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..600u32 {
                        let _ = db.get(format!("t0-{i:06}").as_bytes()).unwrap();
                        if i % 50 == 0 {
                            let _ = db.scan(b"t0-", b"t0-~", 20).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.get(b"t1-000599").unwrap(), Some(vec![b'v'; 64]));
    }

    #[test]
    fn empty_guards_do_not_break_reads() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        // Insert one key range, delete it, then use a different range —
        // guards from the first range become empty (Figure 5.4 scenario).
        for i in 0..1500u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        db.flush().unwrap();
        for i in 0..1500u32 {
            db.delete(&key(i)).unwrap();
        }
        db.flush().unwrap();
        for i in 10_000..11_500u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        db.flush().unwrap();
        for i in (10_000..11_500).step_by(73) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)));
        }
        for i in (0..1500).step_by(97) {
            assert_eq!(db.get(&key(i)).unwrap(), None);
        }
    }

    #[test]
    fn disk_env_end_to_end() {
        let dir = std::env::temp_dir().join(format!("pebbles-core-disk-{}", std::process::id()));
        let env_concrete = DiskEnv::new();
        let _ = env_concrete.remove_dir_all(&dir);
        let env: Arc<dyn Env> = Arc::new(env_concrete.clone());
        {
            let db = open_small(Arc::clone(&env), &dir);
            for i in 0..800u32 {
                db.put(&key(i), &value(i, 128)).unwrap();
            }
            db.flush().unwrap();
        }
        {
            let db = open_small(Arc::clone(&env), &dir);
            for i in (0..800).step_by(17) {
                assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 128)));
            }
        }
        env_concrete.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_and_file_sizes_are_reported() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for i in 0..500u32 {
            db.put(&key(i), &value(i, 100)).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.user_bytes_written >= 500 * 100);
        assert!(stats.disk_bytes_live > 0);
        assert!(stats.num_files > 0);
        assert_eq!(stats.num_files as usize, db.live_file_sizes().len());
        assert!(stats.memory_usage_bytes > 0);
        assert!(stats.gets == 0);
        let _ = db.get(&key(1)).unwrap();
        assert_eq!(db.stats().gets, 1);
    }
}
