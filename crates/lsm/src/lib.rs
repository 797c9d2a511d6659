//! Baseline leveled-compaction LSM engine.
//!
//! This crate implements the classical log-structured merge tree the paper
//! describes in chapter 2 and uses as the comparison point for PebblesDB:
//! LevelDB, HyperLevelDB and RocksDB. The three baselines are modelled as
//! configuration presets ([`StorePreset`]) over one engine so that the only
//! difference between "LevelDB" and "RocksDB" runs is the parameters the
//! paper itself calls out (memtable size, level-0 thresholds, compaction
//! parallelism), and the difference between *all of them* and PebblesDB is
//! the data structure.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pebblesdb_common::{KvStore, StoreOptions, StorePreset};
//! use pebblesdb_env::MemEnv;
//! use pebblesdb_lsm::{LsmDb, LsmPolicy};
//!
//! let env = Arc::new(MemEnv::new());
//! let options = StoreOptions::with_preset(StorePreset::LevelDb);
//! let policy = LsmPolicy::with_preset(&options, StorePreset::LevelDb);
//! let db = LsmDb::open(policy, env, std::path::Path::new("/db"), options).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
//! ```

pub mod db;
pub mod iter;
pub mod version;

pub use db::{LsmDb, LsmPolicy};
pub use iter::LevelConcatIterator;
pub use pebblesdb_common::{StoreOptions, StorePreset};
pub use version::{FileMetaData, Version};

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
        opts
    }

    fn open_small(env: Arc<dyn Env>, path: &Path) -> LsmDb {
        LsmDb::open_with_options(env, path, small_options()).unwrap()
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
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(b"c").unwrap(), None);

        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);

        db.put(b"b", b"22").unwrap();
        assert_eq!(db.get(b"b").unwrap(), Some(b"22".to_vec()));
    }

    #[test]
    fn batched_writes_are_atomic_and_ordered() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        let mut batch = WriteBatch::new();
        batch.put(b"x", b"1");
        batch.put(b"y", b"2");
        batch.delete(b"x");
        db.write(batch).unwrap();
        assert_eq!(db.get(b"x").unwrap(), None);
        assert_eq!(db.get(b"y").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn many_writes_flow_through_compaction_and_stay_readable() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(Arc::clone(&env), Path::new("/db"));
        let n = 3000u32;
        for i in 0..n {
            db.put(&key(i), &value(i, 100)).unwrap();
        }
        db.flush().unwrap();

        // Data must have reached multiple levels.
        let per_level = db.files_per_level();
        assert!(per_level.iter().skip(1).any(|&c| c > 0), "{per_level:?}");

        for i in (0..n).step_by(37) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 100)), "key {i}");
        }
        let stats = db.stats();
        assert!(stats.compactions > 0);
        assert!(stats.bytes_written > stats.user_bytes_written);
        assert!(stats.write_amplification() > 1.0);
    }

    #[test]
    fn overwrites_return_newest_value_after_compaction() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for round in 0..3u32 {
            for i in 0..500u32 {
                db.put(&key(i), &value(i * 10 + round, 64)).unwrap();
            }
        }
        db.flush().unwrap();
        for i in (0..500).step_by(11) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i * 10 + 2, 64)));
        }
    }

    #[test]
    fn scans_merge_memtable_and_sstables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for i in 0..1000u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        db.flush().unwrap();
        // Recent updates stay in the memtable.
        db.put(&key(500), b"fresh").unwrap();
        db.delete(&key(501)).unwrap();

        let results = db.scan(&key(499), &key(505), 100).unwrap();
        let keys: Vec<Vec<u8>> = results.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![key(499), key(500), key(502), key(503), key(504)]);
        let map: std::collections::HashMap<_, _> = results.into_iter().collect();
        assert_eq!(map[&key(500)], b"fresh".to_vec());

        // Unbounded scan with a limit.
        let results = db.scan(&key(0), &[], 10).unwrap();
        assert_eq!(results.len(), 10);
        assert_eq!(results[0].0, key(0));
    }

    #[test]
    fn data_survives_reopen_via_wal_and_manifest() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let path = Path::new("/db");
        {
            let db = open_small(Arc::clone(&env), path);
            for i in 0..2000u32 {
                db.put(&key(i), &value(i, 64)).unwrap();
            }
            // No flush: some data is only in the WAL/memtable.
        }
        let db = open_small(Arc::clone(&env), path);
        for i in (0..2000).step_by(97) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
        }
    }

    #[test]
    fn disk_env_end_to_end() {
        let dir = std::env::temp_dir().join(format!("pebbles-lsm-disk-{}", std::process::id()));
        let env_concrete = DiskEnv::new();
        let _ = env_concrete.remove_dir_all(&dir);
        let env: Arc<dyn Env> = Arc::new(env_concrete.clone());
        {
            let db = open_small(Arc::clone(&env), &dir);
            for i in 0..500u32 {
                db.put(&key(i), &value(i, 128)).unwrap();
            }
            db.flush().unwrap();
            for i in (0..500).step_by(13) {
                assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 128)));
            }
        }
        env_concrete.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Arc::new(open_small(env, Path::new("/db")));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
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
                    for i in 0..500u32 {
                        let k = format!("t0-{i:06}");
                        let _ = db.get(k.as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.get(b"t0-000499").unwrap(), Some(vec![b'v'; 64]));
        assert_eq!(db.get(b"t1-000499").unwrap(), Some(vec![b'v'; 64]));
    }

    #[test]
    fn presets_report_their_names() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let open_preset = |env: Arc<dyn Env>, path: &str, preset: StorePreset| {
            let options = StoreOptions::with_preset(preset);
            let policy = LsmPolicy::with_preset(&options, preset);
            LsmDb::open(policy, env, Path::new(path), options).unwrap()
        };
        let db = open_preset(Arc::clone(&env), "/l", StorePreset::LevelDb);
        assert_eq!(db.engine_name(), "LevelDB");
        let db2 = open_preset(env, "/r", StorePreset::RocksDb);
        assert_eq!(db2.engine_name(), "RocksDB");
    }

    #[test]
    fn stats_track_user_bytes_and_live_files() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_small(env, Path::new("/db"));
        for i in 0..200u32 {
            db.put(&key(i), &value(i, 100)).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.user_bytes_written >= 200 * 100);
        assert!(stats.disk_bytes_live > 0);
        assert!(stats.num_files > 0);
        assert!(!db.live_file_sizes().is_empty());
        assert!(db.stats().memory_usage_bytes > 0);
    }
}
