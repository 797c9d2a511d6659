//! Crash-recovery integration tests: both LSM-family engines must recover
//! all acknowledged data (modulo a torn WAL tail) after a simulated crash at
//! arbitrary points — including the window where a flush or compaction has
//! fully written its output sstables but its MANIFEST commit never happened.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_common::{Db, KvStore, ReadOptions, StoreOptions, WriteBatch};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;

/// Number of `.sst` files physically present in the database directory.
fn tables_on_disk(env: &dyn Env, dir: &Path) -> usize {
    env.children(dir)
        .unwrap()
        .iter()
        .filter(|name| name.ends_with(".sst"))
        .count()
}

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

fn live_wal(env: &dyn Env, dir: &Path) -> std::path::PathBuf {
    let name = env
        .children(dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".log"))
        .max()
        .expect("a live WAL exists");
    dir.join(name)
}

#[test]
fn pebblesdb_recovers_after_torn_wal_at_many_points() {
    // Repeat the crash at several truncation points to cover record
    // boundaries, mid-record cuts and whole-block losses.
    for truncate_by in [1usize, 8, 64, 1000, 5000] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash");
        let written = 3000u32;
        {
            let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
            for i in 0..written {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            let wal = live_wal(env.as_ref(), dir);
            let size = env.file_size(&wal).unwrap() as usize;
            mem_env
                .truncate_file(&wal, size.saturating_sub(truncate_by))
                .unwrap();
        }
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        let mut recovered = 0u32;
        for i in 0..written {
            if db.get(format!("key{i:06}").as_bytes()).unwrap().is_some() {
                recovered += 1;
            }
        }
        // Everything outside the torn tail must be present; the tail can lose
        // at most the records covered by the truncated bytes.
        assert!(
            recovered >= written - 200,
            "truncate_by {truncate_by}: only {recovered}/{written} recovered"
        );
        // Prefix property: if key i is missing, no later key may be present
        // (writes were sequential, so durability must be prefix-closed).
        let mut missing_seen = false;
        for i in 0..written {
            let present = db.get(format!("key{i:06}").as_bytes()).unwrap().is_some();
            if missing_seen {
                assert!(!present, "key {i} present after an earlier key was lost");
            }
            if !present {
                missing_seen = true;
            }
        }
        env.remove_dir_all(dir).unwrap();
    }
}

#[test]
fn baseline_lsm_recovers_after_torn_wal() {
    let mem_env = MemEnv::new();
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let dir = Path::new("/crash-lsm");
    let written = 3000u32;
    {
        let db = LsmDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        for i in 0..written {
            db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let wal = live_wal(env.as_ref(), dir);
        let size = env.file_size(&wal).unwrap() as usize;
        mem_env
            .truncate_file(&wal, size.saturating_sub(20))
            .unwrap();
    }
    let db = LsmDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
    let mut recovered = 0u32;
    for i in 0..written {
        if db.get(format!("key{i:06}").as_bytes()).unwrap().is_some() {
            recovered += 1;
        }
    }
    assert!(recovered >= written - 50, "{recovered}/{written}");
}

/// Kills the store after a flush wrote its level-0 sstable but before the
/// MANIFEST commit, for both engines: recovery must lose nothing (the WAL
/// still covers the unflushed keys) and the orphan sstable must be reaped.
#[test]
fn crash_between_flush_output_and_manifest_commit_loses_nothing() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-manifest");
        let open = |env: &Arc<dyn Env>| -> Arc<dyn KvStore> {
            if engine == "flsm" {
                Arc::new(
                    PebblesDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap(),
                )
            } else {
                Arc::new(LsmDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap())
            }
        };

        {
            let db = open(&env);
            for i in 0..3000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // Another memtable's worth of acknowledged writes, still in the
            // WAL when the crash hits.
            for i in 3000..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            let live_before = db.stats().num_files as usize;
            // Every MANIFEST write fails from here on: the flush writes its
            // level-0 table in full, then cannot commit it.
            mem_env.inject_write_error_after("MANIFEST", 0);
            assert!(db.flush().is_err(), "{engine}: flush must surface bg_error");
            assert!(
                tables_on_disk(env.as_ref(), dir) > live_before,
                "{engine}: an orphan (uncommitted) sstable must exist on disk"
            );
        } // <- crash: the store is dropped with the orphan still present.

        mem_env.clear_fault_injection();
        let db = open(&env);
        for i in 0..4000u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine}: key {i} lost across the crash"
            );
        }
        db.flush().unwrap();
        assert_eq!(
            tables_on_disk(env.as_ref(), dir),
            db.stats().num_files as usize,
            "{engine}: recovery must reap every orphan sstable"
        );
    }
}

/// Kills the FLSM store after a *level* compaction wrote its output
/// fragments but before the MANIFEST commit. The compaction inputs are
/// still referenced by the old version, so recovery sees every key; the
/// orphaned outputs are reaped.
#[test]
fn flsm_crash_during_level_compaction_commit_is_recoverable() {
    let mem_env = MemEnv::new();
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let dir = Path::new("/crash-compaction");
    // Size-triggered compaction is disabled so the level-0 files pile up
    // deterministically; the compaction is then requested via the
    // seek-compaction trigger once fault injection is armed.
    let mut opts = small_options();
    opts.level0_compaction_trigger = 100;
    opts.level0_slowdown_writes_trigger = 100;
    opts.level0_stop_writes_trigger = 120;
    opts.enable_aggressive_compaction = false;
    opts.enable_seek_compaction = true;
    opts.seek_compaction_threshold = 5;

    {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, opts.clone()).unwrap();
        for round in 0..3u32 {
            for i in (round * 500)..((round + 1) * 500) {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap(); // one committed level-0 sstable per round
        }
        let live_before = db.stats().num_files as usize;
        assert!(live_before >= 3, "setup should leave several level-0 files");

        mem_env.inject_write_error_after("MANIFEST", 0);
        // Arm the seek-triggered compaction of the overlapping level-0 files.
        for _ in 0..opts.seek_compaction_threshold {
            let mut iter = db.iter(&ReadOptions::default()).unwrap();
            iter.seek(b"key");
        }
        // The compaction writes its outputs, then fails the MANIFEST commit.
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.flush().is_ok() {
            assert!(Instant::now() < deadline, "compaction never hit bg_error");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            tables_on_disk(env.as_ref(), dir) > live_before,
            "orphan compaction outputs must exist on disk"
        );
    } // <- crash.

    mem_env.clear_fault_injection();
    let db = PebblesDb::open_with_options(Arc::clone(&env), dir, opts).unwrap();
    for i in 0..1500u32 {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "key {i} lost across the compaction crash"
        );
    }
    db.flush().unwrap();
    assert_eq!(
        tables_on_disk(env.as_ref(), dir),
        db.stats().num_files as usize,
        "recovery must reap the orphaned compaction outputs"
    );
}

/// Durability of directory entries: sstables, fresh WALs and the CURRENT
/// rename are all `sync_dir`ed before anything references them, so a crash
/// that loses every *unsynced* directory entry (the metadata a real
/// filesystem may drop when the directory was never fsynced) loses no data
/// and leaves the store openable.
///
/// Before the `sync_dir` step existed, the CURRENT rename could roll back
/// to a MANIFEST that no longer matches the data files, and a flushed
/// sstable could vanish while the MANIFEST still referenced it.
#[test]
fn dropped_unsynced_dir_entries_lose_no_acknowledged_data() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-dirsync");
        let open = |env: &Arc<dyn Env>| -> Arc<dyn KvStore> {
            if engine == "flsm" {
                Arc::new(
                    PebblesDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap(),
                )
            } else {
                Arc::new(LsmDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap())
            }
        };

        {
            let db = open(&env);
            for i in 0..3000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // A WAL-only tail of acknowledged writes.
            for i in 3000..3500u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        } // <- power loss.

        assert!(
            mem_env.io_stats().snapshot().dir_syncs > 0,
            "{engine}: the engine never synced its directory"
        );
        // The crash drops every directory entry not covered by a sync_dir.
        mem_env.drop_unsynced_dir_entries();

        let db = open(&env);
        for i in 0..3500u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine}: key {i} lost to an unsynced directory entry"
            );
        }
    }
}

/// Opens either LSM-family engine as a multi-namespace `Db`.
fn open_db_engine(engine: &str, env: &Arc<dyn Env>, dir: &Path) -> Arc<dyn Db> {
    if engine == "flsm" {
        Arc::new(PebblesDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap())
    } else {
        Arc::new(LsmDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap())
    }
}

/// Column-family lifecycle, crash window 1: records written to several
/// families after a create live only in the shared WAL when the crash hits;
/// replay must route every record into its own family. A second create whose
/// catalog edit committed but whose directory initialisation crashed must
/// come back as an empty, usable family.
#[test]
fn cf_wal_replay_routes_records_into_their_families() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-cf-route");
        {
            let db = open_db_engine(engine, &env, dir);
            let users = db.create_cf("users").unwrap();
            for i in 0..500u32 {
                db.put(format!("d{i:04}").as_bytes(), b"default").unwrap();
                users.put(format!("u{i:04}").as_bytes(), b"users").unwrap();
            }
            // The create edit for "broken" commits to the catalog, then the
            // family's own MANIFEST initialisation dies — the crash window
            // between the catalog commit and the directory setup.
            mem_env.inject_write_error_after(&format!("{}/cf-", dir.display()), 0);
            assert!(db.create_cf("broken").is_err());
        } // <- crash: everything above lives in the WAL only.

        mem_env.clear_fault_injection();
        let db = open_db_engine(engine, &env, dir);
        let mut names = db.list_cfs();
        names.sort();
        assert_eq!(
            names,
            vec![
                "broken".to_string(),
                "default".to_string(),
                "users".to_string()
            ],
            "{engine}: catalog entries survive the crash"
        );
        let users = db.cf("users").unwrap();
        for i in (0..500u32).step_by(17) {
            assert_eq!(
                db.get(format!("d{i:04}").as_bytes()).unwrap(),
                Some(b"default".to_vec()),
                "{engine}: default-family record lost or misrouted"
            );
            assert_eq!(
                users.get(format!("u{i:04}").as_bytes()).unwrap(),
                Some(b"users".to_vec()),
                "{engine}: users-family record lost or misrouted"
            );
            // No bleed-through between namespaces.
            assert_eq!(db.get(format!("u{i:04}").as_bytes()).unwrap(), None);
            assert_eq!(users.get(format!("d{i:04}").as_bytes()).unwrap(), None);
        }
        // The half-created family recovered as an empty, usable namespace.
        let broken = db.cf("broken").unwrap();
        assert!(broken.scan(b"", &[], 10).unwrap().is_empty());
        broken.put(b"now", b"works").unwrap();
        assert_eq!(broken.get(b"now").unwrap(), Some(b"works".to_vec()));
    }
}

/// Column-family lifecycle, crash window 2: the drop edit committed to the
/// catalog but the crash struck before the family's directory was deleted.
/// Reopen must reap the orphaned directory (sstables included), drop the
/// family's WAL records instead of resurrecting them, and leave the
/// surviving families intact.
#[test]
fn cf_drop_commit_without_dir_removal_reaps_orphans() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-cf-drop");
        let temp_id;
        {
            let db = open_db_engine(engine, &env, dir);
            let keep = db.create_cf("keep").unwrap();
            let temp = db.create_cf("temp").unwrap();
            temp_id = temp.id();
            for i in 0..2000u32 {
                keep.put(format!("k{i:05}").as_bytes(), b"keep").unwrap();
                temp.put(format!("t{i:05}").as_bytes(), b"temp").unwrap();
            }
            db.flush().unwrap(); // both families own sstables now
                                 // More WAL-only records for the doomed family.
            for i in 2000..2500u32 {
                temp.put(format!("t{i:05}").as_bytes(), b"temp").unwrap();
            }
        } // <- clean close; now fabricate the torn drop.

        let temp_dir = dir.join(format!("cf-{temp_id}"));
        assert!(
            !env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: setup must leave sstables in the family directory"
        );
        // Commit the drop edit exactly as `drop_cf` does — and "crash"
        // before the directory removal that would normally follow.
        let data = pebblesdb_engine::catalog::read(env.as_ref(), dir).unwrap();
        let mut catalog =
            pebblesdb_engine::catalog::Catalog::rewrite(Arc::clone(&env), dir, &data).unwrap();
        catalog.append_drop(temp_id).unwrap();
        drop(catalog);

        let db = open_db_engine(engine, &env, dir);
        assert!(db.cf("temp").is_none(), "{engine}: dropped family is gone");
        assert!(
            env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: orphaned family sstables must be reaped on reopen"
        );
        let keep = db.cf("keep").unwrap();
        for i in (0..2000u32).step_by(97) {
            assert_eq!(
                keep.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(b"keep".to_vec()),
                "{engine}: surviving family lost data"
            );
        }
        // A recreated family with the same name is a fresh id and empty —
        // the dead family's WAL records must not resurface in it.
        let recreated = db.create_cf("temp").unwrap();
        assert!(recreated.id() > temp_id, "{engine}: ids are never reused");
        assert!(recreated.scan(b"", &[], 10).unwrap().is_empty());
    }
}

/// Cross-family atomic batches: a batch spanning the default family and an
/// index family either fully survives a torn-WAL crash or fully vanishes —
/// never a row without its index entry or vice versa.
#[test]
fn cross_cf_batches_are_atomic_across_torn_wal() {
    for engine in ["flsm", "lsm"] {
        for truncate_by in [1usize, 37, 500, 4000] {
            let mem_env = MemEnv::new();
            let env: Arc<dyn Env> = Arc::new(mem_env.clone());
            let dir = Path::new("/crash-cf-atomic");
            let written = 800u32;
            {
                let db = open_db_engine(engine, &env, dir);
                let index = db.create_cf("index").unwrap();
                for i in 0..written {
                    let mut batch = WriteBatch::new();
                    batch.put(format!("row{i:05}").as_bytes(), b"payload");
                    batch.put_cf(index.id(), format!("idx{i:05}").as_bytes(), b"entry");
                    db.write(batch).unwrap();
                }
                let wal = live_wal(env.as_ref(), dir);
                let size = env.file_size(&wal).unwrap() as usize;
                mem_env
                    .truncate_file(&wal, size.saturating_sub(truncate_by))
                    .unwrap();
            } // <- crash with a torn WAL tail.

            let db = open_db_engine(engine, &env, dir);
            let index = db.cf("index").unwrap();
            let mut survivors = 0u32;
            for i in 0..written {
                let row = db.get(format!("row{i:05}").as_bytes()).unwrap().is_some();
                let idx = index
                    .get(format!("idx{i:05}").as_bytes())
                    .unwrap()
                    .is_some();
                assert_eq!(
                    row, idx,
                    "{engine}/truncate {truncate_by}: batch {i} applied to only one family"
                );
                if row {
                    survivors += 1;
                }
            }
            assert!(
                survivors >= written - 100,
                "{engine}/truncate {truncate_by}: only {survivors}/{written} batches survived"
            );
            env.remove_dir_all(dir).unwrap();
        }
    }
}

#[test]
fn repeated_reopen_preserves_data_and_guards() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/reopen");
    let mut expected_guards = None;
    for round in 0..4u32 {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        // Every round adds a new slice of keys and verifies all previous ones.
        for i in (round * 1000)..((round + 1) * 1000) {
            db.put(
                format!("key{i:06}").as_bytes(),
                format!("round{round}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        for check_round in 0..=round {
            let key = format!("key{:06}", check_round * 1000 + 17);
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(format!("round{check_round}").into_bytes()),
                "round {round} check {check_round}"
            );
        }
        if let Some(previous) = expected_guards {
            let current = db.guards_per_level();
            assert!(
                current
                    .iter()
                    .zip(&previous)
                    .all(|(now, before): (&usize, &usize)| now >= before),
                "guards must never be lost across reopens: {previous:?} -> {current:?}"
            );
        }
        expected_guards = Some(db.guards_per_level());
    }
}

#[test]
fn deleting_everything_then_reopening_yields_empty_reads() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/empty");
    {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        for i in 0..2000u32 {
            db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
        }
        for i in 0..2000u32 {
            db.delete(format!("key{i:06}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
    for i in (0..2000u32).step_by(111) {
        assert_eq!(db.get(format!("key{i:06}").as_bytes()).unwrap(), None);
    }
    assert!(db.scan(b"key", &[], 10).unwrap().is_empty());
}

/// Column-family lifecycle, silent-failure window: the drop edit commits but
/// the directory removal itself fails (an undeletable directory — EBUSY, a
/// flaky device). The failure must be recorded in the store's counters, not
/// silently discarded, and the next reopen must reap the orphan.
#[test]
fn cf_drop_with_failed_dir_removal_is_recorded_and_reaped_on_reopen() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/drop-remove-fail");
        let temp_id;
        {
            let db = open_db_engine(engine, &env, dir);
            let temp = db.create_cf("temp").unwrap();
            temp_id = temp.id();
            for i in 0..500u32 {
                temp.put(format!("t{i:04}").as_bytes(), b"temp").unwrap();
            }
            db.flush().unwrap(); // the family owns sstables now
            let before = db.stats().cleanup_failures;
            mem_env.inject_remove_error(&format!("{}/cf-{temp_id}", dir.display()));

            // The drop itself succeeds — the family is gone from the catalog
            // and unreachable — but its directory could not be deleted.
            db.drop_cf("temp").unwrap();
            assert!(db.cf("temp").is_none(), "{engine}: family must be gone");
            assert!(
                db.stats().cleanup_failures > before,
                "{engine}: failed directory removal was silently discarded"
            );
            let temp_dir = dir.join(format!("cf-{temp_id}"));
            assert!(
                !env.children(&temp_dir).unwrap().is_empty(),
                "{engine}: setup must leave the orphan directory behind"
            );
        }

        // The machine comes back healthy: reopen reaps the orphan.
        mem_env.clear_fault_injection();
        let db = open_db_engine(engine, &env, dir);
        assert!(
            db.cf("temp").is_none(),
            "{engine}: dropped family stays gone"
        );
        let temp_dir = dir.join(format!("cf-{temp_id}"));
        assert!(
            env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: orphaned directory must be reaped on reopen"
        );
    }
}
