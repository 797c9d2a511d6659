//! Concurrency stress suite for the group-commit write pipeline and the
//! concurrent arena memtable.
//!
//! N writer threads race M cursor/get threads against both LSM engines and
//! asserts the invariants the redesign must preserve:
//!
//! * **Batch atomicity.** Each writer updates a key pair atomically in one
//!   `WriteBatch`; a snapshot read must never observe the pair torn.
//! * **Snapshot isolation.** Two cursors opened on the same snapshot, while
//!   writes keep streaming, must yield identical contents.
//! * **Zero memtable clones.** A cursor held open across more than
//!   `write_buffer_size` worth of writes must not force a memtable deep copy
//!   (`StoreStats::memtable_clones` stays 0 — the `Arc::make_mut`
//!   copy-on-write path is gone).
//!
//! The suite is intentionally heavier than the unit tests; CI runs it in
//! release mode.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{KvStore, ReadOptions, StoreOptions, StoreStats, WriteBatch};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;

const WRITER_THREADS: usize = 4;
const READER_THREADS: usize = 3;
const WRITES_PER_THREAD: usize = 400;
const KEYS_PER_WRITER: u64 = 32;

fn small_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 32 << 10;
    opts.max_file_size = 16 << 10;
    opts.base_level_bytes = 64 << 10;
    opts.level0_compaction_trigger = 2;
    opts
}

fn both_engines() -> Vec<(&'static str, Arc<dyn KvStore>)> {
    let opts = small_options();
    let flsm_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    vec![
        (
            "flsm",
            Arc::new(
                PebblesDb::open_with_options(flsm_env, Path::new("/flsm"), opts.clone()).unwrap(),
            ) as Arc<dyn KvStore>,
        ),
        (
            "lsm",
            Arc::new(LsmDb::open_with_options(lsm_env, Path::new("/lsm"), opts).unwrap()),
        ),
    ]
}

/// The key pair writer `w` updates atomically for slot `i`.
fn pair_keys(w: usize, i: u64) -> (Vec<u8>, Vec<u8>) {
    (
        format!("a/{w:02}/{i:04}").into_bytes(),
        format!("b/{w:02}/{i:04}").into_bytes(),
    )
}

/// Writers update key pairs in atomic batches while snapshot readers verify
/// the pair is never torn and cursors opened mid-stream are self-consistent.
#[test]
fn concurrent_writers_and_snapshot_readers_agree() {
    for (name, store) in both_engines() {
        let stop = Arc::new(AtomicBool::new(false));
        let torn = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            for reader in 0..READER_THREADS {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let torn = Arc::clone(&torn);
                scope.spawn(move || {
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let snap = store.snapshot();
                        let opts = snap.read_options();
                        if reader == 0 {
                            // Cursor consistency: two cursors on the same
                            // snapshot stream identical contents even while
                            // writers keep committing.
                            let first = store.scan_opts(&opts, b"a/", b"a0", 10_000).unwrap();
                            let second = store.scan_opts(&opts, b"a/", b"a0", 10_000).unwrap();
                            assert_eq!(first, second, "snapshot cursors diverged ({rounds})");
                        } else {
                            // Pair atomicity under a pinned snapshot.
                            let w = rounds as usize % WRITER_THREADS;
                            let i = rounds % KEYS_PER_WRITER;
                            let (ka, kb) = pair_keys(w, i);
                            let va = store.get_opts(&opts, &ka).unwrap();
                            let vb = store.get_opts(&opts, &kb).unwrap();
                            if va != vb {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        rounds += 1;
                    }
                });
            }

            for w in 0..WRITER_THREADS {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for version in 0..WRITES_PER_THREAD as u64 {
                        let i = version % KEYS_PER_WRITER;
                        let (ka, kb) = pair_keys(w, i);
                        let value = format!("v{version:08}").into_bytes();
                        let mut batch = WriteBatch::new();
                        batch.put(&ka, &value);
                        batch.put(&kb, &value);
                        store.write(batch).unwrap();
                    }
                });
            }

            // Writers finish first (scope joins writers when their closures
            // return); then stop the readers.
            // The scope guarantees ordering via the stop flag set below once
            // the writer handles are joined.
            scope.spawn({
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                move || {
                    // Poll until every writer's final value is visible, then
                    // stop the readers.
                    let final_version = WRITES_PER_THREAD as u64 - 1;
                    let expected = format!("v{final_version:08}").into_bytes();
                    let (ka, _) = pair_keys(WRITER_THREADS - 1, final_version % KEYS_PER_WRITER);
                    loop {
                        if store.get(&ka).unwrap() == Some(expected.clone()) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    stop.store(true, Ordering::Release);
                }
            });
        });

        assert_eq!(
            torn.load(Ordering::Relaxed),
            0,
            "{name}: a snapshot read observed a torn write batch"
        );

        // Every writer's last value for every slot must be durable.
        store.flush().unwrap();
        for w in 0..WRITER_THREADS {
            for i in 0..KEYS_PER_WRITER {
                let last_version =
                    ((WRITES_PER_THREAD as u64 - 1) / KEYS_PER_WRITER) * KEYS_PER_WRITER + i;
                let last_version = if last_version >= WRITES_PER_THREAD as u64 {
                    last_version - KEYS_PER_WRITER
                } else {
                    last_version
                };
                let expected = format!("v{last_version:08}").into_bytes();
                let (ka, kb) = pair_keys(w, i);
                assert_eq!(store.get(&ka).unwrap(), Some(expected.clone()), "{name}");
                assert_eq!(store.get(&kb).unwrap(), Some(expected), "{name}");
            }
        }
    }
}

/// A cursor held open across more than `write_buffer_size` worth of writes
/// must keep its view, survive the memtable freeze, and force zero memtable
/// clones.
#[test]
fn cursor_across_memtable_rotation_takes_no_clone() {
    for (name, store) in both_engines() {
        for i in 0..100u64 {
            store
                .put(format!("pre/{i:04}").as_bytes(), b"before")
                .unwrap();
        }

        let mut cursor = store.iter(&ReadOptions::default()).unwrap();
        cursor.seek(b"pre/");

        // Write several memtables' worth of data while the cursor is open.
        let value = vec![b'x'; 512];
        let budget = small_options().write_buffer_size * 4;
        let mut written = 0usize;
        let mut i = 0u64;
        while written < budget {
            let key = format!("bulk/{i:08}").into_bytes();
            store.put(&key, &value).unwrap();
            written += key.len() + value.len();
            i += 1;
        }

        // The cursor still streams its pre-rotation view of `pre/`.
        let mut seen = 0;
        while cursor.valid() && cursor.key().starts_with(b"pre/") {
            assert_eq!(cursor.value(), b"before", "{name}");
            seen += 1;
            cursor.next();
        }
        assert_eq!(seen, 100, "{name}: cursor lost part of its view");

        let stats = store.stats();
        assert_eq!(
            stats.memtable_clones, 0,
            "{name}: the copy-on-write path came back"
        );
        assert!(
            stats.user_bytes_written as usize >= budget,
            "{name}: writes went missing"
        );
    }
}

/// The multi-threaded per-guard compaction pool under full write load:
/// 4 writers stream data through a tiny memtable while snapshot readers and
/// a long-lived cursor race the pool (`compaction_threads = 4`).
///
/// Asserts the invariants the compaction subsystem must preserve:
/// * no `bg_error` (the final `flush` would surface it),
/// * snapshot reads stay self-consistent while guards are compacted away
///   beneath them,
/// * a cursor opened before the storm still streams its full pre-storm view,
/// * zero memtable clones, and
/// * at least two compaction jobs genuinely overlapped in time
///   (`max_concurrent_compactions >= 2`) — the tentpole claim of the
///   multi-threaded compaction architecture.
#[test]
fn compaction_pool_overlaps_jobs_and_preserves_consistency() {
    let stats = compaction_storm(|env| {
        let mut opts = storm_options();
        opts.max_sstables_per_guard = 2;
        Arc::new(PebblesDb::open_with_options(env, Path::new("/pool"), opts).unwrap())
    });
    assert!(
        stats.max_concurrent_compactions >= 2,
        "per-guard jobs never overlapped (max concurrency {})",
        stats.max_concurrent_compactions
    );
}

/// The LSM baseline driven through the *same* chassis worker pool
/// (`compaction_threads = 4`): its leveled-compaction policy claims jobs
/// exclusively, so the pool must degrade gracefully to serialized jobs
/// without losing consistency, wedging a worker or poisoning the store.
#[test]
fn lsm_chassis_pool_survives_the_same_storm_with_exclusive_jobs() {
    let stats = compaction_storm(|env| {
        Arc::new(LsmDb::open_with_options(env, Path::new("/pool-lsm"), storm_options()).unwrap())
    });
    assert!(
        stats.max_concurrent_compactions <= 1,
        "leveled jobs must stay exclusive (max concurrency {})",
        stats.max_concurrent_compactions
    );
}

fn storm_options() -> StoreOptions {
    let mut opts = small_options();
    opts.write_buffer_size = 16 << 10;
    opts.compaction_threads = 4;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts
}

/// Runs the write/read/compaction storm against `open_store` and returns the
/// final stats after the shared invariants held: no `bg_error`, snapshot
/// scans self-consistent, the pre-storm cursor intact, zero memtable clones
/// and a running flush thread.
fn compaction_storm(open_store: impl Fn(Arc<dyn Env>) -> Arc<dyn KvStore>) -> StoreStats {
    let mem_env = MemEnv::new();
    // Widen every sstable write so concurrent jobs reliably overlap in time
    // even on a fast machine; the WAL stays fast.
    mem_env.set_write_latency_micros_for(".sst", 30);
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let store = open_store(env);

    // A pre-storm view for the long-lived cursor.
    for i in 0..100u64 {
        store
            .put(format!("seed/{i:04}").as_bytes(), b"seed")
            .unwrap();
    }
    let mut cursor = store.iter(&ReadOptions::default()).unwrap();
    cursor.seek(b"seed/");

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for reader in 0..READER_THREADS {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snap = store.snapshot();
                    let read_opts = snap.read_options();
                    let start = format!("w/{:02}/", rounds as usize % WRITER_THREADS);
                    let first = store
                        .scan_opts(&read_opts, start.as_bytes(), &[], 64)
                        .unwrap();
                    let second = store
                        .scan_opts(&read_opts, start.as_bytes(), &[], 64)
                        .unwrap();
                    assert_eq!(
                        first, second,
                        "reader {reader}: snapshot scans diverged under compaction"
                    );
                    rounds += 1;
                }
            });
        }

        for w in 0..WRITER_THREADS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let value = vec![b'v'; 256];
                for i in 0..1500u64 {
                    let key = format!("w/{w:02}/{:06}", i % 512);
                    store.put(key.as_bytes(), &value).unwrap();
                }
            });
        }

        scope.spawn({
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            move || {
                // Stop the readers once the final value of the last writer
                // is visible (all writers are done by then or shortly after).
                let last = format!("w/{:02}/{:06}", WRITER_THREADS - 1, 1499 % 512);
                while store.get(last.as_bytes()).unwrap().is_none() {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            }
        });
    });

    // No bg_error anywhere in the pool.
    store.flush().expect("a compaction job poisoned the store");

    // The long-lived cursor still streams its complete pre-storm view.
    let mut seen = 0;
    while cursor.valid() && cursor.key().starts_with(b"seed/") {
        assert_eq!(cursor.value(), b"seed");
        seen += 1;
        cursor.next();
    }
    assert_eq!(seen, 100, "cursor lost part of its pinned view");

    let stats = store.stats();
    assert_eq!(stats.memtable_clones, 0, "copy-on-write path came back");
    assert!(stats.flushes > 0, "the dedicated flush thread never ran");
    stats
}

/// Hammer point gets from many threads while one thread writes; every get
/// must return either a complete previous value or a complete new value.
#[test]
fn point_reads_race_the_write_stream() {
    for (name, store) in both_engines() {
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..READER_THREADS {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        if let Some(v) = store.get(b"hot").unwrap() {
                            assert_eq!(v.len(), 8, "{name}: torn value");
                            let n = u64::from_le_bytes(v.try_into().unwrap());
                            assert!(n < 2_000, "{name}: impossible version");
                        }
                    }
                });
            }
            let writer_store = Arc::clone(&store);
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                for n in 0..2_000u64 {
                    writer_store.put(b"hot", &n.to_le_bytes()).unwrap();
                }
                writer_stop.store(true, Ordering::Release);
            });
        });
        assert_eq!(
            store.get(b"hot").unwrap(),
            Some(1_999u64.to_le_bytes().to_vec()),
            "{name}"
        );
    }
}
