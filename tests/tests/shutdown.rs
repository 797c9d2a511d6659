//! Shutdown always terminates.
//!
//! Dropping a store joins its flush thread and compaction workers. A worker
//! that checks the shutdown flag under the state lock and then waits on its
//! condvar must not miss the drop's wakeup; if it does, `join` blocks
//! forever. Each case loops open → fill through several flushes → drop on a
//! separate thread, and a watchdog fails the test if the loop stalls instead
//! of letting a hang stall CI.

use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_common::{KvStore, StoreOptions};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;

/// Open/fill/drop rounds per case.
const ROUNDS: usize = 150;
/// A whole case normally takes a few seconds; a stall past this is a hang.
const DEADLINE: Duration = Duration::from_secs(30);

fn options(compaction_threads: usize) -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 16 << 10;
    opts.max_file_size = 16 << 10;
    opts.base_level_bytes = 64 << 10;
    opts.level0_compaction_trigger = 2;
    opts.level0_slowdown_writes_trigger = 4;
    opts.level0_stop_writes_trigger = 8;
    opts.max_sstables_per_guard = 2;
    opts.top_level_bits = 6;
    opts.bit_decrement = 1;
    opts.compaction_threads = compaction_threads;
    opts
}

/// Writes ~4 memtables' worth of keys so the store flushes and compacts
/// several times, then waits for it to go idle. The last compaction commit
/// wakes every idle worker, and `flush` returns while they are still
/// re-checking for work — the moment a drop's wakeup could be lost.
fn fill(db: &dyn KvStore, round: usize) {
    let value = vec![b'v'; 100];
    for i in 0..600u32 {
        let key = format!("key{:08}", (i as usize * 7919 + round * 31) % 5000);
        db.put(key.as_bytes(), &value).unwrap();
    }
    db.flush().unwrap();
}

fn open_fill_drop_under_watchdog(name: &str, open: fn(Arc<dyn Env>, &Path) -> Box<dyn KvStore>) {
    let (round_done, rounds_done) = mpsc::channel();
    let rounds = std::thread::Builder::new()
        .name(format!("shutdown-{name}"))
        .spawn(move || {
            for round in 0..ROUNDS {
                let env: Arc<dyn Env> = Arc::new(MemEnv::new());
                let db = open(env, Path::new("/shutdown"));
                fill(db.as_ref(), round);
                drop(db);
                let _ = round_done.send(());
            }
        })
        .unwrap();

    let deadline = Instant::now() + DEADLINE;
    for finished in 0..ROUNDS {
        match rounds_done.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(()) => {}
            // The round thread ended early: `join` below reports its panic.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            // The hung thread is left behind; the harness exits the process
            // once every test has reported.
            Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                "{name}: store drop hung after {finished} of {ROUNDS} rounds \
                 (watchdog fired at {DEADLINE:?})"
            ),
        }
    }
    rounds.join().expect("an open/fill/drop round panicked");
}

#[test]
fn flsm_drop_terminates_with_one_compaction_worker() {
    open_fill_drop_under_watchdog("flsm-1", |env, path| {
        Box::new(PebblesDb::open_with_options(env, path, options(1)).unwrap())
    });
}

#[test]
fn flsm_drop_terminates_with_four_compaction_workers() {
    open_fill_drop_under_watchdog("flsm-4", |env, path| {
        Box::new(PebblesDb::open_with_options(env, path, options(4)).unwrap())
    });
}

#[test]
fn lsm_drop_terminates_with_one_compaction_worker() {
    open_fill_drop_under_watchdog("lsm-1", |env, path| {
        Box::new(LsmDb::open_with_options(env, path, options(1)).unwrap())
    });
}

#[test]
fn lsm_drop_terminates_with_four_compaction_workers() {
    open_fill_drop_under_watchdog("lsm-4", |env, path| {
        Box::new(LsmDb::open_with_options(env, path, options(4)).unwrap())
    });
}
