//! Settling a store to idle, and closing it, each under a deadline.
//!
//! A store left compacting when it is closed can hang in close (a lost
//! wakeup between the shutdown flag and the compaction workers' condvar
//! wait). The benchmark therefore drains every store to idle before closing
//! it, and still closes under a watchdog: a close that misses its deadline is
//! counted as a failure and the process exits instead of hanging.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb_common::KvStore;

/// How long the compaction and file counts must hold still to count as idle.
pub const SETTLE_WINDOW: Duration = Duration::from_millis(200);
/// How often the counts are read while settling.
const SETTLE_POLL: Duration = Duration::from_millis(10);
/// Longest a settle may take before it counts as a failure.
pub const SETTLE_DEADLINE: Duration = Duration::from_secs(60);
/// Longest a close may take before it counts as a failure.
pub const CLOSE_DEADLINE: Duration = Duration::from_secs(20);

/// Flushes `db`, then waits until its compaction count and file count are
/// unchanged across `window`. Fails if either step is still going at
/// `deadline` after the call.
///
/// `flush` runs on a helper thread so that a flush that never returns cannot
/// hang the benchmark; such a thread is left behind, and the caller is
/// expected to report the failure and exit.
pub fn settle<S>(db: &Arc<S>, window: Duration, deadline: Duration) -> Result<(), String>
where
    S: KvStore + ?Sized + 'static,
{
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let flusher = {
        let db = Arc::clone(db);
        std::thread::Builder::new()
            .name("perfbench-settle".into())
            .spawn(move || {
                let _ = tx.send(db.flush());
            })
            .map_err(|e| format!("spawn settle thread: {e}"))?
    };
    match rx.recv_timeout(deadline) {
        Ok(result) => {
            flusher
                .join()
                .map_err(|_| "settle thread panicked".to_string())?;
            result.map_err(|e| format!("flush failed: {e}"))?;
        }
        Err(_) => return Err(format!("flush did not return within {deadline:?}")),
    }
    let counts = || {
        let s = db.stats();
        (s.compactions, s.num_files)
    };
    let mut last = counts();
    let mut still_since = Instant::now();
    loop {
        if still_since.elapsed() >= window {
            return Ok(());
        }
        if start.elapsed() >= deadline {
            return Err(format!("compaction still running after {deadline:?}"));
        }
        std::thread::sleep(SETTLE_POLL);
        let now = counts();
        if now != last {
            last = now;
            still_since = Instant::now();
        }
    }
}

/// Drops the last handle to `db` on a helper thread and waits at most
/// `deadline` for the drop (which joins the store's background threads) to
/// finish. Returns `false` if it did not; the helper is then left behind and
/// the caller is expected to exit the process once it has reported.
pub fn close_within<S>(db: Arc<S>, deadline: Duration) -> bool
where
    S: Send + Sync + ?Sized + 'static,
{
    debug_assert_eq!(Arc::strong_count(&db), 1, "close needs the last handle");
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("perfbench-close".into())
        .spawn(move || {
            drop(db);
            let _ = tx.send(());
        });
    let Ok(closer) = spawned else {
        return false;
    };
    match rx.recv_timeout(deadline) {
        Ok(()) => closer.join().is_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb::PebblesDb;
    use pebblesdb_common::{
        DbIterator, ReadOptions, Result, Snapshot, SnapshotList, StoreStats, WriteBatch,
        WriteOptions,
    };
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn settles_a_compacting_store_and_closes_it() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut options = crate::workload::store_options();
        options.write_buffer_size = 32 << 10;
        let db = Arc::new(PebblesDb::open_with_options(env, Path::new("/idle"), options).unwrap());
        for i in 0..20_000u64 {
            db.put(&pebblesdb_bench::keygen::bench_key(i % 5000), &[1u8; 128])
                .unwrap();
        }
        settle(&db, SETTLE_WINDOW, SETTLE_DEADLINE).unwrap();
        let s = db.stats();
        assert!(s.flushes > 0 && s.compactions > 0, "{s:?}");
        // Idle means idle: nothing moves in a further window.
        std::thread::sleep(SETTLE_WINDOW);
        let later = db.stats();
        assert_eq!(
            (s.compactions, s.num_files),
            (later.compactions, later.num_files)
        );
        assert!(close_within(db, CLOSE_DEADLINE));
    }

    /// A store whose flush takes `flush_delay` and whose compaction count
    /// rises on every `stats` call when `churn` is set.
    struct FakeStore {
        flush_delay: Duration,
        churn: bool,
        calls: AtomicU64,
        snapshots: Arc<SnapshotList>,
    }

    impl FakeStore {
        fn new(flush_delay: Duration, churn: bool) -> Arc<FakeStore> {
            Arc::new(FakeStore {
                flush_delay,
                churn,
                calls: AtomicU64::new(0),
                snapshots: Arc::new(SnapshotList::default()),
            })
        }
    }

    impl KvStore for FakeStore {
        fn put_opts(&self, _: &WriteOptions, _: &[u8], _: &[u8]) -> Result<()> {
            Ok(())
        }
        fn get_opts(&self, _: &ReadOptions, _: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn delete_opts(&self, _: &WriteOptions, _: &[u8]) -> Result<()> {
            Ok(())
        }
        fn write_opts(&self, _: &WriteOptions, _: WriteBatch) -> Result<()> {
            Ok(())
        }
        fn iter(&self, _: &ReadOptions) -> Result<Box<dyn DbIterator>> {
            Ok(Box::new(pebblesdb_common::UserEntriesIterator::new(
                Vec::new(),
            )))
        }
        fn snapshot(&self) -> Snapshot {
            self.snapshots.acquire(0)
        }
        fn flush(&self) -> Result<()> {
            std::thread::sleep(self.flush_delay);
            Ok(())
        }
        fn stats(&self) -> StoreStats {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            StoreStats {
                compactions: if self.churn { n } else { 0 },
                ..Default::default()
            }
        }
        fn engine_name(&self) -> String {
            "fake".into()
        }
    }

    #[test]
    fn a_store_that_never_stops_compacting_fails_to_settle() {
        let db = FakeStore::new(Duration::ZERO, true);
        let start = Instant::now();
        let err = settle(&db, Duration::from_millis(50), Duration::from_millis(300)).unwrap_err();
        assert!(err.contains("compaction still running"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_flush_that_does_not_return_fails_to_settle() {
        let db = FakeStore::new(Duration::from_secs(2), false);
        let start = Instant::now();
        let err = settle(&db, Duration::from_millis(50), Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("flush did not return"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_quiet_store_settles_after_one_window() {
        let db = FakeStore::new(Duration::ZERO, false);
        let start = Instant::now();
        settle(&db, Duration::from_millis(50), Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    /// A value whose drop blocks, standing in for a store that hangs in close.
    struct SlowDrop(Duration);

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn a_close_past_its_deadline_is_reported() {
        let start = Instant::now();
        assert!(!close_within(
            Arc::new(SlowDrop(Duration::from_secs(2))),
            Duration::from_millis(100)
        ));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(close_within(
            Arc::new(SlowDrop(Duration::ZERO)),
            CLOSE_DEADLINE
        ));
    }
}
