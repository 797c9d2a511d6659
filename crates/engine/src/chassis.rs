//! The engine chassis: the machinery every LSM-family store shares.
//!
//! [`EngineDb`] owns DB open/recovery (CURRENT/MANIFEST/WAL replay), the
//! group-commit write path, `make_room_for_write` + memtable rotation, a
//! dedicated flush thread (imm -> level 0 never queues behind a level
//! compaction), a pool of compaction workers that claim disjoint jobs
//! through the [`ShapePolicy`], pending-output/live-file garbage collection,
//! the snapshot list and stats assembly. The policy decides only *what* a
//! compaction job is and *how* reads route through a version.
//!
//! # Column families
//!
//! The chassis is natively multi-namespace: one [`EngineDb`] multiplexes any
//! number of column families over a **shared** WAL, group-commit queue and
//! sequence space, while each family ([`CfState`]) owns its memtable/imm
//! pair, its version set (MANIFEST) and its own policy shape state — the
//! guard tree for the FLSM, the leveled structure for the LSM. Implementing
//! the feature here means every [`ShapePolicy`] inherits it unchanged.
//!
//! * The default family (id 0) lives in the database root, so a
//!   single-namespace database has exactly the pre-column-family layout;
//!   family `n` lives in `cf-<n>/` with its own CURRENT/MANIFEST/sstables.
//! * WAL records carry a per-record family id (see
//!   [`WriteBatch`](pebblesdb_common::WriteBatch)); recovery replays each
//!   record into its family, skipping families dropped in the catalog.
//! * The set of families is committed through the [`crate::catalog`] log;
//!   create/drop edits are synced before any dependent file operation, and
//!   reopen reaps the directories of dropped families (ids are never
//!   reused).
//! * The flush thread picks the family with the **largest** immutable
//!   memtable, and compaction workers poll families hottest-first (pending
//!   compaction, then most level-0 files), so one hot namespace cannot
//!   starve the rest.
//! * A WAL segment is reclaimed only once *every* family's flushed state
//!   covers it (the minimum per-family log number); flushing one family
//!   also advances the log number of idle families so an inactive namespace
//!   does not pin logs forever.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use pebblesdb_common::cf::{CfOps, CfStats, ColumnFamilyHandle, Db};
use pebblesdb_common::commit::{CommitGroup, CommitQueue, Role};
use pebblesdb_common::counters::EngineCounters;
use pebblesdb_common::filename::{
    log_file_name, parse_file_name, table_file_name, vlog_file_name, FileType,
};
use pebblesdb_common::iterator::{DbIterator, MergingIterator, PinnedIterator};
use pebblesdb_common::key::{InternalKey, LookupKey, SequenceNumber, ValueType};
use pebblesdb_common::snapshot::{Snapshot, SnapshotList};
use pebblesdb_common::user_iter::UserIterator;
use pebblesdb_common::vlog::{iter_vlog_records, LookupValue, ValuePointer, ValueResolver};
use pebblesdb_common::{
    CfId, ChangeEvent, ChangeStream, Error, KvStore, ReadOptions, Result, StoreOptions, StoreStats,
    WriteBatch, WriteOptions,
};
use pebblesdb_skiplist::memtable::MemTableGet;
use pebblesdb_skiplist::MemTable;
use pebblesdb_sstable::{TableBuilder, TableCache};
use pebblesdb_wal::{LogReader, LogWriter, SegmentReplay};

use crate::catalog::{self, Catalog, CatalogData};
use crate::cdc::{ChangeLog, TailRead};
use crate::meta::FileMetaData;
use crate::policy::{EngineIo, JobClaim, PolicyCtx, ShapePolicy, VersionOf};
use crate::version::{ShapeVersion, VersionSet};
use crate::vlog::{CfVlog, TakenVlog, VlogGcReport, VlogReaderCache};

/// A handle to an open store built on the chassis.
///
/// Cloneable via `Arc`; all methods take `&self` and are safe to call from
/// multiple threads. The store (background threads included) stays alive
/// while this handle *or any [`ColumnFamilyHandle`] minted from it* exists;
/// the last one dropped shuts the store down.
pub struct EngineDb<P: ShapePolicy> {
    shared: Arc<EngineShared<P>>,
}

/// The keep-alive unit behind [`EngineDb`] and every column-family handle:
/// the core plus the background threads, joined when the last owner drops.
pub struct EngineShared<P: ShapePolicy> {
    core: Arc<EngineCore<P>>,
    background_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<P: ShapePolicy> Drop for EngineShared<P> {
    fn drop(&mut self) {
        {
            // Set the flag and notify under the state mutex: a worker checks
            // the flag under the lock and then waits, so a notify sent between
            // its check and its wait would otherwise be lost and `join` below
            // would block forever.
            let _state = self.core.state.lock();
            self.core.shutting_down.store(true, Ordering::SeqCst);
            self.core.work_available.notify_all();
            self.core.flush_available.notify_all();
        }
        for handle in self.background_threads.lock().drain(..) {
            // `join` only errs if the thread panicked, and the panic has
            // already printed; re-raising it from a destructor would abort
            // the process mid-unwind, so swallowing it here is deliberate.
            let _ = handle.join();
        }
    }
}

/// The shared core of an engine: IO handles, the policy, the mutexed state
/// and the background-thread rendezvous points.
pub struct EngineCore<P: ShapePolicy> {
    /// Environment, database root, options and the default family's cache.
    pub io: EngineIo,
    /// The shape policy (guarded FLSM or degenerate-guard LSM).
    pub policy: P,
    /// The mutex-protected engine state.
    pub state: Mutex<EngineState<P>>,
    /// Group-commit writer queue: concurrent writers enqueue batches, one
    /// leader merges the group and performs WAL IO outside `state`.
    commit_queue: CommitQueue,
    /// Wakes the compaction worker pool.
    work_available: Condvar,
    /// Wakes the dedicated flush thread (imm -> level 0 never queues behind
    /// a large level compaction).
    flush_available: Condvar,
    /// Wakes writers stalled in `make_room_for_write`, `flush` callers and
    /// `drop_cf` waiting out in-flight jobs.
    work_done: Condvar,
    shutting_down: AtomicBool,
    /// Cumulative operation counters (shared with the vlog reader caches,
    /// which record their hit/miss traffic outside the state mutex).
    pub counters: Arc<EngineCounters>,
    /// Live snapshot pins (store-wide: sequences are shared by families).
    pub snapshots: Arc<SnapshotList>,
    /// Live cursor pins. Tracked apart from `snapshots` on purpose: a cursor
    /// pins its version, so compaction's version dedup owes it nothing and
    /// must not be held back by one (a long-lived cursor would otherwise
    /// stall compaction convergence store-wide). Only value-log reclamation
    /// consults this list — a cursor resolves pointers as it streams, so the
    /// files its view can reach must outlive it.
    cursor_pins: Arc<SnapshotList>,
    /// Serialises value-log GC passes: two concurrent passes over the same
    /// file would relocate the same records into the same sequence slot.
    vlog_gc_lock: Mutex<()>,
    /// Change-data capture: the in-memory commit tail, WAL segment births
    /// and the registered stream cursors (see [`crate::cdc`]).
    change_log: Arc<ChangeLog>,
}

/// One column family's share of the engine state.
pub struct CfState<P: ShapePolicy> {
    /// The family's id (0 = default).
    pub id: CfId,
    /// The family's name.
    pub name: String,
    /// The family's IO handles (directory + table cache).
    pub io: EngineIo,
    /// The active memtable. Concurrent: the group-commit leader inserts via
    /// `&self` while `get` and streaming cursors read it lock-free, so the
    /// table is never cloned — when full it is frozen whole into `imm`.
    pub mem: Arc<MemTable>,
    /// The immutable memtable being flushed, if any.
    pub imm: Option<Arc<MemTable>>,
    /// The family's version set (MANIFEST machinery).
    pub versions: VersionSet<VersionOf<P>>,
    /// The policy's own mutable state (uncommitted guards, compaction
    /// pointers, pending seek requests, ...).
    pub policy: P::State,
    /// Input file numbers of this family's in-flight compaction jobs. A
    /// worker claiming new work never selects inputs that intersect this
    /// set, so concurrent jobs always operate on disjoint file subsets.
    /// File numbers are per-family (each version set allocates its own).
    pub claimed_inputs: BTreeSet<u64>,
    /// Output file numbers of this family's uncommitted jobs (flushes and
    /// compactions). `remove_obsolete_files` must never delete these: they
    /// are invisible to every version until their job commits.
    pub pending_outputs: BTreeSet<u64>,
    /// The WAL that was live when the active memtable was created. Once
    /// `imm` flushes, every record of this family in older WALs is covered
    /// by sstables, so this is the log number a flush commit publishes.
    pub mem_log_number: u64,
    /// Compaction jobs of this family currently claimed or running.
    pub active_jobs: usize,
    /// Whether the flush thread is writing this family's `imm` right now.
    pub flush_running: bool,
    /// Completed memtable flushes of this family.
    pub flushes: u64,
    /// Set by `drop_cf`: no new flushes, claims or writes; the family is
    /// removed once its in-flight work drains.
    pub dropping: bool,
    /// The family's value-log registry (key-value separation).
    pub vlog: CfVlog,
}

/// The mutable engine state, shared by writers and the background threads.
pub struct EngineState<P: ShapePolicy> {
    /// The live column families by id. Id 0 (the default) always exists.
    pub cfs: BTreeMap<CfId, CfState<P>>,
    /// Sequence number of the most recent committed write — shared by every
    /// family, so snapshots are consistent across namespaces. Mirrored into
    /// each family's version set right before its MANIFEST commits.
    pub last_sequence: SequenceNumber,
    /// The next column-family id to allocate; never reused after a drop.
    pub next_cf_id: CfId,
    /// The open column-family catalog, if this database has ever had a
    /// non-default family. `None` means the on-disk layout is exactly the
    /// single-namespace one.
    pub catalog: Option<Catalog>,
    /// The live write-ahead log, shared by every family.
    pub log: Option<LogWriter>,
    /// The live WAL's file number.
    pub log_file_number: u64,
    /// Compaction jobs currently claimed or running, across all families.
    pub active_compactions: usize,
    /// Set when the last GC pass ran while a read or cursor still pinned an
    /// old version (whose files it therefore kept); `flush` on a quiesced
    /// store rescans only in that case instead of on every call.
    pub gc_rescan_needed: bool,
    /// WAL files the last GC pass kept, maintained as a cheap backlog
    /// signal: idle families' recovery floors are advanced (one synced
    /// MANIFEST edit per family) only when the backlog shows old segments
    /// actually piling up, not on every flush.
    pub live_wal_files: usize,
    /// Set when a memtable rotation created a fresh WAL whose directory
    /// entry has not been fsynced yet. The next group-commit leader syncs
    /// the directory in its *unlocked* IO section before acknowledging any
    /// write against the new log — a directory fsync under the state mutex
    /// would stall every reader for its duration.
    pub wal_dir_unsynced: bool,
    /// First background error; poisons the store.
    pub bg_error: Option<Error>,
    /// First non-fatal background warning (a failed cleanup whose work is
    /// deferred, not lost). Never poisons the store; kept for inspection.
    pub bg_warning: Option<Error>,
}

impl<P: ShapePolicy> EngineState<P> {
    /// The state of family `id`, if it is live.
    pub fn cf(&self, id: CfId) -> Option<&CfState<P>> {
        self.cfs.get(&id)
    }

    /// Mutable state of family `id`, if it is live.
    pub fn cf_mut(&mut self, id: CfId) -> Option<&mut CfState<P>> {
        self.cfs.get_mut(&id)
    }

    /// The always-present default family.
    pub fn default_cf(&self) -> &CfState<P> {
        self.cfs.get(&0).expect("default family always exists")
    }

    /// The always-present default family, mutably.
    pub fn default_cf_mut(&mut self) -> &mut CfState<P> {
        self.cfs.get_mut(&0).expect("default family always exists")
    }

    /// The WAL number below which every family's data is flushed.
    fn min_log_number(&self) -> u64 {
        self.cfs
            .values()
            .map(|cf| cf.versions.log_number)
            .min()
            .unwrap_or(0)
    }
}

/// A compaction job claimed for one column family.
pub struct ClaimedJob<P: ShapePolicy> {
    /// The family the job belongs to.
    pub cf: CfId,
    /// The policy-level claim (inputs, outputs, job description).
    pub claim: JobClaim<P::Job>,
}

/// One key observation made during the unlocked group-commit apply, tagged
/// with the family it belongs to.
type CfObservation = (CfId, (usize, Vec<u8>));

/// WAL files tolerated on disk before idle families' recovery floors are
/// force-advanced (each advance costs one synced MANIFEST edit per family).
/// Hot families always advance their own floor for free when they flush, so
/// a single-namespace store never crosses this.
const WAL_BACKLOG_LIMIT: usize = 8;

fn missing_cf_error(cf: CfId) -> Error {
    Error::invalid_argument(format!("column family {cf} does not exist (dropped?)"))
}

/// Builds the IO handles of one family rooted at `dir`.
fn cf_io(env: &Arc<dyn pebblesdb_env::Env>, dir: &Path, options: &StoreOptions) -> EngineIo {
    let table_cache = Arc::new(TableCache::new(
        Arc::clone(env),
        dir.to_path_buf(),
        options.clone(),
        options.max_open_files,
    ));
    EngineIo {
        env: Arc::clone(env),
        db_path: dir.to_path_buf(),
        options: options.clone(),
        table_cache,
    }
}

impl<P: ShapePolicy> EngineDb<P> {
    /// Opens (creating if necessary) a store at `path` shaped by `policy`.
    pub fn open(
        policy: P,
        env: Arc<dyn pebblesdb_env::Env>,
        path: &Path,
        options: StoreOptions,
    ) -> Result<EngineDb<P>> {
        env.create_dir_all(path)?;
        let io = cf_io(&env, path, &options);

        let current_exists = env.file_exists(&pebblesdb_common::filename::current_file_name(path));
        if current_exists && io.options.error_if_exists {
            return Err(Error::invalid_argument("database already exists"));
        }
        if !current_exists && !io.options.create_if_missing {
            return Err(Error::invalid_argument("database does not exist"));
        }

        // The catalog names the families; a missing catalog file is the
        // single-namespace (pre-column-family) layout.
        let catalog_exists = env.file_exists(&catalog::catalog_file_name(path));
        let catalog_data = catalog::read(env.as_ref(), path)?;

        // Created before the families so their vlog reader caches can share
        // the store-wide counters.
        let counters = Arc::new(EngineCounters::new());

        let mut state: EngineState<P> = EngineState {
            cfs: BTreeMap::new(),
            last_sequence: 0,
            next_cf_id: catalog_data.next_cf_id,
            catalog: None,
            log: None,
            log_file_number: 0,
            active_compactions: 0,
            gc_rescan_needed: false,
            live_wal_files: 0,
            wal_dir_unsynced: false,
            bg_error: None,
            bg_warning: None,
        };

        for (id, name) in &catalog_data.cfs {
            let dir = catalog::cf_dir(path, *id);
            env.create_dir_all(&dir)?;
            let io = if *id == 0 {
                io.clone()
            } else {
                cf_io(&env, &dir, &options)
            };
            let mut versions = VersionSet::new(
                Arc::clone(&io.env),
                io.db_path.clone(),
                io.options.max_levels,
            );
            if env.file_exists(&pebblesdb_common::filename::current_file_name(&dir)) {
                versions.recover()?;
            } else {
                // Either a fresh database or a family whose create edit
                // committed but whose directory was never initialised
                // (crash between the two); both start empty here.
                versions.create_new()?;
            }
            state.last_sequence = state.last_sequence.max(versions.last_sequence);
            // Vlog files are registered by directory listing, not in the
            // MANIFEST; their numbers must be re-marked used so a new file
            // never collides with a recovered one.
            let (vlog, vlog_numbers) =
                CfVlog::recover(&env, &dir, &counters, &options.compression_stats)?;
            for number in vlog_numbers {
                versions.mark_file_number_used(number);
            }
            state.cfs.insert(
                *id,
                CfState {
                    id: *id,
                    name: name.clone(),
                    io,
                    mem: Arc::new(MemTable::new()),
                    imm: None,
                    versions,
                    policy: policy.new_state(),
                    claimed_inputs: BTreeSet::new(),
                    pending_outputs: BTreeSet::new(),
                    mem_log_number: 0,
                    active_jobs: 0,
                    flush_running: false,
                    flushes: 0,
                    dropping: false,
                    vlog,
                },
            );
        }

        // Reap directories of families dropped in the catalog (a crash
        // between the drop edit and the directory removal leaves them). Ids
        // are never reused, so any `cf-<id>` with id below the floor and no
        // catalog entry is provably dead.
        for id in 1..state.next_cf_id {
            if !state.cfs.contains_key(&id)
                && env.remove_dir_all(&catalog::cf_dir(path, id)).is_err()
            {
                // The orphan holds no live data (its drop edit is
                // committed), so a failed reap costs only disk space;
                // count it so the leak stays observable, and leave the
                // directory for the next open to retry.
                counters.record_cleanup_failure();
            }
        }

        let mut wal_births = recover_wals(&io, &mut state)?;

        // Start a fresh WAL for new writes, making its directory entry
        // durable before any synced write is acknowledged against it.
        let log_number = state.default_cf_mut().versions.new_file_number();
        let log_file = env.new_writable_file(&log_file_name(path, log_number))?;
        env.sync_dir(path)?;
        state.log = Some(LogWriter::new(log_file));
        state.log_file_number = log_number;
        wal_births.insert(log_number, state.last_sequence);
        let last_sequence = state.last_sequence;
        for cf in state.cfs.values_mut() {
            cf.versions.last_sequence = last_sequence;
            cf.versions.commit_level0(None, Some(log_number))?;
            cf.mem_log_number = log_number;
        }

        // Compact the catalog (drops dead edits) and keep it open for
        // appends. A database that never had a second family keeps having
        // no catalog file at all.
        if catalog_exists {
            state.catalog = Some(Catalog::rewrite(Arc::clone(&env), path, &{
                CatalogData {
                    cfs: state
                        .cfs
                        .values()
                        .map(|cf| (cf.id, cf.name.clone()))
                        .collect(),
                    next_cf_id: state.next_cf_id,
                }
            })?);
        }

        let label = policy.engine_name().to_ascii_lowercase();
        let change_log = Arc::new(ChangeLog::new(
            options.cdc_tail_bytes,
            options.cdc_wal_retain_segments,
            wal_births,
            log_number,
            state.last_sequence,
        ));
        let inner = Arc::new(EngineCore {
            io,
            policy,
            state: Mutex::new(state),
            commit_queue: CommitQueue::new(),
            work_available: Condvar::new(),
            flush_available: Condvar::new(),
            work_done: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            counters,
            snapshots: SnapshotList::new(),
            cursor_pins: SnapshotList::new(),
            vlog_gc_lock: Mutex::new(()),
            change_log,
        });

        {
            let mut state = inner.state.lock();
            inner.remove_obsolete_files(&mut state);
        }

        // The background subsystem: one dedicated flush thread (imm -> L0
        // never waits behind a large compaction) plus a pool of
        // `compaction_threads` workers that claim disjoint jobs through the
        // policy. A policy whose jobs cannot be split (classic leveled
        // compaction) simply refuses to claim while another job is running.
        let mut handles = Vec::new();
        let flush_inner = Arc::clone(&inner);
        handles.push(
            std::thread::Builder::new()
                .name(format!("{label}-flush"))
                .spawn(move || EngineCore::flush_main(flush_inner))
                .map_err(|e| Error::internal(format!("spawn flush thread: {e}")))?,
        );
        for worker in 0..inner.io.options.compaction_threads.max(1) {
            let bg_inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{label}-compact-{worker}"))
                    .spawn(move || EngineCore::compaction_worker_main(bg_inner))
                    .map_err(|e| Error::internal(format!("spawn compaction thread: {e}")))?,
            );
        }

        Ok(EngineDb {
            shared: Arc::new(EngineShared {
                core: inner,
                background_threads: Mutex::new(handles),
            }),
        })
    }

    /// Opens (creating if necessary) a store at `path` with the shape
    /// [`ShapePolicy::new`] builds from `options`.
    pub fn open_with_options(
        env: Arc<dyn pebblesdb_env::Env>,
        path: &Path,
        options: StoreOptions,
    ) -> Result<EngineDb<P>> {
        Self::open(P::new(&options), env, path, options)
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.shared.core.io.options
    }

    /// The shared core (exposed for policy-specific accessors and tests).
    pub fn core(&self) -> &Arc<EngineCore<P>> {
        &self.shared.core
    }

    /// Runs `f` against the default family's current version under the
    /// state lock.
    pub fn with_current_version<R>(&self, f: impl FnOnce(&VersionOf<P>) -> R) -> R {
        let state = self.shared.core.state.lock();
        f(state.default_cf().versions.current_unpinned())
    }

    /// Number of distinct files at each level of the default family.
    pub fn files_per_level(&self) -> Vec<usize> {
        self.with_current_version(|v| {
            (0..v.num_levels())
                .map(|l| v.level_files(l).len())
                .collect()
        })
    }

    /// Number of guards (sentinel included) at each level of the default
    /// family; empty for a shape without explicit guards.
    pub fn guards_per_level(&self) -> Vec<usize> {
        self.with_current_version(|v| v.guards_per_level())
    }

    /// Total number of guards in the default family that hold no sstables.
    pub fn empty_guards(&self) -> usize {
        self.with_current_version(|v| v.empty_guards())
    }

    /// Human-readable per-level summary of the default family.
    pub fn level_summary(&self) -> String {
        self.with_current_version(|v| v.level_summary())
    }

    /// Writes a batch whose sequence numbers were already assigned by an
    /// external allocator (see [`CommitQueue::submit_presequenced`]). Used
    /// by the sharded coordinator, which owns the global sequence space.
    pub fn write_presequenced(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.shared.core.write_presequenced(opts, batch)
    }

    /// The sequence number of the most recent committed write.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.shared.core.state.lock().last_sequence
    }

    /// Runs one value-log garbage-collection pass (see
    /// [`EngineCore::vlog_gc`]) and reports what it did.
    pub fn vlog_gc(&self) -> Result<VlogGcReport> {
        self.shared.core.vlog_gc()
    }

    /// The store's namespace-scoped operations as a shareable trait object,
    /// for composite stores that route per-family operations here.
    pub fn cf_ops(&self) -> Arc<dyn CfOps> {
        Arc::clone(&self.shared) as Arc<dyn CfOps>
    }

    fn handle(&self, id: CfId, name: &str) -> ColumnFamilyHandle {
        ColumnFamilyHandle::new(Arc::clone(&self.shared) as Arc<dyn CfOps>, id, name)
    }

    /// Creates (or idempotently confirms) a column family under an explicit
    /// id. Replication mirrors the leader's catalog onto the follower, and
    /// WAL records route by id, so the ids must match exactly; `create_cf`'s
    /// own allocation cannot guarantee that.
    pub fn create_cf_with_id(&self, id: CfId, name: &str) -> Result<ColumnFamilyHandle> {
        let (id, name) = self.shared.core.create_cf_locked(name, Some(id))?;
        Ok(self.handle(id, &name))
    }

    /// Opens a cursor over the store's committed batches starting at
    /// `from_seq` (clamped to 1 — sequence 0 predates every write). Fails
    /// with `SequenceTruncated` when that history is already reclaimed.
    pub fn change_stream(&self, from_seq: SequenceNumber) -> Result<EngineChangeStream<P>> {
        EngineChangeStream::open(Arc::clone(&self.shared), from_seq)
    }
}

/// Replays every write-ahead log on disk, routing each record into its
/// column family's memtable (records a family's sstables already cover are
/// skipped per family). Returns the segment **births** for change-data
/// capture: for each log, the best lower bound on "last sequence committed
/// before this log was opened" that replay can reconstruct — exact when the
/// log's first batch was engine-sequenced (the overwhelmingly common case),
/// conservative (never too small, so WAL reclamation never under-keeps)
/// otherwise, because it also takes the running maximum across earlier logs.
fn recover_wals<P: ShapePolicy>(
    io: &EngineIo,
    state: &mut EngineState<P>,
) -> Result<BTreeMap<u64, SequenceNumber>> {
    let mut log_numbers: Vec<u64> = io
        .env
        .children(&io.db_path)?
        .iter()
        .filter_map(|name| parse_file_name(name))
        .filter(|(ty, _)| *ty == FileType::WriteAheadLog)
        .map(|(_, number)| number)
        .collect();
    log_numbers.sort_unstable();

    let mut births: BTreeMap<u64, SequenceNumber> = BTreeMap::new();
    // Highest batch-end sequence seen in earlier logs: every later log was
    // opened after those batches committed, so its birth is at least this.
    let mut running_max: SequenceNumber = 0;
    for number in log_numbers {
        state
            .default_cf_mut()
            .versions
            .mark_file_number_used(number);
        let file = io
            .env
            .new_sequential_file(&log_file_name(&io.db_path, number))?;
        let mut reader = LogReader::new(file);
        let mut first_batch_in_log = true;
        // A clean end or a torn tail both end replay of this log.
        while let Ok(Some(record)) = reader.read_record() {
            let batch = match WriteBatch::from_contents(record) {
                Ok(batch) => batch,
                Err(_) => break,
            };
            let base_seq = batch.sequence();
            if first_batch_in_log {
                first_batch_in_log = false;
                births.insert(number, running_max.max(base_seq.saturating_sub(1)));
            }
            let mut applied = 0u64;
            let mut touched: Vec<CfId> = Vec::new();
            for item in batch.iter() {
                let item = match item {
                    Ok(item) => item,
                    Err(_) => break,
                };
                // The record consumes its sequence slot whether or not it
                // still has a family to land in.
                applied += 1;
                let Some(cf) = state.cfs.get_mut(&item.cf) else {
                    continue; // family dropped in the catalog
                };
                if number < cf.versions.log_number {
                    continue; // already covered by this family's sstables
                }
                cf.mem
                    .add(item.sequence, item.value_type, item.key, item.value);
                if !touched.contains(&item.cf) {
                    touched.push(item.cf);
                }
            }
            let last = base_seq + applied.saturating_sub(1);
            if last > state.last_sequence {
                state.last_sequence = last;
            }
            running_max = running_max.max(last);
            for cf_id in touched {
                let cf = state.cfs.get_mut(&cf_id).expect("touched family exists");
                if cf.mem.approximate_memory_usage() > io.options.write_buffer_size {
                    flush_recovery_memtable(state, cf_id)?;
                }
            }
        }
        // A log with no readable batches (rotated then never written, or a
        // tail torn at its very first record) still needs a birth so the
        // change log can account for it.
        births.entry(number).or_insert(running_max);
    }
    let nonempty: Vec<CfId> = state
        .cfs
        .iter()
        .filter(|(_, cf)| !cf.mem.is_empty())
        .map(|(id, _)| *id)
        .collect();
    for cf_id in nonempty {
        flush_recovery_memtable(state, cf_id)?;
    }
    Ok(births)
}

fn flush_recovery_memtable<P: ShapePolicy>(state: &mut EngineState<P>, cf_id: CfId) -> Result<()> {
    let last_sequence = state.last_sequence;
    let cf = state.cfs.get_mut(&cf_id).expect("recovering family exists");
    let number = cf.versions.new_file_number();
    let mem = std::mem::replace(&mut cf.mem, Arc::new(MemTable::new()));
    if let Some(meta) = build_table_from_memtable(&cf.io, &mem, number)? {
        cf.versions.last_sequence = last_sequence;
        cf.versions.commit_level0(Some(&meta), None)?;
    }
    Ok(())
}

/// Writes the contents of a memtable into a new level-0 sstable, syncing the
/// directory so the new entry is durable before a MANIFEST references it.
fn build_table_from_memtable(
    io: &EngineIo,
    mem: &MemTable,
    file_number: u64,
) -> Result<Option<FileMetaData>> {
    let mut iter = mem.iter();
    iter.seek_to_first();
    if !iter.valid() {
        return Ok(None);
    }
    let file = io
        .env
        .new_writable_file(&table_file_name(&io.db_path, file_number))?;
    // Flushes always land in level 0, so the per-level compression tier for
    // level 0 applies (typically raw: young tables are short-lived).
    let mut builder = TableBuilder::new_for_level(&io.options, file, 0);
    let mut smallest: Option<Vec<u8>> = None;
    let mut largest: Vec<u8> = Vec::new();
    while iter.valid() {
        if smallest.is_none() {
            smallest = Some(iter.key().to_vec());
        }
        largest = iter.key().to_vec();
        builder.add(iter.key(), iter.value())?;
        iter.next();
    }
    let file_size = builder.finish()?;
    io.env.sync_dir(&io.db_path)?;
    Ok(Some(FileMetaData::new(
        file_number,
        file_size,
        InternalKey::from_encoded(smallest.unwrap_or_default()),
        InternalKey::from_encoded(largest),
    )))
}

/// The sequence number a read issued with `opts` may observe: the requested
/// snapshot, clamped to the store's current sequence.
fn visible_sequence(opts: &ReadOptions, last_sequence: SequenceNumber) -> SequenceNumber {
    opts.snapshot
        .map(|snap| snap.min(last_sequence))
        .unwrap_or(last_sequence)
}

/// Rewrites one batch for key-value separation: every `Value` record at or
/// past `threshold` is appended to its family's vlog and replaced by a
/// pointer record. Returns `None` when nothing in the batch separates, so
/// the common all-small case never copies the batch. The rewrite preserves
/// the batch's sequence and record order (and therefore its count), which is
/// what keeps pre-sequenced batches valid.
fn separate_batch(
    batch: &WriteBatch,
    threshold: usize,
    vlogs: &mut BTreeMap<CfId, TakenVlog>,
    counters: &EngineCounters,
) -> Result<Option<WriteBatch>> {
    let mut needs = false;
    for record in batch.iter() {
        let record = record?;
        if record.value_type == ValueType::Value
            && record.value.len() >= threshold
            && vlogs.contains_key(&record.cf)
        {
            needs = true;
            break;
        }
    }
    if !needs {
        return Ok(None);
    }
    let mut out = WriteBatch::new();
    out.set_sequence(batch.sequence());
    for record in batch.iter() {
        let record = record?;
        match record.value_type {
            ValueType::Value if record.value.len() >= threshold => {
                match vlogs.get_mut(&record.cf) {
                    Some(vlog) => {
                        let pointer = vlog.append(record.key, record.value, counters)?;
                        out.put_pointer_cf(record.cf, record.key, &pointer.encode());
                    }
                    None => out.put_cf(record.cf, record.key, record.value),
                }
            }
            ValueType::Value => out.put_cf(record.cf, record.key, record.value),
            ValueType::Deletion => out.delete_cf(record.cf, record.key),
            // Pointer records only enter a batch through this function, but
            // a group may merge an already-rewritten batch in the future;
            // carry them through unchanged.
            ValueType::ValuePointer => out.put_pointer_cf(record.cf, record.key, record.value),
        }
    }
    Ok(Some(out))
}

impl<P: ShapePolicy> EngineCore<P> {
    // ---------------------------------------------------------------- write

    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Writes reset read-phase heuristics (FLSM: the consecutive-seek
        // counter — section 4.2, seek compaction targets read-only phases).
        self.policy.note_write();

        let mut user_bytes = 0u64;
        for record in batch.iter() {
            let record = record?;
            user_bytes += (record.key.len() + record.value.len()) as u64;
        }

        let ticket = self.commit_queue.submit(Some(batch), opts.sync);
        let result = match self.commit_queue.wait_turn(&ticket) {
            Role::Done(result) => result,
            Role::Leader(group) => self.commit(group),
        };
        if result.is_ok() {
            self.counters.add_user_bytes(user_bytes);
        }
        result
    }

    /// Writes a batch whose sequence numbers were assigned by an external
    /// allocator (a sharded coordinator). The batch rides the group-commit
    /// pipeline — sharing WAL appends and one fsync with other pre-sequenced
    /// writes — but is never merged or renumbered, and `last_sequence`
    /// advances to the batch's own (possibly out-of-order) end.
    fn write_presequenced(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.policy.note_write();

        let mut user_bytes = 0u64;
        for record in batch.iter() {
            let record = record?;
            user_bytes += (record.key.len() + record.value.len()) as u64;
        }

        let ticket = self.commit_queue.submit_presequenced(batch, opts.sync);
        let result = match self.commit_queue.wait_turn(&ticket) {
            Role::Done(result) => result,
            Role::Leader(group) => self.commit(group),
        };
        if result.is_ok() {
            self.counters.add_user_bytes(user_bytes);
        }
        result
    }

    /// Commits a write group as its leader: make room in every touched
    /// family, reserve a sequence range, then append + sync the WAL and
    /// apply the merged batch to the families' concurrent memtables
    /// **outside** the state mutex, so readers and the compaction workers
    /// proceed during the IO. Per-key policy observation (FLSM guard
    /// selection, a pure hash) also runs unlocked; the results are absorbed
    /// per family under the lock after the apply. The new sequence is only
    /// published (making the group visible) after the apply succeeds.
    fn commit(&self, mut group: CommitGroup) -> Result<()> {
        let mut state = self.state.lock();
        let mut result: Result<()> = Ok(());

        // A sequence reservation claims one fresh slot and publishes it for
        // the submitter (the vlog GC's collision-free horizon). Because the
        // commit queue serialises groups, no in-flight or future write can
        // be numbered into the claimed slot. The group carries no records,
        // so the rest of the commit is a no-op for it. The slot is not
        // logged: if nothing is ever written at it, recovery replaying a
        // smaller maximum sequence is harmless — no durable state names it.
        if let Some(slot) = &group.reserve {
            state.last_sequence += 1;
            slot.store(state.last_sequence, Ordering::Release);
        }

        // Which families does this group touch? A rotation request touches
        // every family with a non-empty memtable.
        let touched: Vec<CfId> = if group.force_rotate {
            state
                .cfs
                .iter()
                .filter(|(_, cf)| !cf.mem.is_empty())
                .map(|(id, _)| *id)
                .collect()
        } else {
            let mut ids: Vec<CfId> = Vec::new();
            for record in group.batch.iter() {
                match record {
                    Ok(record) => {
                        if !ids.contains(&record.cf) {
                            ids.push(record.cf);
                        }
                    }
                    Err(err) => {
                        result = Err(err);
                        break;
                    }
                }
            }
            if result.is_ok() {
                // An engine-sequenced write addressed at a dropped family
                // fails its whole group — atomic batches cannot partially
                // apply, and group members share one result by construction.
                if let Some(missing) = ids.iter().find(|id| !state.cfs.contains_key(id)).copied() {
                    result = Err(missing_cf_error(missing));
                }
            }
            if result.is_ok() {
                // Pre-sequenced batches replicate committed history: a
                // record whose family does not exist *here* (a follower that
                // has not mirrored it, or a drop racing a relocation)
                // consumes its sequence slot and is skipped, exactly as
                // recovery replays records of dropped families.
                for record in group.pre_batches.iter().flat_map(|b| b.iter()) {
                    match record {
                        Ok(record) => {
                            if state.cfs.contains_key(&record.cf) && !ids.contains(&record.cf) {
                                ids.push(record.cf);
                            }
                        }
                        Err(err) => {
                            result = Err(err);
                            break;
                        }
                    }
                }
            }
            ids
        };

        // Which families need their value log this group? (Key-value
        // separation: values at or past the threshold go to the vlog, the
        // tree gets a fixed-size pointer.)
        let threshold = self.io.options.value_separation_threshold;
        let mut vlog_cfs: Vec<CfId> = Vec::new();
        if threshold > 0 && result.is_ok() {
            let records = group
                .batch
                .iter()
                .chain(group.pre_batches.iter().flat_map(|b| b.iter()));
            for record in records.flatten() {
                if record.value_type == ValueType::Value
                    && record.value.len() >= threshold
                    && !vlog_cfs.contains(&record.cf)
                {
                    vlog_cfs.push(record.cf);
                }
            }
        }

        if result.is_ok() {
            for cf_id in &touched {
                result = self.make_room_for_write(&mut state, *cf_id, group.force_rotate);
                if result.is_err() {
                    break;
                }
            }
        }

        if result.is_ok() && !(group.batch.is_empty() && group.pre_batches.is_empty()) {
            // A group carries either one merged engine-sequenced batch or a
            // set of pre-sequenced ones (the queue never mixes them). The
            // engine numbers the former here; the latter keep the sequences
            // their external allocator assigned, and `last_sequence` only
            // advances to the group's maximum end — a pre-sequenced batch
            // may land out of order within this engine, which is safe
            // because the allocator routes each key to exactly one engine
            // (per-key sequence order is preserved) and recovery already
            // takes the max over replayed records.
            let mut end_seq = state.last_sequence;
            if !group.batch.is_empty() {
                let seq = state.last_sequence + 1;
                group.batch.set_sequence(seq);
                end_seq = seq + u64::from(group.batch.count()) - 1;
            }
            for pre in &group.pre_batches {
                end_seq = end_seq.max(pre.sequence() + u64::from(pre.count()).saturating_sub(1));
            }

            // Only the leader (that's us, until `complete`) touches the log,
            // the vlog appenders or the memtables, so all of it can leave
            // the mutex.
            let mut log = state.log.take();
            let mut taken_vlogs: BTreeMap<CfId, TakenVlog> = BTreeMap::new();
            for cf_id in &vlog_cfs {
                let st = &mut *state;
                let Some(cf) = st.cfs.get_mut(cf_id) else {
                    // A pre-sequenced record for a family this store does
                    // not have: its value stays inline (and is skipped at
                    // the memtable apply below).
                    continue;
                };
                let max_size = self.io.options.vlog_file_size.max(1) as u64;
                let active = cf.vlog.active.take();
                // Rotation is decided here (the number allocation needs the
                // lock) but performed in the unlocked section. A single
                // over-large group may overshoot `vlog_file_size`; the next
                // group rotates, so files stay within one group of the cap.
                let open_number = match &active {
                    Some(a) if a.offset < max_size => None,
                    _ => Some(cf.versions.new_file_number()),
                };
                taken_vlogs.insert(
                    *cf_id,
                    TakenVlog {
                        cf: *cf_id,
                        env: Arc::clone(&cf.io.env),
                        dir: cf.io.db_path.clone(),
                        active,
                        open_number,
                        sealed: Vec::new(),
                        dirty: false,
                        compression: self.io.options.compression,
                        compression_stats: Arc::clone(&self.io.options.compression_stats),
                    },
                );
            }
            let mems: BTreeMap<CfId, Arc<MemTable>> = touched
                .iter()
                .filter_map(|id| state.cfs.get(id).map(|cf| (*id, Arc::clone(&cf.mem))))
                .collect();
            let batch = &group.batch;
            let pre_batches = &group.pre_batches;
            let sync = group.sync;
            let policy = &self.policy;
            let need_dir_sync = state.wal_dir_unsynced;
            let wal_log_number = state.log_file_number;
            let io = &self.io;
            let counters = &self.counters;
            let vlogs = &mut taken_vlogs;
            // Exactly the bytes appended to the WAL (value separation
            // applied), captured for the change-data-capture tail; published
            // below only once the group commits.
            let mut published: Vec<crate::cdc::TailBatch> = Vec::new();
            let published_ref = &mut published;
            let io_result = MutexGuard::unlocked(&mut state, || -> Result<Vec<CfObservation>> {
                if need_dir_sync {
                    // A rotation created this WAL; its directory entry
                    // must be durable before the group is acknowledged.
                    io.env.sync_dir(&io.db_path)?;
                }
                // Key-value separation happens before any WAL byte is
                // written: large values are appended to their family's
                // vlog and the batches are rewritten around fixed-size
                // pointers, so the WAL (and the memtables below) only ever
                // see what the tree will actually store. The vlog is
                // flushed/synced first as well — a pointer must never be
                // durable while the record it names is not.
                let mut rewritten: Option<WriteBatch> = None;
                let mut rewritten_pre: Vec<Option<WriteBatch>> = Vec::new();
                if !vlogs.is_empty() {
                    rewritten = separate_batch(batch, threshold, vlogs, counters)?;
                    for pre in pre_batches.iter() {
                        rewritten_pre.push(separate_batch(pre, threshold, vlogs, counters)?);
                    }
                    for taken in vlogs.values_mut() {
                        taken.finish_group(sync)?;
                    }
                }
                let wal_batch: &WriteBatch = rewritten.as_ref().unwrap_or(batch);
                let wal_pres: Vec<&WriteBatch> = pre_batches
                    .iter()
                    .enumerate()
                    .map(|(idx, pre)| {
                        rewritten_pre
                            .get(idx)
                            .and_then(|r| r.as_ref())
                            .unwrap_or(pre)
                    })
                    .collect();
                if let Some(log) = log.as_mut() {
                    if !wal_batch.is_empty() {
                        log.add_record(wal_batch.contents())?;
                        published_ref.push(crate::cdc::TailBatch {
                            log_number: wal_log_number,
                            last_seq: wal_batch.sequence()
                                + u64::from(wal_batch.count()).saturating_sub(1),
                            contents: Arc::new(wal_batch.contents().to_vec()),
                        });
                    }
                    // Each pre-sequenced batch is its own WAL record (its
                    // header carries its own base sequence); the whole
                    // group still shares one fsync.
                    for pre in &wal_pres {
                        log.add_record(pre.contents())?;
                        published_ref.push(crate::cdc::TailBatch {
                            log_number: wal_log_number,
                            last_seq: pre.sequence() + u64::from(pre.count()).saturating_sub(1),
                            contents: Arc::new(pre.contents().to_vec()),
                        });
                    }
                    if sync {
                        log.sync()?;
                    }
                }
                let mut observed = Vec::new();
                let records = wal_batch
                    .iter()
                    .chain(wal_pres.iter().flat_map(|b| b.iter()));
                for record in records {
                    let record = record?;
                    let Some(mem) = mems.get(&record.cf) else {
                        continue;
                    };
                    // Pointer records are puts of real user keys; they feed
                    // the policy's observations (FLSM guard selection) the
                    // same way inline values do.
                    if matches!(
                        record.value_type,
                        ValueType::Value | ValueType::ValuePointer
                    ) {
                        if let Some(obs) = policy.observe_key(record.key) {
                            observed.push((record.cf, obs));
                        }
                    }
                    mem.add(record.sequence, record.value_type, record.key, record.value);
                }
                Ok(observed)
            });
            state.log = log;
            // Reinstall the vlog appenders whether or not the IO succeeded
            // (a failure poisons the store below, but the registry must
            // stay coherent for shutdown). A family dropped mid-IO keeps
            // nothing: its files die with its directory.
            for (cf_id, taken) in taken_vlogs {
                if let Some(cf) = state.cfs.get_mut(&cf_id) {
                    for (number, size) in taken.sealed {
                        cf.vlog.sealed.insert(number, size);
                    }
                    cf.vlog.active = taken.active;
                }
            }
            match io_result {
                Ok(observed) => {
                    let st = &mut *state;
                    if need_dir_sync {
                        st.wal_dir_unsynced = false;
                    }
                    let mut per_cf: BTreeMap<CfId, Vec<(usize, Vec<u8>)>> = BTreeMap::new();
                    for (cf_id, obs) in observed {
                        per_cf.entry(cf_id).or_default().push(obs);
                    }
                    for (cf_id, obs) in per_cf {
                        if let Some(cf) = st.cfs.get_mut(&cf_id) {
                            self.policy.absorb_observations(&mut cf.policy, obs);
                        }
                    }
                    st.last_sequence = end_seq;
                    // Commits are serialized (one leader at a time), so
                    // appending here under the state mutex keeps the tail in
                    // commit order. Lock order state -> change_log is the
                    // sanctioned one.
                    self.change_log.publish(published);
                }
                Err(err) => {
                    // A failed WAL append/sync may have lost acknowledged
                    // bytes; poison the store like LevelDB does.
                    if state.bg_error.is_none() {
                        state.bg_error = Some(err.clone());
                    }
                    result = Err(err);
                }
            }
        }
        drop(state);
        self.commit_queue.complete(group, &result);
        result
    }

    /// Ensures there is room in one family's memtable, applying that
    /// family's level-0 back-pressure. Rotating a memtable also rotates the
    /// shared WAL, so the frozen table corresponds to a log prefix.
    fn make_room_for_write(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        cf_id: CfId,
        force: bool,
    ) -> Result<()> {
        let mut allow_delay = !force;
        let mut force = force;
        loop {
            if let Some(err) = &state.bg_error {
                return Err(err.clone());
            }
            let Some(cf) = state.cfs.get(&cf_id) else {
                return Err(missing_cf_error(cf_id));
            };
            let level0_files = cf.versions.current_unpinned().level0_len();
            if allow_delay && level0_files >= self.io.options.level0_slowdown_writes_trigger {
                // Gentle back-pressure: let the compaction workers make
                // progress without fully blocking this writer.
                allow_delay = false;
                let stall = Instant::now();
                self.work_available.notify_all();
                MutexGuard::unlocked(state, || std::thread::sleep(Duration::from_millis(1)));
                self.counters
                    .record_stall(stall.elapsed().as_micros() as u64);
                continue;
            }
            if !force && cf.mem.approximate_memory_usage() <= self.io.options.write_buffer_size {
                return Ok(());
            }
            if cf.imm.is_some() {
                // Previous memtable still flushing.
                let stall = Instant::now();
                self.flush_available.notify_one();
                self.work_done.wait(state);
                self.counters
                    .record_stall(stall.elapsed().as_micros() as u64);
                continue;
            }
            if level0_files >= self.io.options.level0_stop_writes_trigger {
                let stall = Instant::now();
                self.work_available.notify_all();
                self.work_done.wait(state);
                self.counters
                    .record_stall(stall.elapsed().as_micros() as u64);
                continue;
            }

            // Switch this family to a fresh memtable and the store to a
            // fresh WAL. The full memtable is frozen whole — cursors still
            // pinning it keep reading it in `imm` (and beyond, through
            // their own `Arc`s) with no copy. WAL numbers come from the
            // default family's allocator (they live in the root directory).
            let new_log_number = state.default_cf_mut().versions.new_file_number();
            let log_file = self
                .io
                .env
                .new_writable_file(&log_file_name(&self.io.db_path, new_log_number))?;
            // The new WAL's directory entry must become durable before any
            // write is acknowledged against it — but fsyncing the directory
            // here would hold the state mutex across a disk flush. Defer it
            // to the leader's unlocked IO section instead: every write into
            // the new log passes through `commit`, which syncs first.
            state.wal_dir_unsynced = true;
            let close_result = match state.log.take() {
                Some(old_log) => old_log.close(),
                None => Ok(()),
            };
            state.log = Some(LogWriter::new(log_file));
            state.log_file_number = new_log_number;
            // The change log needs the rotation point: every sequence
            // committed from here on lives in the new segment, and the old
            // one is now closed (replayable, evictable, reclaimable).
            self.change_log
                .note_rotation(new_log_number, state.last_sequence);
            if let Err(err) = close_result {
                // A failed close may have lost a sync on acknowledged
                // records in the old log; surface it instead of dropping it.
                if state.bg_error.is_none() {
                    state.bg_error = Some(err.clone());
                }
                return Err(err);
            }
            let cf = state.cfs.get_mut(&cf_id).expect("family checked above");
            let full_mem = std::mem::replace(&mut cf.mem, Arc::new(MemTable::new()));
            cf.imm = Some(full_mem);
            cf.mem_log_number = new_log_number;
            force = false;
            self.flush_available.notify_one();
        }
    }

    // ----------------------------------------------------------------- read

    fn get(&self, cf_id: CfId, opts: &ReadOptions, user_key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.counters.record_get();
        let mut retried = false;
        loop {
            let (found, resolver) = match self.lookup_value(cf_id, opts, user_key)? {
                Some(found) => found,
                None => return Ok(None),
            };
            match found {
                LookupValue::Inline(value) => return Ok(Some(value)),
                LookupValue::Pointer(pointer) => match resolver.resolve(&pointer) {
                    Ok(value) => return Ok(Some(value)),
                    // A GC pass may have deleted the vlog file between the
                    // tree lookup and this read; the relocated pointer is
                    // already in place, so one fresh lookup settles it.
                    Err(_) if !retried => retried = true,
                    Err(err) => return Err(err),
                },
            }
        }
    }

    /// The tree lookup underneath [`EngineCore::get`]: consults the
    /// memtables and the version but does **not** resolve value pointers —
    /// resolution does IO and runs outside the state lock. `Ok(None)` means
    /// "deleted or never written"; the GC's liveness check uses the raw
    /// pointer this returns.
    fn lookup_value(
        &self,
        cf_id: CfId,
        opts: &ReadOptions,
        user_key: &[u8],
    ) -> Result<Option<(LookupValue, Arc<VlogReaderCache>)>> {
        let (lookup, imm, version, io, resolver) = {
            let mut state = self.state.lock();
            let sequence = visible_sequence(opts, state.last_sequence);
            let st = &mut *state;
            let Some(cf) = st.cfs.get_mut(&cf_id) else {
                return Err(missing_cf_error(cf_id));
            };
            let lookup = LookupKey::new(user_key, sequence);
            let resolver = Arc::clone(&cf.vlog.readers);
            match cf.mem.get(&lookup) {
                MemTableGet::Found(value) => {
                    return Ok(Some((LookupValue::Inline(value), resolver)))
                }
                MemTableGet::FoundPointer(encoded) => {
                    return Ok(Some((
                        LookupValue::Pointer(ValuePointer::decode(&encoded)?),
                        resolver,
                    )))
                }
                MemTableGet::Deleted => return Ok(None),
                MemTableGet::NotFound => {}
            }
            (
                lookup,
                cf.imm.clone(),
                cf.versions.current(),
                cf.io.clone(),
                resolver,
            )
        };
        if let Some(imm) = imm {
            match imm.get(&lookup) {
                MemTableGet::Found(value) => {
                    return Ok(Some((LookupValue::Inline(value), resolver)))
                }
                MemTableGet::FoundPointer(encoded) => {
                    return Ok(Some((
                        LookupValue::Pointer(ValuePointer::decode(&encoded)?),
                        resolver,
                    )))
                }
                MemTableGet::Deleted => return Ok(None),
                MemTableGet::NotFound => {}
            }
        }
        Ok(self
            .policy
            .get_in_version(&io, &version, opts, &lookup)?
            .map(|found| (found, resolver)))
    }

    /// Builds the streaming user-key cursor over one family: its memtables
    /// plus the policy's per-level iterators, merged and filtered down to
    /// the view at the cursor's sequence. Creating a cursor counts as a seek
    /// for the policy's read heuristics (FLSM: the seek-compaction trigger),
    /// armed on the family being read.
    fn iter(&self, cf_id: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.counters.record_seek();
        if self.policy.note_seek() {
            {
                let mut state = self.state.lock();
                let st = &mut *state;
                if let Some(cf) = st.cfs.get_mut(&cf_id) {
                    self.policy.arm_requested_compaction(&mut cf.policy);
                }
            }
            self.work_available.notify_one();
        }
        let (sequence, mem, imm, version, io, resolver, snapshot) = {
            let mut state = self.state.lock();
            let sequence = visible_sequence(opts, state.last_sequence);
            // The cursor resolves value pointers as it streams; pinning its
            // sequence in the cursor-pin list keeps vlog GC from deleting a
            // file whose records the cursor's view can still reach. The pin
            // deliberately does NOT go into `snapshots`: the cursor's
            // version pin already protects its sstables, and adding it to
            // the compaction floor would let any long-lived cursor stall
            // version dedup (and flush-quiesce) indefinitely.
            let snapshot = self.cursor_pins.acquire(sequence);
            let st = &mut *state;
            let Some(cf) = st.cfs.get_mut(&cf_id) else {
                return Err(missing_cf_error(cf_id));
            };
            (
                sequence,
                Arc::clone(&cf.mem),
                cf.imm.clone(),
                cf.versions.current(),
                cf.io.clone(),
                Arc::clone(&cf.vlog.readers),
                snapshot,
            )
        };

        let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
        children.push(Box::new(mem.owned_iter()));
        if let Some(imm) = imm {
            children.push(Box::new(imm.owned_iter()));
        }
        self.policy
            .append_version_iterators(&io, &version, opts, &mut children)?;

        let merged = MergingIterator::new(children);
        let user = UserIterator::new(Box::new(merged), sequence)
            .with_resolver(resolver as Arc<dyn ValueResolver>);
        // Pin the version so obsolete-file GC cannot delete the sstables the
        // cursor is still reading, and the snapshot so vlog GC cannot
        // reclaim a value the cursor can still observe.
        Ok(Box::new(PinnedIterator::new(
            Box::new(user),
            (version, snapshot),
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let state = self.state.lock();
        self.snapshots.acquire(state.last_sequence)
    }

    // ----------------------------------------------------- background work

    /// Which family the flush thread should serve next: the largest
    /// immutable memtable wins, so one hot namespace cannot park the others
    /// behind its queue.
    fn pick_flush_cf(state: &EngineState<P>) -> Option<CfId> {
        state
            .cfs
            .iter()
            .filter(|(_, cf)| !cf.dropping && !cf.flush_running)
            .filter_map(|(id, cf)| {
                cf.imm
                    .as_ref()
                    .map(|imm| (imm.approximate_memory_usage(), *id))
            })
            .max()
            .map(|(_, id)| id)
    }

    /// The dedicated flush thread: turns the hottest family's `imm` into a
    /// level-0 sstable the moment one exists, independently of how busy the
    /// compaction pool is.
    fn flush_main(inner: Arc<EngineCore<P>>) {
        let mut state = inner.state.lock();
        loop {
            while !inner.shutting_down.load(Ordering::SeqCst)
                && (state.bg_error.is_some() || Self::pick_flush_cf(&state).is_none())
            {
                inner.flush_available.wait(&mut state);
            }
            if inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let cf_id = Self::pick_flush_cf(&state).expect("picked above");
            state
                .cfs
                .get_mut(&cf_id)
                .expect("picked family exists")
                .flush_running = true;
            let result = inner.compact_memtable(&mut state, cf_id);
            if let Some(cf) = state.cfs.get_mut(&cf_id) {
                cf.flush_running = false;
            }
            if let Err(err) = result {
                if state.bg_error.is_none() {
                    state.bg_error = Some(err);
                }
            }
            // Writers stalled on the full memtable can proceed, and the new
            // level-0 file may have armed a compaction trigger.
            inner.work_done.notify_all();
            inner.work_available.notify_all();
        }
    }

    /// One worker of the compaction pool: claim a job whose inputs are
    /// disjoint from every in-flight job, run its IO outside the state
    /// mutex, and commit the result through the serialized `log_and_apply`.
    fn compaction_worker_main(inner: Arc<EngineCore<P>>) {
        let mut state = inner.state.lock();
        loop {
            if inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            if let Some(claimed) = inner.claim_job(&mut state) {
                inner.run_claimed_job(&mut state, claimed);
                inner.work_done.notify_all();
                // The commit may have armed triggers for other levels (or
                // freed claimed inputs), so give idle workers a chance.
                inner.work_available.notify_all();
            } else {
                inner.work_available.wait(&mut state);
            }
        }
    }

    /// Claims the highest-priority compaction job across every family.
    ///
    /// Families are polled hottest-first — pending compaction work, then
    /// most level-0 files — so one namespace's debt cannot hide behind an
    /// idle sibling. Within a family the policy picks the job; its inputs
    /// must not intersect that family's in-flight inputs.
    ///
    /// On success the job's input files are recorded in the family's
    /// `claimed_inputs` (keeping other workers off the same inputs) and its
    /// pre-allocated output numbers in `pending_outputs` (keeping the GC off
    /// files that exist on disk but are not yet committed to any version).
    pub fn claim_job(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> Option<ClaimedJob<P>> {
        if state.bg_error.is_some() {
            return None;
        }
        let smallest_snapshot = self.snapshots.compaction_floor(state.last_sequence);
        let mut order: Vec<(bool, usize, CfId)> = state
            .cfs
            .iter()
            .filter(|(_, cf)| !cf.dropping)
            .map(|(id, cf)| {
                (
                    self.policy.needs_compaction(cf.versions.current_unpinned()),
                    cf.versions.current_unpinned().level0_len(),
                    *id,
                )
            })
            .collect();
        order.sort_by_key(|&(needs, level0, _)| std::cmp::Reverse((needs, level0)));

        for (_, _, cf_id) in order {
            let st = &mut **state;
            let cf = st.cfs.get_mut(&cf_id).expect("ordered family exists");
            let claim = {
                let mut ctx = PolicyCtx {
                    versions: &mut cf.versions,
                    state: &mut cf.policy,
                    claimed_inputs: &cf.claimed_inputs,
                    smallest_snapshot,
                };
                self.policy.pick_job(&cf.io, &mut ctx)
            };
            if let Some(claim) = claim {
                cf.claimed_inputs
                    .extend(claim.input_numbers.iter().copied());
                cf.pending_outputs
                    .extend(claim.output_numbers.iter().copied());
                cf.active_jobs += 1;
                st.active_compactions += 1;
                self.counters.record_compaction_start();
                return Some(ClaimedJob { cf: cf_id, claim });
            }
        }
        None
    }

    /// Runs a claimed job's IO with the state mutex released, then commits
    /// (or abandons) it and releases its claims. The claimed family cannot
    /// be dropped while the job is in flight (`drop_cf` waits it out).
    pub fn run_claimed_job(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        claimed: ClaimedJob<P>,
    ) {
        let start = Instant::now();
        let ClaimedJob { cf: cf_id, claim } = claimed;
        let io = state
            .cfs
            .get(&cf_id)
            .expect("claimed family is pinned by its active job")
            .io
            .clone();
        let policy = &self.policy;
        let job = claim.job;
        let io_result = MutexGuard::unlocked(state, || -> Result<Vec<FileMetaData>> {
            let outputs = policy.run_job_io(&io, &job)?;
            if !outputs.is_empty() {
                // The new tables' directory entries must be durable before
                // the MANIFEST commit references them.
                io.env.sync_dir(&io.db_path)?;
            }
            Ok(outputs)
        });

        let commit_result = io_result.and_then(|outputs| {
            let smallest_snapshot = self.snapshots.compaction_floor(state.last_sequence);
            let last_sequence = state.last_sequence;
            let st = &mut **state;
            let cf = st
                .cfs
                .get_mut(&cf_id)
                .expect("claimed family is pinned by its active job");
            cf.versions.last_sequence = last_sequence;
            let mut ctx = PolicyCtx {
                versions: &mut cf.versions,
                state: &mut cf.policy,
                claimed_inputs: &cf.claimed_inputs,
                smallest_snapshot,
            };
            let (bytes_read, bytes_written) = policy.commit_job(&mut ctx, &job, outputs)?;
            self.counters.record_compaction(
                start.elapsed().as_micros() as u64,
                bytes_read,
                bytes_written,
            );
            Ok(())
        });

        // Release the claims whether the job committed or failed, so a
        // poisoned store does not wedge its sibling workers.
        {
            let st = &mut **state;
            if let Some(cf) = st.cfs.get_mut(&cf_id) {
                for number in &claim.input_numbers {
                    cf.claimed_inputs.remove(number);
                }
                for number in &claim.output_numbers {
                    cf.pending_outputs.remove(number);
                }
                cf.active_jobs -= 1;
            }
            st.active_compactions -= 1;
        }
        self.counters.record_compaction_end();

        match commit_result {
            Ok(()) => self.remove_obsolete_files(state),
            Err(err) => {
                if state.bg_error.is_none() {
                    state.bg_error = Some(err);
                }
            }
        }
    }

    fn compact_memtable(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        cf_id: CfId,
    ) -> Result<()> {
        let (imm, number, io) = {
            let cf = state
                .cfs
                .get_mut(&cf_id)
                .expect("flushing family is pinned by flush_running");
            let imm = match cf.imm.clone() {
                Some(imm) => imm,
                None => return Ok(()),
            };
            let number = cf.versions.new_file_number();
            // Until the edit commits, the new table exists only on disk;
            // keep the concurrent compaction workers' GC away from it.
            cf.pending_outputs.insert(number);
            (imm, number, cf.io.clone())
        };
        let start = Instant::now();
        let meta = MutexGuard::unlocked(state, || build_table_from_memtable(&io, &imm, number));
        let last_sequence = state.last_sequence;
        let current_log = state.log_file_number;
        let st = &mut **state;
        let cf = st
            .cfs
            .get_mut(&cf_id)
            .expect("flushing family is pinned by flush_running");
        let meta = match meta {
            Ok(meta) => meta,
            Err(err) => {
                cf.pending_outputs.remove(&number);
                return Err(err);
            }
        };

        let mut written = 0;
        if let Some(meta) = &meta {
            written = meta.file_size;
        }
        // The frozen table covers every record of this family in WALs older
        // than the active memtable's birth log; publish that as the
        // family's recovery floor.
        let mem_log_number = cf.mem_log_number;
        cf.versions.last_sequence = last_sequence;
        let commit = cf
            .versions
            .commit_level0(meta.as_ref(), Some(mem_log_number));
        cf.pending_outputs.remove(&number);
        commit?;
        cf.imm = None;
        cf.flushes += 1;
        self.counters.record_flush();
        self.counters
            .record_compaction(start.elapsed().as_micros() as u64, 0, written);

        // Families with nothing buffered can advance their recovery floor
        // to the live WAL; without this an idle namespace would pin every
        // log segment forever. Each advance is a synced MANIFEST edit, so
        // it runs only once old segments are actually piling up (the GC's
        // backlog count), not on every flush of a hot sibling.
        if st.live_wal_files > WAL_BACKLOG_LIMIT {
            for other in st.cfs.values_mut() {
                if other.id != cf_id
                    && !other.dropping
                    && other.mem.is_empty()
                    && other.imm.is_none()
                    && other.versions.log_number < current_log
                {
                    other.versions.last_sequence = last_sequence;
                    other.versions.commit_level0(None, Some(current_log))?;
                }
            }
        }
        self.remove_obsolete_files(state);
        Ok(())
    }

    // -------------------------------------------------------------- cleanup

    /// Deletes files no live version, pinned version or in-flight job needs,
    /// in every family's directory. A WAL segment survives until every
    /// family's flushed state covers it **and** no change-stream cursor (or
    /// the follower-restart retention window) still needs it — the change
    /// log turns segments a cursor can no longer reach into an explicit
    /// `SequenceTruncated`, never a silently unreadable gap.
    pub fn remove_obsolete_files(&self, state: &mut MutexGuard<'_, EngineState<P>>) {
        let min_log = self.change_log.wal_reclaim_floor(state.min_log_number());
        let current_log = state.log_file_number;
        let mut any_pinned = false;
        let mut live_wals = 0usize;
        let st = &mut **state;
        for cf in st.cfs.values_mut() {
            // If a pinned old version kept files alive in this pass, a later
            // quiesced `flush` must rescan once the pins drop.
            let (live, pinned) = cf.versions.live_files_and_pins();
            any_pinned |= pinned;
            let manifest_number = cf.versions.manifest_number();
            let children = match cf.io.env.children(&cf.io.db_path) {
                Ok(children) => children,
                Err(_) => continue,
            };
            for name in children {
                let Some((ty, number)) = parse_file_name(&name) else {
                    // Unknown names (the `CFS` catalog, `cf-<id>` subdirs on
                    // a real filesystem) are never the GC's to delete.
                    continue;
                };
                let keep = match ty {
                    // A table is live if any version references it — or if
                    // it is the not-yet-committed output of an in-flight
                    // flush or compaction job running on another thread.
                    FileType::Table => {
                        live.binary_search(&number).is_ok() || cf.pending_outputs.contains(&number)
                    }
                    FileType::WriteAheadLog => number >= min_log || number == current_log,
                    FileType::Descriptor => number >= manifest_number,
                    FileType::Temp => false,
                    // Value-log lifecycle is owned by `vlog_gc`: a vlog file
                    // is live until a GC pass empties it and the snapshot
                    // floor passes its retire point, neither of which this
                    // version-based scan can see.
                    FileType::ValueLog => true,
                    FileType::Current | FileType::Lock | FileType::BtreePages => true,
                };
                if !keep {
                    if ty == FileType::Table {
                        cf.io.table_cache.evict(number);
                    }
                    if cf.io.env.remove_file(&cf.io.db_path.join(&name)).is_err() {
                        // The file is obsolete in every version, so a failed
                        // delete leaks space, not correctness; the next GC
                        // pass retries it. Count it so the leak is visible.
                        self.counters.record_cleanup_failure();
                    }
                } else if cf.id == 0 && ty == FileType::WriteAheadLog {
                    live_wals += 1;
                }
            }
        }
        st.gc_rescan_needed = any_pinned;
        st.live_wal_files = live_wals;
    }

    // --------------------------------------------------------- value-log GC

    /// One garbage-collection pass over every family's value log.
    ///
    /// Per family: scan the **coldest** sealed file (lowest number — vlog
    /// numbers grow with time), relocate every record that is still the
    /// live version's backing store by re-writing its `(key, value)` through
    /// the normal commit path, then retire the file. Retired files are
    /// deleted only once the snapshot floor passes their retire sequence,
    /// so no pinned snapshot (and no cursor, which pins its sequence) can
    /// ever observe a pointer into a missing file.
    pub fn vlog_gc(&self) -> Result<VlogGcReport> {
        // Two concurrent passes would relocate the same records into the
        // same sequence slot; one at a time, always.
        let _serial = self.vlog_gc_lock.lock();
        let mut report = VlogGcReport::default();
        let cf_ids: Vec<CfId> = self.state.lock().cfs.keys().copied().collect();
        for cf_id in cf_ids {
            self.vlog_gc_cf(cf_id, &mut report)?;
        }
        self.vlog_reclaim(&mut report);
        Ok(report)
    }

    fn vlog_gc_cf(&self, cf_id: CfId, report: &mut VlogGcReport) -> Result<()> {
        // Pick the coldest sealed file first: reserving a horizon for a
        // family with nothing to scan would burn sequence slots for no work.
        let (file_number, readers) = {
            let state = self.state.lock();
            if let Some(err) = &state.bg_error {
                return Err(err.clone());
            }
            let Some(cf) = state.cf(cf_id) else {
                return Ok(());
            };
            let Some((&number, _)) = cf.vlog.sealed.iter().next() else {
                return Ok(());
            };
            (number, Arc::clone(&cf.vlog.readers))
        };

        // Capture the GC horizon — the sequence every relocation will be
        // pinned at — as a slot *reserved* through the commit queue. The
        // reservation guarantees no write, past or future, is numbered into
        // the slot, so a relocation at the horizon can never collide with a
        // user version of the same key in the same sequence slot. It also
        // makes GC self-sufficient on a quiescent store: the horizon always
        // moves past the newest user write, so the pass can relocate records
        // written in the very last slot instead of waiting for traffic that
        // may never come.
        let slot = Arc::new(AtomicU64::new(0));
        let ticket = self.commit_queue.submit_reserve(Arc::clone(&slot));
        match self.commit_queue.wait_turn(&ticket) {
            Role::Done(result) => result?,
            Role::Leader(group) => self.commit(group)?,
        }
        let s_check = slot.load(Ordering::Acquire);
        if s_check == 0 {
            return Ok(());
        }
        let data = readers.read_file(file_number)?;
        report.scanned_files += 1;

        // Collect the records still live at the horizon. A record is live
        // iff the version visible at `s_check` is a pointer to exactly this
        // (file, offset); a torn tail ends the scan silently (those bytes
        // were never acknowledged), mid-file corruption aborts the pass.
        let at = ReadOptions {
            snapshot: Some(s_check),
            ..ReadOptions::default()
        };
        let before = ReadOptions {
            snapshot: Some(s_check.saturating_sub(1)),
            ..ReadOptions::default()
        };
        let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut retire_ok = true;
        for entry in iter_vlog_records(&data) {
            let (offset, record, _len) = entry?;
            let key = record.key;
            if !self.pointer_is_current(cf_id, &at, key, file_number, offset)? {
                continue;
            }
            // Relocations are written at `s_check` itself, so a version
            // born in that exact sequence slot could not be shadowed
            // without a duplicate internal key. The reservation makes
            // this unreachable for engine-numbered writes, but a sharded
            // coordinator assigns sequences externally and could, in
            // principle, land a version in the reserved slot. Detectable
            // without sequence plumbing — a slot-`s_check` version is
            // invisible one sequence earlier — and safe to leave for the
            // next pass, whose horizon is reserved past it.
            if !self.pointer_is_current(cf_id, &before, key, file_number, offset)? {
                report.skipped += 1;
                retire_ok = false;
                continue;
            }
            // Relocation re-enters the commit path, which re-frames (and
            // re-compresses, if configured) the value — so hand it the
            // original bytes, not the stored compressed form.
            let value = if record.compressed {
                pebblesdb_compress::decompress(record.value, u32::MAX as usize)?
            } else {
                record.value.to_vec()
            };
            live.push((key.to_vec(), value));
        }

        // Relocate through the commit path as single-record pre-sequenced
        // batches pinned at the horizon: a concurrent user write carries a
        // later sequence and shadows the relocation, never the reverse.
        // The final relocation syncs, so by the time the file can be
        // deleted no pointer into it lives only in volatile buffers.
        let total = live.len();
        for (idx, (key, value)) in live.into_iter().enumerate() {
            self.policy.note_write();
            let mut batch = WriteBatch::new();
            batch.put_cf(cf_id, &key, &value);
            batch.set_sequence(s_check);
            let sync = idx + 1 == total;
            let ticket = self.commit_queue.submit_presequenced(batch, sync);
            match self.commit_queue.wait_turn(&ticket) {
                Role::Done(result) => result?,
                Role::Leader(group) => self.commit(group)?,
            }
            self.counters.record_vlog_relocation();
            report.relocated += 1;
            report.relocated_bytes += value.len() as u64;
        }

        if retire_ok {
            let mut state = self.state.lock();
            if let Some(cf) = state.cf_mut(cf_id) {
                cf.vlog.sealed.remove(&file_number);
                cf.vlog.retired.insert(file_number, s_check);
            }
        }
        Ok(())
    }

    /// Whether the version of `key` visible under `opts` is a pointer to
    /// exactly `(file_number, offset)` — the GC's liveness probe.
    fn pointer_is_current(
        &self,
        cf_id: CfId,
        opts: &ReadOptions,
        key: &[u8],
        file_number: u64,
        offset: u64,
    ) -> Result<bool> {
        Ok(match self.lookup_value(cf_id, opts, key)? {
            Some((LookupValue::Pointer(p), _)) => {
                p.file_number == file_number && p.offset == offset
            }
            _ => false,
        })
    }

    /// Deletes retired vlog files once both the snapshot floor and the
    /// cursor-pin floor pass their retire sequence. In-flight point gets
    /// that raced the deletion retry their lookup and land on the relocated
    /// pointer.
    fn vlog_reclaim(&self, report: &mut VlogGcReport) {
        let mut candidates: Vec<(CfId, u64, std::path::PathBuf, Arc<VlogReaderCache>)> = Vec::new();
        {
            let state = self.state.lock();
            let floor = self
                .snapshots
                .compaction_floor(state.last_sequence)
                .min(self.cursor_pins.compaction_floor(state.last_sequence));
            for cf in state.cfs.values() {
                for (&number, &retire_seq) in &cf.vlog.retired {
                    if floor >= retire_seq {
                        candidates.push((
                            cf.id,
                            number,
                            vlog_file_name(&cf.io.db_path, number),
                            Arc::clone(&cf.vlog.readers),
                        ));
                    }
                }
            }
        }
        for (cf_id, number, path, readers) in candidates {
            let io_result = {
                let cf_env = {
                    let state = self.state.lock();
                    state.cf(cf_id).map(|cf| Arc::clone(&cf.io.env))
                };
                match cf_env {
                    Some(env) => env.remove_file(&path),
                    None => continue, // family dropped; its files died with it
                }
            };
            match io_result {
                Ok(()) => {
                    readers.evict(number);
                    report.reclaimed_files += 1;
                    let mut state = self.state.lock();
                    if let Some(cf) = state.cf_mut(cf_id) {
                        cf.vlog.retired.remove(&number);
                    }
                }
                Err(_) => {
                    // Deferred, not lost: the file stays in `retired` and
                    // the next pass retries the delete.
                    self.counters.record_cleanup_failure();
                }
            }
        }
    }

    // ---------------------------------------------------------------- flush

    fn flush(&self) -> Result<()> {
        // Rotate every non-empty memtable through the commit queue so the
        // rotation is serialised with in-flight write groups.
        let needs_rotate = {
            let state = self.state.lock();
            state.cfs.values().any(|cf| !cf.mem.is_empty())
        };
        if needs_rotate {
            let ticket = self.commit_queue.submit(None, false);
            match self.commit_queue.wait_turn(&ticket) {
                Role::Done(result) => result?,
                Role::Leader(group) => self.commit(group)?,
            }
        }
        let mut state = self.state.lock();
        loop {
            if let Some(err) = &state.bg_error {
                return Err(err.clone());
            }
            let busy = state.active_compactions > 0
                || state.cfs.values().any(|cf| {
                    cf.imm.is_some()
                        || cf.flush_running
                        || self.policy.needs_compaction(cf.versions.current_unpinned())
                });
            if busy {
                self.flush_available.notify_one();
                self.work_available.notify_all();
                self.work_done.wait(&mut state);
            } else {
                // Quiesced: reclaim files whose deletion a commit-time GC
                // skipped because a read still pinned their version. Skipped
                // when the last GC saw no pins — it already ran to
                // completion, so rescanning the directories would be wasted
                // work under the state lock.
                if state.gc_rescan_needed {
                    self.remove_obsolete_files(&mut state);
                }
                return Ok(());
            }
        }
    }

    // ------------------------------------------------- column families

    /// Creates a new, empty column family under the state lock. The catalog
    /// edit is the commit point; the directory and version set follow it
    /// (reopen re-initialises them if a crash intervenes).
    ///
    /// With `want_id`, the family is created under that exact id — the
    /// follower side of replication mirrors the leader's catalog, and WAL
    /// records route by id, so the ids must match bit for bit. Asking for an
    /// existing `(id, name)` pair is an idempotent no-op (catalog re-syncs
    /// happen on every reconnect); an id or name clash is an error.
    fn create_cf_locked(&self, name: &str, want_id: Option<CfId>) -> Result<(CfId, String)> {
        if name.is_empty() || name.contains('/') {
            return Err(Error::invalid_argument(format!(
                "invalid column family name {name:?}"
            )));
        }
        let mut state = self.state.lock();
        if let Some(err) = &state.bg_error {
            return Err(err.clone());
        }
        if let Some(want) = want_id {
            if let Some(existing) = state.cfs.get(&want) {
                if existing.name == name {
                    return Ok((want, name.to_string()));
                }
                return Err(Error::invalid_argument(format!(
                    "column family id {want} is {:?}, not {name:?}",
                    existing.name
                )));
            }
        }
        if state.cfs.values().any(|cf| cf.name == name) {
            return Err(Error::invalid_argument(format!(
                "column family {name:?} already exists"
            )));
        }
        let id = match want_id {
            Some(want) => {
                if want == 0 {
                    return Err(Error::invalid_argument(
                        "column family id 0 is the default family",
                    ));
                }
                state.next_cf_id = state.next_cf_id.max(want + 1);
                want
            }
            None => {
                let id = state.next_cf_id;
                state.next_cf_id += 1;
                id
            }
        };

        // First family ever created: materialise the catalog.
        if state.catalog.is_none() {
            let snapshot = CatalogData {
                cfs: state
                    .cfs
                    .values()
                    .map(|cf| (cf.id, cf.name.clone()))
                    .collect(),
                next_cf_id: state.next_cf_id,
            };
            state.catalog = Some(Catalog::rewrite(
                Arc::clone(&self.io.env),
                &self.io.db_path,
                &snapshot,
            )?);
        }
        state
            .catalog
            .as_mut()
            .expect("catalog materialised above")
            .append_create(id, name)?;

        let dir = catalog::cf_dir(&self.io.db_path, id);
        self.io.env.create_dir_all(&dir)?;
        let io = cf_io(&self.io.env, &dir, &self.io.options);
        let mut versions = VersionSet::new(
            Arc::clone(&io.env),
            io.db_path.clone(),
            io.options.max_levels,
        );
        versions.create_new()?;
        versions.last_sequence = state.last_sequence;
        versions.commit_level0(None, Some(state.log_file_number))?;
        let mem_log_number = state.log_file_number;
        let vlog = CfVlog::new(
            &self.io.env,
            &dir,
            &self.counters,
            &self.io.options.compression_stats,
        );
        state.cfs.insert(
            id,
            CfState {
                id,
                name: name.to_string(),
                io,
                mem: Arc::new(MemTable::new()),
                imm: None,
                versions,
                policy: self.policy.new_state(),
                claimed_inputs: BTreeSet::new(),
                pending_outputs: BTreeSet::new(),
                mem_log_number,
                active_jobs: 0,
                flush_running: false,
                flushes: 0,
                dropping: false,
                vlog,
            },
        );
        Ok((id, name.to_string()))
    }

    /// Drops a column family: drains its in-flight background work, commits
    /// the catalog drop edit, removes it from the live set and deletes its
    /// directory. The default family cannot be dropped.
    fn drop_cf(&self, name: &str) -> Result<()> {
        let removed = {
            let mut state = self.state.lock();
            let id = state
                .cfs
                .values()
                .find(|cf| cf.name == name)
                .map(|cf| cf.id)
                .ok_or_else(|| Error::invalid_argument(format!("no column family {name:?}")))?;
            if id == 0 {
                return Err(Error::invalid_argument(
                    "the default column family cannot be dropped",
                ));
            }
            // Stop new work against the family, discard its unflushed data
            // and wait out in-flight jobs (their outputs die with the
            // directory; the job commit still runs against the family's
            // version set, which is dropped right after).
            state.cfs.get_mut(&id).expect("found above").dropping = true;
            loop {
                let cf = state.cfs.get_mut(&id).expect("dropping family is live");
                if !cf.flush_running {
                    cf.imm = None;
                }
                if cf.active_jobs == 0 && !cf.flush_running {
                    break;
                }
                self.work_available.notify_all();
                self.flush_available.notify_one();
                self.work_done.wait(&mut state);
            }
            state
                .catalog
                .as_mut()
                .expect("a non-default family implies a catalog")
                .append_drop(id)?;
            state.cfs.remove(&id).expect("dropping family is live")
        };
        // Delete the directory outside the lock; reopen reaps it if this
        // races a crash (the catalog edit above already committed). The drop
        // itself already succeeded — the catalog edit is the commit point —
        // so a failed removal is a disk-space leak, not an error the caller
        // can act on: count it, note it as a background warning, and let the
        // next open retry the reap.
        if let Err(err) = self.io.env.remove_dir_all(&removed.io.db_path) {
            self.counters.record_cleanup_failure();
            let mut state = self.state.lock();
            if state.bg_warning.is_none() {
                state.bg_warning = Some(err);
            }
        }
        self.work_done.notify_all();
        Ok(())
    }

    // ---------------------------------------------------------------- stats

    /// Assembles statistics; `scope` restricts file/memory figures to one
    /// family, `None` aggregates across all of them. Operation counters and
    /// device IO are store-wide either way.
    fn stats_scoped(&self, scope: Option<CfId>) -> StoreStats {
        let io = self.io.env.io_stats().snapshot();
        let state = self.state.lock();
        let mut disk_bytes_live = 0u64;
        let mut num_files = 0u64;
        let mut memory = 0usize;
        let mut block_cache_hits = 0u64;
        let mut block_cache_misses = 0u64;
        let mut table_cache_hits = 0u64;
        let mut table_cache_misses = 0u64;
        for (id, cf) in &state.cfs {
            if scope.is_some_and(|s| s != *id) {
                continue;
            }
            let version = cf.versions.current_unpinned();
            disk_bytes_live += version.total_bytes();
            num_files += version.num_files() as u64;
            memory += cf.mem.approximate_memory_usage()
                + cf.imm
                    .as_ref()
                    .map(|m| m.approximate_memory_usage())
                    .unwrap_or(0)
                + cf.io.table_cache.memory_usage();
            let (bh, bm) = cf.io.table_cache.block_cache_hit_miss();
            let (th, tm) = cf.io.table_cache.table_cache_hit_miss();
            block_cache_hits += bh;
            block_cache_misses += bm;
            table_cache_hits += th;
            table_cache_misses += tm;
        }
        let compression = &self.io.options.compression_stats;
        StoreStats {
            user_bytes_written: EngineCounters::load(&self.counters.user_bytes_written),
            bytes_written: io.bytes_written,
            bytes_read: io.bytes_read,
            disk_bytes_live,
            num_files,
            compactions: EngineCounters::load(&self.counters.compactions),
            flushes: EngineCounters::load(&self.counters.flushes),
            max_concurrent_compactions: EngineCounters::load(
                &self.counters.max_concurrent_compactions,
            ),
            compaction_micros: EngineCounters::load(&self.counters.compaction_micros),
            compaction_bytes_read: EngineCounters::load(&self.counters.compaction_bytes_read),
            compaction_bytes_written: EngineCounters::load(&self.counters.compaction_bytes_written),
            memory_usage_bytes: memory as u64,
            gets: EngineCounters::load(&self.counters.gets),
            seeks: EngineCounters::load(&self.counters.seeks),
            write_stalls: EngineCounters::load(&self.counters.write_stalls),
            write_stall_micros: EngineCounters::load(&self.counters.write_stall_micros),
            memtable_clones: EngineCounters::load(&self.counters.memtable_clones),
            block_cache_hits,
            block_cache_misses,
            table_cache_hits,
            table_cache_misses,
            num_column_families: state.cfs.len() as u64,
            num_shards: 1,
            vlog_bytes_written: EngineCounters::load(&self.counters.vlog_bytes_written),
            vlog_cache_hits: EngineCounters::load(&self.counters.vlog_cache_hits),
            vlog_cache_misses: EngineCounters::load(&self.counters.vlog_cache_misses),
            vlog_gc_relocations: EngineCounters::load(&self.counters.vlog_gc_relocations),
            cleanup_failures: EngineCounters::load(&self.counters.cleanup_failures),
            compress_input_bytes: compression.input_bytes.load(Ordering::Relaxed),
            compress_output_bytes: compression.output_bytes.load(Ordering::Relaxed),
            compress_skipped_blocks: compression.skipped_blocks.load(Ordering::Relaxed),
            decompress_micros: compression.decompress_micros.load(Ordering::Relaxed),
            // A primary has no replication lag; the follower store overrides
            // these two with its applied frontier.
            replica_applied_seq: 0,
            replica_lag_batches: 0,
            cdc_streams_active: self.change_log.streams_active(),
            wal_bytes_shipped: self.change_log.shipped_bytes(),
        }
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        let state = self.state.lock();
        state
            .cfs
            .values()
            .map(|cf| {
                let version = cf.versions.current_unpinned();
                CfStats {
                    id: cf.id,
                    name: cf.name.clone(),
                    num_files: version.num_files() as u64,
                    live_bytes: version.total_bytes(),
                    flushes: cf.flushes,
                    memtable_bytes: (cf.mem.approximate_memory_usage()
                        + cf.imm
                            .as_ref()
                            .map(|m| m.approximate_memory_usage())
                            .unwrap_or(0)) as u64,
                }
            })
            .collect()
    }

    fn live_file_sizes_scoped(&self, scope: Option<CfId>) -> Vec<u64> {
        let state = self.state.lock();
        let mut sizes = Vec::new();
        for (id, cf) in &state.cfs {
            if scope.is_some_and(|s| s != *id) {
                continue;
            }
            sizes.extend(cf.versions.current_unpinned().file_sizes());
        }
        sizes
    }
}

// The object-safe per-family operations; `ColumnFamilyHandle`s hold the
// `EngineShared` behind this trait, keeping the store (and its background
// threads) alive for as long as any handle exists.
impl<P: ShapePolicy> CfOps for EngineShared<P> {
    fn cf_put_opts(&self, cf: CfId, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put_cf(cf, key, value);
        self.core.write(batch, opts)
    }

    fn cf_get_opts(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get(cf, opts, key)
    }

    fn cf_delete_opts(&self, cf: CfId, opts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_cf(cf, key);
        self.core.write(batch, opts)
    }

    fn cf_write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.core.write(batch, opts)
    }

    fn cf_iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.core.iter(cf, opts)
    }

    fn cf_snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    fn cf_flush(&self) -> Result<()> {
        self.core.flush()
    }

    fn cf_kv_stats(&self, cf: CfId) -> StoreStats {
        self.core.stats_scoped(Some(cf))
    }

    fn cf_live_file_sizes(&self, cf: CfId) -> Vec<u64> {
        self.core.live_file_sizes_scoped(Some(cf))
    }

    fn cf_engine_name(&self) -> String {
        self.core.policy.engine_name()
    }
}

impl<P: ShapePolicy> Db for EngineDb<P> {
    fn create_cf(&self, name: &str) -> Result<ColumnFamilyHandle> {
        let (id, name) = self.shared.core.create_cf_locked(name, None)?;
        Ok(self.handle(id, &name))
    }

    fn drop_cf(&self, name: &str) -> Result<()> {
        self.shared.core.drop_cf(name)
    }

    fn list_cfs(&self) -> Vec<String> {
        let state = self.shared.core.state.lock();
        state.cfs.values().map(|cf| cf.name.clone()).collect()
    }

    fn cf(&self, name: &str) -> Option<ColumnFamilyHandle> {
        let id = {
            let state = self.shared.core.state.lock();
            state
                .cfs
                .values()
                .find(|cf| cf.name == name)
                .map(|cf| cf.id)
        }?;
        Some(self.handle(id, name))
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        self.shared.core.cf_stats()
    }

    fn stream(&self, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
        Ok(Box::new(self.change_stream(from_seq)?))
    }

    fn committed_sequence(&self) -> SequenceNumber {
        self.last_sequence()
    }
}

impl<P: ShapePolicy> KvStore for EngineDb<P> {
    fn put_opts(&self, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.shared.core.write(batch, opts)
    }

    fn get_opts(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shared.core.get(0, opts, key)
    }

    fn delete_opts(&self, opts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.shared.core.write(batch, opts)
    }

    fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.shared.core.write(batch, opts)
    }

    fn iter(&self, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.shared.core.iter(0, opts)
    }

    fn snapshot(&self) -> Snapshot {
        self.shared.core.snapshot()
    }

    fn flush(&self) -> Result<()> {
        self.shared.core.flush()
    }

    fn stats(&self) -> StoreStats {
        self.shared.core.stats_scoped(None)
    }

    fn engine_name(&self) -> String {
        self.shared.core.policy.engine_name()
    }

    fn live_file_sizes(&self) -> Vec<u64> {
        self.shared.core.live_file_sizes_scoped(None)
    }
}

// --------------------------------------------------------- change streams

/// A cursor over one store's committed batches, in commit order.
///
/// Near the frontier the stream follows the in-memory commit tail, blocking
/// on the commit signal up to the caller's timeout; a cursor that predates
/// the tail transparently replays closed WAL segments, then switches back.
/// Value-separated records are resolved back inline on delivery, so a
/// consumer sees exactly the user data — it never needs this store's value
/// log. While alive the stream pins what its cursor can still reach:
///
/// * the WAL segments at or past the cursor (until the retention cap says
///   otherwise), through its registered change-log cursor, and
/// * the value-log files the cursor's sequence can reference, through a
///   sliding `cursor_pins` sequence pin.
///
/// Both pins advance as events are delivered and drop with the stream.
pub struct EngineChangeStream<P: ShapePolicy> {
    shared: Arc<EngineShared<P>>,
    cursor_id: u64,
    /// The next undelivered sequence: every committed batch whose last
    /// sequence is at or past this is still owed to the consumer.
    next_seq: SequenceNumber,
    /// Absolute position in the commit tail (see [`ChangeLog::read_tail`]).
    tail_pos: u64,
    /// An in-flight closed-segment replay: `(segment number, replay)`.
    replay: Option<(u64, SegmentReplay)>,
    /// The highest closed segment fully replayed; guards against re-reading
    /// a segment whose relevant batches were all below the cursor.
    replayed_through: u64,
    /// Value-log pin at the cursor's sequence (swapped forward on delivery,
    /// new pin acquired before the old one drops).
    pin: Snapshot,
}

impl<P: ShapePolicy> EngineChangeStream<P> {
    fn open(
        shared: Arc<EngineShared<P>>,
        from_seq: SequenceNumber,
    ) -> Result<EngineChangeStream<P>> {
        let from_seq = from_seq.max(1);
        let cursor_id = shared.core.change_log.register(from_seq)?;
        let pin = shared.core.cursor_pins.acquire(from_seq);
        Ok(EngineChangeStream {
            shared,
            cursor_id,
            next_seq: from_seq,
            tail_pos: 0,
            replay: None,
            replayed_through: 0,
            pin,
        })
    }

    /// Finishes a delivery: resolves separated values, advances the cursor
    /// and both pins, and wraps the batch as an event.
    fn deliver(&mut self, batch: WriteBatch) -> Result<Option<ChangeEvent>> {
        let batch = self.resolve_pointers(batch)?;
        let core = &self.shared.core;
        core.change_log
            .add_shipped_bytes(batch.contents().len() as u64);
        let event = ChangeEvent::from_batch(batch);
        self.next_seq = self.next_seq.max(event.last_seq + 1);
        core.change_log.update_cursor(self.cursor_id, self.next_seq);
        // Acquire the new vlog pin before the old one drops, so the reclaim
        // floor never momentarily passes the cursor.
        self.pin = core.cursor_pins.acquire(self.next_seq);
        Ok(Some(event))
    }

    /// Rewrites a batch's value-pointer records back to inline values. The
    /// WAL (and the tail) hold post-separation bytes; consumers get the user
    /// data. A pointer whose value log is gone — the family was dropped, or
    /// GC retired the file before this cursor existed — is unrecoverable
    /// history and truncates the stream.
    fn resolve_pointers(&self, batch: WriteBatch) -> Result<WriteBatch> {
        let mut has_pointer = false;
        for record in batch.iter() {
            if record?.value_type == ValueType::ValuePointer {
                has_pointer = true;
                break;
            }
        }
        if !has_pointer {
            return Ok(batch);
        }
        // Each touched family's reader cache, grabbed under a brief state
        // lock. Never taken while holding the change-log lock.
        let mut resolvers: BTreeMap<CfId, Arc<VlogReaderCache>> = BTreeMap::new();
        {
            let state = self.shared.core.state.lock();
            for record in batch.iter() {
                let record = record?;
                if record.value_type != ValueType::ValuePointer {
                    continue;
                }
                if let Some(cf) = state.cfs.get(&record.cf) {
                    resolvers
                        .entry(record.cf)
                        .or_insert_with(|| Arc::clone(&cf.vlog.readers));
                }
            }
        }
        let mut resolved = WriteBatch::new();
        for record in batch.iter() {
            let record = record?;
            match record.value_type {
                ValueType::Value => resolved.put_cf(record.cf, record.key, record.value),
                ValueType::Deletion => resolved.delete_cf(record.cf, record.key),
                ValueType::ValuePointer => {
                    let Some(resolver) = resolvers.get(&record.cf) else {
                        return Err(Error::sequence_truncated(record.sequence, record.sequence));
                    };
                    let pointer = ValuePointer::decode(record.value)?;
                    let value = resolver
                        .resolve(&pointer)
                        .map_err(|_| Error::sequence_truncated(record.sequence, record.sequence))?;
                    resolved.put_cf(record.cf, record.key, &value);
                }
            }
        }
        resolved.set_sequence(batch.sequence());
        Ok(resolved)
    }
}

impl<P: ShapePolicy> ChangeStream for EngineChangeStream<P> {
    fn next_event(&mut self, timeout: Duration) -> Result<Option<ChangeEvent>> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.core.shutting_down.load(Ordering::SeqCst) {
                return Err(Error::ShuttingDown);
            }
            // Drain an in-flight segment replay first.
            if self.replay.is_some() {
                let (number, next) = {
                    let (number, replay) = self.replay.as_mut().expect("checked above");
                    (*number, replay.next_batch()?)
                };
                match next {
                    Some(batch) => {
                        let last = batch.sequence() + u64::from(batch.count()).saturating_sub(1);
                        if last < self.next_seq {
                            // Delivered through an earlier segment (a batch
                            // range can straddle a rotation replayed twice)
                            // or a pre-sequenced relocation of old data.
                            continue;
                        }
                        return self.deliver(batch);
                    }
                    None => {
                        self.replayed_through = self.replayed_through.max(number);
                        self.replay = None;
                        continue;
                    }
                }
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            let wait = if wait.is_zero() { None } else { Some(wait) };
            let step = {
                let core = &self.shared.core;
                core.change_log
                    .read_tail(self.next_seq, &mut self.tail_pos, wait)
            };
            match step {
                TailRead::Batch(entry) => {
                    let batch = WriteBatch::from_contents(entry.contents.as_ref().clone())?;
                    return self.deliver(batch);
                }
                TailRead::Replay(segments) => {
                    let Some(&number) = segments.iter().find(|n| **n > self.replayed_through)
                    else {
                        // Every closed segment is replayed and the tail still
                        // starts later: the gap is the live segment's data,
                        // which never leaves the tail — so it simply has not
                        // committed yet. Report an idle tick.
                        return Ok(None);
                    };
                    let core = &self.shared.core;
                    let path = log_file_name(&core.io.db_path, number);
                    let file = match core.io.env.new_sequential_file(&path) {
                        Ok(file) => file,
                        // Reclaimed between the listing and the open (the
                        // retention cap outran this cursor).
                        Err(_) => {
                            return Err(Error::sequence_truncated(
                                self.next_seq,
                                core.change_log.truncated_floor(),
                            ))
                        }
                    };
                    self.replay = Some((number, SegmentReplay::new(file, self.next_seq)));
                }
                TailRead::Idle => return Ok(None),
                TailRead::Truncated { floor } => {
                    return Err(Error::sequence_truncated(self.next_seq, floor))
                }
            }
        }
    }

    fn cursor(&self) -> SequenceNumber {
        self.next_seq
    }

    fn backlog(&self) -> u64 {
        self.shared.core.change_log.backlog_after(self.tail_pos)
    }
}

impl<P: ShapePolicy> Drop for EngineChangeStream<P> {
    fn drop(&mut self) {
        self.shared.core.change_log.deregister(self.cursor_id);
    }
}
