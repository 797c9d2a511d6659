//! PebblesDB: the FLSM-based key-value store, as a [`ShapePolicy`].
//!
//! The write path (WAL + memtable + level-0 flush), recovery, flush thread,
//! compaction worker pool and garbage collection all live in the shared
//! engine chassis ([`pebblesdb_engine`]) — they match the HyperLevelDB-style
//! baseline because PebblesDB was built by modifying HyperLevelDB (section
//! 4.4 of the paper). Everything below level 0 is what this file supplies:
//! levels are organised by guards, compaction fragments data into child
//! guards instead of rewriting the next level, and reads use sstable-level
//! bloom filters, parallel seeks and seek-triggered compaction to claw back
//! the read performance the FLSM structure gives up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::LookupKey;
use pebblesdb_common::vlog::LookupValue;
use pebblesdb_common::{ReadOptions, Result, StoreOptions, StorePreset};
use pebblesdb_engine::{
    EngineDb, EngineIo, FileMetaData, JobClaim, PolicyCtx, ShapePolicy, ShapeVersion, VersionEdit,
};

use crate::compaction::{build_compaction_job, run_compaction_io, FlsmCompactionJob};
use crate::guards::{GuardPicker, UncommittedGuards};
use crate::version::{CompactionReason, FlsmVersion};

/// The guarded FLSM shape policy.
pub struct FlsmPolicy {
    options: StoreOptions,
    guard_picker: GuardPicker,
    /// Consecutive seeks since the last write (seek-triggered compaction).
    consecutive_seeks: AtomicUsize,
    label: &'static str,
}

/// Mutable policy state kept under the chassis state mutex.
pub struct FlsmPolicyState {
    /// Guards chosen by writers but not yet committed by a compaction.
    pub uncommitted_guards: UncommittedGuards,
    /// A seek-triggered compaction request is pending.
    pub seek_compaction_pending: bool,
}

impl FlsmPolicy {
    /// Picks the level whose guards hold the most overlapping sstables for a
    /// seek-triggered compaction, if any guard has at least two.
    fn pick_seek_compaction_level(version: &FlsmVersion) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        if version.level0.len() >= 2 {
            best = Some((0, version.level0.len()));
        }
        for (level_idx, level) in version.levels.iter().enumerate().skip(1) {
            let fanout = level.max_files_in_guard();
            if fanout >= 2 && best.map(|(_, b)| fanout > b).unwrap_or(true) {
                best = Some((level_idx, fanout));
            }
        }
        best.map(|(level, _)| level)
    }

    /// Every level of `version` that currently wants a compaction, in
    /// priority order (level 0 pressure, guard fanout, byte budgets,
    /// aggressive merging).
    ///
    /// The compaction pool walks this list so a worker whose preferred level
    /// is fully claimed by in-flight jobs can still pick up independent work
    /// at another level. Each level appears at most once, under its
    /// highest-priority reason.
    pub fn compaction_candidates(&self, version: &FlsmVersion) -> Vec<(usize, CompactionReason)> {
        let options = &self.options;
        let mut candidates = Vec::new();
        let mut seen = vec![false; version.num_levels()];
        let mut push = |level: usize, reason: CompactionReason| {
            if !seen[level] {
                seen[level] = true;
                candidates.push((level, reason));
            }
        };
        // Level 0 is governed by file count.
        if version.level0.len() >= options.level0_compaction_trigger {
            push(0, CompactionReason::Level0Files);
        }
        // A guard over its sstable budget forces a compaction of its level.
        // This includes the last level, which rewrites its guards in place
        // (the paper's "exception to the no-rewrite rule").
        for level in 1..version.num_levels() {
            if version.levels[level].max_files_in_guard() > options.max_sstables_per_guard {
                push(level, CompactionReason::GuardFanout);
            }
        }
        // Byte budgets.
        for level in 1..version.num_levels() - 1 {
            if version.level_bytes(level) > options.max_bytes_for_level(level) {
                push(level, CompactionReason::LevelBytes);
            }
        }
        // Aggressive compaction: level i close in size to level i+1.
        if options.enable_aggressive_compaction {
            for level in 1..version.num_levels() - 1 {
                let this = version.level_bytes(level);
                let next = version.level_bytes(level + 1);
                if this > 0
                    && next > 0
                    && (this as f64) >= options.aggressive_compaction_ratio * (next as f64)
                    && this >= options.max_bytes_for_level(level) / 2
                {
                    push(level, CompactionReason::Aggressive);
                }
            }
        }
        candidates
    }
}

impl ShapePolicy for FlsmPolicy {
    type Version = FlsmVersion;
    type State = FlsmPolicyState;
    type Job = FlsmCompactionJob;

    /// Labelled PebblesDB-1 when each guard may hold a single sstable.
    fn new(options: &StoreOptions) -> FlsmPolicy {
        let label = if options.max_sstables_per_guard == 1 {
            StorePreset::PebblesDb1.name()
        } else {
            StorePreset::PebblesDb.name()
        };
        FlsmPolicy {
            guard_picker: GuardPicker::new(options),
            options: options.clone(),
            consecutive_seeks: AtomicUsize::new(0),
            label,
        }
    }

    fn engine_name(&self) -> String {
        self.label.to_string()
    }

    fn new_state(&self) -> FlsmPolicyState {
        FlsmPolicyState {
            uncommitted_guards: UncommittedGuards::new(self.options.max_levels),
            seek_compaction_pending: false,
        }
    }

    // ------------------------------------------------------------ write path

    /// Writes reset the consecutive-seek counter (section 4.2: seek-based
    /// compaction targets read-only phases).
    fn note_write(&self) {
        self.consecutive_seeks.store(0, Ordering::Relaxed);
    }

    /// Guard selection: a pure hash of the key, safe to run in the unlocked
    /// group-commit apply. Selected keys become uncommitted guards for their
    /// level and all deeper ones once absorbed under the lock.
    fn observe_key(&self, key: &[u8]) -> Option<(usize, Vec<u8>)> {
        self.guard_picker
            .guard_level(key)
            .map(|level| (level, key.to_vec()))
    }

    fn absorb_observations(&self, state: &mut FlsmPolicyState, observed: Vec<(usize, Vec<u8>)>) {
        for (level, key) in observed {
            state.uncommitted_guards.add(level, &key);
        }
    }

    // ------------------------------------------------------------- read path

    fn get_in_version(
        &self,
        io: &EngineIo,
        version: &FlsmVersion,
        opts: &ReadOptions,
        key: &LookupKey,
    ) -> Result<Option<LookupValue>> {
        version.get(opts, key, &io.table_cache)
    }

    /// Level 0 contributes one iterator per file; each deeper level
    /// contributes a single lazy [`GuardLevelIterator`](crate::iter::GuardLevelIterator)
    /// that merges the sstables of whichever guard the cursor is in,
    /// positioning the deepest non-empty level's guard with a thread pool on
    /// `seek` — the paper's "parallel seeks" optimisation.
    fn append_version_iterators(
        &self,
        io: &EngineIo,
        version: &FlsmVersion,
        opts: &ReadOptions,
        children: &mut Vec<Box<dyn DbIterator>>,
    ) -> Result<()> {
        for file in &version.level0 {
            children.push(Box::new(io.table_cache.iter(
                opts,
                file.number,
                file.file_size,
            )?));
        }

        // Parallel guard seeks pay on the deepest non-empty level, whose
        // sstables are the least likely to be cached.
        let deepest_nonempty = version
            .levels
            .iter()
            .enumerate()
            .skip(1)
            .rev()
            .find(|(_, l)| l.num_files() > 0)
            .map(|(idx, _)| idx);
        for (level_idx, level) in version.levels.iter().enumerate().skip(1) {
            if level.num_files() == 0 {
                continue;
            }
            let parallel_threads =
                if self.options.enable_parallel_seeks && Some(level_idx) == deepest_nonempty {
                    self.options.parallel_seek_threads
                } else {
                    1
                };
            children.push(Box::new(
                crate::iter::GuardLevelIterator::new(
                    Arc::clone(&io.table_cache),
                    opts.clone(),
                    level.guards.clone(),
                )
                .with_parallel_seeks(parallel_threads),
            ));
        }
        Ok(())
    }

    /// Counts a seek; the threshold of consecutive seeks arms a
    /// seek-triggered compaction via `arm_requested_compaction`.
    fn note_seek(&self) -> bool {
        if !self.options.enable_seek_compaction {
            return false;
        }
        let seeks = self.consecutive_seeks.fetch_add(1, Ordering::Relaxed) + 1;
        if seeks >= self.options.seek_compaction_threshold {
            self.consecutive_seeks.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn arm_requested_compaction(&self, state: &mut FlsmPolicyState) {
        state.seek_compaction_pending = true;
    }

    // ------------------------------------------------------------ compaction

    fn needs_compaction(&self, version: &FlsmVersion) -> bool {
        !self.compaction_candidates(version).is_empty()
    }

    /// Claims the highest-priority job whose inputs do not intersect any
    /// in-flight job's inputs: a disjoint guard-component subset of a level.
    ///
    /// `seek_compaction_pending` is cleared only when a seek-triggered job
    /// is actually scheduled (or provably never will be): a size-triggered
    /// job claiming the same wakeup must not swallow the request.
    fn pick_job(
        &self,
        _io: &EngineIo,
        ctx: &mut PolicyCtx<'_, Self>,
    ) -> Option<JobClaim<FlsmCompactionJob>> {
        let split = self.options.compaction_threads.max(1);
        let version = ctx.versions.current();

        let mut candidates = self.compaction_candidates(&version);
        if ctx.state.seek_compaction_pending {
            match Self::pick_seek_compaction_level(&version) {
                // Seek compactions yield to size triggers; the flag stays
                // set until the seek job itself is claimed.
                Some(level) => candidates.push((level, CompactionReason::SeekTriggered)),
                // No guard holds two sstables anywhere: the request can
                // never be satisfied, so drop it instead of spinning.
                None => ctx.state.seek_compaction_pending = false,
            }
        }

        for (level, reason) in candidates {
            let output_level = if level + 1 < self.options.max_levels {
                level + 1
            } else {
                level
            };
            let pending_guards: Vec<Vec<u8>> = ctx
                .state
                .uncommitted_guards
                .for_level(output_level)
                .iter()
                .cloned()
                .collect();
            let job = {
                let versions = &mut *ctx.versions;
                build_compaction_job(
                    &version,
                    &self.options,
                    level,
                    reason,
                    pending_guards,
                    ctx.smallest_snapshot,
                    ctx.claimed_inputs,
                    split,
                    || versions.new_file_number(),
                )
            };
            if let Some(job) = job {
                if job.reason == CompactionReason::SeekTriggered {
                    ctx.state.seek_compaction_pending = false;
                }
                return Some(JobClaim {
                    input_numbers: job.inputs.iter().map(|f| f.number).collect(),
                    output_numbers: job.output_numbers.clone(),
                    job,
                });
            }
        }
        None
    }

    fn run_job_io(&self, io: &EngineIo, job: &FlsmCompactionJob) -> Result<Vec<FileMetaData>> {
        run_compaction_io(
            io.env.as_ref(),
            &io.db_path,
            &io.options,
            &io.table_cache,
            job,
        )
    }

    fn commit_job(
        &self,
        ctx: &mut PolicyCtx<'_, Self>,
        job: &FlsmCompactionJob,
        outputs: Vec<FileMetaData>,
    ) -> Result<(u64, u64)> {
        let mut edit = VersionEdit::default();
        for file in &job.inputs {
            edit.delete_file(job.level, file.number);
        }
        let mut bytes_written = 0;
        for meta in &outputs {
            bytes_written += meta.file_size;
            edit.add_file(job.output_level, meta);
        }
        for key in &job.guards_to_commit {
            edit.new_guards.push((job.output_level, key.clone()));
        }
        ctx.versions.log_and_apply(edit)?;
        // Only the keys this job actually committed leave the pending set;
        // guards picked by writers during the IO stay pending for the next
        // compaction into the level.
        ctx.state
            .uncommitted_guards
            .remove_committed(job.output_level, &job.guards_to_commit);
        Ok((job.input_bytes, bytes_written))
    }
}

/// A handle to an open PebblesDB database: the shared engine chassis
/// ([`EngineDb`]) shaped by the guarded-FLSM policy. The LSM baseline is the
/// same chassis with a one-implicit-guard-per-level policy.
pub type PebblesDb = EngineDb<FlsmPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{encode_internal_key, ValueType};
    use pebblesdb_engine::{EngineCore, FileMetaDataEdit};
    use pebblesdb_env::{Env, MemEnv};
    use std::collections::BTreeSet;
    use std::path::Path;

    fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: encode_internal_key(smallest.as_bytes(), 9, ValueType::Value),
            largest: encode_internal_key(largest.as_bytes(), 1, ValueType::Value),
        }
    }

    type FlsmState<'a> = parking_lot::MutexGuard<'a, pebblesdb_engine::EngineState<FlsmPolicy>>;

    /// Fabricates `files` into the locked store's version so claim logic
    /// can be exercised without running real IO. The caller must hold the
    /// state lock across this call *and* its subsequent claim assertions:
    /// the store's own workers claim eagerly on wakeup, and releasing the
    /// lock between fabrication and the test's claim would let a worker
    /// race it to the job.
    fn fabricate_files(state: &mut FlsmState<'_>, files: &[(usize, &str, &str)]) {
        let cf = state.default_cf_mut();
        let mut edit = VersionEdit::default();
        for (level, smallest, largest) in files {
            let number = cf.versions.new_file_number();
            edit.new_files
                .push((*level, file_edit(number, smallest, largest)));
        }
        cf.versions.log_and_apply(edit).unwrap();
    }

    fn open_empty(options: StoreOptions) -> PebblesDb {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        PebblesDb::open_with_options(env, Path::new("/claim-test"), options).unwrap()
    }

    /// Regression test: a size-triggered compaction that preempts a pending
    /// seek request must not clear `seek_compaction_pending` — the flag only
    /// falls when the seek-triggered job itself is scheduled.
    #[test]
    fn seek_flag_survives_a_preempting_size_compaction() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 2;
        let db = open_empty(options);
        let inner: &Arc<EngineCore<FlsmPolicy>> = db.core();
        let mut state = inner.state.lock();
        // Two level-0 files arm the size trigger.
        fabricate_files(&mut state, &[(0, "a", "c"), (0, "b", "d")]);
        state.default_cf_mut().policy.seek_compaction_pending = true;

        let claimed = inner
            .claim_job(&mut state)
            .expect("the level-0 size trigger yields a job");
        assert_eq!(claimed.claim.job.reason, CompactionReason::Level0Files);
        assert!(
            state.default_cf().policy.seek_compaction_pending,
            "seek request was swallowed by the preempting size-triggered job"
        );
        drop(state);
    }

    /// The flag falls exactly when a seek-triggered job is claimed.
    #[test]
    fn seek_flag_clears_when_the_seek_job_is_scheduled() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100; // no size triggers
        options.enable_aggressive_compaction = false;
        let db = open_empty(options);
        let inner = db.core();
        let mut state = inner.state.lock();
        // A level-1 guard with two overlapping sstables: under every size
        // budget, but exactly what a seek-triggered compaction wants.
        fabricate_files(&mut state, &[(1, "a", "c"), (1, "b", "d")]);
        state.default_cf_mut().policy.seek_compaction_pending = true;

        let claimed = inner
            .claim_job(&mut state)
            .expect("the seek request yields a job");
        assert_eq!(claimed.claim.job.reason, CompactionReason::SeekTriggered);
        assert!(!state.default_cf().policy.seek_compaction_pending);
        drop(state);
    }

    /// An unsatisfiable seek request (no guard holds two sstables) is
    /// dropped instead of waking workers forever.
    #[test]
    fn unsatisfiable_seek_flag_is_dropped() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.enable_aggressive_compaction = false;
        let db = open_empty(options);
        let inner = db.core();
        let mut state = inner.state.lock();
        fabricate_files(&mut state, &[(1, "a", "c")]);
        state.default_cf_mut().policy.seek_compaction_pending = true;

        assert!(inner.claim_job(&mut state).is_none());
        assert!(!state.default_cf().policy.seek_compaction_pending);
        drop(state);
    }

    /// Claims at the same level are disjoint, and the counters see the
    /// overlap.
    #[test]
    fn two_workers_claim_disjoint_guard_subsets() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.enable_aggressive_compaction = false;
        options.max_sstables_per_guard = 1;
        options.compaction_threads = 2;
        let db = open_empty(options);
        let inner = db.core();
        let mut state = inner.state.lock();
        // Two over-budget "guards": the sentinel guard of level 1 would hold
        // all four files, so use disjoint key ranges at levels 1 and 2 to
        // model independent work.
        fabricate_files(
            &mut state,
            &[(1, "a", "b"), (1, "c", "d"), (2, "p", "q"), (2, "r", "s")],
        );

        let claim1 = inner.claim_job(&mut state).expect("first claim");
        let claim2 = inner.claim_job(&mut state).expect("second claim");
        let set1: BTreeSet<u64> = claim1.claim.job.inputs.iter().map(|f| f.number).collect();
        let set2: BTreeSet<u64> = claim2.claim.job.inputs.iter().map(|f| f.number).collect();
        assert!(set1.is_disjoint(&set2));
        assert_eq!(state.active_compactions, 2);
        assert_eq!(state.default_cf().active_jobs, 2);
        assert_eq!(
            pebblesdb_common::counters::EngineCounters::load(
                &inner.counters.max_concurrent_compactions
            ),
            2
        );
        // Outputs of both uncommitted jobs are protected from the GC.
        for number in claim1
            .claim
            .output_numbers
            .iter()
            .chain(&claim2.claim.output_numbers)
        {
            assert!(state.default_cf().pending_outputs.contains(number));
        }
        drop(state);
    }
}
