//! The [`ShapePolicy`] trait: everything that differs between tree shapes.
//!
//! The chassis ([`crate::chassis`]) owns the write pipeline, the flush
//! thread, the compaction worker pool and the garbage collector; a policy
//! plugs in the level *organization* — how a version routes reads, how
//! compaction work is picked and committed, and which per-key observations
//! the write path must make (guard selection in the FLSM).

use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::{LookupKey, SequenceNumber};
use pebblesdb_common::vlog::LookupValue;
use pebblesdb_common::{ReadOptions, Result, StoreOptions};
use pebblesdb_env::Env;
use pebblesdb_sstable::TableCache;

use crate::meta::FileMetaData;
use crate::version::{ShapeVersion, VersionSet};

/// The IO handles one column family runs against, shared by the chassis and
/// its policy: the environment, the family's directory, the open options and
/// the family's table cache. Built once per family at open/create time; the
/// default family's directory is the database root. Cloning is cheap (two
/// `Arc`s, a path and the options) and is how background jobs carry their
/// IO handles outside the state mutex.
#[derive(Clone)]
pub struct EngineIo {
    /// The filesystem abstraction.
    pub env: Arc<dyn Env>,
    /// The database directory.
    pub db_path: std::path::PathBuf,
    /// The options the store was opened with.
    pub options: StoreOptions,
    /// Open sstable readers plus the shared block cache.
    pub table_cache: Arc<TableCache>,
}

/// The version type a policy's shape produces.
pub type VersionOf<P> = <P as ShapePolicy>::Version;

/// A claimed unit of compaction work, with the file numbers the chassis must
/// reserve: `input_numbers` keep other workers off the same inputs,
/// `output_numbers` keep the concurrent GC away from on-disk files no
/// version references yet.
pub struct JobClaim<J> {
    /// The policy-specific job description.
    pub job: J,
    /// File numbers of every input the job reads.
    pub input_numbers: Vec<u64>,
    /// Pre-allocated output file numbers.
    pub output_numbers: Vec<u64>,
}

/// Mutable access to the policy-relevant parts of the engine state, handed
/// to [`ShapePolicy::pick_job`] and [`ShapePolicy::commit_job`] under the
/// chassis state mutex.
pub struct PolicyCtx<'a, P: ShapePolicy> {
    /// The family's version set.
    pub versions: &'a mut VersionSet<VersionOf<P>>,
    /// The policy's own mutable state (uncommitted guards, compaction
    /// pointers, pending seek requests, ...).
    pub state: &'a mut P::State,
    /// Input file numbers of every in-flight compaction job. A new job's
    /// inputs must not intersect this set.
    pub claimed_inputs: &'a BTreeSet<u64>,
    /// Versions superseded at or below this sequence are invisible to every
    /// live snapshot and may be garbage-collected by a merge.
    pub smallest_snapshot: SequenceNumber,
}

/// The shape of one engine: how levels are organised, read and compacted.
///
/// The same chassis instance drives the FLSM (guards per level) and the
/// classic LSM (one implicit guard per level) purely through this trait.
pub trait ShapePolicy: Send + Sync + Sized + 'static {
    /// The immutable version snapshot this shape builds from MANIFEST edits.
    type Version: ShapeVersion;
    /// Per-store mutable policy state, kept inside the chassis state mutex.
    type State: Send + 'static;
    /// A fully described unit of compaction work.
    type Job: Send + 'static;

    /// Builds the shape from the store options; `EngineDb::open_with_options`
    /// and the sharded and follower stores open a store through it.
    fn new(options: &StoreOptions) -> Self;
    /// The engine name reported in benchmark output.
    fn engine_name(&self) -> String;
    /// Creates the initial policy state.
    fn new_state(&self) -> Self::State;

    // ------------------------------------------------------------ write path

    /// Called once per write batch before it commits (FLSM: resets the
    /// consecutive-seek counter, section 4.2 of the paper).
    fn note_write(&self) {}

    /// Inspects one inserted key during the *unlocked* group-commit apply;
    /// whatever it returns is handed to [`ShapePolicy::absorb_observations`]
    /// under the state lock after the apply (FLSM: guard selection, a pure
    /// hash of the key).
    fn observe_key(&self, key: &[u8]) -> Option<(usize, Vec<u8>)> {
        let _ = key;
        None
    }

    /// Registers the keys observed by [`ShapePolicy::observe_key`] (FLSM:
    /// uncommitted guards for their level and all deeper ones).
    fn absorb_observations(&self, state: &mut Self::State, observed: Vec<(usize, Vec<u8>)>) {
        let _ = (state, observed);
    }

    // ------------------------------------------------------------- read path

    /// Point lookup in the on-disk structure (memtables were already
    /// consulted by the chassis). Returns the stored form of the newest
    /// visible version — an inline value or an unresolved vlog pointer; the
    /// chassis resolves pointers outside the state lock.
    fn get_in_version(
        &self,
        io: &EngineIo,
        version: &VersionOf<Self>,
        opts: &ReadOptions,
        key: &LookupKey,
    ) -> Result<Option<LookupValue>>;

    /// Appends the version's level iterators (level-0 files plus one lazy
    /// iterator per deeper level) to a cursor's child list.
    fn append_version_iterators(
        &self,
        io: &EngineIo,
        version: &VersionOf<Self>,
        opts: &ReadOptions,
        children: &mut Vec<Box<dyn DbIterator>>,
    ) -> Result<()>;

    /// Called on every cursor creation. Returning `true` asks the chassis to
    /// call [`ShapePolicy::arm_requested_compaction`] under the state lock
    /// and wake the worker pool (FLSM: the consecutive-seek trigger).
    fn note_seek(&self) -> bool {
        false
    }

    /// Arms the compaction requested by [`ShapePolicy::note_seek`].
    fn arm_requested_compaction(&self, state: &mut Self::State) {
        let _ = state;
    }

    // ------------------------------------------------------------ compaction

    /// Returns `true` if `version` has pending compaction work (the shape's
    /// size triggers; seek requests live in the policy state).
    fn needs_compaction(&self, version: &VersionOf<Self>) -> bool;

    /// Claims the next unit of compaction work whose inputs do not intersect
    /// `ctx.claimed_inputs`, or `None` when nothing is claimable. The chassis
    /// registers the claim's input and output numbers before releasing the
    /// state lock.
    fn pick_job(&self, io: &EngineIo, ctx: &mut PolicyCtx<'_, Self>)
        -> Option<JobClaim<Self::Job>>;

    /// Runs the job's IO. Called **without** the state mutex held; must not
    /// touch shared engine state.
    fn run_job_io(&self, io: &EngineIo, job: &Self::Job) -> Result<Vec<FileMetaData>>;

    /// Commits a finished job under the state lock (build the version edit,
    /// `log_and_apply` it, update policy state). Returns
    /// `(bytes_read, bytes_written)` for the compaction counters.
    fn commit_job(
        &self,
        ctx: &mut PolicyCtx<'_, Self>,
        job: &Self::Job,
        outputs: Vec<FileMetaData>,
    ) -> Result<(u64, u64)>;
}
