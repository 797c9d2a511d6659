//! The baseline leveled-compaction key-value store, as a [`ShapePolicy`].
//!
//! This engine follows the classic LevelDB design the paper describes in
//! chapter 2: writes go to a WAL and a memtable, memtables flush to level-0
//! sstables, and compaction merges a level's files with *every overlapping
//! file in the next level* and rewrites them. That rewrite is precisely the
//! write-amplification source FLSM removes, so this engine doubles as the
//! LevelDB/HyperLevelDB/RocksDB comparison point in the benchmark harness.
//!
//! Structurally, the LSM is the *degenerate* FLSM: every level has exactly
//! one implicit guard (section 3 of the paper). The shared engine chassis
//! ([`pebblesdb_engine`]) therefore owns the whole write path, recovery,
//! flush thread, worker pool and GC; this file contains only the
//! leveled-compaction policy — how jobs are picked, merged and committed,
//! and how reads route through the sorted runs.

use std::sync::Arc;

use pebblesdb_common::iterator::{DbIterator, MergingIterator};
use pebblesdb_common::key::{
    compare_internal_keys, parse_internal_key, InternalKey, LookupKey, SequenceNumber, ValueType,
    MAX_SEQUENCE_NUMBER,
};
use pebblesdb_common::vlog::LookupValue;
use pebblesdb_common::{Error, ReadOptions, Result, StoreOptions, StorePreset};
use pebblesdb_engine::{
    EngineDb, EngineIo, FileMetaData, JobClaim, PolicyCtx, ShapePolicy, ShapeVersion, VersionEdit,
};
use pebblesdb_sstable::TableBuilder;

use crate::version::Version;

/// The leveled-compaction shape: one implicit guard per level.
pub struct LsmPolicy {
    options: StoreOptions,
    preset: StorePreset,
}

/// Mutable policy state: the per-level compaction pointer that rotates
/// through a level's key space across compactions.
pub struct LsmPolicyState {
    /// `compact_pointer[level]` is the largest internal key compacted so far.
    pub compact_pointer: Vec<Vec<u8>>,
}

/// Work selected for a background compaction pass.
pub struct LsmCompactionJob {
    level: usize,
    inputs: Vec<Arc<FileMetaData>>,
    next_level_inputs: Vec<Arc<FileMetaData>>,
    drop_tombstones: bool,
    output_numbers: Vec<u64>,
    /// Versions superseded at or below this sequence are invisible to every
    /// live snapshot and may be garbage-collected by the merge.
    smallest_snapshot: SequenceNumber,
}

impl LsmCompactionJob {
    /// A single input with nothing to merge below just moves down a level.
    fn is_trivial_move(&self) -> bool {
        self.level > 0 && self.inputs.len() == 1 && self.next_level_inputs.is_empty()
    }
}

impl ShapePolicy for LsmPolicy {
    type Version = Version;
    type State = LsmPolicyState;
    type Job = LsmCompactionJob;

    /// Labelled with the HyperLevelDB preset; see [`LsmPolicy::with_preset`]
    /// for the other baselines.
    fn new(options: &StoreOptions) -> LsmPolicy {
        LsmPolicy::with_preset(options, StorePreset::HyperLevelDb)
    }

    fn engine_name(&self) -> String {
        self.preset.name().to_string()
    }

    fn new_state(&self) -> LsmPolicyState {
        LsmPolicyState {
            compact_pointer: vec![Vec::new(); self.options.max_levels],
        }
    }

    // ------------------------------------------------------------- read path

    fn get_in_version(
        &self,
        io: &EngineIo,
        version: &Version,
        opts: &ReadOptions,
        key: &LookupKey,
    ) -> Result<Option<LookupValue>> {
        version.get(opts, key, &io.table_cache)
    }

    fn append_version_iterators(
        &self,
        io: &EngineIo,
        version: &Version,
        opts: &ReadOptions,
        children: &mut Vec<Box<dyn DbIterator>>,
    ) -> Result<()> {
        for file in &version.files[0] {
            children.push(Box::new(io.table_cache.iter(
                opts,
                file.number,
                file.file_size,
            )?));
        }
        // Deeper levels hold disjoint files: one lazy concatenating iterator
        // per level opens only the files the cursor actually reaches.
        for level in 1..version.num_levels() {
            if version.files[level].is_empty() {
                continue;
            }
            children.push(Box::new(crate::iter::LevelConcatIterator::new(
                Arc::clone(&io.table_cache),
                opts.clone(),
                version.files[level].clone(),
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------ compaction

    fn needs_compaction(&self, version: &Version) -> bool {
        self.pick_compaction_level(version).is_some()
    }

    /// Classic leveled compaction rewrites every overlapping next-level
    /// range, so jobs cannot be carved into disjoint units the way guards
    /// allow: a job is claimable only when no other job is in flight, which
    /// keeps the engine correct under any chassis worker-pool size.
    fn pick_job(
        &self,
        _io: &EngineIo,
        ctx: &mut PolicyCtx<'_, Self>,
    ) -> Option<JobClaim<LsmCompactionJob>> {
        if !ctx.claimed_inputs.is_empty() {
            return None;
        }
        let (level, _score) = self.pick_compaction_level(ctx.versions.current_unpinned())?;
        let version = ctx.versions.current();

        let inputs: Vec<Arc<FileMetaData>> = if level == 0 {
            // Compact the whole of level 0 in one go (HyperLevelDB-style
            // batched level-0 compaction).
            version.files[0].clone()
        } else {
            // Rotate through the level using the compaction pointer.
            let files = &version.files[level];
            let pointer = &ctx.state.compact_pointer[level];
            let chosen = files
                .iter()
                .find(|f| {
                    pointer.is_empty()
                        || compare_internal_keys(f.largest.encoded(), pointer)
                            == std::cmp::Ordering::Greater
                })
                .or_else(|| files.first())?;
            vec![Arc::clone(chosen)]
        };
        if inputs.is_empty() {
            return None;
        }

        let smallest_user = inputs
            .iter()
            .map(|f| f.smallest.user_key().to_vec())
            .min()
            .unwrap_or_default();
        let largest_user = inputs
            .iter()
            .map(|f| f.largest.user_key().to_vec())
            .max()
            .unwrap_or_default();
        let next_level_inputs =
            version.overlapping_inputs(level + 1, Some(&smallest_user), Some(&largest_user));

        // Tombstones can be dropped when no deeper level holds the key range.
        let mut drop_tombstones = true;
        for deeper in (level + 2)..version.num_levels() {
            if !version
                .overlapping_inputs(deeper, Some(&smallest_user), Some(&largest_user))
                .is_empty()
            {
                drop_tombstones = false;
                break;
            }
        }

        let total_input_bytes: u64 = inputs
            .iter()
            .chain(next_level_inputs.iter())
            .map(|f| f.file_size)
            .sum();
        let estimated_outputs =
            (total_input_bytes / self.options.max_file_size.max(1) as u64 + 2) as usize;
        let output_numbers: Vec<u64> = (0..estimated_outputs)
            .map(|_| ctx.versions.new_file_number())
            .collect();

        let input_numbers = inputs
            .iter()
            .chain(next_level_inputs.iter())
            .map(|f| f.number)
            .collect();
        Some(JobClaim {
            input_numbers,
            output_numbers: output_numbers.clone(),
            job: LsmCompactionJob {
                level,
                inputs,
                next_level_inputs,
                drop_tombstones,
                output_numbers,
                smallest_snapshot: ctx.smallest_snapshot,
            },
        })
    }

    fn run_job_io(&self, io: &EngineIo, job: &LsmCompactionJob) -> Result<Vec<FileMetaData>> {
        if job.is_trivial_move() {
            return Ok(Vec::new());
        }
        self.compaction_io(io, job)
    }

    fn commit_job(
        &self,
        ctx: &mut PolicyCtx<'_, Self>,
        job: &LsmCompactionJob,
        outputs: Vec<FileMetaData>,
    ) -> Result<(u64, u64)> {
        if job.is_trivial_move() {
            let file = &job.inputs[0];
            let mut edit = VersionEdit::default();
            edit.delete_file(job.level, file.number);
            edit.add_file(job.level + 1, file);
            ctx.state.compact_pointer[job.level] = file.largest.encoded().to_vec();
            ctx.versions.log_and_apply(edit)?;
            return Ok((0, 0));
        }

        let bytes_read: u64 = job
            .inputs
            .iter()
            .chain(job.next_level_inputs.iter())
            .map(|f| f.file_size)
            .sum();
        let mut edit = VersionEdit::default();
        for file in &job.inputs {
            edit.delete_file(job.level, file.number);
        }
        for file in &job.next_level_inputs {
            edit.delete_file(job.level + 1, file.number);
        }
        let mut bytes_written = 0;
        for meta in &outputs {
            bytes_written += meta.file_size;
            edit.add_file(job.level + 1, meta);
        }
        if let Some(last_input) = job.inputs.last() {
            ctx.state.compact_pointer[job.level] = last_input.largest.encoded().to_vec();
        }
        ctx.versions.log_and_apply(edit)?;
        Ok((bytes_read, bytes_written))
    }
}

impl LsmPolicy {
    /// Builds the leveled shape from `options`, labelled with `preset` for
    /// benchmark output and background-thread names.
    pub fn with_preset(options: &StoreOptions, preset: StorePreset) -> LsmPolicy {
        LsmPolicy {
            options: options.clone(),
            preset,
        }
    }

    /// Returns the level with the highest compaction score, if any level is
    /// over budget. Level 0 is scored by file count, deeper levels by bytes.
    pub fn pick_compaction_level(&self, version: &Version) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for level in 0..version.num_levels() - 1 {
            let score = if level == 0 {
                version.files[0].len() as f64 / self.options.level0_compaction_trigger as f64
            } else {
                version.level_bytes(level) as f64 / self.options.max_bytes_for_level(level) as f64
            };
            if score >= 1.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((level, score));
            }
        }
        best
    }

    /// The IO part of a compaction: merge the inputs and write output tables.
    fn compaction_io(&self, io: &EngineIo, job: &LsmCompactionJob) -> Result<Vec<FileMetaData>> {
        let read_options = ReadOptions::default();
        let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
        for file in job.inputs.iter().chain(job.next_level_inputs.iter()) {
            children.push(Box::new(io.table_cache.iter(
                &read_options,
                file.number,
                file.file_size,
            )?));
        }
        let mut merged = MergingIterator::new(children);
        merged.seek_to_first();

        let mut outputs: Vec<FileMetaData> = Vec::new();
        let mut builder: Option<(u64, TableBuilder)> = None;
        let mut output_index = 0usize;
        let mut last_user_key: Option<Vec<u8>> = None;
        let mut last_sequence_for_key = MAX_SEQUENCE_NUMBER;

        while merged.valid() {
            let key = merged.key().to_vec();
            let parsed = parse_internal_key(&key)
                .ok_or_else(|| Error::corruption("malformed key during compaction"))?;

            let is_same_user_key = last_user_key
                .as_deref()
                .map(|last| last == parsed.user_key)
                .unwrap_or(false);
            if !is_same_user_key {
                last_user_key = Some(parsed.user_key.to_vec());
                last_sequence_for_key = MAX_SEQUENCE_NUMBER;
            }

            // A version may be dropped once a newer version of the same key
            // is visible to every live snapshot; tombstones additionally
            // need no deeper level still holding the key.
            let drop_entry = last_sequence_for_key <= job.smallest_snapshot
                || (job.drop_tombstones
                    && parsed.value_type == ValueType::Deletion
                    && parsed.sequence <= job.smallest_snapshot);
            last_sequence_for_key = parsed.sequence;
            if !drop_entry {
                if builder.is_none() {
                    let number = *job
                        .output_numbers
                        .get(output_index)
                        .ok_or_else(|| Error::internal("ran out of output file numbers"))?;
                    output_index += 1;
                    let path = pebblesdb_common::filename::table_file_name(&io.db_path, number);
                    let file = io.env.new_writable_file(&path)?;
                    // Outputs of a level-N compaction land in level N+1, so
                    // the deeper level's compression tier applies.
                    builder = Some((
                        number,
                        TableBuilder::new_for_level(&self.options, file, job.level + 1),
                    ));
                }
                let (_, b) = builder.as_mut().expect("builder exists");
                b.add(&key, merged.value())?;
                if b.file_size() >= self.options.max_file_size as u64 {
                    let (number, b) = builder.take().expect("builder exists");
                    outputs.push(finish_output(number, b)?);
                }
            }
            merged.next();
        }
        if let Some((number, b)) = builder.take() {
            if b.num_entries() > 0 {
                outputs.push(finish_output(number, b)?);
            } else {
                b.abandon()?;
            }
        }
        Ok(outputs)
    }
}

fn finish_output(number: u64, builder: TableBuilder) -> Result<FileMetaData> {
    let smallest = builder.first_key().map(|k| k.to_vec()).unwrap_or_default();
    let largest = builder.last_key().map(|k| k.to_vec()).unwrap_or_default();
    let size = builder.finish()?;
    Ok(FileMetaData::new(
        number,
        size,
        InternalKey::from_encoded(smallest),
        InternalKey::from_encoded(largest),
    ))
}

/// A handle to an open baseline LSM database: the shared engine chassis
/// ([`EngineDb`]) shaped by the leveled-compaction policy. Open a LevelDB or
/// RocksDB-labelled store with `LsmDb::open(LsmPolicy::with_preset(..), ..)`.
pub type LsmDb = EngineDb<LsmPolicy>;
