//! The MANIFEST layer, written once for every tree shape.
//!
//! This is LevelDB's descriptor scheme, which PebblesDB keeps unchanged: a
//! [`VersionEdit`] describes one change to the file set, is appended to the
//! MANIFEST log, and replaying the log through a shape's builder reproduces
//! the current version. The FLSM adds exactly one record type — guard keys
//! stored next to the sstable metadata (section 4.3.1 of the paper) — which
//! a classic LSM never writes and refuses to read.
//!
//! [`VersionSet`] owns everything the shapes share: the current version and
//! version pinning, file-number allocation, and the MANIFEST/`CURRENT`
//! files. A shape's version type ([`ShapeVersion`]) supplies only how it is
//! built from edits, the guard keys its snapshot records, its per-level file
//! lists and an optional invariant check.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::{Arc, Weak};

use pebblesdb_common::coding::{put_length_prefixed_slice, put_varint32, put_varint64, Decoder};
use pebblesdb_common::filename::{current_file_name, descriptor_file_name};
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::{Error, Result};
use pebblesdb_env::Env;
use pebblesdb_wal::{LogReader, LogWriter};

use crate::meta::{FileMetaData, FileMetaDataEdit};

/// A record of changes to the file set, persisted in the MANIFEST.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VersionEdit {
    /// New write-ahead log number (older logs are no longer needed).
    pub log_number: Option<u64>,
    /// Next file number to allocate.
    pub next_file_number: Option<u64>,
    /// Last sequence number.
    pub last_sequence: Option<SequenceNumber>,
    /// Files removed: `(level, file number)`.
    pub deleted_files: Vec<(usize, u64)>,
    /// Files added: `(level, metadata)`.
    pub new_files: Vec<(usize, FileMetaDataEdit)>,
    /// FLSM only: guard keys committed at a level (they also apply to every
    /// deeper level, which the builder re-derives). An LSM never writes them.
    pub new_guards: Vec<(usize, Vec<u8>)>,
}

const TAG_LOG_NUMBER: u32 = 1;
const TAG_NEXT_FILE_NUMBER: u32 = 2;
const TAG_LAST_SEQUENCE: u32 = 3;
const TAG_DELETED_FILE: u32 = 4;
const TAG_NEW_FILE: u32 = 5;
const TAG_NEW_GUARD: u32 = 7;

impl VersionEdit {
    /// Serialises the edit for the MANIFEST log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint32(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint32(&mut out, TAG_NEXT_FILE_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint32(&mut out, TAG_LAST_SEQUENCE);
            put_varint64(&mut out, v);
        }
        for (level, number) in &self.deleted_files {
            put_varint32(&mut out, TAG_DELETED_FILE);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, *number);
        }
        for (level, file) in &self.new_files {
            put_varint32(&mut out, TAG_NEW_FILE);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, file.number);
            put_varint64(&mut out, file.file_size);
            put_length_prefixed_slice(&mut out, &file.smallest);
            put_length_prefixed_slice(&mut out, &file.largest);
        }
        for (level, key) in &self.new_guards {
            put_varint32(&mut out, TAG_NEW_GUARD);
            put_varint32(&mut out, *level as u32);
            put_length_prefixed_slice(&mut out, key);
        }
        out
    }

    /// Decodes an edit from a MANIFEST record.
    pub fn decode(data: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let mut dec = Decoder::new(data);
        while !dec.is_empty() {
            match dec.read_varint32()? {
                TAG_LOG_NUMBER => edit.log_number = Some(dec.read_varint64()?),
                TAG_NEXT_FILE_NUMBER => edit.next_file_number = Some(dec.read_varint64()?),
                TAG_LAST_SEQUENCE => edit.last_sequence = Some(dec.read_varint64()?),
                TAG_DELETED_FILE => {
                    let level = dec.read_varint32()? as usize;
                    let number = dec.read_varint64()?;
                    edit.deleted_files.push((level, number));
                }
                TAG_NEW_FILE => {
                    let level = dec.read_varint32()? as usize;
                    let number = dec.read_varint64()?;
                    let file_size = dec.read_varint64()?;
                    let smallest = dec.read_length_prefixed_slice()?.to_vec();
                    let largest = dec.read_length_prefixed_slice()?.to_vec();
                    edit.new_files.push((
                        level,
                        FileMetaDataEdit {
                            number,
                            file_size,
                            smallest,
                            largest,
                        },
                    ));
                }
                TAG_NEW_GUARD => {
                    let level = dec.read_varint32()? as usize;
                    let key = dec.read_length_prefixed_slice()?.to_vec();
                    edit.new_guards.push((level, key));
                }
                other => {
                    return Err(Error::corruption(format!(
                        "unknown version edit tag {other}"
                    )))
                }
            }
        }
        Ok(edit)
    }

    /// Records a new file.
    pub fn add_file(&mut self, level: usize, file: &FileMetaData) {
        self.new_files.push((level, FileMetaDataEdit::from(file)));
    }

    /// Records a deleted file.
    pub fn delete_file(&mut self, level: usize, number: u64) {
        self.deleted_files.push((level, number));
    }
}

/// Replays edits into a shape's version.
pub trait VersionBuilder: Sized {
    /// The version this builder produces.
    type Version;
    /// Starts from an empty version with `max_levels` levels.
    fn new(max_levels: usize) -> Self;
    /// Starts from an existing version (files are shared via `Arc`).
    fn from_version(base: &Self::Version) -> Self;
    /// Applies one edit. Fails with `Corruption` on records the shape cannot
    /// represent.
    fn apply(&mut self, edit: &VersionEdit) -> Result<()>;
    /// Produces the resulting version.
    fn finish(self) -> Self::Version;
}

/// An immutable snapshot of one tree shape's file layout: what the shared
/// [`VersionSet`] and the chassis need from it.
pub trait ShapeVersion: Send + Sync + Sized + 'static {
    /// Rebuilds this version type from MANIFEST edits.
    type Builder: VersionBuilder<Version = Self>;

    /// Number of levels, level 0 included.
    fn num_levels(&self) -> usize;
    /// The distinct files at `level`. A file attached to several guards
    /// appears once.
    fn level_files(&self, level: usize) -> Cow<'_, [Arc<FileMetaData>]>;
    /// Human-readable per-level summary.
    fn level_summary(&self) -> String;
    /// Number of guards (sentinel included) at each level; empty for a shape
    /// without explicit guards.
    fn guards_per_level(&self) -> Vec<usize> {
        Vec::new()
    }
    /// Total number of guards that hold no sstables.
    fn empty_guards(&self) -> usize {
        0
    }
    /// Guard keys a full-snapshot MANIFEST records, as `(level, key)`.
    fn snapshot_guards(&self) -> Vec<(usize, Vec<u8>)> {
        Vec::new()
    }
    /// Structural invariants every commit must preserve; checked after each
    /// commit in debug builds. Returns the first violation found.
    fn validate(&self) -> std::result::Result<(), String> {
        Ok(())
    }

    /// Number of level-0 files (drives write back-pressure).
    fn level0_len(&self) -> usize {
        self.level_files(0).len()
    }
    /// Total bytes at `level`.
    fn level_bytes(&self, level: usize) -> u64 {
        self.level_files(level).iter().map(|f| f.file_size).sum()
    }
    /// Total bytes across all live files.
    fn total_bytes(&self) -> u64 {
        (0..self.num_levels()).map(|l| self.level_bytes(l)).sum()
    }
    /// Total number of live files.
    fn num_files(&self) -> usize {
        (0..self.num_levels())
            .map(|l| self.level_files(l).len())
            .sum()
    }
    /// Sizes of every live file (Table 5.1 of the paper).
    fn file_sizes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        for level in 0..self.num_levels() {
            sizes.extend(self.level_files(level).iter().map(|f| f.file_size));
        }
        sizes
    }
    /// All file numbers referenced by this version.
    fn live_file_numbers(&self) -> Vec<u64> {
        let mut numbers = Vec::new();
        for level in 0..self.num_levels() {
            numbers.extend(self.level_files(level).iter().map(|f| f.number));
        }
        numbers
    }
}

/// Owns the current version, the MANIFEST log and file-number allocation.
pub struct VersionSet<V> {
    env: Arc<dyn Env>,
    db_path: PathBuf,
    max_levels: usize,
    current: Arc<V>,
    live_versions: Vec<Weak<V>>,
    manifest: Option<LogWriter>,
    manifest_number: u64,
    next_file_number: u64,
    /// Sequence number of the most recent committed write.
    pub last_sequence: SequenceNumber,
    /// Write-ahead log number whose contents are reflected in `current`.
    pub log_number: u64,
}

impl<V: ShapeVersion> VersionSet<V> {
    /// Creates a version set for the database directory `db_path`.
    pub fn new(env: Arc<dyn Env>, db_path: PathBuf, max_levels: usize) -> Self {
        VersionSet {
            env,
            db_path,
            max_levels,
            current: Arc::new(V::Builder::new(max_levels).finish()),
            live_versions: Vec::new(),
            manifest: None,
            manifest_number: 1,
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
        }
    }

    /// The current version, pinned against file deletion for as long as the
    /// returned `Arc` lives.
    pub fn current(&mut self) -> Arc<V> {
        let version = Arc::clone(&self.current);
        self.live_versions.push(Arc::downgrade(&version));
        version
    }

    /// A read-only peek at the current version without registering a pin.
    pub fn current_unpinned(&self) -> &Arc<V> {
        &self.current
    }

    /// Allocates a new file number.
    pub fn new_file_number(&mut self) -> u64 {
        let number = self.next_file_number;
        self.next_file_number += 1;
        number
    }

    /// The number the next allocation will return.
    pub fn next_file_number(&self) -> u64 {
        self.next_file_number
    }

    /// Marks `number` as used (during recovery).
    pub fn mark_file_number_used(&mut self, number: u64) {
        if self.next_file_number <= number {
            self.next_file_number = number + 1;
        }
    }

    /// The file number of the live MANIFEST.
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// File numbers referenced by the current version or any pinned version,
    /// plus whether a version *other than* `current` contributed (a read or
    /// cursor still pins it). Both facts come from the same observation of
    /// the pin list — a GC that keeps a pinned version's files must also
    /// learn that a later pass may find more garbage, even if the pin drops
    /// immediately afterwards.
    pub fn live_files_and_pins(&mut self) -> (Vec<u64>, bool) {
        let mut live = self.current.live_file_numbers();
        self.live_versions.retain(|weak| weak.strong_count() > 0);
        let mut pinned = false;
        for weak in &self.live_versions {
            if let Some(version) = weak.upgrade() {
                if !Arc::ptr_eq(&version, &self.current) {
                    pinned = true;
                    live.extend(version.live_file_numbers());
                }
            }
        }
        live.sort_unstable();
        live.dedup();
        (live, pinned)
    }

    /// Writes a fresh MANIFEST for an empty database.
    pub fn create_new(&mut self) -> Result<()> {
        self.rewrite_manifest()
    }

    /// Recovers state from the MANIFEST named by `CURRENT`, then continues
    /// in a freshly written snapshot MANIFEST.
    pub fn recover(&mut self) -> Result<()> {
        let current = self
            .env
            .read_file_to_vec(&current_file_name(&self.db_path))?;
        let name = String::from_utf8_lossy(&current);
        let name = name.trim();
        let manifest_number: u64 = name
            .strip_prefix("MANIFEST-")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| Error::corruption("CURRENT does not name a manifest"))?;
        let file = self.env.new_sequential_file(&self.db_path.join(name))?;
        let mut reader = LogReader::new(file);

        let mut builder = V::Builder::new(self.max_levels);
        while let Some(record) = reader.read_record()? {
            let edit = VersionEdit::decode(&record)?;
            if let Some(v) = edit.log_number {
                self.log_number = v;
            }
            if let Some(v) = edit.next_file_number {
                self.next_file_number = v;
            }
            if let Some(v) = edit.last_sequence {
                self.last_sequence = v;
            }
            builder.apply(&edit)?;
        }
        self.current = Arc::new(builder.finish());
        self.mark_file_number_used(manifest_number);
        self.rewrite_manifest()
    }

    /// Applies `edit` to the current version, logs it (synced) and installs
    /// the result.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<V>> {
        if edit.log_number.is_none() {
            edit.log_number = Some(self.log_number);
        }
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);

        let mut builder = V::Builder::from_version(&self.current);
        builder.apply(&edit)?;
        let next = Arc::new(builder.finish());
        // With concurrent compaction jobs merging their edits through this
        // serialized path, a violation here means two jobs claimed
        // overlapping work.
        #[cfg(debug_assertions)]
        if let Err(violation) = next.validate() {
            panic!("version invariant violated after commit: {violation}");
        }

        if self.manifest.is_none() {
            self.rewrite_manifest()?;
        }
        if let Some(manifest) = self.manifest.as_mut() {
            manifest.add_record(&edit.encode())?;
            manifest.sync()?;
        }
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
        self.current = Arc::clone(&next);
        Ok(next)
    }

    /// Commits the only edit shape the chassis itself produces: "switch to
    /// WAL `log_number`, optionally adding a level-0 table" (WAL rotation at
    /// open, recovery flushes, memtable flushes).
    pub fn commit_level0(
        &mut self,
        meta: Option<&FileMetaData>,
        log_number: Option<u64>,
    ) -> Result<()> {
        let mut edit = VersionEdit {
            log_number,
            ..Default::default()
        };
        if let Some(meta) = meta {
            edit.add_file(0, meta);
        }
        self.log_and_apply(edit).map(|_| ())
    }

    /// Writes a full-snapshot MANIFEST and points `CURRENT` at it.
    fn rewrite_manifest(&mut self) -> Result<()> {
        let manifest_number = self.new_file_number();
        let path = descriptor_file_name(&self.db_path, manifest_number);
        let mut writer = LogWriter::new(self.env.new_writable_file(&path)?);

        let mut snapshot = VersionEdit {
            next_file_number: Some(self.next_file_number),
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            new_guards: self.current.snapshot_guards(),
            ..Default::default()
        };
        for level in 0..self.current.num_levels() {
            for file in self.current.level_files(level).iter() {
                snapshot.add_file(level, file);
            }
        }
        writer.add_record(&snapshot.encode())?;
        writer.sync()?;
        self.manifest = Some(writer);
        self.manifest_number = manifest_number;
        self.env.write_string_to_file_sync(
            &current_file_name(&self.db_path),
            format!("MANIFEST-{manifest_number:06}\n").as_bytes(),
        )?;
        Ok(())
    }
}
