//! Sorted-run versions: the LSM's file layout.
//!
//! A [`Version`] is an immutable snapshot of which sstables live at which
//! level: level 0 holds overlapping flush outputs, every deeper level is one
//! sorted run of disjoint files. Mutations (memtable flushes, compactions)
//! are the chassis's [`VersionEdit`]s, committed through its
//! [`VersionSet`](pebblesdb_engine::VersionSet) — the standard LevelDB
//! descriptor scheme that PebblesDB inherits and extends with guard records,
//! which this shape refuses to read.

use std::borrow::Cow;
use std::sync::Arc;

use pebblesdb_common::key::{compare_internal_keys, LookupKey, SequenceNumber};
use pebblesdb_common::key::{parse_internal_key, ValueType};
use pebblesdb_common::vlog::{LookupValue, ValuePointer};
use pebblesdb_common::{Error, ReadOptions, Result};
use pebblesdb_engine::{ShapeVersion, VersionBuilder, VersionEdit};
use pebblesdb_sstable::TableCache;

pub use pebblesdb_engine::meta::{FileMetaData, FileMetaDataEdit};

/// An immutable snapshot of the files at every level.
#[derive(Debug)]
pub struct Version {
    /// `files[level]` is sorted by smallest key for levels >= 1; level 0 is
    /// ordered newest-file-first (by file number, descending).
    pub files: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// The files at `level` whose user-key range overlaps `[begin, end]`.
    pub fn overlapping_inputs(
        &self,
        level: usize,
        begin: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Vec<Arc<FileMetaData>> {
        let mut inputs = Vec::new();
        let mut begin = begin.map(|b| b.to_vec());
        let mut end = end.map(|e| e.to_vec());
        let mut restart = true;
        while restart {
            restart = false;
            inputs.clear();
            for file in &self.files[level] {
                if file.overlaps_user_range(begin.as_deref(), end.as_deref()) {
                    // Level-0 files overlap each other, so growing the range
                    // must restart the search to stay transitive.
                    if level == 0 {
                        let fs = file.smallest.user_key();
                        let fl = file.largest.user_key();
                        if begin.as_deref().map(|b| fs < b).unwrap_or(false) {
                            begin = Some(fs.to_vec());
                            restart = true;
                        }
                        if end.as_deref().map(|e| fl > e).unwrap_or(false) {
                            end = Some(fl.to_vec());
                            restart = true;
                        }
                    }
                    inputs.push(Arc::clone(file));
                    if restart {
                        break;
                    }
                }
            }
        }
        inputs
    }

    /// Point lookup: searches level 0 newest-first, then deeper levels.
    ///
    /// Returns `Ok(Some(value))`, `Ok(None)` for "definitely deleted or never
    /// written", and records a seek on the first file probed (for
    /// seek-triggered compaction, reported through the return).
    pub fn get(
        &self,
        read_options: &ReadOptions,
        key: &LookupKey,
        table_cache: &TableCache,
    ) -> Result<Option<LookupValue>> {
        let user_key = key.user_key();
        let snapshot = key.sequence();

        // Level 0: every overlapping file, newest first.
        let mut level0: Vec<&Arc<FileMetaData>> = self.files[0]
            .iter()
            .filter(|f| f.smallest.user_key() <= user_key && user_key <= f.largest.user_key())
            .collect();
        level0.sort_by_key(|f| std::cmp::Reverse(f.number));
        for file in level0 {
            if let Some(result) =
                Self::get_in_file(read_options, file, user_key, snapshot, table_cache)?
            {
                return Ok(result);
            }
        }

        // Deeper levels: the files are disjoint by *internal* key, so binary
        // search with the lookup's internal key (user key + snapshot
        // sequence). Searching by user key alone is wrong for snapshot
        // reads: compaction may split one user key's versions across two
        // adjacent files, and the version visible at the snapshot can sit in
        // the file *after* the one holding the newest versions.
        for level in 1..self.num_levels() {
            let files = &self.files[level];
            if files.is_empty() {
                continue;
            }
            let idx = files.partition_point(|f| {
                compare_internal_keys(f.largest.encoded(), key.internal_key())
                    == std::cmp::Ordering::Less
            });
            if idx >= files.len() {
                continue;
            }
            let file = &files[idx];
            if file.smallest.user_key() > user_key {
                continue;
            }
            if let Some(result) =
                Self::get_in_file(read_options, file, user_key, snapshot, table_cache)?
            {
                return Ok(result);
            }
        }
        Ok(None)
    }

    /// Searches a single file. The outer `Option` is "did this file decide
    /// the outcome"; the inner is the value (None = tombstone).
    fn get_in_file(
        read_options: &ReadOptions,
        file: &Arc<FileMetaData>,
        user_key: &[u8],
        snapshot: SequenceNumber,
        table_cache: &TableCache,
    ) -> Result<Option<Option<LookupValue>>> {
        let table = table_cache.get_table(file.number, file.file_size)?;
        if !table.may_contain_user_key(user_key) {
            return Ok(None);
        }
        let target = LookupKey::new(user_key, snapshot);
        match table.get(read_options, target.internal_key())? {
            Some((found_key, value)) => match parse_internal_key(&found_key) {
                Some(parsed) if parsed.user_key == user_key => match parsed.value_type {
                    ValueType::Value => Ok(Some(Some(LookupValue::Inline(value)))),
                    ValueType::ValuePointer => Ok(Some(Some(LookupValue::Pointer(
                        ValuePointer::decode(&value)?,
                    )))),
                    ValueType::Deletion => Ok(Some(None)),
                },
                _ => Ok(None),
            },
            None => Ok(None),
        }
    }
}

/// Replays edits into a [`Version`], restoring per-level ordering.
pub struct LsmVersionBuilder {
    files: Vec<Vec<Arc<FileMetaData>>>,
}

impl VersionBuilder for LsmVersionBuilder {
    type Version = Version;

    fn new(max_levels: usize) -> Self {
        LsmVersionBuilder {
            files: vec![Vec::new(); max_levels],
        }
    }

    fn from_version(base: &Version) -> Self {
        LsmVersionBuilder {
            files: base.files.clone(),
        }
    }

    /// Guard records mean the MANIFEST belongs to an FLSM store, whose
    /// levels overlap inside; read as sorted runs they would return wrong
    /// answers, so they are rejected as corruption.
    fn apply(&mut self, edit: &VersionEdit) -> Result<()> {
        if !edit.new_guards.is_empty() {
            return Err(Error::corruption(
                "version edit carries FLSM guard records; not an LSM MANIFEST",
            ));
        }
        for (level, number) in &edit.deleted_files {
            if *level < self.files.len() {
                self.files[*level].retain(|f| f.number != *number);
            }
        }
        for (level, file) in &edit.new_files {
            if *level < self.files.len() {
                self.files[*level].push(Arc::new(FileMetaData::from_edit(file)));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Version {
        for (level, files) in self.files.iter_mut().enumerate() {
            if level == 0 {
                files.sort_by_key(|f| std::cmp::Reverse(f.number));
            } else {
                files.sort_by(|a, b| {
                    compare_internal_keys(a.smallest.encoded(), b.smallest.encoded())
                });
            }
        }
        Version { files: self.files }
    }
}

impl ShapeVersion for Version {
    type Builder = LsmVersionBuilder;

    fn num_levels(&self) -> usize {
        self.files.len()
    }

    fn level_files(&self, level: usize) -> Cow<'_, [Arc<FileMetaData>]> {
        Cow::Borrowed(&self.files[level])
    }

    /// Files per level (for debugging and the `compare_engines` example).
    fn level_summary(&self) -> String {
        let counts: Vec<String> = self
            .files
            .iter()
            .enumerate()
            .map(|(level, files)| format!("L{level}:{}", files.len()))
            .collect();
        counts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::LsmPolicy;
    use pebblesdb_common::key::InternalKey;
    use pebblesdb_common::StoreOptions;
    use pebblesdb_engine::ShapePolicy;

    fn ikey(user: &str, seq: u64) -> InternalKey {
        InternalKey::new(user.as_bytes(), seq, ValueType::Value)
    }

    fn meta(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: ikey(smallest, 5).encoded().to_vec(),
            largest: ikey(largest, 1).encoded().to_vec(),
        }
    }

    #[test]
    fn builder_applies_adds_and_deletes_in_order() {
        let mut builder = LsmVersionBuilder::new(7);
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(10, "k", "p")));
        edit.new_files.push((1, meta(11, "a", "e")));
        edit.new_files.push((0, meta(12, "c", "z")));
        builder.apply(&edit).unwrap();
        let mut second = VersionEdit::default();
        second.deleted_files.push((1, 10));
        second.new_files.push((2, meta(13, "q", "t")));
        builder.apply(&second).unwrap();
        let version = builder.finish();
        assert_eq!(version.files[0].len(), 1);
        assert_eq!(version.files[1].len(), 1);
        assert_eq!(version.files[1][0].number, 11);
        assert_eq!(version.files[2].len(), 1);
        assert_eq!(version.num_files(), 3);
        assert_eq!(version.total_bytes(), 3000);
        assert_eq!(
            version.level_summary(),
            "L0:1 L1:1 L2:1 L3:0 L4:0 L5:0 L6:0"
        );
    }

    #[test]
    fn overlapping_inputs_expands_level0_ranges() {
        let mut builder = LsmVersionBuilder::new(7);
        let mut edit = VersionEdit::default();
        // Two overlapping level-0 files and one detached one.
        edit.new_files.push((0, meta(1, "a", "f")));
        edit.new_files.push((0, meta(2, "e", "k")));
        edit.new_files.push((0, meta(3, "x", "z")));
        builder.apply(&edit).unwrap();
        let version = builder.finish();
        let inputs = version.overlapping_inputs(0, Some(b"a"), Some(b"b"));
        // Picking "a".."b" pulls in file 1; expansion to file 1's range pulls
        // in file 2 because they overlap at "e"/"f".
        let numbers: Vec<u64> = inputs.iter().map(|f| f.number).collect();
        assert!(numbers.contains(&1) && numbers.contains(&2));
        assert!(!numbers.contains(&3));
    }

    #[test]
    fn compaction_scores_trigger_on_level0_count_and_level_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.base_level_bytes = 1500;
        let policy = LsmPolicy::new(&opts);
        let mut builder = LsmVersionBuilder::new(opts.max_levels);
        assert!(policy
            .pick_compaction_level(&LsmVersionBuilder::new(opts.max_levels).finish())
            .is_none());

        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(10, "a", "b")));
        edit.new_files.push((0, meta(11, "c", "d")));
        builder.apply(&edit).unwrap();
        let version = builder.finish();
        let (level, score) = policy.pick_compaction_level(&version).unwrap();
        assert_eq!(level, 0);
        assert!(score >= 1.0);

        // Push level 1 over its byte budget (2 files x 1000 bytes > 1500).
        let mut builder = LsmVersionBuilder::from_version(&version);
        let mut edit = VersionEdit::default();
        edit.deleted_files.push((0, 10));
        edit.deleted_files.push((0, 11));
        edit.new_files.push((1, meta(12, "a", "b")));
        edit.new_files.push((1, meta(13, "c", "d")));
        builder.apply(&edit).unwrap();
        let (level, _) = policy.pick_compaction_level(&builder.finish()).unwrap();
        assert_eq!(level, 1);
    }
}
