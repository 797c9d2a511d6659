//! FLSM versions: guard-organised file metadata.
//!
//! The structure mirrors the baseline LSM's version but each level (from 1
//! down) is a list of [`GuardMeta`]s instead of a sorted run of disjoint
//! files. The MANIFEST machinery is the chassis's
//! [`VersionSet`](pebblesdb_engine::VersionSet); the guard keys its edits
//! carry are the only extra metadata PebblesDB persists compared to its
//! HyperLevelDB base (section 4.3.1 of the paper).

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::key::{parse_internal_key, LookupKey, SequenceNumber, ValueType};
use pebblesdb_common::vlog::{LookupValue, ValuePointer};
use pebblesdb_common::{ReadOptions, Result};
use pebblesdb_engine::{FileMetaData, ShapeVersion, VersionBuilder, VersionEdit};
use pebblesdb_sstable::TableCache;

use crate::guards::{guard_index_for_key, GuardMeta};

/// One guard-organised level of the FLSM.
#[derive(Debug, Clone, Default)]
pub struct FlsmLevel {
    /// `guards[0]` is the sentinel (empty key); the rest are sorted by key.
    pub guards: Vec<GuardMeta>,
}

impl FlsmLevel {
    /// Creates a level with only an empty sentinel guard.
    pub fn empty() -> Self {
        FlsmLevel {
            guards: vec![GuardMeta::new(Vec::new())],
        }
    }

    /// The guard keys of this level, excluding the sentinel.
    pub fn guard_keys(&self) -> Vec<Vec<u8>> {
        self.guards.iter().skip(1).map(|g| g.key.clone()).collect()
    }

    /// The guard that owns `user_key`.
    pub fn guard_for(&self, user_key: &[u8]) -> &GuardMeta {
        // Binary search directly over the guard list (sentinel first), so the
        // read path allocates nothing.
        let count = self
            .guards
            .partition_point(|g| g.is_sentinel() || g.key.as_slice() <= user_key);
        &self.guards[count.saturating_sub(1)]
    }

    /// Total number of distinct files across every guard.
    pub fn num_files(&self) -> usize {
        self.unique_files().len()
    }

    /// The distinct files of this level.
    ///
    /// A file whose key range spans several guards (because a guard was
    /// committed after the file was written) is attached to each guard it
    /// overlaps so point lookups stay correct; aggregations must therefore
    /// de-duplicate by file number.
    pub fn unique_files(&self) -> Vec<Arc<FileMetaData>> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for guard in &self.guards {
            for file in &guard.files {
                if seen.insert(file.number) {
                    out.push(Arc::clone(file));
                }
            }
        }
        out
    }

    /// The largest number of sstables held by any single guard.
    pub fn max_files_in_guard(&self) -> usize {
        self.guards.iter().map(|g| g.files.len()).max().unwrap_or(0)
    }

    /// Number of guards with no sstables (tracked for the empty-guard
    /// experiment, Figure 5.4 of the paper).
    pub fn empty_guards(&self) -> usize {
        self.guards.iter().filter(|g| g.files.is_empty()).count()
    }
}

/// An immutable snapshot of the whole FLSM file layout.
#[derive(Debug, Default)]
pub struct FlsmVersion {
    /// Level-0 files (no guards), newest first.
    pub level0: Vec<Arc<FileMetaData>>,
    /// Guard-organised levels; index 0 is unused.
    pub levels: Vec<FlsmLevel>,
}

impl FlsmVersion {
    /// Creates an empty version with `max_levels` levels.
    pub fn new(max_levels: usize) -> Self {
        FlsmVersion {
            level0: Vec::new(),
            levels: (0..max_levels).map(|_| FlsmLevel::empty()).collect(),
        }
    }

    /// Point lookup across the whole version.
    pub fn get(
        &self,
        read_options: &ReadOptions,
        key: &LookupKey,
        table_cache: &TableCache,
    ) -> Result<Option<LookupValue>> {
        let user_key = key.user_key();

        // Level 0: all overlapping files, newest first.
        let mut level0: Vec<&Arc<FileMetaData>> = self
            .level0
            .iter()
            .filter(|f| f.smallest.user_key() <= user_key && user_key <= f.largest.user_key())
            .collect();
        level0.sort_by_key(|f| std::cmp::Reverse(f.number));
        for file in level0 {
            // Level-0 files are recency-ordered by number: flushes are
            // serialized by the single flush thread.
            if let Some((_, decided)) = search_file(read_options, file, key, table_cache)? {
                return Ok(decided);
            }
        }

        // Levels 1..: exactly one guard per level can own the key. The
        // sstables inside a guard overlap freely and — now that concurrent
        // compaction jobs at different levels may deliver files into the same
        // guard out of file-number order — the newest-number-first heuristic
        // is no longer a total order on recency. Each candidate file is
        // consulted (bloom filters skip most) and the match with the highest
        // sequence number wins.
        for level in self.levels.iter().skip(1) {
            let guard = level.guard_for(user_key);
            let mut best: Option<(SequenceNumber, Option<LookupValue>)> = None;
            for file in guard
                .files
                .iter()
                .filter(|f| f.smallest.user_key() <= user_key && user_key <= f.largest.user_key())
            {
                if let Some((sequence, value)) = search_file(read_options, file, key, table_cache)?
                {
                    if best.as_ref().map(|(s, _)| sequence > *s).unwrap_or(true) {
                        best = Some((sequence, value));
                    }
                }
            }
            if let Some((_, decided)) = best {
                return Ok(decided);
            }
        }
        Ok(None)
    }
}

/// Searches one sstable; the outer `Option` says whether this file holds a
/// version of the key, the payload is that version's sequence and its value
/// (`None` = tombstone) so callers can pick the newest match across the
/// overlapping files of a guard.
fn search_file(
    read_options: &ReadOptions,
    file: &Arc<FileMetaData>,
    key: &LookupKey,
    table_cache: &TableCache,
) -> Result<Option<(SequenceNumber, Option<LookupValue>)>> {
    let table = table_cache.get_table(file.number, file.file_size)?;
    if !table.may_contain_user_key(key.user_key()) {
        return Ok(None);
    }
    match table.get(read_options, key.internal_key())? {
        Some((found_key, value)) => match parse_internal_key(&found_key) {
            Some(parsed) if parsed.user_key == key.user_key() => match parsed.value_type {
                ValueType::Value => Ok(Some((parsed.sequence, Some(LookupValue::Inline(value))))),
                ValueType::ValuePointer => Ok(Some((
                    parsed.sequence,
                    Some(LookupValue::Pointer(ValuePointer::decode(&value)?)),
                ))),
                ValueType::Deletion => Ok(Some((parsed.sequence, None))),
            },
            _ => Ok(None),
        },
        None => Ok(None),
    }
}

/// Rebuilds an [`FlsmVersion`] from guard keys and file lists.
pub struct FlsmVersionBuilder {
    max_levels: usize,
    /// Guard keys per level (sentinel excluded).
    guard_keys: Vec<BTreeSet<Vec<u8>>>,
    /// Files per level (level 0 included at index 0).
    files: Vec<Vec<Arc<FileMetaData>>>,
}

impl VersionBuilder for FlsmVersionBuilder {
    type Version = FlsmVersion;

    fn new(max_levels: usize) -> Self {
        FlsmVersionBuilder {
            max_levels,
            guard_keys: vec![BTreeSet::new(); max_levels],
            files: vec![Vec::new(); max_levels],
        }
    }

    fn from_version(version: &FlsmVersion) -> Self {
        let mut builder = Self::new(version.num_levels());
        builder.files[0] = version.level0.clone();
        for (level_idx, level) in version.levels.iter().enumerate().skip(1) {
            builder.guard_keys[level_idx].extend(level.guard_keys());
            builder.files[level_idx] = level.unique_files();
        }
        builder
    }

    fn apply(&mut self, edit: &VersionEdit) -> Result<()> {
        for (level, key) in &edit.new_guards {
            // A guard at level i is a guard at every deeper level too.
            for deeper in *level..self.max_levels {
                self.guard_keys[deeper].insert(key.clone());
            }
        }
        for (level, number) in &edit.deleted_files {
            if *level < self.max_levels {
                self.files[*level].retain(|f| f.number != *number);
            }
        }
        for (level, file) in &edit.new_files {
            if *level < self.max_levels {
                self.files[*level].push(Arc::new(FileMetaData::from_edit(file)));
            }
        }
        Ok(())
    }

    /// Produces the resulting version, attaching every file to each guard
    /// its key range overlaps.
    fn finish(self) -> FlsmVersion {
        let mut version = FlsmVersion::new(self.max_levels);
        let mut level0 = self.files[0].clone();
        level0.sort_by_key(|f| std::cmp::Reverse(f.number));
        version.level0 = level0;

        for level_idx in 1..self.max_levels {
            let keys: Vec<Vec<u8>> = self.guard_keys[level_idx].iter().cloned().collect();
            let mut guards: Vec<GuardMeta> = Vec::with_capacity(keys.len() + 1);
            guards.push(GuardMeta::new(Vec::new()));
            for key in &keys {
                guards.push(GuardMeta::new(key.clone()));
            }
            // Older MANIFEST snapshots list a file once per guard it spans;
            // each file is attached once per guard regardless.
            let mut seen = BTreeSet::new();
            for file in &self.files[level_idx] {
                if !seen.insert(file.number) {
                    continue;
                }
                // Freshly compacted files land in exactly one guard; only
                // files written before a guard was committed can span more.
                let first = guard_index_for_key(&keys, file.smallest.user_key());
                let last = guard_index_for_key(&keys, file.largest.user_key());
                for guard in guards.iter_mut().take(last + 1).skip(first) {
                    guard.files.push(Arc::clone(file));
                }
            }
            for guard in &mut guards {
                guard.files.sort_by_key(|f| std::cmp::Reverse(f.number));
            }
            version.levels[level_idx] = FlsmLevel { guards };
        }
        version
    }
}

impl ShapeVersion for FlsmVersion {
    type Builder = FlsmVersionBuilder;

    fn num_levels(&self) -> usize {
        self.levels.len()
    }

    fn level_files(&self, level: usize) -> Cow<'_, [Arc<FileMetaData>]> {
        if level == 0 {
            Cow::Borrowed(&self.level0)
        } else {
            Cow::Owned(self.levels[level].unique_files())
        }
    }

    /// `L0:n L1:files/guards ...`
    fn level_summary(&self) -> String {
        let mut parts = vec![format!("L0:{}", self.level0.len())];
        for (idx, level) in self.levels.iter().enumerate().skip(1) {
            parts.push(format!(
                "L{idx}:{}f/{}g",
                level.num_files(),
                level.guards.len()
            ));
        }
        parts.join(" ")
    }

    /// Number of guards per level (sentinel included), for diagnostics.
    fn guards_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.guards.len()).collect()
    }

    /// Total number of empty guards across all levels.
    fn empty_guards(&self) -> usize {
        self.levels.iter().skip(1).map(|l| l.empty_guards()).sum()
    }

    /// Every level's guard keys: guards propagate downwards, so a snapshot
    /// lists a level-1 guard again at each deeper level.
    fn snapshot_guards(&self) -> Vec<(usize, Vec<u8>)> {
        let mut guards = Vec::new();
        for (level_idx, level) in self.levels.iter().enumerate().skip(1) {
            guards.extend(level.guard_keys().into_iter().map(|key| (level_idx, key)));
        }
        guards
    }

    /// Checks the structural invariants concurrent compaction commits must
    /// preserve. Returns a description of the first violation found.
    ///
    /// Invariants:
    /// * every guard level starts with the sentinel guard and its remaining
    ///   guard keys are strictly sorted (so guard ranges are disjoint);
    /// * a guard at level `i` is also a guard at every deeper level;
    /// * every file attached to a guard overlaps that guard's key range, and
    ///   every guard a file overlaps holds it (point lookups inspect exactly
    ///   one guard, so a missing attachment is a lost key).
    ///
    /// Checked after every version commit in debug builds; release builds
    /// pay nothing.
    fn validate(&self) -> std::result::Result<(), String> {
        for (level_idx, level) in self.levels.iter().enumerate().skip(1) {
            let guards = &level.guards;
            if guards.is_empty() || !guards[0].is_sentinel() {
                return Err(format!("L{level_idx}: missing sentinel guard"));
            }
            for pair in guards.windows(2) {
                if pair[1].key.is_empty() {
                    return Err(format!("L{level_idx}: duplicate sentinel guard"));
                }
                if !pair[0].is_sentinel() && pair[0].key >= pair[1].key {
                    return Err(format!(
                        "L{level_idx}: guards out of order ({:?} >= {:?})",
                        pair[0].key, pair[1].key
                    ));
                }
            }
            // Guards propagate to deeper levels.
            if level_idx + 1 < self.levels.len() {
                let deeper = &self.levels[level_idx + 1];
                for guard in guards.iter().skip(1) {
                    if !deeper.guards.iter().any(|g| g.key == guard.key) {
                        return Err(format!(
                            "L{level_idx}: guard {:?} missing from L{}",
                            guard.key,
                            level_idx + 1
                        ));
                    }
                }
            }
            let keys: Vec<Vec<u8>> = level.guard_keys();
            for (guard_idx, guard) in guards.iter().enumerate() {
                let lower: &[u8] = &guard.key;
                let upper: Option<&[u8]> = guards.get(guard_idx + 1).map(|g| g.key.as_slice());
                for file in &guard.files {
                    let overlaps = file.largest.user_key() >= lower
                        && upper.is_none_or(|u| file.smallest.user_key() < u);
                    if !overlaps {
                        return Err(format!(
                            "L{level_idx}: file {} does not overlap guard {:?}",
                            file.number, guard.key
                        ));
                    }
                }
            }
            // Every guard a file's range overlaps must hold the file.
            for file in level.unique_files() {
                let first = guard_index_for_key(&keys, file.smallest.user_key());
                let last = guard_index_for_key(&keys, file.largest.user_key());
                for guard in guards.iter().take(last + 1).skip(first) {
                    if !guard.files.iter().any(|f| f.number == file.number) {
                        return Err(format!(
                            "L{level_idx}: file {} missing from overlapped guard {:?}",
                            file.number, guard.key
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a compaction was scheduled (used for stats and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionReason {
    /// Too many level-0 files.
    Level0Files,
    /// Some guard exceeded `max_sstables_per_guard`.
    GuardFanout,
    /// A level exceeded its byte budget.
    LevelBytes,
    /// The level is close in size to the next level (aggressive compaction).
    Aggressive,
    /// Requested by the consecutive-seek heuristic.
    SeekTriggered,
    /// Explicitly requested (flush).
    Manual,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FlsmPolicy;
    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_common::StoreOptions;
    use pebblesdb_engine::{FileMetaDataEdit, ShapePolicy, VersionSet};
    use pebblesdb_env::{Env, MemEnv};
    use std::path::PathBuf;

    fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
                .encoded()
                .to_vec(),
            largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Value)
                .encoded()
                .to_vec(),
        }
    }

    fn build(max_levels: usize, edit: &VersionEdit) -> FlsmVersion {
        let mut builder = FlsmVersionBuilder::new(max_levels);
        builder.apply(edit).unwrap();
        builder.finish()
    }

    fn numbers<V: ShapeVersion>(version: &V, level: usize) -> Vec<u64> {
        version
            .level_files(level)
            .iter()
            .map(|f| f.number)
            .collect()
    }

    #[test]
    fn builder_attaches_files_to_owning_guards() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "d"))); // Sentinel.
        edit.new_files.push((1, file_edit(11, "p", "z"))); // Guard "m".
        edit.new_files.push((1, file_edit(12, "m", "n"))); // Guard "m".
        edit.new_files.push((0, file_edit(13, "a", "z"))); // Level 0.
        let version = build(4, &edit);

        assert_eq!(version.level0.len(), 1);
        let level1 = &version.levels[1];
        assert_eq!(level1.guards.len(), 2);
        assert!(level1.guards[0].is_sentinel());
        assert_eq!(level1.guards[0].files.len(), 1);
        assert_eq!(level1.guards[1].key, b"m".to_vec());
        assert_eq!(level1.guards[1].files.len(), 2);
        // Newest first inside the guard.
        assert_eq!(level1.guards[1].files[0].number, 12);

        // A guard at level 1 is also a guard at deeper levels.
        assert_eq!(version.levels[2].guards.len(), 2);
        assert_eq!(version.levels[3].guards.len(), 2);

        // Lookups resolve guard ownership.
        assert_eq!(level1.guard_for(b"b").key, b"");
        assert_eq!(level1.guard_for(b"q").key, b"m");
        assert_eq!(version.empty_guards(), 2 + 2);
        assert!(version.level_summary().starts_with("L0:1 L1:3f/2g"));
    }

    #[test]
    fn deleting_files_keeps_guards() {
        let mut builder = FlsmVersionBuilder::new(3);
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"g".to_vec()));
        edit.new_files.push((1, file_edit(5, "h", "k")));
        builder.apply(&edit).unwrap();
        let mut second = VersionEdit::default();
        second.delete_file(1, 5);
        builder.apply(&second).unwrap();
        let version = builder.finish();
        assert_eq!(version.levels[1].num_files(), 0);
        assert_eq!(version.levels[1].guards.len(), 2);
        assert_eq!(version.empty_guards(), 4);
    }

    /// A file committed before a guard that splits its range is attached to
    /// both guards, but counted once and recorded once in a snapshot — and a
    /// snapshot that lists it once per guard (as older MANIFESTs do) still
    /// recovers to one attachment per guard.
    #[test]
    fn spanning_files_are_counted_and_recorded_once() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(20, "a", "z")));
        let version = build(3, &edit);
        assert_eq!(version.levels[1].guards[0].files.len(), 1);
        assert_eq!(version.levels[1].guards[1].files.len(), 1);
        assert_eq!(version.num_files(), 1);
        assert_eq!(version.total_bytes(), 1000);
        assert_eq!(version.file_sizes(), vec![1000]);
        assert_eq!(version.live_file_numbers(), vec![20]);

        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/spanning");
        env.create_dir_all(&db).unwrap();
        let mut vs = VersionSet::<FlsmVersion>::new(Arc::clone(&env), db.clone(), 3);
        vs.create_new().unwrap();
        vs.log_and_apply(edit.clone()).unwrap();
        let mut recovered = VersionSet::<FlsmVersion>::new(Arc::clone(&env), db.clone(), 3);
        recovered.recover().unwrap();
        // The recovery wrote a snapshot; it lists file 20 once.
        let current = env.read_file_to_vec(&db.join("CURRENT")).unwrap();
        let name = String::from_utf8(current).unwrap();
        let file = env.new_sequential_file(&db.join(name.trim())).unwrap();
        let record = pebblesdb_wal::LogReader::new(file)
            .read_record()
            .unwrap()
            .unwrap();
        let snapshot = VersionEdit::decode(&record).unwrap();
        assert_eq!(snapshot.new_files.len(), 1);

        // A duplicated file record is attached once per guard.
        let mut duplicated = edit;
        duplicated.new_files.push((1, file_edit(20, "a", "z")));
        let version = build(3, &duplicated);
        assert_eq!(version.levels[1].max_files_in_guard(), 1);
        assert_eq!(version.num_files(), 1);
    }

    #[test]
    fn validate_accepts_built_versions_and_rejects_broken_ones() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "d")));
        edit.new_files.push((1, file_edit(11, "m", "z")));
        let version = build(4, &edit);
        assert!(version.validate().is_ok());

        // Out-of-order guards are rejected.
        let mut broken = FlsmVersion::new(4);
        broken.levels[1].guards = vec![
            GuardMeta::new(Vec::new()),
            GuardMeta::new(b"t".to_vec()),
            GuardMeta::new(b"g".to_vec()),
        ];
        assert!(broken.validate().is_err());

        // A file attached to a guard it cannot overlap is rejected.
        let mut misfiled = FlsmVersion::new(4);
        misfiled.levels[1].guards = vec![GuardMeta::new(Vec::new()), GuardMeta::new(b"m".to_vec())];
        misfiled.levels[2].guards = vec![GuardMeta::new(Vec::new()), GuardMeta::new(b"m".to_vec())];
        misfiled.levels[3].guards = vec![GuardMeta::new(Vec::new()), GuardMeta::new(b"m".to_vec())];
        let file = Arc::new(FileMetaData::from_edit(&file_edit(20, "x", "z")));
        misfiled.levels[1].guards[0].files.push(file);
        assert!(misfiled.validate().is_err());
    }

    #[test]
    fn compaction_candidates_list_every_triggered_level_once() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.max_sstables_per_guard = 2;
        opts.enable_aggressive_compaction = false;
        let policy = FlsmPolicy::new(&opts);

        // Trigger level 0 (two files) and guard fanout at levels 1 and 2.
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, file_edit(10, "a", "b")));
        edit.new_files.push((0, file_edit(11, "c", "d")));
        for n in 20..23 {
            edit.new_files.push((1, file_edit(n, "k", "p")));
        }
        for n in 30..33 {
            edit.new_files.push((2, file_edit(n, "k", "p")));
        }
        let version = build(opts.max_levels, &edit);

        assert_eq!(
            policy.compaction_candidates(&version),
            vec![
                (0, CompactionReason::Level0Files),
                (1, CompactionReason::GuardFanout),
                (2, CompactionReason::GuardFanout),
            ]
        );
    }

    #[test]
    fn compaction_triggers_cover_level0_guards_and_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.max_sstables_per_guard = 2;
        opts.base_level_bytes = 2500;
        opts.enable_aggressive_compaction = false;
        let policy = FlsmPolicy::new(&opts);
        let first = |version: &FlsmVersion| policy.compaction_candidates(version).first().copied();
        let mut builder = FlsmVersionBuilder::new(opts.max_levels);
        assert!(!policy.needs_compaction(&FlsmVersionBuilder::new(opts.max_levels).finish()));

        // Two level-0 files trigger a level-0 compaction.
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, file_edit(10, "a", "b")));
        edit.new_files.push((0, file_edit(11, "c", "d")));
        builder.apply(&edit).unwrap();
        let version = builder.finish();
        assert_eq!(first(&version), Some((0, CompactionReason::Level0Files)));
        assert!(policy.needs_compaction(&version));

        // Guard fanout trigger: three files in one guard with budget 2.
        let mut builder = FlsmVersionBuilder::from_version(&version);
        let mut edit = VersionEdit::default();
        edit.delete_file(0, 10);
        edit.delete_file(0, 11);
        for n in 20..23 {
            edit.new_files.push((1, file_edit(n, "k", "p")));
        }
        builder.apply(&edit).unwrap();
        let version = builder.finish();
        assert_eq!(first(&version), Some((1, CompactionReason::GuardFanout)));

        // Byte budget: level 1 holds 3000 bytes against a 2500-byte budget.
        let mut opts = opts.clone();
        opts.max_sstables_per_guard = 8;
        let policy = FlsmPolicy::new(&opts);
        assert_eq!(
            policy.compaction_candidates(&version),
            vec![(1, CompactionReason::LevelBytes)]
        );
    }

    // ------------------------------------------------------------------
    // The shared version-set suite. `pebblesdb_engine::VersionSet` and its
    // edit codec exist once; every case below runs over both shapes — the
    // guarded FLSM version and the LSM's sorted runs (the `pebblesdb-lsm`
    // dev-dependency) — with guard records only where the shape has guards.
    // ------------------------------------------------------------------

    type LsmVersion = pebblesdb_lsm::Version;

    /// `(edit, shape has guards)`: the same file changes, plus guard records
    /// for the FLSM.
    fn shape_edit(guards: bool) -> VersionEdit {
        let mut edit = VersionEdit {
            log_number: Some(12),
            next_file_number: Some(55),
            last_sequence: Some(9000),
            ..Default::default()
        };
        edit.deleted_files.push((2, 40));
        edit.new_files.push((1, file_edit(41, "a", "m")));
        if guards {
            edit.new_guards.push((1, b"m".to_vec()));
            edit.new_guards.push((2, b"t".to_vec()));
        }
        edit
    }

    fn roundtrip_case<V: ShapeVersion>(guards: bool) {
        let edit = shape_edit(guards);
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
        assert_eq!(decoded.log_number, Some(12));
        assert_eq!(decoded.next_file_number, Some(55));
        assert_eq!(decoded.last_sequence, Some(9000));
        assert_eq!(decoded.deleted_files, vec![(2, 40)]);
        assert_eq!(decoded.new_files.len(), 1);
        assert_eq!(decoded.new_files[0].0, 1);
        assert_eq!(decoded.new_files[0].1.number, 41);
        // The decoded edit builds the shape's version.
        let mut builder = V::Builder::new(7);
        builder.apply(&decoded).unwrap();
        let version = builder.finish();
        assert_eq!(numbers(&version, 1), vec![41]);
        let expected_guards = if guards { 6 + 5 } else { 0 };
        assert_eq!(version.snapshot_guards().len(), expected_guards);
    }

    #[test]
    fn version_edit_roundtrip() {
        roundtrip_case::<FlsmVersion>(true);
        roundtrip_case::<LsmVersion>(false);
    }

    #[test]
    fn edit_roundtrip_including_guards() {
        let mut edit = VersionEdit {
            log_number: Some(4),
            last_sequence: Some(99),
            ..Default::default()
        };
        edit.new_files.push((1, file_edit(7, "c", "h")));
        edit.deleted_files.push((0, 3));
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_guards.push((2, b"t".to_vec()));

        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded.log_number, Some(4));
        assert_eq!(decoded.last_sequence, Some(99));
        assert_eq!(decoded.new_files.len(), 1);
        assert_eq!(decoded.deleted_files, vec![(0, 3)]);
        assert_eq!(
            decoded.new_guards,
            vec![(1, b"m".to_vec()), (2, b"t".to_vec())]
        );
    }

    #[test]
    fn corrupt_edit_is_rejected() {
        assert!(VersionEdit::decode(&[99, 1, 2, 3]).is_err());
        // A truncated record is corrupt for every shape.
        let encoded = shape_edit(true).encode();
        let err = VersionEdit::decode(&encoded[..encoded.len() - 1]).unwrap_err();
        assert!(err.is_corruption());
        // Guard records build an FLSM version, and are corruption to an LSM,
        // whose sorted runs cannot hold overlapping files.
        let guarded = shape_edit(true);
        assert!(FlsmVersionBuilder::new(7).apply(&guarded).is_ok());
        let mut lsm = <LsmVersion as ShapeVersion>::Builder::new(7);
        assert!(lsm.apply(&guarded).unwrap_err().is_corruption());
    }

    fn persists_and_recovers_case<V: ShapeVersion>(guards: bool) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/db");
        env.create_dir_all(&db).unwrap();

        let mut vs = VersionSet::<V>::new(Arc::clone(&env), db.clone(), 7);
        vs.create_new().unwrap();
        vs.last_sequence = 777;
        let mut edit = VersionEdit {
            log_number: Some(5),
            ..Default::default()
        };
        edit.new_files.push((1, file_edit(9, "a", "k")));
        edit.new_files.push((0, file_edit(10, "b", "c")));
        if guards {
            edit.new_guards.push((1, b"guard-key".to_vec()));
        }
        vs.log_and_apply(edit).unwrap();

        let mut recovered = VersionSet::<V>::new(Arc::clone(&env), db, 7);
        recovered.recover().unwrap();
        assert_eq!(recovered.last_sequence, 777);
        assert_eq!(recovered.log_number, 5);
        // The recovery's own snapshot MANIFEST took the next number.
        assert_eq!(recovered.manifest_number(), vs.next_file_number());
        assert_eq!(recovered.next_file_number(), vs.next_file_number() + 1);
        let version = recovered.current_unpinned();
        for level in 0..7 {
            assert_eq!(
                numbers(version.as_ref(), level),
                numbers(vs.current_unpinned().as_ref(), level)
            );
        }
        assert_eq!(numbers(version.as_ref(), 1), vec![9]);
        assert_eq!(
            version.snapshot_guards(),
            vs.current_unpinned().snapshot_guards()
        );
        assert_eq!(version.snapshot_guards().is_empty(), !guards);
    }

    #[test]
    fn version_set_persists_and_recovers_state() {
        persists_and_recovers_case::<FlsmVersion>(true);
        persists_and_recovers_case::<LsmVersion>(false);
    }

    #[test]
    fn version_set_persists_guards_across_recovery() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm");
        env.create_dir_all(&db).unwrap();

        let mut vs = VersionSet::<FlsmVersion>::new(Arc::clone(&env), db.clone(), 7);
        vs.create_new().unwrap();
        vs.last_sequence = 500;
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"guard-key".to_vec()));
        edit.new_files.push((1, file_edit(8, "x", "z")));
        vs.log_and_apply(edit).unwrap();

        let mut recovered = VersionSet::<FlsmVersion>::new(Arc::clone(&env), db, 7);
        recovered.recover().unwrap();
        assert_eq!(recovered.last_sequence, 500);
        let version = recovered.current_unpinned();
        assert_eq!(version.levels[1].guards.len(), 2);
        assert_eq!(version.levels[1].guards[1].key, b"guard-key".to_vec());
        assert_eq!(version.levels[1].num_files(), 1);
    }

    /// `spanning`: file 20 crosses a guard, so the FLSM attaches it twice;
    /// it must still be one live file.
    fn pinned_versions_case<V: ShapeVersion>(spanning: bool) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/db3");
        env.create_dir_all(&db).unwrap();
        let mut vs = VersionSet::<V>::new(env, db, 7);
        vs.create_new().unwrap();

        let mut edit = VersionEdit::default();
        edit.new_files.push((1, file_edit(20, "a", "z")));
        if spanning {
            edit.new_guards.push((1, b"m".to_vec()));
        }
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.current_unpinned().live_file_numbers(), vec![20]);
        assert_eq!(vs.current_unpinned().num_files(), 1);
        assert_eq!(vs.current_unpinned().total_bytes(), 1000);
        let pinned = vs.current();

        // Replace file 20 with 21; 20 must stay live while `pinned` exists.
        let mut edit = VersionEdit::default();
        edit.delete_file(1, 20);
        edit.new_files.push((1, file_edit(21, "a", "z")));
        vs.log_and_apply(edit).unwrap();

        assert_eq!(vs.live_files_and_pins(), (vec![20, 21], true));
        drop(pinned);
        assert_eq!(vs.live_files_and_pins(), (vec![21], false));
    }

    #[test]
    fn live_file_numbers_include_pinned_versions() {
        pinned_versions_case::<FlsmVersion>(true);
        pinned_versions_case::<LsmVersion>(false);
    }
}
