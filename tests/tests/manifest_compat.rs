//! MANIFEST compatibility across the version-set merge.
//!
//! One `VersionSet` and one `VersionEdit` codec in the engine chassis replaced
//! a guard-organised FLSM copy and a sorted-run LSM copy. These tests pin the
//! on-disk format to what the two copies wrote:
//!
//! * golden bytes for an encoded FLSM edit and LSM edit, and for whole
//!   MANIFESTs (create, two commits, recovery snapshot), taken from the
//!   encoders at commit b795cd3, before the merge;
//! * `CURRENT` + `MANIFEST-*` fixtures under `tests/fixtures/manifest/`,
//!   written by that commit's FLSM and LSM engines (4,500 puts over 6,000
//!   keys, two opens, 16 KiB tables), with `expected.txt` recording what
//!   that commit's version sets recovered from them;
//! * an LSM store opened on an FLSM directory still fails with `Corruption`
//!   instead of reading guard-organised levels as sorted runs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pebblesdb::FlsmVersion;
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::{StoreOptions, StorePreset};
use pebblesdb_engine::{FileMetaDataEdit, ShapeVersion, VersionEdit, VersionSet};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::{LsmDb, Version as LsmVersion};
use pebblesdb_wal::LogReader;

const FLSM_EDIT_HEX: &str = concat!(
    "010c023703a84604000304022805012991080d6170706c6501090000000000000d6d656c",
    "6f6e000100000000000005002a920809610109000000000000097a000100000000000007",
    "01016d07030967756172642d6b6579",
);
const LSM_EDIT_HEX: &str = concat!(
    "010c023703a84604000304022805012991080d6170706c6501090000000000000d6d656c",
    "6f6e000100000000000005002a920809610109000000000000097a0001000000000000",
);
const FLSM_MANIFEST_HEX: &str = concat!(
    "1ea63170060001010002030300ac69524b5600010100020303f403050108f00709620109",
    "00000000000009640001000000000000050109f107097001090000000000000974000100",
    "000000000005000af20709610109000000000000097a00010000000000000701016d59c8",
    "dfaa2700010106020303bc0504000a05020bf307096e0109000000000000096f00010000",
    "0000000007020173",
);
const FLSM_REWRITE_HEX: &str = concat!(
    "ab935b367e00010106020403bc05050108f0070962010900000000000009640001000000",
    "000000050109f107097001090000000000000974000100000000000005020bf307096e01",
    "09000000000000096f00010000000000000701016d0702016d070201730703016d070301",
    "730704016d070401730705016d070501730706016d07060173",
);
const LSM_MANIFEST_HEX: &str = concat!(
    "1ea631700600010100020303000d8dee525200010100020303f403050108f00709700109",
    "00000000000009740001000000000000050109f107096201090000000000000964000100",
    "000000000005000af20709610109000000000000097a00010000000000004e2cf5622300",
    "010106020303bc0504000a05020bf307096e0109000000000000096f0001000000000000",
);
const LSM_REWRITE_HEX: &str = concat!(
    "4f6b57375200010106020403bc05050109f1070962010900000000000009640001000000",
    "000000050108f007097001090000000000000974000100000000000005020bf307096e01",
    "09000000000000096f0001000000000000",
);

type Fixture = &'static [(&'static str, &'static [u8])];

const FLSM_FIXTURE: Fixture = &[
    (
        "CURRENT",
        include_bytes!("../fixtures/manifest/flsm/CURRENT"),
    ),
    (
        "MANIFEST-000293",
        include_bytes!("../fixtures/manifest/flsm/MANIFEST-000293"),
    ),
];
const FLSM_EXPECTED: &str = include_str!("../fixtures/manifest/flsm/expected.txt");
/// The snapshot that commit's FLSM version set wrote when it recovered
/// `FLSM_FIXTURE`.
const FLSM_REWRITE_FIXTURE: Fixture = &[
    (
        "CURRENT",
        include_bytes!("../fixtures/manifest/flsm-rewrite/CURRENT"),
    ),
    (
        "MANIFEST-000528",
        include_bytes!("../fixtures/manifest/flsm-rewrite/MANIFEST-000528"),
    ),
];
const LSM_FIXTURE: Fixture = &[
    (
        "CURRENT",
        include_bytes!("../fixtures/manifest/lsm/CURRENT"),
    ),
    (
        "MANIFEST-000164",
        include_bytes!("../fixtures/manifest/lsm/MANIFEST-000164"),
    ),
];
const LSM_EXPECTED: &str = include_str!("../fixtures/manifest/lsm/expected.txt");
/// The snapshot that commit's LSM version set wrote when it recovered
/// `LSM_FIXTURE`.
const LSM_REWRITE: &[u8] = include_bytes!("../fixtures/manifest/lsm-rewrite/MANIFEST-000281");

/// The options the fixtures were written with; only `max_levels` matters to
/// a version set.
const MAX_LEVELS: usize = 7;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn file(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
    FileMetaDataEdit {
        number,
        file_size: 1000 + number,
        smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
            .encoded()
            .to_vec(),
        largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Deletion)
            .encoded()
            .to_vec(),
    }
}

/// The edit the golden encodings were taken from; `guards` adds the FLSM's
/// guard records.
fn golden_edit(guards: bool) -> VersionEdit {
    let mut edit = VersionEdit {
        log_number: Some(12),
        next_file_number: Some(55),
        last_sequence: Some(9000),
        ..Default::default()
    };
    edit.deleted_files.push((0, 3));
    edit.deleted_files.push((2, 40));
    edit.new_files.push((1, file(41, "apple", "melon")));
    edit.new_files.push((0, file(42, "a", "z")));
    if guards {
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_guards.push((3, b"guard-key".to_vec()));
    }
    edit
}

fn mem_dir(fixture: Fixture) -> (Arc<dyn Env>, PathBuf) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = PathBuf::from("/fixture");
    env.create_dir_all(&dir).unwrap();
    for (name, bytes) in fixture {
        let mut file = env.new_writable_file(&dir.join(name)).unwrap();
        file.append(bytes).unwrap();
        file.sync().unwrap();
        file.close().unwrap();
    }
    (env, dir)
}

fn live_manifest(env: &Arc<dyn Env>, dir: &Path) -> (String, Vec<u8>) {
    let current = env.read_file_to_vec(&dir.join("CURRENT")).unwrap();
    let name = String::from_utf8(current).unwrap().trim().to_string();
    let bytes = env.read_file_to_vec(&dir.join(&name)).unwrap();
    (name, bytes)
}

fn records(bytes: &[u8]) -> Vec<VersionEdit> {
    let (env, dir) = mem_dir(&[]);
    let path = dir.join("MANIFEST");
    let mut file = env.new_writable_file(&path).unwrap();
    file.append(bytes).unwrap();
    file.close().unwrap();
    let mut reader = LogReader::new(env.new_sequential_file(&path).unwrap());
    let mut edits = Vec::new();
    while let Some(record) = reader.read_record().unwrap() {
        edits.push(VersionEdit::decode(&record).unwrap());
    }
    edits
}

/// What the pre-merge version set recovered from a fixture.
#[derive(Debug, Default, PartialEq)]
struct Recovered {
    last_sequence: u64,
    log_number: u64,
    next_file_number: u64,
    files: Vec<Vec<u64>>,
    guards: Vec<Vec<String>>,
}

fn parse_expected(text: &str) -> Recovered {
    let mut expected = Recovered::default();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let field = words.next().unwrap();
        let number = |w: &str| w.parse::<u64>().unwrap();
        match field {
            "last_sequence" => expected.last_sequence = number(words.next().unwrap()),
            "log_number" => expected.log_number = number(words.next().unwrap()),
            "next_file_number" => expected.next_file_number = number(words.next().unwrap()),
            "files" => {
                words.next();
                expected.files.push(words.map(number).collect());
            }
            "guards" => {
                words.next();
                expected.guards.push(words.map(str::to_string).collect());
            }
            other => panic!("unknown expected.txt field {other}"),
        }
    }
    expected
}

fn recover<V: ShapeVersion>(fixture: Fixture) -> (VersionSet<V>, Recovered, Arc<dyn Env>) {
    let (env, dir) = mem_dir(fixture);
    let mut versions = VersionSet::<V>::new(Arc::clone(&env), dir, MAX_LEVELS);
    versions.recover().unwrap();
    let version = versions.current_unpinned();
    let files = (0..version.num_levels())
        .map(|l| version.level_files(l).iter().map(|f| f.number).collect())
        .collect();
    let mut guards = vec![Vec::new(); version.num_levels() - 1];
    for (level, key) in version.snapshot_guards() {
        guards[level - 1].push(String::from_utf8(key).unwrap());
    }
    let has_guards = guards.iter().any(|g| !g.is_empty());
    let recovered = Recovered {
        last_sequence: versions.last_sequence,
        log_number: versions.log_number,
        next_file_number: versions.next_file_number(),
        files,
        guards: if has_guards { guards } else { Vec::new() },
    };
    (versions, recovered, env)
}

#[test]
fn flsm_edit_encoding_matches_golden_bytes() {
    let edit = golden_edit(true);
    assert_eq!(hex(&edit.encode()), FLSM_EDIT_HEX);
    assert_eq!(VersionEdit::decode(&unhex(FLSM_EDIT_HEX)).unwrap(), edit);
}

#[test]
fn lsm_edit_encoding_matches_golden_bytes() {
    let edit = golden_edit(false);
    assert_eq!(hex(&edit.encode()), LSM_EDIT_HEX);
    assert_eq!(VersionEdit::decode(&unhex(LSM_EDIT_HEX)).unwrap(), edit);
}

/// create → two commits → recover, against the bytes the pre-merge version
/// sets wrote for the same calls.
fn manifest_bytes_case<V: ShapeVersion>(guards: bool, manifest_hex: &str, rewrite_hex: &str) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = PathBuf::from("/m");
    env.create_dir_all(&dir).unwrap();
    let options = StoreOptions::default();
    let mut versions = VersionSet::<V>::new(Arc::clone(&env), dir.clone(), options.max_levels);
    versions.create_new().unwrap();

    versions.last_sequence = 500;
    let mut edit = VersionEdit::default();
    if guards {
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file(8, "b", "d")));
        edit.new_files.push((1, file(9, "p", "t")));
    } else {
        edit.new_files.push((1, file(8, "p", "t")));
        edit.new_files.push((1, file(9, "b", "d")));
    }
    edit.new_files.push((0, file(10, "a", "z")));
    versions.log_and_apply(edit).unwrap();

    versions.last_sequence = 700;
    let mut edit = VersionEdit {
        log_number: Some(6),
        ..Default::default()
    };
    edit.delete_file(0, 10);
    edit.new_files.push((2, file(11, "n", "o")));
    if guards {
        edit.new_guards.push((2, b"s".to_vec()));
    }
    versions.log_and_apply(edit).unwrap();

    let (name, bytes) = live_manifest(&env, &dir);
    assert_eq!(name, "MANIFEST-000002");
    assert_eq!(hex(&bytes), manifest_hex);

    let mut recovered = VersionSet::<V>::new(Arc::clone(&env), dir.clone(), options.max_levels);
    recovered.recover().unwrap();
    let (name, bytes) = live_manifest(&env, &dir);
    assert_eq!(name, "MANIFEST-000003");
    assert_eq!(hex(&bytes), rewrite_hex);
}

#[test]
fn manifest_bytes_match_for_the_same_edits() {
    manifest_bytes_case::<FlsmVersion>(true, FLSM_MANIFEST_HEX, FLSM_REWRITE_HEX);
    manifest_bytes_case::<LsmVersion>(false, LSM_MANIFEST_HEX, LSM_REWRITE_HEX);
}

#[test]
fn flsm_fixture_recovers_files_guards_and_counters() {
    let (versions, recovered, _) = recover::<FlsmVersion>(FLSM_FIXTURE);
    let expected = parse_expected(FLSM_EXPECTED);
    assert!(expected.guards.iter().all(|g| !g.is_empty()));
    assert_eq!(recovered, expected);
    assert_eq!(versions.manifest_number(), expected.next_file_number - 1);
}

#[test]
fn lsm_fixture_recovers_and_rewrites_byte_identically() {
    let (versions, recovered, env) = recover::<LsmVersion>(LSM_FIXTURE);
    assert_eq!(recovered, parse_expected(LSM_EXPECTED));
    let (name, bytes) = live_manifest(&env, Path::new("/fixture"));
    assert_eq!(name, "MANIFEST-000281");
    assert_eq!(versions.manifest_number(), 281);
    assert_eq!(bytes, LSM_REWRITE);
}

/// The pre-merge FLSM snapshot listed a file once for every guard its range
/// spans; the shared snapshot lists each file once. Apart from those
/// repeated records the snapshots are identical, and both recover to the
/// same version.
#[test]
fn flsm_fixture_snapshot_differs_only_by_repeated_spanning_files() {
    let (_, recovered, env) = recover::<FlsmVersion>(FLSM_FIXTURE);
    let (name, bytes) = live_manifest(&env, Path::new("/fixture"));
    assert_eq!(name, "MANIFEST-000528");
    let ours = records(&bytes);

    let theirs = records(FLSM_REWRITE_FIXTURE[1].1);
    assert_eq!((ours.len(), theirs.len()), (1, 1));
    let mut deduplicated = theirs[0].clone();
    let mut seen = BTreeSet::new();
    deduplicated
        .new_files
        .retain(|(level, f)| seen.insert((*level, f.number)));
    assert!(
        deduplicated.new_files.len() < theirs[0].new_files.len(),
        "the fixture should exercise files spanning several guards"
    );
    assert_eq!(ours[0], deduplicated);
    assert_eq!(ours[0].encode(), deduplicated.encode());

    let (_, from_theirs, _) = recover::<FlsmVersion>(FLSM_REWRITE_FIXTURE);
    // Recovering again allocates one more file number for the new snapshot.
    assert_eq!(
        from_theirs,
        Recovered {
            next_file_number: recovered.next_file_number + 1,
            ..recovered
        }
    );
}

#[test]
fn lsm_open_of_flsm_fixture_is_corruption() {
    let (env, dir) = mem_dir(FLSM_FIXTURE);
    let mut versions = VersionSet::<LsmVersion>::new(Arc::clone(&env), dir.clone(), MAX_LEVELS);
    assert!(versions.recover().unwrap_err().is_corruption());

    let mut options = StoreOptions::default();
    options.max_levels = MAX_LEVELS;
    let err = match LsmDb::open_with_options(env, &dir, options, StorePreset::HyperLevelDb) {
        Ok(_) => panic!("an LSM store opened an FLSM directory"),
        Err(err) => err,
    };
    assert!(err.is_corruption(), "unexpected error: {err}");
}
