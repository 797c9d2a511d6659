//! Opens the evaluated stores behind the shared `KvStore` trait.

use std::path::Path;
use std::sync::Arc;

use pebblesdb::{FlsmPolicy, PebblesDb, ShapePolicy};
use pebblesdb_btree::BTreeStore;
use pebblesdb_common::{Db, KvStore, PrefixDb, Result, StoreOptions, StorePreset};
use pebblesdb_env::{DiskEnv, Env, MemEnv};
use pebblesdb_lsm::{LsmDb, LsmPolicy};
use pebblesdb_shard::{ShardConfig, ShardedDb};

/// Which store an experiment runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The FLSM engine with paper-default options.
    PebblesDb,
    /// The FLSM engine with `max_sstables_per_guard = 1`.
    PebblesDb1,
    /// Baseline LSM with HyperLevelDB parameters.
    HyperLevelDb,
    /// Baseline LSM with LevelDB parameters.
    LevelDb,
    /// Baseline LSM with RocksDB parameters.
    RocksDb,
    /// The page-oriented B+Tree store (KyotoCabinet / WiredTiger stand-in).
    BTree,
}

impl EngineKind {
    /// Every engine, in the order the paper's figures list them.
    pub fn all() -> Vec<EngineKind> {
        vec![
            EngineKind::PebblesDb,
            EngineKind::HyperLevelDb,
            EngineKind::LevelDb,
            EngineKind::RocksDb,
            EngineKind::BTree,
            EngineKind::PebblesDb1,
        ]
    }

    /// The four stores compared throughout the paper's figures.
    pub fn paper_four() -> Vec<EngineKind> {
        vec![
            EngineKind::PebblesDb,
            EngineKind::HyperLevelDb,
            EngineKind::LevelDb,
            EngineKind::RocksDb,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::PebblesDb => "PebblesDB",
            EngineKind::PebblesDb1 => "PebblesDB-1",
            EngineKind::HyperLevelDb => "HyperLevelDB",
            EngineKind::LevelDb => "LevelDB",
            EngineKind::RocksDb => "RocksDB",
            EngineKind::BTree => "BTree",
        }
    }

    /// Parses a `--engine` flag value.
    pub fn from_flag(value: &str) -> Option<EngineKind> {
        match value.to_ascii_lowercase().as_str() {
            "pebblesdb" | "pebbles" | "flsm" => Some(EngineKind::PebblesDb),
            "pebblesdb-1" | "pebblesdb1" => Some(EngineKind::PebblesDb1),
            "hyperleveldb" | "hyper" => Some(EngineKind::HyperLevelDb),
            "leveldb" => Some(EngineKind::LevelDb),
            "rocksdb" => Some(EngineKind::RocksDb),
            "btree" | "wiredtiger" | "kyotocabinet" => Some(EngineKind::BTree),
            _ => None,
        }
    }

    /// The paper preset this engine runs with. The B+Tree borrows LevelDB's
    /// buffer and cache sizes.
    pub fn preset(self) -> StorePreset {
        match self {
            EngineKind::PebblesDb => StorePreset::PebblesDb,
            EngineKind::PebblesDb1 => StorePreset::PebblesDb1,
            EngineKind::HyperLevelDb => StorePreset::HyperLevelDb,
            EngineKind::LevelDb | EngineKind::BTree => StorePreset::LevelDb,
            EngineKind::RocksDb => StorePreset::RocksDb,
        }
    }
}

/// Benchmark options: the paper-preset parameters scaled down by
/// `scale_divisor` so multi-level behaviour appears at laptop-size datasets.
pub fn scaled_options(kind: EngineKind, scale_divisor: usize) -> StoreOptions {
    let mut options = StoreOptions::with_preset(kind.preset()).scale_down(scale_divisor);
    // Guard density is tuned for the scaled-down key counts used in the
    // harness (tens of thousands to a few million keys): roughly a few dozen
    // guards in the deepest populated level, as in the paper's configuration.
    options.top_level_bits = 14;
    options.bit_decrement = 2;
    // Keep output sstables reasonably sized and the table cache large enough
    // that reads are not dominated by re-opening files at bench scale.
    options.max_file_size = options.max_file_size.max(256 << 10);
    options.block_cache_capacity = options.block_cache_capacity.max(2 << 20);
    options.max_open_files = 8192;
    // Parallel seeks pay off when last-level sstables sit on a cold device;
    // the default bench environment is in-memory, where spawning the seek
    // threads costs more than it saves, so the harness turns them off. The
    // ablation binary re-enables them explicitly.
    options.enable_parallel_seeks = false;
    options
}

/// Opens the engine `kind` in `dir` using `env`.
pub fn open_engine(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    scale_divisor: usize,
) -> Result<Arc<dyn KvStore>> {
    open_engine_with_options(kind, env, dir, scaled_options(kind, scale_divisor))
}

/// Opens the engine `kind` with explicit (already scaled) options — used by
/// drivers that override individual knobs such as `compaction_threads`.
pub fn open_engine_with_options(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
) -> Result<Arc<dyn KvStore>> {
    if kind == EngineKind::BTree {
        return Ok(Arc::new(BTreeStore::open(env, dir, options)?));
    }
    Ok(open_chassis(kind, env, dir, options, None)?)
}

/// Opens the engine `kind` as a multi-namespace [`Db`]. The LSM-family
/// engines provide column families natively (chassis feature); the B+Tree
/// serves them through the shared key-prefix emulation.
pub fn open_db(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    scale_divisor: usize,
) -> Result<Arc<dyn Db>> {
    open_db_with_options(kind, env, dir, scaled_options(kind, scale_divisor))
}

/// Like [`open_db`] with explicit (already scaled) options.
pub fn open_db_with_options(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
) -> Result<Arc<dyn Db>> {
    if kind == EngineKind::BTree {
        return Ok(Arc::new(PrefixDb::new(Arc::new(BTreeStore::open(
            env, dir, options,
        )?))));
    }
    open_chassis(kind, env, dir, options, None)
}

/// Opens the engine `kind` as a [`ShardedDb`] facade over `config.shards` independent instances (each with its own
/// WAL, flush thread and compaction pool) in `shard-<i>/` subdirectories of
/// `dir`. Only the LSM-family engines shard — the B+Tree has no shape
/// policy to replicate.
pub fn open_sharded_db_with_options(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
    config: ShardConfig,
) -> Result<Arc<dyn Db>> {
    open_chassis(kind, env, dir, options, Some(config))
}

/// Opens an LSM-family engine on the shared chassis, shaped and labelled by
/// `kind.preset()`: one store, or a [`ShardedDb`] of them when `shards` is
/// set. The B+Tree has no shape policy and is rejected.
fn open_chassis(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
    shards: Option<ShardConfig>,
) -> Result<Arc<dyn Db>> {
    let preset = kind.preset();
    let lsm = |o: &StoreOptions| LsmPolicy::with_preset(o, preset);
    Ok(match (kind, shards) {
        (EngineKind::BTree, _) => {
            return Err(pebblesdb_common::Error::invalid_argument(
                "--shards requires an LSM-family engine",
            ));
        }
        (EngineKind::PebblesDb | EngineKind::PebblesDb1, None) => {
            Arc::new(PebblesDb::open_with_options(env, dir, options)?)
        }
        (EngineKind::PebblesDb | EngineKind::PebblesDb1, Some(config)) => Arc::new(
            ShardedDb::open_with(FlsmPolicy::new, env, dir, options, config)?,
        ),
        (_, None) => Arc::new(LsmDb::open(lsm(&options), env, dir, options)?),
        (_, Some(config)) => Arc::new(ShardedDb::open_with(lsm, env, dir, options, config)?),
    })
}

/// Creates the environment requested by `--env` (`mem` or `disk`).
///
/// Disk runs use a per-engine directory under the system temp directory (or
/// `--dir` if given); memory runs are hermetic and are the default, matching
/// the fully-cached configuration used for unit-scale runs.
pub fn open_bench_env(
    env_kind: &str,
    engine: EngineKind,
    dir_flag: &str,
) -> (Arc<dyn Env>, std::path::PathBuf) {
    let (env, _, dir) = open_bench_env_full(env_kind, engine, dir_flag);
    (env, dir)
}

/// Like [`open_bench_env`] but also hands back the concrete [`MemEnv`] (when
/// the environment is in-memory) so drivers can use its fault-injection
/// hooks — e.g. adding per-append sstable latency to emulate a slow device.
pub fn open_bench_env_full(
    env_kind: &str,
    engine: EngineKind,
    dir_flag: &str,
) -> (Arc<dyn Env>, Option<MemEnv>, std::path::PathBuf) {
    match env_kind {
        "disk" => {
            let base = if dir_flag.is_empty() {
                std::env::temp_dir().join("pebblesdb-bench")
            } else {
                std::path::PathBuf::from(dir_flag)
            };
            let dir = base.join(format!("{}-{}", engine.name(), std::process::id()));
            let env = DiskEnv::new();
            let _ = env.remove_dir_all(&dir);
            (Arc::new(env), None, dir)
        }
        _ => {
            let mem = MemEnv::new();
            (
                Arc::new(mem.clone()),
                Some(mem),
                std::path::PathBuf::from(format!("/bench/{}", engine.name())),
            )
        }
    }
}
