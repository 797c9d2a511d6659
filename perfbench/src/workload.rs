//! The four workloads, the answer model and the client that times calls.
//!
//! | name     | set-up                                   | timed phase |
//! |----------|------------------------------------------|-------------|
//! | `fill`   | open an empty store                      | 500k uniform puts over 500k keys, then drain |
//! | `read`   | `fill`'s load, then settle               | uniform point gets over the same keys |
//! | `scan`   | as `read`                                | uniform `iter` + `seek` + up to 50 `next` |
//! | `mixed`  | load 10k keys, then settle               | 200k ops per `--seconds`, scrambled-zipfian 50% get / 50% update, then drain |
//!
//! `fill` and `mixed` are fixed work (`mixed` sized from `--seconds`), so
//! their write and space amplification compare between runs; `read` and
//! `scan` run for the requested seconds.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_bench::engines::{scaled_options, EngineKind};
use pebblesdb_bench::keygen::bench_key;
use pebblesdb_common::{CompressionType, KvStore, ReadOptions, Result, StoreOptions, StoreStats};
use pebblesdb_env::{DiskEnv, Env};
use pebblesdb_ycsb::generators::{Generator, ScrambledZipfianGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::idle::{close_within, settle, CLOSE_DEADLINE, SETTLE_DEADLINE, SETTLE_WINDOW};
use crate::stats::{median, Latencies};
use crate::trace::{self, ClientEnv, Recorder, RecordingEnv};

/// Key space and put count of `fill` (and of the `read`/`scan` load).
pub const FILL_KEYS: u64 = 500_000;
/// Key space of `mixed`.
pub const MIXED_KEYS: u64 = 10_000;
/// Most entries one scan returns.
pub const SCAN_LEN: usize = 50;
/// Untimed scans `scan`'s set-up makes before timing. Each tenth cursor
/// arms a seek-triggered compaction, and after roughly 2000 cursors these
/// push data into a level whose guards are then all committed at once
/// (about 4k guards become 11.5k), which slows every later cursor build.
/// Warming past that step keeps it out of the timed phase, whose length
/// would otherwise decide how many scans land on each side of it.
pub const SCAN_WARMUP: usize = 2500;
/// Untimed scans the traced `read` run makes after its timed phase, so that
/// the cursor layer (`iter.*`, `api.scan.*`) is measured on a benchmarked
/// workload.
pub const ITER_PROBES: usize = 500;
/// Bytes per value: an 8-byte key index, a 4-byte version, then filler.
pub const VALUE_LEN: usize = 128;
const KEY_LEN: usize = 16;
/// `mixed` makes this many ops per requested second. Its work is fixed for a
/// given `--seconds` rather than timed: its on-disk bytes follow a sawtooth a
/// few seconds long (overwrites pile up until a compaction into the last
/// level drops them), and a run that stops after a machine-dependent number
/// of ops lands anywhere on it.
pub const MIXED_OPS_PER_S: f64 = 200_000.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform puts into an empty store, then drain.
    Fill,
    /// Uniform point gets over a loaded, idle store.
    Read,
    /// Short range scans over a loaded, idle store.
    Scan,
    /// Skewed gets and updates over a small, cached key space.
    Mixed,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fill" => Some(Workload::Fill),
            "read" => Some(Workload::Read),
            "scan" => Some(Workload::Scan),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fill => "fill",
            Workload::Read => "read",
            Workload::Scan => "scan",
            Workload::Mixed => "mixed",
        }
    }

    /// How many stores one untraced run sets up and times in turn, each for
    /// its share of the timed work; `setup_s` is the median of their set-ups.
    pub fn segments(self) -> usize {
        match self {
            // Each segment is a whole 500k-put fill.
            Workload::Fill => 2,
            // Compaction on two workers leaves each load's tree a different
            // shape (files per guard varies by about a quarter), and get
            // latency follows it; pooling stores averages the shapes.
            Workload::Read | Workload::Scan => 3,
            // Set-up is short; more segments give more set-up samples.
            Workload::Mixed => 5,
        }
    }
}

/// The fixed store configuration of every workload.
pub fn store_options() -> StoreOptions {
    let mut options = scaled_options(EngineKind::PebblesDb, 16);
    options.compression = CompressionType::None;
    options.compression_per_level.clear();
    options.value_separation_threshold = 0;
    options
}

/// The latest version written for each key index (0: never written).
pub struct Model {
    versions: Vec<u32>,
}

impl Model {
    /// A model of `keys` absent keys.
    pub fn new(keys: u64) -> Model {
        Model {
            versions: vec![0; keys as usize],
        }
    }

    /// Records a new write of `index` and returns its version.
    pub fn bump(&mut self, index: u64) -> u32 {
        let v = &mut self.versions[index as usize];
        *v += 1;
        *v
    }

    /// Latest version of `index`, 0 if absent.
    pub fn version(&self, index: u64) -> u32 {
        self.versions[index as usize]
    }

    /// Number of present keys.
    pub fn live(&self) -> u64 {
        self.versions.iter().filter(|&&v| v > 0).count() as u64
    }

    /// The first `limit` present keys at or after `start`, with versions.
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(limit);
        for (i, &v) in self.versions.iter().enumerate().skip(start as usize) {
            if out.len() == limit {
                break;
            }
            if v > 0 {
                out.push((i as u64, v));
            }
        }
        out
    }
}

/// Builds values: a header naming the key and version, then seeded filler.
pub struct Values {
    filler: Vec<u8>,
}

impl Values {
    /// Filler drawn from `rng`.
    pub fn new(rng: &mut StdRng) -> Values {
        Values {
            filler: (0..VALUE_LEN).map(|_| rng.gen()).collect(),
        }
    }

    /// The value of version `version` of key `index`.
    pub fn make(&mut self, index: u64, version: u32) -> &[u8] {
        self.filler[..8].copy_from_slice(&index.to_le_bytes());
        self.filler[8..12].copy_from_slice(&version.to_le_bytes());
        &self.filler
    }
}

/// Whether `value` is version `version` of key `index`.
pub fn value_matches(value: &[u8], index: u64, version: u32) -> bool {
    value.len() == VALUE_LEN
        && value[..8] == index.to_le_bytes()
        && value[8..12] == version.to_le_bytes()
}

/// Key/value pairs a scan returned, in order.
pub type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Whether a scan returned exactly `expected`, in order.
fn scan_matches(got: &Entries, expected: &[(u64, u32)]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((k, v), &(i, ver))| *k == bench_key(i) && value_matches(v, i, ver))
}

/// A store in its own directory.
pub struct Store {
    /// The open store.
    pub db: Arc<PebblesDb>,
    dir: PathBuf,
}

impl Store {
    /// Opens an empty store in `dir` on the disk, through `rec` when tracing.
    pub fn open(dir: PathBuf, rec: Option<&Arc<Recorder>>) -> Result<Store> {
        let disk: Arc<dyn Env> = Arc::new(DiskEnv::new());
        let _ = disk.remove_dir_all(&dir);
        let env: Arc<dyn Env> = match rec {
            Some(rec) => Arc::new(RecordingEnv::new(disk, Arc::clone(rec))),
            None => disk,
        };
        let db = Arc::new(PebblesDb::open_with_options(env, &dir, store_options())?);
        Ok(Store { db, dir })
    }

    /// Closes under the watchdog and removes the directory. Returns `false`
    /// if the close missed its deadline.
    pub fn close(self) -> bool {
        let closed = close_within(self.db, CLOSE_DEADLINE);
        let _ = std::fs::remove_dir_all(&self.dir);
        closed
    }
}

/// Number of files, guards and empty guards, from the public shape calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// sstables in every level.
    pub files: u64,
    /// sstables in levels 1 and deeper (the guarded levels).
    pub guarded_files: u64,
    /// Guards in levels 1 and deeper.
    pub guards: u64,
    /// Guards holding no sstable.
    pub empty_guards: u64,
}

impl Shape {
    /// Reads the shape of `db`.
    pub fn of(db: &PebblesDb) -> Shape {
        let files = db.files_per_level();
        let guards = db.guards_per_level();
        Shape {
            files: files.iter().sum::<usize>() as u64,
            guarded_files: files.iter().skip(1).sum::<usize>() as u64,
            guards: guards.iter().skip(1).sum::<usize>() as u64,
            empty_guards: db.empty_guards() as u64,
        }
    }

    /// sstables per guard in the guarded levels.
    pub fn files_per_guard(&self) -> f64 {
        ratio(self.guarded_files as f64, self.guards as f64)
    }
}

/// Peak resident set of this process, in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-operation figures only the traced run collects.
#[derive(Default)]
pub struct TraceFigures {
    /// Op time minus the client thread's env time, per op kind.
    pub self_ns: [Latencies; 3],
    /// Summed op time per op kind, in nanoseconds.
    pub op_ns: [u64; 3],
    /// Summed client-thread env time per op kind, in nanoseconds.
    pub env_ns: [u64; 3],
    /// Traced gets.
    pub gets: u64,
    /// Gets that found no value.
    pub absent_gets: u64,
    /// sstable reads made by gets.
    pub get_sst_reads: u64,
    /// sstable reads made by gets of absent keys.
    pub absent_get_sst_reads: u64,
    /// Nanoseconds of sstable reads made by gets.
    pub get_sst_read_ns: u64,
    /// `iter()` call times.
    pub iter_create: Latencies,
    /// `seek` call times.
    pub iter_seek: Latencies,
    /// `next` call times.
    pub iter_next: Latencies,
}

/// Op kinds, indexing [`TraceFigures`] arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `put`.
    Put = 0,
    /// `get`.
    Get = 1,
    /// One scan: `iter` + `seek` + up to [`SCAN_LEN`] `next`.
    Scan = 2,
}

/// Op kind names, for metric names.
pub const OP_NAMES: [&str; 3] = ["put", "get", "scan"];

/// The single client: calls the store, times each call, and when tracing
/// tags the call with an op id and takes the client thread's env time out.
pub struct Client<'a> {
    db: &'a PebblesDb,
    rec: Option<&'a Recorder>,
    next_op: u64,
    /// Traced-run figures (empty when untraced).
    pub traced: TraceFigures,
}

impl<'a> Client<'a> {
    /// A client of `db`, tracing into `rec` when given.
    pub fn new(db: &'a PebblesDb, rec: Option<&'a Recorder>) -> Client<'a> {
        Client {
            db,
            rec,
            next_op: 0,
            traced: TraceFigures::default(),
        }
    }

    /// Runs `f` as one op and returns its result and duration in ns.
    fn timed<T>(&mut self, kind: OpKind, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let Some(rec) = self.rec else {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_nanos() as u64);
        };
        self.next_op += 1;
        trace::begin_op(self.next_op);
        let env0 = ClientEnv::now();
        let t0 = rec.now_ns();
        let r = f(self);
        let ns = rec.now_ns() - t0;
        trace::end_op();
        let env = ClientEnv::now().since(env0);
        let k = kind as usize;
        self.traced.op_ns[k] += ns;
        self.traced.env_ns[k] += env.busy_ns;
        self.traced.self_ns[k].push(ns.saturating_sub(env.busy_ns));
        if kind == OpKind::Get {
            self.traced.gets += 1;
            self.traced.get_sst_reads += env.sst_reads;
            self.traced.get_sst_read_ns += env.sst_read_ns;
        }
        (r, ns)
    }

    /// One put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> (Result<()>, u64) {
        self.timed(OpKind::Put, |c| c.db.put(key, value))
    }

    /// One get.
    pub fn get(&mut self, key: &[u8]) -> (Result<Option<Vec<u8>>>, u64) {
        let before = self.rec.map(|_| ClientEnv::now());
        let (r, ns) = self.timed(OpKind::Get, |c| c.db.get(key));
        if let (Some(before), Ok(None)) = (before, &r) {
            self.traced.absent_gets += 1;
            self.traced.absent_get_sst_reads += ClientEnv::now().since(before).sst_reads;
        }
        (r, ns)
    }

    /// One scan of up to [`SCAN_LEN`] entries from `start`.
    pub fn scan(&mut self, start: &[u8]) -> (Result<Entries>, u64) {
        self.timed(OpKind::Scan, |c| match c.rec {
            None => {
                let mut it = c.db.iter(&ReadOptions::default())?;
                it.seek(start);
                let mut out = Vec::with_capacity(SCAN_LEN);
                while it.valid() && out.len() < SCAN_LEN {
                    out.push((it.key().to_vec(), it.value().to_vec()));
                    it.next();
                }
                it.status()?;
                Ok(out)
            }
            Some(rec) => {
                let t = rec.now_ns();
                let mut it = c.db.iter(&ReadOptions::default())?;
                c.traced.iter_create.push(rec.now_ns() - t);
                let t = rec.now_ns();
                it.seek(start);
                c.traced.iter_seek.push(rec.now_ns() - t);
                let mut out = Vec::with_capacity(SCAN_LEN);
                while it.valid() && out.len() < SCAN_LEN {
                    out.push((it.key().to_vec(), it.value().to_vec()));
                    let t = rec.now_ns();
                    it.next();
                    c.traced.iter_next.push(rec.now_ns() - t);
                }
                it.status()?;
                Ok(out)
            }
        })
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct RunResult {
    /// Ops issued: timed ops, answer checks and closes.
    pub attempted: u64,
    /// Ops that returned an error, a wrong answer, or missed a deadline.
    pub failed: u64,
    /// Wrong answers among `failed`.
    pub wrong: u64,
    /// Closes that missed [`CLOSE_DEADLINE`].
    pub close_timeouts: u64,
    /// Settles that missed [`SETTLE_DEADLINE`] or whose flush failed.
    pub settle_failures: u64,
    /// Set-up times, one per set-up.
    pub setup_s: Vec<f64>,
    /// Timed ops.
    pub ops: u64,
    /// Length of the timed phase, drain included.
    pub timed: Duration,
    /// Length of the drain that ends a write-bearing timed phase.
    pub drain: Duration,
    /// Latency of each timed op, by kind.
    pub lat: [Latencies; 3],
    /// Store stats after set-up and at the end of the timed phase, of the
    /// last segment.
    pub stats: (StoreStats, StoreStats),
    /// Tree shape after set-up and at the end of the timed phase, of the
    /// last segment.
    pub shape: (Shape, Shape),
    /// User bytes written, summed over the segments' stores.
    pub user_bytes: u64,
    /// Device bytes written, summed over the segments' stores.
    pub device_bytes: u64,
    /// Live on-disk bytes at the end, summed over the segments' stores.
    pub disk_live_bytes: u64,
    /// Logical bytes of the live keys at the end, summed over the segments.
    pub live_bytes: u64,
    /// Peak resident set of the process when the run ended, in MiB.
    pub rss_peak_mb: f64,
    /// Traced-run figures, of the last segment.
    pub traced: TraceFigures,
    /// Recorder counters at the start and end of the last segment's timed
    /// phase.
    pub tallies: Option<(trace::TallySnapshot, trace::TallySnapshot)>,
}

impl RunResult {
    /// Timed ops per second.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.timed.as_secs_f64())
    }

    /// Median set-up time in seconds.
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Device bytes written per user byte, over the segments' stores.
    pub fn write_amp(&self) -> f64 {
        ratio(self.device_bytes as f64, self.user_bytes as f64)
    }

    /// Live on-disk bytes per logical live byte, over the segments' stores.
    pub fn space_amp(&self) -> f64 {
        ratio(self.disk_live_bytes as f64, self.live_bytes as f64)
    }

    fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("perfbench: {what}");
        self.failed += 1;
    }

    fn settle(&mut self, db: &Arc<PebblesDb>) {
        if let Err(e) = settle(db, SETTLE_WINDOW, SETTLE_DEADLINE) {
            self.settle_failures += 1;
            self.fail(format!("settle: {e}"));
        }
    }

    fn close(&mut self, store: Store) {
        self.attempted += 1;
        if !store.close() {
            self.close_timeouts += 1;
            self.fail(format!("close missed its {CLOSE_DEADLINE:?} deadline"));
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            self.fail(what());
        }
    }
}

/// Seeded generator for one purpose (`stream`) of one run.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

const LOAD_STREAM: u64 = 1;
const OPS_STREAM: u64 = 2;
const VALUE_STREAM: u64 = 3;
const WARMUP_STREAM: u64 = 4;
const PROBE_STREAM: u64 = 5;

/// `FILL_KEYS` puts of keys drawn uniformly with replacement from
/// `FILL_KEYS` keys, generated before they are timed.
struct UniformPuts {
    indices: Vec<u64>,
    keys: Vec<[u8; KEY_LEN]>,
}

impl UniformPuts {
    fn generate(rng: &mut StdRng) -> UniformPuts {
        let indices: Vec<u64> = (0..FILL_KEYS)
            .map(|_| rng.gen_range(0..FILL_KEYS))
            .collect();
        let keys = indices
            .iter()
            .map(|&i| bench_key(i).try_into().expect("bench keys are 16 bytes"))
            .collect();
        UniformPuts { indices, keys }
    }

    /// Makes every put, recording each op's latency in `res` when `timed`.
    fn apply(
        &self,
        client: &mut Client,
        model: &mut Model,
        values: &mut Values,
        res: &mut RunResult,
        timed: bool,
    ) {
        for (&index, key) in self.indices.iter().zip(&self.keys) {
            let version = model.bump(index);
            let (r, ns) = client.put(key, values.make(index, version));
            res.attempted += 1;
            if timed {
                res.ops += 1;
                res.lat[OpKind::Put as usize].push(ns);
            }
            if let Err(e) = r {
                res.fail(format!("put {index}: {e}"));
            }
        }
    }
}

/// One scan from a uniform start, checked against `model`; its latency is
/// recorded when `timed`.
fn scan_once(
    client: &mut Client,
    model: &Model,
    rng: &mut StdRng,
    res: &mut RunResult,
    timed: bool,
) {
    let index = rng.gen_range(0..FILL_KEYS);
    let (r, ns) = client.scan(&bench_key(index));
    res.attempted += 1;
    if timed {
        res.ops += 1;
        res.lat[OpKind::Scan as usize].push(ns);
    }
    match r {
        Ok(got) => {
            let expected = model.scan(index, SCAN_LEN);
            res.check(scan_matches(&got, &expected), || {
                format!("scan from {index}: wrong entries")
            });
        }
        Err(e) => res.fail(format!("scan from {index}: {e}")),
    }
}

/// A store brought to a workload's starting state.
struct Prepared {
    store: Store,
    model: Model,
    /// `fill`'s timed puts, generated during set-up.
    fill: Option<UniformPuts>,
}

/// Opens a store in `dir` and brings it to the workload's starting state.
/// `rng` gives the set-up's random streams.
fn set_up(
    workload: Workload,
    dir: PathBuf,
    rng: &impl Fn(u64) -> StdRng,
    rec: Option<&Arc<Recorder>>,
    res: &mut RunResult,
) -> Result<Prepared> {
    let store = Store::open(dir, rec)?;
    let mut values = Values::new(&mut rng(VALUE_STREAM));
    let (model, fill) = match workload {
        Workload::Fill => (
            Model::new(FILL_KEYS),
            Some(UniformPuts::generate(&mut rng(OPS_STREAM))),
        ),
        Workload::Read | Workload::Scan => {
            let mut model = Model::new(FILL_KEYS);
            let mut client = Client::new(&store.db, None);
            UniformPuts::generate(&mut rng(LOAD_STREAM)).apply(
                &mut client,
                &mut model,
                &mut values,
                res,
                false,
            );
            res.settle(&store.db);
            if workload == Workload::Scan {
                let mut warm = rng(WARMUP_STREAM);
                for _ in 0..SCAN_WARMUP {
                    scan_once(&mut client, &model, &mut warm, res, false);
                }
                res.settle(&store.db);
            }
            (model, None)
        }
        Workload::Mixed => {
            let mut model = Model::new(MIXED_KEYS);
            for index in 0..MIXED_KEYS {
                let version = model.bump(index);
                res.attempted += 1;
                if let Err(e) = store.db.put(&bench_key(index), values.make(index, version)) {
                    res.fail(format!("load put {index}: {e}"));
                }
            }
            res.settle(&store.db);
            (model, None)
        }
    };
    Ok(Prepared { store, model, fill })
}

/// Checks the whole store against `model` with one cursor walk.
fn verify_all(db: &PebblesDb, model: &Model, res: &mut RunResult) {
    res.attempted += 1;
    let walk = || -> Result<Option<String>> {
        let mut expected = model.scan(0, model.versions.len()).into_iter();
        let mut it = db.iter(&ReadOptions::default())?;
        it.seek_to_first();
        while it.valid() {
            match expected.next() {
                Some((i, ver)) if it.key() == bench_key(i) && value_matches(it.value(), i, ver) => {
                }
                Some((i, ver)) => return Ok(Some(format!("expected key {i} version {ver}"))),
                None => return Ok(Some("entries past the model's last live key".into())),
            }
            it.next();
        }
        it.status()?;
        Ok(expected
            .next()
            .map(|(i, _)| format!("key {i} and later missing")))
    };
    match walk() {
        Ok(None) => {}
        Ok(Some(wrong)) => res.check(false, || format!("full scan: {wrong}")),
        Err(e) => res.fail(format!("full scan: {e}")),
    }
}

/// Runs `workload` once over `segments` stores in turn: each is set up,
/// timed for its share of the run, and closed. The run pools their ops.
///
/// `work_dir` holds the store directories; `rec` turns tracing on.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    segments: usize,
    rec: Option<&Arc<Recorder>>,
) -> Result<RunResult> {
    let mut res = RunResult::default();
    let segments = segments.max(1);
    let mixed_ops = (seconds * MIXED_OPS_PER_S) as u64;
    // Room for every sample, touched up front so that the resident set does
    // not depend on how many ops a run completes or when a vector regrows.
    let room = |kind: OpKind| match (workload, kind) {
        (Workload::Fill, OpKind::Put) => segments * FILL_KEYS as usize,
        (Workload::Read, OpKind::Get) => (seconds * 3e5) as usize,
        (Workload::Scan, OpKind::Scan) => (seconds * 2e3) as usize,
        (Workload::Mixed, OpKind::Get | OpKind::Put) => mixed_ops as usize,
        _ => 0,
    };
    for kind in [OpKind::Put, OpKind::Get, OpKind::Scan] {
        res.lat[kind as usize] = Latencies::with_touched_capacity(room(kind));
    }
    for segment in 0..segments {
        let dir = work_dir.join(format!(
            "{}-{}-{segment}",
            workload.name(),
            std::process::id()
        ));
        let streams = |stream: u64| rng(seed, stream + 16 * segment as u64);
        let t = Instant::now();
        let prepared = set_up(workload, dir, &streams, rec, &mut res)?;
        res.setup_s.push(t.elapsed().as_secs_f64());
        let share = Share {
            duration: Duration::from_secs_f64(seconds / segments as f64),
            mixed_ops: mixed_ops / segments as u64,
        };
        timed_segment(workload, prepared, &streams, share, rec, &mut res);
    }
    res.rss_peak_mb = rss_peak_mb();
    Ok(res)
}

/// One segment's share of a run's timed work.
struct Share {
    /// How long `read` and `scan` run.
    duration: Duration,
    /// How many ops `mixed` makes.
    mixed_ops: u64,
}

/// Times one prepared store, checks it, settles it and closes it.
fn timed_segment(
    workload: Workload,
    prepared: Prepared,
    rng: &impl Fn(u64) -> StdRng,
    share: Share,
    rec: Option<&Arc<Recorder>>,
    res: &mut RunResult,
) {
    let Prepared {
        store,
        mut model,
        fill,
    } = prepared;
    let db = Arc::clone(&store.db);
    res.stats.0 = db.stats();
    res.shape.0 = Shape::of(&db);
    let rec = rec.map(|r| &**r);
    if let Some(r) = rec {
        r.clear_spans();
    }
    let tally0 = rec.map(Recorder::snapshot);

    let mut client = Client::new(&db, rec);
    let mut ops_rng = rng(OPS_STREAM);
    let mut values = Values::new(&mut rng(VALUE_STREAM));
    let mut drain = Duration::ZERO;
    let start = Instant::now();
    match workload {
        Workload::Fill => {
            let puts = fill.expect("fill's set-up generates its puts");
            puts.apply(&mut client, &mut model, &mut values, res, true);
            let t = Instant::now();
            res.settle(&db);
            drain = t.elapsed();
        }
        Workload::Read => {
            while start.elapsed() < share.duration {
                let index = ops_rng.gen_range(0..FILL_KEYS);
                let (r, ns) = client.get(&bench_key(index));
                res.ops += 1;
                res.attempted += 1;
                res.lat[OpKind::Get as usize].push(ns);
                check_get(res, &model, index, r);
            }
        }
        Workload::Scan => {
            while start.elapsed() < share.duration {
                scan_once(&mut client, &model, &mut ops_rng, res, true);
            }
        }
        Workload::Mixed => {
            let mut keys = ScrambledZipfianGenerator::new(MIXED_KEYS);
            for _ in 0..share.mixed_ops {
                let index = keys.next(&mut ops_rng);
                res.ops += 1;
                res.attempted += 1;
                if ops_rng.gen_bool(0.5) {
                    let (r, ns) = client.get(&bench_key(index));
                    res.lat[OpKind::Get as usize].push(ns);
                    check_get(res, &model, index, r);
                } else {
                    let version = model.bump(index);
                    let (r, ns) = client.put(&bench_key(index), values.make(index, version));
                    res.lat[OpKind::Put as usize].push(ns);
                    if let Err(e) = r {
                        res.fail(format!("put {index}: {e}"));
                    }
                }
            }
            let t = Instant::now();
            res.settle(&db);
            drain = t.elapsed();
        }
    }
    res.timed += start.elapsed();
    res.drain += drain;
    let end = db.stats();
    res.shape.1 = Shape::of(&db);
    res.tallies = tally0.zip(rec.map(Recorder::snapshot));
    if workload == Workload::Read && rec.is_some() {
        let mut probe = rng(PROBE_STREAM);
        for _ in 0..ITER_PROBES {
            scan_once(&mut client, &model, &mut probe, res, false);
        }
    }
    res.traced = std::mem::take(&mut client.traced);
    res.user_bytes += end.user_bytes_written;
    res.device_bytes += end.bytes_written;
    res.disk_live_bytes += end.disk_bytes_live;
    res.live_bytes += model.live() * (KEY_LEN + VALUE_LEN) as u64;
    res.stats.1 = end;
    if workload == Workload::Fill {
        verify_all(&db, &model, res);
    }
    // `scan` leaves seek-triggered compactions running; closing a store
    // mid-compaction can hang, so every store is idle before it closes.
    if matches!(workload, Workload::Read | Workload::Scan) {
        res.settle(&db);
    }
    drop(db);
    res.close(store);
}

fn check_get(res: &mut RunResult, model: &Model, index: u64, r: Result<Option<Vec<u8>>>) {
    let version = model.version(index);
    match r {
        Ok(Some(v)) => res.check(version > 0 && value_matches(&v, index, version), || {
            format!("get {index}: wrong value (model version {version})")
        }),
        Ok(None) => res.check(version == 0, || {
            format!("get {index}: missing (model version {version})")
        }),
        Err(e) => res.fail(format!("get {index}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_scans_skip_absent_keys() {
        let mut m = Model::new(10);
        m.bump(2);
        m.bump(5);
        m.bump(5);
        m.bump(9);
        assert_eq!(m.scan(0, 2), vec![(2, 1), (5, 2)]);
        assert_eq!(m.scan(6, 50), vec![(9, 1)]);
        assert_eq!(m.scan(10, 50), vec![]);
        assert_eq!(m.live(), 3);
    }

    #[test]
    fn values_carry_index_and_version() {
        let mut values = Values::new(&mut rng(1, VALUE_STREAM));
        let v = values.make(42, 7).to_vec();
        assert_eq!(v.len(), VALUE_LEN);
        assert!(value_matches(&v, 42, 7));
        assert!(!value_matches(&v, 42, 8));
        assert!(!value_matches(&v, 41, 7));
        assert!(!value_matches(&v[..100], 42, 7));
    }

    #[test]
    fn fixed_configuration() {
        let o = store_options();
        assert_eq!(o.write_buffer_size, 256 << 10);
        assert_eq!(o.block_cache_capacity, 2 << 20);
        assert_eq!(o.compaction_threads, 2);
        assert_eq!(o.seek_compaction_threshold, 10);
        assert_eq!(o.compression, CompressionType::None);
        assert_eq!(o.value_separation_threshold, 0);
    }
}
