//! The traced run's recording [`Env`].
//!
//! [`RecordingEnv`] wraps the store's real environment and times every file
//! operation the store makes through it. Each operation becomes a [`Span`]
//! (what, which thread, which client operation caused it, start, end) and
//! is added to counters split by file kind and thread class. Spans stay in
//! memory, up to [`SPAN_CAP`], and are written out when the run ends.
//!
//! The client thread tags its calls into the store with an operation id
//! ([`begin_op`] / [`end_op`]); env spans on that thread carry the id as
//! their parent, and the thread's env busy time is kept in a thread-local
//! so the benchmark can subtract it from the operation's time (the API
//! layer's self time).
//!
//! The untraced run never builds this wrapper.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pebblesdb_common::Result;
use pebblesdb_env::{
    Env, IoStats, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile,
};

/// Most spans kept in memory; later spans are still counted.
pub const SPAN_CAP: usize = 500_000;

/// The kind of file an operation touched, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Write-ahead log segments (`*.log`).
    Wal = 0,
    /// Sorted tables (`*.sst`).
    Sst = 1,
    /// `MANIFEST-*` version edits.
    Manifest = 2,
    /// Everything else (`CURRENT`, temporary files).
    Other = 3,
}

const KINDS: usize = 4;
const KIND_NAMES: [&str; KINDS] = ["wal", "sst", "manifest", "other"];

impl FileKind {
    /// Classifies `path` by its file name.
    pub fn of(path: &Path) -> FileKind {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".log") {
            FileKind::Wal
        } else if name.ends_with(".sst") {
            FileKind::Sst
        } else if name.starts_with("MANIFEST-") {
            FileKind::Manifest
        } else {
            FileKind::Other
        }
    }
}

/// The file operation a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOp {
    /// `WritableFile::append`.
    Append = 0,
    /// `WritableFile::flush` (buffered bytes handed to the OS).
    Flush = 1,
    /// `WritableFile::sync`.
    Sync = 2,
    /// `WritableFile::close`.
    Close = 3,
    /// Random-access or sequential read.
    Read = 4,
}

const OPS: usize = 5;
const OP_NAMES: [&str; OPS] = ["append", "flush", "sync", "close", "read"];

/// Which thread made an operation, from the thread's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// The benchmark's client thread (the process's main thread).
    Client = 0,
    /// The engine's `*-flush` thread.
    Flush = 1,
    /// The engine's `*-compact-*` workers.
    Compact = 2,
    /// Anything else (the benchmark's settle and close helpers).
    Other = 3,
}

const THREADS: usize = 4;
const THREAD_NAMES: [&str; THREADS] = ["client", "flush", "compact", "other"];

impl ThreadClass {
    fn of_name(name: Option<&str>) -> ThreadClass {
        match name {
            Some("main") => ThreadClass::Client,
            Some(n) if n.ends_with("-flush") => ThreadClass::Flush,
            Some(n) if n.contains("-compact-") => ThreadClass::Compact,
            _ => ThreadClass::Other,
        }
    }
}

/// One timed file operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The client operation that caused it (0 for background work).
    pub parent_op: u64,
    /// A per-process number of the thread that made it.
    pub thread_no: u32,
    /// The thread's class.
    pub thread: ThreadClass,
    /// The file kind.
    pub kind: FileKind,
    /// The operation.
    pub op: FileOp,
}

thread_local! {
    static THREAD: Cell<Option<(ThreadClass, u32)>> = const { Cell::new(None) };
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    static CLIENT_ENV_NS: Cell<u64> = const { Cell::new(0) };
    static CLIENT_SST_READS: Cell<u64> = const { Cell::new(0) };
    static CLIENT_SST_READ_NS: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD_NO: AtomicU64 = AtomicU64::new(1);

fn this_thread() -> (ThreadClass, u32) {
    THREAD.with(|t| {
        if let Some(v) = t.get() {
            return v;
        }
        let class = ThreadClass::of_name(std::thread::current().name());
        let v = (class, NEXT_THREAD_NO.fetch_add(1, Ordering::Relaxed) as u32);
        t.set(Some(v));
        v
    })
}

/// Marks the start of client operation `id` on this thread.
pub fn begin_op(id: u64) {
    CURRENT_OP.with(|c| c.set(id));
}

/// Marks the end of the current client operation on this thread.
pub fn end_op() {
    CURRENT_OP.with(|c| c.set(0));
}

/// This thread's cumulative env figures, for deltas around one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientEnv {
    /// Nanoseconds spent inside env calls.
    pub busy_ns: u64,
    /// sstable reads.
    pub sst_reads: u64,
    /// Nanoseconds spent in sstable reads.
    pub sst_read_ns: u64,
}

impl ClientEnv {
    /// The figures accumulated on this thread so far.
    pub fn now() -> ClientEnv {
        ClientEnv {
            busy_ns: CLIENT_ENV_NS.with(Cell::get),
            sst_reads: CLIENT_SST_READS.with(Cell::get),
            sst_read_ns: CLIENT_SST_READ_NS.with(Cell::get),
        }
    }

    /// The figures accumulated since `earlier`.
    pub fn since(self, earlier: ClientEnv) -> ClientEnv {
        ClientEnv {
            busy_ns: self.busy_ns - earlier.busy_ns,
            sst_reads: self.sst_reads - earlier.sst_reads,
            sst_read_ns: self.sst_read_ns - earlier.sst_read_ns,
        }
    }
}

#[derive(Default)]
struct Cell3 {
    count: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// Count, bytes and busy time of one (file kind, thread class, op) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Number of operations.
    pub count: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Nanoseconds spent.
    pub busy_ns: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
    }

    fn since(self, earlier: Tally) -> Tally {
        Tally {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Where spans and counters go.
pub struct Recorder {
    epoch: Instant,
    cells: Vec<Cell3>,
    spans: Mutex<Vec<Span>>,
    spans_dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            cells: (0..KINDS * THREADS * OPS)
                .map(|_| Cell3::default())
                .collect(),
            spans: Mutex::new(Vec::new()),
            spans_dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn cell(&self, kind: FileKind, thread: ThreadClass, op: FileOp) -> &Cell3 {
        &self.cells[(kind as usize * THREADS + thread as usize) * OPS + op as usize]
    }

    fn record(&self, kind: FileKind, op: FileOp, bytes: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        let busy = end_ns - start_ns;
        let (thread, thread_no) = this_thread();
        let cell = self.cell(kind, thread, op);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        cell.busy_ns.fetch_add(busy, Ordering::Relaxed);
        let parent_op = if thread == ThreadClass::Client {
            CLIENT_ENV_NS.with(|c| c.set(c.get() + busy));
            if kind == FileKind::Sst && op == FileOp::Read {
                CLIENT_SST_READS.with(|c| c.set(c.get() + 1));
                CLIENT_SST_READ_NS.with(|c| c.set(c.get() + busy));
            }
            CURRENT_OP.with(Cell::get)
        } else {
            0
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                start_ns,
                end_ns,
                parent_op,
                thread_no,
                thread,
                kind,
                op,
            });
        } else {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Totals for `kind` and `op`, over the thread classes in `threads`.
    #[cfg(test)]
    pub fn tally(&self, kind: FileKind, op: FileOp, threads: &[ThreadClass]) -> Tally {
        let mut t = Tally::default();
        for &thread in threads {
            let c = self.cell(kind, thread, op);
            t.add(Tally {
                count: c.count.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
            });
        }
        t
    }

    /// A copy of every counter, for deltas over a phase.
    pub fn snapshot(&self) -> TallySnapshot {
        TallySnapshot(
            self.cells
                .iter()
                .map(|c| Tally {
                    count: c.count.load(Ordering::Relaxed),
                    bytes: c.bytes.load(Ordering::Relaxed),
                    busy_ns: c.busy_ns.load(Ordering::Relaxed),
                })
                .collect(),
        )
    }

    /// Forgets every kept span, so a dump covers only what follows.
    pub fn clear_spans(&self) {
        self.spans.lock().expect("span buffer poisoned").clear();
        self.spans_dropped.store(0, Ordering::Relaxed);
    }

    /// Number of spans kept and dropped past [`SPAN_CAP`].
    pub fn span_counts(&self) -> (usize, u64) {
        let kept = self.spans.lock().expect("span buffer poisoned").len();
        (kept, self.spans_dropped.load(Ordering::Relaxed))
    }

    /// Writes every kept span to `path` as CSV.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,thread,thread_no,parent_op,start_ns,end_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "env.{}.{},{},{},{},{},{}",
                KIND_NAMES[s.kind as usize],
                OP_NAMES[s.op as usize],
                THREAD_NAMES[s.thread as usize],
                s.thread_no,
                s.parent_op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Every counter of a [`Recorder`] at one instant.
#[derive(Debug, Clone)]
pub struct TallySnapshot(Vec<Tally>);

impl TallySnapshot {
    /// Totals for `kind` and `op` over `threads`, since `earlier`.
    pub fn since(
        &self,
        earlier: &TallySnapshot,
        kind: FileKind,
        op: FileOp,
        threads: &[ThreadClass],
    ) -> Tally {
        let mut t = Tally::default();
        for &thread in threads {
            let i = (kind as usize * THREADS + thread as usize) * OPS + op as usize;
            t.add(self.0[i].since(earlier.0[i]));
        }
        t
    }

    /// Busy nanoseconds of every file operation by `thread` since `earlier`.
    pub fn busy_ns_since(&self, earlier: &TallySnapshot, thread: ThreadClass) -> u64 {
        let mut busy = 0;
        for kind in 0..KINDS {
            for op in 0..OPS {
                let i = (kind * THREADS + thread as usize) * OPS + op;
                busy += self.0[i].busy_ns - earlier.0[i].busy_ns;
            }
        }
        busy
    }
}

/// Every thread class.
pub const ALL_THREADS: [ThreadClass; THREADS] = [
    ThreadClass::Client,
    ThreadClass::Flush,
    ThreadClass::Compact,
    ThreadClass::Other,
];

/// An [`Env`] that records a span for every file operation of `inner`.
pub struct RecordingEnv {
    inner: Arc<dyn Env>,
    rec: Arc<Recorder>,
}

impl RecordingEnv {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn Env>, rec: Arc<Recorder>) -> RecordingEnv {
        RecordingEnv { inner, rec }
    }
}

struct RecWritable {
    inner: Box<dyn WritableFile>,
    rec: Arc<Recorder>,
    kind: FileKind,
}

impl WritableFile for RecWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let t = self.rec.now_ns();
        let r = self.inner.append(data);
        self.rec
            .record(self.kind, FileOp::Append, data.len() as u64, t);
        r
    }

    fn flush(&mut self) -> Result<()> {
        let t = self.rec.now_ns();
        let r = self.inner.flush();
        self.rec.record(self.kind, FileOp::Flush, 0, t);
        r
    }

    fn sync(&mut self) -> Result<()> {
        let t = self.rec.now_ns();
        let r = self.inner.sync();
        self.rec.record(self.kind, FileOp::Sync, 0, t);
        r
    }

    fn close(&mut self) -> Result<()> {
        let t = self.rec.now_ns();
        let r = self.inner.close();
        self.rec.record(self.kind, FileOp::Close, 0, t);
        r
    }
}

struct RecRandom {
    inner: Arc<dyn RandomAccessFile>,
    rec: Arc<Recorder>,
    kind: FileKind,
}

impl RandomAccessFile for RecRandom {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let t = self.rec.now_ns();
        let r = self.inner.read(offset, len);
        let n = r.as_ref().map_or(0, |v| v.len() as u64);
        self.rec.record(self.kind, FileOp::Read, n, t);
        r
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

struct RecSequential {
    inner: Box<dyn SequentialFile>,
    rec: Arc<Recorder>,
    kind: FileKind,
}

impl SequentialFile for RecSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let t = self.rec.now_ns();
        let r = self.inner.read(buf);
        let n = r.as_ref().map_or(0, |&n| n as u64);
        self.rec.record(self.kind, FileOp::Read, n, t);
        r
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.inner.skip(n)
    }
}

impl Env for RecordingEnv {
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(RecWritable {
            inner: self.inner.new_writable_file(path)?,
            rec: Arc::clone(&self.rec),
            kind: FileKind::of(path),
        }))
    }

    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(RecRandom {
            inner: self.inner.new_random_access_file(path)?,
            rec: Arc::clone(&self.rec),
            kind: FileKind::of(path),
        }))
    }

    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        Ok(Box::new(RecSequential {
            inner: self.inner.new_sequential_file(path)?,
            rec: Arc::clone(&self.rec),
            kind: FileKind::of(path),
        }))
    }

    // Page files belong to the B+Tree engine; the FLSM store never opens one.
    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        self.inner.new_random_writable_file(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.inner.remove_file(path)
    }

    fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename_file(from, to)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.inner.sync_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn children(&self, path: &Path) -> Result<Vec<String>> {
        self.inner.children(path)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb::PebblesDb;
    use pebblesdb_common::KvStore;
    use pebblesdb_env::MemEnv;

    #[test]
    fn classifies_files_and_threads() {
        assert_eq!(FileKind::of(Path::new("/db/000007.log")), FileKind::Wal);
        assert_eq!(FileKind::of(Path::new("/db/000012.sst")), FileKind::Sst);
        assert_eq!(
            FileKind::of(Path::new("/db/MANIFEST-000003")),
            FileKind::Manifest
        );
        assert_eq!(FileKind::of(Path::new("/db/CURRENT")), FileKind::Other);
        assert_eq!(ThreadClass::of_name(Some("main")), ThreadClass::Client);
        assert_eq!(
            ThreadClass::of_name(Some("pebblesdb-flush")),
            ThreadClass::Flush
        );
        assert_eq!(
            ThreadClass::of_name(Some("pebblesdb-compact-1")),
            ThreadClass::Compact
        );
        assert_eq!(ThreadClass::of_name(None), ThreadClass::Other);
    }

    /// The wrapper's byte counts equal the inner env's `IoStats` after a
    /// store has written, flushed, compacted and read through it.
    #[test]
    fn byte_counts_match_io_stats() {
        let mem = MemEnv::new();
        let rec = Arc::new(Recorder::new());
        let env: Arc<dyn Env> = Arc::new(RecordingEnv::new(Arc::new(mem.clone()), rec.clone()));
        let dir = Path::new("/trace-test");
        let mut options = crate::workload::store_options();
        options.write_buffer_size = 32 << 10;
        {
            let db = PebblesDb::open_with_options(env.clone(), dir, options.clone()).unwrap();
            for i in 0..4000u64 {
                db.put(&pebblesdb_bench::keygen::bench_key(i % 1500), &[7u8; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..1500u64 {
                assert!(db
                    .get(&pebblesdb_bench::keygen::bench_key(i))
                    .unwrap()
                    .is_some());
            }
        }
        // Reopening replays the MANIFEST through sequential reads.
        drop(PebblesDb::open_with_options(env.clone(), dir, options).unwrap());
        let io = mem.io_stats().snapshot();
        let kinds = [
            FileKind::Wal,
            FileKind::Sst,
            FileKind::Manifest,
            FileKind::Other,
        ];
        let written: u64 = kinds
            .iter()
            .map(|&k| rec.tally(k, FileOp::Append, &ALL_THREADS).bytes)
            .sum();
        let read: u64 = kinds
            .iter()
            .map(|&k| rec.tally(k, FileOp::Read, &ALL_THREADS).bytes)
            .sum();
        assert!(io.bytes_written > 0 && io.bytes_read > 0);
        assert_eq!(written, io.bytes_written);
        assert_eq!(read, io.bytes_read);
        assert_eq!(
            rec.tally(FileKind::Sst, FileOp::Sync, &ALL_THREADS).count
                + rec
                    .tally(FileKind::Manifest, FileOp::Sync, &ALL_THREADS)
                    .count
                + rec.tally(FileKind::Wal, FileOp::Sync, &ALL_THREADS).count
                + rec.tally(FileKind::Other, FileOp::Sync, &ALL_THREADS).count,
            io.syncs
        );
        let sst_writes = rec.tally(FileKind::Sst, FileOp::Append, &ALL_THREADS);
        assert!(sst_writes.count > 0);
        assert!(rec.tally(FileKind::Wal, FileOp::Append, &ALL_THREADS).count > 0);
    }
}
