//! The repository benchmark: four closed-loop workloads against the
//! PebblesDB preset on disk, with every answer checked.
//!
//! ```text
//! perfbench --workload <fill|read|scan|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread calls the store and waits for each call. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it runs
//! the workload once untraced (for the tracing overhead) and once through a
//! recording `Env`, and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Store directories and span dumps go under `.bench_run/` in the current
//! directory; store directories are removed when each store closes.

mod idle;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use stats::{pct_label, Latencies, P50, P99};
use trace::{FileKind, FileOp, Recorder, ThreadClass, ALL_THREADS};
use workload::{ratio, OpKind, RunResult, Workload, OP_NAMES};

const MB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Prints an op kind's latency summary, with its tail and sample count.
fn print_latency(name: &str, lat: &mut Latencies) {
    if lat.is_empty() {
        return;
    }
    let n = lat.len();
    println!(
        "  {:<34} {:>14.4} us",
        format!("{name}_p50_us"),
        lat.pct_us(P50)
    );
    println!(
        "  {:<34} {:>14.4} us",
        format!("{name}_p99_us"),
        lat.pct_us(P99)
    );
    match lat.tail_us() {
        Some((pct, v)) => println!(
            "  {:<34} {v:>14.4} us ({}, {} samples beyond, n={n})",
            format!("{name}_tail_us"),
            pct_label(pct),
            stats::samples_beyond(n, pct)
        ),
        None => println!("  {name}_tail_us: too few samples (n={n})"),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(w: Workload, res: &mut RunResult) -> Metrics {
    let mut m = Metrics::default();
    // Each op type's median, weighted by its op count. `mixed`'s gets and
    // puts form two humps of equal weight, and the median of the pooled
    // samples would sit in the gap between them.
    let weighted_p50: f64 = res
        .lat
        .iter_mut()
        .map(|lat| lat.len() as f64 * lat.pct_us(P50))
        .sum();
    m.add("ops_per_s", res.ops_per_s(), "1/s");
    m.add("op_p50_us", ratio(weighted_p50, res.ops as f64), "us");
    m.add("write_amp", res.write_amp(), "ratio");
    m.add("space_amp", res.space_amp(), "ratio");
    m.add("setup_s", res.setup_median_s(), "s");
    m.add("rss_peak_mb", res.rss_peak_mb, "MiB");

    println!("{} end-to-end:", w.name());
    m.print();
    for (k, lat) in res.lat.iter_mut().enumerate() {
        print_latency(OP_NAMES[k], lat);
    }
    println!(
        "  timed_s {:.3} (drain {:.3}), ops {}",
        res.timed.as_secs_f64(),
        res.drain.as_secs_f64(),
        res.ops
    );
    println!(
        "  setup_s samples {:?}",
        res.setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    m
}

/// The per-layer metrics of a traced run; `plain_ops_per_s` is the untraced
/// run's throughput, for the tracing overhead.
fn per_layer(w: Workload, res: &mut RunResult, rec: &Recorder, plain_ops_per_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let (s0, s1) = (&res.stats.0, &res.stats.1);
    let d = |f: fn(&pebblesdb_common::StoreStats) -> u64| f(s1).saturating_sub(f(s0)) as f64;

    m.add("engine.write_stalls", d(|s| s.write_stalls), "count");
    m.add("engine.stall_ms", d(|s| s.write_stall_micros) / 1e3, "ms");
    m.add("engine.flushes", d(|s| s.flushes), "count");
    m.add("engine.memory_mb", s1.memory_usage_bytes as f64 / MB, "MiB");
    m.add("engine.compactions", d(|s| s.compactions), "count");
    m.add(
        "engine.compaction_busy_ms",
        d(|s| s.compaction_micros) / 1e3,
        "ms",
    );
    m.add(
        "engine.compaction_read_mb",
        d(|s| s.compaction_bytes_read) / MB,
        "MiB",
    );
    m.add(
        "engine.compaction_write_mb",
        d(|s| s.compaction_bytes_written) / MB,
        "MiB",
    );
    m.add(
        "engine.max_concurrent_compactions",
        s1.max_concurrent_compactions as f64,
        "count",
    );

    for (suffix, shape) in [("setup", res.shape.0), ("end", res.shape.1)] {
        m.add(format!("core.files.{suffix}"), shape.files as f64, "count");
        m.add(
            format!("core.guards.{suffix}"),
            shape.guards as f64,
            "count",
        );
        m.add(
            format!("core.empty_guards.{suffix}"),
            shape.empty_guards as f64,
            "count",
        );
        m.add(
            format!("core.files_per_guard.{suffix}"),
            shape.files_per_guard(),
            "ratio",
        );
    }

    let hits = d(|s| s.block_cache_hits);
    let misses = d(|s| s.block_cache_misses);
    let gets = res.lat[OpKind::Get as usize].len() as f64;
    let scans = res.lat[OpKind::Scan as usize].len() as f64;
    m.add(
        "sstable.block_cache_hit_pct",
        100.0 * ratio(hits, hits + misses),
        "%",
    );
    m.add("sstable.block_misses_per_get", ratio(misses, gets), "count");
    m.add(
        "sstable.block_misses_per_scan",
        ratio(misses, scans),
        "count",
    );
    m.add(
        "sstable.table_cache_misses",
        d(|s| s.table_cache_misses),
        "count",
    );

    let (t0, t1) = res.tallies.as_ref().expect("traced run has tallies");
    let all = &ALL_THREADS[..];
    let tally = |kind, op, threads: &[ThreadClass]| t1.since(t0, kind, op, threads);
    let writes = |kind, threads: &[ThreadClass]| {
        let a = tally(kind, FileOp::Append, threads);
        let f = tally(kind, FileOp::Flush, threads);
        let c = tally(kind, FileOp::Close, threads);
        (a.count, a.bytes, a.busy_ns + f.busy_ns + c.busy_ns)
    };
    let (wal_appends, _, wal_busy) = writes(FileKind::Wal, all);
    m.add("env.wal.appends", wal_appends as f64, "count");
    m.add("env.wal.append_busy_ms", wal_busy as f64 / 1e6, "ms");
    let (_, sst_bytes, sst_busy) = writes(FileKind::Sst, all);
    m.add("env.sst.write_mb", sst_bytes as f64 / MB, "MiB");
    m.add("env.sst.write_busy_ms", sst_busy as f64 / 1e6, "ms");
    let sst_sync = tally(FileKind::Sst, FileOp::Sync, all);
    m.add("env.sst.syncs", sst_sync.count as f64, "count");
    m.add("env.sst.sync_busy_ms", sst_sync.busy_ns as f64 / 1e6, "ms");
    for (name, class) in [
        ("flush", ThreadClass::Flush),
        ("compact", ThreadClass::Compact),
    ] {
        let (_, bytes, _) = writes(FileKind::Sst, &[class]);
        m.add(format!("env.sst.write_mb.{name}"), bytes as f64 / MB, "MiB");
    }
    let compact_reads = tally(FileKind::Sst, FileOp::Read, &[ThreadClass::Compact]);
    m.add(
        "env.sst.read_mb.compact",
        compact_reads.bytes as f64 / MB,
        "MiB",
    );
    let tr = &res.traced;
    let traced_gets = tr.gets as f64;
    m.add(
        "env.sst.reads_per_get",
        ratio(tr.get_sst_reads as f64, traced_gets),
        "count",
    );
    m.add(
        "env.sst.read_busy_us_per_get",
        ratio(tr.get_sst_read_ns as f64 / 1e3, traced_gets),
        "us",
    );
    m.add(
        "env.sst.reads_per_absent_get",
        ratio(tr.absent_get_sst_reads as f64, tr.absent_gets as f64),
        "count",
    );
    m.add(
        "env.manifest.appends",
        tally(FileKind::Manifest, FileOp::Append, all).count as f64,
        "count",
    );
    for (name, class) in [
        ("client", ThreadClass::Client),
        ("flush", ThreadClass::Flush),
        ("compact", ThreadClass::Compact),
    ] {
        m.add(
            format!("env.{name}.busy_ms"),
            t1.busy_ns_since(t0, class) as f64 / 1e6,
            "ms",
        );
    }

    let tr = &mut res.traced;
    m.add("iter.create_us_p50", tr.iter_create.pct_us(P50), "us");
    m.add("iter.seek_us_p50", tr.iter_seek.pct_us(P50), "us");
    m.add("iter.next_us_p50", tr.iter_next.pct_us(P50), "us");

    for (k, op) in OP_NAMES.iter().enumerate() {
        let n = tr.self_ns[k].len() as f64;
        m.add(
            format!("api.{op}.self_us_p50"),
            tr.self_ns[k].pct_us(P50),
            "us",
        );
        m.add(
            format!("api.{op}.op_us_mean"),
            ratio(tr.op_ns[k] as f64 / 1e3, n),
            "us",
        );
        m.add(
            format!("api.{op}.env_us_mean"),
            ratio(tr.env_ns[k] as f64 / 1e3, n),
            "us",
        );
        m.add(
            format!("api.{op}.self_us_mean"),
            tr.self_ns[k].mean_us(),
            "us",
        );
    }

    let traced_ops_per_s = res.ops_per_s();
    m.add(
        "trace.overhead_pct",
        100.0 * ratio(plain_ops_per_s - traced_ops_per_s, plain_ops_per_s),
        "%",
    );
    let (kept, dropped) = rec.span_counts();
    m.add("trace.spans_kept", kept as f64, "count");
    m.add("trace.spans_dropped", dropped as f64, "count");

    println!(
        "{} per-layer (traced {:.0} ops/s, untraced {:.0} ops/s):",
        w.name(),
        traced_ops_per_s,
        plain_ops_per_s
    );
    m.print();
    m
}

fn run(args: &Args, work_dir: &Path) -> Result<(RunResult, Metrics), String> {
    let w = args.workload;
    let go = |reps, rec: Option<&Arc<Recorder>>| {
        workload::run(w, args.seed, args.seconds, work_dir, reps, rec)
            .map_err(|e| format!("{} run failed: {e}", w.name()))
    };
    if !args.trace {
        let mut res = go(w.segments(), None)?;
        let m = end_to_end(w, &mut res);
        return Ok((res, m));
    }
    let plain = go(1, None)?;
    let rec = Arc::new(Recorder::new());
    let mut traced = go(1, Some(&rec))?;
    let m = per_layer(w, &mut traced, &rec, plain.ops_per_s());
    let dump = work_dir.join(format!("spans-{}-{}.csv", w.name(), args.seed));
    match rec.dump(&dump) {
        Ok(()) => println!("  spans written to {}", dump.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", dump.display()),
    }
    // Both passes' operations count toward the totals.
    let mut res = traced;
    res.attempted += plain.attempted;
    res.failed += plain.failed;
    res.wrong += plain.wrong;
    res.close_timeouts += plain.close_timeouts;
    res.settle_failures += plain.settle_failures;
    Ok((res, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fill|read|scan|mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (res, metrics) = match run(&args, &work_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  ops_attempted {}  ops_failed {}  wrong_answers {}  close_timeouts {}  settle_failures {}",
        res.attempted, res.failed, res.wrong, res.close_timeouts, res.settle_failures
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        // Every failure but a missed close deadline (a known store defect,
        // counted in `failed`) is an error or a wrong answer.
        res.failed == res.close_timeouts,
        res.attempted.max(1),
        res.failed,
        metrics.json()
    );
    // A close that missed its deadline leaves a thread blocked in the
    // store's shutdown; exiting here ends it instead of waiting forever.
    std::process::exit(0)
}
