//! `net_bench` — the networked companion to `db_bench`.
//!
//! Drives N concurrent RESP connections through fill / read / mixed
//! workloads and reports throughput plus client-observed latency
//! percentiles (p50/p99/p999). Keys and values come from
//! [`pebblesdb_bench::keygen`], the same generators the local workloads
//! use, so a store filled over the network is readable by `db_bench` and
//! vice versa.
//!
//! ```text
//! net_bench --spawn --clients 8 --ops 20000            # in-process server
//! net_bench --addr 127.0.0.1:6380 --workload mixed     # external server
//! net_bench --spawn --rate-limit 500 --burst 50        # observe BUSY backpressure
//! net_bench --spawn --follower                         # leader + replica lag/read phase
//! ```
//!
//! `--follower` appends a replication phase: a [`FollowerDb`] is attached
//! to the server over `SYNC` while the write clients keep loading the
//! leader, a local reader measures replica read latency at the applied
//! frontier, and a sampler records replication lag (leader committed
//! sequence minus follower applied sequence). The phase ends by timing how
//! long the replica takes to drain the remaining backlog once writes stop.
//!
//! `BUSY` replies from the server's rate limiter are counted (and retried
//! up to a bound) rather than treated as failures: they are backpressure,
//! and the `busy` column shows how much of it the run absorbed.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::ShapePolicy;
use pebblesdb_bench::keygen::{bench_key, bench_value_compressible};
use pebblesdb_bench::report::{format_kops, Report};
use pebblesdb_bench::Args;
use pebblesdb_common::resp::RespValue;
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_server::{RateLimit, RespClient, Server, ServerConfig};
use pebblesdb_ycsb::Histogram;

const USAGE: &str = "net_bench [options]
  --addr HOST:PORT       benchmark an already-running server
  --spawn                spawn an in-process in-memory server (default)
  --clients N            concurrent connections (default 8)
  --ops N                operations per workload phase (default 10000)
  --value-size BYTES     value payload size (default 100)
  --workload NAME        fill | read | mixed | all (default all)
  --rate-limit OPS       with --spawn: per-connection rate limit
  --burst OPS            with --spawn: rate-limit burst (default rate/10)
  --shards N             with --spawn: serve a ShardedDb of N shards (default 0 = unsharded)
  --compression on|off   with --spawn: block + vlog compression (default off)
  --compressibility R    generated values shrink to ~R of their size under an ideal codec (default 1.0)
  --write-latency-us US  with --spawn: inject latency per sstable write
  --sync                 with --spawn: fsync acknowledged writes
  --follower             attach a read replica; measure lag + replica read latency
  --help                 print this help";

/// Per-phase aggregate over all clients.
struct PhaseResult {
    name: &'static str,
    operations: u64,
    seconds: f64,
    latencies_us: Histogram,
    busy: u64,
}

fn main() {
    let args = Args::parse();
    if args.has_flag("help") {
        println!("{USAGE}");
        return;
    }
    let clients = args.get_u64("clients", 8).max(1) as usize;
    let ops = args.get_u64("ops", 10_000).max(1);
    let value_size = args.get_u64("value-size", 100) as usize;
    let compressibility = args.get_f64("compressibility", 1.0);
    let workload = args.get_str("workload", "all");

    // Either connect out, or spawn an in-process server on an ephemeral
    // port (which is what the CI smoke job uses: no port plumbing).
    let addr_flag = args.get_str("addr", "");
    let (server, addr) = if addr_flag.is_empty() {
        let mem = Arc::new(MemEnv::new());
        let write_latency_us = args.get_u64("write-latency-us", 0);
        if write_latency_us > 0 {
            mem.set_write_latency_micros_for(".sst", write_latency_us);
        }
        let env: Arc<dyn Env> = mem;
        // `--shards N` serves a hash-sharded store through the same RESP
        // front-end — the server code is unchanged, only the Db behind it.
        let shards = args.get_u64("shards", 0) as usize;
        let mut options = pebblesdb_common::StoreOptions::default();
        options.compression =
            pebblesdb_common::CompressionType::parse(&args.get_str("compression", "off"))
                .expect("unknown --compression (on|off|lz|none)");
        let db: Arc<dyn pebblesdb_common::Db> = if shards > 0 {
            let config = pebblesdb_shard::ShardConfig {
                shards,
                ..Default::default()
            };
            Arc::new(
                pebblesdb_shard::ShardedDb::open_with(
                    pebblesdb::FlsmPolicy::new,
                    env,
                    Path::new("/net-bench"),
                    options,
                    config,
                )
                .expect("open sharded store"),
            )
        } else {
            Arc::new(
                pebblesdb::PebblesDb::open_with_options(env, Path::new("/net-bench"), options)
                    .expect("open store"),
            )
        };
        let mut config = ServerConfig::default();
        config.session.sync_writes = args.has_flag("sync");
        let rate = args.get_u64("rate-limit", 0);
        if rate > 0 {
            config.rate_limit = Some(RateLimit {
                ops_per_sec: rate as f64,
                burst: args.get_u64("burst", (rate / 10).max(1)) as f64,
            });
        }
        let server = Server::start(db, config).expect("start in-process server");
        let addr = server.local_addr();
        (Some(server), addr)
    } else {
        let addr = addr_flag.parse().expect("--addr must be HOST:PORT");
        (None, addr)
    };

    let phases: Vec<&str> = match workload.as_str() {
        "all" => vec!["fill", "read", "mixed"],
        one @ ("fill" | "read" | "mixed") => vec![one],
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut report = Report::new(
        &format!("net_bench — {addr} ({clients} clients, {ops} ops/phase, {value_size} B values)"),
        [
            "workload", "ops", "kops/s", "p50 us", "p99 us", "p999 us", "max us", "busy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for phase in phases {
        let result = run_phase(phase, addr, clients, ops, value_size, compressibility);
        report.add_row(vec![
            result.name.to_string(),
            result.operations.to_string(),
            format_kops(result.operations as f64 / result.seconds / 1000.0),
            result.latencies_us.percentile(50.0).to_string(),
            result.latencies_us.percentile(99.0).to_string(),
            result.latencies_us.percentile(99.9).to_string(),
            result.latencies_us.max().to_string(),
            result.busy.to_string(),
        ]);
    }
    report.add_note("latencies are client-observed round trips; BUSY replies are retried (bounded) and counted, not failed.");
    if args.has_flag("follower") {
        run_follower_phase(&mut report, addr, clients, ops, value_size, compressibility);
    }
    report.print();

    if let Some(server) = server {
        server.shutdown();
    }
}

/// The `--follower` phase: attach a replica over `SYNC`, keep the write
/// clients loading the leader, and measure what a read replica actually
/// delivers — local read latency at its applied frontier and replication
/// lag in sequence numbers — then time the final catch-up drain.
fn run_follower_phase(
    report: &mut Report,
    addr: std::net::SocketAddr,
    clients: usize,
    ops: u64,
    value_size: usize,
    compressibility: f64,
) {
    use pebblesdb_common::KvStore;

    let follower = pebblesdb_replica::FollowerDb::open_with(
        pebblesdb::FlsmPolicy::new,
        Arc::new(MemEnv::new()) as Arc<dyn Env>,
        Path::new("/net-bench-follower"),
        pebblesdb_common::StoreOptions::default(),
        pebblesdb_replica::FollowerConfig {
            leader_addr: addr.to_string(),
            ..Default::default()
        },
    )
    .expect("attach follower");
    let follower = Arc::new(follower);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Replica-side reader: local gets against the follower's applied
    // frontier, sampling the key space the writers are filling.
    let reader = {
        let follower = Arc::clone(&follower);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xf011_04e4);
            let mut latencies = Histogram::new();
            let mut hits = 0u64;
            let mut reads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let key = bench_key(rng.gen_range(0..ops.max(1)));
                let started = Instant::now();
                if follower.get(&key).expect("follower read").is_some() {
                    hits += 1;
                }
                latencies.record(started.elapsed().as_micros() as u64);
                reads += 1;
            }
            (latencies, reads, hits)
        })
    };

    // Lag sampler, every 5 ms. `lag_batches` is the backlog the leader
    // advertises on every shipped frame — commits not yet handed to this
    // replica — which is the honest lag signal; `leader_sequence()` minus
    // `applied_sequence()` only sees frames already in flight.
    let sampler = {
        let follower = Arc::clone(&follower);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut lag = Histogram::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                lag.record(follower.lag_batches());
                std::thread::sleep(Duration::from_millis(5));
            }
            lag
        })
    };

    // The same concurrent RESP write load the fill phase uses.
    let writes = run_phase("fill", addr, clients, ops, value_size, compressibility);

    // Writes are done: time how long the replica needs to drain the rest.
    // While behind, the last received frame's sequence trails the leader's
    // true frontier, so "caught up" means the advertised backlog hit zero
    // AND an idle ping confirmed the frontier matches what we applied.
    let drain_started = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(120);
    while follower.lag_batches() > 0
        || follower.leader_sequence() == 0
        || follower.applied_sequence() < follower.leader_sequence()
    {
        assert!(
            Instant::now() < deadline,
            "follower never caught up: applied={} leader={} connected={} last_error={:?}",
            follower.applied_sequence(),
            follower.leader_sequence(),
            follower.is_connected(),
            follower.last_error(),
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain = drain_started.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (read_latencies, reads, hits) = reader.join().expect("follower reader panicked");
    let lag = sampler.join().expect("lag sampler panicked");

    report.add_row(vec![
        "leader-fill".to_string(),
        writes.operations.to_string(),
        format_kops(writes.operations as f64 / writes.seconds / 1000.0),
        writes.latencies_us.percentile(50.0).to_string(),
        writes.latencies_us.percentile(99.0).to_string(),
        writes.latencies_us.percentile(99.9).to_string(),
        writes.latencies_us.max().to_string(),
        writes.busy.to_string(),
    ]);
    report.add_row(vec![
        "follower-read".to_string(),
        reads.to_string(),
        format_kops(reads as f64 / writes.seconds.max(drain.as_secs_f64()) / 1000.0),
        read_latencies.percentile(50.0).to_string(),
        read_latencies.percentile(99.0).to_string(),
        read_latencies.percentile(99.9).to_string(),
        read_latencies.max().to_string(),
        "0".to_string(),
    ]);
    report.add_note(&format!(
        "replication lag (batches behind leader): p50 {} / p99 {} / max {}; \
         drained in {} ms after writes stopped; applied seq {}, {} batches \
         applied, follower read hit rate {:.1}%",
        lag.percentile(50.0),
        lag.percentile(99.0),
        lag.max(),
        drain.as_millis(),
        follower.applied_sequence(),
        follower.batches_applied(),
        100.0 * hits as f64 / reads.max(1) as f64,
    ));
}

fn run_phase(
    name: &str,
    addr: std::net::SocketAddr,
    clients: usize,
    ops: u64,
    value_size: usize,
    compressibility: f64,
) -> PhaseResult {
    let ops_per_client = ops.div_ceil(clients as u64);
    let total_keys = ops_per_client * clients as u64;
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let name = name.to_string();
            std::thread::spawn(move || {
                let mut conn = RespClient::connect(addr).expect("connect");
                conn.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut rng = StdRng::seed_from_u64(0xbeef_0000 + client as u64);
                let mut latencies = Histogram::new();
                let mut busy = 0u64;
                let base = client as u64 * ops_per_client;
                for i in 0..ops_per_client {
                    // fill covers a private slice of the key space; read and
                    // mixed sample the whole (filled) space.
                    let write_key = base + i;
                    let read_key = rng.gen_range(0..total_keys);
                    let value =
                        bench_value_compressible(write_key, value_size, compressibility, &mut rng);
                    let op_started = Instant::now();
                    let write = match name.as_str() {
                        "fill" => true,
                        "read" => false,
                        _ => rng.gen_bool(0.5),
                    };
                    let (key, index) = if write {
                        (bench_key(write_key), write_key)
                    } else {
                        (bench_key(read_key), read_key)
                    };
                    // A BUSY reply is backpressure: back off briefly and
                    // retry the same op a bounded number of times.
                    let mut attempts = 0;
                    loop {
                        let reply = if write {
                            conn.command(&[b"SET", &key, &value]).expect("SET")
                        } else {
                            conn.command(&[b"GET", &key]).expect("GET")
                        };
                        match reply {
                            RespValue::Error(msg) if msg.starts_with("BUSY") => {
                                busy += 1;
                                attempts += 1;
                                if attempts >= 50 {
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            RespValue::Error(msg) => panic!("op {index} failed: {msg}"),
                            _ => break,
                        }
                    }
                    latencies.record(op_started.elapsed().as_micros() as u64);
                }
                (latencies, busy)
            })
        })
        .collect();

    let mut latencies_us = Histogram::new();
    let mut busy = 0;
    for worker in workers {
        let (worker_latencies, worker_busy) = worker.join().expect("bench client panicked");
        latencies_us.merge(&worker_latencies);
        busy += worker_busy;
    }
    PhaseResult {
        name: match name {
            "fill" => "fill",
            "read" => "read",
            _ => "mixed",
        },
        operations: total_keys,
        seconds: started.elapsed().as_secs_f64().max(1e-9),
        latencies_us,
        busy,
    }
}
