//! The `pebblesdb-server` binary: serve a store over RESP.
//!
//! ```text
//! pebblesdb-server --addr 127.0.0.1:6380 --db /tmp/pdb \
//!     --metrics-addr 127.0.0.1:9181 --auth-token sesame \
//!     --rate-limit 50000 --burst 1000
//! ```
//!
//! `--mem` serves an in-memory store (optionally with `--write-latency-us`
//! injected per-sstable-write, the single-core benchmarking caveat from the
//! roadmap); otherwise `--db PATH` serves a disk store. `--engine lsm`
//! swaps in the degenerate-guard LSM instead of the FLSM.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb_common::{Args, Db, StoreOptions, StorePreset};
use pebblesdb_env::{DiskEnv, Env, MemEnv};
use pebblesdb_server::{RateLimit, Server, ServerConfig, StaticTokenAuth};

const USAGE: &str = "pebblesdb-server [options]
  --addr HOST:PORT          listen address (default 127.0.0.1:6380)
  --metrics-addr HOST:PORT  Prometheus text endpoint (disabled by default)
  --db PATH                 serve a disk store rooted at PATH
  --mem                     serve an in-memory store (default when no --db)
  --engine NAME             pebbles | lsm (default pebbles)
  --auth-token TOKEN        require AUTH TOKEN before any command
  --rate-limit OPS          per-connection sustained ops/sec (0 = unlimited)
  --burst OPS               per-connection burst allowance (default rate/10)
  --max-connections N       concurrent connection cap (default 256)
  --idle-timeout-ms MS      close idle connections (default 300000)
  --sync                    fsync every acknowledged write
  --write-latency-us US     with --mem: inject latency per sstable write
  --help                    print this help";

fn main() {
    let args = Args::parse();
    if args.has_flag("help") {
        println!("{USAGE}");
        return;
    }

    let engine = args.get_str("engine", "pebbles");
    let db_path = args.get_str("db", "");
    let use_mem = args.has_flag("mem") || db_path.is_empty();

    let (env, mem): (Arc<dyn Env>, Option<Arc<MemEnv>>) = if use_mem {
        let mem = Arc::new(MemEnv::new());
        (mem.clone(), Some(mem))
    } else {
        (Arc::new(DiskEnv::new()), None)
    };
    if let Some(mem) = &mem {
        let write_latency_us = args.get_u64("write-latency-us", 0);
        if write_latency_us > 0 {
            mem.set_write_latency_micros_for(".sst", write_latency_us);
        }
    }
    let path_str = if use_mem {
        "/pebblesdb-server".to_string()
    } else {
        db_path
    };
    let path = Path::new(&path_str);

    let db: Arc<dyn Db> = match engine.as_str() {
        "pebbles" => Arc::new(
            pebblesdb::PebblesDb::open_with_options(
                env,
                path,
                StoreOptions::with_preset(StorePreset::PebblesDb),
            )
            .unwrap_or_else(|err| {
                eprintln!("error: cannot open pebbles store at {path_str}: {err}");
                std::process::exit(1);
            }),
        ),
        "lsm" => Arc::new(
            pebblesdb_lsm::LsmDb::open_with_options(
                env,
                path,
                StoreOptions::with_preset(StorePreset::HyperLevelDb),
            )
            .unwrap_or_else(|err| {
                eprintln!("error: cannot open lsm store at {path_str}: {err}");
                std::process::exit(1);
            }),
        ),
        other => {
            eprintln!("error: unknown engine {other:?} (expected pebbles or lsm)");
            std::process::exit(2);
        }
    };

    let rate = args.get_u64("rate-limit", 0);
    let mut config = ServerConfig {
        addr: args.get_str("addr", "127.0.0.1:6380"),
        max_connections: args.get_u64("max-connections", 256) as usize,
        idle_timeout: Duration::from_millis(args.get_u64("idle-timeout-ms", 300_000)),
        ..ServerConfig::default()
    };
    config.session.sync_writes = args.has_flag("sync");
    let metrics = args.get_str("metrics-addr", "");
    if !metrics.is_empty() {
        config.metrics_addr = Some(metrics);
    }
    if rate > 0 {
        config.rate_limit = Some(RateLimit {
            ops_per_sec: rate as f64,
            burst: args.get_u64("burst", (rate / 10).max(1)) as f64,
        });
    }
    let token = args.get_str("auth-token", "");
    if !token.is_empty() {
        config.auth = Some(Arc::new(StaticTokenAuth::new(token)));
    }

    let server = Server::start(db, config).unwrap_or_else(|err| {
        eprintln!("error: cannot start server: {err}");
        std::process::exit(1);
    });
    println!("pebblesdb-server listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on http://{addr}/metrics");
    }

    // Serve until the process is terminated; the accept thread owns the
    // actual work, this thread just keeps the server alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
