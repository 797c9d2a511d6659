//! Server counters and the Prometheus text endpoint.
//!
//! The counter *names* come from one place: [`ServerCounters::fields`] here
//! and [`pebblesdb_common::stats_text`] for the store/per-family counters.
//! The `INFO` command and this module's Prometheus rendering both iterate
//! those lists, so a counter added in one surface cannot silently be missing
//! from the other.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pebblesdb_common::stats_text::{cf_stat_fields, store_stat_fields, StatField, StatUnit};
use pebblesdb_common::Db;

/// Monotonic counters of the serving layer (the store's own counters live in
/// [`pebblesdb_common::StoreStats`]).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted by the listener.
    pub connections_accepted: AtomicU64,
    /// Connections that have terminated (any reason).
    pub connections_closed: AtomicU64,
    /// Connections refused because the connection cap was reached.
    pub connections_rejected: AtomicU64,
    /// Commands executed (including ones that returned an error reply).
    pub commands: AtomicU64,
    /// Commands rejected with `BUSY` by the per-client rate limiter.
    pub rate_limited: AtomicU64,
    /// Failed `AUTH` attempts.
    pub auth_failures: AtomicU64,
    /// Connections closed because of a RESP framing violation.
    pub protocol_errors: AtomicU64,
    /// Graceful-shutdown drains that could not deliver their in-flight
    /// replies or farewell because the peer was already gone.
    pub shutdown_drain_failures: AtomicU64,
    /// Raw bytes received from clients.
    pub bytes_in: AtomicU64,
    /// Raw bytes sent to clients.
    pub bytes_out: AtomicU64,
}

impl ServerCounters {
    /// The counters as the shared field list (the `INFO` command and the
    /// Prometheus endpoint render exactly these).
    pub fn fields(&self) -> Vec<StatField> {
        let accepted = self.connections_accepted.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Relaxed);
        let field = |name, value, unit| StatField { name, value, unit };
        vec![
            field(
                "connections_open",
                accepted.saturating_sub(closed),
                StatUnit::Count,
            ),
            field("connections_accepted", accepted, StatUnit::Count),
            field("connections_closed", closed, StatUnit::Count),
            field(
                "connections_rejected",
                self.connections_rejected.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "commands",
                self.commands.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "rate_limited",
                self.rate_limited.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "auth_failures",
                self.auth_failures.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "shutdown_drain_failures",
                self.shutdown_drain_failures.load(Ordering::Relaxed),
                StatUnit::Count,
            ),
            field(
                "bytes_in",
                self.bytes_in.load(Ordering::Relaxed),
                StatUnit::Bytes,
            ),
            field(
                "bytes_out",
                self.bytes_out.load(Ordering::Relaxed),
                StatUnit::Bytes,
            ),
        ]
    }
}

/// Renders every server, store and per-family counter in the Prometheus
/// text exposition format.
pub fn render_prometheus(counters: &ServerCounters, db: &dyn Db) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, labels: &str, value: u64| {
        out.push_str(&format!("# TYPE {name} gauge\n{name}{labels} {value}\n"));
    };
    for field in counters.fields() {
        gauge(&format!("pebblesdb_server_{}", field.name), "", field.value);
    }
    for field in store_stat_fields(&db.stats()) {
        gauge(&format!("pebblesdb_store_{}", field.name), "", field.value);
    }
    for cf in db.cf_stats() {
        for field in cf_stat_fields(&cf) {
            gauge(
                &format!("pebblesdb_cf_{}", field.name),
                &format!("{{cf=\"{}\"}}", cf.name),
                field.value,
            );
        }
    }
    // Per-shard breakdown of a sharded store, same field list as the
    // aggregate `pebblesdb_store_*` gauges; empty for unsharded stores.
    for (index, stats) in db.shard_stats().iter().enumerate() {
        for field in store_stat_fields(stats) {
            gauge(
                &format!("pebblesdb_shard_{}", field.name),
                &format!("{{shard=\"{index}\"}}"),
                field.value,
            );
        }
    }
    out
}

/// Serves `GET /metrics`-style requests on `listener` until `shutdown` is
/// signalled. Minimal HTTP/1.0: any request gets the full metrics body.
pub(crate) fn serve_metrics(
    listener: TcpListener,
    counters: Arc<ServerCounters>,
    db: Arc<dyn Db>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("set metrics listener nonblocking");
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                // Read until the end of the request headers (or timeout) —
                // the request itself is ignored.
                let mut buf = [0u8; 1024];
                let mut request = Vec::new();
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            request.extend_from_slice(&buf[..n]);
                            if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 8192
                            {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let body = render_prometheus(&counters, db.as_ref());
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb::ShapePolicy;
    use pebblesdb_common::{KvStore, PrefixDb};

    #[test]
    fn prometheus_rendering_covers_all_surfaces() {
        let counters = ServerCounters::default();
        counters.commands.store(7, Ordering::Relaxed);
        counters.connections_accepted.store(3, Ordering::Relaxed);
        counters.connections_closed.store(1, Ordering::Relaxed);

        let env = std::sync::Arc::new(pebblesdb_env::MemEnv::new());
        let options = pebblesdb::StoreOptions::with_preset(pebblesdb::StorePreset::PebblesDb);
        let store = pebblesdb::PebblesDb::open_with_options(
            env,
            std::path::Path::new("/metrics-test"),
            options,
        )
        .unwrap();
        store.put(b"k", b"v").unwrap();
        let db = PrefixDb::new(std::sync::Arc::new(store));

        let text = render_prometheus(&counters, &db);
        assert!(text.contains("pebblesdb_server_commands 7\n"));
        assert!(text.contains("pebblesdb_server_connections_open 2\n"));
        assert!(text.contains("pebblesdb_store_user_bytes_written "));
        assert!(text.contains("pebblesdb_cf_num_files{cf=\"default\"} "));
        // An unsharded store renders no per-shard gauges.
        assert!(!text.contains("pebblesdb_shard_"));
        // Exposition-format sanity: every non-comment line is `name[labels] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad line: {line}");
        }
    }

    #[test]
    fn prometheus_rendering_breaks_out_shards() {
        let counters = ServerCounters::default();
        let env = std::sync::Arc::new(pebblesdb_env::MemEnv::new());
        let store = pebblesdb_shard::ShardedDb::open_with(
            pebblesdb::FlsmPolicy::new,
            env,
            std::path::Path::new("/metrics-shard-test"),
            pebblesdb_common::StoreOptions::default(),
            pebblesdb_shard::ShardConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        store.put(b"k", b"v").unwrap();

        let text = render_prometheus(&counters, &store);
        assert!(text.contains("pebblesdb_store_num_shards 2\n"));
        assert!(text.contains("pebblesdb_shard_user_bytes_written{shard=\"0\"} "));
        assert!(text.contains("pebblesdb_shard_user_bytes_written{shard=\"1\"} "));
        assert!(!text.contains("{shard=\"2\"}"));
    }
}
