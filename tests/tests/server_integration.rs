//! End-to-end tests of the RESP network front-end: concurrent clients over
//! real sockets against a live [`Server`], exercising batch atomicity,
//! cursor-paged scans, rate-limit backpressure, auth gating, graceful
//! shutdown draining, and crash recovery after an abrupt kill.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb::PebblesDb;
use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{Db, KvStore, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_server::{RateLimit, RespClient, Server, ServerConfig, StaticTokenAuth};

fn start_server(config: ServerConfig) -> (Server, Arc<dyn Db>) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db: Arc<dyn Db> = Arc::new(
        PebblesDb::open_with_options(
            env,
            Path::new("/server-it"),
            StoreOptions::with_preset(StorePreset::PebblesDb),
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&db), config).unwrap();
    (server, db)
}

fn ok(reply: RespValue) {
    assert_eq!(reply, RespValue::ok());
}

#[test]
fn concurrent_clients_batches_stay_atomic_and_scans_stay_ordered() {
    let (server, _db) = start_server(ServerConfig::default());
    let addr = server.local_addr();

    {
        let mut admin = RespClient::connect(addr).unwrap();
        ok(admin.command(&[b"CFCREATE", b"mirror"]).unwrap());
    }

    const WRITERS: usize = 4;
    const BATCHES: u64 = 150;

    // Writers commit MULTI batches that write the same key to two column
    // families — the invariant readers check is that no one ever observes
    // the default-family half without the mirror half.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut conn = RespClient::connect(addr).unwrap();
                for i in 0..BATCHES {
                    let key = format!("pair{:02}{:04}", w, i).into_bytes();
                    ok(conn.command(&[b"SELECT", b"default"]).unwrap());
                    ok(conn.command(&[b"MULTI"]).unwrap());
                    conn.command(&[b"SET", &key, b"x"]).unwrap();
                    ok(conn.command(&[b"SELECT", b"mirror"]).unwrap());
                    conn.command(&[b"SET", &key, b"x"]).unwrap();
                    let reply = conn.command(&[b"EXEC"]).unwrap();
                    assert_eq!(reply, RespValue::Array(vec![RespValue::ok(); 2]));
                }
            })
        })
        .collect();

    // Readers sample the invariant while writers run: seeing the default
    // half means the whole batch committed, so the mirror half must exist.
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            std::thread::spawn(move || {
                let mut conn = RespClient::connect(addr).unwrap();
                let mut observed = 0u64;
                for round in 0..400u64 {
                    let key = format!(
                        "pair{:02}{:04}",
                        (r + round) % WRITERS as u64,
                        round % BATCHES
                    )
                    .into_bytes();
                    ok(conn.command(&[b"SELECT", b"default"]).unwrap());
                    let first = conn.command(&[b"GET", &key]).unwrap();
                    if let RespValue::Bulk(_) = first {
                        ok(conn.command(&[b"SELECT", b"mirror"]).unwrap());
                        let second = conn.command(&[b"GET", &key]).unwrap();
                        assert!(
                            matches!(second, RespValue::Bulk(_)),
                            "saw default half of {} without its mirror half",
                            String::from_utf8_lossy(&key)
                        );
                        observed += 1;
                    }
                }
                observed
            })
        })
        .collect();

    // A scanner pages through the default family while writes land. Every
    // page is one bounded server-side cursor, and across pages keys must
    // stay strictly increasing (no duplicates, no going backwards).
    let scanner = std::thread::spawn(move || {
        let mut conn = RespClient::connect(addr).unwrap();
        for _ in 0..10 {
            let mut cursor: Vec<u8> = Vec::new();
            let mut last: Option<Vec<u8>> = None;
            loop {
                let reply = conn.command(&[b"SCAN", &cursor, b"COUNT", b"50"]).unwrap();
                let RespValue::Array(parts) = reply else {
                    panic!("SCAN must return [cursor, entries]")
                };
                let RespValue::Bulk(next) = &parts[0] else {
                    panic!()
                };
                let RespValue::Array(flat) = &parts[1] else {
                    panic!()
                };
                for pair in flat.chunks(2) {
                    let RespValue::Bulk(key) = &pair[0] else {
                        panic!()
                    };
                    if let Some(prev) = &last {
                        assert!(key > prev, "scan went backwards or repeated a key");
                    }
                    last = Some(key.clone());
                }
                if next.is_empty() {
                    break;
                }
                cursor = next.clone();
            }
        }
    });

    for writer in writers {
        writer.join().unwrap();
    }
    scanner.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }

    // Post-quiescence: every batch is fully present in both families.
    let mut conn = RespClient::connect(addr).unwrap();
    for family in [b"default".as_slice(), b"mirror".as_slice()] {
        ok(conn.command(&[b"SELECT", family]).unwrap());
        let mut count = 0u64;
        let mut cursor: Vec<u8> = b"pair".to_vec();
        loop {
            let reply = conn
                .command(&[b"SCAN", &cursor, b"END", b"pair~", b"COUNT", b"100"])
                .unwrap();
            let RespValue::Array(parts) = reply else {
                panic!()
            };
            let (RespValue::Bulk(next), RespValue::Array(flat)) = (&parts[0], &parts[1]) else {
                panic!()
            };
            count += (flat.len() / 2) as u64;
            if next.is_empty() {
                break;
            }
            cursor = next.clone();
        }
        assert_eq!(count, WRITERS as u64 * BATCHES);
    }
    server.shutdown();
}

#[test]
fn rate_limited_client_gets_busy_backpressure_not_a_disconnect() {
    let mut config = ServerConfig::default();
    config.rate_limit = Some(RateLimit {
        ops_per_sec: 100.0,
        burst: 5.0,
    });
    let (server, _db) = start_server(config);

    let mut conn = RespClient::connect(server.local_addr()).unwrap();
    let mut busy = 0;
    for i in 0..200u32 {
        let reply = conn
            .command(&[b"SET", format!("k{i}").as_bytes(), b"v"])
            .unwrap();
        match reply {
            RespValue::Error(msg) => {
                assert!(msg.starts_with("BUSY"), "unexpected error: {msg}");
                busy += 1;
            }
            other => assert_eq!(other, RespValue::ok()),
        }
    }
    assert!(
        busy > 0,
        "a 5-op burst must trip within 200 back-to-back ops"
    );
    assert!(
        server
            .counters()
            .rate_limited
            .load(std::sync::atomic::Ordering::Relaxed)
            >= busy
    );

    // The same connection recovers once tokens refill: backpressure, not
    // punishment.
    std::thread::sleep(Duration::from_millis(100));
    let reply = conn.command(&[b"PING"]).unwrap();
    assert_eq!(reply, RespValue::Simple("PONG".to_string()));
    server.shutdown();
}

#[test]
fn auth_is_deny_by_default_over_the_wire() {
    let mut config = ServerConfig::default();
    config.auth = Some(Arc::new(StaticTokenAuth::new("hunter2")));
    let (server, _db) = start_server(config);

    let mut conn = RespClient::connect(server.local_addr()).unwrap();
    let denied = conn.command(&[b"GET", b"k"]).unwrap();
    assert!(matches!(denied, RespValue::Error(msg) if msg.starts_with("NOAUTH")));
    let wrong = conn.command(&[b"AUTH", b"guess"]).unwrap();
    assert!(matches!(wrong, RespValue::Error(msg) if msg.starts_with("WRONGPASS")));
    ok(conn.command(&[b"AUTH", b"hunter2"]).unwrap());
    ok(conn.command(&[b"SET", b"k", b"v"]).unwrap());

    // A second, fresh connection starts denied again.
    let mut other = RespClient::connect(server.local_addr()).unwrap();
    let denied = other.command(&[b"GET", b"k"]).unwrap();
    assert!(matches!(denied, RespValue::Error(msg) if msg.starts_with("NOAUTH")));
    server.shutdown();
}

#[test]
fn protocol_violations_answer_an_error_and_close_only_that_connection() {
    let (server, _db) = start_server(ServerConfig::default());
    let addr = server.local_addr();

    // Raw garbage that can never be a RESP frame.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"!!not resp at all\r\n").unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("-ERR"), "got: {text}");

    // The server is still healthy for well-behaved clients.
    let mut conn = RespClient::connect(addr).unwrap();
    ok(conn.command(&[b"SET", b"still", b"up"]).unwrap());
    assert!(
        server
            .counters()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_pipelined_writes_before_closing() {
    let (server, db) = start_server(ServerConfig::default());

    const PIPELINED: u32 = 200;
    let mut conn = RespClient::connect(server.local_addr()).unwrap();
    for i in 0..PIPELINED {
        conn.send(&[b"SET", format!("drain{i:04}").as_bytes(), b"v"])
            .unwrap();
    }
    // Give the connection thread a moment to pull the burst off the socket,
    // then shut down while replies may still be streaming back.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();

    // Every pipelined write the server accepted before closing is in the
    // store — shutdown drained in-flight commands instead of dropping them.
    for i in 0..PIPELINED {
        let key = format!("drain{i:04}");
        assert_eq!(
            db.get(key.as_bytes()).unwrap(),
            Some(b"v".to_vec()),
            "{key} was accepted but lost in shutdown"
        );
    }
    // The client can still read its acknowledgements off the closed socket.
    let mut oks = 0;
    while let Ok(reply) = conn.read_reply() {
        if reply == RespValue::ok() {
            oks += 1;
        }
    }
    assert_eq!(oks, PIPELINED);
}

#[test]
fn killed_server_recovers_every_acknowledged_write_on_restart() {
    let mem_env = MemEnv::new();
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let dir = Path::new("/server-crash");
    let db: Arc<dyn Db> = Arc::new(
        PebblesDb::open_with_options(
            Arc::clone(&env),
            dir,
            StoreOptions::with_preset(StorePreset::PebblesDb),
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Writers record which writes were acknowledged; the kill severs their
    // sockets mid-stream.
    let writers: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let mut acked = BTreeSet::new();
                let Ok(mut conn) = RespClient::connect(addr) else {
                    return acked;
                };
                for i in 0..10_000u32 {
                    let key = format!("w{w}k{i:06}");
                    match conn.command(&[b"SET", key.as_bytes(), b"v"]) {
                        Ok(RespValue::Simple(_)) => {
                            acked.insert(key);
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(300));
    server.kill();
    let mut acked = BTreeSet::new();
    for writer in writers {
        acked.extend(writer.join().unwrap());
    }
    assert!(!acked.is_empty(), "the kill must land mid-workload");

    // Restart the store from the same (in-memory) disk image.
    drop(db);
    let reopened =
        PebblesDb::open_with_options(env, dir, StoreOptions::with_preset(StorePreset::PebblesDb))
            .unwrap();
    for key in &acked {
        assert_eq!(
            reopened.get(key.as_bytes()).unwrap(),
            Some(b"v".to_vec()),
            "acknowledged write {key} lost across kill + restart"
        );
    }
}

#[test]
fn info_and_prometheus_metrics_render_over_the_wire() {
    let mut config = ServerConfig::default();
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    let (server, _db) = start_server(config);

    let mut conn = RespClient::connect(server.local_addr()).unwrap();
    ok(conn.command(&[b"SET", b"k", b"v"]).unwrap());
    let RespValue::Bulk(info) = conn.command(&[b"INFO"]).unwrap() else {
        panic!("INFO must return bulk")
    };
    let info = String::from_utf8(info).unwrap();
    assert!(info.contains("# server"));
    assert!(info.contains("# store"));
    assert!(info.contains("# cf:default"));

    // The Prometheus side listener answers a plain HTTP GET.
    let metrics_addr = server.metrics_addr().expect("metrics listener configured");
    let mut http = std::net::TcpStream::connect(metrics_addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    http.read_to_end(&mut response).unwrap();
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.0 200 OK"));
    assert!(response.contains("pebblesdb_server_commands"));
    assert!(response.contains("pebblesdb_store_user_bytes_written"));
    assert!(response.contains("pebblesdb_cf_num_files{cf=\"default\"}"));
    server.shutdown();
}

#[test]
fn shutdown_drain_on_a_dead_connection_is_counted_not_hidden() {
    // Slow the store's appends so the connection thread is still answering
    // the first burst when the client dies and the shutdown lands: the
    // second burst is then answered by the shutdown drain itself, against a
    // connection that is already gone.
    let mem_env = MemEnv::new();
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let db: Arc<dyn Db> = Arc::new(
        PebblesDb::open_with_options(
            Arc::clone(&env),
            Path::new("/server-drain"),
            StoreOptions::with_preset(StorePreset::PebblesDb),
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let counters = server.counters();

    const BURST: u32 = 40;
    let mut conn = RespClient::connect(server.local_addr()).unwrap();
    mem_env.set_write_latency_micros(20_000);
    for i in 0..BURST {
        conn.send(&[b"SET", format!("a{i:03}").as_bytes(), b"v"])
            .unwrap();
    }
    // Let the thread pull burst A off the socket, then queue burst B behind
    // it and vanish without reading a single reply.
    std::thread::sleep(Duration::from_millis(200));
    for i in 0..BURST {
        conn.send(&[b"SET", format!("b{i:03}").as_bytes(), b"v"])
            .unwrap();
    }
    drop(conn);

    // Shutdown flags the connection thread mid-burst-A; once it finishes,
    // it enters the drain with burst B still buffered and the peer dead.
    server.shutdown();
    mem_env.set_write_latency_micros(0);

    // Burst A was accepted before the drain and must have been applied.
    for i in 0..BURST {
        let key = format!("a{i:03}");
        assert_eq!(
            db.get(key.as_bytes()).unwrap(),
            Some(b"v".to_vec()),
            "{key} was accepted but lost in shutdown"
        );
    }
    // The drain could not deliver its replies (or farewell) to the dead
    // socket; before the fix this was silently discarded.
    assert!(
        counters
            .shutdown_drain_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "failed drain was not surfaced in the counters"
    );
}
