//! Quickstart: open a PebblesDB database, write, snapshot, stream a cursor
//! and inspect the FLSM layout.
//!
//! ```text
//! cargo run -p pebblesdb-examples --bin quickstart
//! ```

use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{Db, KvStore, ReadOptions, StoreOptions, StorePreset, WriteBatch};
use pebblesdb_env::DiskEnv;

fn main() {
    let dir = pebblesdb_examples::scratch_dir("quickstart");
    let env = DiskEnv::new();
    let _ = std::fs::remove_dir_all(&dir);

    // Open (and create) a database on disk.
    let options = StoreOptions::with_preset(StorePreset::PebblesDb);
    let db = PebblesDb::open_with_options(Arc::new(env), &dir, options).expect("open database");

    // Single writes and reads.
    db.put(b"language", b"rust").expect("put");
    db.put(b"paper", b"pebblesdb-sosp17").expect("put");
    assert_eq!(db.get(b"language").expect("get"), Some(b"rust".to_vec()));

    // Atomic batches.
    let mut batch = WriteBatch::new();
    batch.put(b"guard", b"skip-list inspired");
    batch.delete(b"language");
    db.write(batch).expect("batch write");
    assert_eq!(db.get(b"language").expect("get"), None);

    // Insert a larger sorted range.
    for i in 0..10_000u32 {
        db.put(
            format!("key{i:06}").as_bytes(),
            format!("value-{i}").as_bytes(),
        )
        .expect("bulk put");
    }
    db.flush().expect("flush");

    // Pin a snapshot, then keep writing: reads through the snapshot still
    // see the pre-write state.
    let snap = db.snapshot();
    db.put(b"key000100", b"overwritten-later").expect("put");
    assert_eq!(
        db.get_opts(&snap.read_options(), b"key000100")
            .expect("snapshot get"),
        Some(b"value-100".to_vec())
    );

    // Stream a range with a cursor instead of materialising a vector: seek
    // to the start, then drive `next()` lazily.
    let mut iter = db.iter(&snap.read_options()).expect("iterator");
    iter.seek(b"key000100");
    let mut printed = 0;
    println!("cursor over [key000100, key000110):");
    while iter.valid() && iter.key() < b"key000110".as_slice() {
        println!(
            "  {} -> {}",
            String::from_utf8_lossy(iter.key()),
            String::from_utf8_lossy(iter.value())
        );
        printed += 1;
        iter.next();
    }
    assert_eq!(printed, 10);
    drop(iter);
    drop(snap); // releases the pinned sequence so compaction may GC it

    // The materialising convenience API is still there, built on the cursor.
    let range = db
        .scan(b"key000100", b"key000110", 100)
        .expect("range query");
    println!("scan() returned {} entries (newest data)", range.len());
    assert_eq!(range[0].1, b"overwritten-later".to_vec());
    let _ = db.iter(&ReadOptions::default()).expect("plain cursor");

    // Column families: a secondary index in its own namespace, maintained
    // atomically with the primary rows. Every family shares the WAL and
    // sequence space, so one cross-family batch is one atomic commit.
    let by_value = db.create_cf("by-value").expect("create column family");
    let indexed_put = |key: &[u8], value: &[u8]| {
        let mut batch = WriteBatch::new();
        batch.put(key, value); // default family: the primary row
        batch.put_cf(by_value.id(), &[value, b"/", key].concat(), &[]); // index entry
        db.write(batch).expect("atomic cross-family batch");
    };
    indexed_put(b"user:1", b"alice");
    indexed_put(b"user:2", b"bob");
    indexed_put(b"user:3", b"alice");
    // Look keys up by value with a scan over the index family only; the
    // family is a real namespace, so the cursor never sees primary rows.
    let alices = by_value
        .scan(b"alice/", b"alice0", 100)
        .expect("index scan");
    println!(
        "\nindex family finds {} keys for value \"alice\": {:?}",
        alices.len(),
        alices
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(&k[b"alice/".len()..]).into_owned())
            .collect::<Vec<_>>()
    );
    assert_eq!(alices.len(), 2);
    println!("column families: {:?}", db.list_cfs());
    for cf in db.cf_stats() {
        println!(
            "  {}: {} files, {} live bytes, {} flushes",
            cf.name, cf.num_files, cf.live_bytes, cf.flushes
        );
    }

    // Peek at the FLSM structure and the store statistics.
    println!("\nFLSM layout: {}", db.level_summary());
    println!("guards per level: {:?}", db.guards_per_level());
    let stats = db.stats();
    println!(
        "user data {} | device writes {} | write amplification {:.2}",
        pebblesdb_examples::mib(stats.user_bytes_written),
        pebblesdb_examples::mib(stats.bytes_written),
        stats.write_amplification()
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
