//! Compare FLSM and LSM compaction behaviour side by side (the scenario of
//! Figures 2.1 and 3.1 in the paper).
//!
//! Inserts the same random workload into PebblesDB and the HyperLevelDB-style
//! baseline, then prints each store's level layout, write amplification and
//! compaction effort.
//!
//! ```text
//! cargo run -p pebblesdb-examples --bin compare_engines
//! ```

use std::path::Path;
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{KvStore, ReadOptions, StoreOptions};
use pebblesdb_env::MemEnv;
use pebblesdb_lsm::LsmDb;

fn small_options() -> StoreOptions {
    let mut options = StoreOptions::default();
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 32 << 10;
    options.base_level_bytes = 128 << 10;
    options.top_level_bits = 10;
    options
}

fn workload(store: &dyn KvStore, keys: u32) {
    for i in 0..keys {
        let k = (i.wrapping_mul(48271)) % keys;
        store
            .put(format!("key{k:08}").as_bytes(), &vec![b'v'; 256])
            .expect("put");
    }
    store.flush().expect("flush");
}

/// Streams the whole store through the cursor API, the read pattern the
/// FLSM pays for and the iterator-level optimisations win back.
fn full_cursor_walk(store: &dyn KvStore) -> u64 {
    let mut iter = store.iter(&ReadOptions::default()).expect("cursor");
    iter.seek_to_first();
    let mut rows = 0u64;
    while iter.valid() {
        rows += 1;
        iter.next();
    }
    rows
}

fn main() {
    let keys = 30_000u32;

    let pebbles_env = Arc::new(MemEnv::new());
    let pebbles = PebblesDb::open_with_options(pebbles_env, Path::new("/pebbles"), small_options())
        .expect("open pebblesdb");
    workload(&pebbles, keys);

    let lsm_env = Arc::new(MemEnv::new());
    let lsm = LsmDb::open_with_options(lsm_env, Path::new("/hyper"), small_options())
        .expect("open baseline");
    workload(&lsm, keys);

    println!("{keys} random inserts of 256-byte values into both engines\n");

    println!(
        "full cursor walk: PebblesDB streamed {} rows, baseline {} rows\n",
        full_cursor_walk(&pebbles),
        full_cursor_walk(&lsm)
    );

    let p = pebbles.stats();
    println!("PebblesDB (FLSM)");
    println!("  layout:             {}", pebbles.level_summary());
    println!("  guards per level:   {:?}", pebbles.guards_per_level());
    println!("  write amplification {:.2}", p.write_amplification());
    println!(
        "  compactions {}  (read {}  wrote {})",
        p.compactions,
        pebblesdb_examples::mib(p.compaction_bytes_read),
        pebblesdb_examples::mib(p.compaction_bytes_written)
    );

    let l = lsm.stats();
    println!("\nHyperLevelDB-style baseline (LSM)");
    println!("  layout:             {}", lsm.level_summary());
    println!("  write amplification {:.2}", l.write_amplification());
    println!(
        "  compactions {}  (read {}  wrote {})",
        l.compactions,
        pebblesdb_examples::mib(l.compaction_bytes_read),
        pebblesdb_examples::mib(l.compaction_bytes_written)
    );

    println!(
        "\nFLSM compaction reads {:.1}x less data than the LSM baseline on this workload,",
        l.compaction_bytes_read.max(1) as f64 / p.compaction_bytes_read.max(1) as f64
    );
    println!("because it never rewrites sstables that already live in the next level.");
}
