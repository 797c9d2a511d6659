//! Figure 5.2: environmental effects — an aged key-value store and a
//! low-memory configuration.
//!
//! * `--part aged`: the store is aged before measuring (bulk insert, then
//!   interleaved deletes and updates from multiple threads, as in §5.2
//!   "Impact of File-System and Key-Value Store Aging"). File-system aging is
//!   not reproducible in-process and is noted as a substitution in DESIGN.md.
//! * `--part lowmem`: the store runs with tiny caches relative to the
//!   dataset, mimicking the paper's `mem=4GB` boot parameter where DRAM is
//!   6 % of the dataset.

use std::sync::Arc;

use pebblesdb_bench::engines::{open_bench_env, open_engine_with_options, scaled_options};
use pebblesdb_bench::report::format_kops;
use pebblesdb_bench::{Args, EngineKind, Report, Workload};
use pebblesdb_common::KvStore;

fn open_with(
    engine: EngineKind,
    env: Arc<dyn pebblesdb_env::Env>,
    dir: &std::path::Path,
    scale: usize,
    lowmem: bool,
) -> Arc<dyn KvStore> {
    let mut options = scaled_options(engine, scale);
    if lowmem {
        options.block_cache_capacity = 64 << 10;
        options.write_buffer_size = 64 << 10;
        options.max_open_files = 50;
    }
    open_engine_with_options(engine, env, dir, options).expect("open")
}

fn age_store(store: &Arc<dyn KvStore>, keys: u64, value_size: usize) {
    // Four aging threads: insert, then delete 40% and update 40% in random
    // order, mirroring the paper's aging recipe at reduced scale.
    Workload::FillRandom
        .run(store, keys, 16, value_size, 4)
        .expect("age fill");
    Workload::DeleteRandom
        .run(store, keys * 2 / 5, 16, value_size, 4)
        .expect("age delete");
    Workload::Overwrite
        .run(store, keys * 2 / 5, 16, value_size, 4)
        .expect("age update");
    store.flush().expect("flush");
}

fn run(args: &Args, part: &str) {
    let keys = args.get_u64("keys", 40_000);
    let value_size = args.get_u64("value-size", 1024) as usize;
    let scale = args.get_u64("scale-divisor", 16) as usize;
    let lowmem = part == "lowmem";

    let mut report = Report::new(
        &format!(
            "Figure 5.2 ({part}): writes / reads / seeks after environmental stress ({keys} keys)"
        ),
        vec![
            "store".to_string(),
            "write KOps/s".to_string(),
            "read KOps/s".to_string(),
            "seek KOps/s".to_string(),
        ],
    );

    for engine in EngineKind::paper_four() {
        let (env, dir) = open_bench_env(
            &args.get_str("env", "mem"),
            engine,
            &args.get_str("dir", ""),
        );
        let store = open_with(engine, env, &dir, scale, lowmem);
        if part == "aged" {
            age_store(&store, keys, value_size);
        }
        let writes = Workload::FillRandom
            .run(&store, keys, 16, value_size, 1)
            .expect("writes");
        store.flush().expect("flush");
        let reads = Workload::ReadRandom
            .run(&store, keys / 2, 16, value_size, 1)
            .expect("reads");
        let seeks = Workload::SeekRandom
            .run(&store, keys / 4, 16, value_size, 1)
            .expect("seeks");
        report.add_row(vec![
            engine.name().to_string(),
            format_kops(writes.kops_per_second()),
            format_kops(reads.kops_per_second()),
            format_kops(seeks.kops_per_second()),
        ]);
    }
    match part {
        "aged" => report.add_note("Paper: on an aged store PebblesDB's write advantage drops from 2.7x to ~2x, reads stay ~8% ahead, and range queries pay ~40%."),
        _ => report.add_note("Paper: with DRAM at 6% of the dataset PebblesDB keeps a 64% write and 63% read advantage but loses ~40% on range queries."),
    }
    report.print();
}

fn main() {
    let args = Args::parse();
    match args.get_str("part", "all").as_str() {
        "aged" => run(&args, "aged"),
        "lowmem" => run(&args, "lowmem"),
        _ => {
            run(&args, "aged");
            run(&args, "lowmem");
        }
    }
}
