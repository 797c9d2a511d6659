//! End-to-end tests driving the YCSB runner and the application layers over
//! the real engines — the full stack Figure 5.5 and Figure 5.6 use.

use std::path::Path;
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_apps::{HyperDexLike, MongoLike};
use pebblesdb_common::{Db, KvStore, StoreOptions};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_ycsb::runner::load_phase;
use pebblesdb_ycsb::{run_workload, CoreWorkload, WorkloadKind};

fn small_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 64 << 10;
    opts.max_file_size = 32 << 10;
    opts.base_level_bytes = 128 << 10;
    opts.top_level_bits = 8;
    opts
}

#[test]
fn ycsb_suite_runs_against_pebblesdb_with_four_threads() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let store: Arc<dyn KvStore> =
        Arc::new(PebblesDb::open_with_options(env, Path::new("/ycsb"), small_options()).unwrap());

    let records = 2000u64;
    let workload = CoreWorkload::preset(WorkloadKind::LoadA, records).with_value_size(256);
    load_phase(&store, &workload, 4).unwrap();
    store.flush().unwrap();

    for kind in [
        WorkloadKind::A,
        WorkloadKind::B,
        WorkloadKind::C,
        WorkloadKind::D,
        WorkloadKind::E,
        WorkloadKind::F,
    ] {
        let report = run_workload(Arc::clone(&store), kind, records, 1000, 4, 256).unwrap();
        assert!(report.operations >= 1000, "{}", kind.name());
        assert!(report.kops_per_second() > 0.0, "{}", kind.name());
        assert!(report.latency.count() >= 1000, "{}", kind.name());
        assert!(
            report.latency.percentile(50.0) <= report.latency.percentile(99.0),
            "{}",
            kind.name()
        );
    }
    // The store served real data: workload C is read-only over loaded keys.
    let stats = store.stats();
    assert!(stats.gets > 0);
    assert!(stats.seeks > 0, "workload E must issue range queries");
}

#[test]
fn hyperdex_layer_runs_ycsb_over_both_engines() {
    for use_pebbles in [true, false] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // The app layers take a multi-namespace `Db`: their secondary
        // indexes and collections are real column families now.
        let engine: Arc<dyn Db> = if use_pebbles {
            Arc::new(PebblesDb::open_with_options(env, Path::new("/hx"), small_options()).unwrap())
        } else {
            Arc::new(LsmDb::open_with_options(env, Path::new("/hx"), small_options()).unwrap())
        };
        let app: Arc<HyperDexLike> = Arc::new(HyperDexLike::new(engine, 0).unwrap());

        let records = 1000u64;
        let workload = CoreWorkload::preset(WorkloadKind::LoadA, records).with_value_size(128);
        let store: Arc<dyn KvStore> = Arc::clone(&app) as Arc<dyn KvStore>;
        load_phase(&store, &workload, 2).unwrap();
        let report =
            run_workload(Arc::clone(&store), WorkloadKind::A, records, 500, 2, 128).unwrap();
        assert!(report.operations >= 500);
        assert!(report.engine.starts_with("HyperDex("));

        // Values written through the app layer read back through it.
        let key = CoreWorkload::key_for(3);
        let value = app.get(&key).unwrap().expect("loaded key exists");
        // ... and the secondary-index family finds the key by its value.
        assert!(app
            .search_by_value(&value)
            .unwrap()
            .iter()
            .any(|k| k == &key));
    }
}

#[test]
fn mongo_layer_preserves_values_across_engines_and_scans() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let engine: Arc<dyn Db> =
        Arc::new(PebblesDb::open_with_options(env, Path::new("/mongo"), small_options()).unwrap());
    let app = MongoLike::new(engine, 0).unwrap();
    for i in 0..500u32 {
        app.put(
            format!("doc{i:05}").as_bytes(),
            format!("body-{i}").as_bytes(),
        )
        .unwrap();
    }
    app.flush().unwrap();
    assert_eq!(app.get(b"doc00042").unwrap(), Some(b"body-42".to_vec()));
    let scanned = app.scan(b"doc00100", b"doc00110", 100).unwrap();
    assert_eq!(scanned.len(), 10);
    assert_eq!(scanned[0].0, b"doc00100".to_vec());
    assert_eq!(scanned[0].1, b"body-100".to_vec());
    assert_eq!(app.engine_name(), "MongoDB(PebblesDB)");
}
