//! End-to-end application benchmarks (one full app run per iteration).

use adcp_apps::driver::TargetKind;
use adcp_apps::{dbshuffle, graphmine, kvcache};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_apps(c: &mut Criterion) {
    let mut g = c.benchmark_group("apps_e2e");
    g.sample_size(10);

    let db = dbshuffle::DbShuffleCfg {
        workload: adcp_workloads::shuffle::ShuffleWorkload {
            mappers: 4,
            reducers: 4,
            rows_per_mapper: 200,
            selectivity: 0.5,
            distinct_keys: 32,
            skew: 0.9,
        },
        coordinator_port: 15,
        seed: 1,
    };
    g.bench_function("dbshuffle_adcp", |b| {
        b.iter_batched(
            || db.clone(),
            |cfg| dbshuffle::run(TargetKind::Adcp, &cfg),
            BatchSize::SmallInput,
        )
    });

    let gm = graphmine::GraphMineCfg {
        workload: adcp_workloads::graph::BspWorkload {
            partitions: 4,
            vertices: 500,
            edges: 2000,
            supersteps: 5,
        },
        base_candidates: 2,
        seed: 1,
    };
    g.bench_function("graphmine_adcp", |b| {
        b.iter_batched(
            || gm.clone(),
            |cfg| graphmine::run(TargetKind::Adcp, &cfg),
            BatchSize::SmallInput,
        )
    });

    let kv = kvcache::KvCacheCfg {
        requests: 300,
        ..Default::default()
    };
    g.bench_function("kvcache_adcp", |b| {
        b.iter_batched(
            || kv.clone(),
            |cfg| kvcache::run(TargetKind::Adcp, &cfg),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
