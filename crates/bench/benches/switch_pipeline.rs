//! Whole-switch simulation rate: how many simulated packets per host
//! second each model sustains (simulator performance, not modeled
//! line rate).

use adcp_apps::driver::TargetKind;
use adcp_apps::paramserv::{self, ParamServerCfg};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_switches(c: &mut Criterion) {
    let mut g = c.benchmark_group("switch_sim_rate");
    g.sample_size(10);
    let cfg = ParamServerCfg {
        workers: 8,
        model_size: 256,
        width: 16,
        seed: 1,
    };
    // 8 workers x 16 chunks = 128 packets per run on ADCP.
    g.throughput(Throughput::Elements(128));
    g.bench_function("adcp_paramserv_run", |b| {
        b.iter_batched(
            || cfg.clone(),
            |cfg| paramserv::run(TargetKind::Adcp, &cfg),
            BatchSize::SmallInput,
        )
    });
    // Scalar RMT: 8 x 256 = 2048 packets (plus recirculation).
    g.throughput(Throughput::Elements(2048));
    g.bench_function("rmt_recirc_paramserv_run", |b| {
        b.iter_batched(
            || cfg.clone(),
            |cfg| paramserv::run(TargetKind::RmtRecirc, &cfg),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_switches);
criterion_main!(benches);
