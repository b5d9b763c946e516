//! Determinism under sharded central-pipe execution.
//!
//! The ADCP switch may run the compute stage of same-timestamp central
//! pulls on worker threads (`AdcpConfig::central_workers`). The contract
//! is that this is *purely* a wall-clock optimization: every observable
//! output — delivered counts, register-derived correctness oracles,
//! latency summaries, the full per-stage metrics export — must be
//! byte-identical for any worker count, per seed. These tests serialize
//! the complete `AppReport` to JSON and compare the bytes across worker
//! counts 1, 2, and 4 for the three central-state-heavy apps.

use adcp_apps::{dbshuffle, ddos, flowlet, migrate, paramserv, TargetKind};
use serde::Serialize;

fn json<T: Serialize>(v: &T) -> String {
    let mut s = String::new();
    v.to_value().encode(&mut s);
    s
}

#[test]
fn paramserv_identical_across_worker_counts() {
    for seed in [1u64, 9, 23] {
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = paramserv::ParamServerCfg {
                seed,
                central_workers: workers,
                ..Default::default()
            };
            let report = paramserv::run(TargetKind::Adcp, &cfg);
            assert!(report.correct, "paramserv seed {seed} workers {workers}");
            reports.push(json(&report));
        }
        assert_eq!(
            reports[0], reports[1],
            "paramserv seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            reports[0], reports[2],
            "paramserv seed {seed}: 1 vs 4 workers diverged"
        );
    }
}

#[test]
fn dbshuffle_identical_across_worker_counts() {
    for seed in [3u64, 17] {
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = dbshuffle::DbShuffleCfg {
                seed,
                central_workers: workers,
                ..Default::default()
            };
            let report = dbshuffle::run(TargetKind::Adcp, &cfg);
            assert!(report.correct, "dbshuffle seed {seed} workers {workers}");
            reports.push(json(&report));
        }
        assert_eq!(
            reports[0], reports[1],
            "dbshuffle seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            reports[0], reports[2],
            "dbshuffle seed {seed}: 1 vs 4 workers diverged"
        );
    }
}

/// The TE workload: shared per-uplink load estimates mean same-replica
/// central pulls race when sharded — the full report (per-uplink loads,
/// repick counts, latency, metrics) must not depend on the worker count.
#[test]
fn flowlet_ldf_identical_across_worker_counts() {
    for seed in [4u64, 19] {
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = flowlet::LdfCfg {
                seed,
                central_workers: workers,
                ..Default::default()
            };
            let out = flowlet::run(TargetKind::Adcp, &cfg);
            assert!(
                out.report.correct,
                "flowlet-ldf seed {seed} workers {workers}"
            );
            let fingerprint = format!(
                "{}|{}|{}|{:?}",
                json(&out.report),
                out.repicks,
                out.wraps,
                out.per_uplink,
            );
            outcomes.push(fingerprint);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "flowlet-ldf seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "flowlet-ldf seed {seed}: 1 vs 4 workers diverged"
        );
    }
}

/// The security workload, with the live mid-attack reshard on: sharded
/// execution interleaves with the migration fences, and the whole
/// outcome — drops, promotion/demotion counts, migration stats, final
/// epoch, skew figures — must not depend on the worker count.
#[test]
fn ddos_identical_across_worker_counts() {
    for seed in [11u64, 27] {
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = ddos::DdosCfg {
                seed,
                central_workers: workers,
                ..Default::default()
            };
            let out = ddos::run(TargetKind::Adcp, &cfg);
            assert!(out.report.correct, "ddos seed {seed} workers {workers}");
            let fingerprint = format!(
                "{}|{}|{}|{}|{}|{:?}|{}|{}|{}",
                json(&out.report),
                out.promotions,
                out.demotions,
                out.predicted_drops,
                out.rebalances,
                out.stats,
                out.final_epoch,
                out.skew_before,
                out.skew_after,
            );
            outcomes.push(fingerprint);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "ddos seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "ddos seed {seed}: 1 vs 4 workers diverged"
        );
    }
}

/// The fabric extension of the same contract: six switches, each its own
/// event loop with sharded central pulls, coupled by links. The
/// complete serialized `FabricReport` — per-device counters, per-link
/// stats, and digests over every delivered frame and every central
/// register cell fabric-wide — must be byte-identical for any worker
/// count, per seed.
#[test]
fn fabric_report_identical_across_worker_counts() {
    for seed in [5u64, 21] {
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = adcp_fabric::FabricConfig {
                switch: adcp_core::AdcpConfig {
                    central_workers: workers,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (demo, report) = adcp_fabric::run_demo_with_report(seed, 400, cfg);
            assert!(demo.correct, "fabric seed {seed} workers {workers}");
            reports.push(json(&report));
        }
        assert_eq!(
            reports[0], reports[1],
            "fabric seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            reports[0], reports[2],
            "fabric seed {seed}: 1 vs 4 workers diverged"
        );
    }
}

/// The hard case: live repartitioning interleaves with sharded execution.
/// The switch must serialize exactly while fences are in flight and may
/// shard in between — the whole run, including migration protocol stats
/// and the final epoch, must not depend on the worker count.
#[test]
fn partmigrate_identical_across_worker_counts() {
    for seed in [31u64, 8] {
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 4] {
            // Bursts of four synchronized senders make central pulls on
            // different pipes coincide, so the sharded barrier path
            // actually engages between the controller's migration windows.
            let cfg = migrate::MigrateCfg {
                seed,
                packets: 2_000,
                gap_ns: 10,
                burst: 4,
                central_workers: workers,
                ..Default::default()
            };
            let out = migrate::run(TargetKind::Adcp, &cfg);
            assert!(
                out.report.correct,
                "partmigrate seed {seed} workers {workers}"
            );
            let fingerprint = format!(
                "{}|{}|{}|{:?}|{}|{}",
                json(&out.report),
                out.rebalances,
                out.final_epoch,
                out.stats,
                out.skew_before,
                out.skew_after,
            );
            outcomes.push(fingerprint);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "partmigrate seed {seed}: 1 vs 2 workers diverged"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "partmigrate seed {seed}: 1 vs 4 workers diverged"
        );
    }
}
