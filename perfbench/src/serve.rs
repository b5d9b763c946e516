//! `serve`: the `adcpd` daemon on its soak configuration (`DaemonCfg::soak`:
//! 1024 slices of 250 us, open-loop diurnal x MMPP arrivals, a
//! drop/corrupt/delay fault schedule, the SLO burn-rate autoscaler on),
//! driven slice by slice through `Daemon::new` / `run_slice` / `finish`.
//!
//! The only workload that runs `adcpd`, its SLO tracker and arrival
//! generator, and the only one made of many short `run_until` calls.
//!
//! The autoscaler may grow to `MAX_PIPES` central pipes instead of the
//! soak's 4. The daemon sets `central_workers` to its active pipe count, and
//! every same-timestamp central batch then runs on freshly spawned threads,
//! one per worker that has work; at 4 pipes that is up to 4 worker threads,
//! more than the 2 cores of the host the bounds were set on. The benchmark
//! also pins the process to one CPU (`pin.rs`) and calibrates this
//! workload by timing thread spawns (`calib.rs`).

use crate::outcome::{Fnv, Outcome};
use crate::trace::Tracer;
use adcpd::daemon::{Daemon, DaemonCfg};
use std::time::Instant;

/// Soaks in one round. One soak's host time per packet depends on its
/// seed: most seeds lie within ±8 % of each other, but some run 25 %
/// faster. So every soak is
/// its own iteration, calibrated on its own, and a round runs soaks of
/// `SOAKS` different seeds, whose median the end-to-end metrics take.
pub const SOAKS: usize = 8;

/// The seed of soak `k` of the run seeded `seed`: runs with different
/// seeds share no soak.
pub fn soak_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SOAKS as u64).wrapping_add(k as u64)
}

/// The autoscaler's ceiling: at most this many central pipes, so at most
/// this many worker threads.
const MAX_PIPES: u32 = 2;

/// Build the daemon: switch, program, partition map, traffic and fault
/// processes.
pub fn setup(seed: u64, tr: &mut Tracer) -> Daemon {
    let p = tr.phase("bench.setup");
    let mut cfg = DaemonCfg::soak(seed);
    cfg.scale.max_pipes = MAX_PIPES;
    let daemon = tr.call("adcpd.new", || {
        Daemon::new(cfg).expect("the soak config is valid")
    });
    tr.end(p);
    daemon
}

/// One iteration: one soak.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let slices = DaemonCfg::soak(seed).slices;
    let mut daemon = setup(seed, tr);

    let p = tr.phase("bench.sim");
    out.slices_ms.reserve(slices as usize);
    for _ in 0..slices {
        let t = Instant::now();
        tr.call("adcpd.slice", || daemon.run_slice());
        out.slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let report = tr.call("adcpd.finish", || daemon.finish());
    tr.end(p);

    let p = tr.phase("bench.verify");
    if !report.healthy {
        // The daemon's books cannot pin a breach on single packets, so an
        // unhealthy run fails every packet it offered.
        out.failed = report.injected;
        out.errors.push(format!(
            "soak report unhealthy: drift {:?}, oracle {:?}, conservation_ok {}, misroutes {}",
            report.drift, report.oracle, report.conservation_ok, report.misroutes
        ));
    }
    let slo = &report.slo;
    out.values.insert("sim_latency_p50_ns", slo.p50_ns as f64);
    out.values.insert("sim_latency_p99_ns", slo.p99_ns as f64);
    out.values.insert(
        "slo_violation_frac",
        slo.violations as f64 / slo.slices.max(1) as f64,
    );
    out.values
        .insert("adcpd.scale_ups", report.scale_ups as f64);
    out.values
        .insert("adcpd.scale_downs", report.scale_downs as f64);
    out.values
        .insert("ctrl.migrations", report.migrations as f64);
    out.values
        .insert("ctrl.moved_keys", report.moved_keys as f64);
    out.values.insert("ctrl.misroutes", report.misroutes as f64);
    // The report holds no wall-clock times, so its JSON is the digest of
    // everything the daemon simulated.
    let mut digest = Fnv::new();
    digest.bytes(report.to_json().as_bytes());
    out.digest = digest.finish();
    tr.end(p);

    out.attempted = report.injected;
    out.layer_pkts = vec![("adcpd", report.injected)];
    out
}
