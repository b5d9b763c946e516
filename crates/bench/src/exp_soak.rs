//! E-D1: the serving-daemon soak matrix (see `EXPERIMENTS.md`).
//!
//! Runs the compressed soak choreography — diurnal + MMPP open-loop
//! traffic through the drop/corrupt/delay fault schedule with the
//! SLO-driven autoscaler live — once per serving application, and
//! distills each run's [`SoakReport`] into one row. Every run must end
//! **healthy**: forensics ≡ registry with zero drift, serving-oracle
//! clean, packet conservation exact, `misroutes == 0`, and the autoscaler
//! must have scaled up *and* down at least once.

use adcpd::daemon::{Daemon, DaemonCfg, SoakReport};
use adcpd::menu::ServeApp;
use serde::Serialize;

/// One soak run distilled for the E-D1 table.
#[derive(Debug, Clone, Serialize)]
pub struct SoakRow {
    /// Serving application.
    pub app: String,
    /// Simulated time served, ns.
    pub sim_ns: u64,
    /// Open-loop arrivals generated.
    pub arrivals: u64,
    /// Responses delivered.
    pub delivered: u64,
    /// Lifetime p99 latency, ns.
    pub p99_ns: u64,
    /// SLO-violating slices over the run.
    pub violations: u64,
    /// Autoscaler actions: up / down / skew.
    pub scale_ups: u64,
    /// Scale-down actions.
    pub scale_downs: u64,
    /// Skew-driven rebalances.
    pub skew_rebalances: u64,
    /// Epoch-consistency violations (must be 0).
    pub misroutes: u64,
    /// All invariants held at drain.
    pub healthy: bool,
}

fn row(app: ServeApp, r: &SoakReport) -> SoakRow {
    SoakRow {
        app: app.name().to_string(),
        sim_ns: r.sim_ns,
        arrivals: r.arrivals,
        delivered: r.delivered,
        p99_ns: r.slo.p99_ns,
        violations: r.slo.violations,
        scale_ups: r.scale_ups,
        scale_downs: r.scale_downs,
        skew_rebalances: r.skew_rebalances,
        misroutes: r.misroutes,
        healthy: r.healthy,
    }
}

/// Run the E-D1 matrix: `{shardcount, shardmax}`, quick (compressed) or
/// full (4× sim time). Interruptible at run boundaries via
/// [`crate::shutdown`]; completed rows are still returned.
pub fn exp_soak(quick: bool, seed: u64) -> Vec<SoakRow> {
    let mut rows = Vec::new();
    for app in [ServeApp::ShardCount, ServeApp::ShardMax] {
        if crate::shutdown::requested() {
            break;
        }
        let mut cfg = if quick {
            DaemonCfg::soak_quick(seed)
        } else {
            DaemonCfg::soak(seed)
        };
        cfg.app = app;
        let r = Daemon::new(cfg).expect("daemon builds").run();
        rows.push(row(app, &r));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_healthy() {
        let rows = exp_soak(true, 7);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.healthy, "{} unhealthy", r.app);
            assert!(
                r.scale_ups >= 1 && r.scale_downs >= 1,
                "{} loop never closed",
                r.app
            );
            assert_eq!(r.misroutes, 0);
        }
    }
}
