//! Shared plumbing for running one application on either switch model.
//!
//! Each app module builds per-architecture program variants (the paper's
//! point is precisely that RMT forces restructuring), drives the switch
//! with a workload, verifies results against a closed-form reference, and
//! returns an [`AppReport`] the benches print.

use adcp_core::AdcpSwitch;
use adcp_rmt::RmtSwitch;
use adcp_sim::packet::{FrameBuf, Packet, PacketMeta, PortId};
use adcp_sim::stats::{LatencySummary, Meter};
use adcp_sim::time::{Duration, SimTime};
use serde::Serialize;

/// Which architecture (and, for RMT, which central-table lowering) an app
/// variant targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TargetKind {
    /// Classic RMT, central tables egress-pinned.
    RmtPinned,
    /// Classic RMT, central tables via recirculation.
    RmtRecirc,
    /// The ADCP.
    Adcp,
}

impl TargetKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TargetKind::RmtPinned => "rmt/pinned",
            TargetKind::RmtRecirc => "rmt/recirc",
            TargetKind::Adcp => "adcp",
        }
    }
}

/// A delivered packet, unified across switch models.
#[derive(Debug, Clone)]
pub struct DeliveredPkt {
    /// TX port.
    pub port: PortId,
    /// Last-bit time.
    pub time: SimTime,
    /// Final frame bytes (moved from the switch's delivery record).
    pub data: FrameBuf,
    /// Final metadata.
    pub meta: PacketMeta,
}

/// Either switch model behind one interface.
pub enum AnySwitch {
    /// The RMT baseline.
    Rmt(Box<RmtSwitch>),
    /// The coflow processor.
    Adcp(Box<AdcpSwitch>),
}

impl AnySwitch {
    /// Offer a packet to an RX port.
    pub fn inject(&mut self, port: PortId, pkt: Packet, t: SimTime) {
        match self {
            AnySwitch::Rmt(s) => s.inject(port, pkt, t),
            AnySwitch::Adcp(s) => s.inject(port, pkt, t),
        }
    }

    /// Run to quiescence.
    pub fn run_until_idle(&mut self) -> SimTime {
        match self {
            AnySwitch::Rmt(s) => s.run_until_idle(),
            AnySwitch::Adcp(s) => s.run_until_idle(),
        }
    }

    /// Run every event scheduled at or before `t`, then stop.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        match self {
            AnySwitch::Rmt(s) => s.run_until(t),
            AnySwitch::Adcp(s) => s.run_until(t),
        }
    }

    /// Drain deliveries.
    pub fn take_delivered(&mut self) -> Vec<DeliveredPkt> {
        match self {
            AnySwitch::Rmt(s) => s
                .take_delivered()
                .into_iter()
                .map(|d| DeliveredPkt {
                    port: d.port,
                    time: d.time,
                    data: d.data,
                    meta: d.meta,
                })
                .collect(),
            AnySwitch::Adcp(s) => s
                .take_delivered()
                .into_iter()
                .map(|d| DeliveredPkt {
                    port: d.port,
                    time: d.time,
                    data: d.data,
                    meta: d.meta,
                })
                .collect(),
        }
    }

    /// Assert packet conservation.
    pub fn check_conservation(&self) {
        match self {
            AnySwitch::Rmt(s) => s.check_conservation(),
            AnySwitch::Adcp(s) => s.check_conservation(),
        }
    }

    /// (injected, delivered, total drops, recirc passes).
    pub fn flow_counts(&self) -> (u64, u64, u64, u64) {
        match self {
            AnySwitch::Rmt(s) => (
                s.counters.injected,
                s.counters.delivered,
                s.counters.total_drops(),
                s.counters.recirc_passes,
            ),
            AnySwitch::Adcp(s) => (
                s.counters.injected,
                s.counters.delivered,
                s.counters.total_drops(),
                0,
            ),
        }
    }

    /// (match-table lookups, hits, deparser buffer allocations) — the
    /// post-run counter snapshot both switch models keep.
    pub fn mat_stats(&self) -> (u64, u64, u64) {
        match self {
            AnySwitch::Rmt(s) => (
                s.counters.mat_lookups,
                s.counters.mat_hits,
                s.counters.deparse_allocs,
            ),
            AnySwitch::Adcp(s) => (
                s.counters.mat_lookups,
                s.counters.mat_hits,
                s.counters.deparse_allocs,
            ),
        }
    }

    /// High-water mark of the TM shared buffer(s), in cells.
    pub fn tm_buffer_hwm(&self) -> u64 {
        match self {
            AnySwitch::Rmt(s) => s.tm_buffer_hwm(),
            AnySwitch::Adcp(s) => s.tm_buffer_hwm(),
        }
    }

    /// The delivered-traffic meter.
    pub fn out_meter(&self) -> &Meter {
        match self {
            AnySwitch::Rmt(s) => &s.out_meter,
            AnySwitch::Adcp(s) => &s.out_meter,
        }
    }

    /// End-to-end latency summary.
    pub fn latency(&self) -> LatencySummary {
        match self {
            AnySwitch::Rmt(s) => LatencySummary::from(&s.latency),
            AnySwitch::Adcp(s) => LatencySummary::from(&s.latency),
        }
    }

    /// Export the per-stage metrics registry as JSON, syncing the ad-hoc
    /// counters into it first (hence `&mut`).
    pub fn metrics_json(&mut self) -> serde::Value {
        match self {
            AnySwitch::Rmt(s) => s.metrics_json(),
            AnySwitch::Adcp(s) => s.metrics_json(),
        }
    }

    /// Export the journey tracer (sampled hops, drop forensics, control
    /// instants) as JSON. `{"enabled": false}` when tracing is off.
    pub fn trace_json(&self) -> serde::Value {
        match self {
            AnySwitch::Rmt(s) => s.trace_json(),
            AnySwitch::Adcp(s) => s.trace_json(),
        }
    }
}

/// The result of running one app variant.
#[derive(Debug, Clone, Serialize)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Architecture variant.
    pub target: String,
    /// Did the application produce exactly the reference results?
    pub correct: bool,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (all classes; includes intentional consumption).
    pub drops: u64,
    /// Recirculation passes (RMT only).
    pub recirc_passes: u64,
    /// Wall-clock (simulated) duration of the run, ns.
    pub makespan_ns: f64,
    /// Delivered goodput, Gbps.
    pub goodput_gbps: f64,
    /// Application data elements per second.
    pub elements_per_sec: f64,
    /// Match-table key lookups executed (all regions, all lanes).
    pub mat_lookups: u64,
    /// Fraction of lookups that hit an installed entry.
    pub mat_hit_rate: f64,
    /// Frame buffers the deparser rebuilt (the per-pass allocation left in
    /// the hot path; payload copies are shared, not reallocated).
    pub deparse_allocs: u64,
    /// Latency summary of delivered packets.
    pub latency: LatencySummary,
    /// Per-stage metrics block exported by the switch's metrics registry
    /// (counters, gauges, span histograms, queue-depth series by scope).
    pub metrics: serde::Value,
    /// Journey-tracer block (sampled hops, drop forensics, control
    /// instants); `{"enabled": false}` when tracing was off for the run.
    pub trace: serde::Value,
    /// Free-form observations (compiler notes, feature restrictions).
    pub notes: Vec<String>,
}

impl AppReport {
    /// Assemble a report from a finished switch run.
    pub fn from_switch(
        app: &str,
        target: TargetKind,
        sw: &mut AnySwitch,
        makespan: SimTime,
        correct: bool,
        notes: Vec<String>,
    ) -> Self {
        let metrics = sw.metrics_json();
        let trace = sw.trace_json();
        let (injected, delivered, drops, recirc) = sw.flow_counts();
        let (mat_lookups, mat_hits, deparse_allocs) = sw.mat_stats();
        let elapsed = Duration(makespan.as_ps().max(1));
        AppReport {
            app: app.to_string(),
            target: target.label().to_string(),
            correct,
            injected,
            delivered,
            drops,
            recirc_passes: recirc,
            makespan_ns: makespan.as_ps() as f64 / 1e3,
            goodput_gbps: sw.out_meter().goodput_gbps(elapsed),
            elements_per_sec: sw.out_meter().elements_per_sec(elapsed),
            mat_lookups,
            mat_hit_rate: if mat_lookups == 0 {
                0.0
            } else {
                mat_hits as f64 / mat_lookups as f64
            },
            deparse_allocs,
            latency: sw.latency(),
            metrics,
            trace,
            notes,
        }
    }

    /// One fixed-width summary line for console tables.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<22} {:<11} ok={:<5} in={:<7} out={:<7} drop={:<6} recirc={:<6} mkspan={:>10.1}ns gp={:>7.2}Gbps elems/s={:>10.3e} p99={:>8.1}ns",
            self.app,
            self.target,
            self.correct,
            self.injected,
            self.delivered,
            self.drops,
            self.recirc_passes,
            self.makespan_ns,
            self.goodput_gbps,
            self.elements_per_sec,
            self.latency.p99_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_labels() {
        assert_eq!(TargetKind::Adcp.label(), "adcp");
        assert_eq!(TargetKind::RmtPinned.label(), "rmt/pinned");
        assert_eq!(TargetKind::RmtRecirc.label(), "rmt/recirc");
    }
}
