//! What one workload iteration reports, and the helpers every workload
//! uses to fill it in.

use adcp_core::AdcpSwitch;
use adcp_rmt::RmtSwitch;
use adcp_sim::stats::LatencyHist;
use std::collections::BTreeMap;

/// The result of one iteration of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Packets injected: the operations this iteration attempted.
    pub attempted: u64,
    /// Operations whose outcome the reference check rejects.
    pub failed: u64,
    /// Every failed check, described.
    pub errors: Vec<String>,
    /// Packets handed to each layer's inject/run calls, the denominator of
    /// that layer's per-packet allocation metrics (`core`, `rmt`, `fabric`,
    /// `adcpd`).
    pub layer_pkts: Vec<(&'static str, u64)>,
    /// Deterministic values (work counts, simulated times), by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// FNV-1a over the delivered frames and the simulated statistics.
    pub digest: u64,
    /// Host milliseconds of each `Daemon::run_slice` call (`serve` only).
    pub slices_ms: Vec<f64>,
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a number (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Work counts read off finished switches after a run: the `counters`
/// block, busy cycles, and the registry's TM residency histograms.
#[derive(Default)]
pub struct SwitchCounts {
    mat_lookups: u64,
    mat_hits: u64,
    deparse_allocs: u64,
    mcast_copies: u64,
    central_busy_cycles: u64,
    recirc_passes: u64,
    tm1: LatencyHist,
    tm2: LatencyHist,
    rmt_tm: LatencyHist,
    rmt_latency: LatencyHist,
}

fn merge_hist(into: &mut LatencyHist, from: Option<&LatencyHist>) {
    if let Some(h) = from {
        into.merge(h);
    }
}

impl SwitchCounts {
    /// Add one finished ADCP switch.
    pub fn add_core(&mut self, sw: &AdcpSwitch) {
        let c = &sw.counters;
        self.mat_lookups += c.mat_lookups;
        self.mat_hits += c.mat_hits;
        self.deparse_allocs += c.deparse_allocs;
        self.mcast_copies += c.mcast_copies;
        self.central_busy_cycles += (0..sw.num_central())
            .map(|p| sw.central_busy_cycles(p))
            .sum::<u64>();
        merge_hist(&mut self.tm1, sw.metrics().hist_ref("tm1", "residency_ps"));
        merge_hist(&mut self.tm2, sw.metrics().hist_ref("tm2", "residency_ps"));
    }

    /// Add one finished RMT switch.
    pub fn add_rmt(&mut self, sw: &RmtSwitch) {
        let c = &sw.counters;
        self.mat_lookups += c.mat_lookups;
        self.mat_hits += c.mat_hits;
        self.recirc_passes += c.recirc_passes;
        merge_hist(
            &mut self.rmt_tm,
            sw.metrics().hist_ref("tm", "residency_ps"),
        );
        self.rmt_latency.merge(&sw.latency);
    }

    /// Publish the per-layer metrics; `core_pkts` and `rmt_pkts` are the
    /// packets the workload offered to each switch model.
    pub fn publish(&self, core_pkts: u64, rmt_pkts: u64, out: &mut BTreeMap<&'static str, f64>) {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let p99_ns = |h: &LatencyHist| {
            if h.count() == 0 {
                0.0
            } else {
                h.percentile_ps(0.99) as f64 / 1e3
            }
        };
        out.insert(
            "lang.mat_lookups_per_pkt",
            per(self.mat_lookups, core_pkts + rmt_pkts),
        );
        out.insert("lang.mat_hit_rate", per(self.mat_hits, self.mat_lookups));
        out.insert(
            "core.deparse_allocs_per_pkt",
            per(self.deparse_allocs, core_pkts),
        );
        out.insert(
            "core.mcast_copies_per_pkt",
            per(self.mcast_copies, core_pkts),
        );
        out.insert(
            "core.central_busy_cycles_per_pkt",
            per(self.central_busy_cycles, core_pkts),
        );
        out.insert(
            "rmt.recirc_passes_per_pkt",
            per(self.recirc_passes, rmt_pkts),
        );
        out.insert("core.tm1_residency_p99_ns", p99_ns(&self.tm1));
        out.insert("core.tm2_residency_p99_ns", p99_ns(&self.tm2));
        out.insert("rmt.tm_residency_p99_ns", p99_ns(&self.rmt_tm));
        out.insert("rmt.sim_latency_p99_ns", p99_ns(&self.rmt_latency));
    }
}

/// Median and 99th percentile of a latency histogram, in ns.
pub fn p50_p99_ns(h: &LatencyHist) -> (f64, f64) {
    (
        h.percentile_ps(0.50) as f64 / 1e3,
        h.percentile_ps(0.99) as f64 / 1e3,
    )
}

/// Fold a latency histogram's shape into a digest.
pub fn fold_hist(d: &mut Fnv, h: &LatencyHist) {
    d.u64(h.count());
    d.u64(h.min_ps());
    d.u64(h.max_ps());
    for q in [0.5, 0.9, 0.99, 0.999] {
        d.u64(h.percentile_ps(q));
    }
}
