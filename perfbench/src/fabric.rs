//! `fabric-2x4`: the 2-spine x 4-leaf demo fabric (`demo_fabric`) counting
//! into a register partitioned across the leaves, checked by the merged
//! register / ownership-leak / conservation oracle.
//!
//! The per-packet program is trivial; host time goes to six per-device
//! event loops stepped in lockstep, the link exchange, and the per-step
//! `sync_metrics` mirror inside each device's `run_until`.

use crate::outcome::{fold_hist, p50_p99_ns, Fnv, Outcome, SwitchCounts};
use crate::trace::Tracer;
use adcp_fabric::{demo_fabric, Fabric, FabricConfig, DEMO_CELLS};
use adcp_lang::{deposit_bits, RegId};
use adcp_sim::packet::{FlowId, Packet};
use adcp_sim::rng::SimRng;
use adcp_sim::stats::LatencyHist;
use adcp_sim::time::SimTime;

const PACKETS: u64 = 20_000;
/// Simulated gap between consecutive host injections (as in `run_demo`).
const GAP_NS: u64 = 600;

/// The demo program's 14-byte header: op:8 key:32 idx:16 val:32, then
/// the fabric's phase/gk scratch fields left zero.
fn frame(key: u64, idx: u64, val: u64) -> Vec<u8> {
    let mut buf = vec![0u8; 14];
    for (off, bits, v) in [(0, 8, 1), (8, 32, key), (40, 16, idx), (56, 32, val)] {
        assert!(
            deposit_bits(&mut buf, off, bits, v),
            "field fits the header"
        );
    }
    buf
}

/// Build the fabric: program, placement, six switches.
pub fn setup(seed: u64, tr: &mut Tracer) -> Fabric {
    let p = tr.phase("bench.setup");
    let (fabric, _program) = tr.call("fabric.new", || demo_fabric(seed, FabricConfig::default()));
    tr.end(p);
    fabric
}

/// One iteration.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut fabric = setup(seed, tr);

    let p = tr.phase("bench.gen");
    let ports = fabric.spec().logical_ports() as u64;
    let mut rng = SimRng::seed_from(seed ^ 0xFAB0_0002);
    let mut expected = vec![0u64; DEMO_CELLS];
    let pkts: Vec<Packet> = (0..PACKETS)
        .map(|i| {
            let key = rng.range(0u64..1 << 32);
            let idx = rng.range(0u64..DEMO_CELLS as u64);
            let val = rng.range(1u64..1000);
            expected[idx as usize] += val;
            Packet::new(i, FlowId(1000 + i), frame(key, idx, val)).seal()
        })
        .collect();
    tr.end(p);

    let p = tr.phase("bench.sim");
    tr.call("fabric.inject", || {
        for (i, pkt) in pkts.into_iter().enumerate() {
            let i = i as u64;
            fabric.inject((i % ports) as u32, pkt, SimTime::from_ns(1 + i * GAP_NS));
        }
    });
    let quiesce = tr.call("fabric.run", || fabric.run_until_idle());
    tr.end(p);

    let p = tr.phase("bench.verify");
    tr.call("fabric.verify", || {
        let merged = fabric.merged_register(RegId(0), DEMO_CELLS);
        let wrong: Vec<usize> = (0..DEMO_CELLS)
            .filter(|&c| merged[c] != expected[c])
            .collect();
        if !wrong.is_empty() {
            out.errors.push(format!(
                "merged register differs from the host sum in cells {wrong:?}"
            ));
        }
        let leaks = fabric.register_leaks(RegId(0), DEMO_CELLS);
        if !leaks.is_empty() {
            out.errors.push(format!(
                "{} cells leaked onto non-owner leaves",
                leaks.len()
            ));
        }
        let devices = || {
            (0..fabric.n_leaves())
                .map(|l| fabric.leaf(l))
                .chain((0..fabric.n_spines()).map(|s| fabric.spine(s)))
        };
        let drops: u64 = devices().map(|sw| sw.counters.total_drops()).sum();
        if fabric.host_injected() != fabric.host_delivered() + drops {
            out.errors.push(format!(
                "fabric conservation: injected {} != delivered {} + drops {drops}",
                fabric.host_injected(),
                fabric.host_delivered()
            ));
        }
        for sw in devices() {
            let c = &sw.counters;
            if c.injected + c.mcast_copies != c.delivered + c.total_drops() + sw.in_flight() {
                out.errors
                    .push(format!("device conservation broken: {c:?}"));
            }
        }
        out.failed += PACKETS - fabric.host_delivered().min(PACKETS);
    });
    tr.call("core.metrics", || {
        for l in 0..fabric.n_leaves() {
            fabric.leaf_mut(l).metrics_json();
        }
    });
    let mut counts = SwitchCounts::default();
    for l in 0..fabric.n_leaves() {
        counts.add_core(fabric.leaf(l));
    }
    for s in 0..fabric.n_spines() {
        counts.add_core(fabric.spine(s));
    }
    counts.publish(PACKETS, 0, &mut out.values);
    out.values.insert(
        "fabric.forwarded_per_pkt",
        fabric.forwarded() as f64 / PACKETS as f64,
    );
    let delivered = fabric.take_delivered();
    let mut latency = LatencyHist::new();
    let mut digest = Fnv::new();
    for d in &delivered {
        latency.record_span(d.meta.created, d.time);
        digest.u64(d.port.0 as u64);
        digest.u64(d.time.as_ps());
        digest.u64(d.meta.id);
        digest.bytes(&d.data);
    }
    let (p50, p99) = p50_p99_ns(&latency);
    out.values.insert("sim_latency_p50_ns", p50);
    out.values.insert("sim_latency_p99_ns", p99);
    fold_hist(&mut digest, &latency);
    for v in [
        quiesce.as_ps(),
        fabric.forwarded(),
        fabric.report().register_digest,
    ] {
        digest.u64(v);
    }
    out.digest = digest.finish();
    tr.end(p);

    let p = tr.phase("bench.teardown");
    drop((fabric, delivered));
    tr.end(p);

    out.attempted = PACKETS;
    out.layer_pkts = vec![("fabric", PACKETS)];
    out
}
