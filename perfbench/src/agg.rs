//! `agg`: gradient aggregation (the `paramserv` program, 8 workers) on the
//! ADCP (16-wide array RMW in the central pipes, TM2 multicast to all 8
//! workers) and on its RMT recirculate lowering (scalar, two passes per
//! packet).
//!
//! State is small and stays in host cache, so nearly all host time is
//! per-packet pipeline and event-queue work: the workload for `core`,
//! `rmt`, `lang` exec and `sim` scheduler changes.

use crate::outcome::{fold_hist, p50_p99_ns, Fnv, Outcome, SwitchCounts};
use crate::trace::Tracer;
use adcp_apps::paramserv::{self, ParamServerCfg};
use adcp_apps::TargetKind;
use adcp_core::{AdcpConfig, AdcpSwitch};
use adcp_lang::{CompileOptions, RmtCentralStrategy, TargetModel};
use adcp_rmt::{RmtConfig, RmtSwitch};
use adcp_sim::packet::{FlowId, FrameBuf, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::gradient::GradientWorkload;

const WORKERS: u32 = 8;
/// Model weights on the ADCP leg (16 weights per packet: 16384 packets).
const ADCP_MODEL: u32 = 32_768;
/// Model weights on the RMT leg (1 weight per packet: 65536 packets).
const RMT_MODEL: u32 = 8_192;
/// Simulated gap between consecutive chunks of one worker, on both legs.
///
/// Rule: half the RMT/recirc leg's measured lossless chunk rate. At model
/// 16384 (twice `RMT_MODEL`) that leg delivers every aggregate when
/// workers are paced at 35 ns or more and loses some to egress queue
/// drops at 30 ns (702 of 131072). Pacing at 80 ns keeps the open-loop
/// offered load at about half of what the slower target sustains, so
/// neither leg runs at its loss cliff, and both legs see the same offered
/// chunk rate.
const PACE_PS: u64 = 80_000;

/// One paced injection.
type Injection = (PortId, Packet, SimTime);
/// One delivered frame: TX port, last-bit time, bytes.
type Frame = (PortId, SimTime, FrameBuf);

fn chunk_packet(id: u64, worker: u32, base_slot: u32, values: &[u32]) -> Packet {
    let mut data = Vec::with_capacity(8 + values.len() * 4);
    data.extend_from_slice(&(worker as u16).to_be_bytes());
    data.extend_from_slice(&base_slot.to_be_bytes());
    data.extend_from_slice(&0u16.to_be_bytes());
    for v in values {
        data.extend_from_slice(&v.to_be_bytes());
    }
    Packet::new(id, FlowId(worker as u64), data)
        .with_goodput(values.len() as u32 * 4)
        .with_elements(values.len() as u32)
}

/// The workload generator's chunk stream, paced per port: a worker's
/// k-th chunk (in the seeded shuffle's order) enters at `k * PACE_PS`.
fn generate(
    tr: &mut Tracer,
    seed: u64,
    model: u32,
    width: u32,
) -> (GradientWorkload, Vec<Injection>) {
    let (wl, chunks) = tr.call("workloads.gen", || {
        let wl = GradientWorkload::new(WORKERS, model, width);
        let chunks = wl.all_chunks_shuffled(&mut SimRng::seed_from(seed));
        (wl, chunks)
    });
    let mut next = [0u64; WORKERS as usize];
    let pkts = chunks
        .iter()
        .enumerate()
        .map(|(i, ch)| {
            let k = &mut next[ch.worker as usize];
            let at = SimTime(*k * PACE_PS);
            *k += 1;
            let pkt = chunk_packet(i as u64, ch.worker, ch.base_slot, &ch.values);
            (PortId(ch.worker as u16), pkt, at)
        })
        .collect();
    (wl, pkts)
}

/// The reference check: every chunk's aggregate arrives once per worker,
/// each copy carrying `expected_sum` in every lane. A chunk that fails
/// counts its `WORKERS` contributing packets as failed operations.
fn check(wl: &GradientWorkload, delivered: &[Frame], width: u32, out: &mut Outcome, leg: &str) {
    let chunks = (wl.model_size / width) as usize;
    let mut copies = vec![0u32; chunks];
    let mut wrong = vec![false; chunks];
    for (port, _, data) in delivered {
        let slot = u32::from_be_bytes(data[2..6].try_into().expect("4-byte slot"));
        let chunk = (slot / width) as usize;
        if chunk >= chunks || port.0 as u32 >= WORKERS {
            out.errors
                .push(format!("{leg}: stray frame for slot {slot} on {port}"));
            continue;
        }
        copies[chunk] += 1;
        for lane in 0..width {
            let at = 8 + lane as usize * 4;
            let v = u32::from_be_bytes(data[at..at + 4].try_into().expect("4-byte lane"));
            if v as u64 != wl.expected_sum(slot + lane) {
                wrong[chunk] = true;
            }
        }
    }
    let bad = (0..chunks)
        .filter(|&c| wrong[c] || copies[c] != WORKERS)
        .count() as u64;
    if bad > 0 {
        out.failed += bad * WORKERS as u64;
        out.errors.push(format!(
            "{leg}: {bad} of {chunks} chunks aggregated wrongly or not once per worker"
        ));
    }
}

fn fold_frames(d: &mut Fnv, frames: &[Frame]) {
    for (port, t, data) in frames {
        d.u64(port.0 as u64);
        d.u64(t.as_ps());
        d.bytes(data);
    }
}

fn paramserv_cfg(seed: u64, model_size: u32, width: u32) -> ParamServerCfg {
    ParamServerCfg {
        workers: WORKERS,
        model_size,
        width,
        seed,
        ..ParamServerCfg::default()
    }
}

/// Build both programs and both switches.
pub fn setup(seed: u64, tr: &mut Tracer) -> (AdcpSwitch, RmtSwitch) {
    let p = tr.phase("bench.setup");
    let ports: Vec<PortId> = (0..WORKERS as u16).map(PortId).collect();
    let ps_port = PortId(WORKERS as u16);
    let cfg = paramserv_cfg(seed, ADCP_MODEL, 16);
    let target = TargetModel::adcp_reference();
    let pipes = target.central_pipes as u32;
    let prog = tr.call("apps.program", || {
        paramserv::program(&cfg, TargetKind::Adcp, pipes, &ports, ps_port)
    });
    let adcp = tr.call("core.new", || {
        AdcpSwitch::new(
            prog,
            target,
            CompileOptions::default(),
            AdcpConfig::default(),
        )
        .expect("paramserv compiles on the ADCP")
    });
    let cfg = paramserv_cfg(seed, RMT_MODEL, 1);
    let target = TargetModel::rmt_12t();
    let pipes = target.num_pipes() as u32;
    let prog = tr.call("apps.program", || {
        paramserv::program(&cfg, TargetKind::RmtRecirc, pipes, &ports, ps_port)
    });
    let opts = CompileOptions {
        rmt_central: RmtCentralStrategy::Recirculate,
    };
    let rmt = tr.call("rmt.new", || {
        RmtSwitch::new(prog, target, opts, RmtConfig::default())
            .expect("paramserv compiles on RMT via recirculation")
    });
    tr.end(p);
    (adcp, rmt)
}

/// One iteration: set up both switches, run the ADCP leg, then the
/// RMT/recirc leg.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Fnv::new();
    let mut counts = SwitchCounts::default();
    let (mut sw, mut rmt) = setup(seed, tr);

    // ---- ADCP leg ----
    let p = tr.phase("bench.gen");
    let (wl, pkts) = generate(tr, seed, ADCP_MODEL, 16);
    tr.end(p);
    let core_pkts = pkts.len() as u64;
    let p = tr.phase("bench.sim");
    tr.call("core.inject", || {
        for (port, pkt, at) in pkts {
            sw.inject(port, pkt, at);
        }
    });
    let makespan = tr.call("core.run", || sw.run_until_idle());
    let delivered = tr.call("core.drain", || sw.take_delivered());
    tr.end(p);
    let p = tr.phase("bench.verify");
    let frames: Vec<Frame> = delivered
        .into_iter()
        .map(|d| (d.port, d.time, d.data))
        .collect();
    tr.call("apps.oracle", || check(&wl, &frames, 16, &mut out, "adcp"));
    tr.call("core.metrics", || sw.metrics_json());
    let c = &sw.counters;
    if c.injected + c.mcast_copies != c.delivered + c.total_drops() + sw.in_flight() {
        out.errors.push(format!("adcp: conservation broken: {c:?}"));
    }
    counts.add_core(&sw);
    let (p50, p99) = p50_p99_ns(&sw.latency);
    out.values.insert("sim_latency_p50_ns", p50);
    out.values.insert("sim_latency_p99_ns", p99);
    fold_frames(&mut digest, &frames);
    fold_hist(&mut digest, &sw.latency);
    digest.u64(makespan.as_ps());
    tr.end(p);
    let p = tr.phase("bench.teardown");
    drop((sw, frames));
    tr.end(p);

    // ---- RMT/recirc leg ----
    let sw = &mut rmt;
    let p = tr.phase("bench.gen");
    let (wl, pkts) = generate(tr, seed, RMT_MODEL, 1);
    tr.end(p);
    let rmt_pkts = pkts.len() as u64;
    let p = tr.phase("bench.sim");
    tr.call("rmt.inject", || {
        for (port, pkt, at) in pkts {
            sw.inject(port, pkt, at);
        }
    });
    let makespan = tr.call("rmt.run", || sw.run_until_idle());
    let delivered = tr.call("rmt.drain", || sw.take_delivered());
    tr.end(p);
    let p = tr.phase("bench.verify");
    let frames: Vec<Frame> = delivered
        .into_iter()
        .map(|d| (d.port, d.time, d.data))
        .collect();
    tr.call("apps.oracle", || check(&wl, &frames, 1, &mut out, "rmt"));
    tr.call("rmt.metrics", || sw.metrics_json());
    let c = &sw.counters;
    if c.injected + c.mcast_copies != c.delivered + c.total_drops() + sw.in_flight() {
        out.errors.push(format!("rmt: conservation broken: {c:?}"));
    }
    counts.add_rmt(sw);
    fold_frames(&mut digest, &frames);
    fold_hist(&mut digest, &sw.latency);
    digest.u64(makespan.as_ps());
    counts.publish(core_pkts, rmt_pkts, &mut out.values);
    tr.end(p);
    let p = tr.phase("bench.teardown");
    drop((rmt, frames));
    tr.end(p);

    out.attempted = core_pkts + rmt_pkts;
    out.layer_pkts = vec![("core", core_pkts), ("rmt", rmt_pkts)];
    out.digest = digest.finish();
    out
}
