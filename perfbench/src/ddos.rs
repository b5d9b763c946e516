//! `ddos-1m`: the `ddos` detector over 10^6 benign sources plus a compact
//! attack range, on the ADCP with its security controller live. Mid-attack
//! the controller carves the promoted (attacking) slots out of the range
//! bucket they share and migrates them across the central pipes by
//! incremental migration.
//!
//! Every packet does a read-modify-write over 2^20-cell paged registers,
//! a working set far larger than host cache, where `agg`'s sums stay
//! cache-resident. It also drives the Zipf + attack-ramp generator and the
//! `ctrl` snapshot/planner/migration path.
//!
//! The `ddos` app keeps its packet format, host reference and controller
//! private, so this module restates them from the app: frame layout
//! (`src`, `win` at bytes 0..8 of a 55-byte frame), one injection every
//! 5 ns, 12 controller ticks at skew threshold 1.4.

use crate::outcome::{fold_hist, p50_p99_ns, Fnv, Outcome, SwitchCounts};
use crate::trace::Tracer;
use adcp_apps::ddos;
use adcp_apps::TargetKind;
use adcp_core::{
    AdcpConfig, AdcpSwitch, DemuxPolicy, MigrationStrategy, PartitionMap, PartitionScheme,
};
use adcp_ctrl::{plan_rebalance, LoadSnapshot};
use adcp_lang::{CompileOptions, RegId, TargetModel};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::time::SimTime;
use adcp_workloads::{AttackRamp, TrafficCfg, TrafficGen};

const FLOWS: u64 = 1_000_000;
const ATTACKERS: u64 = 32;
const ATTACK_PKTS: u64 = 40_000;
const COOL_PKTS: u64 = 10_000;
const WINDOW_PKTS: u64 = 2_000;
const SKEW: f64 = 0.9;
const PEAK_SHARE: f64 = 0.6;
const COOL_SHARE: f64 = 0.05;
const T_HI: u32 = 25;
const T_LO: u32 = 8;
const CLIENTS: u64 = 4;
const TICKS: u64 = 12;
const SKEW_THRESHOLD: f64 = 1.4;
const INJECT_GAP_PS: u64 = 5_000;
const HDR_BYTES: usize = 49;
const SERVER: PortId = PortId(10);
const COLLECTOR: PortId = PortId(6);

fn packet(id: u64, src: u64) -> Packet {
    let win = (id / WINDOW_PKTS) as u32;
    let mut d = vec![0u8; HDR_BYTES + 6];
    d[0..4].copy_from_slice(&(src as u32).to_be_bytes());
    d[4..8].copy_from_slice(&win.to_be_bytes());
    Packet::new(id, FlowId(src), d)
        .with_goodput(8)
        .with_elements(1)
}

/// The detector's per-slot state machine on the host: predicts, per
/// packet, whether the mitigation drops it.
struct Reference {
    mask: u64,
    lastwin: Vec<u32>,
    cnt: Vec<u32>,
    state: Vec<u8>,
}

impl Reference {
    fn new(n_slots: u64) -> Self {
        Reference {
            mask: n_slots - 1,
            lastwin: vec![0; n_slots as usize],
            cnt: vec![0; n_slots as usize],
            state: vec![0; n_slots as usize],
        }
    }

    fn drops(&mut self, src: u64, win: u32) -> bool {
        let s = (src & self.mask) as usize;
        let roll = win.wrapping_sub(self.lastwin[s]);
        self.lastwin[s] = win;
        if roll >= 1 {
            let closed = std::mem::take(&mut self.cnt[s]);
            if closed < T_LO || roll >= 2 {
                self.state[s] = 0;
            }
        }
        let prev = self.cnt[s];
        self.cnt[s] = prev.wrapping_add(1);
        if prev >= T_HI - 1 {
            self.state[s] = 1;
        }
        self.state[s] == 1
    }
}

/// `[lo, hi)` of the range bucket holding `key`.
fn bucket_span(map: &PartitionMap, key: u64) -> (u64, u64) {
    let PartitionScheme::Range { bounds, .. } = map.scheme() else {
        return (0, u64::MAX);
    };
    let b = bounds.partition_point(|&x| x <= key);
    let lo = if b == 0 { 0 } else { bounds[b - 1] };
    (lo, bounds.get(b).copied().unwrap_or(u64::MAX))
}

/// Give every `hot` slot (sorted) its own range bucket, spread round-robin
/// over the pipes; every other range keeps its owner.
fn isolate(map: &PartitionMap, hot: &[u64], pipes: u32) -> PartitionMap {
    let PartitionScheme::Range { bounds, .. } = map.scheme() else {
        unreachable!("the controller only runs on range maps");
    };
    let mut nb = bounds.clone();
    nb.extend(hot.iter().flat_map(|&s| [s, s + 1]));
    nb.sort_unstable();
    nb.dedup();
    let mut owners = Vec::with_capacity(nb.len() + 1);
    let (mut rr, mut lo) = (0u32, 0u64);
    for i in 0..=nb.len() {
        let hi = nb.get(i).copied().unwrap_or(u64::MAX);
        if hi == lo.wrapping_add(1) && hot.binary_search(&lo).is_ok() {
            owners.push(rr % pipes);
            rr += 1;
        } else {
            owners.push(map.owner(lo));
        }
        lo = hi;
    }
    PartitionMap::from_ranges(nb, owners)
}

/// One security-controller tick: finalize an open migration, or, once
/// the pipe-load skew passes the threshold, isolate the promoted slots
/// (or rebalance buckets when they are already isolated).
fn tick(tr: &mut Tracer, sw: &mut AdcpSwitch, state: RegId, n_slots: u64, min_samples: u64) {
    let open = tr.layer("ctrl.tick");
    if sw.migration_active() {
        // Busy / InProgress mean "not yet": retry next tick.
        let _ = tr.call("core.migrate", || sw.finalize_migration());
        tr.end(open);
        return;
    }
    let plan = LoadSnapshot::from_switch(sw)
        .filter(|snap| snap.total >= min_samples && snap.skew() >= SKEW_THRESHOLD)
        .and_then(|snap| {
            let map = sw.partition_map()?.clone();
            let pipes = sw.num_central() as u32;
            let hot: Vec<u64> = (0..n_slots)
                .filter(|&s| {
                    sw.central_register(map.owner(s) as usize, state)
                        .is_some_and(|r| r.peek(s) == 1)
                })
                .collect();
            let unisolated = hot.iter().any(|&s| {
                let (lo, hi) = bucket_span(&map, s);
                hi.wrapping_sub(lo) != 1
            });
            if !hot.is_empty() && unisolated {
                Some(isolate(&map, &hot, pipes))
            } else {
                plan_rebalance(&map, &snap.bucket_pkts, pipes)
            }
        });
    if let Some(next) = plan {
        // Busy: old-epoch packets in flight; a later tick retries.
        let _ = tr.call("core.migrate", || {
            sw.begin_migration(next, MigrationStrategy::Incremental)
        });
    }
    tr.end(open);
}

/// Build the detector program and the switch, and install the initial
/// range-partition map. Returns the switch, the mitigation register and
/// the slot count.
pub fn setup(tr: &mut Tracer) -> (AdcpSwitch, RegId, u64) {
    let p = tr.phase("bench.setup");
    let n_slots = ddos::slots_for(TargetKind::Adcp, FLOWS + ATTACKERS);
    let (prog, state) = tr.call("apps.program", || {
        ddos::program(TargetKind::Adcp, n_slots, T_HI, T_LO, SERVER, COLLECTOR)
    });
    let mut sw = tr.call("core.new", || {
        let cfg = AdcpConfig {
            demux: DemuxPolicy::FlowHash,
            ..AdcpConfig::default()
        };
        AdcpSwitch::new(
            prog,
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            cfg,
        )
        .expect("ddos compiles on the ADCP")
    });
    tr.call("core.install", || {
        let map = ddos::initial_map(n_slots, sw.num_central() as u32);
        sw.install_partition_map(map)
            .expect("map installs on the idle switch")
    });
    tr.end(p);
    (sw, state, n_slots)
}

/// One iteration.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut sw, state, n_slots) = setup(tr);

    let p = tr.phase("bench.gen");
    let srcs: Vec<u64> = tr.call("workloads.gen", || {
        let phase = |pkts, seed, attack| {
            TrafficGen::new(TrafficCfg {
                flows: FLOWS,
                pkts,
                skew: SKEW,
                attack: Some(attack),
                seed,
                ..TrafficCfg::default()
            })
        };
        let ramp = AttackRamp {
            attackers: ATTACKERS,
            start_frac: 0.2,
            full_frac: 0.5,
            peak_share: PEAK_SHARE,
        };
        let cool = AttackRamp {
            attackers: ATTACKERS,
            start_frac: 0.0,
            full_frac: 0.01,
            peak_share: COOL_SHARE,
        };
        phase(ATTACK_PKTS, seed, ramp)
            .chain(phase(COOL_PKTS, seed + 1, cool))
            .map(|e| e.src)
            .collect()
    });
    let pkts: Vec<Packet> = srcs
        .iter()
        .enumerate()
        .map(|(i, &src)| packet(i as u64, src))
        .collect();
    tr.end(p);

    let total = pkts.len() as u64;
    let span_ps = (total + 1) * INJECT_GAP_PS;
    let min_samples = (total / 6).max(64);
    let p = tr.phase("bench.sim");
    let mut pkts = pkts.into_iter().enumerate().peekable();
    for k in 1..=TICKS {
        let bound = span_ps * k / TICKS;
        tr.call("core.inject", || {
            while let Some((i, pkt)) =
                pkts.next_if(|(i, _)| (*i as u64 + 1) * INJECT_GAP_PS <= bound)
            {
                let port = PortId((srcs[i] % CLIENTS) as u16);
                sw.inject(port, pkt, SimTime((i as u64 + 1) * INJECT_GAP_PS));
            }
        });
        tr.call("core.run", || sw.run_until(SimTime(bound)));
        tick(tr, &mut sw, state, n_slots, min_samples);
    }
    tr.call("core.inject", || {
        for (i, pkt) in pkts {
            let port = PortId((srcs[i] % CLIENTS) as u16);
            sw.inject(port, pkt, SimTime((i as u64 + 1) * INJECT_GAP_PS));
        }
    });
    tr.call("core.run", || sw.run_until_idle());
    // A trailing incremental migration is finalized once traffic is gone.
    tick(tr, &mut sw, state, n_slots, u64::MAX);
    let makespan = tr.call("core.run", || sw.run_until_idle());
    let delivered = tr.call("core.drain", || sw.take_delivered());
    tr.end(p);

    let p = tr.phase("bench.verify");
    tr.call("apps.oracle", || {
        let mut reference = Reference::new(n_slots);
        let dropped: Vec<bool> = srcs
            .iter()
            .enumerate()
            .map(|(i, &src)| reference.drops(src, (i as u64 / WINDOW_PKTS) as u32))
            .collect();
        let mut seen = vec![false; srcs.len()];
        for d in &delivered {
            let id = d.meta.id as usize;
            if id >= srcs.len() || seen[id] || dropped[id] || d.port != SERVER {
                out.failed += 1;
            } else {
                seen[id] = true;
            }
        }
        let lost = (0..srcs.len()).filter(|&i| !dropped[i] && !seen[i]).count() as u64;
        out.failed += lost;
        if out.failed > 0 {
            out.errors.push(format!(
                "{} packets' fate differs from the reference",
                out.failed
            ));
        }
    });
    tr.call("core.metrics", || sw.metrics_json());
    let stats = sw.migration_stats().clone();
    if stats.misroutes != 0 {
        out.failed += stats.misroutes;
        out.errors
            .push(format!("{} misroutes during migration", stats.misroutes));
    }
    if stats.migrations == 0 {
        out.errors
            .push("the controller never migrated the hot range".into());
    }
    let c = &sw.counters;
    if c.injected + c.mcast_copies != c.delivered + c.total_drops() + sw.in_flight() {
        out.errors.push(format!("conservation broken: {c:?}"));
    }
    let mut counts = SwitchCounts::default();
    counts.add_core(&sw);
    counts.publish(total, 0, &mut out.values);
    out.values
        .insert("ctrl.migrations", stats.migrations as f64);
    out.values
        .insert("ctrl.moved_keys", stats.moved_keys as f64);
    out.values.insert("ctrl.misroutes", stats.misroutes as f64);
    let (p50, p99) = p50_p99_ns(&sw.latency);
    out.values.insert("sim_latency_p50_ns", p50);
    out.values.insert("sim_latency_p99_ns", p99);
    let mut digest = Fnv::new();
    for d in &delivered {
        digest.u64(d.port.0 as u64);
        digest.u64(d.time.as_ps());
        digest.u64(d.meta.id);
        digest.bytes(&d.data);
    }
    fold_hist(&mut digest, &sw.latency);
    for v in [
        makespan.as_ps(),
        stats.migrations,
        stats.moved_keys,
        sw.partition_epoch(),
    ] {
        digest.u64(v);
    }
    out.digest = digest.finish();
    tr.end(p);

    let p = tr.phase("bench.teardown");
    drop((sw, delivered, srcs));
    tr.end(p);

    out.attempted = total;
    out.layer_pkts = vec![("core", total)];
    out
}
