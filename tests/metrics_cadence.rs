//! The metrics export does not depend on how a run was driven.
//!
//! Both switch models keep their counts in their own counter structs and
//! per-pipe state, and the registry view folds them in only when it is
//! read. So the exported block must be byte-identical whether a workload
//! runs to quiescence in one `run_until_idle` call or in many short
//! `run_until` chunks, and a fabric device's `metrics()` view must equal
//! its `metrics_json()` export right after `Fabric::run_until_idle`,
//! spines included.

use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::fabric::{run_demo_keep, FabricConfig};
use adcp::lang::{
    ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
    KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, Region,
    RegisterDef, TableDef, TargetModel,
};
use adcp::rmt::{RmtConfig, RmtSwitch};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::SimTime;

/// Ingress: exact match on `k` (hits forward to port 0, misses are
/// dropped). Central: accumulate `v` into cell `k % 64`. Everything that
/// survives funnels into one TX port, so TM queues back up.
fn program() -> Program {
    let mut b = ProgramBuilder::new("cadence");
    let h = b.header(HeaderDef::new(
        "m",
        vec![FieldDef::scalar("k", 32), FieldDef::scalar("v", 32)],
    ));
    b.parser(ParserSpec::single(h));
    let reg = b.register(RegisterDef::new("acc", 64, 32));
    let k = FieldRef::new(HeaderId(0), FieldId(0));
    let v = FieldRef::new(HeaderId(0), FieldId(1));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: k,
            kind: MatchKind::Exact,
            bits: 32,
        }),
        actions: vec![
            ActionDef::new(
                "fwd",
                vec![
                    ActionOp::SetCentralPipe(Operand::Field(k)),
                    ActionOp::SetEgress(Operand::Const(0)),
                ],
            ),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ],
        default_action: 1,
        default_params: vec![],
        size: 64,
    });
    b.table(TableDef {
        name: "acc".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "bump",
            vec![ActionOp::RegRmw {
                reg,
                index: Operand::Field(k),
                op: RegAluOp::Add,
                value: Operand::Field(v),
                fetch: None,
            }],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

/// Keys `0..48` hit the route table; `48..64` miss and are dropped.
fn entries() -> impl Iterator<Item = Entry> {
    (0..48u64).map(|key| Entry {
        value: MatchValue::Exact(key),
        action: 0,
        params: vec![],
    })
}

/// Seeded bursts on eight ports at once, some frames corrupted on the
/// wire.
fn workload(seed: u64) -> Vec<(PortId, Packet, SimTime)> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::new();
    for i in 0..600u64 {
        let mut data = Vec::new();
        data.extend_from_slice(&(rng.range(0u64..64) as u32).to_be_bytes());
        data.extend_from_slice(&(rng.range(1u64..100) as u32).to_be_bytes());
        data.resize(rng.range(256usize..1500), 0);
        let mut pkt = Packet::new(i, FlowId(i % 7), data).seal();
        if rng.chance(0.05) {
            let mut buf = pkt.data.to_vec();
            buf[5] ^= 0x01;
            pkt.data = buf.into();
        }
        let t = SimTime::from_ns((i / 8) * 5);
        out.push((PortId((i % 8) as u16), pkt, t));
    }
    out
}

fn json(v: serde_json::Value) -> String {
    let mut s = String::new();
    v.encode(&mut s);
    s
}

/// Step `run_until` in 37 ns chunks up to and including `end`.
fn chunked(mut run_until: impl FnMut(SimTime), end: SimTime) {
    let mut t = SimTime::ZERO;
    while t < end {
        run_until(t);
        t = SimTime(t.as_ps() + 37_000);
    }
    run_until(end);
}

fn adcp_switch() -> AdcpSwitch {
    let cfg = AdcpConfig {
        queue_depth: 4,
        int: true,
        trace: true,
        ..AdcpConfig::default()
    };
    let mut sw = AdcpSwitch::new(
        program(),
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        cfg,
    )
    .unwrap();
    for e in entries() {
        sw.install_all("route", e).unwrap();
    }
    for (port, pkt, t) in workload(11) {
        sw.inject(port, pkt, t);
    }
    sw
}

fn rmt_switch() -> RmtSwitch {
    let cfg = RmtConfig {
        queue_depth: 4,
        int: true,
        trace: true,
        ..RmtConfig::default()
    };
    let mut sw = RmtSwitch::new(
        program(),
        TargetModel::rmt_12t(),
        CompileOptions::default(),
        cfg,
    )
    .unwrap();
    for e in entries() {
        sw.install_all("route", e).unwrap();
    }
    for (port, pkt, t) in workload(11) {
        sw.inject(port, pkt, t);
    }
    sw
}

#[test]
fn adcp_metrics_do_not_depend_on_run_cadence() {
    let mut whole = adcp_switch();
    let end = whole.run_until_idle();
    whole.check_conservation();
    let c = &whole.counters;
    assert!(
        c.tm2_queue_drops + c.tm1_queue_drops > 0,
        "queues must overflow: {c:?}"
    );
    assert!(c.fcs_drops > 0 && c.filtered > 0 && c.mat_hits > 0, "{c:?}");

    let mut chunks = adcp_switch();
    chunked(
        |t| {
            chunks.run_until(t);
        },
        end,
    );
    chunks.check_conservation();
    assert_eq!(json(chunks.metrics_json()), json(whole.metrics_json()));
    assert_eq!(json(chunks.metrics().to_json()), json(whole.metrics_json()));
}

#[test]
fn rmt_metrics_do_not_depend_on_run_cadence() {
    let mut whole = rmt_switch();
    let end = whole.run_until_idle();
    whole.check_conservation();
    let c = &whole.counters;
    assert!(c.queue_drops > 0, "queues must overflow: {c:?}");
    assert!(c.fcs_drops > 0 && c.filtered > 0 && c.mat_hits > 0, "{c:?}");

    let mut chunks = rmt_switch();
    chunked(
        |t| {
            chunks.run_until(t);
        },
        end,
    );
    chunks.check_conservation();
    assert_eq!(json(chunks.metrics_json()), json(whole.metrics_json()));
    assert_eq!(json(chunks.metrics().to_json()), json(whole.metrics_json()));
}

#[test]
fn fabric_device_views_are_complete_after_a_run() {
    let (report, fabric) = run_demo_keep(5, 500, FabricConfig::default());
    assert!(report.correct, "{report:?}");
    let devices = (0..fabric.n_leaves())
        .map(|l| fabric.leaf(l))
        .chain((0..fabric.n_spines()).map(|s| fabric.spine(s)));
    for sw in devices {
        let view = sw.metrics();
        assert_eq!(json(view.to_json()), json(sw.metrics_json()));
        if view.enabled() {
            assert_eq!(
                view.counter_value("rx", "packets"),
                Some(sw.counters.injected)
            );
            assert_eq!(
                view.counter_value("tx", "packets"),
                Some(sw.counters.delivered)
            );
            assert_eq!(
                view.counter_value("mat", "lookups"),
                Some(sw.counters.mat_lookups)
            );
        }
    }
}
