//! Property test for live state migration under link faults (§3.1).
//!
//! A counting program partitions on `key & 63` and counts one register
//! update per surviving packet, fetching the pre-increment value into the
//! frame. Mid-workload the bucket→pipe map is rotated under live traffic —
//! with drop/corrupt/delay faults running — and the invariant checked is
//! the strongest one the fetch sequence allows: for every cell, the
//! multiset of fetched values across delivered packets is exactly
//! `{0, 1, …, n-1}`. A lost update leaves a gap, a double-applied update
//! skips a value, and a misrouted packet double-counts on the wrong pipe —
//! any of which breaks the multiset. Faulted packets (link-dropped or
//! corrupted) must contribute nothing.
//!
//! One input adds a same-key burst straddling the reconfiguration: the
//! burst's head is still queued at TM1 when the migration begins (so the
//! incremental fence is in flight) and its tail arrives to be held behind
//! that fence. The held packets must be released only after the last fence
//! packet's update has landed; released any earlier, the first one copies
//! the cell to its new owner underneath that update, stranding it on the
//! old pipe.

use adcp::core::{AdcpConfig, AdcpSwitch, MigrationStrategy, PartitionMap};
use adcp::lang::{
    ActionDef, ActionOp, BinOp, CompileOptions, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
    Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef, TableDef,
    TargetModel,
};
use adcp::sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::SimTime;

const CELLS: u64 = 64;
const PACKETS: u64 = 250;
const GAP_NS: u64 = 5_000;
/// Burst packets queued at TM1 when the migration begins.
const BURST_HEAD: u64 = 32;
/// Burst packets that arrive while the fence is in flight.
const BURST_TAIL: u64 = 8;

/// header: dst:16, key:16, idx:16, cnt:32. Ingress folds `key & 63` into
/// `idx` and partitions on it; central counts into cell `idx`, fetching
/// the pre-increment count into `cnt`.
fn counting_program() -> (Program, RegId) {
    let mut b = ProgramBuilder::new("migrate_props");
    let h = b.header(HeaderDef::new(
        "mp",
        vec![
            FieldDef::scalar("dst", 16),
            FieldDef::scalar("key", 16),
            FieldDef::scalar("idx", 16),
            FieldDef::scalar("cnt", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let reg = b.register(RegisterDef::new("cnt", CELLS as u32, 32));
    let fr = |i: u16| FieldRef::new(HeaderId(0), FieldId(i));
    b.table(TableDef {
        name: "shard".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "steer",
            vec![
                ActionOp::Bin {
                    dst: fr(2),
                    op: BinOp::And,
                    a: Operand::Field(fr(1)),
                    b: Operand::Const(CELLS - 1),
                },
                ActionOp::SetCentralPipe(Operand::Field(fr(2))),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.table(TableDef {
        name: "count".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "bump",
            vec![
                ActionOp::RegRmw {
                    reg,
                    index: Operand::Field(fr(2)),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: Some(fr(3)),
                },
                ActionOp::SetEgress(Operand::Field(fr(0))),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    (b.build(), reg)
}

fn mk_pkt(id: u64, key: u16) -> Packet {
    let mut data = Vec::new();
    data.extend_from_slice(&0u16.to_be_bytes()); // dst port 0
    data.extend_from_slice(&key.to_be_bytes());
    data.extend_from_slice(&[0u8; 6]); // idx + cnt, filled in-switch
    data.extend_from_slice(&[0u8; 8]);
    Packet::new(id, FlowId(key as u64), data).seal()
}

/// Rotate every bucket's owner by one pipe: all 64 buckets move, so the
/// migration machinery is exercised on every cell, hot or cold.
fn rotated(map: &PartitionMap, n_pipes: u32) -> PartitionMap {
    PartitionMap::from_buckets(
        (0..map.num_buckets())
            .map(|b| (map.owner_of_bucket(b) + 1) % n_pipes)
            .collect(),
    )
}

fn soak(seed: u64, strategy: MigrationStrategy, burst: bool) {
    let (prog, reg) = counting_program();
    let mut sw = AdcpSwitch::new(
        prog,
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig::default(),
    )
    .unwrap();
    let uniform = PartitionMap::uniform(CELLS as u32, 4);
    let next = rotated(&uniform, 4);
    sw.install_partition_map(uniform).unwrap();

    let mut rng = SimRng::seed_from(seed);
    let mut injector = FaultInjector::new(
        FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.05,
            delay_chance: 0.10,
            ..Default::default()
        },
        SimRng::seed_from(seed ^ 0xFA17_50A4),
    );
    let mut expected = vec![0u64; CELLS as usize];
    let mut injected = 0u64;
    let mut corrupted = 0u64;
    for i in 0..PACKETS {
        let key = rng.range(0u64..256) as u16;
        let mut pkt = mk_pkt(i, key);
        let mut at = SimTime::from_ns((i + 1) * GAP_NS);
        match injector.apply(&mut pkt) {
            FaultOutcome::Dropped => continue, // lost on the link
            FaultOutcome::Corrupted => corrupted += 1,
            FaultOutcome::Delayed(d) => {
                at += d;
                expected[(key as u64 % CELLS) as usize] += 1;
            }
            FaultOutcome::Pass => expected[(key as u64 % CELLS) as usize] += 1,
        }
        injected += 1;
        sw.inject(PortId((i % 8) as u16), pkt, at);
    }
    let mid_ns = PACKETS * GAP_NS / 2;
    if burst {
        // Fault-free, one key, spread over all ports so it reaches TM1 in
        // a clump: the head lands just before `mid`, the tail just after.
        let key = rng.range(0u64..256) as u16;
        for j in 0..BURST_HEAD + BURST_TAIL {
            let at = if j < BURST_HEAD {
                SimTime::from_ns(mid_ns - 50)
            } else {
                SimTime::from_ns(mid_ns + 1)
            };
            expected[(key as u64 % CELLS) as usize] += 1;
            injected += 1;
            sw.inject(PortId((j % 8) as u16), mk_pkt(PACKETS + j, key), at);
        }
    }

    // Reconfigure mid-workload, under whatever faults are in flight.
    sw.run_until(SimTime::from_ns(mid_ns));
    sw.begin_migration(next.clone(), strategy).unwrap();
    sw.run_until_idle();
    if sw.migration_active() {
        sw.finalize_migration().unwrap();
    }
    sw.check_conservation();

    let stats = sw.migration_stats();
    assert_eq!(stats.migrations, 1, "seed {seed} {strategy:?}");
    assert_eq!(stats.misroutes, 0, "seed {seed} {strategy:?}");
    if burst {
        assert!(
            stats.held_pkts >= BURST_TAIL,
            "seed {seed} {strategy:?}: the burst's tail was not held behind the fence"
        );
    }
    assert_eq!(sw.counters.fcs_drops, corrupted, "seed {seed} {strategy:?}");
    assert_eq!(
        sw.counters.delivered,
        injected - corrupted,
        "seed {seed} {strategy:?}"
    );

    // Conservation per cell: exactly one update per surviving packet, all
    // resident on the pipe the final map owns the cell to.
    for cell in 0..CELLS {
        let mut sum = 0u64;
        for pipe in 0..4usize {
            let v = sw.central_register(pipe, reg).unwrap().peek(cell);
            if v != 0 {
                assert_eq!(
                    pipe as u32,
                    next.owner(cell),
                    "seed {seed} {strategy:?}: cell {cell} left on pipe {pipe}"
                );
            }
            sum += v;
        }
        assert_eq!(
            sum, expected[cell as usize],
            "seed {seed} {strategy:?}: cell {cell} lost or double-applied updates"
        );
    }

    // The strong oracle: per cell, the fetched pre-increment counts across
    // delivered packets are exactly {0, 1, …, n-1}.
    let mut fetched: Vec<Vec<u64>> = vec![Vec::new(); CELLS as usize];
    for d in sw.take_delivered() {
        let key = u16::from_be_bytes([d.data[2], d.data[3]]) as u64;
        let cnt = u32::from_be_bytes([d.data[6], d.data[7], d.data[8], d.data[9]]) as u64;
        fetched[(key % CELLS) as usize].push(cnt);
    }
    for (cell, mut seq) in fetched.into_iter().enumerate() {
        seq.sort_unstable();
        let want: Vec<u64> = (0..expected[cell] as u64).collect();
        assert_eq!(
            seq, want,
            "seed {seed} {strategy:?}: cell {cell} fetch multiset broken"
        );
    }
}

#[test]
fn no_update_lost_or_doubled_under_faulted_drain_migration() {
    for seed in 0..6u64 {
        soak(0xD12A_1000 + seed, MigrationStrategy::Drain, false);
    }
}

#[test]
fn no_update_lost_or_doubled_under_faulted_incremental_migration() {
    for seed in 0..6u64 {
        soak(0x14C2_2000 + seed, MigrationStrategy::Incremental, false);
    }
    for seed in 0..6u64 {
        soak(0x14C2_3000 + seed, MigrationStrategy::Incremental, true);
    }
}
