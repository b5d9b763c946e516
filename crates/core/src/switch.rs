//! The event-driven ADCP switch model (the paper's Figure 4).
//!
//! Packet life cycle:
//!
//! ```text
//! inject -> RX port -> 1:m demux -> ingress pipeline (port_rate/m clock)
//!        -> TM1 (application-defined partition + schedule)
//!        -> central pipeline  (the global partitioned area, §3.1)
//!        -> TM2 (classic any-port scheduler, multicast-capable)
//!        -> egress pipeline -> m:1 mux -> TX port -> delivered
//! ```
//!
//! Differences from [`adcp-rmt`]'s model, each lifting one RMT limitation:
//!
//! * **Two traffic managers** create the central pipelines. State placed
//!   there by TM1 (by hash, range, or merge order — the program decides via
//!   `SetCentralPipe`/`SetSortKey`) can still be forwarded to *any* egress
//!   port by TM2, including multicast (fixes Fig. 2).
//! * **Array MAUs**: stages match array fields natively, one lane per
//!   element, against a single shared table copy (fixes Fig. 3); wide
//!   register ops aggregate whole arrays in one traversal (§3.2).
//! * **Port demultiplexing**: each port feeds `m` pipelines, so the
//!   pipeline clock is `port_rate/m` — Table 3's scaling story (§3.3).

use crate::partition::{MigrateError, MigrationStrategy, PartitionMap};
use adcp_lang::phv::Phv;
use adcp_lang::target::TargetModel;
use adcp_lang::{
    compile, deparse_into, ActionOp, CompileError, CompileOptions, Entry, Placement, Program,
    RegId, Region, RegionState, RegisterFile, TableError,
};
use adcp_sim::event::EventQueue;
use adcp_sim::int::{
    IntFlowCell, IntFlowTable, IntKnob, IntStack, IntStamp, Postcard, POSTCARDS_CAP,
};
use adcp_sim::metrics::{CounterId, Fold, GaugeId, HistId, MetricsRegistry, MetricsView, SeriesId};
use adcp_sim::packet::{EgressSpec, FrameBuf, Packet, PacketStore, PortId};
use adcp_sim::port::{RxPort, TxPort};
use adcp_sim::queue::BufferPool;
use adcp_sim::sched::ScheduledQueues;
use adcp_sim::stats::{LatencyHist, Meter};
use adcp_sim::time::{Duration, SimTime};
use adcp_sim::trace::{CtrlEvent, DropReason, HopCtx, JourneyTracer, Site};
use std::sync::Arc;

/// Retained points per queue-depth/buffer-occupancy time series.
const SERIES_CAP: usize = 512;

/// Pipe cycles charged per register cell copied during a state migration.
/// Both strategies pay it — drain as one bulk window at commit, incremental
/// spread over first touches — so the exp_migrate comparison is apples to
/// apples.
const CELL_COPY_CYCLES: u64 = 8;

/// Slots in the central-register-resident per-flow INT aggregation table
/// (flows hash onto slots; collisions merge, as real register state would).
const INT_FLOW_CELLS: usize = 1024;

/// Pre-registered handles into the per-stage [`MetricsRegistry`]. Handles
/// are plain indices, so per-event recording is array math — no string
/// lookups on the hot path.
#[derive(Clone, Copy)]
struct MetricHandles {
    rx_pkts: CounterId,
    mac_fcs_drops: CounterId,
    parse_errors: CounterId,
    parse_span: HistId,
    ingress_span: HistId,
    tm1_drops: CounterId,
    tm1_queue_drops: CounterId,
    tm1_residency: HistId,
    tm1_queue_depth: SeriesId,
    tm1_buffer: SeriesId,
    tm1_buffer_gauge: GaugeId,
    central_span: HistId,
    tm2_drops: CounterId,
    tm2_queue_drops: CounterId,
    tm2_mcast_copies: CounterId,
    tm2_residency: HistId,
    tm2_queue_depth: SeriesId,
    tm2_buffer: SeriesId,
    tm2_buffer_gauge: GaugeId,
    egress_span: HistId,
    deparse_allocs: CounterId,
    mat_lookups: CounterId,
    mat_hits: CounterId,
    drops_filtered: CounterId,
    drops_no_decision: CounterId,
    drops_bad_port: CounterId,
    tx_pkts: CounterId,
    tx_latency: HistId,
    ctrl_migrations: CounterId,
    ctrl_moved_keys: CounterId,
    ctrl_paused_ns: CounterId,
    ctrl_redirected_pkts: CounterId,
    ctrl_held_pkts: CounterId,
    ctrl_misroutes: CounterId,
    ctrl_epoch: GaugeId,
    int_stamps: CounterId,
    int_postcards: CounterId,
    int_truncated: CounterId,
    int_postcards_dropped: CounterId,
    int_path_changes: CounterId,
    int_flows: GaugeId,
    /// Per-region pipeline occupancy (total busy cycles, busiest pipe),
    /// in ingress/central/egress order, folded in when the registry is
    /// read.
    busy: [(CounterId, GaugeId); 3],
}

fn register_metrics(m: &mut MetricsRegistry) -> MetricHandles {
    let rx = m.scope("rx");
    let mac = m.scope("mac");
    let parser = m.scope("parser");
    let ingress = m.scope("ingress");
    let tm1 = m.scope("tm1");
    let central = m.scope("central");
    let tm2 = m.scope("tm2");
    let egress = m.scope("egress");
    let deparser = m.scope("deparser");
    let mat = m.scope("mat");
    let drops = m.scope("drops");
    let tx = m.scope("tx");
    let ctrl = m.scope("ctrl");
    let int = m.scope("int");
    MetricHandles {
        rx_pkts: m.counter(rx, "packets"),
        mac_fcs_drops: m.counter(mac, "fcs_drops"),
        parse_errors: m.counter(parser, "errors"),
        parse_span: m.hist(parser, "span_ps"),
        ingress_span: m.hist(ingress, "span_ps"),
        tm1_drops: m.counter(tm1, "buffer_drops"),
        tm1_queue_drops: m.counter(tm1, "queue_drops"),
        tm1_residency: m.hist(tm1, "residency_ps"),
        tm1_queue_depth: m.series(tm1, "queue_pkts", SERIES_CAP),
        tm1_buffer: m.series(tm1, "buffer_cells", SERIES_CAP),
        tm1_buffer_gauge: m.gauge(tm1, "buffer_cells"),
        central_span: m.hist(central, "span_ps"),
        tm2_drops: m.counter(tm2, "buffer_drops"),
        tm2_queue_drops: m.counter(tm2, "queue_drops"),
        tm2_mcast_copies: m.counter(tm2, "mcast_copies"),
        tm2_residency: m.hist(tm2, "residency_ps"),
        tm2_queue_depth: m.series(tm2, "queue_pkts", SERIES_CAP),
        tm2_buffer: m.series(tm2, "buffer_cells", SERIES_CAP),
        tm2_buffer_gauge: m.gauge(tm2, "buffer_cells"),
        egress_span: m.hist(egress, "span_ps"),
        deparse_allocs: m.counter(deparser, "allocs"),
        mat_lookups: m.counter(mat, "lookups"),
        mat_hits: m.counter(mat, "hits"),
        drops_filtered: m.counter(drops, "filtered"),
        drops_no_decision: m.counter(drops, "no_decision"),
        drops_bad_port: m.counter(drops, "bad_port"),
        tx_pkts: m.counter(tx, "packets"),
        tx_latency: m.hist(tx, "latency_ps"),
        ctrl_migrations: m.counter(ctrl, "migrations"),
        ctrl_moved_keys: m.counter(ctrl, "moved_keys"),
        ctrl_paused_ns: m.counter(ctrl, "paused_ns"),
        ctrl_redirected_pkts: m.counter(ctrl, "redirected_pkts"),
        ctrl_held_pkts: m.counter(ctrl, "held_pkts"),
        ctrl_misroutes: m.counter(ctrl, "misroutes"),
        ctrl_epoch: m.gauge(ctrl, "epoch"),
        int_stamps: m.counter(int, "stamps"),
        int_postcards: m.counter(int, "postcards"),
        int_truncated: m.counter(int, "stack_truncated"),
        int_postcards_dropped: m.counter(int, "postcards_dropped"),
        int_path_changes: m.counter(int, "path_changes"),
        int_flows: m.gauge(int, "active_flow_cells"),
        busy: [
            (
                m.counter(ingress, "busy_cycles"),
                m.gauge(ingress, "busy_cycles_max_pipe"),
            ),
            (
                m.counter(central, "busy_cycles"),
                m.gauge(central, "busy_cycles_max_pipe"),
            ),
            (
                m.counter(egress, "busy_cycles"),
                m.gauge(egress, "busy_cycles_max_pipe"),
            ),
        ],
    }
}

/// Registers referenced by central-region table actions, with cell counts:
/// the state the global partitioned area shards, and therefore the state a
/// migration must move.
fn central_registers(program: &Program) -> Vec<(RegId, usize)> {
    fn collect(ops: &[ActionOp], out: &mut Vec<RegId>) {
        for op in ops {
            match op {
                ActionOp::RegRead { reg, .. }
                | ActionOp::RegRmw { reg, .. }
                | ActionOp::RegArray { reg, .. } => out.push(*reg),
                ActionOp::IfEq { then, .. } => collect(then, out),
                _ => {}
            }
        }
    }
    let mut regs = Vec::new();
    for t in program
        .tables
        .iter()
        .filter(|t| t.region == Region::Central)
    {
        for a in &t.actions {
            collect(&a.ops, &mut regs);
        }
    }
    regs.sort_unstable();
    regs.dedup();
    regs.into_iter()
        .map(|r| (r, program.registers[r.0 as usize].entries as usize))
        .collect()
}

/// How the RX side spreads a port's packets over its `m` pipelines (§3.3:
/// "an application must define how to separate the packet contents").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemuxPolicy {
    /// Alternate pipelines packet by packet (maximum load spread).
    #[default]
    RoundRobin,
    /// Pin each flow to one pipeline (preserves per-flow order end-to-end).
    FlowHash,
}

/// Tuning knobs for an [`AdcpSwitch`].
#[derive(Debug, Clone)]
pub struct AdcpConfig {
    /// Cells in each TM's shared buffer.
    pub tm_cells: u64,
    /// Bytes per buffer cell.
    pub cell_bytes: u32,
    /// Per-queue depth in packets (both TMs).
    pub queue_depth: usize,
    /// RX demultiplexing policy.
    pub demux: DemuxPolicy,
    /// Retain a packet-walk trace.
    pub trace: bool,
    /// Stamp in-band telemetry ([`adcp_sim::int`]) onto transiting
    /// packets. Like `trace`, this is the config default — the `ADCP_INT`
    /// environment variable overrides it (`off` disables, `on` enables at
    /// rate 1, a number `N` enables with 1-in-`N` sampling).
    pub int: bool,
    /// Device id written into every INT stamp this switch produces. A
    /// standalone switch is device 0; a fabric assigns leaf `l` = `l` and
    /// spine `s` = `n_leaves + s`.
    pub device: u16,
    /// Per-port speed overrides (port, speed) — models hosts with slower
    /// NICs than the switch's native port rate (the Table 1 group-
    /// communication scenario).
    pub port_speeds: Vec<(u16, adcp_sim::port::LinkSpeed)>,
    /// With a `MergeOrder` TM1: how long a central pipeline may stall
    /// waiting for every un-ended input queue to present a head (the
    /// exact-merge precondition) before proceeding with the streaming
    /// approximation. Applications that want exact merges mark unused
    /// inputs ended and terminate streams with end-of-stream records.
    pub merge_patience: Duration,
}

impl Default for AdcpConfig {
    fn default() -> Self {
        AdcpConfig {
            tm_cells: 65_536,
            cell_bytes: 80,
            queue_depth: 512,
            demux: DemuxPolicy::default(),
            trace: false,
            int: false,
            device: 0,
            port_speeds: Vec::new(),
            merge_patience: Duration::from_us(2),
        }
    }
}

/// Drop/flow accounting; see [`AdcpSwitch::check_conservation`].
#[derive(Debug, Clone, Default)]
pub struct AdcpCounters {
    /// Packets injected.
    pub injected: u64,
    /// Extra copies created by TM2 multicast.
    pub mcast_copies: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Parse failures (any pipeline).
    pub parse_errors: u64,
    /// Sealed frames whose check sequence failed on injection (corrupted
    /// on the wire); discarded before touching any table or register.
    pub fcs_drops: u64,
    /// Dropped by a program `Drop` action.
    pub filtered: u64,
    /// Reached TM2 with no forwarding decision.
    pub no_decision: u64,
    /// Forwarding decision named a nonexistent port.
    pub bad_port: u64,
    /// TM1 buffer exhaustion.
    pub tm1_drops: u64,
    /// TM1 per-queue tail drops.
    pub tm1_queue_drops: u64,
    /// TM2 buffer exhaustion.
    pub tm2_drops: u64,
    /// TM2 per-queue tail drops.
    pub tm2_queue_drops: u64,
    /// Match-table key lookups executed, all regions and lanes (refreshed
    /// at quiescence from the per-table counters).
    pub mat_lookups: u64,
    /// Match-table lookups that hit an installed entry.
    pub mat_hits: u64,
    /// Frame buffers rebuilt by the deparser — the hot path's remaining
    /// per-region-exit allocation (delivery and multicast copies share
    /// payload buffers instead of allocating).
    pub deparse_allocs: u64,
}

impl AdcpCounters {
    /// Fraction of match-table lookups that hit (0 when none ran).
    pub fn mat_hit_rate(&self) -> f64 {
        if self.mat_lookups == 0 {
            0.0
        } else {
            self.mat_hits as f64 / self.mat_lookups as f64
        }
    }

    /// Sum of all drop classes.
    pub fn total_drops(&self) -> u64 {
        self.parse_errors
            + self.fcs_drops
            + self.filtered
            + self.no_decision
            + self.bad_port
            + self.tm1_drops
            + self.tm1_queue_drops
            + self.tm2_drops
            + self.tm2_queue_drops
    }
}

/// A packet that left the switch.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// TX port it left on.
    pub port: PortId,
    /// Time its last bit left.
    pub time: SimTime,
    /// Final frame contents (moved from the in-switch packet — taking
    /// delivery does not copy the payload).
    pub data: FrameBuf,
    /// Final metadata.
    pub meta: adcp_sim::packet::PacketMeta,
}

impl Delivered {
    /// When the egress pipeline handed the frame to its TX port: the
    /// simulated time of the event that delivered it (`time` adds TX
    /// queueing and serialization). The metadata's rolling stage-entry
    /// mark holds it once the frame has entered TX.
    pub fn egress_exit(&self) -> SimTime {
        self.meta.tm_enqueued
    }
}

struct IngressPipe {
    next_slot: SimTime,
    busy_cycles: u64,
    state: RegionState,
}

struct CentralPipe {
    next_slot: SimTime,
    busy_cycles: u64,
    /// MergeOrder: when the current wait-for-merge-ready began.
    merge_wait_since: Option<SimTime>,
    state: RegionState,
    /// One queue per ingress pipeline feeding this central pipe, so the
    /// order-preserving merge has per-input streams to merge (§3.1).
    queues: ScheduledQueues,
    pull_scheduled: bool,
}

struct EgressPipe {
    next_slot: SimTime,
    busy_cycles: u64,
    state: RegionState,
    queues: ScheduledQueues,
    pull_scheduled: bool,
}

/// A scheduled event. Pipe indices are `u32` so that the tag and index
/// share one word ahead of the packet: the event queue moves and sorts
/// every event by value, so its size is on the hot path.
enum Ev {
    Inject {
        port: u16,
        pkt: Packet,
    },
    IngressEnter {
        pipe: u32,
        pkt: Packet,
    },
    IngressOut {
        pipe: u32,
        pkt: Packet,
    },
    PullCentral {
        cpipe: u32,
    },
    CentralOut {
        cpipe: u32,
        pkt: Packet,
    },
    PullEgress {
        epipe: u32,
    },
    EgressOut {
        epipe: u32,
        pkt: Packet,
    },
    /// Drain-strategy commit point: the in-flight fence has drained and the
    /// bulk copy window has elapsed — move state, install the next map,
    /// release held packets.
    MigrateCommit,
}

/// Control-plane migration totals, exported in the `ctrl` metrics scope.
#[derive(Debug, Clone, Default)]
pub struct MigrationStats {
    /// Completed migrations.
    pub migrations: u64,
    /// Register cells moved between central pipes.
    pub moved_keys: u64,
    /// Nanoseconds during which moving shards were unavailable (packets
    /// held at TM1): fence-drain plus copy window for drain, fence-drain
    /// only for incremental.
    pub paused_ns: u64,
    /// Incremental first touches: packets that hit a not-yet-copied bucket
    /// and triggered its copy.
    pub redirected_pkts: u64,
    /// Packets held at TM1 during migrations.
    pub held_pkts: u64,
    /// Packets dequeued by a central pipe that the epoch-consistent map
    /// says should not own them. Always zero unless the protocol is broken;
    /// exported so tests and conformance can assert on it.
    pub misroutes: u64,
}

/// One in-progress migration (see `AdcpSwitch::begin_migration`).
struct MigrationState {
    strategy: MigrationStrategy,
    /// Map in force when the migration began (the routing map until a
    /// drain commits; the stamp-decoder for old-epoch packets afterwards).
    prev: PartitionMap,
    /// Drain only: the map to install at commit.
    next_pending: Option<PartitionMap>,
    begun: SimTime,
    /// Moving buckets in `prev` numbering, sorted — the in-flight fence.
    fence_prev: Vec<u32>,
    /// Old-epoch packets of fence buckets still queued at their old owner.
    fence_left: u64,
    /// Cells still to move: `(reg, cell, from_pipe, to_pipe)`.
    moving_cells: Vec<(RegId, usize, u32, u32)>,
    /// Incremental only: next-map buckets whose cells are not yet copied
    /// (the redirect table), sorted.
    dirty: Vec<u32>,
    /// Packets held at TM1 (with their ingress pipe) until the shard is
    /// consistent again. Released in arrival order.
    held: Vec<(usize, Packet)>,
    /// Incremental only: the fence drained at the current central pull's
    /// dequeue — release `held` once that pull's register updates have
    /// been applied (later in `on_pull_central`), never before. Releasing
    /// at the dequeue would let the first released packet copy-on-first-
    /// touch the moving cells *under* the final fence packet's pending
    /// RMW, stranding its increment on the old owner.
    release_at_exec: bool,
    /// Incremental only: when the current hold window started.
    pause_started: Option<SimTime>,
}

/// Partition-map routing state (present once `install_partition_map` ran).
struct PartitionRuntime {
    map: PartitionMap,
    /// TM1-enqueued, not yet centrally processed, per current-map bucket
    /// (current epoch stamps only).
    inflight: Vec<u64>,
    /// Same, for packets stamped with an older epoch (bucket numbering may
    /// no longer apply, so they are counted in aggregate).
    inflight_old: u64,
    /// Packets routed per bucket since this map took effect (the load
    /// signal a controller rebalances on).
    bucket_pkts: Vec<u64>,
    mig: Option<MigrationState>,
}

/// The Application-Defined Coflow Processor.
pub struct AdcpSwitch {
    target: TargetModel,
    /// Shared, immutable after build: pipelines borrow it per event instead
    /// of cloning (the per-event `Program` clone dominated the old hot
    /// path).
    program: Arc<Program>,
    layout: adcp_lang::PhvLayout,
    /// Compilation result the switch was built from.
    pub placement: Placement,
    cfg: AdcpConfig,
    rx: Vec<RxPort>,
    tx: Vec<TxPort>,
    ingress: Vec<IngressPipe>,
    central: Vec<CentralPipe>,
    egress: Vec<EgressPipe>,
    /// One shared copy of the ingress-region match tables. Every ingress
    /// pipeline runs against it (tables are installed identically into all
    /// pipes, so duplicating the entries per pipe only multiplied install
    /// cost and memory); register state stays per-pipe in `IngressPipe`.
    ing_tables: RegionState,
    /// Shared egress-region match tables (same reasoning).
    eg_tables: RegionState,
    pool1: BufferPool,
    pool2: BufferPool,
    events: EventQueue<Ev>,
    /// Reusable same-timestamp dispatch batch for the event loop.
    batch: Vec<Ev>,
    /// Recycling arena for deparse frame buffers.
    store: PacketStore,
    /// Recycled parse scratch (PHV + extraction list): parse-to-writeback
    /// is straight-line within one handler, so a single slot suffices.
    scratch: Option<(Phv, Vec<adcp_lang::HeaderId>)>,
    period: Duration,
    demux_rr: Vec<u16>,
    /// Drop/flow accounting.
    pub counters: AdcpCounters,
    /// Meter over delivered packets (throughput, goodput, keys/s).
    pub out_meter: Meter,
    /// End-to-end latency (created -> last bit out).
    pub latency: LatencyHist,
    /// Packet-journey flight recorder (sampled hop spans, always-on drop
    /// forensics, control-plane instants).
    pub tracer: JourneyTracer,
    /// In-band telemetry knob (resolved from `ADCP_INT` / `cfg.int`).
    int: IntKnob,
    /// Postcards emitted at TX for sampled packets, awaiting a collector
    /// ([`AdcpSwitch::take_postcards`]).
    postcards: Vec<Postcard>,
    /// Central-register-resident per-flow INT aggregation (§3.1: the
    /// stateful summary the central pipes hold in register state).
    int_flows: IntFlowTable,
    /// Stamps successfully written into packet header regions.
    int_stamps: u64,
    /// Postcards emitted at TX.
    int_postcards: u64,
    /// Stamps that found the header region full.
    int_truncated: u64,
    /// Postcards shed because the sink FIFO was full ([`POSTCARDS_CAP`]).
    int_postcards_dropped: u64,
    /// Sabotage hook: report TM queue depths one higher than observed.
    int_lie_queue_depth: bool,
    /// Per-stage metrics registry (spans, queue depths, drop classes).
    metrics: MetricsRegistry,
    mh: MetricHandles,
    delivered: Vec<Delivered>,
    in_flight: u64,
    last_delivery: SimTime,
    /// Partition-map routing + migration machinery; `None` keeps the
    /// legacy modulo routing (and zero per-packet overhead).
    part: Option<PartitionRuntime>,
    /// Migration totals, exported in the `ctrl` metrics scope.
    mig_stats: MigrationStats,
    /// Registers referenced by central-region tables with their cell
    /// counts — the state a migration moves.
    central_regs: Vec<(RegId, usize)>,
}

impl AdcpSwitch {
    /// Build a switch for `program` on `target` (must be an ADCP target).
    pub fn new(
        program: Program,
        target: TargetModel,
        opts: CompileOptions,
        cfg: AdcpConfig,
    ) -> Result<Self, CompileError> {
        assert!(
            target.has_central() || !program.uses_central(),
            "ADCP targets should declare central pipelines"
        );
        let placement = compile(&program, &target, opts)?;
        let layout = program.layout();
        let n_ing = target.num_pipes() as usize;
        let n_central = target.central_pipes.max(1) as usize;
        let speed_of = |p: u16| {
            cfg.port_speeds
                .iter()
                .find(|(port, _)| *port == p)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| target.port_speed())
        };
        let rx = (0..target.ports)
            .map(|p| RxPort::new(PortId(p), speed_of(p)))
            .collect();
        let tx = (0..target.ports)
            .map(|p| TxPort::new(PortId(p), speed_of(p)))
            .collect();
        let ingress = (0..n_ing)
            .map(|_| IngressPipe {
                next_slot: SimTime::ZERO,
                busy_cycles: 0,
                state: RegionState::new(&program, Region::Ingress),
            })
            .collect();
        let tm1 = program.tm1.policy;
        let central = (0..n_central)
            .map(|_| CentralPipe {
                next_slot: SimTime::ZERO,
                busy_cycles: 0,
                merge_wait_since: None,
                state: RegionState::new(&program, Region::Central),
                queues: ScheduledQueues::new(n_ing, cfg.queue_depth, tm1),
                pull_scheduled: false,
            })
            .collect();
        let tm2 = program.tm2.policy;
        let egress = (0..n_ing)
            .map(|_| EgressPipe {
                next_slot: SimTime::ZERO,
                busy_cycles: 0,
                state: RegionState::new(&program, Region::Egress),
                queues: ScheduledQueues::new(1, cfg.queue_depth, tm2),
                pull_scheduled: false,
            })
            .collect();
        let pool1 = BufferPool::new(cfg.tm_cells, cfg.cell_bytes);
        let pool2 = BufferPool::new(cfg.tm_cells, cfg.cell_bytes);
        let period = target.pipe_freq().period();
        let tracer = JourneyTracer::from_env(cfg.trace, 65_536);
        let int = IntKnob::from_env(cfg.int);
        let demux_rr = vec![0; target.ports as usize];
        let mut metrics = MetricsRegistry::from_env();
        let mh = register_metrics(&mut metrics);
        let central_regs = central_registers(&program);
        let ing_tables = RegionState::new(&program, Region::Ingress);
        let eg_tables = RegionState::new(&program, Region::Egress);
        Ok(AdcpSwitch {
            target,
            program: Arc::new(program),
            layout,
            placement,
            cfg,
            rx,
            tx,
            ingress,
            central,
            egress,
            ing_tables,
            eg_tables,
            pool1,
            pool2,
            events: EventQueue::new(),
            batch: Vec::new(),
            store: PacketStore::new(),
            scratch: None,
            period,
            demux_rr,
            counters: AdcpCounters::default(),
            out_meter: Meter::default(),
            latency: LatencyHist::new(),
            tracer,
            int,
            postcards: Vec::new(),
            int_flows: IntFlowTable::new(INT_FLOW_CELLS),
            int_stamps: 0,
            int_postcards: 0,
            int_truncated: 0,
            int_postcards_dropped: 0,
            int_lie_queue_depth: false,
            metrics,
            mh,
            delivered: Vec::new(),
            in_flight: 0,
            last_delivery: SimTime::ZERO,
            part: None,
            mig_stats: MigrationStats::default(),
            central_regs,
        })
    }

    /// The target this switch models.
    pub fn target(&self) -> &TargetModel {
        &self.target
    }

    /// The program it runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of central pipelines.
    pub fn num_central(&self) -> usize {
        self.central.len()
    }

    /// The `m` ingress pipelines fed by a port (1:m demux, §3.3).
    pub fn pipes_of_port(&self, port: PortId) -> std::ops::Range<usize> {
        let m = self.target.demux_factor as usize;
        let base = port.0 as usize * m;
        base..base + m
    }

    // ---------------- control plane ----------------

    /// Install a table entry into every pipeline hosting the table.
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        let AdcpSwitch {
            program,
            ing_tables,
            central,
            eg_tables,
            ..
        } = self;
        let gi = program
            .tables
            .iter()
            .position(|t| t.name == table)
            .unwrap_or_else(|| panic!("no table named {table}"));
        match program.tables[gi].region {
            // Ingress/egress tables are installed identically everywhere, so
            // one shared copy serves every pipe — a control-plane install is
            // O(1) in the pipe count instead of cloning the entry per pipe.
            Region::Ingress => ing_tables.install(program, gi, entry)?,
            Region::Central => {
                // Central tables stay per-pipe: §3.1 partitions this state.
                for p in central.iter_mut() {
                    p.state.install(program, gi, entry.clone())?;
                }
            }
            Region::Egress => eg_tables.install(program, gi, entry)?,
        }
        Ok(())
    }

    /// Install an entry into a single central pipeline (the partitioned
    /// placement of §3.1: each central pipe owns a shard of the state).
    /// Out-of-range pipe indices return [`TableError::NoSuchPipe`].
    pub fn install_central_at(
        &mut self,
        cpipe: usize,
        table: &str,
        entry: Entry,
    ) -> Result<(), TableError> {
        let AdcpSwitch {
            program, central, ..
        } = self;
        let gi = program
            .tables
            .iter()
            .position(|t| t.name == table)
            .unwrap_or_else(|| panic!("no table named {table}"));
        let have = central.len();
        let Some(pipe) = central.get_mut(cpipe) else {
            return Err(TableError::NoSuchPipe { pipe: cpipe, have });
        };
        pipe.state.install(program, gi, entry)
    }

    /// Read a central pipeline's register file. `None` when `cpipe` is out
    /// of range.
    pub fn central_register(&self, cpipe: usize, reg: RegId) -> Option<&RegisterFile> {
        self.central.get(cpipe).map(|p| p.state.register(reg))
    }

    /// Mutable access to a central register file (epoch resets). `None`
    /// when `cpipe` is out of range.
    pub fn central_register_mut(&mut self, cpipe: usize, reg: RegId) -> Option<&mut RegisterFile> {
        self.central
            .get_mut(cpipe)
            .map(|p| p.state.register_mut(reg))
    }

    // ---------------- partition control plane ----------------

    /// Install a partition map, switching TM1 from the legacy
    /// `key % n_central` fold to epoch-versioned bucket routing. Must be
    /// called while the switch is idle so the in-flight fence accounting
    /// starts complete; [`crate::partition::PartitionMap::uniform`] with a
    /// bucket count divisible by `num_central` reproduces the legacy
    /// routing exactly. The installed map starts at epoch 0.
    pub fn install_partition_map(&mut self, mut map: PartitionMap) -> Result<(), MigrateError> {
        let pipes = self.central.len() as u32;
        if map.max_owner() >= pipes {
            return Err(MigrateError::BadOwner {
                owner: map.max_owner(),
                pipes,
            });
        }
        if self.in_flight != 0 {
            return Err(MigrateError::NotIdle);
        }
        // The epoch restarts at 0: record the outgoing one so the `ctrl`
        // epoch gauge's high-water mark survives the reset.
        self.metrics
            .set_gauge(self.mh.ctrl_epoch, self.partition_epoch());
        map.epoch = 0;
        let b = map.num_buckets() as usize;
        self.part = Some(PartitionRuntime {
            map,
            inflight: vec![0; b],
            inflight_old: 0,
            bucket_pkts: vec![0; b],
            mig: None,
        });
        Ok(())
    }

    /// The installed partition map, if any.
    pub fn partition_map(&self) -> Option<&PartitionMap> {
        self.part.as_ref().map(|rt| &rt.map)
    }

    /// Epoch of the map in force (0 when no map is installed).
    pub fn partition_epoch(&self) -> u64 {
        self.part.as_ref().map_or(0, |rt| rt.map.epoch)
    }

    /// Packets routed per bucket since the current map took effect — the
    /// per-shard load signal a controller rebalances on.
    pub fn bucket_loads(&self) -> Option<&[u64]> {
        self.part.as_ref().map(|rt| rt.bucket_pkts.as_slice())
    }

    /// True while a migration is in progress (drain awaiting commit, or
    /// incremental awaiting `finalize_migration`).
    pub fn migration_active(&self) -> bool {
        self.part.as_ref().is_some_and(|rt| rt.mig.is_some())
    }

    /// Distinct central pipes owning at least one partition bucket under
    /// the map in force — the autoscaler's "active" pipe count. Falls back
    /// to the physical pipe count when no map is installed (every pipe is
    /// addressable then).
    pub fn active_central_pipes(&self) -> usize {
        match self.partition_map() {
            Some(map) => {
                let mut owners: Vec<u32> = (0..map.num_buckets())
                    .map(|b| map.owner_of_bucket(b))
                    .collect();
                owners.sort_unstable();
                owners.dedup();
                owners.len()
            }
            None => self.num_central(),
        }
    }

    /// Migration totals (also exported in the `ctrl` metrics scope).
    pub fn migration_stats(&self) -> &MigrationStats {
        &self.mig_stats
    }

    /// Begin migrating to `next` under live traffic.
    ///
    /// **Drain**: packets for moving buckets are held at TM1; once every
    /// already-queued packet of those buckets has been processed by its old
    /// owner (the in-flight *fence*) and the bulk copy window has elapsed,
    /// state moves, the new map (epoch + 1) takes effect, and held packets
    /// are released in arrival order. Completion is event-driven — just
    /// keep running the switch.
    ///
    /// **Incremental**: the new map takes effect immediately; packets for
    /// not-yet-copied buckets are held only while the fence drains, after
    /// which the first packet to touch a bucket pays that bucket's copy
    /// cost (copy-on-first-touch against the redirect table). Call
    /// [`AdcpSwitch::finalize_migration`] to bulk-copy whatever was never
    /// touched.
    pub fn begin_migration(
        &mut self,
        mut next: PartitionMap,
        strategy: MigrationStrategy,
    ) -> Result<(), MigrateError> {
        let pipes = self.central.len() as u32;
        if next.max_owner() >= pipes {
            return Err(MigrateError::BadOwner {
                owner: next.max_owner(),
                pipes,
            });
        }
        let now = self.events.now();
        let central_regs = self.central_regs.clone();
        let rt = self.part.as_mut().ok_or(MigrateError::NoMap)?;
        if rt.mig.is_some() {
            return Err(MigrateError::InProgress);
        }
        if rt.inflight_old > 0 {
            return Err(MigrateError::Busy);
        }
        next.epoch = rt.map.epoch + 1;
        let new_epoch = next.epoch;
        let fence_prev = rt.map.moved_buckets(&next);
        let fence_left: u64 = fence_prev.iter().map(|&b| rt.inflight[b as usize]).sum();
        let moving_cells: Vec<(RegId, usize, u32, u32)> = central_regs
            .iter()
            .flat_map(|&(r, n)| {
                rt.map
                    .moved_cells(&next, n)
                    .into_iter()
                    .map(move |(c, from, to)| (r, c, from, to))
            })
            .collect();
        let n_moving = moving_cells.len();
        match strategy {
            MigrationStrategy::Drain => {
                rt.mig = Some(MigrationState {
                    strategy,
                    prev: rt.map.clone(),
                    next_pending: Some(next),
                    begun: now,
                    fence_prev,
                    fence_left,
                    moving_cells,
                    dirty: Vec::new(),
                    held: Vec::new(),
                    release_at_exec: false,
                    pause_started: None,
                });
                if fence_left == 0 {
                    let at = now + self.copy_cost(n_moving);
                    self.events.push(at, Ev::MigrateCommit);
                }
            }
            MigrationStrategy::Incremental => {
                let mut dirty: Vec<u32> = moving_cells
                    .iter()
                    .map(|&(_, c, _, _)| next.bucket_of(c as u64))
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                let b = next.num_buckets() as usize;
                let prev = std::mem::replace(&mut rt.map, next);
                rt.inflight_old += rt.inflight.iter().sum::<u64>();
                rt.inflight = vec![0; b];
                rt.bucket_pkts = vec![0; b];
                rt.mig = Some(MigrationState {
                    strategy,
                    prev,
                    next_pending: None,
                    begun: now,
                    fence_prev,
                    fence_left,
                    moving_cells,
                    dirty,
                    held: Vec::new(),
                    release_at_exec: false,
                    pause_started: (fence_left > 0).then_some(now),
                });
            }
        }
        // Control-plane instants on the `ctrl` track. For the incremental
        // strategy the new map (and its epoch) takes effect immediately;
        // drain bumps the epoch only at commit time.
        let label = match strategy {
            MigrationStrategy::Drain => "drain",
            MigrationStrategy::Incremental => "incremental",
        };
        self.tracer.record_ctrl(
            now,
            CtrlEvent::MigrationBegin {
                strategy: label,
                epoch: new_epoch,
            },
        );
        if strategy == MigrationStrategy::Incremental {
            self.tracer
                .record_ctrl(now, CtrlEvent::EpochBump { epoch: new_epoch });
        }
        Ok(())
    }

    /// Complete an incremental migration by bulk-copying every bucket that
    /// was never touched. Errors: [`MigrateError::Busy`] while the fence is
    /// still draining (keep running), [`MigrateError::InProgress`] for a
    /// drain migration (its commit is event-driven), and
    /// [`MigrateError::NoMigration`] when nothing is in progress.
    pub fn finalize_migration(&mut self) -> Result<(), MigrateError> {
        let rt = self.part.as_mut().ok_or(MigrateError::NoMap)?;
        let Some(mig) = &rt.mig else {
            return Err(MigrateError::NoMigration);
        };
        if mig.strategy == MigrationStrategy::Drain {
            return Err(MigrateError::InProgress);
        }
        if mig.fence_left > 0 {
            return Err(MigrateError::Busy);
        }
        let mut mig = rt.mig.take().expect("checked above");
        let moves = std::mem::take(&mut mig.moving_cells);
        self.apply_moves(&moves);
        self.mig_stats.moved_keys += moves.len() as u64;
        self.mig_stats.migrations += 1;
        // Defensive: a pending release is normally drained by the event
        // loop before control-plane code can run, but never strand a held
        // packet — the cells just moved, so plain routing is consistent.
        for (pipe, pkt) in std::mem::take(&mut mig.held) {
            self.tm1_route(self.events.now(), pipe, pkt);
        }
        self.tracer.record_ctrl(
            self.events.now(),
            CtrlEvent::MigrationFinalize {
                epoch: self.partition_epoch(),
                moved_keys: moves.len() as u64,
            },
        );
        Ok(())
    }

    /// Simulated cost of copying `cells` register cells between pipes.
    fn copy_cost(&self, cells: usize) -> Duration {
        Duration(cells as u64 * CELL_COPY_CYCLES * self.period.as_ps())
    }

    /// Move cells between central pipes via the control-plane
    /// extract/restore path (does not count as data-plane register ops).
    fn apply_moves(&mut self, moves: &[(RegId, usize, u32, u32)]) {
        for &(reg, cell, from, to) in moves {
            let v = self.central[from as usize]
                .state
                .register_mut(reg)
                .extract(cell);
            self.central[to as usize]
                .state
                .register_mut(reg)
                .restore(cell, v);
        }
    }

    /// Declare that ingress pipe `ipipe` will send no more packets to
    /// central pipe `cpipe` (releases an exact order-preserving merge).
    pub fn tm1_mark_ended(&mut self, cpipe: usize, ipipe: usize) {
        self.central[cpipe].queues.mark_ended(ipipe);
    }

    // ---------------- data plane ----------------

    /// Offer a packet to an RX port at `t`.
    pub fn inject(&mut self, port: PortId, pkt: Packet, t: SimTime) {
        self.inject_sent(port, pkt, t, self.events.now());
    }

    /// Offer a frame that reaches an RX port at `t` over a link whose far
    /// end handed it to TX at simulated time `sent`. Among events at `t`
    /// the frame fires as if it had been scheduled at `sent` (see
    /// [`EventQueue::push_issued`]), so a fabric that exchanges link
    /// traffic once per lookahead window, after this switch has already
    /// run past `sent`, keeps the order of a per-timestamp exchange.
    pub fn inject_sent(&mut self, port: PortId, mut pkt: Packet, t: SimTime, sent: SimTime) {
        assert!((port.0 as usize) < self.rx.len());
        if pkt.meta.created == SimTime::ZERO {
            pkt.meta.created = t;
        }
        self.counters.injected += 1;
        self.in_flight += 1;
        self.events
            .push_issued(t, sent, Ev::Inject { port: port.0, pkt });
    }

    /// Run until no events remain; returns quiescence time — the later of
    /// the last event and the last bit serialized out a TX port.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_batches(SimTime::NEVER).max(self.last_delivery)
    }

    /// Run every event scheduled at or before `t`, then stop — the hook a
    /// control loop uses to interleave observation and reconfiguration
    /// with live traffic. Returns the time of the last handled event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        self.run_batches(t)
    }

    /// The event loop behind [`AdcpSwitch::run_until`] and
    /// [`AdcpSwitch::run_until_idle`]: handle every event at or before
    /// `horizon` and return the time of the last one. Batched dispatch:
    /// every event sharing the minimal timestamp is drained in one
    /// calendar-queue operation and dispatched from a reusable buffer.
    /// Handlers that push more work at the same timestamp get a later seq,
    /// so those land in the *next* batch — the dispatch order is identical
    /// to the one-event-at-a-time loop.
    fn run_batches(&mut self, horizon: SimTime) -> SimTime {
        let mut last = self.events.now();
        let mut batch = std::mem::take(&mut self.batch);
        // Running to idle needs no peek: `pop_batch` ends the loop.
        while horizon == SimTime::NEVER || self.events.peek_time().is_some_and(|pt| pt <= horizon) {
            let Some(t) = self.events.pop_batch(&mut batch) else {
                break;
            };
            for ev in batch.drain(..) {
                self.handle(t, ev);
            }
            last = t;
        }
        self.batch = batch;
        self.refresh_mat_counters();
        last
    }

    /// Export the per-stage metrics block: [`AdcpSwitch::metrics`] as JSON
    /// (see [`MetricsView::to_json`]).
    pub fn metrics_json(&self) -> serde::Value {
        self.metrics().to_json()
    }

    /// The per-stage metrics registry with this switch's own counts folded
    /// in at read time: [`AdcpCounters`], migration totals, INT totals and
    /// per-pipe busy cycles are the single source of truth, so nothing is
    /// copied into the registry while the switch runs and the view is
    /// complete whenever it is taken.
    pub fn metrics(&self) -> MetricsView<'_> {
        let c = &self.counters;
        let mh = &self.mh;
        let mig = &self.mig_stats;
        let (lookups, hits) = self.mat_totals();
        let folds = [
            Fold::Counter(mh.rx_pkts, c.injected),
            Fold::Counter(mh.mac_fcs_drops, c.fcs_drops),
            Fold::Counter(mh.parse_errors, c.parse_errors),
            Fold::Counter(mh.tm1_drops, c.tm1_drops),
            Fold::Counter(mh.tm1_queue_drops, c.tm1_queue_drops),
            Fold::Counter(mh.tm2_drops, c.tm2_drops),
            Fold::Counter(mh.tm2_queue_drops, c.tm2_queue_drops),
            Fold::Counter(mh.tm2_mcast_copies, c.mcast_copies),
            Fold::Counter(mh.deparse_allocs, c.deparse_allocs),
            Fold::Counter(mh.mat_lookups, lookups),
            Fold::Counter(mh.mat_hits, hits),
            Fold::Counter(mh.drops_filtered, c.filtered),
            Fold::Counter(mh.drops_no_decision, c.no_decision),
            Fold::Counter(mh.drops_bad_port, c.bad_port),
            Fold::Counter(mh.tx_pkts, c.delivered),
            Fold::Gauge(mh.tm1_buffer_gauge, self.pool1.used()),
            Fold::Gauge(mh.tm2_buffer_gauge, self.pool2.used()),
            Fold::Counter(mh.ctrl_migrations, mig.migrations),
            Fold::Counter(mh.ctrl_moved_keys, mig.moved_keys),
            Fold::Counter(mh.ctrl_paused_ns, mig.paused_ns),
            Fold::Counter(mh.ctrl_redirected_pkts, mig.redirected_pkts),
            Fold::Counter(mh.ctrl_held_pkts, mig.held_pkts),
            Fold::Counter(mh.ctrl_misroutes, mig.misroutes),
            Fold::Gauge(mh.ctrl_epoch, self.partition_epoch()),
            Fold::Counter(mh.int_stamps, self.int_stamps),
            Fold::Counter(mh.int_postcards, self.int_postcards),
            Fold::Counter(mh.int_truncated, self.int_truncated),
            Fold::Counter(mh.int_postcards_dropped, self.int_postcards_dropped),
            Fold::Counter(mh.int_path_changes, self.int_flows.total_path_changes()),
            Fold::Gauge(mh.int_flows, self.int_flows.active_cells()),
        ];
        let busy = [
            Fold::busy(mh.busy[0], self.ingress.iter().map(|p| p.busy_cycles)),
            Fold::busy(mh.busy[1], self.central.iter().map(|p| p.busy_cycles)),
            Fold::busy(mh.busy[2], self.egress.iter().map(|p| p.busy_cycles)),
        ];
        self.metrics
            .fold(folds.into_iter().chain(busy.into_iter().flatten()))
    }

    /// Export the journey tracer's state (sampled hops, drop forensics,
    /// control-plane instants) as JSON. See [`JourneyTracer::to_json`].
    pub fn trace_json(&self) -> serde::Value {
        self.tracer.to_json()
    }

    /// The in-band telemetry knob in force (resolved from `ADCP_INT` at
    /// construction, falling back to [`AdcpConfig::int`]).
    pub fn int_knob(&self) -> IntKnob {
        self.int
    }

    /// Device id this switch writes into its INT stamps.
    pub fn device(&self) -> u16 {
        self.cfg.device
    }

    /// Drain the postcards emitted since the last call (sink exports of
    /// sampled packets' INT stacks at TX).
    pub fn take_postcards(&mut self) -> Vec<Postcard> {
        std::mem::take(&mut self.postcards)
    }

    /// The central-register-resident per-flow INT aggregation cell for
    /// `flow`.
    pub fn int_flow_cell(&self, flow: u64) -> IntFlowCell {
        *self.int_flows.cell(flow)
    }

    /// The whole per-flow INT aggregation table.
    pub fn int_flow_table(&self) -> &IntFlowTable {
        &self.int_flows
    }

    /// INT totals: (stamps written, postcards emitted, stamps truncated).
    pub fn int_totals(&self) -> (u64, u64, u64) {
        (self.int_stamps, self.int_postcards, self.int_truncated)
    }

    /// Postcards shed because the sink FIFO was full — nonzero only when
    /// nothing drained [`AdcpSwitch::take_postcards`] for
    /// [`POSTCARDS_CAP`] sampled transmissions.
    pub fn int_postcards_dropped(&self) -> u64 {
        self.int_postcards_dropped
    }

    /// Sabotage hook for the conformance harness: when set, every INT
    /// stamp reports a TM queue depth one higher than actually observed —
    /// a plausible-but-lying datapath the honesty check must catch.
    #[doc(hidden)]
    pub fn set_int_lie_queue_depth(&mut self, lie: bool) {
        self.int_lie_queue_depth = lie;
    }

    /// Append one INT stamp to a sampled packet's bounded header region.
    /// `ctx` must be the same value handed to the journey tracer for this
    /// hop — the honesty conformance check compares the two byte for byte.
    fn int_stamp(
        &mut self,
        pkt: &mut Packet,
        site: Site,
        enter: SimTime,
        exit: SimTime,
        ctx: HopCtx,
    ) {
        if !self.int.samples(pkt.meta.id) {
            return;
        }
        let ctx = if self.int_lie_queue_depth {
            HopCtx {
                queue_depth: ctx.queue_depth.map(|d| d + 1),
                ..ctx
            }
        } else {
            ctx
        };
        let stack = pkt
            .meta
            .int
            .get_or_insert_with(|| Box::new(IntStack::with_typical_capacity()));
        let stamp = IntStamp {
            device: self.cfg.device,
            site,
            enter,
            exit,
            ctx,
        };
        if stack.push(stamp) {
            self.int_stamps += 1;
        } else {
            self.int_truncated += 1;
        }
    }

    /// Match-table (lookups, hits) summed over every pipe's tables — the
    /// per-table stats are the source of truth for both totals.
    fn mat_totals(&self) -> (u64, u64) {
        self.ingress
            .iter()
            .map(|p| &p.state.stats)
            .chain(self.central.iter().map(|p| &p.state.stats))
            .chain(self.egress.iter().map(|p| &p.state.stats))
            .fold((0, 0), |(l, h), s| (l + s.lookups, h + s.hits))
    }

    /// Copy the per-table lookup/hit totals into [`AdcpCounters`] so a
    /// counters snapshot taken after any run is complete. Totals are
    /// monotone, so re-assigning on every call is idempotent.
    fn refresh_mat_counters(&mut self) {
        (self.counters.mat_lookups, self.counters.mat_hits) = self.mat_totals();
    }

    /// Drain delivered packets.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Drain delivered packets in delivery order without handing over the
    /// buffer: the switch keeps its capacity, so a caller that drains after
    /// every run (a fabric's link exchange) allocates nothing here.
    pub fn drain_delivered(&mut self) -> std::vec::Drain<'_, Delivered> {
        self.delivered.drain(..)
    }

    /// Time of the switch's next pending event, if any. A fabric's driving
    /// loop derives each lookahead window from the minimum of these over
    /// its member switches (see the `adcp-fabric` crate).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Packets currently inside the switch.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Panic unless every packet is accounted for. Call at idle.
    pub fn check_conservation(&self) {
        let c = &self.counters;
        assert_eq!(
            c.injected + c.mcast_copies,
            c.delivered + c.total_drops() + self.in_flight,
            "conservation violated: {c:?} in_flight={}",
            self.in_flight
        );
    }

    /// High-water mark across both TM buffers, in cells.
    pub fn tm_buffer_hwm(&self) -> u64 {
        self.pool1.hwm_cells.max(self.pool2.hwm_cells)
    }

    /// Utilization of one ingress pipeline.
    pub fn ingress_utilization(&self, pipe: usize, now: SimTime) -> f64 {
        let total = now.as_ps() / self.period.as_ps().max(1);
        if total == 0 {
            0.0
        } else {
            self.ingress[pipe].busy_cycles as f64 / total as f64
        }
    }

    /// Busy cycles of one ingress pipeline (demux spread checks).
    pub fn ingress_busy_cycles(&self, pipe: usize) -> u64 {
        self.ingress[pipe].busy_cycles
    }

    /// Busy cycles of one central pipeline (partition balance checks).
    pub fn central_busy_cycles(&self, cpipe: usize) -> u64 {
        self.central[cpipe].busy_cycles
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Inject { port, pkt } => self.on_inject(now, port, pkt),
            Ev::IngressEnter { pipe, pkt } => self.on_ingress_enter(now, pipe as usize, pkt),
            Ev::IngressOut { pipe, pkt } => self.on_ingress_out(now, pipe as usize, pkt),
            Ev::PullCentral { cpipe } => self.on_pull_central(now, cpipe as usize),
            Ev::CentralOut { cpipe, pkt } => self.on_central_out(now, cpipe as usize, pkt),
            Ev::PullEgress { epipe } => self.on_pull_egress(now, epipe as usize),
            Ev::EgressOut { epipe, pkt } => self.on_egress_out(now, epipe as usize, pkt),
            Ev::MigrateCommit => self.on_migrate_commit(now),
        }
    }

    fn on_inject(&mut self, now: SimTime, port: u16, mut pkt: Packet) {
        if !pkt.fcs_ok() {
            // Corrupted on the wire: discard at the MAC, before the packet
            // can reach a parser, table, or register.
            self.counters.fcs_drops += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Rx(PortId(port)),
                DropReason::FcsBad,
                HopCtx::NONE,
            );
            return;
        }
        let done = self.rx[port as usize].receive(&mut pkt, now);
        if self.tracer.hops_on() {
            self.tracer
                .record_hop(pkt.meta.id, Site::Rx(PortId(port)), now, done, HopCtx::NONE);
        }
        self.int_stamp(&mut pkt, Site::Rx(PortId(port)), now, done, HopCtx::NONE);
        // 1:m demultiplex (§3.3).
        let m = self.target.demux_factor as usize;
        let lane = match self.cfg.demux {
            DemuxPolicy::RoundRobin => {
                let l = self.demux_rr[port as usize] as usize % m;
                self.demux_rr[port as usize] = self.demux_rr[port as usize].wrapping_add(1);
                l
            }
            DemuxPolicy::FlowHash => (adcp_lang::fold_hash([pkt.meta.flow.0]) % m as u64) as usize,
        };
        let pipe = port as usize * m + lane;
        self.events.push(
            done,
            Ev::IngressEnter {
                pipe: pipe as u32,
                pkt,
            },
        );
    }

    /// Parse, run ingress region, occupy a slot, deparse.
    fn on_ingress_enter(&mut self, now: SimTime, pipe: usize, pkt: Packet) {
        let Some((mut phv, out_extracted, consumed, depth)) =
            self.parse(now, &pkt, Site::IngressPipe(pipe))
        else {
            return;
        };
        phv.intr.ingress_port = pkt.meta.ingress_port;
        let parse_done = now + Duration(depth as u64 * self.period.as_ps());
        let p = &mut self.ingress[pipe];
        let entry = parse_done.max(p.next_slot);
        p.next_slot = entry + self.period;
        p.busy_cycles += 1;
        p.state
            .run_with_tables(&self.ing_tables, &self.program, &self.layout, &mut phv);
        self.counters.deparse_allocs += 1;
        let mut pkt = self.writeback(pkt, phv, out_extracted, consumed);
        let stages = self.placement.ingress.depth().max(1) as u64;
        let exit = entry + Duration(stages * self.period.as_ps());
        if self.tracer.hops_on() {
            self.tracer.record_hop(
                pkt.meta.id,
                Site::IngressPipe(pipe),
                entry,
                exit,
                HopCtx::NONE,
            );
        }
        self.int_stamp(&mut pkt, Site::IngressPipe(pipe), entry, exit, HopCtx::NONE);
        self.events.push(
            exit,
            Ev::IngressOut {
                pipe: pipe as u32,
                pkt,
            },
        );
    }

    /// TM1: application-defined partitioning into central pipelines.
    fn on_ingress_out(&mut self, now: SimTime, pipe: usize, pkt: Packet) {
        // Stage span: RX handoff -> ingress pipeline exit (parse included).
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.ingress_span, pkt.meta.arrived, now);
        }
        if pkt.meta.egress == EgressSpec::Drop {
            self.counters.filtered += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm1,
                DropReason::Filtered,
                HopCtx::NONE,
            );
            return;
        }
        self.tm1_route(now, pipe, pkt);
    }

    /// Route one packet through TM1 into a central queue. Split out of
    /// [`AdcpSwitch::on_ingress_out`] because migrations re-enter it when
    /// held packets are released.
    fn tm1_route(&mut self, now: SimTime, pipe: usize, mut pkt: Packet) {
        // Partition criterion: the program's `SetCentralPipe` value
        // (pre-modulo) is the logical partition key, else the flow hash.
        // This is the "reshuffle by ranges or hashes" role of the first TM.
        let key = pkt
            .meta
            .central_pipe
            .map(u64::from)
            .unwrap_or_else(|| adcp_lang::fold_hash([pkt.meta.flow.0]));
        let cpipe = if self.part.is_none() {
            (key % self.central.len() as u64) as usize
        } else {
            // Epoch-versioned map routing. Decide first with a shared
            // borrow, then apply (holds and first-touch copies need
            // `&mut self`).
            let (bucket, hold, first_touch, owner, epoch) = {
                let rt = self.part.as_ref().expect("checked");
                let bucket = rt.map.bucket_of(key);
                let (hold, first_touch) = match &rt.mig {
                    None => (false, false),
                    Some(mig) => match mig.strategy {
                        // Drain: the moving shard is unavailable until
                        // commit.
                        MigrationStrategy::Drain => {
                            (mig.fence_prev.binary_search(&bucket).is_ok(), false)
                        }
                        // Incremental: unavailable only while old-epoch
                        // packets could still update moving cells; after
                        // that, first touch copies the bucket.
                        MigrationStrategy::Incremental => {
                            let dirty = mig.dirty.binary_search(&bucket).is_ok();
                            (mig.fence_left > 0 && dirty, mig.fence_left == 0 && dirty)
                        }
                    },
                };
                (
                    bucket,
                    hold,
                    first_touch,
                    rt.map.owner_of_bucket(bucket) as usize,
                    rt.map.epoch,
                )
            };
            if hold {
                self.mig_stats.held_pkts += 1;
                let rt = self.part.as_mut().expect("checked");
                let mig = rt.mig.as_mut().expect("hold implies migration");
                mig.held.push((pipe, pkt));
                return;
            }
            if first_touch {
                self.first_touch_copy(now, bucket);
            }
            let rt = self.part.as_mut().expect("checked");
            rt.bucket_pkts[bucket as usize] += 1;
            rt.inflight[bucket as usize] += 1;
            pkt.meta.part_bucket = Some(bucket);
            pkt.meta.map_epoch = Some(epoch);
            owner
        };
        if !self.central[cpipe].queues.queue(pipe).has_room(&pkt) {
            self.counters.tm1_queue_drops += 1;
            self.account_tm1_unenqueue(&pkt);
            let ctx = HopCtx {
                queue_depth: Some(self.central[cpipe].queues.len() as u32),
                buffer_cells: Some(self.pool1.used()),
                epoch: pkt.meta.map_epoch,
            };
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm1,
                DropReason::QueueTail {
                    tm: 1,
                    queue: cpipe as u32,
                },
                ctx,
            );
            return;
        }
        if !self.pool1.try_alloc(&mut pkt) {
            self.counters.tm1_drops += 1;
            self.account_tm1_unenqueue(&pkt);
            let ctx = HopCtx {
                queue_depth: Some(self.central[cpipe].queues.len() as u32),
                buffer_cells: Some(self.pool1.used()),
                epoch: pkt.meta.map_epoch,
            };
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm1,
                DropReason::BufferExhausted { tm: 1 },
                ctx,
            );
            return;
        }
        pkt.meta.tm_enqueued = now;
        // Enqueue-time context, carried in the metadata so the journey
        // tracer can attach it to the TM1-residency hop at dequeue.
        // `ScheduledQueues::len` walks every queue, so only pay for it when
        // a knob will consume the value.
        if self.tracer.hops_on() || self.int.samples(pkt.meta.id) {
            pkt.meta.tm_q_depth = Some(self.central[cpipe].queues.len() as u32 + 1);
            pkt.meta.tm_buf_used = Some(self.pool1.used());
        }
        let ok = self.central[cpipe].queues.enqueue(pipe, pkt).is_ok();
        debug_assert!(ok);
        if self.metrics.enabled() {
            let depth = self.central[cpipe].queues.len() as u64;
            self.metrics.sample(self.mh.tm1_queue_depth, now, depth);
            self.metrics
                .sample(self.mh.tm1_buffer, now, self.pool1.used());
            self.metrics
                .set_gauge(self.mh.tm1_buffer_gauge, self.pool1.used());
        }
        self.schedule_pull_central(now, cpipe);
    }

    /// Undo the in-flight stamp of a packet that was counted for a bucket
    /// but then dropped at TM1 admission (queue/buffer exhaustion).
    fn account_tm1_unenqueue(&mut self, pkt: &Packet) {
        let Some(rt) = &mut self.part else { return };
        if let (Some(b), Some(e)) = (pkt.meta.part_bucket, pkt.meta.map_epoch) {
            if e == rt.map.epoch {
                rt.inflight[b as usize] -= 1;
            }
        }
    }

    /// Incremental copy-on-first-touch: remove `bucket` from the redirect
    /// table, move its cells, and charge the copy window to the new
    /// owner's pipe schedule (the triggering packet, and anything behind
    /// it, waits out the copy in-queue — per-key order is preserved).
    fn first_touch_copy(&mut self, now: SimTime, bucket: u32) {
        let Some(rt) = &mut self.part else { return };
        let Some(mig) = &mut rt.mig else { return };
        let Ok(i) = mig.dirty.binary_search(&bucket) else {
            return;
        };
        mig.dirty.remove(i);
        let map = &rt.map;
        let mut moves = Vec::new();
        mig.moving_cells.retain(|&(r, c, from, to)| {
            if map.bucket_of(c as u64) == bucket {
                moves.push((r, c, from, to));
                false
            } else {
                true
            }
        });
        let owner = map.owner_of_bucket(bucket) as usize;
        self.mig_stats.redirected_pkts += 1;
        self.mig_stats.moved_keys += moves.len() as u64;
        self.apply_moves(&moves);
        let cost = self.copy_cost(moves.len());
        self.central[owner].next_slot = self.central[owner].next_slot.max(now) + cost;
    }

    /// Drain-strategy commit: fence drained and copy window elapsed — move
    /// all cells, install the next map (epoch + 1), release held packets.
    fn on_migrate_commit(&mut self, now: SimTime) {
        let Some(rt) = &mut self.part else { return };
        let Some(mut mig) = rt.mig.take() else { return };
        debug_assert_eq!(mig.strategy, MigrationStrategy::Drain);
        debug_assert_eq!(mig.fence_left, 0);
        let next = mig.next_pending.take().expect("drain holds the next map");
        let b = next.num_buckets() as usize;
        // Everything still queued was stamped under the previous epoch.
        rt.inflight_old += rt.inflight.iter().sum::<u64>();
        rt.inflight = vec![0; b];
        rt.bucket_pkts = vec![0; b];
        rt.map = next;
        let moves = std::mem::take(&mut mig.moving_cells);
        self.apply_moves(&moves);
        self.mig_stats.moved_keys += moves.len() as u64;
        self.mig_stats.migrations += 1;
        self.mig_stats.paused_ns += now.saturating_since(mig.begun).as_ps() / 1000;
        let epoch = self.partition_epoch();
        self.tracer.record_ctrl(
            now,
            CtrlEvent::MigrationCommit {
                epoch,
                moved_keys: moves.len() as u64,
            },
        );
        self.tracer.record_ctrl(now, CtrlEvent::EpochBump { epoch });
        // Release inline, in arrival order, before any later event can
        // route — preserves per-key FIFO through the pause.
        for (pipe, pkt) in mig.held {
            self.tm1_route(now, pipe, pkt);
        }
    }

    /// Partition accounting at the moment a central pipe dequeues a packet
    /// (the packet's register updates happen in this same event, so "the
    /// old owner has applied it" and "dequeued" coincide). Decrements the
    /// in-flight fence, checks the epoch-consistent owner, and — for
    /// incremental migrations — ends the hold window when the fence
    /// drains.
    fn account_central_dequeue(&mut self, now: SimTime, cpipe: usize, pkt: &Packet) {
        let period_ps = self.period.as_ps();
        let Some(rt) = &mut self.part else { return };
        let (Some(bucket), Some(epoch)) = (pkt.meta.part_bucket, pkt.meta.map_epoch) else {
            return;
        };
        let mut commit_at = None;
        if epoch == rt.map.epoch {
            rt.inflight[bucket as usize] -= 1;
            if rt.map.owner_of_bucket(bucket) as usize != cpipe {
                self.mig_stats.misroutes += 1;
            }
            if let Some(mig) = &mut rt.mig {
                if mig.strategy == MigrationStrategy::Drain
                    && mig.fence_left > 0
                    && mig.fence_prev.binary_search(&bucket).is_ok()
                {
                    mig.fence_left -= 1;
                    if mig.fence_left == 0 {
                        let cost =
                            Duration(mig.moving_cells.len() as u64 * CELL_COPY_CYCLES * period_ps);
                        commit_at = Some(now + cost);
                    }
                }
            }
        } else {
            rt.inflight_old -= 1;
            if let Some(mig) = &mut rt.mig {
                // Old-epoch packet during an incremental migration: the
                // previous map decodes its stamp.
                if mig.prev.owner_of_bucket(bucket) as usize != cpipe {
                    self.mig_stats.misroutes += 1;
                }
                if mig.fence_left > 0 && mig.fence_prev.binary_search(&bucket).is_ok() {
                    mig.fence_left -= 1;
                    if mig.fence_left == 0 {
                        // Fence drained: the hold window ends with this
                        // packet — but its register updates are still
                        // pending in this event, so the actual release
                        // (and any first-touch copy it triggers) waits
                        // for the end of `on_pull_central`.
                        if let Some(start) = mig.pause_started.take() {
                            self.mig_stats.paused_ns += now.saturating_since(start).as_ps() / 1000;
                        }
                        mig.release_at_exec = true;
                    }
                }
            }
            // With no migration active the previous map is gone; stragglers
            // of non-moving buckets route to the same owner under either
            // map, so there is nothing left to check.
        }
        if let Some(at) = commit_at {
            self.events.push(at, Ev::MigrateCommit);
        }
    }

    /// Release packets held for an incremental migration whose fence
    /// drained at the current pull's dequeue. Runs from
    /// [`AdcpSwitch::on_pull_central`] — after the draining packet's
    /// register updates have landed, before any later event can route —
    /// so first-touch copies see complete state and per-key FIFO holds.
    fn release_held_if_drained(&mut self, now: SimTime) {
        let held = match self.part.as_mut().and_then(|rt| rt.mig.as_mut()) {
            Some(mig) if mig.release_at_exec => {
                mig.release_at_exec = false;
                std::mem::take(&mut mig.held)
            }
            _ => return,
        };
        for (pipe, pkt) in held {
            self.tm1_route(now, pipe, pkt);
        }
    }

    fn schedule_pull_central(&mut self, now: SimTime, cpipe: usize) {
        if !self.central[cpipe].pull_scheduled {
            self.central[cpipe].pull_scheduled = true;
            let at = now.max(self.central[cpipe].next_slot);
            self.events.push(
                at,
                Ev::PullCentral {
                    cpipe: cpipe as u32,
                },
            );
        }
    }

    /// One central pull: dequeue the TM1 head, account the partition
    /// fence, parse and run the central MAU region, then deparse and hand
    /// the packet to TM2.
    fn on_pull_central(&mut self, now: SimTime, cpipe: usize) {
        self.central[cpipe].pull_scheduled = false;
        if now < self.central[cpipe].next_slot {
            let at = self.central[cpipe].next_slot;
            self.schedule_pull_central(at, cpipe);
            return;
        }
        // Exact-merge gating (§3.1): under MergeOrder, wait (bounded) for
        // every un-ended input queue to have a head before departing the
        // global minimum. Streams signal completion via mark_ended or by
        // ending with a max-key record.
        if self.program.tm1.policy == adcp_sim::sched::Policy::MergeOrder
            && !self.central[cpipe].queues.is_empty()
            && !self.central[cpipe].queues.merge_ready()
        {
            let since = *self.central[cpipe].merge_wait_since.get_or_insert(now);
            if now.saturating_since(since) < self.cfg.merge_patience {
                self.schedule_pull_central(now + self.period, cpipe);
                return;
            }
            // Patience exhausted: fall through to the streaming
            // approximation so the switch can never deadlock.
        }
        self.central[cpipe].merge_wait_since = None;
        let Some((_, mut pkt)) = self.central[cpipe].queues.dequeue() else {
            return;
        };
        self.pool1.release(&mut pkt);
        // Fence/epoch accounting must happen exactly when the old owner
        // consumes the packet (its register updates land in this event).
        self.account_central_dequeue(now, cpipe, &pkt);
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.tm1_residency, pkt.meta.tm_enqueued, now);
            self.metrics
                .sample(self.mh.tm1_buffer, now, self.pool1.used());
        }
        // TM1-residency hop: enqueue -> dequeue, with the queue/buffer
        // state observed at enqueue and the routing epoch. The context is
        // computed once and handed to both the tracer and the INT stamp —
        // the honesty check requires the two views to agree exactly.
        if self.tracer.hops_on() || self.int.on() {
            let enq = pkt.meta.tm_enqueued;
            let ctx = HopCtx {
                queue_depth: pkt.meta.tm_q_depth.take(),
                buffer_cells: pkt.meta.tm_buf_used.take(),
                epoch: pkt.meta.map_epoch,
            };
            if self.tracer.hops_on() {
                self.tracer
                    .record_hop(pkt.meta.id, Site::Tm1, enq, now, ctx);
            }
            self.int_stamp(&mut pkt, Site::Tm1, enq, now, ctx);
        }
        pkt.meta.tm_enqueued = now; // central-stage entry, for its span
        let Some((mut phv, extracted, consumed, _)) =
            self.parse(now, &pkt, Site::CentralPipe(cpipe))
        else {
            // No register update to wait for.
            self.release_held_if_drained(now);
            return;
        };
        phv.intr.ingress_port = pkt.meta.ingress_port;
        // Move (not clone) the forwarding decision into the PHV; writeback
        // moves it back.
        phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        let pipe = &mut self.central[cpipe];
        let entry = now.max(pipe.next_slot);
        pipe.next_slot = entry + self.period;
        pipe.busy_cycles += 1;
        pipe.state.run(&self.program, &self.layout, &mut phv);
        // The pull's register updates are in: safe to release packets held
        // behind the in-flight fence this pull drained.
        self.release_held_if_drained(now);
        self.counters.deparse_allocs += 1;
        let epoch = pkt.meta.map_epoch;
        let mut pkt = self.writeback(pkt, phv, extracted, consumed);
        let stages = self.placement.central.depth().max(1) as u64;
        let exit = entry + Duration(stages * self.period.as_ps());
        let ctx = HopCtx {
            epoch,
            ..HopCtx::NONE
        };
        if self.tracer.hops_on() {
            self.tracer
                .record_hop(pkt.meta.id, Site::CentralPipe(cpipe), entry, exit, ctx);
        }
        self.int_stamp(&mut pkt, Site::CentralPipe(cpipe), entry, exit, ctx);
        self.events.push(
            exit,
            Ev::CentralOut {
                cpipe: cpipe as u32,
                pkt,
            },
        );
        if !self.central[cpipe].queues.is_empty() {
            let next = self.central[cpipe].next_slot;
            self.schedule_pull_central(next, cpipe);
        }
    }

    /// TM2: classic scheduler; any egress port reachable, multicast native.
    fn on_central_out(&mut self, now: SimTime, _cpipe: usize, mut pkt: Packet) {
        // Stage span: central pipeline entry -> exit.
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.central_span, pkt.meta.tm_enqueued, now);
        }
        // Move the decision out rather than cloning it (a Multicast spec
        // owns a port list).
        match std::mem::take(&mut pkt.meta.egress) {
            EgressSpec::Unset | EgressSpec::Recirculate => {
                self.counters.no_decision += 1;
                self.drop_packet(
                    now,
                    pkt.meta.id,
                    Site::Tm2,
                    DropReason::NoDecision,
                    HopCtx::NONE,
                );
            }
            EgressSpec::Drop => {
                self.counters.filtered += 1;
                self.drop_packet(
                    now,
                    pkt.meta.id,
                    Site::Tm2,
                    DropReason::Filtered,
                    HopCtx::NONE,
                );
            }
            EgressSpec::Unicast(p) => {
                pkt.meta.egress = EgressSpec::Unicast(p);
                self.tm2_admit_one(now, p, pkt);
            }
            EgressSpec::Multicast(ports) => {
                if ports.is_empty() {
                    self.counters.no_decision += 1;
                    self.drop_packet(
                        now,
                        pkt.meta.id,
                        Site::Tm2,
                        DropReason::NoDecision,
                        HopCtx::NONE,
                    );
                    return;
                }
                self.counters.mcast_copies += ports.len() as u64 - 1;
                self.in_flight += ports.len() as u64 - 1;
                // Share the frame bytes once, then each copy bumps the
                // payload refcount instead of copying the buffer.
                pkt.data.make_shared();
                for p in ports {
                    let mut copy = pkt.clone();
                    copy.meta.egress = EgressSpec::Unicast(p);
                    self.tm2_admit_one(now, p, copy);
                }
            }
        }
    }

    fn tm2_admit_one(&mut self, now: SimTime, port: PortId, mut pkt: Packet) {
        if port.0 as usize >= self.tx.len() {
            self.counters.bad_port += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm2,
                DropReason::BadPort,
                HopCtx::NONE,
            );
            return;
        }
        // The m:1 mux at TX must preserve ordering (§3.3's symmetry with
        // the RX demux). Per-flow traffic stays ordered by pinning each
        // flow to one of the port's m egress pipelines; a stream that TM1
        // merge-ordered (it carries a sort key) is ordered *across* flows,
        // so the whole coflow shares one lane.
        let m = self.target.demux_factor as usize;
        let lane_key = if pkt.meta.sort_key.is_some() {
            pkt.meta.coflow.map(|c| c.0 as u64).unwrap_or(0)
        } else {
            pkt.meta.flow.0
        };
        let lane = (adcp_lang::fold_hash([lane_key]) % m as u64) as usize;
        let epipe = port.0 as usize * m + lane;
        if !self.egress[epipe].queues.queue(0).has_room(&pkt) {
            self.counters.tm2_queue_drops += 1;
            let ctx = HopCtx {
                queue_depth: Some(self.egress[epipe].queues.len() as u32),
                buffer_cells: Some(self.pool2.used()),
                epoch: pkt.meta.map_epoch,
            };
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm2,
                DropReason::QueueTail {
                    tm: 2,
                    queue: epipe as u32,
                },
                ctx,
            );
            return;
        }
        if !self.pool2.try_alloc(&mut pkt) {
            self.counters.tm2_drops += 1;
            let ctx = HopCtx {
                queue_depth: Some(self.egress[epipe].queues.len() as u32),
                buffer_cells: Some(self.pool2.used()),
                epoch: pkt.meta.map_epoch,
            };
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm2,
                DropReason::BufferExhausted { tm: 2 },
                ctx,
            );
            return;
        }
        pkt.meta.tm_enqueued = now;
        if self.tracer.hops_on() || self.int.samples(pkt.meta.id) {
            pkt.meta.tm_q_depth = Some(self.egress[epipe].queues.len() as u32 + 1);
            pkt.meta.tm_buf_used = Some(self.pool2.used());
        }
        let ok = self.egress[epipe].queues.enqueue(0, pkt).is_ok();
        debug_assert!(ok);
        if self.metrics.enabled() {
            let depth = self.egress[epipe].queues.len() as u64;
            self.metrics.sample(self.mh.tm2_queue_depth, now, depth);
            self.metrics
                .sample(self.mh.tm2_buffer, now, self.pool2.used());
            self.metrics
                .set_gauge(self.mh.tm2_buffer_gauge, self.pool2.used());
        }
        self.schedule_pull_egress(now, epipe);
    }

    fn schedule_pull_egress(&mut self, now: SimTime, epipe: usize) {
        if !self.egress[epipe].pull_scheduled {
            self.egress[epipe].pull_scheduled = true;
            let at = now.max(self.egress[epipe].next_slot);
            self.events.push(
                at,
                Ev::PullEgress {
                    epipe: epipe as u32,
                },
            );
        }
    }

    fn on_pull_egress(&mut self, now: SimTime, epipe: usize) {
        self.egress[epipe].pull_scheduled = false;
        if now < self.egress[epipe].next_slot {
            let at = self.egress[epipe].next_slot;
            self.schedule_pull_egress(at, epipe);
            return;
        }
        // Busy links backpressure into TM2: the pipe only pulls when its
        // port will be able to accept the packet by the time it has
        // traversed the egress stages (pipeline/serialization overlap).
        let port = epipe / self.target.demux_factor as usize;
        let flight = Duration(self.placement.egress.depth().max(1) as u64 * self.period.as_ps());
        if !self.egress[epipe].queues.is_empty() && self.tx[port].ready_at() > now + flight {
            self.egress[epipe].pull_scheduled = true;
            self.events.push(
                SimTime(self.tx[port].ready_at().as_ps() - flight.as_ps()),
                Ev::PullEgress {
                    epipe: epipe as u32,
                },
            );
            return;
        }
        let Some((_, mut pkt)) = self.egress[epipe].queues.dequeue() else {
            return;
        };
        self.pool2.release(&mut pkt);
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.tm2_residency, pkt.meta.tm_enqueued, now);
            self.metrics
                .sample(self.mh.tm2_buffer, now, self.pool2.used());
        }
        // TM2-residency hop with enqueue-time queue/buffer context (one
        // computation, shared by the tracer and the INT stamp).
        if self.tracer.hops_on() || self.int.on() {
            let enq = pkt.meta.tm_enqueued;
            let ctx = HopCtx {
                queue_depth: pkt.meta.tm_q_depth.take(),
                buffer_cells: pkt.meta.tm_buf_used.take(),
                epoch: pkt.meta.map_epoch,
            };
            if self.tracer.hops_on() {
                self.tracer
                    .record_hop(pkt.meta.id, Site::Tm2, enq, now, ctx);
            }
            self.int_stamp(&mut pkt, Site::Tm2, enq, now, ctx);
        }
        pkt.meta.tm_enqueued = now; // egress-stage entry, for its span
        let Some((mut phv, extracted, consumed, _)) =
            self.parse(now, &pkt, Site::EgressPipe(epipe))
        else {
            return;
        };
        phv.intr.ingress_port = pkt.meta.ingress_port;
        phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        let p = &mut self.egress[epipe];
        let entry = now.max(p.next_slot);
        p.next_slot = entry + self.period;
        p.busy_cycles += 1;
        p.state
            .run_with_tables(&self.eg_tables, &self.program, &self.layout, &mut phv);
        self.counters.deparse_allocs += 1;
        let mut pkt = self.writeback(pkt, phv, extracted, consumed);
        let stages = self.placement.egress.depth().max(1) as u64;
        let exit = entry + Duration(stages * self.period.as_ps());
        if self.tracer.hops_on() {
            self.tracer.record_hop(
                pkt.meta.id,
                Site::EgressPipe(epipe),
                entry,
                exit,
                HopCtx::NONE,
            );
        }
        self.int_stamp(&mut pkt, Site::EgressPipe(epipe), entry, exit, HopCtx::NONE);
        self.events.push(
            exit,
            Ev::EgressOut {
                epipe: epipe as u32,
                pkt,
            },
        );
        if !self.egress[epipe].queues.is_empty() {
            let next = self.egress[epipe].next_slot;
            self.schedule_pull_egress(next, epipe);
        }
    }

    fn on_egress_out(&mut self, now: SimTime, epipe: usize, mut pkt: Packet) {
        if pkt.meta.egress == EgressSpec::Drop {
            self.counters.filtered += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::EgressPipe(epipe),
                DropReason::Filtered,
                HopCtx::NONE,
            );
            return;
        }
        let EgressSpec::Unicast(port) = pkt.meta.egress else {
            self.counters.no_decision += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::EgressPipe(epipe),
                DropReason::NoDecision,
                HopCtx::NONE,
            );
            return;
        };
        // Stage span: egress pipeline entry -> exit.
        let done = self.tx[port.0 as usize].transmit(&pkt, now);
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.egress_span, pkt.meta.tm_enqueued, now);
            self.metrics
                .record_span(self.mh.tx_latency, pkt.meta.created, done);
        }
        if self.tracer.hops_on() {
            self.tracer
                .record_hop(pkt.meta.id, Site::Tx(port), now, done, HopCtx::NONE);
        }
        self.int_stamp(&mut pkt, Site::Tx(port), now, done, HopCtx::NONE);
        if self.int.samples(pkt.meta.id) {
            // Sink export: fold the completed stack into the per-flow
            // aggregation cell and emit a postcard for the collector. The
            // stack stays on the packet — in a fabric it rides the frame
            // to the next device, which keeps appending (INT-XD style:
            // every device postcards, the last carries the full chain).
            // The sink FIFO is bounded: an undrained collector sheds
            // postcards (counted), and the shed path skips the stack
            // clone entirely so a full FIFO costs no allocation.
            const EMPTY: &IntStack = &IntStack {
                stamps: Vec::new(),
                truncated: 0,
            };
            let stack = pkt.meta.int.as_deref().unwrap_or(EMPTY);
            self.int_flows.fold(pkt.meta.flow.0, stack);
            if self.postcards.len() < POSTCARDS_CAP {
                self.postcards.push(Postcard {
                    device: self.cfg.device,
                    pkt: pkt.meta.id,
                    flow: pkt.meta.flow.0,
                    port: port.0,
                    time: done,
                    stack: stack.clone(),
                });
                self.int_postcards += 1;
            } else {
                self.int_postcards_dropped += 1;
            }
        }
        self.counters.delivered += 1;
        self.in_flight -= 1;
        self.out_meter
            .record(pkt.wire_bytes(), pkt.meta.goodput_bytes, pkt.meta.elements);
        self.latency.record(done.saturating_since(pkt.meta.created));
        self.last_delivery = self.last_delivery.max(done);
        if pkt.meta.fcs.is_some() {
            // Deparse writebacks changed the bytes on purpose; re-stamp the
            // frame check like a NIC recomputing the CRC on transmit.
            pkt.reseal();
        }
        pkt.meta.tm_enqueued = now; // TX-stage entry: `Delivered::egress_exit`
        self.delivered.push(Delivered {
            port,
            time: done,
            data: pkt.data,
            meta: pkt.meta,
        });
    }

    /// Parse a packet, accounting failures (attributed to the pipeline
    /// `site` whose parser rejected it). Returns the PHV, extraction
    /// order, header byte count, and parse depth.
    fn parse(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        site: Site,
    ) -> Option<(Phv, Vec<adcp_lang::HeaderId>, usize, u32)> {
        let (sphv, sext) = self
            .scratch
            .take()
            .unwrap_or_else(|| (Phv::empty(), Vec::new()));
        match self.program.parser.parse_reusing(
            &self.program.headers,
            &self.layout,
            &pkt.data,
            sphv,
            sext,
        ) {
            Ok(o) => {
                if self.metrics.enabled() {
                    self.metrics.record(
                        self.mh.parse_span,
                        Duration(o.depth as u64 * self.period.as_ps()),
                    );
                }
                Some((o.phv, o.extracted, o.consumed, o.depth))
            }
            Err(_) => {
                self.counters.parse_errors += 1;
                self.drop_packet(now, pkt.meta.id, site, DropReason::ParseError, HopCtx::NONE);
                None
            }
        }
    }

    /// Deparse the PHV into the packet and move intrinsics into metadata.
    /// The rebuilt frame goes into a buffer recycled through the arena; the
    /// packet's previous buffer (when exclusively owned) returns to it.
    fn writeback(
        &mut self,
        mut pkt: Packet,
        mut phv: Phv,
        extracted: Vec<adcp_lang::HeaderId>,
        consumed: usize,
    ) -> Packet {
        let mut buf = self.store.take();
        let payload = &pkt.data[consumed.min(pkt.data.len())..];
        deparse_into(
            &mut buf,
            &self.program.headers,
            &self.layout,
            &phv,
            &extracted,
            payload,
        );
        let old = std::mem::replace(&mut pkt.data, FrameBuf::Owned(buf));
        if let FrameBuf::Owned(v) = old {
            self.store.recycle(v);
        }
        pkt.meta.egress = std::mem::take(&mut phv.intr.egress);
        pkt.meta.central_pipe = phv.intr.central_pipe.or(pkt.meta.central_pipe);
        if let Some(k) = phv.intr.sort_key {
            pkt.meta.sort_key = Some(k);
        }
        pkt.meta.elements = pkt.meta.elements.max(phv.intr.elements);
        self.scratch = Some((phv, extracted));
        pkt
    }

    /// Account one dropped packet: decrement in-flight and hand the typed
    /// reason (plus queue state at the moment of death) to the journey
    /// tracer's forensics. Every ad-hoc drop counter increment is paired
    /// 1:1 with a call here carrying the matching reason — that pairing is
    /// what the forensics↔counter cross-check asserts.
    fn drop_packet(&mut self, now: SimTime, id: u64, site: Site, reason: DropReason, ctx: HopCtx) {
        self.in_flight -= 1;
        self.tracer.record_drop(now, id, site, reason, ctx);
    }
}
