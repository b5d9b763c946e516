//! The event-driven RMT switch model (the paper's Figure 1).
//!
//! Packet life cycle:
//!
//! ```text
//! inject -> RX port (serialization) -> parser -> ingress pipeline
//!        -> [recirculation loop?] -> traffic manager (shared buffer)
//!        -> egress pipeline -> TX port -> delivered
//! ```
//!
//! The architectural constraints the paper criticizes are *enforced*, not
//! merely documented:
//!
//! * ports are statically multiplexed `ports_per_pipe` to an ingress
//!   pipeline — coflows arriving on different pipelines cannot meet in
//!   ingress state (Fig. 2);
//! * every pipeline retires at most one PHV per clock cycle (line rate);
//! * pipeline state is shared-nothing — each pipeline has its own
//!   [`RegionState`];
//! * a packet reaches egress state only in the pipeline that owns its
//!   TX port (egress pinning);
//! * the only way to reshuffle flows is recirculation, which consumes an
//!   ingress slot per extra pass (the bandwidth tax of §1).

use adcp_lang::phv::Phv;
use adcp_lang::target::TargetModel;
use adcp_lang::PhvLayout;
use adcp_lang::{
    compile, deparse_into, CentralImpl, CompileError, CompileOptions, Entry, Placement, Program,
    RegId, Region, RegionState, RegisterFile, TableError,
};
use adcp_sim::event::EventQueue;
use adcp_sim::int::{IntKnob, IntStack, IntStamp, Postcard, POSTCARDS_CAP};
use adcp_sim::metrics::{CounterId, Fold, GaugeId, HistId, MetricsRegistry, MetricsView, SeriesId};
use adcp_sim::packet::{EgressSpec, FrameBuf, Packet, PacketStore, PortId};
use adcp_sim::port::{RxPort, TxPort};
use adcp_sim::queue::BufferPool;
use adcp_sim::sched::ScheduledQueues;
use adcp_sim::stats::{LatencyHist, Meter};
use adcp_sim::time::{Duration, SimTime};
use adcp_sim::trace::{DropReason, HopCtx, JourneyTracer, Site};
use std::sync::Arc;

/// Retained points per queue-depth/buffer-occupancy time series.
const SERIES_CAP: usize = 512;

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
    recirc_passes: CounterId,
    tm_drops: CounterId,
    tm_queue_drops: CounterId,
    tm_residency: HistId,
    tm_queue_depth: SeriesId,
    tm_buffer: SeriesId,
    tm_buffer_gauge: GaugeId,
    tm_mcast_copies: CounterId,
    egress_span: HistId,
    deparse_allocs: CounterId,
    mat_lookups: CounterId,
    mat_hits: CounterId,
    drops_filtered: CounterId,
    drops_no_decision: CounterId,
    drops_bad_port: CounterId,
    tx_pkts: CounterId,
    tx_latency: HistId,
    int_stamps: CounterId,
    int_postcards: CounterId,
    int_truncated: CounterId,
    int_postcards_dropped: CounterId,
    /// Per-region pipeline occupancy (total busy cycles, busiest pipe),
    /// in ingress/egress order, folded in when the registry is read.
    busy: [(CounterId, GaugeId); 2],
}

fn register_metrics(m: &mut MetricsRegistry) -> MetricHandles {
    let rx = m.scope("rx");
    let mac = m.scope("mac");
    let parser = m.scope("parser");
    let ingress = m.scope("ingress");
    let recirc = m.scope("recirc");
    let tm = m.scope("tm");
    let egress = m.scope("egress");
    let deparser = m.scope("deparser");
    let mat = m.scope("mat");
    let drops = m.scope("drops");
    let tx = m.scope("tx");
    let int = m.scope("int");
    MetricHandles {
        rx_pkts: m.counter(rx, "packets"),
        mac_fcs_drops: m.counter(mac, "fcs_drops"),
        parse_errors: m.counter(parser, "errors"),
        parse_span: m.hist(parser, "span_ps"),
        ingress_span: m.hist(ingress, "span_ps"),
        recirc_passes: m.counter(recirc, "passes"),
        tm_drops: m.counter(tm, "buffer_drops"),
        tm_queue_drops: m.counter(tm, "queue_drops"),
        tm_residency: m.hist(tm, "residency_ps"),
        tm_queue_depth: m.series(tm, "queue_pkts", SERIES_CAP),
        tm_buffer: m.series(tm, "buffer_cells", SERIES_CAP),
        tm_buffer_gauge: m.gauge(tm, "buffer_cells"),
        tm_mcast_copies: m.counter(tm, "mcast_copies"),
        egress_span: m.hist(egress, "span_ps"),
        deparse_allocs: m.counter(deparser, "allocs"),
        mat_lookups: m.counter(mat, "lookups"),
        mat_hits: m.counter(mat, "hits"),
        drops_filtered: m.counter(drops, "filtered"),
        drops_no_decision: m.counter(drops, "no_decision"),
        drops_bad_port: m.counter(drops, "bad_port"),
        tx_pkts: m.counter(tx, "packets"),
        tx_latency: m.hist(tx, "latency_ps"),
        int_stamps: m.counter(int, "stamps"),
        int_postcards: m.counter(int, "postcards"),
        int_truncated: m.counter(int, "stack_truncated"),
        int_postcards_dropped: m.counter(int, "postcards_dropped"),
        busy: [
            (
                m.counter(ingress, "busy_cycles"),
                m.gauge(ingress, "busy_cycles_max_pipe"),
            ),
            (
                m.counter(egress, "busy_cycles"),
                m.gauge(egress, "busy_cycles_max_pipe"),
            ),
        ],
    }
}

/// Tuning knobs for an [`RmtSwitch`].
#[derive(Debug, Clone)]
pub struct RmtConfig {
    /// Shared TM buffer: number of cells.
    pub tm_cells: u64,
    /// Shared TM buffer: bytes per cell.
    pub cell_bytes: u32,
    /// Per-egress-queue depth in packets.
    pub queue_depth: usize,
    /// Loop latency of the recirculation path.
    pub recirc_latency: Duration,
    /// Retain a packet-walk trace (costs memory; used by tests/examples).
    pub trace: bool,
    /// Stamp in-band telemetry ([`adcp_sim::int`]) onto transiting
    /// packets. The `ADCP_INT` environment variable overrides it (`off`
    /// disables, `on` enables at rate 1, a number `N` samples 1-in-`N`).
    pub int: bool,
    /// Device id written into every INT stamp this switch produces.
    pub device: u16,
    /// Per-port speed overrides (port, speed) — models hosts with slower
    /// NICs than the switch's native port rate.
    pub port_speeds: Vec<(u16, adcp_sim::port::LinkSpeed)>,
}

impl Default for RmtConfig {
    fn default() -> Self {
        RmtConfig {
            tm_cells: 65_536,
            cell_bytes: 80,
            queue_depth: 512,
            recirc_latency: Duration::from_ns(400),
            trace: false,
            int: false,
            device: 0,
            port_speeds: Vec::new(),
        }
    }
}

/// Aggregate drop/flow accounting. The conservation invariant is
/// `injected + mcast_copies == delivered + Σ drops + in_flight`; at idle
/// `in_flight` is zero and [`RmtSwitch::check_conservation`] asserts it.
#[derive(Debug, Clone, Default)]
pub struct SwitchCounters {
    /// Packets handed to [`RmtSwitch::inject`].
    pub injected: u64,
    /// Extra packet copies created by multicast replication.
    pub mcast_copies: u64,
    /// Packets delivered out TX ports.
    pub delivered: u64,
    /// Parse failures.
    pub parse_errors: u64,
    /// Sealed frames whose check sequence failed on injection (corrupted
    /// on the wire); discarded before touching any table or register.
    pub fcs_drops: u64,
    /// Dropped by a program `Drop` action.
    pub filtered: u64,
    /// Finished ingress with no forwarding decision.
    pub no_decision: u64,
    /// Forwarding decision named a nonexistent port.
    pub bad_port: u64,
    /// TM shared-buffer exhaustion.
    pub tm_drops: u64,
    /// Per-queue tail drops.
    pub queue_drops: u64,
    /// Total recirculation passes taken.
    pub recirc_passes: u64,
    /// Match-table key lookups executed, all regions and lanes (refreshed
    /// at quiescence from the per-table counters).
    pub mat_lookups: u64,
    /// Match-table lookups that hit an installed entry.
    pub mat_hits: u64,
    /// Frame buffers rebuilt by the deparser — the hot path's remaining
    /// per-pass allocation (delivery and multicast copies share payload
    /// buffers instead of allocating).
    pub deparse_allocs: u64,
}

impl SwitchCounters {
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
            + self.tm_drops
            + self.queue_drops
    }
}

/// A packet that left the switch.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// TX port it left on.
    pub port: PortId,
    /// Time its last bit left.
    pub time: SimTime,
    /// Final frame contents (post-deparse; moved from the in-switch
    /// packet — taking delivery does not copy the payload).
    pub data: FrameBuf,
    /// Final metadata.
    pub meta: adcp_sim::packet::PacketMeta,
}

/// Per-ingress-pipeline state.
struct IngressPipe {
    next_slot: SimTime,
    busy_cycles: u64,
    /// Ingress-region tables (pass 0).
    state: RegionState,
    /// Central-region tables executed on recirculation passes.
    central: RegionState,
}

/// Per-egress-pipeline state.
struct EgressPipe {
    next_slot: SimTime,
    busy_cycles: u64,
    /// Round-robin cursor over the pipe's local ports.
    port_cursor: usize,
    /// Central tables when the compiler egress-pinned them.
    central: RegionState,
    /// Egress-region tables.
    state: RegionState,
    queues: ScheduledQueues,
    pull_scheduled: bool,
}

/// A scheduled event. Pipe indices are `u32` so that the tag and index
/// share one word ahead of the packet: the event queue moves and sorts
/// every event by value, so its size is on the hot path.
enum Ev {
    Inject { port: u16, pkt: Packet },
    IngressEnter { pipe: u32, pkt: Packet, pass: u8 },
    IngressOut { pipe: u32, pkt: Packet, pass: u8 },
    PullEgress { pipe: u32 },
    EgressOut { pipe: u32, pkt: Packet },
}

/// The RMT switch.
pub struct RmtSwitch {
    target: TargetModel,
    /// Shared, immutable after build: pipelines borrow it per event instead
    /// of cloning.
    program: Arc<Program>,
    layout: PhvLayout,
    /// Compilation result the switch was built from.
    pub placement: Placement,
    cfg: RmtConfig,
    rx: Vec<RxPort>,
    tx: Vec<TxPort>,
    ingress: Vec<IngressPipe>,
    egress: Vec<EgressPipe>,
    /// Shared match-table copies, one per region. Tables are installed
    /// identically into every pipeline (`install_all` is the only install
    /// path), so pipes run against a single copy; register state — the
    /// shared-nothing part the paper's Fig. 2 argument depends on — stays
    /// per-pipe in `IngressPipe`/`EgressPipe`.
    ing_tables: RegionState,
    central_tables: RegionState,
    eg_tables: RegionState,
    pool: BufferPool,
    events: EventQueue<Ev>,
    /// Reusable same-timestamp dispatch batch for `run_until_idle`.
    batch: Vec<Ev>,
    /// Recycling arena for deparse frame buffers.
    store: PacketStore,
    /// Recycled PHV + extracted-header scratch for the parse hot path.
    scratch: Option<(Phv, Vec<adcp_lang::HeaderId>)>,
    period: Duration,
    /// Drop/flow accounting.
    pub counters: SwitchCounters,
    /// Throughput/goodput/keys meter over delivered packets.
    pub out_meter: Meter,
    /// End-to-end latency (created -> last bit out).
    pub latency: LatencyHist,
    /// Sampled packet-journey flight recorder with always-on drop
    /// forensics (see [`JourneyTracer`]).
    pub tracer: JourneyTracer,
    /// In-band telemetry knob (resolved from `ADCP_INT` / `cfg.int`).
    int: IntKnob,
    /// Postcards emitted at TX for sampled packets, awaiting a collector.
    postcards: Vec<Postcard>,
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
}

impl RmtSwitch {
    /// Build a switch for `program` on `target`, compiling with `opts`.
    pub fn new(
        program: Program,
        target: TargetModel,
        opts: CompileOptions,
        cfg: RmtConfig,
    ) -> Result<Self, CompileError> {
        let placement = compile(&program, &target, opts)?;
        let layout = program.layout();
        let n_pipes = target.num_pipes() as usize;
        let ports_per_pipe = target.ports_per_pipe as usize;
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
        let ingress = (0..n_pipes)
            .map(|_| IngressPipe {
                next_slot: SimTime::ZERO,
                busy_cycles: 0,
                state: RegionState::new(&program, Region::Ingress),
                central: RegionState::new(&program, Region::Central),
            })
            .collect();
        let tm2 = program.tm2.policy;
        let egress = (0..n_pipes)
            .map(|_| EgressPipe {
                next_slot: SimTime::ZERO,
                busy_cycles: 0,
                port_cursor: 0,
                central: RegionState::new(&program, Region::Central),
                state: RegionState::new(&program, Region::Egress),
                queues: ScheduledQueues::new(ports_per_pipe, cfg.queue_depth, tm2),
                pull_scheduled: false,
            })
            .collect();
        let pool = BufferPool::new(cfg.tm_cells, cfg.cell_bytes);
        let period = target.pipe_freq().period();
        let tracer = JourneyTracer::from_env(cfg.trace, 65_536);
        let int = IntKnob::from_env(cfg.int);
        let mut metrics = MetricsRegistry::from_env();
        let mh = register_metrics(&mut metrics);
        let ing_tables = RegionState::new(&program, Region::Ingress);
        let central_tables = RegionState::new(&program, Region::Central);
        let eg_tables = RegionState::new(&program, Region::Egress);
        Ok(RmtSwitch {
            target,
            program: Arc::new(program),
            layout,
            placement,
            cfg,
            rx,
            tx,
            ingress,
            egress,
            ing_tables,
            central_tables,
            eg_tables,
            pool,
            events: EventQueue::new(),
            batch: Vec::new(),
            store: PacketStore::new(),
            scratch: None,
            period,
            counters: SwitchCounters::default(),
            out_meter: Meter::default(),
            latency: LatencyHist::new(),
            tracer,
            int,
            postcards: Vec::new(),
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

    /// Ingress pipeline serving a port.
    pub fn pipe_of_port(&self, port: PortId) -> usize {
        (port.0 / self.target.ports_per_pipe) as usize
    }

    /// Ports attached to an egress pipeline — the only ports a packet
    /// processed there can leave from (Fig. 2).
    pub fn ports_of_pipe(&self, pipe: usize) -> Vec<PortId> {
        let ppp = self.target.ports_per_pipe;
        (0..ppp).map(|i| PortId(pipe as u16 * ppp + i)).collect()
    }

    // ---------------- control plane ----------------

    /// Install a table entry into every pipeline that hosts the table.
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        let RmtSwitch {
            program,
            ing_tables,
            central_tables,
            eg_tables,
            ..
        } = self;
        let gi = program
            .tables
            .iter()
            .position(|t| t.name == table)
            .unwrap_or_else(|| panic!("no table named {table}"));
        // One shared copy per region serves every pipe (the same entries
        // went everywhere before), making installs O(1) in the pipe count.
        // The central copy serves both lowerings: recirculation passes in
        // the ingress pipes and `CentralImpl::EgressPinned` egress runs.
        match program.tables[gi].region {
            Region::Ingress => ing_tables.install(program, gi, entry)?,
            Region::Central => central_tables.install(program, gi, entry)?,
            Region::Egress => eg_tables.install(program, gi, entry)?,
        }
        Ok(())
    }

    /// Read a central-region register file as seen by one pipeline. With
    /// `CentralImpl::EgressPinned` the live copy is in the egress pipes;
    /// with `Recirculated` it is in the ingress pipes.
    pub fn central_register(&self, pipe: usize, reg: RegId) -> &RegisterFile {
        match self.placement.central_impl {
            CentralImpl::EgressPinned => self.egress[pipe].central.register(reg),
            _ => self.ingress[pipe].central.register(reg),
        }
    }

    /// Read an egress-region register file of one pipeline.
    pub fn egress_register(&self, pipe: usize, reg: RegId) -> &RegisterFile {
        self.egress[pipe].state.register(reg)
    }

    /// Read an ingress-region register file of one pipeline.
    pub fn ingress_register(&self, pipe: usize, reg: RegId) -> &RegisterFile {
        self.ingress[pipe].state.register(reg)
    }

    // ---------------- data plane ----------------

    /// Offer a packet to an RX port at `t` (its first bit arrives then).
    pub fn inject(&mut self, port: PortId, mut pkt: Packet, t: SimTime) {
        assert!(
            (port.0 as usize) < self.rx.len(),
            "inject on nonexistent {port}"
        );
        if pkt.meta.created == SimTime::ZERO {
            pkt.meta.created = t;
        }
        self.counters.injected += 1;
        self.in_flight += 1;
        self.events.push(t, Ev::Inject { port: port.0, pkt });
    }

    /// Run until no events remain; returns quiescence time — the later of
    /// the last event and the last bit serialized out a TX port.
    pub fn run_until_idle(&mut self) -> SimTime {
        let mut last = self.events.now();
        // Batched dispatch: drain every event sharing the minimal timestamp
        // in one calendar-queue operation, then dispatch from a reusable
        // buffer. Handlers that push more work at the same timestamp get a
        // later seq, so those land in the *next* batch — the dispatch order
        // is identical to the one-event-at-a-time loop.
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            batch.clear();
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
        last.max(self.last_delivery)
    }

    /// Run every event scheduled at or before `t`, then stop — lets a
    /// driver interleave chunked injection (or observation) with live
    /// traffic. Returns the time of the last handled event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        let mut last = self.events.now();
        let mut batch = std::mem::take(&mut self.batch);
        while self.events.peek_time().is_some_and(|pt| pt <= t) {
            batch.clear();
            let Some(bt) = self.events.pop_batch(&mut batch) else {
                break;
            };
            for ev in batch.drain(..) {
                self.handle(bt, ev);
            }
            last = bt;
        }
        self.batch = batch;
        self.refresh_mat_counters();
        last
    }

    /// Export the per-stage metrics block: [`RmtSwitch::metrics`] as JSON
    /// (see [`MetricsView::to_json`]).
    pub fn metrics_json(&self) -> serde::Value {
        self.metrics().to_json()
    }

    /// The per-stage metrics registry with this switch's own counts folded
    /// in at read time: [`SwitchCounters`], INT totals and per-pipe busy
    /// cycles are the single source of truth, so nothing is copied into
    /// the registry while the switch runs.
    pub fn metrics(&self) -> MetricsView<'_> {
        let c = &self.counters;
        let mh = &self.mh;
        let (lookups, hits) = self.mat_totals();
        let folds = [
            Fold::Counter(mh.rx_pkts, c.injected),
            Fold::Counter(mh.mac_fcs_drops, c.fcs_drops),
            Fold::Counter(mh.parse_errors, c.parse_errors),
            Fold::Counter(mh.recirc_passes, c.recirc_passes),
            Fold::Counter(mh.tm_drops, c.tm_drops),
            Fold::Counter(mh.tm_queue_drops, c.queue_drops),
            Fold::Counter(mh.tm_mcast_copies, c.mcast_copies),
            Fold::Counter(mh.deparse_allocs, c.deparse_allocs),
            Fold::Counter(mh.mat_lookups, lookups),
            Fold::Counter(mh.mat_hits, hits),
            Fold::Counter(mh.drops_filtered, c.filtered),
            Fold::Counter(mh.drops_no_decision, c.no_decision),
            Fold::Counter(mh.drops_bad_port, c.bad_port),
            Fold::Counter(mh.tx_pkts, c.delivered),
            Fold::Gauge(mh.tm_buffer_gauge, self.pool.used()),
            Fold::Counter(mh.int_stamps, self.int_stamps),
            Fold::Counter(mh.int_postcards, self.int_postcards),
            Fold::Counter(mh.int_truncated, self.int_truncated),
            Fold::Counter(mh.int_postcards_dropped, self.int_postcards_dropped),
        ];
        let busy = [
            Fold::busy(mh.busy[0], self.ingress.iter().map(|p| p.busy_cycles)),
            Fold::busy(mh.busy[1], self.egress.iter().map(|p| p.busy_cycles)),
        ];
        self.metrics
            .fold(folds.into_iter().chain(busy.into_iter().flatten()))
    }

    /// Export the journey tracer's state (sampled hops, drop forensics) as
    /// JSON. See [`JourneyTracer::to_json`].
    pub fn trace_json(&self) -> serde::Value {
        self.tracer.to_json()
    }

    /// The in-band telemetry knob in force (resolved from `ADCP_INT` at
    /// construction, falling back to [`RmtConfig::int`]).
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

    /// INT totals: (stamps written, postcards emitted, stamps truncated).
    pub fn int_totals(&self) -> (u64, u64, u64) {
        (self.int_stamps, self.int_postcards, self.int_truncated)
    }

    /// Postcards shed because the sink FIFO was full (nothing drained
    /// [`RmtSwitch::take_postcards`] for [`POSTCARDS_CAP`] sampled
    /// transmissions).
    pub fn int_postcards_dropped(&self) -> u64 {
        self.int_postcards_dropped
    }

    /// Sabotage hook for the conformance harness: when set, every INT
    /// stamp reports a TM queue depth one higher than actually observed.
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
            .flat_map(|p| [&p.state.stats, &p.central.stats])
            .chain(
                self.egress
                    .iter()
                    .flat_map(|p| [&p.central.stats, &p.state.stats]),
            )
            .fold((0, 0), |(l, h), s| (l + s.lookups, h + s.hits))
    }

    /// Copy the per-table lookup/hit totals into [`SwitchCounters`] so a
    /// counters snapshot taken after any run is complete. Totals are
    /// monotone, so re-assigning on every call is idempotent.
    fn refresh_mat_counters(&mut self) {
        (self.counters.mat_lookups, self.counters.mat_hits) = self.mat_totals();
    }

    /// Drain packets delivered so far.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Packets currently inside the switch.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Panic unless every injected packet is accounted for. Call at idle.
    pub fn check_conservation(&self) {
        let c = &self.counters;
        assert_eq!(
            c.injected + c.mcast_copies,
            c.delivered + c.total_drops() + self.in_flight,
            "conservation violated: {c:?} in_flight={}",
            self.in_flight
        );
    }

    /// High-water mark of the TM's shared buffer, in cells.
    pub fn tm_buffer_hwm(&self) -> u64 {
        self.pool.hwm_cells
    }

    /// Utilization (busy cycles / elapsed cycles) of an ingress pipeline.
    pub fn ingress_utilization(&self, pipe: usize, now: SimTime) -> f64 {
        let total = now.as_ps() / self.period.as_ps().max(1);
        if total == 0 {
            0.0
        } else {
            self.ingress[pipe].busy_cycles as f64 / total as f64
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Inject { port, pkt } => self.on_inject(now, port, pkt),
            Ev::IngressEnter { pipe, pkt, pass } => {
                self.on_ingress_enter(now, pipe as usize, pkt, pass)
            }
            Ev::IngressOut { pipe, pkt, pass } => {
                self.on_ingress_out(now, pipe as usize, pkt, pass)
            }
            Ev::PullEgress { pipe } => self.on_pull_egress(now, pipe as usize),
            Ev::EgressOut { pipe, pkt } => self.on_egress_out(now, pipe as usize, pkt),
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
        let pipe = self.pipe_of_port(PortId(port));
        self.events.push(
            done,
            Ev::IngressEnter {
                pipe: pipe as u32,
                pkt,
                pass: 0,
            },
        );
    }

    /// Parse and run the pass's region, then occupy a pipeline slot.
    fn on_ingress_enter(&mut self, now: SimTime, pipe: usize, pkt: Packet, pass: u8) {
        let (sphv, sext) = self
            .scratch
            .take()
            .unwrap_or_else(|| (Phv::empty(), Vec::new()));
        let parsed = self.program.parser.parse_reusing(
            &self.program.headers,
            &self.layout,
            &pkt.data,
            sphv,
            sext,
        );
        let Ok(out) = parsed else {
            self.counters.parse_errors += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::IngressPipe(pipe),
                DropReason::ParseError,
                HopCtx::NONE,
            );
            return;
        };
        let mut phv = out.phv;
        phv.intr.ingress_port = pkt.meta.ingress_port;
        // Parse latency scales with structural depth, not port speed (§3.3).
        let parse_cost = Duration(out.depth as u64 * self.period.as_ps());
        if self.metrics.enabled() {
            self.metrics.record(self.mh.parse_span, parse_cost);
        }
        let parse_done = now + parse_cost;

        let p = &mut self.ingress[pipe];
        let entry = parse_done.max(p.next_slot);
        p.next_slot = entry + self.period;
        p.busy_cycles += 1;

        // Run the region at entry (stage traversal is a fixed latency; the
        // state mutation order equals the slot order).
        let (state, tables, depth) = if pass == 0 {
            (
                &mut p.state,
                &self.ing_tables,
                self.placement.ingress.depth().max(1),
            )
        } else {
            (
                &mut p.central,
                &self.central_tables,
                self.placement.central.depth().max(1),
            )
        };
        state.run_with_tables(tables, &self.program, &self.layout, &mut phv);

        // Deparse: the pipeline's modifications become the packet. The
        // rebuilt frame reuses a buffer recycled through the arena.
        let mut buf = self.store.take();
        let payload = &pkt.data[out.consumed.min(pkt.data.len())..];
        deparse_into(
            &mut buf,
            &self.program.headers,
            &self.layout,
            &phv,
            &out.extracted,
            payload,
        );
        let mut pkt = pkt;
        if let FrameBuf::Owned(v) = std::mem::replace(&mut pkt.data, FrameBuf::Owned(buf)) {
            self.store.recycle(v);
        }
        self.counters.deparse_allocs += 1;
        pkt.meta.egress = std::mem::take(&mut phv.intr.egress);
        pkt.meta.recirculate = phv.intr.recirculate;
        pkt.meta.central_pipe = phv.intr.central_pipe;
        if let Some(k) = phv.intr.sort_key {
            pkt.meta.sort_key = Some(k);
        }
        pkt.meta.elements = pkt.meta.elements.max(phv.intr.elements);
        self.scratch = Some((phv, out.extracted));

        let exit = entry + Duration(depth as u64 * self.period.as_ps());
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
                pass,
            },
        );
    }

    fn on_ingress_out(&mut self, now: SimTime, pipe: usize, mut pkt: Packet, pass: u8) {
        if pass == 0 && self.metrics.enabled() {
            // Stage span: RX handoff -> first ingress pass exit (parse
            // included; recirculation passes are counted separately).
            self.metrics
                .record_span(self.mh.ingress_span, pkt.meta.arrived, now);
        }
        if pkt.meta.recirculate && pass == 0 {
            // Recirculation: loop back into the ingress pipeline that hosts
            // the coflow state (chosen by the program via central_pipe),
            // consuming one of its slots — the bandwidth tax.
            let target = pkt
                .meta
                .central_pipe
                .map(|c| c as usize % self.ingress.len())
                .unwrap_or(pipe);
            pkt.meta.recirculate = false;
            pkt.meta.recirc_count += 1;
            self.counters.recirc_passes += 1;
            if self.tracer.hops_on() {
                self.tracer
                    .record_hop(pkt.meta.id, Site::Recirculated, now, now, HopCtx::NONE);
            }
            self.int_stamp(&mut pkt, Site::Recirculated, now, now, HopCtx::NONE);
            let at = now + self.cfg.recirc_latency;
            self.events.push(
                at,
                Ev::IngressEnter {
                    pipe: target as u32,
                    pkt,
                    pass: 1,
                },
            );
            return;
        }
        self.tm_admit(now, pkt);
    }

    fn tm_admit(&mut self, now: SimTime, mut pkt: Packet) {
        // Move the decision out rather than cloning it (a Multicast spec
        // owns a port list).
        match std::mem::take(&mut pkt.meta.egress) {
            EgressSpec::Unset | EgressSpec::Recirculate => {
                self.counters.no_decision += 1;
                self.drop_packet(
                    now,
                    pkt.meta.id,
                    Site::Tm1,
                    DropReason::NoDecision,
                    HopCtx::NONE,
                );
            }
            EgressSpec::Drop => {
                self.counters.filtered += 1;
                self.drop_packet(
                    now,
                    pkt.meta.id,
                    Site::Tm1,
                    DropReason::Filtered,
                    HopCtx::NONE,
                );
            }
            EgressSpec::Unicast(p) => {
                pkt.meta.egress = EgressSpec::Unicast(p);
                self.tm_admit_one(now, p, pkt);
            }
            EgressSpec::Multicast(ports) => {
                if ports.is_empty() {
                    self.counters.no_decision += 1;
                    self.drop_packet(
                        now,
                        pkt.meta.id,
                        Site::Tm1,
                        DropReason::NoDecision,
                        HopCtx::NONE,
                    );
                    return;
                }
                // The TM replicates; each copy is accounted separately and
                // shares the frame bytes (made refcounted once here, so a
                // Packet clone bumps the refcount instead of copying).
                self.counters.mcast_copies += ports.len() as u64 - 1;
                self.in_flight += ports.len() as u64 - 1;
                pkt.data.make_shared();
                for p in ports {
                    let mut copy = pkt.clone();
                    copy.meta.egress = EgressSpec::Unicast(p);
                    self.tm_admit_one(now, p, copy);
                }
            }
        }
    }

    fn tm_admit_one(&mut self, now: SimTime, port: PortId, mut pkt: Packet) {
        if port.0 as usize >= self.tx.len() {
            self.counters.bad_port += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm1,
                DropReason::BadPort,
                HopCtx::NONE,
            );
            return;
        }
        let pipe = self.pipe_of_port(port);
        let local = (port.0 % self.target.ports_per_pipe) as usize;
        if !self.egress[pipe].queues.queue(local).has_room(&pkt) {
            self.counters.queue_drops += 1;
            let ctx = HopCtx {
                queue_depth: Some(self.egress[pipe].queues.len() as u32),
                buffer_cells: Some(self.pool.used()),
                epoch: None,
            };
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::Tm1,
                DropReason::QueueTail {
                    tm: 1,
                    queue: port.0 as u32,
                },
                ctx,
            );
            return;
        }
        if !self.pool.try_alloc(&mut pkt) {
            self.counters.tm_drops += 1;
            let ctx = HopCtx {
                queue_depth: Some(self.egress[pipe].queues.len() as u32),
                buffer_cells: Some(self.pool.used()),
                epoch: None,
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
        // `ScheduledQueues::len` walks every queue, so only pay for it when
        // a knob will consume the value.
        if self.tracer.hops_on() || self.int.samples(pkt.meta.id) {
            pkt.meta.tm_q_depth = Some(self.egress[pipe].queues.len() as u32 + 1);
            pkt.meta.tm_buf_used = Some(self.pool.used());
        }
        let accepted = self.egress[pipe].queues.enqueue(local, pkt).is_ok();
        debug_assert!(accepted, "room was checked above");
        if self.metrics.enabled() {
            let depth = self.egress[pipe].queues.len() as u64;
            self.metrics.sample(self.mh.tm_queue_depth, now, depth);
            self.metrics
                .sample(self.mh.tm_buffer, now, self.pool.used());
            self.metrics
                .set_gauge(self.mh.tm_buffer_gauge, self.pool.used());
        }
        self.schedule_pull(now, pipe);
    }

    fn schedule_pull(&mut self, now: SimTime, pipe: usize) {
        if !self.egress[pipe].pull_scheduled {
            self.egress[pipe].pull_scheduled = true;
            let at = now.max(self.egress[pipe].next_slot);
            self.events.push(at, Ev::PullEgress { pipe: pipe as u32 });
        }
    }

    fn on_pull_egress(&mut self, now: SimTime, pipe: usize) {
        self.egress[pipe].pull_scheduled = false;
        if now < self.egress[pipe].next_slot {
            self.schedule_pull(self.egress[pipe].next_slot, pipe);
            return;
        }
        // A queue may only depart when its TX port can accept the packet:
        // busy links backpressure into the TM buffer (which is where the
        // buffering physically lives). Round-robin over ready ports.
        let ppp = self.target.ports_per_pipe as usize;
        let mut chosen: Option<usize> = None;
        let mut earliest_ready = SimTime::NEVER;
        for k in 0..ppp {
            let i = (self.egress[pipe].port_cursor + k) % ppp;
            if self.egress[pipe].queues.queue(i).is_empty() {
                continue;
            }
            let port = pipe * ppp + i;
            // Overlap pipeline flight with the link: the port must be
            // free by the time the packet exits the egress stages.
            let flight = (self.placement.central.depth() + self.placement.egress.depth()).max(1)
                as u64
                * self.period.as_ps();
            let ready = self.tx[port].ready_at();
            if ready.as_ps() <= now.as_ps() + flight {
                chosen = Some(i);
                break;
            }
            earliest_ready = earliest_ready.min(SimTime(ready.as_ps() - flight));
        }
        let Some(local) = chosen else {
            if earliest_ready != SimTime::NEVER {
                // Every backlogged port is mid-serialization; retry when
                // the first frees up.
                self.egress[pipe].pull_scheduled = true;
                self.events
                    .push(earliest_ready, Ev::PullEgress { pipe: pipe as u32 });
            }
            return;
        };
        self.egress[pipe].port_cursor = (local + 1) % ppp;
        let Some(mut pkt) = self.egress[pipe].queues.dequeue_queue(local) else {
            return;
        };
        self.pool.release(&mut pkt);
        if self.metrics.enabled() {
            self.metrics
                .record_span(self.mh.tm_residency, pkt.meta.tm_enqueued, now);
            self.metrics
                .sample(self.mh.tm_buffer, now, self.pool.used());
        }
        // TM-residency hop with enqueue-time queue/buffer context. The RMT
        // baseline has a single TM, mapped onto the journey model's TM1.
        // One context computation feeds both the tracer and the INT stamp.
        if self.tracer.hops_on() || self.int.on() {
            let enq = pkt.meta.tm_enqueued;
            let ctx = HopCtx {
                queue_depth: pkt.meta.tm_q_depth.take(),
                buffer_cells: pkt.meta.tm_buf_used.take(),
                epoch: None,
            };
            if self.tracer.hops_on() {
                self.tracer
                    .record_hop(pkt.meta.id, Site::Tm1, enq, now, ctx);
            }
            self.int_stamp(&mut pkt, Site::Tm1, enq, now, ctx);
        }
        pkt.meta.tm_enqueued = now; // egress-stage entry, for its span
        let p = &mut self.egress[pipe];
        let entry = now.max(p.next_slot);
        p.next_slot = entry + self.period;
        p.busy_cycles += 1;
        let depth = (self.placement.central.depth() + self.placement.egress.depth()).max(1);
        let exit = entry + Duration(depth as u64 * self.period.as_ps());
        if self.tracer.hops_on() {
            self.tracer.record_hop(
                pkt.meta.id,
                Site::EgressPipe(pipe),
                entry,
                exit,
                HopCtx::NONE,
            );
        }
        self.int_stamp(&mut pkt, Site::EgressPipe(pipe), entry, exit, HopCtx::NONE);
        self.events.push(
            exit,
            Ev::EgressOut {
                pipe: pipe as u32,
                pkt,
            },
        );
        if !self.egress[pipe].queues.is_empty() {
            let next = self.egress[pipe].next_slot;
            self.schedule_pull(next, pipe);
        }
    }

    fn on_egress_out(&mut self, now: SimTime, pipe: usize, mut pkt: Packet) {
        // Egress parse + region execution.
        let (sphv, sext) = self
            .scratch
            .take()
            .unwrap_or_else(|| (Phv::empty(), Vec::new()));
        let parsed = self.program.parser.parse_reusing(
            &self.program.headers,
            &self.layout,
            &pkt.data,
            sphv,
            sext,
        );
        let Ok(out) = parsed else {
            self.counters.parse_errors += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::EgressPipe(pipe),
                DropReason::ParseError,
                HopCtx::NONE,
            );
            return;
        };
        let mut phv: Phv = out.phv;
        phv.intr.ingress_port = pkt.meta.ingress_port;
        // The TM's forwarding decision picks the TX port; the egress region
        // sees it (and may turn it into a drop) but cannot redirect.
        let dest = match pkt.meta.egress {
            EgressSpec::Unicast(p) => Some(p),
            _ => None,
        };
        phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        // Egress-pinned central tables run first (Fig. 2 lowering).
        if self.placement.central_impl == CentralImpl::EgressPinned {
            self.egress[pipe].central.run_with_tables(
                &self.central_tables,
                &self.program,
                &self.layout,
                &mut phv,
            );
        }
        self.egress[pipe].state.run_with_tables(
            &self.eg_tables,
            &self.program,
            &self.layout,
            &mut phv,
        );
        if phv.intr.egress == EgressSpec::Drop {
            self.counters.filtered += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::EgressPipe(pipe),
                DropReason::Filtered,
                HopCtx::NONE,
            );
            return;
        }
        let mut buf = self.store.take();
        let payload = &pkt.data[out.consumed.min(pkt.data.len())..];
        deparse_into(
            &mut buf,
            &self.program.headers,
            &self.layout,
            &phv,
            &out.extracted,
            payload,
        );
        if let FrameBuf::Owned(v) = std::mem::replace(&mut pkt.data, FrameBuf::Owned(buf)) {
            self.store.recycle(v);
        }
        self.counters.deparse_allocs += 1;
        pkt.meta.elements = pkt.meta.elements.max(phv.intr.elements);
        self.scratch = Some((phv, out.extracted));

        let Some(port) = dest else {
            self.counters.no_decision += 1;
            self.drop_packet(
                now,
                pkt.meta.id,
                Site::EgressPipe(pipe),
                DropReason::NoDecision,
                HopCtx::NONE,
            );
            return;
        };
        pkt.meta.egress = EgressSpec::Unicast(port);
        // Egress pinning invariant: the port belongs to this pipeline.
        debug_assert_eq!(self.pipe_of_port(port), pipe, "egress pinning violated");
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
            // Sink export: emit the accumulated stack for the collector.
            // Bounded FIFO: an undrained collector sheds postcards
            // (counted) and the shed path skips the stack clone.
            if self.postcards.len() < POSTCARDS_CAP {
                let stack = pkt.meta.int.as_deref().cloned().unwrap_or_default();
                self.postcards.push(Postcard {
                    device: self.cfg.device,
                    pkt: pkt.meta.id,
                    flow: pkt.meta.flow.0,
                    port: port.0,
                    time: done,
                    stack,
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
        self.delivered.push(Delivered {
            port,
            time: done,
            data: pkt.data,
            meta: pkt.meta,
        });
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
