//! In-memory spans recorded around calls into the simulator's layers.
//!
//! Two kinds of span share one recorder:
//!
//! * **phases** (`bench.setup`, `bench.gen`, `bench.sim`, `bench.verify`,
//!   `bench.teardown`) are the
//!   top-level spans of one workload iteration. They are recorded in every
//!   run, traced or not, because the end-to-end metrics are built from
//!   them (a handful of clock reads per iteration).
//! * **layer spans** (`core.run`, `ctrl.tick`, ...) wrap one public call
//!   into a layer, or one loop of such calls where the loop issues a call
//!   per packet. They are recorded only in traced iterations.
//!
//! Every span keeps its name, start, end, parent and the allocations made
//! while it was open. Spans stay in memory; [`chrome_trace`] writes them out
//! once the run is over.

use crate::alloc;
use serde::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a phase.
    pub parent: Option<usize>,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by `phase`/`layer`, consumed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder for one workload iteration.
pub struct Tracer {
    detail: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `detail` turns layer spans on.
    pub fn new(detail: bool) -> Self {
        Tracer {
            detail,
            origin: Instant::now(),
            // Reserved up front so the recorder's own growth does not land
            // inside a measured span's allocation count.
            spans: Vec::with_capacity(if detail { 1 << 14 } else { 16 }),
            open: Vec::with_capacity(16),
        }
    }

    /// The instant all span times are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Are layer spans recorded?
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Open a top-level phase span (recorded in every run).
    pub fn phase(&mut self, name: &'static str) -> Open {
        debug_assert!(self.open.is_empty(), "phases do not nest");
        self.begin(name)
    }

    /// Open a layer span (recorded only when `detail` is on).
    pub fn layer(&mut self, name: &'static str) -> Open {
        if self.detail {
            self.begin(name)
        } else {
            Open(None)
        }
    }

    fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(idx);
        let (allocs, bytes) = alloc::snapshot();
        let s = &mut self.spans[idx];
        s.allocs = allocs;
        s.alloc_bytes = bytes;
        s.start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(Some(idx))
    }

    /// Close a span opened by `phase` or `layer`.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
    }

    /// Run `f` inside a layer span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.layer(name);
        let r = f();
        self.end(open);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9
    }

    /// Summed (allocations, bytes) of every span named `name`.
    pub fn allocs(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(n, b), s| (n + s.allocs, b + s.alloc_bytes))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self-time per span name, in seconds: each span's duration minus the
    /// part its direct children cover (children never overlap: the
    /// benchmark is single-threaded at span granularity).
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_ns() - c) as f64 / 1e9;
        }
        out
    }
}

/// Export the spans of several traced iterations as one Chrome trace
/// (JSON Object Format, `ph: "X"` complete events). `runs` pairs each
/// iteration's id with its recorder; every span of an iteration carries
/// that id in `args.run`, its own index in `args.span`, and its parent's
/// index (or -1) in `args.parent`.
pub fn chrome_trace(origin: Instant, runs: &[(u64, &Tracer)]) -> Value {
    let mut events = Vec::new();
    for &(run, tr) in runs {
        let offset_ns = tr.origin().duration_since(origin).as_nanos() as u64;
        for (i, s) in tr.spans().iter().enumerate() {
            let mut args = Map::new();
            args.insert("run".into(), Value::U64(run));
            args.insert("span".into(), Value::U64(i as u64));
            args.insert(
                "parent".into(),
                Value::I64(s.parent.map_or(-1, |p| p as i64)),
            );
            args.insert("allocs".into(), Value::U64(s.allocs));
            args.insert("alloc_bytes".into(), Value::U64(s.alloc_bytes));
            let mut ev = Map::new();
            ev.insert("name".into(), Value::String(s.name.into()));
            let cat = s.name.split('.').next().unwrap_or(s.name);
            ev.insert("cat".into(), Value::String(cat.into()));
            ev.insert("ph".into(), Value::String("X".into()));
            ev.insert(
                "ts".into(),
                Value::F64((offset_ns + s.start_ns) as f64 / 1e3),
            );
            ev.insert("dur".into(), Value::F64(s.dur_ns() as f64 / 1e3));
            ev.insert("pid".into(), Value::U64(1));
            ev.insert("tid".into(), Value::U64(1));
            ev.insert("args".into(), Value::Object(args));
            events.push(Value::Object(ev));
        }
    }
    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(events));
    root.insert("displayTimeUnit".into(), Value::String("ns".into()));
    Value::Object(root)
}
