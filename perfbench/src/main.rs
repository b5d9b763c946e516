//! The repository benchmark: runs one named workload from a seed for a
//! fixed host time, checks every iteration's outputs against the
//! reference, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload agg --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with layer spans off; with
//! `--trace 1` they are the per-layer ones, from iterations that record a
//! span around every call into a layer, interleaved with untraced
//! iterations that give the tracing overhead. See `perfbench/README.md`.

mod agg;
mod alloc;
mod calib;
mod ddos;
mod fabric;
mod outcome;
mod pin;
mod serve;
mod trace;

use outcome::Outcome;
use serde::{Map, Value};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Environment variables the switch models read at construction; each
/// changes hot-path work, so the benchmark removes them.
const PINNED_ENV: [&str; 3] = ["ADCP_METRICS", "ADCP_TRACE", "ADCP_INT"];

/// Largest share of an iteration's wall time that may fall outside its
/// top-level spans before the traced run refuses to report.
const RECONCILE_TOLERANCE: f64 = 0.02;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Agg,
    Ddos1m,
    Fabric2x4,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Agg,
        Workload::Ddos1m,
        Workload::Fabric2x4,
        Workload::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Agg => "agg",
            Workload::Ddos1m => "ddos-1m",
            Workload::Fabric2x4 => "fabric-2x4",
            Workload::Serve => "serve",
        }
    }

    fn run(self, seed: u64, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::Agg => agg::run(seed, tr),
            Workload::Ddos1m => ddos::run(seed, tr),
            Workload::Fabric2x4 => fabric::run(seed, tr),
            Workload::Serve => serve::run(seed, tr),
        }
    }

    /// Whether the workload runs pinned to one CPU: the `serve` daemon's
    /// autoscaler sets `central_workers` to its active pipe count, so
    /// scaled-up slices run central batches on scoped threads (see
    /// `pin.rs`).
    fn pinned(self) -> bool {
        self == Workload::Serve
    }

    /// The kernel that calibrates the workload's host times: on `serve`
    /// they go largely to spawning and joining those threads.
    fn kernel(self) -> calib::Kernel {
        if self == Workload::Serve {
            calib::Kernel::Spawn
        } else {
            calib::Kernel::Compute
        }
    }

    /// Iterations in one round: a run ends on a whole round, so every
    /// iteration seed counts the same in the medians. On `serve` an
    /// iteration is one soak, and a round holds `serve::SOAKS` soaks of
    /// different seeds.
    fn round(self) -> usize {
        if self == Workload::Serve {
            serve::SOAKS
        } else {
            1
        }
    }

    /// The seed of iteration `i` of the run seeded `seed`.
    fn iteration_seed(self, seed: u64, i: usize) -> u64 {
        if self == Workload::Serve {
            serve::soak_seed(seed, i % serve::SOAKS)
        } else {
            seed
        }
    }

    /// Host seconds of the workload's set-up alone (the result is dropped
    /// after the clock stops).
    fn setup_s(self, seed: u64) -> f64 {
        let mut tr = Tracer::new(false);
        match self {
            Workload::Agg => drop(agg::setup(seed, &mut tr)),
            Workload::Ddos1m => drop(ddos::setup(&mut tr)),
            Workload::Fabric2x4 => drop(fabric::setup(seed, &mut tr)),
            Workload::Serve => drop(serve::setup(seed, &mut tr)),
        }
        tr.total_s("bench.setup")
    }
}

/// Set-ups timed on their own after every iteration: set-up takes well
/// under a millisecond, so one sample per iteration is too noisy.
const SETUP_REPS: usize = 8;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <agg|ddos-1m|fabric-2x4|serve> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One finished iteration.
struct Iteration {
    wall_s: f64,
    /// Host-speed factor: the calibration kernel's reference time over its
    /// mean time just before and just after this iteration.
    scale: f64,
    /// Host seconds of the set-ups timed alone after this iteration.
    setups_s: Vec<f64>,
    tracer: Tracer,
    out: Outcome,
}

fn iterate(w: Workload, seed: u64, detail: bool) -> Iteration {
    let mut tracer = Tracer::new(detail);
    let t0 = Instant::now();
    let out = w.run(seed, &mut tracer);
    let wall_s = t0.elapsed().as_secs_f64();
    Iteration {
        wall_s,
        scale: 1.0,
        setups_s: Vec::new(),
        tracer,
        out,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1).
fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set (VmHWM) of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Layer spans, whose self-times are published as `<name>_s`. The
/// `bench.*` phases are the top-level spans; their self-time is the
/// benchmark's own code between layer calls (e.g. building frames).
const SPANS: [&str; 28] = [
    "bench.setup",
    "bench.gen",
    "bench.sim",
    "bench.verify",
    "bench.teardown",
    "workloads.gen",
    "apps.program",
    "apps.oracle",
    "core.new",
    "core.install",
    "core.inject",
    "core.run",
    "core.drain",
    "core.metrics",
    "core.migrate",
    "rmt.new",
    "rmt.inject",
    "rmt.run",
    "rmt.drain",
    "rmt.metrics",
    "fabric.new",
    "fabric.inject",
    "fabric.run",
    "fabric.verify",
    "ctrl.tick",
    "adcpd.new",
    "adcpd.slice",
    "adcpd.finish",
];

/// Spans whose allocations are published per packet offered to their
/// layer (the name's prefix), as `<span>_allocs_per_pkt` and
/// `<span>_alloc_bytes_per_pkt`.
const ALLOC_SPANS: [&str; 4] = ["core.run", "rmt.run", "fabric.run", "adcpd.slice"];

/// Deterministic per-layer values the workloads read off the switches,
/// with units. A workload that does not exercise a layer reports 0.
const VALUES: [(&str, &str); 19] = [
    ("lang.mat_lookups_per_pkt", "1/pkt"),
    ("lang.mat_hit_rate", "ratio"),
    ("core.deparse_allocs_per_pkt", "1/pkt"),
    ("core.mcast_copies_per_pkt", "1/pkt"),
    ("core.central_busy_cycles_per_pkt", "cycles/pkt"),
    ("core.tm1_residency_p99_ns", "ns"),
    ("core.tm2_residency_p99_ns", "ns"),
    ("rmt.recirc_passes_per_pkt", "1/pkt"),
    ("rmt.tm_residency_p99_ns", "ns"),
    ("rmt.sim_latency_p99_ns", "ns"),
    ("fabric.forwarded_per_pkt", "1/pkt"),
    ("ctrl.migrations", "count"),
    ("ctrl.moved_keys", "count"),
    ("ctrl.misroutes", "count"),
    ("adcpd.scale_ups", "count"),
    ("adcpd.scale_downs", "count"),
    ("sim_latency_p50_ns", "ns"),
    ("sim_latency_p99_ns", "ns"),
    ("slo_violation_frac", "ratio"),
];

/// A metric's value and unit, in output order.
type Metrics = Vec<(String, f64, &'static str)>;

/// End-to-end metrics from untraced iterations: medians over iterations,
/// host times in reference seconds when `scaled`, raw host seconds
/// otherwise.
fn end_to_end(its: &[&Iteration], scaled: bool, peak_rss_mib: f64) -> Metrics {
    let k = |i: &Iteration| if scaled { i.scale } else { 1.0 };
    let med = |f: &dyn Fn(&Iteration) -> f64| median(its.iter().map(|i| f(i)).collect());
    vec![
        (
            "sim_pkts_per_s".into(),
            med(&|i| i.out.attempted as f64 / (i.tracer.total_s("bench.sim") * k(i))),
            "pkts/s",
        ),
        ("wall_s".into(), med(&|i| i.wall_s * k(i)), "s"),
        (
            "setup_s".into(),
            median(
                its.iter()
                    .flat_map(|i| i.setups_s.iter().map(|s| s * k(i)))
                    .collect(),
            ),
            "s",
        ),
        ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
    ]
}

/// Host time per `run_slice` call in reference milliseconds, pooled over
/// untraced iterations.
fn slice_ms(its: &[&Iteration]) -> Metrics {
    let slices: Vec<f64> = its
        .iter()
        .flat_map(|i| i.out.slices_ms.iter().map(move |ms| ms * i.scale))
        .collect();
    vec![
        (
            "slice_p50_ms".into(),
            percentile(slices.clone(), 0.50),
            "ms",
        ),
        ("slice_p99_ms".into(), percentile(slices, 0.99), "ms"),
    ]
}

/// Per-layer metrics: medians over traced iterations.
fn per_layer(traced: &[&Iteration], untraced: &[&Iteration]) -> Metrics {
    let med = |f: &dyn Fn(&Iteration) -> f64| median(traced.iter().map(|i| f(i)).collect());
    let mut m: Metrics = Vec::new();
    for name in SPANS {
        let v = med(&|i| i.tracer.self_times_s().get(name).copied().unwrap_or(0.0));
        m.push((format!("{name}_s"), v, "s"));
    }
    for span in ALLOC_SPANS {
        let layer = span.split('.').next().unwrap_or(span);
        let per_pkt = |i: &Iteration, pick: fn((u64, u64)) -> u64| {
            let pkts = i
                .out
                .layer_pkts
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0, |p| p.1);
            if pkts == 0 {
                0.0
            } else {
                pick(i.tracer.allocs(span)) as f64 / pkts as f64
            }
        };
        m.push((
            format!("{span}_allocs_per_pkt"),
            med(&|i| per_pkt(i, |a| a.0)),
            "allocs/pkt",
        ));
        m.push((
            format!("{span}_alloc_bytes_per_pkt"),
            med(&|i| per_pkt(i, |a| a.1)),
            "B/pkt",
        ));
    }
    for (name, unit) in VALUES {
        m.push((
            name.into(),
            med(&|i| i.out.values.get(name).copied().unwrap_or(0.0)),
            unit,
        ));
    }
    m.extend(slice_ms(untraced));
    let attempted: u64 = traced.iter().chain(untraced).map(|i| i.out.attempted).sum();
    let failed: u64 = traced.iter().chain(untraced).map(|i| i.out.failed).sum();
    m.push((
        "failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    let wall = |its: &[&Iteration]| median(its.iter().map(|i| i.wall_s * i.scale).collect());
    m.push((
        "trace.overhead_frac".into(),
        wall(traced) / wall(untraced) - 1.0,
        "ratio",
    ));
    m.push((
        "trace.reconcile_gap_frac".into(),
        med(&reconcile_gap),
        "ratio",
    ));
    m.push((
        "trace.spans_per_iter".into(),
        med(&|i| i.tracer.spans().len() as f64),
        "count",
    ));
    m
}

/// Share of an iteration's wall time not covered by the self-times of
/// its spans (which sum to the top-level spans' durations).
fn reconcile_gap(i: &Iteration) -> f64 {
    let covered: f64 = i.tracer.self_times_s().values().sum();
    1.0 - covered / i.wall_s
}

fn metrics_json(m: &Metrics) -> Value {
    let mut map = Map::new();
    for (name, value, unit) in m {
        let mut entry = Map::new();
        entry.insert("value".into(), Value::F64(*value));
        entry.insert("unit".into(), Value::String((*unit).into()));
        map.insert(name.clone(), Value::Object(entry));
    }
    Value::Object(map)
}

fn write_chrome_trace(
    args: &Args,
    origin: Instant,
    traced: &[&Iteration],
) -> Result<String, String> {
    let runs: Vec<(u64, &Tracer)> = traced
        .iter()
        .enumerate()
        .map(|(k, i)| (k as u64, &i.tracer))
        .collect();
    let doc = trace::chrome_trace(origin, &runs);
    let schema = adcp_bench::schema::load_chrome_trace_schema()?;
    adcp_bench::schema::validate(&doc, &schema).map_err(|e| e.join("; "))?;
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let text = serde_json::to_string(&doc).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut removed = Vec::new();
    for var in PINNED_ENV {
        if let Ok(v) = std::env::var(var) {
            removed.push(format!("{var}={v}"));
        }
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(var);
    }

    // Before pinning, which narrows what this reports.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = if args.workload.pinned() {
        pin::to_current_cpu()
    } else {
        None
    };

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(args.seconds);
    let mut its: Vec<Iteration> = Vec::new();
    let kernel = args.workload.kernel();
    // The kernel's first runs fault in fresh heap pages; discard them.
    for _ in 0..2 {
        kernel.time_s();
    }
    let mut kernel_before = kernel.time_s();
    let mut kernels = vec![kernel_before];
    let mut peak_rss = 0.0;
    let round = args.workload.round();
    loop {
        // Traced runs alternate untraced and traced rounds.
        let detail = args.trace && (its.len() / round) % 2 == 1;
        let seed = args.workload.iteration_seed(args.seed, its.len());
        let mut it = iterate(args.workload, seed, detail);
        if its.len() + 1 == round {
            // The first round's high-water mark: later rounds repeat its
            // iterations and can only add allocator fragmentation to it.
            peak_rss = peak_rss_mib();
        }
        it.setups_s = (0..SETUP_REPS)
            .map(|_| args.workload.setup_s(seed))
            .collect();
        let kernel_after = kernel.time_s();
        it.scale = kernel.reference_s() / ((kernel_before + kernel_after) / 2.0);
        kernel_before = kernel_after;
        kernels.push(kernel_after);
        its.push(it);
        let has_traced = its.iter().any(|i| i.tracer.detail());
        if its.len().is_multiple_of(round)
            && Instant::now() >= deadline
            && (!args.trace || has_traced)
        {
            break;
        }
    }
    let (traced, untraced): (Vec<&Iteration>, Vec<&Iteration>) =
        its.iter().partition(|i| i.tracer.detail());

    let attempted: u64 = its.iter().map(|i| i.out.attempted).sum();
    let failed: u64 = its.iter().map(|i| i.out.failed).sum();
    let mut errors: Vec<String> = its
        .iter()
        .flat_map(|i| i.out.errors.iter().cloned())
        .collect();
    let first_round = &its[..round];
    if its.iter().enumerate().any(|(n, i)| {
        let first = &first_round[n % round].out;
        i.out.digest != first.digest || i.out.values != first.values
    }) {
        errors.push("simulated output differs between iterations of one seed".into());
    }
    let mut digest = outcome::Fnv::new();
    for i in first_round {
        digest.u64(i.out.digest);
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} iterations={} (traced {}) nproc={} pinned_cpu={:?} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        its.len(),
        traced.len(),
        nproc,
        pinned_cpu,
        env!("PERFBENCH_RUSTC"),
    );
    println!(
        "env: removed {:?} from {:?}; the benchmark never sets central_workers; open loop in simulated time, so generator lateness does not apply",
        removed, PINNED_ENV
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    println!("sim_digest {:#018x}", digest.finish());
    println!(
        "host speed: {:?} calibration kernel median {:.6} s, reference {} s",
        kernel,
        median(kernels),
        kernel.reference_s()
    );

    let metrics = if args.trace {
        let m = per_layer(&traced, &untraced);
        for i in &traced {
            let gap = reconcile_gap(i);
            if gap.abs() > RECONCILE_TOLERANCE {
                eprintln!(
                    "perfbench: spans cover {:.2}% of a traced iteration's wall time; tolerance is {:.0}%",
                    (1.0 - gap) * 100.0,
                    RECONCILE_TOLERANCE * 100.0
                );
                std::process::exit(1);
            }
        }
        match write_chrome_trace(&args, origin, &traced) {
            Ok(path) => println!("chrome trace: {path}"),
            Err(e) => {
                eprintln!("perfbench: chrome trace export failed: {e}");
                std::process::exit(1);
            }
        }
        m
    } else {
        let m = end_to_end(&untraced, true, peak_rss);
        // Unscaled host times, and the workload-specific and simulated-time
        // metrics that are not in the result object: printed for reading.
        for (name, value, unit) in end_to_end(&untraced, false, peak_rss).into_iter().take(3) {
            println!("raw.{name} {value} {unit}");
        }
        let mut extra = slice_ms(&untraced);
        extra.push((
            "failed_frac".into(),
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        for name in [
            "sim_latency_p50_ns",
            "sim_latency_p99_ns",
            "slo_violation_frac",
        ] {
            let unit = VALUES.iter().find(|v| v.0 == name).map_or("", |v| v.1);
            let per_iteration = first_round
                .iter()
                .map(|i| i.out.values.get(name).copied().unwrap_or(0.0))
                .collect();
            extra.push((name.into(), median(per_iteration), unit));
        }
        for (name, value, unit) in &extra {
            println!("{name} {value} {unit}");
        }
        m
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }

    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(errors.is_empty()));
    result.insert("attempted".into(), Value::U64(attempted));
    result.insert("failed".into(), Value::U64(failed));
    result.insert("metrics".into(), metrics_json(&metrics));
    let mut line = String::new();
    Value::Object(result).encode(&mut line);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Allocation counters are process-wide, so tests take turns: a test
    /// running beside the allocation check would add its own allocations.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn traced_iterations_repeat_exactly_and_reconcile() {
        let _turn = serial();
        for w in Workload::ALL {
            let runs: Vec<Iteration> = (0..2).map(|_| iterate(w, 5, true)).collect();
            for i in &runs {
                assert!(i.out.errors.is_empty(), "{}: {:?}", w.name(), i.out.errors);
                assert_eq!(i.out.failed, 0, "{}", w.name());
                let gap = reconcile_gap(i);
                assert!(gap.abs() <= RECONCILE_TOLERANCE, "{}: gap {gap}", w.name());
            }
            assert_eq!(runs[0].out.digest, runs[1].out.digest, "{}", w.name());
            let layer = |i: &Iteration| per_layer(&[i], &[i]);
            for ((name, a, _), (_, b, _)) in layer(&runs[0]).iter().zip(&layer(&runs[1])) {
                let host_time =
                    name.ends_with("_s") || name.ends_with("_ms") || name.starts_with("trace.");
                if !host_time {
                    assert_eq!(
                        a,
                        b,
                        "{}: {name} differs between two runs of one seed",
                        w.name()
                    );
                }
            }
            let doc = trace::chrome_trace(runs[0].tracer.origin(), &[(0, &runs[0].tracer)]);
            let schema = adcp_bench::schema::load_chrome_trace_schema().expect("schema loads");
            adcp_bench::schema::validate(&doc, &schema).expect("trace validates");
        }
    }

    #[test]
    fn args_are_checked() {
        let _turn = serial();
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(ok("--workload serve --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(ok("--workload nope --seed 3 --seconds 2 --trace 1").is_err());
        assert!(ok("--workload agg --seed 3 --seconds 2 --trace 2").is_err());
        assert!(ok("--workload agg --seed 3 --seconds 2").is_err());
        assert!(ok("--workload agg --seed x --seconds 2 --trace 0").is_err());
    }

    #[test]
    fn serve_rounds_repeat_their_soak_seeds() {
        let _turn = serial();
        let w = Workload::Serve;
        let round = w.round();
        let seeds =
            |run: u64| -> Vec<u64> { (0..2 * round).map(|i| w.iteration_seed(run, i)).collect() };
        let (one, two) = (seeds(1), seeds(2));
        assert_eq!(one[..round], one[round..], "a round repeats the first");
        let distinct: std::collections::BTreeSet<u64> = one[..round].iter().copied().collect();
        assert_eq!(distinct.len(), round, "a round's soaks differ in seed");
        assert!(one.iter().all(|s| !two.contains(s)), "runs share no soak");
        assert_eq!(Workload::Agg.iteration_seed(7, 3), 7);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let _turn = serial();
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(v.clone(), 0.5), 50.0);
        assert_eq!(percentile(v, 0.99), 99.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
