//! Host-speed calibration.
//!
//! Identical reruns on a shared 2-vCPU VM differ by up to ±25 %, and the
//! host's speed drifts over seconds to minutes, longer than one run. A
//! fixed kernel timed between workload iterations tracks that drift: the
//! benchmark scales each iteration's host times by
//! `reference / kernel time`, so they read as seconds on a reference host
//! where the kernel takes its reference time. The kernels are this file's
//! code only, so a change to the repository cannot speed them up or slow
//! them down. They run on the benchmark's own thread, so on a pinned
//! workload they time the very CPU the workload runs on.
//!
//! * [`Kernel::Compute`] has two parts, like the simulator's own mix:
//!   ordered-map inserts, range lookups and removals over small heap
//!   buffers (an event simulator's bookkeeping), and a dependent random
//!   walk over 4 MiB (a register file larger than the private caches,
//!   sensitive to contention for the shared cache and memory).
//! * [`Kernel::Spawn`] spawns and joins scoped threads, which is where the
//!   `serve` daemon's host time goes once it scales up. Repeating one
//!   soak 60 times while the host's speed shifted by a third, the soak's
//!   time and this kernel's time (averaged over five soaks) moved together
//!   with correlation 0.95; the compute kernel's reached 0.76.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Ordered-map churn and a random walk over 4 MiB.
    Compute,
    /// Scoped-thread spawns and joins.
    Spawn,
}

impl Kernel {
    /// Kernel time on the reference host: the median on the 2-vCPU Intel
    /// Xeon (2.1 GHz) VM the benchmark's bounds were set on.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Compute => 0.06,
            Kernel::Spawn => 0.025,
        }
    }

    /// Time the kernel on this thread; returns its host time in seconds.
    /// The spawn kernel is the median of `SPAWN_SAMPLES` timings: a
    /// single one strays by up to ±15 %.
    pub fn time_s(self) -> f64 {
        match self {
            Kernel::Compute => {
                let t = Instant::now();
                compute();
                t.elapsed().as_secs_f64()
            }
            Kernel::Spawn => {
                let mut v: Vec<f64> = (0..SPAWN_SAMPLES)
                    .map(|_| {
                        let t = Instant::now();
                        spawn();
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                v.sort_by(f64::total_cmp);
                v[SPAWN_SAMPLES / 2]
            }
        }
    }
}

/// Timings of the spawn kernel per calibration sample.
const SPAWN_SAMPLES: usize = 7;
/// Threads the spawn kernel spawns and joins, one at a time.
const SPAWNS: usize = 1000;

/// Slots of the random walk's table (4 bytes each).
const WALK_SLOTS: usize = 1 << 20;
/// Dependent loads of the random walk.
const WALK_STEPS: usize = 1 << 19;

/// Spawn and join `SPAWNS` scoped threads that do nothing, one at a
/// time, as a central batch of the `serve` daemon does.
fn spawn() {
    for i in 0..SPAWNS {
        std::thread::scope(|s| {
            s.spawn(|| black_box(i));
        });
    }
}

fn compute() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, vec![i as u8; 24 + (x % 64) as usize]);
        if let Some((_, v)) = map.range(x % 40_000..).next() {
            acc = acc.wrapping_add(v.len() as u64);
        }
        if i % 3 == 0 {
            map.remove(&((x >> 3) % 50_000));
        }
    }
    drop(map);
    // Sattolo's shuffle makes `next` one cycle through every slot.
    let mut next: Vec<u32> = (0..WALK_SLOTS as u32).collect();
    for i in (1..WALK_SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut at = 0usize;
    for _ in 0..WALK_STEPS {
        at = next[at] as usize;
    }
    black_box(acc + at as u64);
}
