//! Pinning the process to one CPU.
//!
//! The `serve` daemon runs central batches on freshly spawned scoped
//! threads once its autoscaler adds a pipe. On a shared 2-vCPU host those
//! threads wait on each other whenever the host takes one vCPU away, and
//! soaks of near-identical work took anywhere from 2.0 to 3.9 s. Pinned to
//! one CPU the threads run one after another on it: the spawns and joins
//! are still timed, but no thread waits for a second core.

/// Words of a `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on, to
/// the CPU it is running on. Returns that CPU, or `None` if the system
/// refused.
#[cfg(target_os = "linux")]
pub fn to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU id.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    if cpu >= SET_WORDS * 64 {
        return None;
    }
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer for the whole call;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn to_current_cpu() -> Option<usize> {
    None
}
