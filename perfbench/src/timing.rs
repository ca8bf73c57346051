//! Host-time measurement from outside the simulator: the clock, a
//! timing [`Router`] wrapper, sample statistics and the process memory
//! high-water mark. Nothing here feeds back into simulated time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use system::{ReplicaLoad, Router};
use workload::Request;

/// The host clock.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now() // simlint: allow(wall-clock): host timing only; nothing simulated reads it
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whole nanoseconds in `d`, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call route latencies collected from every [`TimedRouter`] sharing
/// it. Each router keeps its own samples while the cluster runs and
/// hands them over when dropped, so the hot path takes no lock.
#[derive(Debug, Clone, Default)]
pub struct RouteTimes(Arc<Mutex<Vec<u64>>>);

impl RouteTimes {
    /// Removes and returns the collected per-call nanoseconds.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().expect("route-time sink poisoned"))
    }
}

/// A [`Router`] that forwards to an inner router and times each
/// `route` call. It changes no decision: label, load inspection and
/// every pick are the inner router's.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    samples: Vec<u64>,
    sink: RouteTimes,
}

impl TimedRouter {
    /// Wraps `inner`, reporting into `sink` when dropped.
    pub fn new(inner: Box<dyn Router>, sink: &RouteTimes) -> Self {
        TimedRouter {
            inner,
            samples: Vec::new(),
            sink: sink.clone(),
        }
    }
}

impl Router for TimedRouter {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn route(&mut self, req: &Request, loads: &[ReplicaLoad]) -> usize {
        let t = now();
        let pick = self.inner.route(req, loads);
        self.samples.push(nanos(t.elapsed()));
        pick
    }

    fn inspects_load(&self) -> bool {
        self.inner.inspects_load()
    }
}

impl Drop for TimedRouter {
    fn drop(&mut self) {
        // A poisoned sink only loses samples; never panic in drop.
        if let Ok(mut sink) = self.sink.0.lock() {
            sink.append(&mut self.samples);
        }
    }
}

/// Times one call, returning its result and whole nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = now();
    let out = std::hint::black_box(f());
    (out, nanos(t.elapsed()))
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The host CPUs the calling thread may run on, as a Linux `cpu_set_t`
/// (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The set holding only `cpu`.
    pub fn single(cpu: usize) -> CpuSet {
        let mut bits = [0u64; 16];
        bits[cpu / 64] |= 1 << (cpu % 64);
        CpuSet(bits)
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..16 * 64)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU affinity, if the platform reports it.
pub fn affinity() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size` bytes into `set`,
        // which lives for the whole call.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (ok == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread, and threads it spawns later, to `set`;
/// false if the platform refused.
pub fn set_affinity(set: CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: the kernel reads `size` bytes from `set`, which lives
        // for the whole call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB, if
/// the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
