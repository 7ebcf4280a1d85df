//! The host the numbers came from, and process-level gauges read from
//! `/proc` (Linux): peak resident memory and the live thread count.

use std::time::Duration;

/// Cores this process may use (`available_parallelism`, which honours
/// CPU affinity and cgroup quotas).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// One line naming the host class: core count, CPU model, the ChaCha
/// kernel's lane width, and the toolchain.
pub fn descriptor() -> String {
    format!(
        "host: nproc={} cpu=\"{}\" chacha.lanes={} rustc=\"{}\"",
        nproc(),
        cpu_model(),
        rand_chacha::wide_lanes(),
        rustc_version()
    )
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process (`Threads:` in `/proc/self/status`).
pub fn threads() -> usize {
    status_kb("Threads:").map_or(0, |t| t as usize)
}

/// Samples the process's thread count every millisecond on a thread of
/// its own while `f` runs, and returns `f`'s result with the peak count
/// of threads other than the sampler.
pub fn with_thread_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(threads().saturating_sub(1), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}
