//! Process counters, and a page-file size probe.
//!
//! Peak RSS and bytes written come from `/proc/self` (0 without
//! procfs). CPU time and context switches come from
//! `getrusage(RUSAGE_SELF)`: it sums every thread the process ever ran,
//! exited ones included, in microseconds, where `/proc/self/status`
//! counts the main thread only and `/proc/self/stat` counts 10 ms
//! ticks.

use std::path::Path;

/// One reading of the process counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kib: u64,
    /// Bytes passed to write-like syscalls (`wchar` in `io`).
    pub wchar: u64,
    /// User + system CPU time, µs.
    pub cpu_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let usage = rusage();
    let us = |tv: [i64; 2]| (tv[0].max(0) as u64) * 1_000_000 + tv[1].max(0) as u64;
    ProcSample {
        hwm_kib: field(&status, "VmHWM:"),
        wchar: field(&io, "wchar:"),
        cpu_us: us(usage.utime) + us(usage.stime),
        ctx_switches: (usage.nvcsw.max(0) + usage.nivcsw.max(0)) as u64,
    }
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss through nsignals (unused).
    _other: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage() -> RUsage {
    RUsage::default()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage() -> RUsage {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage`; the call
    // only writes into it.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return RUsage::default();
    }
    usage
}

/// Restarts the `VmHWM` peak from the current resident set, so the peak
/// excludes what was built and freed before (the reference answers).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`. Steal is
/// time a virtual CPU was ready but the hypervisor ran something else;
/// timings from a run with a high share of it are not comparable.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Size of a file in bytes (0 when it does not exist).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_running_process() {
        let s = sample();
        if Path::new("/proc/self/status").exists() {
            assert!(s.hwm_kib > 0);
        }
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {}
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t = sample();
        assert!(t.cpu_us >= s.cpu_us + 10_000, "{s:?} -> {t:?}");
        assert!(t.ctx_switches > s.ctx_switches);
    }
}
