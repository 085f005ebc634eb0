//! Read-only views of the process and the host, taken from the kernel's
//! own accounting: process CPU time, hypervisor steal, per-thread
//! run-queue wait and voluntary context switches, and peak RSS.
//!
//! Nothing here changes a setting; every read is of `/proc` or of the
//! process CPU clock.

use std::fs;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, summed over all of its
/// threads, including threads that have exited.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the x86-64 /
    // aarch64 Linux layout (two 64-bit fields), and clock_gettime writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// One reading of every counter a timed window is bracketed by.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    cpu: Duration,
    /// `steal` and the sum of all columns of the `cpu` line of `/proc/stat`.
    steal_ticks: u64,
    total_ticks: u64,
    /// Run-queue wait summed over the process's live threads
    /// (`/proc/self/task/*/schedstat`, second field).
    run_delay_ns: u64,
    /// `voluntary_ctxt_switches` summed over the process's live threads.
    vol_ctx: u64,
}

/// Movement of the counters between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Process CPU time spent in the window.
    pub cpu: Duration,
    /// Share of all CPU time on the host taken by the hypervisor, in %.
    pub steal_pct: f64,
    /// Run-queue wait of this process's threads in the window.
    pub run_delay: Duration,
    /// Voluntary context switches (parks, blocking waits) in the window.
    pub vol_ctx: u64,
}

impl HostSample {
    /// Read every counter now.
    pub fn now() -> Self {
        let (steal_ticks, total_ticks) = cpu_ticks();
        let (run_delay_ns, vol_ctx) = task_counters();
        HostSample {
            cpu: process_cpu(),
            steal_ticks,
            total_ticks,
            run_delay_ns,
            vol_ctx,
        }
    }

    /// Counter movement from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostDelta {
        let total = self.total_ticks.saturating_sub(earlier.total_ticks);
        let steal = self.steal_ticks.saturating_sub(earlier.steal_ticks);
        HostDelta {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            steal_pct: if total == 0 {
                0.0
            } else {
                100.0 * steal as f64 / total as f64
            },
            run_delay: Duration::from_nanos(self.run_delay_ns.saturating_sub(earlier.run_delay_ns)),
            vol_ctx: self.vol_ctx.saturating_sub(earlier.vol_ctx),
        }
    }
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user, so it is not added again.
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|c| c.parse().ok())
        .collect();
    (cols.get(7).copied().unwrap_or(0), cols.iter().sum())
}

/// `(run_delay_ns, voluntary_ctxt_switches)` summed over live threads.
fn task_counters() -> (u64, u64) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut delay = 0;
    let mut vol = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
            delay += s
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
        if let Ok(s) = fs::read_to_string(dir.join("status")) {
            vol += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    (delay, vol)
}

/// One-line host description: processors, CPU model, cache sizes.
pub fn describe() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or("?".to_string(), |v| v.trim().to_string())
    };
    format!(
        "host: {cpus} cpus, {}, cache {}",
        field("model name"),
        field("cache size")
    )
}
