//! Process and host accounting read from `/proc` (Linux only; the
//! benchmark refuses to run where these files are missing rather than
//! report zeros).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux has exported 100 to user space on every
/// architecture since 2.6 (`USER_HZ`), independent of the kernel's HZ.
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of this process's CPU time and minor-fault
/// count (all threads, including ones that already exited) plus the
/// host's stolen and total CPU ticks.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds consumed by the process.
    pub cpu_s: f64,
    /// Minor page faults taken by the process.
    pub minflt: u64,
    /// Host-wide stolen ticks (`/proc/stat`, `cpu` line).
    pub steal_ticks: u64,
    /// Host-wide ticks across all states.
    pub total_ticks: u64,
}

impl Usage {
    /// Reads the counters now.
    ///
    /// # Panics
    /// Panics when `/proc` is not mounted or has an unexpected shape.
    #[must_use]
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // the command name (field 2) may contain spaces and parentheses:
        // the numeric fields start after the *last* ')'
        let tail = &stat[stat.rfind(')').expect("comm field") + 1..];
        let fields: Vec<&str> = tail.split_ascii_whitespace().collect();
        // tail[0] is field 3 (state); minflt = field 10, utime = 14, stime = 15
        let num = |field: usize| -> u64 {
            fields[field - 3]
                .parse()
                .expect("numeric /proc/self/stat field")
        };
        let host = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let cpu: Vec<u64> = host
            .lines()
            .next()
            .expect("cpu line")
            .split_ascii_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("numeric /proc/stat field"))
            .collect();
        Self {
            cpu_s: (num(14) + num(15)) as f64 / USER_HZ,
            minflt: num(10),
            // user nice system idle iowait irq softirq steal [guest guest_nice]:
            // guest time is already inside user, so sum the first eight only
            steal_ticks: cpu.get(7).copied().unwrap_or(0),
            total_ticks: cpu.iter().take(8).sum(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
/// Panics when `/proc/self/status` is missing or lacks `VmHWM`.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
