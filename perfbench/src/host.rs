//! Host-noise record: what a slow run needs to be pinned on the host
//! rather than on the code under test.
//!
//! - a fixed calibration kernel, timed at the start and end of a run;
//! - how busy the *other* CPUs were over the run, from `/proc/stat`
//!   minus this process's own CPU time (on a 2-vCPU host whose vCPUs
//!   share a core, a busy sibling slows this process ~1.8×);
//! - CPU model, CPU count and source revision.
//!
//! Every reader degrades to a neutral value off Linux or when a file is
//! missing; none of them can fail a run.

use crate::ledger::median;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times the calibration kernel `reps` times and returns the median in
/// nanoseconds. The kernel is a fixed xorshift/popcount loop over a
/// 4 KiB buffer: integer work of the same flavour as the bit-sliced
/// evaluator, independent of every crate under test.
pub fn calibrate_ns(reps: usize) -> f64 {
    let mut buf = [0u64; 512];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut acc = 0u64;
        for round in 0..256u64 {
            for word in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *word ^= x.rotate_left((round & 63) as u32);
                acc = acc.wrapping_add(u64::from(word.count_ones()));
            }
        }
        black_box(acc);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Aggregate CPU counters from `/proc/stat` plus this process's own CPU
/// time, all in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnapshot {
    cpus: usize,
    total: u64,
    busy: u64,
    own: u64,
}

impl CpuSnapshot {
    pub fn take() -> Self {
        let mut snap = CpuSnapshot::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            for line in stat.lines() {
                let mut fields = line.split_whitespace();
                match fields.next() {
                    Some("cpu") => {
                        let ticks: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
                        snap.total = ticks.iter().sum();
                        // idle + iowait are the non-busy columns.
                        let idle =
                            ticks.get(3).copied().unwrap_or(0) + ticks.get(4).copied().unwrap_or(0);
                        snap.busy = snap.total.saturating_sub(idle);
                    }
                    Some(name) if name.starts_with("cpu") => snap.cpus += 1,
                    _ => {}
                }
            }
        }
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
                snap.own = field(11).unwrap_or(0) + field(12).unwrap_or(0);
            }
        }
        snap
    }

    /// Busy share of every CPU but the one this process ran on, between
    /// `self` and `later`: (all busy ticks − own ticks) over the other
    /// CPUs' capacity. 0 on a single-CPU host.
    pub fn other_busy_frac(&self, later: &CpuSnapshot) -> f64 {
        let cpus = later.cpus.max(1);
        if cpus < 2 {
            return 0.0;
        }
        let total = later.total.saturating_sub(self.total) as f64;
        let others_capacity = total * (cpus - 1) as f64 / cpus as f64;
        if others_capacity <= 0.0 {
            return 0.0;
        }
        let busy = later.busy.saturating_sub(self.busy) as f64;
        let own = later.own.saturating_sub(self.own) as f64;
        ((busy - own) / others_capacity).clamp(0.0, 1.0)
    }
}

/// Peak resident set size in MiB (`VmHWM`), 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Source revision of the working directory when it is a git checkout,
/// otherwise `"unknown"` (benchmark checkouts are plain file trees).
pub fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_readers_are_sane() {
        assert!(calibrate_ns(3) > 0.0);
        let before = CpuSnapshot::take();
        let after = CpuSnapshot::take();
        let frac = before.other_busy_frac(&after);
        assert!((0.0..=1.0).contains(&frac));
        assert!(peak_rss_mb() >= 0.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
