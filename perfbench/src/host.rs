//! Host fingerprint, a fixed CPU-bound calibration loop and the share of
//! CPU time the hypervisor took during the run, printed with every run so
//! that runs on different, throttled or crowded hosts can be told apart.

use std::hint::black_box;
use std::time::Instant;

/// What the run executed on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    /// Wall time of [`calibrate`], milliseconds.
    pub calibration_ms: f64,
}

impl Fingerprint {
    /// Read the processor description the operating system exposes
    /// (`/proc/cpuinfo`, `/sys/devices/system/cpu`); fields it does not
    /// expose read "unknown".
    pub fn probe() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            calibration_ms: calibrate(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host: nproc={} cpu=\"{}\" l2={} l3={} calibration_ms={:.1}",
            self.nproc, self.cpu_model, self.l2, self.l3, self.calibration_ms
        )
    }
}

/// Size in KiB of cpu0's unified cache at `level`, as the operating
/// system reports it.
pub fn cache_kib(level: u32) -> Option<usize> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        (read("level")?.trim() == level.to_string())
            .then(|| read("size"))
            .flatten()
            .and_then(|s| s.trim().trim_end_matches('K').parse().ok())
    })
}

fn cache_size(level: u32) -> String {
    cache_kib(level).map_or_else(|| "unknown".into(), |k| format!("{k}K"))
}

/// Time a fixed integer-hash loop (about 0.1 s on a current core).
pub fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..40_000_000u64 {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The system-wide CPU time counters (`/proc/stat`, in clock ticks): the
/// total over every state and the part stolen by the hypervisor.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters now (`None` where the system does not expose them).
    pub fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(CpuTimes {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }

    /// Share of all CPU time since `self` that the hypervisor stole.
    pub fn steal_since(self, now: CpuTimes) -> f64 {
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            now.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}
