//! CPU steal on a shared virtual host.
//!
//! The hypervisor can take a large share of a guest's CPUs for seconds
//! at a time; whatever is measured meanwhile describes the neighbours,
//! not the program. `run.py` waits for a quiet host before it starts
//! each benchmark process; inside a served run, the open-loop phases
//! read the steal share over what they measured, and a disturbed phase
//! is measured again.

/// `(steal, total)` jiffies of all CPUs so far (zeros off Linux).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}
