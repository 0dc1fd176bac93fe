//! Small measurement helpers: order statistics, peak resident memory and
//! output digests.

/// Nearest-rank `q`-quantile of `samples` (`0 < q ≤ 1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over `bytes`, as 16 hex digits: integer arithmetic on fixed
/// constants, stable across platforms and compiler versions.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Compare an output digest with its pinned value, when one is pinned.
pub fn check_digest(actual: &str, pinned: Option<&str>) -> Result<(), String> {
    match pinned {
        Some(expected) if expected != actual => Err(format!(
            "output digest {actual} differs from the pinned {expected}"
        )),
        _ => Ok(()),
    }
}

/// Peak resident memory of this process so far, in MiB: the kernel's
/// `VmHWM` high-water mark from `/proc/self/status`. (`getrusage`'s
/// `ru_maxrss` would also carry the peak of whatever process exec'd this
/// one, such as the launcher script.)
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}
