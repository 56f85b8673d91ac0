//! Order statistics, process memory and host context.

use crate::trace::{now, secs_since};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without its lowest and its highest value;
/// `0.0` for fewer than three values.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.len() < 3 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[1..v.len() - 1];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// RSS, so the next [`peak_rss_mb`] reads the peak since this call.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB; `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds one run of the reference kernel takes: a Fisher–Yates
/// shuffle of 4 Mi `u32`, then its 2 Mi pairs inserted into a 32 MiB
/// open-addressing table, both in freshly allocated memory. That is the
/// random-access, page-faulting pattern of regular-graph generation, in
/// code the program does not share, so a change to the program cannot
/// move it; what moves it is the host (see [`REFERENCE_KERNEL_S`]).
pub fn reference_kernel_s() -> f64 {
    const N: usize = 1 << 22;
    let t0 = now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 32
    };
    let mut v: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        let j = ((next() * (i as u64 + 1)) >> 32) as usize;
        v.swap(i, j);
    }
    // Keys are pairs + 1, so 0 marks an empty slot; half full.
    let mut table = vec![0u64; N];
    let mut stored = 0usize;
    for pair in v.chunks_exact(2) {
        let key = ((u64::from(pair[0]) << 32) | u64::from(pair[1])) + 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 42) as usize;
        while table[slot] != 0 && table[slot] != key {
            slot = (slot + 1) & (N - 1);
        }
        if table[slot] == 0 {
            table[slot] = key;
            stored += 1;
        }
    }
    std::hint::black_box(stored);
    secs_since(t0)
}

/// A round figure for [`reference_kernel_s`] on the reference host
/// (2-vCPU Xeon VM; its run medians span 0.09–0.13 s in `RESULTS.md`).
/// End-to-end timings are scaled by this ÷ the kernel's time around
/// each pass, so they read as seconds on a host where the kernel takes
/// this long.
pub const REFERENCE_KERNEL_S: f64 = 0.125;

/// Online CPUs as `/proc/cpuinfo` lists them (what `nproc --all`
/// reports); `0` where `/proc` is unavailable.
pub fn cpus_online() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Worker threads the OS lets this process run in parallel.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The commit of the checkout when it is a git work tree (read from
/// `.git` without running git); `"unknown"` otherwise.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(trimmed_mean(&[54.0, 180.0, 66.0, 45.0, 60.0]), 60.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 0.0);
    }
}
