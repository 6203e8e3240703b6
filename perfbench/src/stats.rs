//! Small numeric and digest helpers shared by the workloads.

use std::time::Instant;
use wnw_telemetry::histogram::bucket_bounds;
use wnw_telemetry::HistogramSnapshot;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (pos - low as f64)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Milliseconds from `earlier` to `later` (0 if `later` is earlier).
pub fn ms_between(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// The `q`-quantile of the values recorded between two snapshots of one
/// service histogram, to the histogram's bucket resolution (midpoint of the
/// bucket holding the rank).
pub fn delta_quantile(after: &HistogramSnapshot, before: &HistogramSnapshot, q: f64) -> f64 {
    let counts: Vec<u64> = after
        .counts
        .iter()
        .zip(before.counts.iter())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let (low, high) = bucket_bounds(i);
            return low as f64 + (high - low) as f64 / 2.0;
        }
    }
    0.0
}

/// Order-independent digest of `lines`: FNV-1a over the sorted,
/// newline-terminated lines, in the style of
/// `wnw_loadgen::WorkPlan::fingerprint`.
pub fn fingerprint(mut lines: Vec<String>) -> u64 {
    lines.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines.iter().flat_map(|l| l.bytes().chain(*b"\n")) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 step: decorrelates per-job seeds from the run seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn fingerprint_ignores_order() {
        let a = fingerprint(vec!["x".into(), "y".into()]);
        let b = fingerprint(vec!["y".into(), "x".into()]);
        assert_eq!(a, b);
        assert_ne!(a, fingerprint(vec!["x".into(), "z".into()]));
    }
}
