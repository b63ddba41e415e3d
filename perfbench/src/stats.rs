//! Order statistics, the simulation fingerprint and process memory.

use std::fmt::Debug;

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let (Some(&a), Some(&b)) = (sorted.get(low), sorted.get(high)) else {
        return 0.0;
    };
    a + (b - a) * (rank - low as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// An FNV-1a digest over the `Debug` rendering of deterministic
/// simulated statistics. Two runs of one seed must produce the same
/// digest; a speed-only change must leave it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds a labelled value in.
    pub fn add(&mut self, label: &str, value: &impl Debug) {
        for byte in format!("{label}={value:?};").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Hex rendering for reports.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_see_every_field() {
        let mut a = Fingerprint::default();
        a.add("x", &(1u64, 2u64));
        let mut b = Fingerprint::default();
        b.add("x", &(1u64, 3u64));
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.add("x", &(1u64, 2u64));
        assert_eq!(a, c);
        assert_eq!(a.hex().len(), 16);
    }
}
