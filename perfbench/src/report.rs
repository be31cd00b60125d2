//! What a workload run hands back, and the small statistics and checks
//! every workload shares.

use mining_types::FrequentSet;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations whose output check failed or that returned an error.
    pub failed: u64,
    /// False once any check outside the timed operations (fingerprint
    /// warm-up, stream checkpoints, representation sweeps) fails.
    pub checks_ok: bool,
    /// Measured values by metric name (units live in `main`'s tables).
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report with all checks passing so far.
    pub fn new() -> Report {
        Report {
            checks_ok: true,
            ..Report::default()
        }
    }

    /// Record the value of metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Record a check outside the timed operations; a failure is noted.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.checks_ok = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Count one timed operation and whether its output check passed.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least `p` % of the samples at or below it. With fewer than 100
/// samples the 99th percentile is the largest sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// resident size, so that `peak_rss_mib` reads the peak since this call.
/// False where `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size of a frequent set plus an FNV-1a hash of its sorted
/// `(itemset, support)` list: equal fingerprints mean equal outputs up to
/// a 64-bit hash collision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of frequent itemsets.
    pub len: usize,
    /// Hash of the sorted list.
    pub hash: u64,
}

impl Fingerprint {
    /// Fingerprint of `fs`.
    pub fn of(fs: &FrequentSet) -> Fingerprint {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |word: u32| {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let sorted = fs.sorted();
        for c in &sorted {
            put(c.itemset.len() as u32);
            for item in c.itemset.items() {
                put(item.0);
            }
            put(c.support);
        }
        Fingerprint {
            len: sorted.len(),
            hash: h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0, "ten samples lie beyond it");
        assert_eq!(
            percentile(&v[..30], 99.0),
            30.0,
            "short runs give the maximum"
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
