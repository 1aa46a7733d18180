//! Sample statistics and process resource readings.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The p99 of `values`, or `None` when fewer than ten samples lie beyond it.
pub fn p99(values: &[f64]) -> Option<f64> {
    (values.len() as f64 * 0.01 >= 10.0).then(|| quantile(values, 0.99))
}

/// The highest percentile up to p99 with at least ten samples beyond it.
pub fn tail(values: &[f64]) -> f64 {
    p99(values)
        .unwrap_or_else(|| quantile(values, (1.0 - 10.0 / values.len().max(1) as f64).max(0.5)))
}

/// Samples per block: a block's p99 has ten samples beyond it.
const BLOCK: usize = 1000;

/// Streaming latency quantiles in constant memory. Samples from consecutive
/// runs gather into blocks of at least `BLOCK`; each full block contributes
/// its p50 and p99, and the result is the median over blocks. A burst of
/// outside load on the host then moves a few blocks, not the result.
#[derive(Debug, Default)]
pub struct Blocks {
    current: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Blocks {
    /// Add one run's samples, in nanoseconds.
    pub fn push_ns(&mut self, samples: &[u64]) {
        self.current.extend(samples.iter().map(|&ns| ns as f64 * 1e-3));
        if self.current.len() >= BLOCK {
            self.p50.push(median(&self.current));
            self.p99.push(quantile(&self.current, 0.99));
            self.current.clear();
        }
    }

    /// Median over blocks of the block medians, in microseconds.
    pub fn p50_us(&self) -> f64 {
        if self.p50.is_empty() {
            median(&self.current)
        } else {
            median(&self.p50)
        }
    }

    /// Median over blocks of the block p99s, in microseconds. Before the
    /// first full block, the highest percentile the samples support.
    pub fn p99_us(&self) -> f64 {
        if self.p99.is_empty() {
            tail(&self.current)
        } else {
            median(&self.p99)
        }
    }
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process, in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(p99(&vec![1.0; 999]).is_none());
        assert_eq!(p99(&vec![1.0; 1000]), Some(1.0));
    }

    #[test]
    fn blocks_take_the_median_over_full_blocks() {
        let mut blocks = Blocks::default();
        blocks.push_ns(&[1_000; 10]);
        assert_eq!(blocks.p50_us(), 1.0);
        for _ in 0..3 {
            blocks.push_ns(&[2_000; 1000]);
        }
        blocks.push_ns(&[9_000_000; 500]);
        assert_eq!(blocks.p50_us(), 2.0);
        assert_eq!(blocks.p99_us(), 2.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds().expect("cpu time") >= 0.0);
        assert!(peak_rss_mib().expect("peak rss") > 0.0);
    }
}
