//! Measurement collection: summary statistics, CDFs and latency recorders.
//!
//! The benchmark harness records per-request latencies (HTTP response
//! times, domain build times, ICMP RTTs, …) into these structures and then
//! renders them as the paper's figures via [`crate::report`].

use crate::time::SimDuration;

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SummaryStats {
    /// Compute summary statistics from raw values. Returns `None` for an
    /// empty input.
    pub fn from_values(values: &[f64]) -> Option<SummaryStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        Some(SummaryStats {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            std_dev: var.sqrt(),
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }

    /// The statistics as `(field name, value)` pairs, in a fixed order — the
    /// serialization hook used by the `bench_snapshot` harness to emit each
    /// summary as machine-readable metrics without the crate knowing any
    /// output format.
    pub fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("count", self.count as f64),
            ("min", self.min),
            ("max", self.max),
            ("mean", self.mean),
            ("std_dev", self.std_dev),
            ("median", self.median),
            ("p95", self.p95),
            ("p99", self.p99),
        ]
    }
}

/// Percentile of an already-sorted slice using linear interpolation.
///
/// `pct` is clamped to `[0, 100]`: out-of-range requests return the min or
/// max element rather than indexing out of range. `pct = 0` is exactly the
/// minimum and `pct = 100` exactly the maximum (no interpolation residue).
/// A NaN `pct` has no defensible answer and returns NaN.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() || pct.is_nan() {
        return f64::NAN;
    }
    if pct <= 0.0 {
        return sorted[0];
    }
    if pct >= 100.0 {
        return sorted[sorted.len() - 1];
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice. `pct` outside `[0, 100]` is clamped
/// (see [`SummaryStats`]-style semantics: 0 → min, 100 → exact max).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// An empirical cumulative distribution function built from samples.
///
/// Used for Figure 9a/9b, which plot HTTP response time CDFs.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Create an empty CDF.
    pub fn new() -> Cdf {
        Cdf::default()
    }

    /// Build a CDF from raw values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Cdf {
        let mut cdf = Cdf::new();
        for v in values {
            cdf.record(v);
        }
        cdf
    }

    /// Record a sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The fraction of samples ≤ `value`, in `[0, 1]`.
    pub fn fraction_below(&mut self, value: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&x| x <= value);
        n as f64 / self.samples.len() as f64
    }

    /// The value at the given percentile (0–100).
    pub fn percentile(&mut self, pct: f64) -> f64 {
        self.ensure_sorted();
        percentile_sorted(&self.samples, pct)
    }

    /// Return `(value, cumulative_fraction)` points suitable for plotting,
    /// evaluated at every sample.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Evaluate the CDF on a fixed grid of `steps+1` points between `lo` and
    /// `hi` — the form used to print the paper's CDF figures as rows.
    pub fn grid(&mut self, lo: f64, hi: f64, steps: usize) -> Vec<(f64, f64)> {
        let steps = steps.max(1);
        (0..=steps)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / steps as f64;
                (x, self.fraction_below(x))
            })
            .collect()
    }
}

/// An accumulator for per-request latencies that reports the tail
/// percentiles the boot-storm experiment cares about (p50/p95/p99
/// time-to-first-byte).
///
/// It keeps the raw samples, so percentiles are exact regardless of range,
/// and unlike [`Cdf`] it speaks [`SimDuration`] natively.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_ms: Vec<f64>,
}

impl LatencyRecorder {
    /// Create an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ms.push(d.as_millis_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// The given percentile (0–100) in milliseconds, or 0.0 when empty
    /// (convenient for rendering report rows for all-SERVFAIL cells).
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        percentile(&self.samples_ms, pct)
    }

    /// Several percentiles (0–100) in one pass: the samples are cloned and
    /// sorted once, not once per percentile. Returns 0.0 entries when no
    /// samples have been recorded.
    pub fn percentiles_ms(&self, pcts: &[f64]) -> Vec<f64> {
        if self.samples_ms.is_empty() {
            return vec![0.0; pcts.len()];
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(f64::total_cmp);
        pcts.iter()
            .map(|&p| percentile_sorted(&sorted, p))
            .collect()
    }

    /// Median latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 95th-percentile latency in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(95.0)
    }

    /// 99th-percentile latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// Full summary statistics over the recorded samples, in milliseconds.
    pub fn summary(&self) -> Option<SummaryStats> {
        SummaryStats::from_values(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_stats_basics() {
        let s = SummaryStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
        assert!(SummaryStats::from_values(&[]).is_none());
    }

    #[test]
    fn summary_fields_serialize_in_a_fixed_order() {
        let s = SummaryStats::from_values(&[1.0, 2.0, 3.0]).unwrap();
        let fields = s.fields();
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["count", "min", "max", "mean", "std_dev", "median", "p95", "p99"]
        );
        assert_eq!(fields[0].1, 3.0);
        assert_eq!(fields[1].1, 1.0);
        assert_eq!(fields[2].1, 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&v, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_requests() {
        // Regression: out-of-range percentiles must clamp to the extremes
        // rather than interpolating off the end of the slice.
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, -5.0), 10.0);
        assert_eq!(percentile(&v, 250.0), 40.0);
        assert!(percentile(&v, f64::NAN).is_nan());
    }

    #[test]
    fn percentile_100_is_exactly_the_max() {
        // pct = 100 must return the max element itself, bit for bit — no
        // interpolation residue from `rank = (n-1) * (100/100)`.
        let v: Vec<f64> = (0..997).map(|i| (i as f64) * 0.1 + 0.3).collect();
        let max = *v.last().unwrap();
        assert_eq!(percentile(&v, 100.0), max);
        assert_eq!(percentile(&v, 0.0), v[0]);
    }

    #[test]
    fn nan_samples_sort_to_the_ends_and_leave_the_numbers_in_order() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` is not a total
        // order, and one NaN left `[3, NaN, 1, 2]` unsorted, so the 0th
        // percentile read 3.
        assert_eq!(percentile(&[3.0, f64::NAN, 1.0, 2.0], 0.0), 1.0);
        let mut cdf = Cdf::from_values([3.0, f64::NAN, 1.0, -f64::NAN, 2.0, 0.5]);
        let sorted: Vec<f64> = cdf.points().into_iter().map(|(v, _)| v).collect();
        let numeric: Vec<usize> = (0..sorted.len()).filter(|&i| !sorted[i].is_nan()).collect();
        assert_eq!(numeric, [1, 2, 3, 4], "numbers contiguous: {sorted:?}");
        assert_eq!(sorted[1..5], [0.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn cdf_fraction_and_percentile() {
        let mut cdf = Cdf::from_values((1..=100).map(|i| i as f64));
        assert_eq!(cdf.len(), 100);
        assert!(!cdf.is_empty());
        assert!((cdf.fraction_below(50.0) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_below(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert!((cdf.percentile(50.0) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut cdf = Cdf::from_values([5.0, 1.0, 3.0, 2.0, 4.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_grid_covers_range() {
        let mut cdf = Cdf::from_values([100.0, 200.0, 300.0]);
        let grid = cdf.grid(0.0, 400.0, 4);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0], (0.0, 0.0));
        assert!((grid[4].1 - 1.0).abs() < 1e-12);
        // Empty CDF yields all-zero fractions.
        let mut empty = Cdf::new();
        assert!(empty.grid(0.0, 1.0, 2).iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    fn latency_recorder_percentiles() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.percentile_ms(99.0), 0.0);
        for ms in 1..=100u64 {
            rec.record(SimDuration::from_millis(ms));
        }
        assert_eq!(rec.count(), 100);
        assert!((rec.p50_ms() - 50.5).abs() < 1e-9);
        assert!(rec.p95_ms() > rec.p50_ms());
        assert!(rec.p99_ms() > rec.p95_ms());
        assert!(rec.p99_ms() <= 100.0);
        let summary = rec.summary().unwrap();
        assert_eq!(summary.count, 100);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 100.0);
        // The batched form agrees with the one-at-a-time form.
        assert_eq!(
            rec.percentiles_ms(&[50.0, 95.0, 99.0]),
            vec![rec.p50_ms(), rec.p95_ms(), rec.p99_ms()]
        );
        assert_eq!(
            LatencyRecorder::new().percentiles_ms(&[50.0, 99.0]),
            vec![0.0, 0.0]
        );
    }
}
