//! The few statistics the benchmark reports, each a pure function.

/// Sort a copy of `values` ascending (NaN never occurs: inputs are measured
/// durations and simulated latencies).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Quantile `q` in `[0, 1]` of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile (a whole number, at most 99) that leaves at least
/// ten samples beyond it: 90 at 100 samples, 80 at 50, 99 from 1,000 up.
/// Under 20 samples no tail percentile is supported and the median stands
/// in.
pub fn tail_percentile(samples: usize) -> u32 {
    if samples < 20 {
        return 50;
    }
    let pct = 100 * (samples - 10) / samples;
    (pct as u32).clamp(50, 99)
}

/// Median of the last quarter of `units` over the median of the first
/// quarter: 1.0 when per-unit cost is flat, above 1 when state that
/// accumulates across units makes later units dearer.
pub fn degradation_ratio(units: &[f64]) -> f64 {
    let quarter = (units.len() / 4).max(1);
    median(&units[units.len() - quarter..]) / median(&units[..quarter])
}

/// Requests that were not served, over requests attempted. A refusal
/// (`SERVFAIL`, a fail-over drop) is a failure like any other.
pub fn failed_share(attempted: u64, served: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    attempted.saturating_sub(served) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(150), 93);
        assert_eq!(tail_percentile(120), 91);
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(366), 97);
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(1_000_000), 99, "capped at p99");
        assert_eq!(tail_percentile(19), 50, "too few samples for a tail");
        for n in 20..2_000usize {
            let p = tail_percentile(n) as usize;
            assert!(n * (100 - p) >= 10 * 100, "p{p} of {n} leaves <10 beyond");
            if p < 99 {
                assert!(
                    n * (100 - (p + 1)) < 10 * 100,
                    "p{} of {n} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn degradation_ratio_on_a_synthetic_ramp() {
        // Unit i costs 1 + i: first quarter 1..=25 (median 13), last
        // quarter 76..=100 (median 88).
        let ramp: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        assert_eq!(degradation_ratio(&ramp), 88.0 / 13.0);
        assert_eq!(degradation_ratio(&[2.0; 40]), 1.0);
        // One slow outlier in the last quarter does not move a median.
        let mut flat = vec![1.0; 40];
        flat[39] = 50.0;
        assert_eq!(degradation_ratio(&flat), 1.0);
    }

    #[test]
    fn failed_share_counts_refusals_as_failures() {
        // 100 queries: 90 served, 7 SERVFAILed, 3 dropped after fail-over.
        assert_eq!(failed_share(100, 90), 0.10);
        assert_eq!(failed_share(100, 100), 0.0);
        assert_eq!(failed_share(0, 0), 0.0);
    }
}
