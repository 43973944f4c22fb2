//! Order statistics of one run's samples.

/// Samples that must lie beyond a reported percentile for it to count
/// as supported by the run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of `sorted`, which must
/// be sorted ascending. An empty sample reads 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean; an empty sample reads 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest whole percentile that at least [`MIN_BEYOND`] of `n`
/// samples lie beyond, or `None` when the sample supports none (fewer
/// than `MIN_BEYOND + 1` samples).
pub fn supported_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= MIN_BEYOND)
}

/// States on standard error how many samples a timing rests on, the
/// highest percentile they support, and their median and extremes.
pub fn describe(what: &str, samples: &[f64]) {
    let v = sorted(samples);
    let support = supported_percentile(v.len()).map_or("none".to_string(), |p| format!("p{p}"));
    eprintln!(
        "{what}: {} samples, highest supported percentile {support}; min {:.3} median {:.3} max {:.3}",
        v.len(),
        quantile(&v, 0.0),
        quantile(&v, 0.5),
        quantile(&v, 1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // Ten samples cannot support any percentile: nothing would lie
        // beyond even the first.
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(11), Some(9));
        // p90 needs 100 samples (90th rank, ten beyond it)...
        assert_eq!(supported_percentile(99), Some(89));
        assert_eq!(supported_percentile(100), Some(90));
        // ...and p99 needs 1000.
        assert_eq!(supported_percentile(999), Some(98));
        assert_eq!(supported_percentile(1000), Some(99));
        // The rule's definition, checked directly on every size.
        for n in 11..1500usize {
            let p = supported_percentile(n).expect("n > 10 supports some percentile");
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - next < MIN_BEYOND, "n={n}: p{} also fits", p + 1);
            }
        }
    }
}
