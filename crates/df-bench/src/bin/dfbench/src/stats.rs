//! Order statistics over timing samples.

/// The summary every metric is reported with: sample count, median and quartiles
/// (and the 95th percentile where the sample supports it).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A metric measured once per run (a counter, a high-water mark).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: percentile_sorted(&sorted, 0.5),
            q1: percentile_sorted(&sorted, 0.25),
            q3: percentile_sorted(&sorted, 0.75),
        }
    }

    /// A statistic over many samples (thousands of statement latencies): the value is
    /// the statistic of all of them, and the quartiles are those of the same
    /// statistic over `blocks` consecutive chunks — how steady the statistic was
    /// through the run, not how wide the latency distribution is.
    pub fn blocked(samples: &[f64], blocks: usize, statistic: impl Fn(&[f64]) -> f64) -> Summary {
        let chunk = samples.len().div_ceil(blocks.max(1)).max(1);
        let per_block: Vec<f64> = samples.chunks(chunk).map(&statistic).collect();
        Summary {
            n: samples.len(),
            median: statistic(samples),
            ..Summary::of(&per_block)
        }
    }

    /// The same summary in another unit (seconds → milliseconds).
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a single sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, linearly interpolated
/// between the two nearest ranks; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let rank = p.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let summary = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(summary.n, 5);
        assert_eq!((summary.q1, summary.median, summary.q3), (2.0, 3.0, 4.0));
        assert!((summary.spread() - 2.0 / 3.0).abs() < 1e-12);
        let even = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((even.q1, even.median, even.q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn percentile_selects_the_tail_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&samples, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        // Order of the input does not matter.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.95), percentile(&samples, 0.95));
    }

    #[test]
    fn blocked_summaries_report_the_statistics_steadiness() {
        // Two latency classes, 1 and 100, alternating: the raw quartiles span both
        // classes, the per-block medians do not.
        let samples: Vec<f64> = (0..800)
            .map(|i| if i % 2 == 0 { 1.0 } else { 100.0 })
            .collect();
        assert!(Summary::of(&samples).spread() > 1.0);
        let steady = Summary::blocked(&samples, 8, |block| percentile(block, 0.25));
        assert_eq!((steady.n, steady.median, steady.spread()), (800, 1.0, 0.0));
        // Fewer samples than blocks still works.
        assert_eq!(Summary::blocked(&[3.0], 8, median).median, 3.0);
        assert_eq!(Summary::blocked(&[], 8, median).median, 0.0);
    }

    #[test]
    fn single_valued_summaries_have_no_spread() {
        let summary = Summary::single(42.0);
        assert_eq!(summary.spread(), 0.0);
        assert_eq!(summary.n, 1);
    }
}
