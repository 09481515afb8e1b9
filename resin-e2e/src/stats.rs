//! The few statistics the benchmark reports: a percentile rule that refuses
//! to read a tail it has no samples for, and median / min / max over trials.

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a trial of `n` samples may report: the highest of
/// p99 / p90 / p50 that still has at least ten samples beyond it. Every
/// frozen count is ≥ 1000, so full runs report p99; `--quick` runs fall
/// back and say so.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [0.99, 0.90] {
        let rank = ((n as f64) * p).ceil() as usize;
        if n.saturating_sub(rank) >= 10 {
            return p;
        }
    }
    0.50
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_u64(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// A metric as a run reports it: the median over trials of the per-trial
/// value, with the trials' min and max beside it as the run's own noise
/// record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(per_trial: &[f64]) -> Summary {
        Summary {
            median: median(per_trial),
            min: per_trial.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_trial.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
        }
    }

    /// Min–max spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.max - self.min) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 has exactly ten samples beyond it; of 999, nine.
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.50);
        assert_eq!(tail_percentile(30_000), 0.99);
    }

    #[test]
    fn summary_is_median_of_trials_with_min_max() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                median: 4.0,
                min: 1.0,
                max: 9.0
            }
        );
        assert_eq!(s.spread(), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(Summary::single(2.0).spread(), 0.0);
    }
}
