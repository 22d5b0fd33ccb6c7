//! Estimators: per-round percentiles and the round that represents a run.

/// Which way a metric improves; decides what "best" means across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The `p`-th percentile (nearest rank) of `samples`, which are sorted in
/// place. `p` is in `[0, 100]`.
///
/// # Panics
/// Panics on an empty slice: a round without samples is a harness bug.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank, sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Rank (0 = best) of the round that represents a run: the third-best.
///
/// Interference on a shared VM only ever adds time, so the good end of a
/// run's rounds is the stable one, and the single best round can still be
/// a fluke.
pub const REPRESENTATIVE_RANK: usize = 2;

/// The `rank`-th best value of `samples` (rank 0 = lowest latency or
/// highest throughput); with fewer samples than that, the worst there is.
///
/// # Panics
/// Panics when `samples` is empty.
pub fn nth_best(samples: &[f64], rank: usize, better: Better) -> f64 {
    assert!(!samples.is_empty(), "no samples to choose from");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut odd = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut odd), 5.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 95.0), 7.0);
    }

    #[test]
    fn p95_of_256_leaves_twelve_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=256).map(f64::from).collect();
        let p95 = percentile(&mut v, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 12);
    }

    #[test]
    fn nth_best_counts_from_the_good_end() {
        let lat = [
            470.0, 950.0, 480.0, 500.0, 490.0, 700.0, 485.0, 495.0, 510.0,
        ];
        assert_eq!(nth_best(&lat, 0, Better::Lower), 470.0);
        assert_eq!(nth_best(&lat, 2, Better::Lower), 485.0);
        let tput = [10.0, 30.0, 20.0, 25.0];
        assert_eq!(nth_best(&tput, 2, Better::Higher), 20.0);
    }

    #[test]
    fn nth_best_degrades_on_short_runs() {
        assert_eq!(nth_best(&[4.0], 2, Better::Lower), 4.0);
        assert_eq!(nth_best(&[4.0, 2.0], 2, Better::Lower), 4.0);
        assert_eq!(nth_best(&[4.0, 2.0], 2, Better::Higher), 2.0);
    }
}
