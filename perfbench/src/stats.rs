//! Order statistics for the reported timings.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile; a percentile with a thinner tail is not reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order). Quartiles follow the
    /// exclusive method of Python's `statistics.quantiles(n=4)`, so
    /// the spread printed here is the one the acceptance rule uses.
    /// Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let sorted = sorted(samples);
        let n = sorted.len();
        if n == 0 {
            return None;
        }
        let median = median_sorted(&sorted);
        if n == 1 {
            return Some(Self {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        // CPython's exclusive-method arithmetic, clamp included.
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Some(Self {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| median_sorted(&sorted(samples)))
}

/// Nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie strictly beyond its rank —
/// a tail percentile resting on a handful of samples is noise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Element-wise minimum of equally long sample series: entry `i` is
/// the smallest of every series' entry `i`. `None` when there is no
/// series or their lengths differ.
///
/// Each series is one repetition's round times of one scheme; the
/// result is the scheme's round profile, what each round costs with
/// the host's passing slow phases (which hit different rounds in each
/// repetition) taken out.
pub fn round_profile(series: &[Vec<f64>]) -> Option<Vec<f64>> {
    let len = series.first()?.len();
    if series.iter().any(|s| s.len() != len) {
        return None;
    }
    Some(
        (0..len)
            .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// Mean over `groups` of each group's [`tail_percentile`], or `None`
/// when there is no group or one is too small for `p`.
///
/// Round times of different schemes form separate clusters; a
/// percentile of them pooled lands wherever the clusters meet, and
/// jumps between them from one run to the next. Taking it per scheme
/// and averaging keeps every scheme's share of the metric fixed.
pub fn mean_tail_percentile(groups: &[Vec<f64>], p: f64) -> Option<f64> {
    let each: Option<Vec<f64>> = groups.iter().map(|g| tail_percentile(g, p)).collect();
    let each = each.filter(|e| !e.is_empty())?;
    Some(each.iter().sum::<f64>() / each.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(200), 95.0), Some(190.0));
        // 199 samples: rank 190, only 9 beyond.
        assert_eq!(tail_percentile(&ramp(199), 95.0), None);
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(300);
        shuffled.reverse();
        assert_eq!(
            tail_percentile(&shuffled, 95.0),
            tail_percentile(&ramp(300), 95.0)
        );
    }

    #[test]
    fn percentiles_are_taken_per_group_then_averaged() {
        // Two clusters, 200 samples each: the pooled p95 sits in the
        // upper cluster alone; the per-group mean weighs both.
        let low = ramp(200);
        let high: Vec<f64> = ramp(200).iter().map(|x| x + 1000.0).collect();
        let mean = mean_tail_percentile(&[low.clone(), high.clone()], 95.0);
        assert_eq!(mean, Some((190.0 + 1190.0) / 2.0));
        assert_eq!(mean_tail_percentile(&[low.clone()], 95.0), Some(190.0));
        // One group too small for the percentile refuses the whole.
        assert_eq!(mean_tail_percentile(&[low, ramp(199)], 95.0), None);
        assert_eq!(mean_tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn round_profile_is_the_per_round_minimum() {
        // A slow phase on rounds 1-2 of one repetition and round 2 of
        // another leaves the profile; a round slow in all stays.
        let reps = vec![
            vec![1.0, 9.0, 9.0, 5.0],
            vec![1.0, 1.0, 9.0, 5.0],
            vec![1.0, 1.0, 1.5, 6.0],
        ];
        assert_eq!(round_profile(&reps), Some(vec![1.0, 1.0, 1.5, 5.0]));
        assert_eq!(round_profile(&reps[..1]), Some(reps[0].clone()));
        assert_eq!(round_profile(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(round_profile(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&ramp(10)).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let one = Summary::of(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
