//! Order statistics and the landing rule (`choosing-metrics` §8).
//!
//! Everything the benchmark reports as a timing is a median or a tail
//! percentile picked here; everything `compare` decides is decided by
//! [`judge`].

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples a percentile leaves beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of p90 / p99 / p99.9 that leaves at least ten samples
/// beyond it, or `None` when even p90 does not (fewer than 100 samples).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| samples_beyond(n, *q) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the same numbers the
/// benchmark driver computes its spread from. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The largest value; 0 when empty.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The smallest value; 0 when empty.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Outcome of comparing a change against its parent on one
/// (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of all pairs and the medians differ by
    /// more than the parent's inter-quartile range.
    Improved,
    /// The change's median is no worse than the parent's by more than
    /// the bound, and the parent's spread is narrower than the bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// Not worse beyond the bound, but the parent's run-to-run spread is
    /// wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The numbers behind a [`Verdict`], every ratio with its base.
#[derive(Debug, Clone, Copy)]
pub struct Judgement {
    pub verdict: Verdict,
    pub pairs: usize,
    pub wins: usize,
    pub losses: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_q1: f64,
    pub parent_q3: f64,
    /// `(change − parent) / parent` in the "worse" direction: positive
    /// means the change is worse.
    pub worse_by: f64,
}

/// Minimum pairs the landing rule needs.
pub const MIN_PAIRS: usize = 10;

/// Apply the landing rule to paired runs (`parent[i]` ran next to
/// `change[i]`). `None` when there are fewer than [`MIN_PAIRS`] pairs.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return None;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let beats = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| beats(parent[i], change[i])).count();
    let pm = median(parent);
    let cm = median(change);
    let (q1, q3) = quartiles(parent)?;
    let iqr = q3 - q1;
    let worse = match better {
        Better::Higher => pm - cm,
        Better::Lower => cm - pm,
    };
    let worse_by = if pm != 0.0 { worse / pm.abs() } else { 0.0 };
    let parent_spread = if pm != 0.0 { iqr / pm.abs() } else { 0.0 };
    // Ties count for neither side, but the threshold is nine tenths of
    // *all* pairs run.
    let verdict = if wins * 10 >= pairs * 9 && (pm - cm).abs() > iqr {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if parent_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Some(Judgement {
        verdict,
        pairs,
        wins,
        losses,
        parent_median: pm,
        change_median: cm,
        parent_q1: q1,
        parent_q3: q3,
        worse_by,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_pick_ranks() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!((lowest(&v), highest(&v)), (1.0, 10.0));
        assert_eq!((lowest(&[]), highest(&[])), (0.0, 0.0));
    }

    fn noisy(base: f64, n: usize) -> Vec<f64> {
        // ±1 % saw-tooth around `base`.
        (0..n)
            .map(|i| base * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn clear_win_is_improved() {
        let parent = noisy(100.0, 10);
        let change = noisy(80.0, 10);
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.pairs, j.wins, j.losses), (10, 10, 0));
        assert!(j.worse_by < 0.0);
        // The same numbers are a regression when higher is better.
        let j = judge(&parent, &change, Better::Higher, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain() {
        let parent = vec![100.0; 10];
        let mut change = vec![90.0; 10];
        change[0] = 101.0;
        change[1] = 101.0;
        let j = judge(&parent, &change, Better::Lower, 0.2).unwrap();
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::WithinBound);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = vec![100.0; 10];
        let mut change = vec![90.0; 10];
        change[0] = 100.0;
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!((j.wins, j.losses), (9, 0));
        assert_eq!(j.verdict, Verdict::Improved);
        change[1] = 100.0;
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.wins, 8);
        assert_ne!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn win_inside_parent_iqr_is_not_a_gain() {
        // Parent's own runs spread 90..110; a 1 % shift wins every pair
        // but is smaller than that spread.
        let parent: Vec<f64> = (0..10).map(|i| 90.0 + 20.0 * f64::from(i) / 9.0).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 0.99).collect();
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unresolved, "spread wider than bound");
        let j = judge(&parent, &change, Better::Lower, 0.25).unwrap();
        assert_eq!(j.verdict, Verdict::WithinBound);
    }

    #[test]
    fn regression_beyond_bound_and_pair_minimum() {
        let parent = noisy(100.0, 12);
        let change = noisy(108.0, 12);
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.worse_by - 0.08).abs() < 0.01);
        let j = judge(&parent, &change, Better::Lower, 0.10).unwrap();
        assert_eq!(j.verdict, Verdict::WithinBound);
        assert!(judge(&parent[..9], &change[..9], Better::Lower, 0.1).is_none());
    }
}
