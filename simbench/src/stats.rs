//! Order statistics for the reported timings.
//!
//! Medians and quartiles follow Python's `statistics.quantiles(values,
//! n=4)` (the default "exclusive" method), so the spread the benchmark
//! prints matches the spread an outside script computes from its runs.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, exactly as `statistics.quantiles(xs, n=4)`
/// computes them (exclusive method, which extrapolates for tiny samples).
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let ld = v.len() as i64;
    if ld == 1 {
        return (v[0], v[0]);
    }
    let at = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (at(1), at(3))
}

/// The tail a timing is reported at: the `pct`-th percentile of the
/// samples, where the workload fixes `pct` so that it stays comparable
/// between runs and commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile of `xs`, or `None` when fewer than
/// [`TAIL_BEYOND`] samples lie beyond it (the percentile would then rest
/// on too few observations to repeat).
pub fn tail(xs: &[f64], pct: f64) -> Option<Tail> {
    if xs.is_empty() || !(0.0..100.0).contains(&pct) {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).max(1);
    let beyond = n - rank;
    (beyond >= TAIL_BEYOND).then(|| Tail {
        pct,
        value: v[rank - 1],
        beyond,
    })
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_GRID: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_GRID`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median would not. A workload fixes its tail at the percentile its
/// guaranteed sample count allows, so runs that finish more passes still
/// report the same percentile.
pub fn tail_pct_for(n: usize) -> Option<f64> {
    TAIL_GRID.into_iter().find(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        n >= rank + TAIL_BEYOND
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly 10 samples (91..=100) beyond.
        assert_eq!(
            tail(&xs, 90.0),
            Some(Tail {
                pct: 90.0,
                value: 90.0,
                beyond: 10
            })
        );
        // p95 would leave only 5 beyond: refused.
        assert_eq!(tail(&xs, 95.0), None);
        // 19 samples cannot carry a median tail (9 beyond); 20 can.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 50.0), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 50.0).map(|t| (t.value, t.beyond)),
            Some((10.0, 10))
        );
    }

    #[test]
    fn tail_grid_picks_highest_supported_percentile() {
        assert_eq!(tail_pct_for(19), None);
        assert_eq!(tail_pct_for(20), Some(50.0));
        assert_eq!(tail_pct_for(39), Some(50.0));
        assert_eq!(tail_pct_for(40), Some(75.0));
        assert_eq!(tail_pct_for(100), Some(90.0));
        assert_eq!(tail_pct_for(199), Some(90.0));
        assert_eq!(tail_pct_for(200), Some(95.0));
        assert_eq!(tail_pct_for(1000), Some(99.0));
        // Whatever the grid picks, `tail` accepts at that count.
        for n in 20..1200 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let p = tail_pct_for(n as usize).expect("n >= 20");
            assert!(tail(&xs, p).is_some(), "n={n} p={p}");
        }
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = tail(&xs, 95.0);
        xs.reverse();
        assert_eq!(a, tail(&xs, 95.0));
        assert_eq!(a.map(|t| t.value), Some(189.0));
    }
}
