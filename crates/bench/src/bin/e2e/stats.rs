//! Order statistics for the record: medians, the quartile spread the
//! builder's driver computes, and the "ten samples beyond" percentile
//! rule of the choosing-metrics guide.

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for even counts); 0 for
/// an empty slice so callers can render "no samples" without branching.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest sample. On a shared box interference only ever *adds*
/// time, so across repeated rounds of the same fixed work the fastest
/// round is the least disturbed measurement: here the median of rounds
/// moved ±20 % from run to run while the minimum moved ±2 %. Used for
/// whole-round wall times only; latency distributions keep their
/// percentiles. 0 for an empty slice.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest sample: [`least`] for rates.
pub fn greatest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the driver judges spreads with that function, so the
/// self-check must too. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a metric's bound is judged against. 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The percentiles a tail metric may be reported at, lowest first.
const LADDER: [f64; 5] = [0.50, 0.75, 0.90, 0.95, 0.99];

/// The nearest-rank `wanted` percentile when at least [`BEYOND`] samples
/// lie beyond it; otherwise the highest rung of [`LADDER`] below it that
/// the sample does support, never below the median. Returns the value
/// and the percentile actually reported, which goes into the record
/// beside the value: a name like `_p99` says what was asked for, the
/// record what the sample count could carry. Rungs, so that the
/// reported percentile holds still while the sample count moves a
/// little from run to run.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    // Nearest rank, guarded against `0.95 * 200` reading a hair over 190.
    let rank = |p: f64| (p * n as f64 - 1e-9).ceil() as usize;
    let supported = |p: f64| rank(p) + BEYOND <= n;
    let p = std::iter::once(wanted)
        .chain(LADDER.into_iter().rev().filter(|rung| *rung < wanted))
        .find(|p| supported(*p))
        .unwrap_or(0.5);
    if p == 0.5 || n == 0 {
        return (median(&v), 0.5);
    }
    (v[rank(p) - 1], p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn least_and_greatest_pick_the_extremes() {
        assert_eq!((least(&[3.0, 1.5, 2.0]), greatest(&[3.0, 1.5, 2.0])), (1.5, 3.0));
        assert_eq!((least(&[]), greatest(&[])), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), 5.5 / 5.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 is rank 90: exactly ten samples beyond it.
        assert_eq!(tail(&hundred, 0.90), (90.0, 0.90));
        // p99 is not supported; the highest rung that is, is p90 again.
        assert_eq!(tail(&hundred, 0.99), (90.0, 0.90));
        assert_eq!(tail(&hundred[..99], 0.99), (75.0, 0.75));
        let thousand: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), (1089.0, 0.99));
        // The rung holds while the count moves: 200..999 samples are p95.
        assert_eq!(tail(&thousand[..200], 0.99), (190.0, 0.95));
        assert_eq!(tail(&thousand[..999], 0.99).1, 0.95);
        // Too few samples for any tail: the median, labelled as such.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few, 0.95), (8.0, 0.5));
        assert_eq!(tail(&[], 0.95), (0.0, 0.5));
    }
}
