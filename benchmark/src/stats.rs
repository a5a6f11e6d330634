//! Order statistics used by every metric: medians, quartiles and the
//! "highest percentile the sample supports" rule.

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
///
/// Returns `None` for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a sample ascending (NaNs are a bug in the caller and sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    values
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(values.to_vec()), 50.0)
}

/// First quartile, median and third quartile by the *exclusive* method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so the
/// spread this binary prints is the spread the acceptance check computes.
///
/// Returns `None` below two samples (the method is undefined there).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, q) in out.iter_mut().zip(1..=3usize) {
        // Position q(n+1)/4 in 1-based ranks; the rank pair is clamped to
        // the sample and the offset is not, so tiny samples extrapolate
        // exactly like the Python routine.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (the run-to-run
/// spread every bound is compared against). `None` below two samples or
/// for a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the percentile a timing may be
/// reported at without resting on a handful of outliers.
///
/// `None` when even the 90th percentile has fewer than ten samples above
/// it (n < 100): report the median alone.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000) — whole numbers, so the
    // "ten beyond" threshold does not depend on float rounding.
    [(99.99, 1), (99.9, 10), (99.0, 100), (95.0, 500), (90.0, 1000)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 100_000)
        .map(|(p, _)| p)
}

/// The tail of a sorted timing sample: `(percentile, value)` at the
/// highest percentile the sample supports, for the result details.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let p = highest_supported_percentile(sorted.len())?;
    Some((p, percentile_sorted(sorted, p)?))
}

/// The best of a sample of timings: interference from the rest of the box
/// only ever makes a run slower, so the fastest repeat is the estimate of
/// what the code costs (`lower_is_better` picks the direction).
pub fn best(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let pick = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick)
}

/// Times `f` repeatedly — up to five samples, stopping early once another
/// sample would push the total past half a second — and returns the wall
/// seconds of each call. Cheap stages get several tries; a stage that
/// takes seconds is timed once.
pub fn time_repeated(mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(5);
    let mut total = 0.0;
    loop {
        let start = std::time::Instant::now();
        f();
        let wall = start.elapsed().as_secs_f64();
        samples.push(wall);
        total += wall;
        if samples.len() == 5 || total + wall > 0.5 {
            return samples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_follows_the_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], true), Some(1.0));
        assert_eq!(best(&[3.0, 1.0, 2.0], false), Some(3.0));
        assert_eq!(best(&[], true), None);
    }

    #[test]
    fn cheap_stages_are_timed_five_times_slow_ones_once() {
        let mut calls = 0;
        assert_eq!(time_repeated(|| calls += 1).len(), 5);
        assert_eq!(calls, 5);
        let slow = time_repeated(|| std::thread::sleep(std::time::Duration::from_millis(300)));
        assert_eq!(slow.len(), 1);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 0.0), Some(10.0));
        assert_eq!(percentile_sorted(&s, 100.0), Some(40.0));
        assert_eq!(percentile_sorted(&s, 50.0), Some(25.0));
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        let sample: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&sample), Some((99.0, 989.01)));
        assert_eq!(supported_tail(&sample[..50]), None);
    }
}
