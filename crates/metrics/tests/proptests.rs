//! Property-based tests of the statistics helpers.

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_metrics::{Cdf, Summary};

proptest! {
    /// The CDF is monotone and reaches exactly 1 at the maximum sample.
    #[test]
    fn cdf_is_monotone_and_complete(samples in vec(-1e6f64..1e6, 1..300)) {
        let cdf = Cdf::of(samples.clone());
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((cdf.fraction_at_most(max) - 1.0).abs() < 1e-12);
        let mut probes: Vec<f64> = samples.clone();
        probes.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let values: Vec<f64> = probes.iter().map(|&p| cdf.fraction_at_most(p)).collect();
        prop_assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    /// Quantiles are consistent with fractions: for every sample x,
    /// `quantile(fraction_at_most(x)) <= x`.
    #[test]
    fn quantiles_invert_fractions(samples in vec(0f64..1e4, 1..100)) {
        let cdf = Cdf::of(samples.clone());
        for &x in &samples {
            let q = cdf.fraction_at_most(x);
            let back = cdf.quantile(q).expect("non-empty");
            prop_assert!(back <= x + 1e-9, "quantile({q}) = {back} > {x}");
        }
    }

    /// Summary matches naive formulas on arbitrary input.
    #[test]
    fn summary_matches_naive(samples in vec(-1e3f64..1e3, 1..200)) {
        let s = Summary::of(samples.iter().copied());
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4);
        prop_assert_eq!(s.count(), samples.len());
        prop_assert_eq!(s.min(), samples.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), samples.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
}
