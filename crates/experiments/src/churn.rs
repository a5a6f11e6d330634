//! The paper's catastrophic failure (Figures 7 and 8): a random fraction of
//! the nodes crash simultaneously mid-stream.

use gossip_adversity::AdversitySpec;
use gossip_sim::DetRng;
use gossip_types::{Duration, NodeId};

/// The adversity spec in which `round(fraction * n)` of the `n` nodes crash
/// together at `at`, chosen uniformly at random excluding `protected` (the
/// source must survive or there is no stream left to measure).
///
/// The number of victims is capped so that all protected nodes survive.
/// A draw with no victims crashes nothing: the spec is then
/// [`AdversitySpec::none`].
///
/// # Examples
///
/// ```
/// use gossip_experiments::churn::catastrophic_crash;
/// use gossip_sim::DetRng;
/// use gossip_types::{Duration, NodeId};
///
/// let mut rng = DetRng::seed_from(1);
/// // Crash 20% of 100 nodes at t = 60 s, never the source (node 0).
/// let spec = catastrophic_crash(Duration::from_secs(60), 100, 0.20, &[NodeId::new(0)], &mut rng);
/// assert_eq!(spec.explicit_crashes.len(), 1);
/// assert_eq!(spec.explicit_crashes[0].1.len(), 20);
/// ```
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]`.
pub fn catastrophic_crash(
    at: Duration,
    n: usize,
    fraction: f64,
    protected: &[NodeId],
    rng: &mut DetRng,
) -> AdversitySpec {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be within [0, 1]");
    let target = (fraction * n as f64).round() as usize;
    let candidates: Vec<NodeId> =
        (0..n as u32).map(NodeId::new).filter(|id| !protected.contains(id)).collect();
    let count = target.min(candidates.len());
    let picked = rng.sample_indices(candidates.len(), count);
    let mut victims: Vec<NodeId> = picked.into_iter().map(|i| candidates[i]).collect();
    victims.sort_unstable();
    if victims.is_empty() {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_explicit_crash(at, victims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catastrophic_respects_fraction_and_protection() {
        let mut rng = DetRng::seed_from(2);
        let source = NodeId::new(0);
        for pct in [10, 20, 35, 50, 80] {
            let spec = catastrophic_crash(
                Duration::from_secs(60),
                230,
                pct as f64 / 100.0,
                &[source],
                &mut rng,
            );
            let victims = &spec.explicit_crashes[0].1;
            assert_eq!(victims.len(), (230 * pct + 50) / 100, "fraction {pct}%");
            assert!(!victims.contains(&source), "source must survive");
            let mut dedup = victims.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), victims.len(), "victims must be distinct");
        }
    }

    #[test]
    fn zero_fraction_is_no_churn() {
        let mut rng = DetRng::seed_from(3);
        let spec = catastrophic_crash(Duration::from_secs(1), 50, 0.0, &[], &mut rng);
        assert_eq!(spec, AdversitySpec::none());
    }

    #[test]
    fn full_fraction_spares_protected() {
        let mut rng = DetRng::seed_from(4);
        let protected = [NodeId::new(0), NodeId::new(1)];
        let spec = catastrophic_crash(Duration::from_secs(1), 10, 1.0, &protected, &mut rng);
        let victims = &spec.explicit_crashes[0].1;
        assert_eq!(victims.len(), 8, "10 nodes minus 2 protected");
        assert!(protected.iter().all(|p| !victims.contains(p)));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::seed_from(5);
        let mut b = DetRng::seed_from(5);
        let p1 = catastrophic_crash(Duration::from_secs(1), 100, 0.3, &[], &mut a);
        let p2 = catastrophic_crash(Duration::from_secs(1), 100, 0.3, &[], &mut b);
        assert_eq!(p1, p2);
    }
}
