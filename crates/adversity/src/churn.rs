//! Who crashes: the victim draws of the spec compiler's `[catastrophic]`
//! and `[churn]` rules.
//!
//! The compiler resolves victims chronologically, so each draw takes the
//! receivers alive at that instant as its candidates; the source is never
//! among them (there is no stream left to measure without it).

use gossip_sim::DetRng;
use gossip_types::NodeId;

/// The paper's catastrophic failure (Figures 7 and 8): `round(fraction · n)`
/// distinct victims drawn uniformly from `candidates`, sorted by id. The
/// count is capped at `candidates.len()`, so nodes left out of the
/// candidates always survive.
pub(crate) fn catastrophic_victims(
    candidates: &[NodeId],
    n: usize,
    fraction: f64,
    rng: &mut DetRng,
) -> Vec<NodeId> {
    let target = (fraction * n as f64).round() as usize;
    let count = target.min(candidates.len());
    let mut victims: Vec<NodeId> =
        rng.sample_indices(candidates.len(), count).into_iter().map(|i| candidates[i]).collect();
    victims.sort_unstable();
    victims
}

/// One Poisson departure: a uniform pick among `candidates`, or `None` when
/// everyone is already down and the departure fizzles.
pub(crate) fn departure_victim(candidates: &[NodeId], rng: &mut DetRng) -> Option<NodeId> {
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.index(candidates.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversitySpec;
    use gossip_types::Duration;

    /// Nodes `0..n` minus `protected`.
    fn candidates(n: u32, protected: &[NodeId]) -> Vec<NodeId> {
        (0..n).map(NodeId::new).filter(|id| !protected.contains(id)).collect()
    }

    #[test]
    fn catastrophic_respects_fraction_and_protection() {
        let mut rng = DetRng::seed_from(2);
        let source = NodeId::new(0);
        let receivers = candidates(230, &[source]);
        for pct in [10, 20, 35, 50, 80] {
            let victims = catastrophic_victims(&receivers, 230, pct as f64 / 100.0, &mut rng);
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
        assert!(catastrophic_victims(&candidates(50, &[]), 50, 0.0, &mut rng).is_empty());
        let spec = AdversitySpec::none().with_catastrophic(Duration::from_secs(1), 0.0);
        assert!(spec.compile(50, 3).timeline.is_empty(), "no victims, no crash event");
    }

    #[test]
    fn full_fraction_spares_protected() {
        let mut rng = DetRng::seed_from(4);
        let protected = [NodeId::new(0), NodeId::new(1)];
        let victims = catastrophic_victims(&candidates(10, &protected), 10, 1.0, &mut rng);
        assert_eq!(victims.len(), 8, "10 nodes minus 2 protected");
        assert!(protected.iter().all(|p| !victims.contains(p)));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::seed_from(5);
        let mut b = DetRng::seed_from(5);
        let all = candidates(100, &[]);
        let p1 = catastrophic_victims(&all, 100, 0.3, &mut a);
        let p2 = catastrophic_victims(&all, 100, 0.3, &mut b);
        assert_eq!(p1, p2);
        assert_eq!(departure_victim(&all, &mut a), departure_victim(&all, &mut b));
        assert_eq!(departure_victim(&[], &mut a), None, "nobody left to leave");
    }
}
