//! Property-based tests of the simulation kernel.

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_sim::{DetRng, Engine, EventQueue};
use gossip_types::Time;

proptest! {
    /// The event queue pops a totally ordered sequence: non-decreasing
    /// times, and insertion order within equal times.
    #[test]
    fn queue_order_is_total_and_stable(times in vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_micros(t), i);
        }
        let mut popped: Vec<(Time, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "times must be non-decreasing");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties must respect insertion order");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in vec(0u64..100, 1..100),
        cancel_mask in vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> =
            times.iter().enumerate().map(|(i, &t)| (i, q.push(Time::from_micros(t), i))).collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, h) in &handles {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*h);
                cancelled.insert(*i);
            }
        }
        let mut survivors: Vec<usize> = Vec::new();
        while let Some((_, e)) = q.pop() {
            survivors.push(e);
        }
        prop_assert_eq!(survivors.len(), times.len() - cancelled.len());
        for s in survivors {
            prop_assert!(!cancelled.contains(&s));
        }
    }

    /// Model check: the default [`EventQueue`] (the calendar queue) agrees
    /// with a `BinaryHeap`-based reference model on an arbitrary
    /// interleaving of push / pop / cancel operations — including the
    /// stable tie-break at equal timestamps.
    #[test]
    fn queue_matches_binary_heap_reference(
        ops in vec((0u8..4, 0u64..50), 1..300),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Reference model: a plain max-heap of `Reverse<(time, seq)>` plus
        /// a tombstone set — the pre-rewrite design, kept as the oracle.
        struct Model {
            heap: BinaryHeap<Reverse<(Time, u64)>>,
            cancelled: std::collections::HashSet<u64>,
            payload: std::collections::HashMap<u64, u64>,
        }

        impl Model {
            fn pop(&mut self) -> Option<(Time, u64)> {
                while let Some(Reverse((at, seq))) = self.heap.pop() {
                    if self.cancelled.remove(&seq) {
                        continue;
                    }
                    return Some((at, self.payload.remove(&seq).expect("payload")));
                }
                None
            }
        }

        let mut q = EventQueue::new();
        let mut model =
            Model { heap: BinaryHeap::new(), cancelled: Default::default(), payload: Default::default() };
        // Live handles of both sides, kept in lockstep: (queue handle, model seq).
        let mut live: Vec<(gossip_sim::EventHandle, u64)> = Vec::new();
        let mut next_seq = 0u64;

        for &(op, arg) in &ops {
            match op {
                // Push (twice as likely as the other operations so the
                // queue actually grows).
                0 | 1 => {
                    let at = Time::from_micros(arg);
                    let seq = next_seq;
                    next_seq += 1;
                    let handle = q.push(at, seq);
                    model.heap.push(Reverse((at, seq)));
                    model.payload.insert(seq, seq);
                    live.push((handle, seq));
                }
                // Pop from both; results must agree exactly.
                2 => {
                    let got = q.pop();
                    let want = model.pop();
                    prop_assert_eq!(got, want, "pop order diverged from the reference model");
                    if let Some((_, seq)) = got {
                        live.retain(|&(_, s)| s != seq);
                    }
                }
                // Cancel an arbitrary live handle on both sides.
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let (handle, seq) = live.remove(arg as usize % live.len());
                    prop_assert!(q.cancel(handle), "live handle must cancel");
                    model.cancelled.insert(seq);
                    model.payload.remove(&seq);
                }
            }
            prop_assert_eq!(q.len(), model.payload.len(), "len must track the live set");
        }

        // Drain both completely: the tails must agree too.
        loop {
            let got = q.pop();
            let want = model.pop();
            prop_assert_eq!(got, want, "drain order diverged from the reference model");
            if got.is_none() {
                break;
            }
        }
    }

    /// The engine clock never runs backwards, no matter the schedule.
    #[test]
    fn engine_clock_is_monotone(times in vec(0u64..10_000, 1..200)) {
        let mut e = Engine::new();
        for &t in &times {
            e.schedule(Time::from_micros(t), ());
        }
        let mut prev = Time::ZERO;
        while let Some((at, ())) = e.pop() {
            prop_assert!(at >= prev);
            prev = at;
        }
    }

    /// `next_below` is unbiased enough to cover every residue and never
    /// exceeds its bound.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1000) {
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Sampling without replacement returns distinct, in-range indices.
    #[test]
    fn sample_indices_invariants(seed in any::<u64>(), n in 1usize..100, k in 0usize..120) {
        let mut rng = DetRng::seed_from(seed);
        let sample = rng.sample_indices(n, k);
        prop_assert_eq!(sample.len(), k.min(n));
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sample.len(), "indices must be distinct");
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    /// The O(k²) virtual-Fisher–Yates fast path of `sample_indices_into`
    /// consumes the same randomness and produces the same sample as the
    /// materialised O(n) reference loop.
    #[test]
    fn sample_indices_fast_path_matches_reference(
        seed in any::<u64>(),
        n in 1usize..5_000,
        k in 0usize..70,
    ) {
        let mut fast_rng = DetRng::seed_from(seed);
        let mut fast = Vec::new();
        fast_rng.sample_indices_into(n, k, &mut fast);

        // Reference: the classic partial Fisher–Yates over a materialised
        // identity array, drawing from an identically seeded generator.
        let mut ref_rng = DetRng::seed_from(seed);
        let k_eff = k.min(n);
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k_eff {
            let j = i + ref_rng.index(n - i);
            all.swap(i, j);
        }
        all.truncate(k_eff);

        prop_assert_eq!(fast, all, "fast path diverged from the reference sample");
        prop_assert_eq!(fast_rng, ref_rng, "fast path consumed different randomness");
    }

    /// Split streams are reproducible: the same parent and stream id always
    /// produce the same sequence.
    #[test]
    fn split_is_deterministic(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = DetRng::seed_from(seed).split(stream);
        let mut b = DetRng::seed_from(seed).split(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
