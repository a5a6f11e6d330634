//! Deterministic, splittable random number generation.
//!
//! The simulator cannot rely on external entropy or on the `rand` crate's
//! default generators if runs are to replay identically across versions and
//! platforms. [`DetRng`] implements xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded via SplitMix64, plus the distribution helpers the
//! network model and the protocol need. Sub-generators for per-node streams
//! are derived with [`DetRng::split`], so adding a node never perturbs the
//! stream of another.

use std::fmt;

/// A deterministic random number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use gossip_sim::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Independent per-node streams:
/// let mut node_3 = DetRng::seed_from(42).split(3);
/// let mut node_4 = DetRng::seed_from(42).split(4);
/// assert_ne!(node_3.next_u64(), node_4.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

impl fmt::Debug for DetRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The raw state is noise; show a fingerprint instead.
        write!(f, "DetRng({:#018x})", self.state[0] ^ self.state[1] ^ self.state[2] ^ self.state[3])
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Every seed yields a valid, well-mixed state (SplitMix64 expansion), so
    /// seeds `0`, `1`, `2`, … are fine.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        DetRng { state }
    }

    /// Derives an independent sub-generator for `stream`.
    ///
    /// Streams derived from the same parent with different indices are
    /// statistically independent; the parent is unaffected.
    pub fn split(&self, stream: u64) -> Self {
        let mut sm = self.state[0] ^ self.state[3] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let state =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        DetRng { state }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// unbiased for every bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire 2018: unbiased bounded integers without division (mostly).
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly random `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Returns a uniformly random `f64` in `[0, 1)` with 53 bits of
    /// precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive and finite");
        // Inverse transform; 1 - f64() is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Samples a standard normal distribution (Box–Muller, polar form).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Samples a normal distribution with the given mean and standard
    /// deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Samples a log-normal distribution parameterised by the mean and
    /// standard deviation *of the underlying normal* (the conventional
    /// `μ`/`σ` parameterisation).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` uniformly at random.
    ///
    /// When `k >= n` all indices are returned (in random order). Uses a
    /// partial Fisher–Yates over an index vector: O(n) but `n` here is the
    /// membership size (hundreds), called a few times per gossip round.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.sample_indices_into(n, k, &mut idx);
        idx
    }

    /// Allocation-free variant of [`DetRng::sample_indices`]: fills `out`
    /// with the sample, reusing its capacity. The random draw sequence is
    /// identical to `sample_indices`, so the two are interchangeable
    /// without perturbing determinism.
    ///
    /// For small samples out of large populations (`k² ≤ n`, the every-round
    /// partner selection) the partial Fisher–Yates runs over a *virtual*
    /// identity array: the handful of displaced positions is tracked in a
    /// scratch list instead of materialising all `n` indices, making the
    /// call O(k²) instead of O(n). Both paths draw the same randomness and
    /// produce the same sample.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        let k = k.min(n);
        out.clear();
        if k <= 64 && k * k <= n {
            // Virtual Fisher–Yates. `displaced` holds the positions whose
            // value differs from the identity array the classic loop would
            // operate on — at most one entry per iteration, scanned
            // linearly (k ≤ 64 keeps the scan in cache and the array on the
            // stack).
            let mut displaced: [(usize, usize); 64] = [(0, 0); 64];
            let mut displaced_len = 0usize;
            for i in 0..k {
                let j = i + self.index(n - i);
                // Values currently at positions i and j (identity unless an
                // earlier swap displaced them).
                let mut vi = i;
                let mut vj = j;
                let mut j_entry = None;
                for (e, &(pos, val)) in displaced[..displaced_len].iter().enumerate() {
                    if pos == j {
                        vj = val;
                        j_entry = Some(e);
                    } else if pos == i {
                        vi = val;
                    }
                }
                // The classic loop swaps out[i] and out[j]. Position i is
                // never examined again, so only position j's new value needs
                // recording.
                match j_entry {
                    Some(e) => displaced[e].1 = vi,
                    None => {
                        displaced[displaced_len] = (j, vi);
                        displaced_len += 1;
                    }
                }
                out.push(vj);
            }
            return;
        }
        out.extend(0..n);
        for i in 0..k {
            let j = i + self.index(n - i);
            out.swap(i, j);
        }
        out.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(8);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_use() {
        let parent = DetRng::seed_from(1);
        let mut c1 = parent.split(5);
        let mut parent2 = DetRng::seed_from(1);
        parent2.next_u64(); // advancing a copy of the parent...
        let mut c2 = parent.split(5); // ...must not change what split(5) yields
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = DetRng::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 1000 draws");
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seed_from(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean} too far from 3.0");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = DetRng::seed_from(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = DetRng::seed_from(19);
        for _ in 0..100 {
            let sample = rng.sample_indices(20, 7);
            assert_eq!(sample.len(), 7);
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "indices must be distinct");
            assert!(sample.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_saturates_at_n() {
        let mut rng = DetRng::seed_from(23);
        let mut sample = rng.sample_indices(5, 50);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from(31);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn debug_is_nonempty() {
        let rng = DetRng::seed_from(41);
        assert!(!format!("{rng:?}").is_empty());
    }
}
