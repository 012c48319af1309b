//! Deterministic, splittable randomness for parallel algorithms.
//!
//! The paper's randomized algorithms (LDD shifts, MIS/matching priorities,
//! RMAT generation) need per-element random values that are identical across
//! thread counts. We use SplitMix64 as a stateless hash: `hash64(seed ^ i)`
//! gives element `i` of an i.i.d.-looking stream without any shared state.

/// Finalizer of the SplitMix64 generator; a high-quality 64-bit mixer.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hash of an ordered pair; used for per-edge priorities.
#[inline]
pub fn hash64_pair(a: u64, b: u64) -> u64 {
    hash64(hash64(a).wrapping_add(b).wrapping_mul(0x9E3779B97F4A7C15))
}

/// A tiny sequential PRNG with the SplitMix64 update rule.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded construction; the same seed yields the same stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // bounds used here (graph sizes far below 2^48).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A sample from the exponential distribution with rate `beta`
    /// (used by the Miller-Peng-Xu LDD shifts, §4.3.2).
    #[inline]
    pub fn next_exp(&mut self, beta: f64) -> f64 {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -(u.ln()) / beta
    }
}

/// Seeded Fisher-Yates permutation of `0..n`.
///
/// Sequential (`O(n)`): permutations are only materialized for moderate `n`
/// (priority orders); per-element priorities in hot paths use [`hash64`].
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_is_deterministic_and_spreads() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(42), hash64(43));
        // Low bits should differ across consecutive inputs.
        let bits: std::collections::HashSet<u64> = (0..64).map(|i| hash64(i) & 0xFF).collect();
        assert!(bits.len() > 32);
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_roughly_one_over_beta() {
        let mut rng = SplitMix64::new(11);
        let beta = 0.5;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_exp(beta)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / beta).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let p = random_permutation(1000, 5);
        let mut seen = vec![false; 1000];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
        // Seeded determinism
        assert_eq!(p, random_permutation(1000, 5));
        assert_ne!(p, random_permutation(1000, 6));
    }
}
