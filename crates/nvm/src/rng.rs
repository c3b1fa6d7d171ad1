//! A small deterministic PRNG for workloads, tests and fault plans.
//!
//! The repository must build and test without network access, so instead of
//! pulling in `rand`, every randomized component uses this in-tree
//! SplitMix64 generator (Steele, Lea & Flood, OOPSLA'14). SplitMix64 passes
//! BigCrush, is seedable from a single `u64`, and — most importantly for
//! crash-matrix reproducibility — has a trivially stable stream across
//! platforms and compiler versions.

/// A SplitMix64 pseudo-random generator.
///
/// # Example
///
/// ```
/// use anubis_nvm::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.gen_range(10..20) >= 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range` (half-open).
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias over a 64-bit
    /// source is far below anything the statistical tests can observe.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range over empty range");
        let span = range.end - range.start;
        let hi = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + hi
    }

    /// A uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0..n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567, from the
        // published reference implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(9);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(9);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(10);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn ranges_and_floats_are_in_bounds() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(5..17);
            assert!((5..17).contains(&x));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(rng.gen_index(7) < 7);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).gen_range(3..3);
    }
}
