//! SplitMix64-style seed-stream derivation.
//!
//! Derived seeds must be (a) deterministic, (b) collision-free across the
//! stream indices a run can use, and (c) statistically independent enough
//! that per-unit `StdRng` instances don't share structure. SplitMix64
//! gives all three: its output function is a bijection of the state, and
//! distinct stream indices map to distinct states because the golden
//! gamma is odd (odd multipliers are invertible mod 2⁶⁴).

/// The SplitMix64 golden-ratio increment (odd, hence invertible mod 2⁶⁴).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance a SplitMix64 state and return the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix(*state)
}

/// Derive the seed of stream `stream` from a `root` seed.
///
/// For a fixed root this is injective in `stream`: the state offset
/// `GOLDEN_GAMMA × (stream + 1)` is a bijection of `stream` and the
/// SplitMix64 output function is a bijection of the state, so **no two
/// stream indices ever collide** (the property the seed-stream tests
/// check on 10 000 indices is in fact exact).
#[inline]
pub fn derive_stream_seed(root: u64, stream: u64) -> u64 {
    mix(root.wrapping_add(GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1))))
}

/// A root seed viewed as an indexed family of independent streams.
///
/// ```
/// use hpcfail_exec::SeedSequence;
/// let seq = SeedSequence::new(42);
/// assert_ne!(seq.stream(0), seq.stream(1));
/// assert_eq!(seq.stream(7), SeedSequence::new(42).stream(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Family rooted at `root`.
    pub fn new(root: u64) -> Self {
        SeedSequence { root }
    }

    /// Seed of the `index`-th stream.
    pub fn stream(&self, index: u64) -> u64 {
        derive_stream_seed(self.root, index)
    }

    /// A child family, for hierarchical splits (site → system → node).
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence::new(self.stream(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let seq = SeedSequence::new(2026);
        assert_eq!(seq.stream(3), seq.stream(3));
        assert_ne!(seq.stream(3), seq.stream(4));
        assert_ne!(
            SeedSequence::new(1).stream(0),
            SeedSequence::new(2).stream(0)
        );
    }

    #[test]
    fn no_collisions_across_contiguous_indices() {
        // Injectivity is provable, but keep an executable witness.
        let seq = SeedSequence::new(42);
        let mut seen: Vec<u64> = (0..4096).map(|i| seq.stream(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn child_families_diverge() {
        let seq = SeedSequence::new(7);
        assert_ne!(seq.child(0).stream(0), seq.child(1).stream(0));
        assert_ne!(seq.child(0).stream(0), seq.stream(0));
    }
}
