//! Deterministic seed derivation for reproducible parallel experiments.
//!
//! Every simulation batch takes one master seed and derives independent
//! per-run seeds with splitmix64 — the standard generator-initializer with
//! provably full-period, well-mixed output. Runs can then execute on any
//! number of threads in any order and still be bit-reproducible.

use crate::digest::Digest;

/// A deterministic stream of derived seeds.
///
/// # Example
///
/// ```
/// use np_stats::seeds::SeedSequence;
///
/// let mut a = SeedSequence::new(42);
/// let mut b = SeedSequence::new(42);
/// assert_eq!(a.next_seed(), b.next_seed());
///
/// // Indexed access is order-independent:
/// let s = SeedSequence::new(42);
/// assert_eq!(s.seed_at(3), s.seed_at(3));
/// assert_ne!(s.seed_at(3), s.seed_at(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    master: u64,
    counter: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master, counter: 0 }
    }

    /// Returns the next derived seed, advancing the internal counter.
    pub fn next_seed(&mut self) -> u64 {
        let s = self.seed_at(self.counter);
        self.counter += 1;
        s
    }

    /// Returns the derived seed at a fixed index without advancing.
    ///
    /// `seed_at(i)` is a pure function of `(master, i)`, so parallel workers
    /// can compute their own seeds without coordination.
    pub fn seed_at(&self, index: u64) -> u64 {
        splitmix64(
            self.master
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Derives a child sequence for a named sub-experiment, so different
    /// sweep points never share seeds even at equal indices.
    pub fn child(&self, tag: u64) -> SeedSequence {
        SeedSequence {
            master: splitmix64(self.master ^ splitmix64(tag)),
            counter: 0,
        }
    }

    /// Derives a child sequence keyed by a string label (e.g. a sweep job
    /// id), via an FNV-1a [`Digest`] of the label bytes fed into
    /// [`Self::child`].
    ///
    /// The mapping is a pure function of `(master, label)`, so a resumed
    /// sweep re-derives exactly the seeds the interrupted run used.
    pub fn child_of_label(&self, label: &str) -> SeedSequence {
        let mut hash = Digest::new();
        hash.update(label.as_bytes());
        self.child(hash.value())
    }
}

/// One round of splitmix64: a bijective, well-mixed `u64 → u64` map.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn next_matches_indexed() {
        let mut seq = SeedSequence::new(7);
        let fixed = SeedSequence::new(7);
        for i in 0..10 {
            assert_eq!(seq.next_seed(), fixed.seed_at(i));
        }
    }

    #[test]
    fn different_masters_differ() {
        let a = SeedSequence::new(1);
        let b = SeedSequence::new(2);
        assert_ne!(a.seed_at(0), b.seed_at(0));
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seq = SeedSequence::new(123);
        let seeds: HashSet<u64> = (0..10_000).map(|i| seq.seed_at(i)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn children_do_not_collide_with_parent_or_siblings() {
        let parent = SeedSequence::new(99);
        let c1 = parent.child(1);
        let c2 = parent.child(2);
        let mut all = HashSet::new();
        for i in 0..1000 {
            all.insert(parent.seed_at(i));
            all.insert(c1.seed_at(i));
            all.insert(c2.seed_at(i));
        }
        assert_eq!(all.len(), 3000);
    }

    #[test]
    fn labelled_children_are_stable_and_distinct() {
        let parent = SeedSequence::new(7);
        assert_eq!(
            parent.child_of_label("sf-n64-d0.2-r0").seed_at(0),
            parent.child_of_label("sf-n64-d0.2-r0").seed_at(0),
        );
        let mut all = HashSet::new();
        for label in ["sf-n64-d0.2-r0", "sf-n64-d0.2-r1", "ssf-n64-d0.2-r0"] {
            all.insert(parent.child_of_label(label).seed_at(0));
        }
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Adjacent inputs should differ in roughly half the bits.
        let diff = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(diff > 10 && diff < 54);
    }
}
