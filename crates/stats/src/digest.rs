//! FNV-1a folding: the workspace's one copy of the 64-bit offset basis
//! and prime. It keys [`crate::seeds::SeedSequence::child_of_label`], and
//! `np_engine::digest` re-exports it for every run digest, so two equal
//! digests mean equal byte streams.

/// A 64-bit FNV-1a hash folded incrementally over bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_the_offset_basis_and_one_byte_matches_fnv1a() {
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.update(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.update_u64(1);
        a.update_u64(2);
        let mut b = Digest::new();
        b.update_u64(2);
        b.update_u64(1);
        assert_ne!(a.value(), b.value());
    }
}
