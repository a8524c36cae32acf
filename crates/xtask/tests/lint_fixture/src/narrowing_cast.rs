//! Narrowing casts truncate silently in byte-stable encode paths.

#![deny(clippy::cast_possible_truncation)]

pub fn encode(x: u64, small: u8) -> (u32, usize, u64) {
    let a = x as u32;
    let b = x as usize;
    let widened = small as u64;
    (a, b, widened)
}

pub fn low_bits(x: u64) -> u16 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the low 16 bits are wanted"
    )]
    let low = x as u16;
    low
}

pub fn masked(x: u64) -> u16 {
    // clippy reads the mask: this cast cannot truncate and is no finding.
    (x & 0xffff) as u16
}
