//! A decoder of untrusted bytes: the compiler rules out every panic path,
//! while its tests may still index, unwrap and panic.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub fn first_byte(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}

pub fn header(bytes: &[u8]) -> u8 {
    bytes[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_index_unwrap_and_panic() {
        let bytes = [7u8, 8];
        assert_eq!(super::first_byte(&bytes).unwrap(), bytes[0]);
        if bytes[1] != 8 {
            panic!("fixture bytes changed");
        }
    }
}
