//! Inside a function that denies the panic lints, indexing and
//! `unreachable!` fire; the same code elsewhere does not.

#[deny(clippy::indexing_slicing, clippy::panic, clippy::unreachable)]
pub fn step(xs: &[u64], i: usize) -> u64 {
    let v = xs[i];
    if v == 0 {
        unreachable!("guarded by caller");
    }
    v
}

pub fn helper(xs: &[u64]) -> u64 {
    xs[0]
}
