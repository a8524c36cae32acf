//! `unwrap` and `expect` turn recoverable errors into panics.

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn second(xs: &[u32]) -> u32 {
    *xs.get(1).expect("has two elements")
}
