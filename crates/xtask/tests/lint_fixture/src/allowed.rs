//! Each would-be finding carries an `#[expect]` naming its lint, on a
//! statement or an item, so nothing here is reported.

#[expect(clippy::float_cmp, reason = "degenerate-distribution sentinel")]
pub fn sentinel(p: f64) -> bool {
    p == 1.0
}

pub fn take(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "callers pass a nonempty slice")]
    let first = *xs.first().unwrap();
    first
}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the sanctioned observer clock"
)]
mod clock {
    pub fn lap() -> std::time::Duration {
        std::time::Instant::now().elapsed()
    }
}

pub fn lap() -> std::time::Duration {
    clock::lap()
}
