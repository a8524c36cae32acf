//! An `#[expect]` that suppresses nothing is itself reported, so
//! suppressions cannot outlive the code they excused.

#[expect(clippy::unwrap_used, reason = "nothing below unwraps")]
pub fn spotless() -> u32 {
    0
}
