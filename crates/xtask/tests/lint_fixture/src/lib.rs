//! Fixture library root: the same deny list as every library crate root
//! in the workspace (a test checks they stay identical).

// Library code must stay a pure function of its seed and must not panic
// on recoverable errors (experiment workers would die mid-batch). The
// banned clocks, hashed containers and hand-seeded generators are listed
// in crates/clippy.toml; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

pub mod allowed;
pub mod clean;
pub mod debug_print;
pub mod decoder;
pub mod float_eq;
pub mod grouped_instant;
pub mod hash_iteration;
pub mod narrowing_cast;
pub mod panic_path;
pub mod raw_stdrng;
pub mod renamed_instant;
pub mod snapshot_bytes;
pub mod stale_expect;
pub mod unwrap;
pub mod wall_clock;
