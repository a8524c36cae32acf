//! Workspace task runner for the noisy-PULL reproduction.
//!
//! It holds what rustc and clippy cannot check: [`artifacts`] validates
//! the committed `BENCH_*.json` files (and any `np-run-summary/v1` or
//! `np-manifest/v1` artifact) against their schemas, reading them with
//! the workspace's one JSON reader, [`np_engine::json`]. Run it as
//! `cargo xtask check-artifacts`.
//!
//! The determinism rules the paper's seeded guarantees (Theorems 4 and 5)
//! depend on — no wall clocks, hashed-container iteration or hand-seeded
//! generators in library code — are clippy's job: `crates/clippy.toml`
//! lists the banned items and each library crate root denies them. The
//! integration tests here prove that configuration fires on a fixture
//! crate and that every library root carries its safety headers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
