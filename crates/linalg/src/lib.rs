//! Dense linear algebra and noise-matrix toolkit for the noisy PULL model.
//!
//! This crate provides the mathematical substrate required by Section 4 of
//! *Fast and Robust Information Spreading in the Noisy PULL Model*
//! (D'Archivio, Korman, Natale, Vacus; PODC 2025 / arXiv:2411.02560):
//!
//! * [`Matrix`] — a small row-major dense `f64` matrix with checked
//!   constructors and the usual arithmetic.
//! * [`lu`] — LU decomposition with partial pivoting, used to invert noise
//!   matrices when deriving the *artificial noise* of Theorem 8.
//! * [`norm`] — the `‖·‖∞` operator norm (maximum absolute row sum,
//!   Eq. (4) of the paper), used to verify Corollary 14.
//! * [`stochastic`] — predicates for (weakly-)stochastic matrices
//!   (Definition 9).
//! * [`noise`] — the [`noise::NoiseMatrix`] newtype with the paper's
//!   δ-lower-bounded / δ-upper-bounded / δ-uniform classes (Definition 1),
//!   the noise-level map `f(δ)` (Definition 7), and
//!   [`noise::NoiseMatrix::artificial_noise`], the constructive proof of
//!   Proposition 16: a stochastic `P` with `N·P` exactly `f(δ)`-uniform.
//!
//! # Example
//!
//! Derive the artificial noise for an asymmetric binary channel and check
//! that the composed channel is uniform:
//!
//! ```
//! use np_linalg::noise::NoiseMatrix;
//!
//! // A 0.2-upper-bounded, non-uniform binary noise matrix.
//! let n = NoiseMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
//! let delta = n.upper_bound_level().unwrap();
//! let reduction = n.artificial_noise().unwrap();
//! let composed = n.compose(reduction.artificial()).unwrap();
//! assert!(composed.is_uniform_with_level(reduction.uniform_level(), 1e-9));
//! assert!(reduction.uniform_level() < 0.5 && reduction.uniform_level() >= delta);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

mod error;
mod matrix;

pub mod lu;
pub mod noise;
pub mod norm;
pub mod stochastic;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
