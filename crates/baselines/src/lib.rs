//! Baseline spreading protocols for the noisy PULL model.
//!
//! These are the comparison points for the paper's SF/SSF protocols
//! (experiment EXP-BASE in `DESIGN.md`):
//!
//! * [`voter::ZealotVoter`] — the zealot voter model of Gelblum et al.
//!   \[12\] and Mobilia et al. \[41\]: sources are stubborn, everyone else
//!   copies one uniformly chosen observation per round. Converges
//!   *eventually* (the paper's motivating prior work showed steady-state
//!   correctness) but slowly and unreliably under noise.
//! * [`majority::HMajority`] — repeated local majority over the `h`
//!   observations. Amplifies whatever display majority exists; it cannot
//!   extract a minority source signal, which is exactly the failure the
//!   paper's "listening phases" repair.
//! * [`trusting_copy::TrustingCopy`] — classic rumor spreading with an
//!   "informed" flag \[16\]: adopt the value of any observation that
//!   claims to be informed. Optimal without noise; poisoned by the first
//!   corrupted tag when noise is present (footnote 2 of the paper: the
//!   flag "cannot be trusted").
//! * [`mean_estimator::MeanEstimator`] — ablation for SF's neutral
//!   listening phases: agents estimate the all-time mean of displayed
//!   values and threshold at ½, *without* the phase-0/phase-1 neutrality
//!   choreography. The self-referential feedback (agents display the
//!   opinions they are estimating) keeps the estimate pinned to the
//!   initial majority.
//!
//! One *contrast-model* protocol complements them:
//!
//! * [`push_spreading::PushSpreading`] — a simplified noisy **PUSH**
//!   spreading protocol in the spirit of Feinerman–Haeupler–Korman \[18\],
//!   demonstrating the exponential PULL/PUSH separation the paper's §1.5
//!   describes: with reliable reception events, `h = 1` suffices for
//!   polylogarithmic spreading.
//!
//! All PULL baselines implement [`np_engine::protocol::Protocol`] and run
//! on the same worlds as SF/SSF; the PUSH protocol runs on
//! [`np_engine::push::PushWorld`].

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

pub mod majority;
pub mod mean_estimator;
pub mod push_spreading;
pub mod trusting_copy;
pub mod voter;
