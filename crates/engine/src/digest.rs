//! FNV-1a folding for run digests: [`np_stats::digest::Digest`],
//! re-exported as the one fingerprint behind
//! [`crate::world::World::outcome_digest`] and the simulated cluster's
//! report digest, so two equal digests mean equal byte streams.

pub use np_stats::digest::Digest;
