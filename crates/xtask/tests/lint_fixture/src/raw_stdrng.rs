//! Hand-seeded generators are sequential streams; randomness must come
//! from (seed, round, agent, stage) streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn bad(seed: u64) -> (StdRng, StdRng) {
    let a = StdRng::seed_from_u64(seed);
    let b = StdRng::from_seed([0u8; 32]);
    (a, b)
}
