//! Simulation with artificial noise (Definition 6 / Theorem 8).
//!
//! [`WithArtificialNoise`] wraps any protocol `A` so that every received
//! message is re-randomized through a stochastic matrix `P` before `A` sees
//! it. When `P` is the artificial noise derived from the real channel `N`
//! ([`np_linalg::noise::NoiseMatrix::artificial_noise`]), the wrapped
//! protocol experiences an end-to-end channel distributed exactly as the
//! `f(δ)`-uniform matrix `T = N·P` — reducing the general δ-upper-bounded
//! case to the uniform case the protocols are analyzed under.
//!
//! Because the engine delivers observations as per-symbol *counts*, the
//! per-message re-randomization becomes a multinomial split: the `c_σ`
//! messages received as `σ` scatter into new symbols as
//! `Multinomial(c_σ, P_σ)`. Each underlying message is transformed
//! independently with the correct row distribution, so this is exactly
//! Definition 6.

use np_engine::opinion::Opinion;
use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
use np_engine::streams::StreamRng;
use np_linalg::noise::NoiseMatrix;
use np_stats::multinomial;
use rand::Rng;

/// A protocol adaptor applying artificial noise `P` to all incoming
/// observations (Definition 6).
///
/// # Example
///
/// Run SF under an *asymmetric* binary channel by uniformizing it first:
///
/// ```
/// use noisy_pull::{params::SfParams, reduction::WithArtificialNoise, sf::SourceFilter};
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// // The real channel: asymmetric, 0.2-upper-bounded.
/// let real = NoiseMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]])?;
/// let reduction = real.artificial_noise()?;
///
/// // SF must be parameterized with the *uniformized* level f(δ).
/// let config = PopulationConfig::new(256, 0, 1, 256)?;
/// let params = SfParams::derive(&config, reduction.uniform_level(), 1.0)?;
/// let protocol = WithArtificialNoise::new(
///     SourceFilter::new(params),
///     reduction.artificial().clone(),
/// )?;
///
/// let mut world = World::new(&protocol, config, &real, ChannelKind::Aggregated, 3)?;
/// world.run(params.total_rounds());
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct WithArtificialNoise<A> {
    inner: A,
    artificial: NoiseMatrix,
}

impl<A: Protocol> WithArtificialNoise<A> {
    /// Wraps `inner` so its observations pass through `artificial` first.
    ///
    /// # Errors
    ///
    /// Returns [`np_engine::EngineError::AlphabetMismatch`] if the matrix
    /// dimension differs from the protocol's alphabet.
    pub fn new(inner: A, artificial: NoiseMatrix) -> np_engine::Result<Self> {
        if inner.alphabet_size() != artificial.dim() {
            return Err(np_engine::EngineError::AlphabetMismatch {
                protocol: inner.alphabet_size(),
                noise: artificial.dim(),
            });
        }
        Ok(WithArtificialNoise { inner, artificial })
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The artificial-noise matrix `P`.
    pub fn artificial(&self) -> &NoiseMatrix {
        &self.artificial
    }
}

/// Agent state for [`WithArtificialNoise`]: the inner agent plus the rows
/// of `P`.
#[derive(Debug, Clone)]
pub struct ArtificialNoiseAgent<S> {
    inner: S,
    rows: std::sync::Arc<Vec<Vec<f64>>>,
    scratch: Vec<u64>,
    scattered: Vec<u64>,
}

impl<S> ArtificialNoiseAgent<S> {
    /// The wrapped agent state (e.g. to read an
    /// [`crate::sf::SfAgent::weak_opinion`]).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped agent state (e.g. to apply adversarial
    /// corruption through the wrapper).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

/// The wrapper re-randomizes each agent's observations on its own, so it
/// runs its records as a [`np_engine::protocol::ScalarState`].
impl<A: Protocol> ScalarLayout for WithArtificialNoise<A> {}

impl<A: Protocol> Protocol for WithArtificialNoise<A> {
    type Agent = ArtificialNoiseAgent<A::Agent>;

    fn alphabet_size(&self) -> usize {
        self.inner.alphabet_size()
    }

    fn init_agent(&self, role: np_engine::population::Role, rng: &mut StreamRng) -> Self::Agent {
        let d = self.artificial.dim();
        let rows: Vec<Vec<f64>> = (0..d)
            .map(|s| self.artificial.observation_distribution(s).to_vec())
            .collect();
        ArtificialNoiseAgent {
            inner: self.inner.init_agent(role, rng),
            rows: std::sync::Arc::new(rows),
            scratch: vec![0; d],
            scattered: vec![0; d],
        }
    }
}

impl<S: AgentState> AgentState for ArtificialNoiseAgent<S> {
    fn display(&self, rng: &mut StreamRng) -> usize {
        self.inner.display(rng)
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        debug_assert_eq!(observed.len(), self.rows.len());
        // Re-randomize each received message through P: the c_σ messages
        // received as σ scatter as Multinomial(c_σ, P_σ).
        self.scratch.fill(0);
        for (sigma, &count) in observed.iter().enumerate() {
            if count == 0 {
                continue;
            }
            multinomial::sample_into(rng, count, &self.rows[sigma], &mut self.scattered);
            for (slot, c) in self.scratch.iter_mut().zip(&self.scattered) {
                *slot += c;
            }
        }
        let modified = std::mem::take(&mut self.scratch);
        self.inner.update(&modified, rng);
        self.scratch = modified;
    }

    fn opinion(&self) -> Opinion {
        self.inner.opinion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SfParams;
    use crate::sf::SourceFilter;
    use np_engine::channel::ChannelKind;
    use np_engine::population::{PopulationConfig, Role};
    use np_engine::world::World;
    use rand::SeedableRng;

    #[test]
    fn rejects_mismatched_alphabet() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let p4 = NoiseMatrix::uniform(4, 0.1).unwrap();
        assert!(WithArtificialNoise::new(SourceFilter::new(params), p4).is_err());
    }

    #[test]
    fn identity_artificial_noise_is_transparent() {
        // With P = I the wrapper must behave exactly like the inner
        // protocol under the same seed.
        let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
        let params = SfParams::derive(&config, 0.2, 2.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();

        let mut plain = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            77,
        )
        .unwrap();
        plain.run(params.total_rounds());

        // NOTE: the wrapper consumes RNG draws even for P = I (multinomial
        // splits are still sampled), so trajectories differ; compare
        // outcomes statistically instead: both must converge.
        let wrapped_protocol =
            WithArtificialNoise::new(SourceFilter::new(params), NoiseMatrix::noiseless(2)).unwrap();
        let mut wrapped = World::new(
            &wrapped_protocol,
            config,
            &noise,
            ChannelKind::Aggregated,
            77,
        )
        .unwrap();
        wrapped.run(params.total_rounds());

        assert!(plain.is_consensus());
        assert!(wrapped.is_consensus());
    }

    #[test]
    fn deterministic_artificial_noise_permutes_counts() {
        // P = swap matrix: observation counts are exchanged before the
        // inner protocol sees them.
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(16)
            .unwrap();
        let swap = NoiseMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let proto = WithArtificialNoise::new(SourceFilter::new(params), swap).unwrap();
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // Phase 0 lasts two rounds (m = 16, h = 8). The observation
        // [0 zeros, 8 ones] arrives swapped as [8, 0]: counter1 stays 0.
        agent.update(&[0, 8], &mut rng);
        assert_eq!(agent.inner().counter1(), 0);
        // And [8, 0] arrives as [0, 8]: counter1 += 8.
        agent.update(&[8, 0], &mut rng);
        assert_eq!(agent.inner().counter1(), 8);
    }

    #[test]
    fn sf_converges_under_asymmetric_noise_via_reduction() {
        let real = NoiseMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        let reduction = real.artificial_noise().unwrap();
        let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
        let params = SfParams::derive(&config, reduction.uniform_level(), 1.0).unwrap();
        let protocol =
            WithArtificialNoise::new(SourceFilter::new(params), reduction.artificial().clone())
                .unwrap();
        let mut world = World::new(&protocol, config, &real, ChannelKind::Aggregated, 21).unwrap();
        world.run(params.total_rounds());
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn accessors() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let p = NoiseMatrix::uniform(2, 0.3).unwrap();
        let proto = WithArtificialNoise::new(SourceFilter::new(params), p.clone()).unwrap();
        assert_eq!(proto.alphabet_size(), 2);
        assert_eq!(proto.artificial(), &p);
        assert_eq!(proto.inner().params(), &params);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        let _ = agent.inner_mut();
    }
}
