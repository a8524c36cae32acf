//! Property-based tests for the simulation engine — most importantly the
//! distributional equivalence of the exact and aggregated channels.

use np_engine::channel::{Channel, ChannelKind};
use np_engine::opinion::Opinion;
use np_engine::population::{PopulationConfig, Role};
use np_engine::run::Run;
use np_engine::streams::StreamRng;
use np_linalg::noise::NoiseMatrix;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn observation_totals(
    kind: ChannelKind,
    noise: &NoiseMatrix,
    displays: &[usize],
    h: usize,
    reps: usize,
    seed: u64,
) -> Vec<u64> {
    let channel = Channel::new(noise, kind);
    let mut rng = StreamRng::seed_from_u64(seed);
    let d = noise.dim();
    let mut out = vec![0u64; displays.len() * d];
    let mut totals = vec![0u64; d];
    for _ in 0..reps {
        channel.fill_observations(displays, h, &mut rng, &mut out);
        for agent in 0..displays.len() {
            for s in 0..d {
                totals[s] += out[agent * d + s];
            }
        }
    }
    totals
}

proptest! {
    // Statistical tests get fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The workhorse guarantee: per-symbol observation frequencies agree
    /// between the two channel implementations for random display
    /// configurations and random binary noise.
    #[test]
    fn exact_and_aggregated_channels_agree(
        ones in 0usize..=40,
        delta in 0.0f64..=0.5,
        h in 1usize..12,
        seed in any::<u64>()
    ) {
        let n = 40;
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let displays: Vec<usize> = (0..n).map(|i| usize::from(i < ones)).collect();
        let reps = 150;
        let exact = observation_totals(ChannelKind::Exact, &noise, &displays, h, reps, seed);
        let aggregated =
            observation_totals(ChannelKind::Aggregated, &noise, &displays, h, reps, seed ^ 1);
        let total = (n * h * reps) as f64;
        let f_exact = exact[1] as f64 / total;
        let f_aggr = aggregated[1] as f64 / total;
        // Expected frequency and a 5σ band for a Bernoulli mean over
        // `total` draws.
        let q = ones as f64 / n as f64;
        let expect = q * (1.0 - delta) + (1.0 - q) * delta;
        let band = 5.0 * (0.25 / total).sqrt();
        prop_assert!((f_exact - expect).abs() < band, "exact {f_exact} vs {expect}");
        prop_assert!((f_aggr - expect).abs() < band, "aggregated {f_aggr} vs {expect}");
    }
}

proptest! {
    #[test]
    fn channel_conserves_observation_count(
        n in 1usize..30,
        h in 1usize..20,
        delta in 0.0f64..=0.25,
        seed in any::<u64>()
    ) {
        let noise = NoiseMatrix::uniform(4, delta).unwrap();
        let displays: Vec<usize> = (0..n).map(|i| i % 4).collect();
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::new(&noise, kind);
            let mut rng = StreamRng::seed_from_u64(seed);
            let mut out = vec![0u64; n * 4];
            channel.fill_observations(&displays, h, &mut rng, &mut out);
            for agent in 0..n {
                let got: u64 = out[agent * 4..agent * 4 + 4].iter().sum();
                prop_assert_eq!(got, h as u64, "{:?}", kind);
            }
        }
    }

    #[test]
    fn population_roles_match_declared_counts(
        s0 in 0usize..10,
        s1 in 0usize..10,
        extra in 1usize..30,
        h in 1usize..5
    ) {
        prop_assume!(s0 != s1);
        prop_assume!(s0 + s1 > 0);
        let n = s0 + s1 + extra;
        let config = PopulationConfig::new(n, s0, s1, h).unwrap();
        let mut count0 = 0;
        let mut count1 = 0;
        let mut non = 0;
        for role in config.iter_roles() {
            match role {
                Role::Source(Opinion::Zero) => count0 += 1,
                Role::Source(Opinion::One) => count1 += 1,
                Role::NonSource => non += 1,
            }
        }
        prop_assert_eq!(count0, s0);
        prop_assert_eq!(count1, s1);
        prop_assert_eq!(non, extra);
        prop_assert_eq!(config.bias(), s0.abs_diff(s1));
        let correct = config.correct_opinion();
        prop_assert_eq!(correct == Opinion::One, s1 > s0);
    }

    #[test]
    fn noiseless_channel_reproduces_display_distribution(
        displays in prop::collection::vec(0usize..2, 2..25),
        h in 1usize..10,
        seed in any::<u64>()
    ) {
        // δ = 0: observation counts are exactly the sampled displays, so
        // if everyone displays the same symbol the output is
        // deterministic.
        let noise = NoiseMatrix::noiseless(2);
        let all_same = displays.windows(2).all(|w| w[0] == w[1]);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let mut rng = StreamRng::seed_from_u64(seed);
        let mut out = vec![0u64; displays.len() * 2];
        channel.fill_observations(&displays, h, &mut rng, &mut out);
        if all_same {
            let sym = displays[0];
            for agent in 0..displays.len() {
                prop_assert_eq!(out[agent * 2 + sym], h as u64);
            }
        } else {
            // Mixed displays: totals per agent still sum to h.
            for agent in 0..displays.len() {
                prop_assert_eq!(out[agent * 2] + out[agent * 2 + 1], h as u64);
            }
        }
    }

    #[test]
    fn seed_determinism_holds_for_random_configs(
        n in 2usize..30,
        s1 in 1usize..3,
        h in 1usize..8,
        delta in 0.0f64..=0.4,
        seed in any::<u64>()
    ) {
        prop_assume!(s1 < n);
        use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
        use np_engine::world::World;

        struct Flip;
        #[derive(Clone)]
        struct FlipAgent(Opinion);
        impl ScalarLayout for Flip {}
        impl Protocol for Flip {
            type Agent = FlipAgent;
            fn alphabet_size(&self) -> usize { 2 }
            fn init_agent(&self, role: Role, rng: &mut StreamRng) -> FlipAgent {
                FlipAgent(role.preference().unwrap_or(Opinion::from_bool(rand::Rng::gen(rng))))
            }
        }
        impl AgentState for FlipAgent {
            fn display(&self, _rng: &mut StreamRng) -> usize { self.0.as_index() }
            fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], _rng: &mut R) {
                if observed[1] > observed[0] { self.0 = Opinion::One; }
            }
            fn opinion(&self) -> Opinion { self.0 }
        }

        let config = PopulationConfig::new(n, 0, s1, h).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let mut a = World::new(&Flip, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        let mut b = World::new(&Flip, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        a.run(5);
        b.run(5);
        let ops_a: Vec<Opinion> = a.iter_agents().map(|x| x.opinion()).collect();
        let ops_b: Vec<Opinion> = b.iter_agents().map(|x| x.opinion()).collect();
        prop_assert_eq!(ops_a, ops_b);
    }
}

proptest! {
    /// Word-level popcount histograms over the packed bit planes agree
    /// with a naive per-agent count, including ragged tails (n % 64 ≠ 0)
    /// and every supported alphabet width.
    #[test]
    fn packed_histogram_matches_naive_counts(
        n in 1usize..700,
        d in 2usize..=4,
        seed in 0u64..1_000,
    ) {
        use np_engine::packed::PackedDisplays;
        let mut rng = StreamRng::seed_from_u64(seed);
        let symbols: Vec<usize> = (0..n).map(|_| rng.gen_range(0..d)).collect();
        let mut packed = PackedDisplays::new(n, d);
        packed.pack_from(&symbols);
        let mut hist = vec![0u64; d];
        packed.histogram_into(&mut hist);
        let mut naive = vec![0u64; d];
        for &s in &symbols {
            naive[s] += 1;
        }
        prop_assert_eq!(&hist, &naive);
        prop_assert_eq!(hist.iter().sum::<u64>(), n as u64);
    }

    /// Per-chunk partial histograms (the hot path's tally) sum to the
    /// whole-population histogram for any word-aligned chunk length.
    #[test]
    fn packed_chunk_partials_sum_to_global(
        n in 1usize..700,
        d in 2usize..=4,
        chunk_words in 1usize..6,
        seed in 0u64..1_000,
    ) {
        use np_engine::packed::PackedDisplays;
        let mut rng = StreamRng::seed_from_u64(seed);
        let symbols: Vec<usize> = (0..n).map(|_| rng.gen_range(0..d)).collect();
        let mut packed = PackedDisplays::new(n, d);
        packed.pack_from(&symbols);
        let mut global = vec![0u64; d];
        packed.histogram_into(&mut global);
        let mut summed = vec![0u64; d];
        for chunk in packed.chunks_mut(chunk_words * 64) {
            chunk.histogram_into(&mut summed);
        }
        prop_assert_eq!(&summed, &global);
    }
}
