//! The noisy observation channel — steps 2 and 3 of the model round.
//!
//! Two interchangeable implementations are provided:
//!
//! * [`ChannelKind::Exact`] draws each of the `h` samples literally:
//!   pick a uniform agent, look up its displayed symbol, pass that symbol
//!   through an alias-sampled row of the noise matrix. Cost `Θ(n·h)` per
//!   round.
//!
//! * [`ChannelKind::Aggregated`] exploits exchangeability. For one agent,
//!   the `h` sampled *displayed* symbols are i.i.d. categorical with
//!   probabilities `(c_σ/n)_σ`, where `c_σ` is the number of agents
//!   currently displaying `σ` — so the vector of how many samples landed on
//!   each displayed symbol is `Multinomial(h, c/n)`. Conditioned on that,
//!   the observations produced by the `k_σ` samples of symbol `σ` are
//!   i.i.d. draws from row `σ` of the noise matrix, so the per-symbol
//!   observation counts are `Multinomial(k_σ, N_σ)`. Summing over σ gives
//!   the agent's observation-count vector with *exactly* the same joint
//!   distribution as the literal channel — independent of `h`. This is
//!   what makes the paper's `h = n` regime (`Θ(n²)` messages per round)
//!   simulable at `n = 10⁵`.
//!
//!   The chunked hot path collapses the two stages further: composing the
//!   categorical display draw with the noise row gives each observation
//!   the mixture law `q_j = Σ_σ (c_σ/n)·N_σj`, so the agent's count
//!   vector is simply `Multinomial(h, q)` — `|Σ| − 1` binomial draws per
//!   agent, with the level-0 binomial served from a per-round cached
//!   inverse-cdf table ([`np_stats::binomial::CdfTable`]) built on the
//!   round's first draw, so a caller that reads only the collapsed law
//!   (the mean-field counts engine) never builds it. The sequential path
//!   ([`Channel::fill_observations`]) keeps the literal two-stage
//!   factorization, so the distribution tests below compare the collapse
//!   against an independent implementation.
//!
//! Both channels deliver observations as per-symbol counts; see
//! [`crate::protocol`] for why this is lossless for anonymous protocols.

use std::ops::Range;
use std::sync::OnceLock;

use crate::error::EngineError;
use crate::streams::StreamRng;
use crate::topology::Topology;
use np_linalg::noise::NoiseMatrix;
use np_stats::alias::RowSamplers;
use np_stats::binomial::CdfTable;
use np_stats::{hypergeometric, multinomial};
use rand::Rng;

use crate::streams::{RoundStreams, StreamStage};

/// Which channel implementation to use. The two are
/// distribution-identical; pick [`ChannelKind::Aggregated`] unless you are
/// specifically exercising the literal sampling path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelKind {
    /// Literal per-sample simulation, `Θ(n·h)` per round.
    Exact,
    /// Multinomial-count simulation, `O(n·|Σ|²)` per round.
    #[default]
    Aggregated,
}

/// How each agent's `h` samples are drawn from the population.
///
/// The paper's model is [`SamplingMode::WithReplacement`] (an agent may
/// sample the same agent twice, or itself). The without-replacement
/// variant is offered as a model-robustness check (experiment
/// EXP-REPLACE): at `h = n` it means "observe everyone exactly once",
/// which removes the sampling variance entirely and leaves only channel
/// noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SamplingMode {
    /// Uniform i.i.d. samples (the paper's model).
    #[default]
    WithReplacement,
    /// A uniform `h`-subset of the population (requires `h ≤ n`).
    WithoutReplacement,
}

/// A noisy PULL observation channel bound to a noise matrix.
///
/// # Example
///
/// ```
/// use np_engine::channel::{Channel, ChannelKind};
/// use np_linalg::noise::NoiseMatrix;
/// use np_engine::streams::StreamRng;
/// use rand::SeedableRng;
///
/// let noise = NoiseMatrix::noiseless(2);
/// let channel = Channel::new(&noise, ChannelKind::Aggregated);
/// let mut rng = StreamRng::seed_from_u64(0);
/// // Three agents all displaying symbol 1; h = 5 noiseless observations
/// // must all come back as 1.
/// let displays = vec![1, 1, 1];
/// let mut obs = vec![0u64; 3 * 2];
/// channel.fill_observations(&displays, 5, &mut rng, &mut obs);
/// assert_eq!(obs, vec![0, 5, 0, 5, 0, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    kind: ChannelKind,
    mode: SamplingMode,
    d: usize,
    /// Alias tables per displayed symbol (exact path and single draws).
    samplers: RowSamplers,
    /// Raw noise rows (aggregated path).
    rows: Vec<Vec<f64>>,
}

/// Read-only per-round sampling context produced by
/// [`Channel::begin_round`] and shared (by reference) across the chunk
/// workers of one round.
#[derive(Debug, Clone)]
pub struct RoundContext {
    /// Histogram of currently displayed symbols.
    disp_counts: Vec<u64>,
    /// The `h` this context was built for (the cached table below is a
    /// function of it).
    h: u64,
    /// The collapsed observation law `q_j = Σ_σ probs[σ]·N_σj` — the
    /// marginal distribution of a single noisy observation. Empty unless
    /// the channel is aggregated with replacement.
    obs_law: Vec<f64>,
    /// Inverse-cdf table for `Binomial(h, obs_law[0])`, the head draw of
    /// every agent's collapsed multinomial this round. Built by the first
    /// aggregated with-replacement fill that draws from it and shared by
    /// every later chunk of the round; never built otherwise.
    level0: OnceLock<CdfTable>,
}

impl RoundContext {
    /// The display histogram this context was built from.
    pub fn disp_counts(&self) -> &[u64] {
        &self.disp_counts
    }

    /// The collapsed single-observation law `q_j = Σ_σ (c_σ/n)·N_σj`,
    /// clamped and renormalized against float drift. Empty unless the
    /// channel is aggregated with replacement — the mean-field counts
    /// backend (which requires exactly that configuration) reads its
    /// per-round transition laws from here.
    pub fn obs_law(&self) -> &[f64] {
        &self.obs_law
    }
}

/// Clamps a collapsed observation law into `[0, 1]` per entry and rescales
/// it to sum to exactly 1. The input is a convex combination of stochastic
/// rows, so it is within a few ulps of a distribution already — this only
/// irons out accumulation drift (the rescale factor is `1 ± O(d·ε)`), it
/// never masks a genuinely malformed law.
///
/// # Errors
///
/// Returns [`EngineError::BadHistogram`] when the law sums to zero. A
/// convex combination of stochastic rows can only be all-zero if the
/// mixture weights were — i.e. a malformed (empty) histogram. Leaving the
/// zero law in place used to hand `CdfTable::new_unchecked(h, 0.0)` a
/// silently degenerate sampler; it is a hard error now.
fn normalize_law(q: &mut [f64]) -> Result<(), EngineError> {
    let mut total = 0.0f64;
    for qj in q.iter_mut() {
        *qj = qj.clamp(0.0, 1.0);
        total += *qj;
    }
    if total <= 0.0 {
        return Err(EngineError::BadHistogram {
            detail: "collapsed observation law sums to zero (malformed display histogram)".into(),
        });
    }
    for qj in q.iter_mut() {
        *qj /= total;
    }
    Ok(())
}

impl Channel {
    /// Builds a channel from a validated noise matrix, sampling with
    /// replacement (the paper's model).
    ///
    /// # Panics
    ///
    /// Never panics for a [`NoiseMatrix`]: its rows are valid probability
    /// vectors by construction.
    pub fn new(noise: &NoiseMatrix, kind: ChannelKind) -> Self {
        Channel::with_sampling(noise, kind, SamplingMode::WithReplacement)
    }

    /// Builds a channel with an explicit [`SamplingMode`].
    pub fn with_sampling(noise: &NoiseMatrix, kind: ChannelKind, mode: SamplingMode) -> Self {
        let rows: Vec<Vec<f64>> = (0..noise.dim())
            .map(|s| noise.observation_distribution(s).to_vec())
            .collect();
        crate::invariants::check_rows_stochastic(&rows);
        #[expect(
            clippy::expect_used,
            reason = "NoiseMatrix rows are valid distributions by construction"
        )]
        let samplers = RowSamplers::new(&rows).expect("noise matrix rows are valid distributions");
        Channel {
            kind,
            mode,
            d: noise.dim(),
            samplers,
            rows,
        }
    }

    /// Alphabet size `|Σ|`.
    pub fn alphabet_size(&self) -> usize {
        self.d
    }

    /// The implementation in use.
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// The sampling mode in use.
    pub fn sampling_mode(&self) -> SamplingMode {
        self.mode
    }

    /// The raw noise rows (`rows[displayed][observed]`), for snapshot
    /// serialization — together with [`Channel::kind`] and
    /// [`Channel::sampling_mode`] they reconstruct the channel exactly.
    pub(crate) fn noise_rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Applies the channel noise to a single displayed symbol, returning
    /// the observed symbol.
    ///
    /// # Panics
    ///
    /// Panics if `displayed >= self.alphabet_size()`.
    pub fn observe_one(&self, rng: &mut StreamRng, displayed: usize) -> usize {
        self.samplers.observe(rng, displayed)
    }

    /// Runs one full round of observations: every agent samples `h` agents
    /// (uniformly, with replacement, self included) from `displays` and
    /// observes their symbols through the noise.
    ///
    /// `out` is the flattened `n × d` observation-count matrix
    /// (`out[agent * d + symbol]`); it is zeroed and refilled.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != displays.len() * self.alphabet_size()`, if
    /// `displays` is empty, if any displayed symbol is out of range, or if
    /// `h > n` under [`SamplingMode::WithoutReplacement`].
    pub fn fill_observations(
        &self,
        displays: &[usize],
        h: usize,
        rng: &mut StreamRng,
        out: &mut [u64],
    ) {
        let n = displays.len();
        assert!(n > 0, "no agents to observe");
        assert_eq!(out.len(), n * self.d, "observation buffer has wrong size");
        if self.mode == SamplingMode::WithoutReplacement {
            assert!(
                h <= n,
                "cannot draw {h} distinct agents from {n} without replacement"
            );
        }
        out.fill(0);
        match self.kind {
            ChannelKind::Exact => self.fill_exact(displays, h, rng, out),
            ChannelKind::Aggregated => self.fill_aggregated(displays, h, rng, out),
        }
    }

    fn fill_exact(&self, displays: &[usize], h: usize, rng: &mut StreamRng, out: &mut [u64]) {
        let n = displays.len();
        match self.mode {
            SamplingMode::WithReplacement => {
                for agent in 0..n {
                    let base = agent * self.d;
                    for _ in 0..h {
                        let sampled = rng.gen_range(0..n);
                        let observed = self.samplers.observe(rng, displays[sampled]);
                        out[base + observed] += 1;
                    }
                }
            }
            SamplingMode::WithoutReplacement => {
                // Partial Fisher–Yates per agent over a persistent
                // permutation buffer: each agent's first h positions end up
                // a uniform h-subset; the buffer remains a permutation so
                // no reset is needed between agents.
                let mut idx: Vec<usize> = (0..n).collect();
                for agent in 0..n {
                    let base = agent * self.d;
                    for i in 0..h {
                        let j = rng.gen_range(i..n);
                        idx.swap(i, j);
                        let observed = self.samplers.observe(rng, displays[idx[i]]);
                        out[base + observed] += 1;
                    }
                }
            }
        }
    }

    /// Validates this round's displays and precomputes the shared,
    /// read-only context (display histogram and sampling probabilities)
    /// consumed by [`Channel::fill_observations_chunk`]. Call once per
    /// round, then fill disjoint agent ranges from any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if `displays` is empty, if any displayed symbol is out of
    /// range, or if `h > n` under [`SamplingMode::WithoutReplacement`].
    pub fn begin_round(&self, displays: &[usize], h: usize) -> RoundContext {
        assert!(!displays.is_empty(), "no agents to observe");
        let mut disp_counts = vec![0u64; self.d];
        for &s in displays {
            assert!(s < self.d, "displayed symbol {s} out of range {}", self.d);
            disp_counts[s] += 1;
        }
        if self.mode == SamplingMode::WithoutReplacement {
            let n = displays.len();
            assert!(
                h <= n,
                "cannot draw {h} distinct agents from {n} without replacement"
            );
        }
        self.begin_round_from_counts_trusted(disp_counts, h)
    }

    /// Like [`Channel::begin_round`], but starts from an already-computed
    /// display histogram (symbols are in range by construction — a
    /// histogram cannot hold an out-of-range symbol). This is the public
    /// seam reachable from sweep specs and the mean-field backend, so the
    /// preconditions are typed errors rather than panics.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadHistogram`] if
    /// `disp_counts.len() != self.alphabet_size()`, if the histogram is
    /// empty (sums to zero), or if `h > n` under
    /// [`SamplingMode::WithoutReplacement`].
    pub fn begin_round_from_counts(
        &self,
        disp_counts: Vec<u64>,
        h: usize,
    ) -> Result<RoundContext, EngineError> {
        if disp_counts.len() != self.d {
            return Err(EngineError::BadHistogram {
                detail: format!(
                    "length {} does not match alphabet size {}",
                    disp_counts.len(),
                    self.d
                ),
            });
        }
        let n: u64 = disp_counts.iter().sum();
        if n == 0 {
            return Err(EngineError::BadHistogram {
                detail: "histogram sums to zero: no agents to observe".into(),
            });
        }
        if self.mode == SamplingMode::WithoutReplacement && h as u64 > n {
            return Err(EngineError::BadHistogram {
                detail: format!("cannot draw {h} distinct agents from {n} without replacement"),
            });
        }
        Ok(self.begin_round_from_counts_trusted(disp_counts, h))
    }

    /// Internal hot-path variant of [`Channel::begin_round_from_counts`]:
    /// the per-round loops in `World::step` and the counts backend have
    /// already established the preconditions, so this keeps them as debug
    /// asserts only.
    pub(crate) fn begin_round_from_counts_trusted(
        &self,
        disp_counts: Vec<u64>,
        h: usize,
    ) -> RoundContext {
        debug_assert_eq!(disp_counts.len(), self.d, "display histogram length");
        let n: u64 = disp_counts.iter().sum();
        debug_assert!(n > 0, "no agents to observe");
        debug_assert!(
            self.mode == SamplingMode::WithReplacement || h as u64 <= n,
            "oversampling without replacement"
        );
        let obs_law =
            if self.kind == ChannelKind::Aggregated && self.mode == SamplingMode::WithReplacement {
                // Collapsed observation law: q_j = Σ_σ (c_σ/n)·N_σj. Built
                // once per round; every agent's count vector this round is
                // Multinomial(h, q).
                let mut q = vec![0.0f64; self.d];
                for (sigma, &c) in disp_counts.iter().enumerate() {
                    if c > 0 {
                        let w = c as f64 / n as f64;
                        for (qj, &row_j) in q.iter_mut().zip(&self.rows[sigma]) {
                            *qj += w * row_j;
                        }
                    }
                }
                // Float accumulation can leave any entry (not just q[0])
                // with −1e-17-scale negatives or Σq ≠ 1; the multinomial
                // chain and the mean-field transition laws consume the
                // whole vector, so clamp and renormalize all of it.
                #[expect(
                    clippy::expect_used,
                    reason = "infallible by construction: the nonzero histogram validated above \
                              mixes stochastic rows, so the law sums to ≈ 1, never 0"
                )]
                normalize_law(&mut q)
                    .expect("nonzero histogram over stochastic rows yields a nonzero law");
                q
            } else {
                Vec::new()
            };
        RoundContext {
            disp_counts,
            h: h as u64,
            obs_law,
            level0: OnceLock::new(),
        }
    }

    /// Fills the observations of agents `range` using each agent's
    /// [`StreamStage::Observe`] stream. `out` is the flattened
    /// `range.len() × d` count matrix for exactly those agents; it is
    /// zeroed and refilled. Distribution-identical to
    /// [`Channel::fill_observations`], and — because each agent's draws
    /// come from its own stream — the result is independent of how the
    /// population is split into ranges.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != range.len() * self.alphabet_size()` or if
    /// `range` exceeds the population.
    pub fn fill_observations_chunk(
        &self,
        ctx: &RoundContext,
        displays: &[usize],
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        assert!(range.end <= displays.len(), "chunk range out of bounds");
        assert_eq!(
            out.len(),
            range.len() * self.d,
            "observation buffer has wrong size"
        );
        out.fill(0);
        match self.kind {
            ChannelKind::Exact => self.fill_exact_chunk(displays, h, range, streams, out),
            ChannelKind::Aggregated => self.fill_aggregated_chunk(ctx, h, range, streams, out),
        }
    }

    fn fill_exact_chunk(
        &self,
        displays: &[usize],
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        let n = displays.len();
        match self.mode {
            SamplingMode::WithReplacement => {
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let base = k * self.d;
                    for _ in 0..h {
                        let sampled = rng.gen_range(0..n);
                        let observed = self.samplers.observe(&mut rng, displays[sampled]);
                        out[base + observed] += 1;
                    }
                }
            }
            SamplingMode::WithoutReplacement => {
                // Partial Fisher–Yates per agent over one buffer; the swaps
                // are recorded and undone so every agent starts from the
                // identity permutation — this keeps each agent's subset a
                // pure function of its own stream, independent of chunking.
                let mut idx: Vec<usize> = (0..n).collect();
                // Per-chunk scratch, reused across the agent loop below.
                let mut swaps: Vec<usize> = Vec::with_capacity(h);
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let base = k * self.d;
                    swaps.clear();
                    for i in 0..h {
                        let j = rng.gen_range(i..n);
                        idx.swap(i, j);
                        swaps.push(j);
                        let observed = self.samplers.observe(&mut rng, displays[idx[i]]);
                        out[base + observed] += 1;
                    }
                    for (i, &j) in swaps.iter().enumerate().rev() {
                        idx.swap(i, j);
                    }
                }
            }
        }
    }

    fn fill_aggregated_chunk(
        &self,
        ctx: &RoundContext,
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        match self.mode {
            SamplingMode::WithReplacement => {
                // Collapsed compound draw (see module docs): each agent's
                // count vector is Multinomial(h, q) directly. The head
                // binomial comes from the per-round table, built here by
                // the round's first chunk; the tail is the conditional
                // chain written straight into `out` — no per-agent
                // scratch, no per-agent allocation.
                assert_eq!(ctx.h, h as u64, "round context was built for a different h");
                let table = ctx
                    .level0
                    .get_or_init(|| CdfTable::new_unchecked(ctx.h, ctx.obs_law[0]));
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let base = k * self.d;
                    let first = table.sample(&mut rng);
                    multinomial::sample_given_first(
                        &mut rng,
                        h as u64,
                        &ctx.obs_law,
                        first,
                        &mut out[base..base + self.d],
                    );
                }
            }
            SamplingMode::WithoutReplacement => {
                // Without replacement there is no collapse: the sampled
                // displays are multivariate hypergeometric, not i.i.d., so
                // the two-stage factorization stays.
                // Per-chunk scratch, reused across the agent loop below.
                let mut sampled = vec![0u64; self.d];
                let mut observed = vec![0u64; self.d];
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let base = k * self.d;
                    hypergeometric::sample_multivariate_into(
                        &mut rng,
                        &ctx.disp_counts,
                        h as u64,
                        &mut sampled,
                    );
                    #[allow(clippy::needless_range_loop)]
                    for sigma in 0..self.d {
                        let k_sigma = sampled[sigma];
                        if k_sigma == 0 {
                            continue;
                        }
                        multinomial::sample_into(
                            &mut rng,
                            k_sigma,
                            &self.rows[sigma],
                            &mut observed,
                        );
                        for (slot, c) in out[base..base + self.d].iter_mut().zip(&observed) {
                            *slot += c;
                        }
                    }
                }
            }
        }
    }

    /// Fills the observations of agents `range` when sampling is
    /// restricted to a [`Topology`]'s neighborhoods: each of the `h`
    /// samples is drawn from the agent's own neighbor slice instead of
    /// the whole population. The per-agent stream discipline is identical
    /// to [`Channel::fill_observations_chunk`], so the result is again
    /// independent of chunking and thread count.
    ///
    /// There is no shared [`RoundContext`] here: with a sparse graph each
    /// agent's observation law is a function of *its* neighborhood, so
    /// the aggregated path builds a local display histogram (`O(deg)`)
    /// and collapses it per agent — `O(n·|Σ|)`-shaped for bounded-degree
    /// graphs instead of falling back to the literal `Θ(n·h)`.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is the complete graph (use the unrestricted path
    /// — it is faster and byte-identical to pre-topology trajectories),
    /// if `topo` does not cover `displays`, if `out` has the wrong size,
    /// or if `h` exceeds the minimum degree under
    /// [`SamplingMode::WithoutReplacement`].
    pub fn fill_observations_topo_chunk(
        &self,
        displays: &[usize],
        topo: &Topology,
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        assert!(
            !topo.is_complete(),
            "complete topology must use the unrestricted sampling path"
        );
        assert_eq!(
            topo.n(),
            displays.len(),
            "topology does not cover the population"
        );
        assert!(range.end <= displays.len(), "chunk range out of bounds");
        assert_eq!(
            out.len(),
            range.len() * self.d,
            "observation buffer has wrong size"
        );
        if self.mode == SamplingMode::WithoutReplacement {
            assert!(
                h <= topo.min_degree(),
                "cannot draw {h} distinct neighbors: minimum degree is {}",
                topo.min_degree()
            );
        }
        out.fill(0);
        match self.kind {
            ChannelKind::Exact => {
                self.fill_exact_topo_chunk(displays, topo, h, range, streams, out)
            }
            ChannelKind::Aggregated => {
                self.fill_aggregated_topo_chunk(displays, topo, h, range, streams, out)
            }
        }
    }

    fn fill_exact_topo_chunk(
        &self,
        displays: &[usize],
        topo: &Topology,
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        match self.mode {
            SamplingMode::WithReplacement => {
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let nbrs = topo.neighbors(agent);
                    let base = k * self.d;
                    for _ in 0..h {
                        let sampled = nbrs[rng.gen_range(0..nbrs.len())] as usize;
                        let observed = self.samplers.observe(&mut rng, displays[sampled]);
                        out[base + observed] += 1;
                    }
                }
            }
            SamplingMode::WithoutReplacement => {
                // Partial Fisher–Yates over a copy of the neighbor slice:
                // the first h positions end up a uniform h-subset of the
                // neighborhood.
                // Per-chunk scratch, reused across the agent loop below.
                let mut pool: Vec<u32> = Vec::with_capacity(topo.max_degree());
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    pool.clear();
                    pool.extend_from_slice(topo.neighbors(agent));
                    let base = k * self.d;
                    for i in 0..h {
                        let j = rng.gen_range(i..pool.len());
                        pool.swap(i, j);
                        let observed = self.samplers.observe(&mut rng, displays[pool[i] as usize]);
                        out[base + observed] += 1;
                    }
                }
            }
        }
    }

    fn fill_aggregated_topo_chunk(
        &self,
        displays: &[usize],
        topo: &Topology,
        h: usize,
        range: Range<usize>,
        streams: &RoundStreams,
        out: &mut [u64],
    ) {
        // Per-agent *local* display histogram over the neighbor slice.
        // Per-chunk scratch, reused across the agent loop below.
        let mut local = vec![0u64; self.d];
        match self.mode {
            SamplingMode::WithReplacement => {
                // Local collapse: the agent's h samples are i.i.d. over its
                // neighborhood, so its count vector is Multinomial(h, q_loc)
                // with q_loc_j = Σ_σ (local_σ/deg)·N_σj. The law differs per
                // agent, so there is no round-shared cached CdfTable — the
                // multinomial chain is drawn directly.
                // Per-chunk scratch, reused across the agent loop below.
                let mut q = vec![0.0f64; self.d];
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let nbrs = topo.neighbors(agent);
                    local.fill(0);
                    for &j in nbrs {
                        local[displays[j as usize]] += 1;
                    }
                    let deg = nbrs.len() as f64;
                    q.fill(0.0);
                    for (sigma, &c) in local.iter().enumerate() {
                        if c > 0 {
                            let w = c as f64 / deg;
                            for (qj, &row_j) in q.iter_mut().zip(&self.rows[sigma]) {
                                *qj += w * row_j;
                            }
                        }
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "infallible by construction: every built topology has minimum \
                                  degree ≥ 1, so the local histogram is nonzero"
                    )]
                    normalize_law(&mut q)
                        .expect("nonempty neighborhood yields a nonzero local law");
                    let base = k * self.d;
                    multinomial::sample_into(&mut rng, h as u64, &q, &mut out[base..base + self.d]);
                }
            }
            SamplingMode::WithoutReplacement => {
                // A uniform h-subset of the neighborhood: the sampled
                // displays are multivariate hypergeometric in the *local*
                // histogram, then pass through the noise rows per symbol.
                // Per-chunk scratch, reused across the agent loop below.
                let mut sampled = vec![0u64; self.d];
                // Per-chunk scratch, reused across the agent loop below.
                let mut observed = vec![0u64; self.d];
                for (k, agent) in range.enumerate() {
                    let mut rng = streams.rng(agent, StreamStage::Observe);
                    let nbrs = topo.neighbors(agent);
                    local.fill(0);
                    for &j in nbrs {
                        local[displays[j as usize]] += 1;
                    }
                    let base = k * self.d;
                    hypergeometric::sample_multivariate_into(
                        &mut rng,
                        &local,
                        h as u64,
                        &mut sampled,
                    );
                    #[allow(clippy::needless_range_loop)]
                    for sigma in 0..self.d {
                        let k_sigma = sampled[sigma];
                        if k_sigma == 0 {
                            continue;
                        }
                        multinomial::sample_into(
                            &mut rng,
                            k_sigma,
                            &self.rows[sigma],
                            &mut observed,
                        );
                        for (slot, c) in out[base..base + self.d].iter_mut().zip(&observed) {
                            *slot += c;
                        }
                    }
                }
            }
        }
    }

    fn fill_aggregated(&self, displays: &[usize], h: usize, rng: &mut StreamRng, out: &mut [u64]) {
        let n = displays.len();
        // Histogram of currently displayed symbols.
        let mut disp_counts = vec![0u64; self.d];
        for &s in displays {
            assert!(s < self.d, "displayed symbol {s} out of range {}", self.d);
            disp_counts[s] += 1;
        }
        let probs: Vec<f64> = disp_counts.iter().map(|&c| c as f64 / n as f64).collect();
        let mut sampled = vec![0u64; self.d];
        let mut observed = vec![0u64; self.d];
        for agent in 0..n {
            let base = agent * self.d;
            // How many of this agent's h samples landed on each displayed
            // symbol: multinomial with replacement, multivariate
            // hypergeometric without.
            match self.mode {
                SamplingMode::WithReplacement => {
                    multinomial::sample_into(rng, h as u64, &probs, &mut sampled);
                }
                SamplingMode::WithoutReplacement => {
                    hypergeometric::sample_multivariate_into(
                        rng,
                        &disp_counts,
                        h as u64,
                        &mut sampled,
                    );
                }
            }
            // Push each group through the noise row. (Index loop: σ names
            // the displayed symbol, used for both lookups.)
            #[allow(clippy::needless_range_loop)]
            for sigma in 0..self.d {
                let k = sampled[sigma];
                if k == 0 {
                    continue;
                }
                multinomial::sample_into(rng, k, &self.rows[sigma], &mut observed);
                for (slot, c) in out[base..base + self.d].iter_mut().zip(&observed) {
                    *slot += c;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn counts_for(
        kind: ChannelKind,
        noise: &NoiseMatrix,
        displays: &[usize],
        h: usize,
        seed: u64,
    ) -> Vec<u64> {
        let channel = Channel::new(noise, kind);
        let mut rng = StreamRng::seed_from_u64(seed);
        let mut out = vec![0u64; displays.len() * noise.dim()];
        channel.fill_observations(displays, h, &mut rng, &mut out);
        out
    }

    #[test]
    fn noiseless_aggregated_counts_sum_to_h() {
        let noise = NoiseMatrix::noiseless(2);
        let displays = vec![0, 1, 1, 0, 1];
        let out = counts_for(ChannelKind::Aggregated, &noise, &displays, 9, 3);
        for agent in 0..5 {
            let total: u64 = out[agent * 2..agent * 2 + 2].iter().sum();
            assert_eq!(total, 9);
        }
    }

    #[test]
    fn noiseless_exact_counts_sum_to_h() {
        let noise = NoiseMatrix::noiseless(2);
        let displays = vec![0, 1, 1];
        let out = counts_for(ChannelKind::Exact, &noise, &displays, 7, 4);
        for agent in 0..3 {
            let total: u64 = out[agent * 2..agent * 2 + 2].iter().sum();
            assert_eq!(total, 7);
        }
    }

    #[test]
    fn uniform_displays_noiseless_gives_deterministic_output() {
        // Everyone displays symbol 1, no noise: every observation is 1.
        let noise = NoiseMatrix::noiseless(3);
        let displays = vec![1; 10];
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let out = counts_for(kind, &noise, &displays, 4, 5);
            for agent in 0..10 {
                assert_eq!(&out[agent * 3..agent * 3 + 3], &[0, 4, 0]);
            }
        }
    }

    #[test]
    fn fully_noisy_channel_ignores_displays() {
        // δ = 1/2 on binary alphabet: observations are fair coins no matter
        // what is displayed. Check empirical frequency.
        let noise = NoiseMatrix::uniform(2, 0.5).unwrap();
        let displays = vec![1; 200]; // everyone displays 1
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let out = counts_for(kind, &noise, &displays, 50, 6);
            let ones: u64 = (0..200).map(|a| out[a * 2 + 1]).sum();
            let total = 200 * 50;
            let frac = ones as f64 / total as f64;
            assert!((frac - 0.5).abs() < 0.02, "{kind:?}: fraction {frac}");
        }
    }

    /// The central guarantee: exact and aggregated channels produce the
    /// same distribution. We compare per-symbol observation frequencies
    /// over many rounds on an asymmetric configuration.
    #[test]
    fn exact_and_aggregated_agree_in_distribution() {
        let noise = NoiseMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        // 30% display 1.
        let displays: Vec<usize> = (0..100).map(|i| usize::from(i % 10 < 3)).collect();
        let h = 8;
        let reps = 300;
        let mut totals = [[0u64; 2]; 2]; // [kind][symbol]
        for (ki, kind) in [ChannelKind::Exact, ChannelKind::Aggregated]
            .iter()
            .enumerate()
        {
            let channel = Channel::new(&noise, *kind);
            let mut rng = StreamRng::seed_from_u64(99 + ki as u64);
            let mut out = vec![0u64; displays.len() * 2];
            for _ in 0..reps {
                channel.fill_observations(&displays, h, &mut rng, &mut out);
                for agent in 0..displays.len() {
                    totals[ki][0] += out[agent * 2];
                    totals[ki][1] += out[agent * 2 + 1];
                }
            }
        }
        // Expected P(observe 1) = 0.3·0.9 + 0.7·0.2 = 0.41.
        let total_obs = (100 * h * reps) as f64;
        for (ki, t) in totals.iter().enumerate() {
            let frac = t[1] as f64 / total_obs;
            assert!((frac - 0.41).abs() < 0.01, "kind {ki}: fraction {frac}");
        }
        // And the two kinds agree with each other tightly.
        let f_exact = totals[0][1] as f64 / total_obs;
        let f_aggr = totals[1][1] as f64 / total_obs;
        assert!((f_exact - f_aggr).abs() < 0.01);
    }

    #[test]
    fn observe_one_follows_noise_row() {
        let noise = NoiseMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.3, 0.7]]).unwrap();
        let channel = Channel::new(&noise, ChannelKind::Exact);
        let mut rng = StreamRng::seed_from_u64(11);
        // Row 0 is deterministic.
        for _ in 0..50 {
            assert_eq!(channel.observe_one(&mut rng, 0), 0);
        }
        // Row 1 is 70% ones.
        let mut ones = 0;
        let trials = 20_000;
        for _ in 0..trials {
            ones += channel.observe_one(&mut rng, 1);
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.7).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn wrong_buffer_size_panics() {
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut out = vec![0u64; 3];
        channel.fill_observations(&[0, 1], 1, &mut rng, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_display_symbol_panics() {
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut out = vec![0u64; 4];
        channel.fill_observations(&[0, 2], 1, &mut rng, &mut out);
    }

    #[test]
    fn without_replacement_h_equals_n_sees_everyone_exactly_once() {
        // δ = 0, h = n, no replacement: every agent's counts equal the
        // exact display histogram — deterministically.
        let noise = NoiseMatrix::noiseless(2);
        let displays = vec![0, 1, 1, 0, 1, 1, 0, 1]; // 3 zeros, 5 ones
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::with_sampling(&noise, kind, SamplingMode::WithoutReplacement);
            let mut rng = StreamRng::seed_from_u64(7);
            let mut out = vec![0u64; displays.len() * 2];
            channel.fill_observations(&displays, displays.len(), &mut rng, &mut out);
            for agent in 0..displays.len() {
                assert_eq!(&out[agent * 2..agent * 2 + 2], &[3, 5], "{kind:?}");
            }
        }
    }

    #[test]
    fn without_replacement_partial_draw_matches_marginals() {
        // 40% display 1; draw h = 10 of 50 without replacement: observed-1
        // frequency must match 0.4·(1−δ) + 0.6·δ.
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let displays: Vec<usize> = (0..50).map(|i| usize::from(i % 5 < 2)).collect();
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::with_sampling(&noise, kind, SamplingMode::WithoutReplacement);
            let mut rng = StreamRng::seed_from_u64(8);
            let mut out = vec![0u64; 50 * 2];
            let mut ones = 0u64;
            let reps = 400;
            for _ in 0..reps {
                channel.fill_observations(&displays, 10, &mut rng, &mut out);
                ones += (0..50).map(|a| out[a * 2 + 1]).sum::<u64>();
            }
            let frac = ones as f64 / (50 * 10 * reps) as f64;
            let expect = 0.4 * 0.9 + 0.6 * 0.1;
            assert!((frac - expect).abs() < 0.01, "{kind:?}: {frac} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn without_replacement_rejects_oversampling() {
        let noise = NoiseMatrix::noiseless(2);
        let channel =
            Channel::with_sampling(&noise, ChannelKind::Exact, SamplingMode::WithoutReplacement);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut out = vec![0u64; 4];
        channel.fill_observations(&[0, 1], 3, &mut rng, &mut out);
    }

    fn chunk_counts_for(
        channel: &Channel,
        displays: &[usize],
        h: usize,
        seed: u64,
        chunk: usize,
    ) -> Vec<u64> {
        let streams = RoundStreams::new(seed, 0);
        let ctx = channel.begin_round(displays, h);
        let d = channel.alphabet_size();
        let mut out = vec![0u64; displays.len() * d];
        let mut start = 0;
        while start < displays.len() {
            let end = (start + chunk).min(displays.len());
            channel.fill_observations_chunk(
                &ctx,
                displays,
                h,
                start..end,
                &streams,
                &mut out[start * d..end * d],
            );
            start = end;
        }
        out
    }

    #[test]
    fn chunked_fill_is_chunk_size_invariant() {
        // Full matrix: alphabet sizes 2, 3 and 4 (the multinomial chain and
        // hypergeometric splitter branch on the tail length, so d = 2 alone
        // does not cover them) under both kinds and both sampling modes.
        // n = 31 with chunks [1, 4, 7, 30] exercises uneven chunk
        // boundaries, including WithoutReplacement mid-permutation splits.
        for d in [2usize, 3, 4] {
            let noise = NoiseMatrix::uniform(d, 0.15).unwrap();
            let displays: Vec<usize> = (0..31).map(|i| i % d).collect();
            for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
                for mode in [
                    SamplingMode::WithReplacement,
                    SamplingMode::WithoutReplacement,
                ] {
                    let channel = Channel::with_sampling(&noise, kind, mode);
                    let whole = chunk_counts_for(&channel, &displays, 9, 5, 31);
                    for chunk in [1, 4, 7, 30] {
                        let pieces = chunk_counts_for(&channel, &displays, 9, 5, chunk);
                        assert_eq!(whole, pieces, "d={d} {kind:?} {mode:?} chunk={chunk}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_law_is_a_typed_error() {
        // Regression: an all-zero law used to pass through normalize_law
        // untouched and feed CdfTable::new_unchecked(h, 0.0) — a silently
        // degenerate sampler. It must be a BadHistogram error now.
        let mut q = vec![0.0f64; 4];
        let err = normalize_law(&mut q).expect_err("zero law");
        assert!(matches!(err, EngineError::BadHistogram { .. }));
        assert!(err.to_string().contains("sums to zero"));
        // Clamping makes an all-negative law the same case.
        let mut q = vec![-1e-18f64; 3];
        assert!(normalize_law(&mut q).is_err());
        // A healthy law still normalizes in place.
        let mut q = vec![0.5f64, 0.25, 0.25 + 1e-16];
        normalize_law(&mut q).expect("healthy law");
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    fn topo_chunk_counts_for(
        channel: &Channel,
        displays: &[usize],
        topo: &crate::topology::Topology,
        h: usize,
        seed: u64,
        chunk: usize,
    ) -> Vec<u64> {
        let streams = RoundStreams::new(seed, 0);
        let d = channel.alphabet_size();
        let mut out = vec![0u64; displays.len() * d];
        let mut start = 0;
        while start < displays.len() {
            let end = (start + chunk).min(displays.len());
            channel.fill_observations_topo_chunk(
                displays,
                topo,
                h,
                start..end,
                &streams,
                &mut out[start * d..end * d],
            );
            start = end;
        }
        out
    }

    #[test]
    fn topo_chunked_fill_is_chunk_size_invariant() {
        use crate::topology::{Topology, TopologySpec};
        let specs = [
            TopologySpec::Ring { k: 3 },
            TopologySpec::RandomRegular { d: 6 },
        ];
        for d in [2usize, 3] {
            let noise = NoiseMatrix::uniform(d, 0.15).unwrap();
            let displays: Vec<usize> = (0..31).map(|i| i % d).collect();
            for spec in specs {
                let topo = Topology::build(spec, 31, 77).expect("builds");
                for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
                    for mode in [
                        SamplingMode::WithReplacement,
                        SamplingMode::WithoutReplacement,
                    ] {
                        let channel = Channel::with_sampling(&noise, kind, mode);
                        // h = 5 ≤ min degree 6, legal without replacement.
                        let whole = topo_chunk_counts_for(&channel, &displays, &topo, 5, 5, 31);
                        for chunk in [1, 4, 7, 30] {
                            let pieces =
                                topo_chunk_counts_for(&channel, &displays, &topo, 5, 5, chunk);
                            assert_eq!(
                                whole,
                                pieces,
                                "{} d={d} {kind:?} {mode:?} chunk={chunk}",
                                spec.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topo_noiseless_without_replacement_sees_the_whole_neighborhood() {
        // δ = 0, h = degree, no replacement: each agent's counts are
        // exactly its neighborhood's display histogram — deterministically,
        // for both channel kinds.
        use crate::topology::{Topology, TopologySpec};
        let noise = NoiseMatrix::noiseless(2);
        let n = 12;
        let topo = Topology::build(TopologySpec::Ring { k: 2 }, n, 1).expect("builds");
        let displays: Vec<usize> = (0..n).map(|i| usize::from(i % 3 == 0)).collect();
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::with_sampling(&noise, kind, SamplingMode::WithoutReplacement);
            let out = topo_chunk_counts_for(&channel, &displays, &topo, 4, 9, 5);
            for agent in 0..n {
                let ones: u64 = topo
                    .neighbors(agent)
                    .iter()
                    .map(|&j| displays[j as usize] as u64)
                    .sum();
                assert_eq!(
                    &out[agent * 2..agent * 2 + 2],
                    &[4 - ones, ones],
                    "{kind:?} agent {agent}"
                );
            }
        }
    }

    #[test]
    fn topo_with_replacement_matches_neighborhood_marginals() {
        // Ring of degree 4 under δ = 0.1: agent i's P(observe 1) is
        // loc_i·0.9 + (1−loc_i)·0.1 with loc_i its neighborhood's display-1
        // fraction. Check the empirical frequency pooled over agents whose
        // neighborhoods are all-ones (loc = 1).
        use crate::topology::{Topology, TopologySpec};
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let n = 40;
        let topo = Topology::build(TopologySpec::Ring { k: 2 }, n, 1).expect("builds");
        // First half displays 1, second half 0 — agents deep in the first
        // half have all-ones neighborhoods.
        let displays: Vec<usize> = (0..n).map(|i| usize::from(i < n / 2)).collect();
        let deep: Vec<usize> = (2..n / 2 - 2).collect();
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::new(&noise, kind);
            let h = 16;
            let reps = 200u64;
            let mut ones = 0u64;
            for round in 0..reps {
                let streams = RoundStreams::new(4242, round);
                let mut out = vec![0u64; n * 2];
                channel.fill_observations_topo_chunk(&displays, &topo, h, 0..n, &streams, &mut out);
                ones += deep.iter().map(|&a| out[a * 2 + 1]).sum::<u64>();
            }
            let frac = ones as f64 / (deep.len() as u64 * h as u64 * reps) as f64;
            assert!((frac - 0.9).abs() < 0.01, "{kind:?}: fraction {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "unrestricted sampling path")]
    fn topo_chunk_rejects_complete_graph() {
        use crate::topology::{Topology, TopologySpec};
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let topo = Topology::build(TopologySpec::Complete, 4, 0).expect("builds");
        let streams = RoundStreams::new(0, 0);
        let mut out = vec![0u64; 8];
        channel.fill_observations_topo_chunk(&[0, 1, 0, 1], &topo, 1, 0..4, &streams, &mut out);
    }

    #[test]
    #[should_panic(expected = "minimum degree")]
    fn topo_chunk_rejects_oversampling_the_neighborhood() {
        use crate::topology::{Topology, TopologySpec};
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::with_sampling(
            &noise,
            ChannelKind::Aggregated,
            SamplingMode::WithoutReplacement,
        );
        let topo = Topology::build(TopologySpec::Ring { k: 1 }, 6, 0).expect("builds");
        let streams = RoundStreams::new(0, 0);
        let mut out = vec![0u64; 12];
        // h = 3 > degree 2.
        channel.fill_observations_topo_chunk(
            &[0, 1, 0, 1, 0, 1],
            &topo,
            3,
            0..6,
            &streams,
            &mut out,
        );
    }

    #[test]
    fn chunked_fill_conserves_h_per_agent() {
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let displays: Vec<usize> = (0..20).map(|i| usize::from(i % 2 == 0)).collect();
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::new(&noise, kind);
            let out = chunk_counts_for(&channel, &displays, 6, 9, 8);
            for agent in 0..displays.len() {
                let total: u64 = out[agent * 2..agent * 2 + 2].iter().sum();
                assert_eq!(total, 6, "{kind:?} agent {agent}");
            }
        }
    }

    #[test]
    fn chunked_fill_matches_marginal_distribution() {
        // Same statistical check as the sequential channel: P(observe 1) =
        // 0.3·0.9 + 0.7·0.2 = 0.41 under this asymmetric matrix.
        let noise = NoiseMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        let displays: Vec<usize> = (0..100).map(|i| usize::from(i % 10 < 3)).collect();
        let h = 8;
        let reps = 300;
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::new(&noise, kind);
            let mut ones = 0u64;
            for round in 0..reps {
                let streams = RoundStreams::new(123, round);
                let ctx = channel.begin_round(&displays, h);
                let mut out = vec![0u64; displays.len() * 2];
                channel.fill_observations_chunk(&ctx, &displays, h, 0..100, &streams, &mut out);
                ones += (0..100).map(|a| out[a * 2 + 1]).sum::<u64>();
            }
            let frac = ones as f64 / (100 * h as u64 * reps) as f64;
            assert!((frac - 0.41).abs() < 0.01, "{kind:?}: fraction {frac}");
        }
    }

    #[test]
    fn chunked_without_replacement_h_equals_n_sees_everyone() {
        let noise = NoiseMatrix::noiseless(2);
        let displays = vec![0, 1, 1, 0, 1, 1, 0, 1]; // 3 zeros, 5 ones
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let channel = Channel::with_sampling(&noise, kind, SamplingMode::WithoutReplacement);
            let out = chunk_counts_for(&channel, &displays, displays.len(), 3, 3);
            for agent in 0..displays.len() {
                assert_eq!(&out[agent * 2..agent * 2 + 2], &[3, 5], "{kind:?}");
            }
        }
    }

    #[test]
    fn begin_round_from_counts_matches_begin_round() {
        // The histogram-input entry point (fed by packed popcounts) must
        // produce a context whose chunk fills are bit-identical to the
        // display-vector entry point's.
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let displays: Vec<usize> = (0..40).map(|i| usize::from(i % 4 == 1)).collect();
        for mode in [
            SamplingMode::WithReplacement,
            SamplingMode::WithoutReplacement,
        ] {
            let channel = Channel::with_sampling(&noise, ChannelKind::Aggregated, mode);
            let streams = RoundStreams::new(77, 3);
            let from_displays = channel.begin_round(&displays, 12);
            let from_counts = channel
                .begin_round_from_counts(vec![30, 10], 12)
                .expect("valid histogram");
            let mut a = vec![0u64; 40 * 2];
            let mut b = vec![0u64; 40 * 2];
            channel.fill_observations_chunk(&from_displays, &displays, 12, 0..40, &streams, &mut a);
            channel.fill_observations_chunk(&from_counts, &displays, 12, 0..40, &streams, &mut b);
            assert_eq!(a, b, "{mode:?}");
        }
    }

    #[test]
    fn level0_table_is_built_on_first_draw_only() {
        // The mean-field counts engine reads only the collapsed law, so a
        // fresh context must not hold the level-0 table; the first chunk
        // fill builds it, for every later chunk of the round to share.
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let ctx = channel
            .begin_round_from_counts(vec![30, 10], 12)
            .expect("valid histogram");
        assert!(ctx.level0.get().is_none());
        let displays: Vec<usize> = (0..40).map(|i| usize::from(i >= 30)).collect();
        let streams = RoundStreams::new(5, 1);
        let mut out = vec![0u64; 4 * 2];
        channel.fill_observations_chunk(&ctx, &displays, 12, 0..4, &streams, &mut out);
        let table = ctx.level0.get().expect("the first draw builds the table");
        assert_eq!(
            table.len(),
            CdfTable::new_unchecked(12, ctx.obs_law()[0]).len()
        );
    }

    #[test]
    fn begin_round_from_counts_typed_errors() {
        // The histogram seam is reachable from misconfigured sweep specs,
        // so its preconditions are typed errors, not panics.
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        assert!(matches!(
            channel.begin_round_from_counts(vec![1, 2, 3], 1),
            Err(EngineError::BadHistogram { .. })
        ));
        assert!(matches!(
            channel.begin_round_from_counts(vec![0, 0], 1),
            Err(EngineError::BadHistogram { .. })
        ));
        let without = Channel::with_sampling(
            &noise,
            ChannelKind::Aggregated,
            SamplingMode::WithoutReplacement,
        );
        assert!(matches!(
            without.begin_round_from_counts(vec![3, 2], 6),
            Err(EngineError::BadHistogram { .. })
        ));
        // h = n without replacement is fine.
        assert!(without.begin_round_from_counts(vec![3, 2], 5).is_ok());
    }

    #[test]
    fn collapsed_law_is_clamped_and_renormalized() {
        // Adversarial histogram: many symbols with wildly uneven counts so
        // the accumulation Σ_σ (c_σ/n)·N_σj maximizes float drift. Every
        // entry of the collapsed law must come out in [0, 1] and the vector
        // must sum to exactly 1 (the mean-field multinomial path consumes
        // all of it, not just q[0]).
        let d = 7;
        let rows: Vec<Vec<f64>> = (0..d)
            .map(|s| {
                let mut row = vec![0.1 / (d as f64 - 1.0); d];
                row[s] = 0.9;
                // Deliberately off-by-drift normalization.
                let total: f64 = row.iter().sum();
                row.iter_mut().for_each(|x| *x /= total);
                row
            })
            .collect();
        let noise = NoiseMatrix::from_rows(rows).unwrap();
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let counts = vec![1u64, 0, 999_999_937, 3, 70_001, 1, 123_456_789];
        let ctx = channel
            .begin_round_from_counts(counts, 16)
            .expect("valid histogram");
        let q = ctx.obs_law();
        assert_eq!(q.len(), d);
        for &qj in q {
            assert!((0.0..=1.0).contains(&qj), "law entry {qj} out of range");
        }
        let total: f64 = q.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-15,
            "law sums to {total}, want exactly 1"
        );
    }

    #[test]
    #[should_panic(expected = "different h")]
    fn chunk_fill_rejects_mismatched_h() {
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let streams = RoundStreams::new(0, 0);
        let ctx = channel.begin_round(&[0, 1], 4);
        let mut out = vec![0u64; 4];
        channel.fill_observations_chunk(&ctx, &[0, 1], 5, 0..2, &streams, &mut out);
    }

    /// The collapse identity, checked jointly rather than marginally: the
    /// collapsed chunk path and the two-stage sequential path must induce
    /// the same distribution over an agent's full count *vector*. We
    /// compare empirical frequencies of the complete (o₀, o₁, o₂) outcome
    /// on a 3-symbol alphabet with an asymmetric noise matrix.
    #[test]
    fn collapsed_chunk_matches_two_stage_jointly() {
        let noise = NoiseMatrix::from_rows(vec![
            vec![0.7, 0.2, 0.1],
            vec![0.05, 0.9, 0.05],
            vec![0.3, 0.3, 0.4],
        ])
        .unwrap();
        let displays: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let h = 6;
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let reps = 400u64;
        // Outcome key: o₀·(h+1) + o₁ (o₂ is determined by the sum).
        let mut seq_freq = vec![0u64; (h + 1) * (h + 1)];
        let mut chunk_freq = vec![0u64; (h + 1) * (h + 1)];
        let mut rng = StreamRng::seed_from_u64(55);
        let mut out = vec![0u64; displays.len() * 3];
        for round in 0..reps {
            channel.fill_observations(&displays, h, &mut rng, &mut out);
            for a in 0..displays.len() {
                seq_freq[out[a * 3] as usize * (h + 1) + out[a * 3 + 1] as usize] += 1;
            }
            let streams = RoundStreams::new(555, round);
            let ctx = channel.begin_round(&displays, h);
            channel.fill_observations_chunk(&ctx, &displays, h, 0..30, &streams, &mut out);
            for a in 0..displays.len() {
                chunk_freq[out[a * 3] as usize * (h + 1) + out[a * 3 + 1] as usize] += 1;
            }
        }
        let total = (reps * displays.len() as u64) as f64;
        for (key, (&s, &c)) in seq_freq.iter().zip(&chunk_freq).enumerate() {
            let fs = s as f64 / total;
            let fc = c as f64 / total;
            // 12000 samples per path; 3σ of a frequency is ≤ 3·0.5/√N ≈ 0.014.
            assert!(
                (fs - fc).abs() < 0.02,
                "outcome {key}: sequential {fs} vs collapsed {fc}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn begin_round_rejects_bad_symbol() {
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let _ = channel.begin_round(&[0, 2], 1);
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn begin_round_rejects_oversampling() {
        let noise = NoiseMatrix::noiseless(2);
        let channel =
            Channel::with_sampling(&noise, ChannelKind::Exact, SamplingMode::WithoutReplacement);
        let _ = channel.begin_round(&[0, 1], 3);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn chunked_fill_rejects_bad_buffer() {
        let noise = NoiseMatrix::noiseless(2);
        let channel = Channel::new(&noise, ChannelKind::Aggregated);
        let streams = RoundStreams::new(0, 0);
        let ctx = channel.begin_round(&[0, 1], 1);
        let mut out = vec![0u64; 3];
        channel.fill_observations_chunk(&ctx, &[0, 1], 1, 0..2, &streams, &mut out);
    }

    #[test]
    fn accessors() {
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        let c = Channel::new(&noise, ChannelKind::Exact);
        assert_eq!(c.alphabet_size(), 4);
        assert_eq!(c.kind(), ChannelKind::Exact);
        assert_eq!(c.sampling_mode(), SamplingMode::WithReplacement);
        assert_eq!(ChannelKind::default(), ChannelKind::Aggregated);
        assert_eq!(SamplingMode::default(), SamplingMode::WithReplacement);
    }
}
