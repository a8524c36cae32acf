//! Mean-field class-count ports of SF and SSF (the
//! [`np_engine::counts`] backend).
//!
//! Both protocols are *anonymous* and *phase-synchronous from a clean
//! start*: every agent applies the same update to its own observations,
//! and state changes happen only at phase/sub-phase boundaries (SF) or at
//! the shared `⌈m/h⌉`-round flush cadence (SSF). Conditioned on the
//! display histogram — which is constant between boundaries — the agents'
//! fresh observations are i.i.d. (the aggregated-channel collapse), so at
//! each boundary the population splits among the reachable outcomes by an
//! **exact** binomial/multinomial law whose success probabilities are
//! computable from the collapsed observation law `q`:
//!
//! * SF weak formation: `Counter₁ ~ Binom(T·h, q₁ of Listen₀)` and
//!   `Counter₀ ~ Binom(T·h, q₀ of Listen₁)` independently per agent, so
//!   an agent turns its weak opinion to 1 with probability
//!   `P(C₁ > C₀) + ½P(C₁ = C₀)` ([`np_stats::binomial::exceeds_prob`]),
//!   and the new one-count is `Binom(n, p)`.
//! * SF boosting: over a sub-phase of length `L`, an agent's memory is
//!   `Binom(L·h, q₁)` ones out of `L·h`, so it adopts opinion 1 with
//!   probability `P(2X > Lh) + ½P(2X = Lh)`
//!   ([`np_stats::binomial::majority_prob`]).
//! * SSF flush: with `N = ⌈m/h⌉·h` accumulated samples, the joint law of
//!   `(weak', opinion')` is an explicit function of the multinomial
//!   `(M₀, M₁, M₂, M₃) ~ Mult(N, q)` — evaluated exactly in
//!   [`ssf_flush_law`] by conditioning on the source-tagged count
//!   `S = M₂ + M₃` (given `S`, `M₃ ~ Binom(S, q₃/(q₂+q₃))` and
//!   `M₁ ~ Binom(N−S, q₁/(q₀+q₁))` are independent). Each class count
//!   then splits `Mult(count, law)` over the four `(weak, opinion)`
//!   cells.
//!
//! This is why the backend is exact for the aggregated with-replacement
//! channel and *only* for it: without replacement, observations are
//! drawn from a shrinking pool and the product-law factorization across
//! agents fails. See DESIGN.md §14.

use np_engine::counts::{CountsProtocol, CountsState};
use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::streams::StreamRng;
use np_stats::binomial::{
    exceeds_prob_unchecked, majority_prob_unchecked, sample_unchecked, TailTable,
};
use np_stats::multinomial;

use crate::params::{SfParams, SsfParams};
use crate::sf::SourceFilter;
use crate::ssf::SelfStabilizingSourceFilter;

/// SF phase machine, collapsed to class indices. Mirrors `sf::Stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SfStage {
    Listen0,
    Listen1,
    Boost(u64),
    Done,
}

/// Mean-field state of Algorithm SF.
///
/// From a clean start every agent sits in the same stage at the same
/// round, so the full class structure is one stage tag plus two counts:
/// how many agents hold opinion 1, and (once formed) how many hold weak
/// opinion 1. Listen-phase counters never need to be tracked per class —
/// their distribution at the boundary is a pure function of the phase's
/// constant observation law, which is recorded as it streams by.
#[derive(Debug, Clone)]
pub struct SfCountsState {
    params: SfParams,
    n: u64,
    s1: u64,
    num_sources: u64,
    stage: SfStage,
    round_in_stage: u64,
    /// Agents whose opinion is 1 (sources included — in SF sources run
    /// the same update rule; only their listen-phase display differs).
    ones: u64,
    /// Agents whose weak opinion is 1; `None` before weak formation.
    weak_ones: Option<u64>,
    /// `q₁` of the Listen₀ phase (constant across the phase).
    listen0_q1: f64,
    /// `q₀` of the Listen₁ phase (constant across the phase).
    listen1_q0: f64,
}

impl SfCountsState {
    /// Agents currently holding opinion 1.
    pub fn ones(&self) -> u64 {
        self.ones
    }

    /// Agents whose weak opinion is 1, once weak opinions exist.
    pub fn weak_ones(&self) -> Option<u64> {
        self.weak_ones
    }

    fn stage_id(&self) -> u32 {
        match self.stage {
            SfStage::Listen0 => 0,
            SfStage::Listen1 => 1,
            SfStage::Boost(k) => u32::try_from(k.saturating_add(2))
                .unwrap_or(u32::MAX)
                .min(u32::MAX - 1),
            SfStage::Done => u32::MAX,
        }
    }
}

impl CountsProtocol for SourceFilter {
    type State = SfCountsState;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_counts(&self, config: &PopulationConfig, rng: &mut StreamRng) -> SfCountsState {
        let n = config.n() as u64;
        // Every agent (sources too) initializes its opinion to a fair
        // coin, so the round-zero one-count is Binom(n, ½).
        let ones = sample_unchecked(rng, n, 0.5);
        SfCountsState {
            params: *self.params(),
            n,
            s1: config.s1() as u64,
            num_sources: config.num_sources() as u64,
            stage: SfStage::Listen0,
            round_in_stage: 0,
            ones,
            weak_ones: None,
            listen0_q1: 0.0,
            listen1_q0: 0.0,
        }
    }
}

impl CountsState for SfCountsState {
    fn display_histogram(&self, out: &mut [u64]) {
        match self.stage {
            // Listen₀: sources display their preference, non-sources 0.
            SfStage::Listen0 => {
                out[1] = self.s1;
                out[0] = self.n - self.s1;
            }
            // Listen₁: sources display their preference, non-sources 1.
            SfStage::Listen1 => {
                out[1] = (self.n - self.num_sources) + self.s1;
                out[0] = self.n - out[1];
            }
            SfStage::Boost(_) | SfStage::Done => {
                out[1] = self.ones;
                out[0] = self.n - self.ones;
            }
        }
    }

    fn advance_round(&mut self, obs_law: &[f64], h: u64, rng: &mut StreamRng) {
        match self.stage {
            SfStage::Listen0 => {
                // The law is constant across the phase; remember it for
                // the boundary computation.
                self.listen0_q1 = obs_law[1];
                self.round_in_stage += 1;
                if self.round_in_stage >= self.params.phase_len() {
                    self.stage = SfStage::Listen1;
                    self.round_in_stage = 0;
                }
            }
            SfStage::Listen1 => {
                self.listen1_q0 = obs_law[0];
                self.round_in_stage += 1;
                if self.round_in_stage >= self.params.phase_len() {
                    // Weak formation: per agent, Counter₁ ~ Binom(T·h, q₁)
                    // from Listen₀ and Counter₀ ~ Binom(T·h, q₀) from
                    // Listen₁, independent; weak = 1 iff C₁ > C₀ with a
                    // fair-coin tie break. Opinion := weak.
                    let trials = self.params.phase_len() * h;
                    let p_one =
                        exceeds_prob_unchecked(trials, self.listen0_q1, trials, self.listen1_q0);
                    self.ones = sample_unchecked(rng, self.n, p_one);
                    self.weak_ones = Some(self.ones);
                    self.stage = SfStage::Boost(0);
                    self.round_in_stage = 0;
                }
            }
            SfStage::Boost(subphase) => {
                self.round_in_stage += 1;
                let len = if subphase < self.params.num_short_subphases() {
                    self.params.subphase_len()
                } else {
                    self.params.final_subphase_len()
                };
                if self.round_in_stage >= len {
                    // Boundary: each agent's memory holds Binom(L·h, q₁)
                    // ones out of L·h samples; it adopts the majority with
                    // a fair-coin tie break. q₁ is constant across the
                    // sub-phase, so reading it at the boundary is exact.
                    let p_one = majority_prob_unchecked(len * h, obs_law[1]);
                    self.ones = sample_unchecked(rng, self.n, p_one);
                    self.round_in_stage = 0;
                    self.stage = if subphase >= self.params.num_short_subphases() {
                        SfStage::Done
                    } else {
                        SfStage::Boost(subphase + 1)
                    };
                }
            }
            SfStage::Done => {}
        }
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let n = self.n as usize;
        let ones = self.ones as usize;
        let correct_count = match correct {
            Opinion::One => ones,
            Opinion::Zero => n - ones,
        };
        let (weak_formed, weak_correct) = match self.weak_ones {
            None => (0, 0),
            Some(w) => (
                n,
                match correct {
                    Opinion::One => w as usize,
                    Opinion::Zero => n - w as usize,
                },
            ),
        };
        MetricsSweep {
            correct: correct_count,
            stages: vec![(self.stage_id(), n)],
            weak_formed,
            weak_correct,
        }
    }
}

/// Mean-field state of Algorithm SSF (clean start).
///
/// Classes are `(group, weak, opinion)` where `group` distinguishes
/// non-sources from the two source preferences: only non-source weak
/// opinions feed the display histogram (sources display `(1, pref)`
/// regardless of state), but sources still carry weak/opinion state that
/// counts toward consensus. From a clean start all memories fill in
/// lockstep and flush together every `⌈m/h⌉` rounds, and at a flush every
/// agent — regardless of class — draws its new `(weak, opinion)` pair
/// from the same joint law [`ssf_flush_law`].
#[derive(Debug, Clone)]
pub struct SsfCountsState {
    params: SsfParams,
    n: u64,
    s0: u64,
    s1: u64,
    /// `counts[group][weak][opinion]`; group 0 = non-source, 1 = sources
    /// preferring 0, 2 = sources preferring 1.
    counts: [[[u64; 2]; 2]; 3],
    round_in_interval: u64,
    /// The collapsed law of the current update interval (constant across
    /// it — displays only change at flushes).
    q_interval: [f64; 4],
    /// Completed flushes (the SSF trace stage).
    updates: u64,
}

impl SsfCountsState {
    /// Agents currently holding opinion 1.
    pub fn ones(&self) -> u64 {
        self.counts.iter().map(|g| g[0][1] + g[1][1]).sum::<u64>()
    }

    /// Non-source agents whose weak opinion is 1 (these drive the
    /// display histogram).
    pub fn non_source_weak_ones(&self) -> u64 {
        self.counts[0][1][0] + self.counts[0][1][1]
    }

    /// Completed memory flushes.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    #[cfg(test)]
    fn group_total(&self, g: usize) -> u64 {
        self.counts[g].iter().flatten().sum()
    }
}

impl CountsProtocol for SelfStabilizingSourceFilter {
    type State = SsfCountsState;

    fn alphabet_size(&self) -> usize {
        4
    }

    fn init_counts(&self, config: &PopulationConfig, rng: &mut StreamRng) -> SsfCountsState {
        let n = config.n() as u64;
        let s0 = config.s0() as u64;
        let s1 = config.s1() as u64;
        // Each agent draws weak and opinion as independent fair coins, so
        // each group splits Mult(count, ¼ per (weak, opinion) cell).
        let quarter = [0.25f64; 4];
        let mut counts = [[[0u64; 2]; 2]; 3];
        for (group, total) in [(0usize, n - s0 - s1), (1, s0), (2, s1)] {
            let mut cells = [0u64; 4];
            multinomial::sample_into(rng, total, &quarter, &mut cells);
            counts[group] = [[cells[0], cells[1]], [cells[2], cells[3]]];
        }
        SsfCountsState {
            params: *self.params(),
            n,
            s0,
            s1,
            counts,
            round_in_interval: 0,
            q_interval: [0.0; 4],
            updates: 0,
        }
    }
}

impl CountsState for SsfCountsState {
    fn display_histogram(&self, out: &mut [u64]) {
        // Symbols encode (tag, value): 0 = (0,0), 1 = (0,1), 2 = (1,0),
        // 3 = (1,1). Non-sources display (0, weak); sources (1, pref).
        out[0] = self.counts[0][0][0] + self.counts[0][0][1];
        out[1] = self.counts[0][1][0] + self.counts[0][1][1];
        out[2] = self.s0;
        out[3] = self.s1;
    }

    fn advance_round(&mut self, obs_law: &[f64], h: u64, rng: &mut StreamRng) {
        if self.round_in_interval == 0 {
            // Displays are frozen until the flush, so the law recorded on
            // the interval's first round is exact for all of it.
            self.q_interval.copy_from_slice(obs_law);
        }
        self.round_in_interval += 1;
        if self.round_in_interval >= self.params.update_interval() {
            // All memories hit |M| ≥ m simultaneously (clean start):
            // every agent has accumulated exactly N = ⌈m/h⌉·h samples.
            let total_samples = self.params.update_interval() * h;
            let law = ssf_flush_law(total_samples, &self.q_interval);
            for group in self.counts.iter_mut() {
                let total: u64 = group.iter().flatten().sum();
                let mut cells = [0u64; 4];
                multinomial::sample_into(rng, total, &law, &mut cells);
                *group = [[cells[0], cells[1]], [cells[2], cells[3]]];
            }
            self.round_in_interval = 0;
            self.updates = self.updates.saturating_add(1);
        }
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let n = self.n as usize;
        let ones = self.ones() as usize;
        let correct_count = match correct {
            Opinion::One => ones,
            Opinion::Zero => n - ones,
        };
        let weak_ones: u64 = self.counts.iter().map(|g| g[1][0] + g[1][1]).sum();
        let weak_correct = match correct {
            Opinion::One => weak_ones as usize,
            Opinion::Zero => n - weak_ones as usize,
        };
        let stage_id = u32::try_from(self.updates).unwrap_or(u32::MAX);
        MetricsSweep {
            correct: correct_count,
            stages: vec![(stage_id, n)],
            // SSF weak opinions exist from round zero.
            weak_formed: n,
            weak_correct,
        }
    }
}

/// The exact joint law of one agent's post-flush `(weak, opinion)` pair,
/// given `n` accumulated samples with single-observation law `q` over the
/// symbols `(0,0), (0,1), (1,0), (1,1)`.
///
/// Returned as cell probabilities in the same `[w0y0, w0y1, w1y0, w1y1]`
/// layout the class counts use. Writing `(M₀, M₁, M₂, M₃) ~ Mult(n, q)`
/// and `S = M₂ + M₃` (source-tagged samples):
///
/// * `weak' = 1` iff `2M₃ > S` (fair coin at `2M₃ = S`),
/// * `opinion' = 1` iff `2(M₁ + M₃) > n` (fair coin at equality),
///
/// and conditioned on `S`, `M₃ ~ Binom(S, q₃/(q₂+q₃))` and
/// `M₁ ~ Binom(n − S, q₁/(q₀+q₁))` are independent. The double sum runs
/// over the truncated effective supports of `S` and `M₃ | S`
/// ([`TailTable`], `1e-12` truncation), with `O(1)` lookups for the
/// `M₁` tails — `O(σ_S · σ_{M₃})` work total.
pub fn ssf_flush_law(n: u64, q: &[f64; 4]) -> [f64; 4] {
    let q_src = (q[2] + q[3]).clamp(0.0, 1.0);
    let q3_given_src = if q_src > 0.0 {
        (q[3] / q_src).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let q_non = (1.0 - q_src).max(0.0);
    let q1_given_non = if q_non > 0.0 {
        (q[1] / q_non).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let s_table = TailTable::new_unchecked(n, q_src);
    let mut p_w1 = 0.0f64; // P(weak' = 1)
    let mut p_y1 = 0.0f64; // P(opinion' = 1)
    let mut p_w1y1 = 0.0f64; // P(weak' = 1, opinion' = 1)
    for s in s_table.lo()..=s_table.hi() {
        let ps = s_table.pmf_at(s);
        if ps <= 0.0 {
            continue;
        }
        let m3_table = TailTable::new_unchecked(s, q3_given_src);
        let m1_table = TailTable::new_unchecked(n - s, q1_given_non);
        // Weak marginal given S: majority of M₃ over M₂ = S − M₃.
        let w1_given_s = m3_table.sf_at(s / 2)
            + if s % 2 == 0 {
                0.5 * m3_table.pmf_at(s / 2)
            } else {
                0.0
            };
        p_w1 += ps * w1_given_s;
        // Opinion marginal and joint: walk M₃'s window, O(1) M₁ tails.
        let mut y1_given_s = 0.0f64;
        let mut w1y1_given_s = 0.0f64;
        for m3 in m3_table.lo()..=m3_table.hi() {
            let pm3 = m3_table.pmf_at(m3);
            if pm3 <= 0.0 {
                continue;
            }
            let y1 = opinion_win_prob(&m1_table, n, m3);
            y1_given_s += pm3 * y1;
            // Weak outcome is a deterministic (or fair-coin) function of
            // (m3, s); combine with the independent M₁ draw for the joint.
            let w_weight = match (2 * m3).cmp(&s) {
                std::cmp::Ordering::Greater => 1.0,
                std::cmp::Ordering::Equal => 0.5,
                std::cmp::Ordering::Less => 0.0,
            };
            if w_weight > 0.0 {
                w1y1_given_s += pm3 * w_weight * y1;
            }
        }
        p_y1 += ps * y1_given_s;
        p_w1y1 += ps * w1y1_given_s;
    }
    // Assemble the four cells; clamp each against truncation drift and
    // renormalize so the multinomial split sees an exact distribution.
    let p11 = p_w1y1.clamp(0.0, 1.0);
    let p10 = (p_w1 - p_w1y1).max(0.0);
    let p01 = (p_y1 - p_w1y1).max(0.0);
    let p00 = (1.0 - p_w1 - p_y1 + p_w1y1).max(0.0);
    let total = p00 + p01 + p10 + p11;
    debug_assert!(total > 0.0);
    [p00 / total, p01 / total, p10 / total, p11 / total]
}

/// `P(2(M₁ + m₃) > n) + ½·P(2(M₁ + m₃) = n)` for the tabulated `M₁`.
fn opinion_win_prob(m1_table: &TailTable, n: u64, m3: u64) -> f64 {
    if 2 * m3 > n {
        // Every M₁ ≥ 0 already wins; no tie is reachable.
        return 1.0;
    }
    let threshold = n - 2 * m3; // win iff 2M₁ > threshold
    let win = m1_table.sf_at(threshold / 2);
    if threshold.is_multiple_of(2) {
        win + 0.5 * m1_table.pmf_at(threshold / 2)
    } else {
        // Odd threshold: 2M₁ > t ⟺ M₁ > ⌊t/2⌋, and no tie exists.
        win
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::counts::CountsWorld;
    use np_engine::run::Run;
    use np_linalg::noise::NoiseMatrix;
    use np_stats::binomial::pmf;

    fn sf_world(n: usize, delta: f64, seed: u64) -> CountsWorld<SourceFilter> {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let protocol = SourceFilter::new(params);
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        CountsWorld::new(&protocol, config, &noise, seed).unwrap()
    }

    fn ssf_world(n: usize, delta: f64, seed: u64) -> CountsWorld<SelfStabilizingSourceFilter> {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let params = SsfParams::derive(&config, delta, 8.0).unwrap();
        let protocol = SelfStabilizingSourceFilter::new(params);
        let noise = NoiseMatrix::uniform(4, delta).unwrap();
        CountsWorld::new(&protocol, config, &noise, seed).unwrap()
    }

    #[test]
    fn sf_counts_walks_the_phase_script() {
        let mut w = sf_world(256, 0.2, 5);
        let params = w.state().params;
        let total = params.total_rounds();
        w.record_trace();
        w.run(total);
        let trace = w.traced_rounds();
        // First phase_len rounds are Listen₀ (stage 0), next phase_len
        // Listen₁ (stage 1), then boosting, ending at Done.
        let t = params.phase_len() as usize;
        assert_eq!(trace[0].stages, vec![(0, 256)]);
        assert_eq!(trace[t - 1].stages, vec![(1, 256)]);
        assert_eq!(trace[2 * t - 1].stages, vec![(2, 256)]);
        assert_eq!(trace.last().unwrap().stages, vec![(u32::MAX, 256)]);
        // Weak opinions form exactly at the Listen₁ boundary.
        assert_eq!(trace[2 * t - 2].weak_formed, 0);
        assert_eq!(trace[2 * t - 1].weak_formed, 256);
    }

    #[test]
    fn sf_counts_converges_single_source() {
        // Mirror of sf.rs's per-agent convergence test: n = 256, h = n,
        // δ = 0.2, single one-source.
        let mut w = sf_world(256, 0.2, 11);
        let budget = 4 * 256;
        let outcome = w.run_until_consensus(budget);
        assert!(outcome.converged(), "got {outcome:?}");
        assert_eq!(w.correct_count(), 256);
    }

    #[test]
    fn ssf_counts_converges_single_source() {
        let mut w = ssf_world(256, 0.1, 3);
        let interval = w.state().params.update_interval();
        let outcome = w.run_until_consensus(8 * interval);
        assert!(outcome.converged(), "got {outcome:?}");
    }

    #[test]
    fn ssf_flush_cadence_matches_interval() {
        let mut w = ssf_world(256, 0.1, 9);
        let interval = w.state().params.update_interval();
        w.run(interval - 1);
        assert_eq!(w.state().updates(), 0);
        w.run(1);
        assert_eq!(w.state().updates(), 1);
        w.run(interval);
        assert_eq!(w.state().updates(), 2);
    }

    #[test]
    fn ssf_class_counts_conserve_population() {
        let mut w = ssf_world(500, 0.1, 13);
        for _ in 0..3 {
            let interval = w.state().params.update_interval();
            w.run(interval);
            let total: u64 = (0..3).map(|g| w.state().group_total(g)).sum();
            assert_eq!(total, 500);
            assert_eq!(w.state().group_total(1), 0);
            assert_eq!(w.state().group_total(2), 1);
        }
    }

    #[test]
    fn ssf_flush_law_is_a_distribution() {
        for q in [
            [0.25, 0.25, 0.25, 0.25],
            [0.45, 0.45, 0.04, 0.06],
            [0.05, 0.9, 0.02, 0.03],
            [0.0, 0.0, 0.3, 0.7],
            [0.5, 0.5, 0.0, 0.0],
        ] {
            for n in [0u64, 1, 7, 64, 1000] {
                let law = ssf_flush_law(n, &q);
                let total: f64 = law.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "q={q:?} n={n}: sum {total}");
                assert!(law.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn ssf_flush_law_matches_brute_force() {
        // Exhaustive check against the raw multinomial sum at small n.
        let n = 12u64;
        let q = [0.3f64, 0.4, 0.1, 0.2];
        let mut want = [0.0f64; 4];
        for m0 in 0..=n {
            for m1 in 0..=(n - m0) {
                for m2 in 0..=(n - m0 - m1) {
                    let m3 = n - m0 - m1 - m2;
                    // Multinomial pmf via iterated binomials.
                    let p = pmf(n, q[0], m0).unwrap()
                        * pmf(n - m0, q[1] / (1.0 - q[0]), m1).unwrap()
                        * pmf(n - m0 - m1, q[2] / (1.0 - q[0] - q[1]), m2).unwrap();
                    let s = m2 + m3;
                    let w1 = match (2 * m3).cmp(&s) {
                        std::cmp::Ordering::Greater => 1.0,
                        std::cmp::Ordering::Equal => 0.5,
                        std::cmp::Ordering::Less => 0.0,
                    };
                    let y1 = match (2 * (m1 + m3)).cmp(&n) {
                        std::cmp::Ordering::Greater => 1.0,
                        std::cmp::Ordering::Equal => 0.5,
                        std::cmp::Ordering::Less => 0.0,
                    };
                    want[0] += p * (1.0 - w1) * (1.0 - y1);
                    want[1] += p * (1.0 - w1) * y1;
                    want[2] += p * w1 * (1.0 - y1);
                    want[3] += p * w1 * y1;
                }
            }
        }
        let got = ssf_flush_law(n, &q);
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "cell {i}: got {g}, want {w}");
        }
    }
}
