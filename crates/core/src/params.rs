//! Parameter derivation for Algorithms SF and SSF.
//!
//! Both protocols are parameterized by a sample budget `m` — how many
//! messages an agent must gather before forming an opinion. The paper gives
//! `m` up to a "sufficiently large" constant `c₁` (Eq. (19) for SF,
//! Eq. (30) for SSF); this module evaluates those formulas with `c₁`
//! exposed as a tuning knob.
//!
//! All logarithms are natural: the paper's analysis is carried out with
//! `e`-based concentration bounds, and only the shape of the running time
//! is asserted, so the base folds into `c₁`.
//!
//! On constants: the theorems hold "for `c₁` large enough" (Lemma 31's
//! proof uses `c₁ ≥ 4000`, and Section 5.4.3 carries a `2916·c₁` factor
//! for SSF). As is typical for this literature, the analysis constants
//! are wildly conservative. Empirically, SF converges reliably already at
//! `c₁ = 1`; SSF needs `c₁ ≈ 8–16` at simulable scales for its consensus
//! to *persist* through the √n fluctuations of the weak-opinion fraction
//! (see [`SsfParams::derive`]). Every experiment exposes `c₁` so the
//! sensitivity can be measured (see `EXPERIMENTS.md`).

use np_engine::population::PopulationConfig;

use crate::{CoreError, Result};

/// Default tuning constant `c₁` (see the module docs).
pub const DEFAULT_C1: f64 = 1.0;

/// Derived parameters for Algorithm SF (Source Filter).
///
/// # Example
///
/// ```
/// use noisy_pull::params::SfParams;
/// use np_engine::population::PopulationConfig;
///
/// let config = PopulationConfig::new(1024, 0, 1, 1024)?; // single source, h = n
/// let params = SfParams::derive(&config, 0.2, 1.0)?;
/// assert!(params.m() >= 1);
/// // Phase lengths cover the message budget.
/// assert!(params.phase_len() as u128 * 1024 >= params.m() as u128);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfParams {
    n: usize,
    h: usize,
    delta: f64,
    m: u64,
    w: u64,
    phase_len: u64,
    subphase_len: u64,
    final_subphase_len: u64,
    num_short_subphases: u64,
}

impl SfParams {
    /// Evaluates Eq. (19):
    ///
    /// `m = c₁·( n·δ·ln n / (min{s², n}·(1−2δ)²) + √n·ln n / s
    ///          + (s0+s1)·ln n / s² + h·ln n )`,
    ///
    /// then derives the schedule: phase length `T = ⌈m/h⌉`, sub-phase
    /// message budget `w = 100/(1−2δ)²`, sub-phase length `⌈w/h⌉`,
    /// `⌈10·ln n⌉` short boosting sub-phases plus one final sub-phase of
    /// length `T`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoiseTooHigh`] unless `0 ≤ δ < ½`.
    /// * [`CoreError::BadParameter`] unless `c1 > 0` and finite.
    pub fn derive(config: &PopulationConfig, delta: f64, c1: f64) -> Result<Self> {
        if !(0.0..0.5).contains(&delta) {
            return Err(CoreError::NoiseTooHigh { delta, limit: 0.5 });
        }
        validate_c1(c1)?;
        let n = config.n() as f64;
        let h = config.h() as f64;
        let s = config.bias() as f64;
        let sources = config.num_sources() as f64;
        let log_n = n.ln().max(1.0);
        let gap = 1.0 - 2.0 * delta;
        let m_real = c1
            * (n * delta * log_n / (s * s).min(n) / (gap * gap)
                + n.sqrt() * log_n / s
                + sources * log_n / (s * s)
                + h * log_n);
        let m = (m_real.ceil() as u64).max(1);
        let w = ((100.0 / (gap * gap)).ceil() as u64).max(1);
        let phase_len = m.div_ceil(config.h() as u64);
        let subphase_len = w.div_ceil(config.h() as u64);
        let num_short_subphases = (10.0 * log_n).ceil() as u64;
        Ok(SfParams {
            n: config.n(),
            h: config.h(),
            delta,
            m,
            w,
            phase_len,
            subphase_len,
            final_subphase_len: phase_len,
            num_short_subphases,
        })
    }

    /// Overrides the message budget `m`, re-deriving the schedule. Used by
    /// ablation experiments that sweep `m` directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] if `m == 0`.
    pub fn with_m(&self, m: u64) -> Result<Self> {
        if m == 0 {
            return Err(CoreError::BadParameter {
                name: "m",
                detail: "message budget must be positive".into(),
            });
        }
        let phase_len = m.div_ceil(self.h as u64);
        Ok(SfParams {
            m,
            phase_len,
            final_subphase_len: phase_len,
            ..*self
        })
    }

    /// Population size this schedule was derived for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample size `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Uniform noise level `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The message budget `m` (Eq. (19)).
    pub fn m(&self) -> u64 {
        self.m
    }

    /// The per-sub-phase message budget `w = 100/(1−2δ)²`.
    pub fn w(&self) -> u64 {
        self.w
    }

    /// Length in rounds of each of Phases 0 and 1: `T = ⌈m/h⌉`.
    pub fn phase_len(&self) -> u64 {
        self.phase_len
    }

    /// Length in rounds of each short boosting sub-phase: `⌈w/h⌉`.
    pub fn subphase_len(&self) -> u64 {
        self.subphase_len
    }

    /// Length in rounds of the final boosting sub-phase: `⌈m/h⌉`.
    pub fn final_subphase_len(&self) -> u64 {
        self.final_subphase_len
    }

    /// Number of short boosting sub-phases: `⌈10·ln n⌉`.
    pub fn num_short_subphases(&self) -> u64 {
        self.num_short_subphases
    }

    /// Total schedule length in rounds:
    /// `2T + ⌈10 ln n⌉·⌈w/h⌉ + T`.
    pub fn total_rounds(&self) -> u64 {
        2 * self.phase_len + self.num_short_subphases * self.subphase_len + self.final_subphase_len
    }

    /// Appends the full schedule to an `np-snap/v1` writer. The derived
    /// values are persisted verbatim — a restored run must use *exactly*
    /// the schedule it started with, not a re-derivation.
    pub(crate) fn encode_snap(&self, out: &mut np_engine::snapshot::SnapWriter) {
        out.put_usize(self.n);
        out.put_usize(self.h);
        out.put_f64(self.delta);
        out.put_u64(self.m);
        out.put_u64(self.w);
        out.put_u64(self.phase_len);
        out.put_u64(self.subphase_len);
        out.put_u64(self.final_subphase_len);
        out.put_u64(self.num_short_subphases);
    }

    /// Decodes a schedule written by [`SfParams::encode_snap`].
    pub(crate) fn decode_snap(
        r: &mut np_engine::snapshot::SnapReader<'_>,
    ) -> np_engine::Result<Self> {
        Ok(SfParams {
            n: r.take_usize()?,
            h: r.take_usize()?,
            delta: r.take_f64()?,
            m: r.take_u64()?,
            w: r.take_u64()?,
            phase_len: r.take_u64()?,
            subphase_len: r.take_u64()?,
            final_subphase_len: r.take_u64()?,
            num_short_subphases: r.take_u64()?,
        })
    }
}

/// Derived parameters for Algorithm SSF (Self-stabilizing Source Filter).
///
/// # Example
///
/// ```
/// use noisy_pull::params::SsfParams;
/// use np_engine::population::PopulationConfig;
///
/// let config = PopulationConfig::new(512, 0, 1, 512)?;
/// let params = SsfParams::derive(&config, 0.1, 1.0)?;
/// assert!(params.m() >= 512); // Eq. (30) has an additive n term
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsfParams {
    n: usize,
    h: usize,
    delta: f64,
    m: u64,
}

impl SsfParams {
    /// Evaluates Eq. (30): `m = c₁·( δ·n·ln n / (1−4δ)² + n )`.
    ///
    /// Guidance on `c₁`: the steady-state weak-opinion advantage scales
    /// like `√(c₁·δ·ln n / n)/(stuff)`, while the weak-opinion *fraction*
    /// fluctuates by `±1/(2√n)` every update cycle (it is a fresh binomial
    /// each time). For the consensus to persist through those dips the
    /// advantage must dominate the fluctuation with margin — empirically
    /// `c₁ ≈ 8–16` at `n ∈ [256, 4096]`, which is the small-scale shadow
    /// of the paper's conservative `2916·c₁` constant in Section 5.4.3.
    /// `c₁ = 1` converges but loses consensus for an occasional update
    /// cycle.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoiseTooHigh`] unless `0 ≤ δ < ¼` (the 4-symbol
    ///   uniform channel must retain information).
    /// * [`CoreError::BadParameter`] unless `c1 > 0` and finite.
    pub fn derive(config: &PopulationConfig, delta: f64, c1: f64) -> Result<Self> {
        if !(0.0..0.25).contains(&delta) {
            return Err(CoreError::NoiseTooHigh { delta, limit: 0.25 });
        }
        validate_c1(c1)?;
        let n = config.n() as f64;
        let log_n = n.ln().max(1.0);
        let gap = 1.0 - 4.0 * delta;
        let m_real = c1 * (delta * n * log_n / (gap * gap) + n);
        let m = (m_real.ceil() as u64).max(1);
        Ok(SsfParams {
            n: config.n(),
            h: config.h(),
            delta,
            m,
        })
    }

    /// Overrides the message budget `m` (ablation experiments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] if `m == 0`.
    pub fn with_m(&self, m: u64) -> Result<Self> {
        if m == 0 {
            return Err(CoreError::BadParameter {
                name: "m",
                detail: "message budget must be positive".into(),
            });
        }
        Ok(SsfParams { m, ..*self })
    }

    /// Population size this schedule was derived for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample size `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Uniform noise level `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The memory capacity `m` (Eq. (30)).
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Rounds between two update rounds of one agent: `⌈m/h⌉` (an agent
    /// whose memory starts empty updates after this many rounds).
    pub fn update_interval(&self) -> u64 {
        (self.m).div_ceil(self.h as u64)
    }

    /// The round budget after which Theorem 5 expects consensus from a
    /// clean start: three update intervals (the analysis needs two — one to
    /// flush adversarial memory, one to form independent weak opinions —
    /// plus one for opinions to follow; see Lemma 39's `t ≥ 3⌈m/h⌉`).
    pub fn expected_convergence_rounds(&self) -> u64 {
        3 * self.update_interval()
    }

    /// The round budget of `intervals` update intervals — what the CLI's
    /// `--budget-intervals` and a sweep spec's `budget-intervals` ask for.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BudgetOverflow`] when the product does not fit
    /// a round counter.
    pub fn interval_budget(&self, intervals: u64) -> Result<u64> {
        let interval = self.update_interval();
        intervals
            .checked_mul(interval)
            .ok_or(CoreError::BudgetOverflow {
                intervals,
                interval,
            })
    }
}

fn validate_c1(c1: f64) -> Result<()> {
    if !(c1.is_finite() && c1 > 0.0) {
        return Err(CoreError::BadParameter {
            name: "c1",
            detail: format!("must be positive and finite, got {c1}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, s0: usize, s1: usize, h: usize) -> PopulationConfig {
        PopulationConfig::new(n, s0, s1, h).unwrap()
    }

    #[test]
    fn sf_rejects_bad_noise_and_c1() {
        let cfg = config(100, 0, 1, 10);
        assert!(matches!(
            SfParams::derive(&cfg, 0.5, 1.0),
            Err(CoreError::NoiseTooHigh { .. })
        ));
        assert!(SfParams::derive(&cfg, -0.1, 1.0).is_err());
        assert!(SfParams::derive(&cfg, 0.1, 0.0).is_err());
        assert!(SfParams::derive(&cfg, 0.1, f64::NAN).is_err());
        assert!(SfParams::derive(&cfg, 0.0, 1.0).is_ok());
    }

    #[test]
    fn sf_m_grows_with_noise() {
        let cfg = config(1000, 0, 1, 100);
        let low = SfParams::derive(&cfg, 0.05, 1.0).unwrap();
        let high = SfParams::derive(&cfg, 0.4, 1.0).unwrap();
        assert!(high.m() > low.m());
    }

    #[test]
    fn sf_m_shrinks_with_bias() {
        let weak = SfParams::derive(&config(1000, 0, 1, 100), 0.2, 1.0).unwrap();
        let strong = SfParams::derive(&config(1000, 0, 9, 100), 0.2, 1.0).unwrap();
        assert!(strong.m() < weak.m());
    }

    #[test]
    fn sf_schedule_consistency() {
        let cfg = config(4096, 0, 1, 4096);
        let p = SfParams::derive(&cfg, 0.2, 1.0).unwrap();
        // Phase covers the budget.
        assert!(p.phase_len() * cfg.h() as u64 >= p.m());
        // Sub-phase covers w.
        assert!(p.subphase_len() * cfg.h() as u64 >= p.w());
        assert_eq!(p.final_subphase_len(), p.phase_len());
        assert_eq!(
            p.total_rounds(),
            3 * p.phase_len() + p.num_short_subphases() * p.subphase_len()
        );
        assert_eq!(
            p.num_short_subphases(),
            (10.0 * (4096f64).ln()).ceil() as u64
        );
        assert_eq!(p.n(), 4096);
        assert_eq!(p.h(), 4096);
        assert_eq!(p.delta(), 0.2);
    }

    #[test]
    fn sf_m_golden_value() {
        // Hand evaluation of Eq. (19) at n = h = 1024, δ = 0.2, s = 1:
        // ln 1024 ≈ 6.93147;
        // noise term  1024·0.2·ln n / 0.36 ≈ 3943.26
        // √n term     32·ln n              ≈ 221.81
        // sources     1·ln n               ≈ 6.93
        // h term      1024·ln n            ≈ 7097.83
        // total ≈ 11269.83 → ⌈·⌉ = 11270.
        let cfg = config(1024, 0, 1, 1024);
        let p = SfParams::derive(&cfg, 0.2, 1.0).unwrap();
        assert_eq!(p.m(), 11270);
        assert_eq!(p.phase_len(), 12); // ⌈11270/1024⌉
        assert_eq!(p.w(), 278); // ⌈100/0.36⌉
        assert_eq!(p.num_short_subphases(), 70); // ⌈10·ln 1024⌉
    }

    #[test]
    fn ssf_m_golden_value() {
        // Eq. (30) at n = 1024, δ = 0.1, c₁ = 1:
        // 0.1·1024·ln n / 0.36 + 1024 ≈ 1971.6 + 1024 → ⌈·⌉ = 2996.
        let cfg = config(1024, 0, 1, 1024);
        let p = SsfParams::derive(&cfg, 0.1, 1.0).unwrap();
        assert_eq!(p.m(), 2996);
    }

    #[test]
    fn sf_c1_scales_m_linearly() {
        let cfg = config(1000, 0, 1, 10);
        let p1 = SfParams::derive(&cfg, 0.2, 1.0).unwrap();
        let p2 = SfParams::derive(&cfg, 0.2, 2.0).unwrap();
        let ratio = p2.m() as f64 / p1.m() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn sf_with_m_rederives_schedule() {
        let cfg = config(1000, 0, 1, 10);
        let p = SfParams::derive(&cfg, 0.2, 1.0).unwrap();
        let q = p.with_m(100).unwrap();
        assert_eq!(q.m(), 100);
        assert_eq!(q.phase_len(), 10);
        assert_eq!(q.final_subphase_len(), 10);
        assert!(p.with_m(0).is_err());
    }

    #[test]
    fn sf_noiseless_has_small_w() {
        let cfg = config(1000, 0, 1, 10);
        let p = SfParams::derive(&cfg, 0.0, 1.0).unwrap();
        assert_eq!(p.w(), 100);
    }

    #[test]
    fn ssf_rejects_bad_noise() {
        let cfg = config(100, 0, 1, 10);
        assert!(matches!(
            SsfParams::derive(&cfg, 0.25, 1.0),
            Err(CoreError::NoiseTooHigh { limit, .. }) if limit == 0.25
        ));
        assert!(SsfParams::derive(&cfg, -0.01, 1.0).is_err());
        assert!(SsfParams::derive(&cfg, 0.2, -1.0).is_err());
        assert!(SsfParams::derive(&cfg, 0.0, 1.0).is_ok());
    }

    #[test]
    fn ssf_m_has_additive_n_floor() {
        let cfg = config(512, 0, 1, 512);
        let p = SsfParams::derive(&cfg, 0.0, 1.0).unwrap();
        assert_eq!(p.m(), 512);
        let q = SsfParams::derive(&cfg, 0.1, 1.0).unwrap();
        assert!(q.m() > 512);
        assert_eq!(q.n(), 512);
        assert_eq!(q.h(), 512);
        assert_eq!(q.delta(), 0.1);
    }

    #[test]
    fn ssf_update_interval_and_budget() {
        let cfg = config(512, 0, 1, 512);
        let p = SsfParams::derive(&cfg, 0.1, 1.0).unwrap();
        assert_eq!(p.update_interval(), p.m().div_ceil(512));
        assert_eq!(p.expected_convergence_rounds(), 3 * p.update_interval());
        let q = p.with_m(1024).unwrap();
        assert_eq!(q.update_interval(), 2);
        assert!(p.with_m(0).is_err());
        assert_eq!(q.interval_budget(10), Ok(20));
        let e = q.interval_budget(u64::MAX).unwrap_err().to_string();
        assert!(e.contains("overflow the u64 round budget"), "{e}");
    }

    #[test]
    fn ssf_m_diverges_near_quarter() {
        let cfg = config(1000, 0, 1, 10);
        let p1 = SsfParams::derive(&cfg, 0.1, 1.0).unwrap();
        let p2 = SsfParams::derive(&cfg, 0.24, 1.0).unwrap();
        assert!(p2.m() > 10 * p1.m());
    }
}
