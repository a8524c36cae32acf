//! Evaluators for the concentration and anti-concentration bounds used by
//! the paper's analysis (Appendix B, and Lemmas 21/22 of Section 5.1).
//!
//! These are *formula evaluators*, not samplers: experiments use them to
//! overlay the theoretical curves on measured data, and tests use them to
//! confirm the paper's inequalities against exact binomial computations.

use crate::binomial;
use crate::{Result, StatsError};

/// Multiplicative Chernoff bound (Theorem 41):
/// for `X` a sum of i.i.d. `{0,1}` variables with mean `μ` and `δ ∈ (0,1)`,
///
/// `P(X ≤ (1 − δ)·μ) ≤ exp(−δ²μ/2)`.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `δ ∉ (0, 1)` or `μ < 0`.
pub fn chernoff_lower_tail(mu: f64, delta: f64) -> Result<f64> {
    // Open-interval boundary: δ must be strictly positive.
    if !(0.0..1.0).contains(&delta) || delta == 0.0 {
        return Err(StatsError::ParameterOutOfRange {
            name: "delta",
            range: "(0, 1)".into(),
        });
    }
    if mu < 0.0 || !mu.is_finite() {
        return Err(StatsError::ParameterOutOfRange {
            name: "mu",
            range: "[0, ∞)".into(),
        });
    }
    Ok((-delta * delta * mu / 2.0).exp())
}

/// Chernoff–Hoeffding bound (Theorem 42) for `{0,1}`-valued summands:
/// `P(X ≤ μ − t), P(X ≥ μ + t) ≤ exp(−2t²/n)`.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `n = 0` or `t < 0`.
pub fn hoeffding_binary(n: u64, t: f64) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::ParameterOutOfRange {
            name: "n",
            range: "positive".into(),
        });
    }
    if t < 0.0 || !t.is_finite() {
        return Err(StatsError::ParameterOutOfRange {
            name: "t",
            range: "[0, ∞)".into(),
        });
    }
    Ok((-2.0 * t * t / n as f64).exp())
}

/// General Chernoff–Hoeffding bound (Theorem 42): summands bounded in
/// `[aᵢ, bᵢ]` with `sum_sq_ranges = Σ (bᵢ − aᵢ)²`; the tail is
/// `exp(−2t²/ Σ(bᵢ−aᵢ)²)`.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `sum_sq_ranges ≤ 0` or
/// `t < 0`.
pub fn hoeffding_general(sum_sq_ranges: f64, t: f64) -> Result<f64> {
    if sum_sq_ranges <= 0.0 || !sum_sq_ranges.is_finite() {
        return Err(StatsError::ParameterOutOfRange {
            name: "sum_sq_ranges",
            range: "(0, ∞)".into(),
        });
    }
    if t < 0.0 || !t.is_finite() {
        return Err(StatsError::ParameterOutOfRange {
            name: "t",
            range: "[0, ∞)".into(),
        });
    }
    Ok((-2.0 * t * t / sum_sq_ranges).exp())
}

/// The function `g(θ, m)` of Lemma 21 (with the paper's corrected
/// definition):
///
/// * `g(θ, m) = θ·(1 − θ²)^((m−1)/2)` when `θ < 1/√m`;
/// * `g(θ, m) = (1/√m)·(1 − 1/m)^((m−1)/2)` when `θ ≥ 1/√m`.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `m = 0` or
/// `θ ∉ [0, ½]`.
pub fn lemma21_g(theta: f64, m: u64) -> Result<f64> {
    if m == 0 {
        return Err(StatsError::ParameterOutOfRange {
            name: "m",
            range: "positive".into(),
        });
    }
    if !(0.0..=0.5).contains(&theta) {
        return Err(StatsError::ParameterOutOfRange {
            name: "theta",
            range: "[0, 1/2]".into(),
        });
    }
    let mf = m as f64;
    let half_exp = (mf - 1.0) / 2.0;
    Ok(if theta < 1.0 / mf.sqrt() {
        theta * (1.0 - theta * theta).powf(half_exp)
    } else {
        (1.0 / mf.sqrt()) * (1.0 - 1.0 / mf).powf(half_exp)
    })
}

/// Lemma 22's anti-concentration lower bound: for `X` a sum of `m` i.i.d.
/// `Rad(½ + θ)` variables with `0 ≤ θ ≤ ½`,
///
/// `P(X > 0) − P(X < 0) ≥ √(2/(π·e·m)) · min{√m·θ, 1}`.
///
/// This is the quantity the paper calls the *sign advantage* — the engine of
/// weak-opinion correctness.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `m = 0` or `θ ∉ [0, ½]`.
///
/// # Example
///
/// ```
/// use np_stats::concentration::lemma22_lower_bound;
/// use np_stats::rademacher::exact_sign_advantage;
///
/// // The bound must lower-bound the exact advantage.
/// let m = 401;
/// let theta = 0.02;
/// let bound = lemma22_lower_bound(theta, m)?;
/// let exact = exact_sign_advantage(m, theta)?;
/// assert!(bound <= exact);
/// # Ok::<(), np_stats::StatsError>(())
/// ```
pub fn lemma22_lower_bound(theta: f64, m: u64) -> Result<f64> {
    if m == 0 {
        return Err(StatsError::ParameterOutOfRange {
            name: "m",
            range: "positive".into(),
        });
    }
    if !(0.0..=0.5).contains(&theta) {
        return Err(StatsError::ParameterOutOfRange {
            name: "theta",
            range: "[0, 1/2]".into(),
        });
    }
    let mf = m as f64;
    let pref = (2.0 / (std::f64::consts::PI * std::f64::consts::E * mf)).sqrt();
    Ok(pref * (mf.sqrt() * theta).min(1.0))
}

/// Exact tail `P(Binomial(m, ½ + θ) ≥ ⌈m/2⌉) − P(Binomial(m, ½ + θ) ≤ ⌊m/2⌋ − ...)`
/// — the "more heads than tails" advantage of Lemma 21, computed exactly.
///
/// Returns `P(B ≥ m/2) − P(B < m/2)` where `B ~ Binomial(m, ½ + θ)`.
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `½ + θ ∉ [0, 1]`.
pub fn exact_majority_advantage(theta: f64, m: u64) -> Result<f64> {
    let p = 0.5 + theta;
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::BadProbability { value: p });
    }
    let mut ge = 0.0;
    let mut lt = 0.0;
    for k in 0..=m {
        let mass = binomial::pmf(m, p, k)?;
        if 2 * k >= m {
            ge += mass;
        } else {
            lt += mass;
        }
    }
    Ok(ge - lt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rademacher::exact_sign_advantage;

    #[test]
    fn chernoff_basic_properties() {
        // Tighter δ or larger μ ⇒ smaller bound.
        let a = chernoff_lower_tail(100.0, 0.1).unwrap();
        let b = chernoff_lower_tail(100.0, 0.5).unwrap();
        let c = chernoff_lower_tail(1000.0, 0.1).unwrap();
        assert!(b < a && c < a);
        assert!(a <= 1.0 && b > 0.0);
        assert!(chernoff_lower_tail(100.0, 0.0).is_err());
        assert!(chernoff_lower_tail(100.0, 1.0).is_err());
        assert!(chernoff_lower_tail(-1.0, 0.5).is_err());
    }

    #[test]
    fn chernoff_actually_bounds_binomial_tail() {
        // X ~ Binomial(200, 0.5), μ = 100: P(X ≤ 80) ≤ exp(−0.04·100/2).
        let n = 200u64;
        let p = 0.5;
        let mu = n as f64 * p;
        let delta = 0.2;
        let cutoff = ((1.0 - delta) * mu).floor() as u64;
        let tail = binomial::cdf(n, p, cutoff).unwrap();
        assert!(tail <= chernoff_lower_tail(mu, delta).unwrap());
    }

    #[test]
    fn hoeffding_bounds_binomial_tails() {
        let n = 300u64;
        let p = 0.4;
        let mu = n as f64 * p;
        for t in [5.0, 10.0, 25.0] {
            let bound = hoeffding_binary(n, t).unwrap();
            let lower = binomial::cdf(n, p, (mu - t).floor() as u64).unwrap();
            assert!(lower <= bound + 1e-12, "t={t}: {lower} > {bound}");
        }
        assert!(hoeffding_binary(0, 1.0).is_err());
        assert!(hoeffding_binary(10, -1.0).is_err());
    }

    #[test]
    fn hoeffding_general_matches_binary_special_case() {
        // {0,1} summands: ranges all 1, Σ(bᵢ−aᵢ)² = n.
        let a = hoeffding_binary(50, 7.0).unwrap();
        let b = hoeffding_general(50.0, 7.0).unwrap();
        assert!((a - b).abs() < 1e-15);
        assert!(hoeffding_general(0.0, 1.0).is_err());
    }

    #[test]
    fn lemma21_g_regimes_and_validation() {
        // Small θ regime.
        let g1 = lemma21_g(0.001, 100).unwrap();
        assert!((g1 - 0.001 * (1.0 - 1e-6f64).powf(49.5)).abs() < 1e-9);
        // Large θ regime: independent of θ.
        let g2 = lemma21_g(0.3, 100).unwrap();
        let g3 = lemma21_g(0.45, 100).unwrap();
        assert_eq!(g2, g3);
        assert!(lemma21_g(0.6, 100).is_err());
        assert!(lemma21_g(0.1, 0).is_err());
    }

    #[test]
    fn lemma22_bound_below_exact_advantage() {
        // The whole point of the bound: it must hold against exact values
        // across regimes.
        for &m in &[11u64, 51, 101, 501, 1001] {
            for &theta in &[0.0, 0.001, 0.01, 0.05, 0.2, 0.4] {
                let bound = lemma22_lower_bound(theta, m).unwrap();
                let exact = exact_sign_advantage(m, theta).unwrap();
                assert!(
                    bound <= exact + 1e-12,
                    "m={m}, θ={theta}: bound {bound} > exact {exact}"
                );
            }
        }
    }

    #[test]
    fn lemma22_bound_validation() {
        assert!(lemma22_lower_bound(0.1, 0).is_err());
        assert!(lemma22_lower_bound(0.7, 10).is_err());
    }

    #[test]
    fn exact_majority_advantage_at_half_is_tie_mass() {
        // At θ = 0 the advantage equals P(B = m/2) for even m (ties count
        // as "≥"), and 0 for odd m.
        let even = exact_majority_advantage(0.0, 10).unwrap();
        assert!((even - binomial::pmf(10, 0.5, 5).unwrap()).abs() < 1e-12);
        let odd = exact_majority_advantage(0.0, 11).unwrap();
        assert!(odd.abs() < 1e-12);
    }

    #[test]
    fn lemma21_bound_with_g_holds() {
        // Lemma 21: P(B ≥ m/2) − P(B < m/2) ≥ √(2/π)·g(θ, m)
        // (checked numerically, since the transcription of the constant in
        // the source text is unreliable).
        let pref = (2.0 / std::f64::consts::PI).sqrt();
        for &m in &[10u64, 100, 500] {
            for &theta in &[0.01, 0.05, 0.2] {
                let lhs = exact_majority_advantage(theta, m).unwrap();
                let rhs = pref * lemma21_g(theta, m).unwrap();
                assert!(lhs >= rhs - 1e-12, "m={m}, θ={theta}: {lhs} < {rhs}");
            }
        }
    }
}
