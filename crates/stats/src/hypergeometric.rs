//! Exact hypergeometric sampling — drawing without replacement.
//!
//! The paper's model samples *with* replacement; the engine offers a
//! without-replacement variant as a robustness check (experiment
//! EXP-REPLACE). The aggregated channel then needs multivariate
//! hypergeometric splits ("which displayed symbols did my `h` distinct
//! samples hit"), built from this univariate sampler by sequential
//! conditioning — exactly mirroring the multinomial construction in
//! [`crate::multinomial`].

use rand::Rng;

use crate::binomial::ln_choose;
use crate::{Result, StatsError};

/// The hypergeometric pmf: probability of `k` successes when drawing
/// `draws` items without replacement from a population of `total` items
/// containing `successes` successes.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `successes > total` or
/// `draws > total`.
pub fn pmf(total: u64, successes: u64, draws: u64, k: u64) -> Result<f64> {
    validate(total, successes, draws)?;
    let failures = total - successes;
    if k > draws || k > successes || draws - k > failures {
        return Ok(0.0);
    }
    let ln_p = ln_choose(successes, k) + ln_choose(failures, draws - k) - ln_choose(total, draws);
    Ok(ln_p.exp())
}

fn validate(total: u64, successes: u64, draws: u64) -> Result<()> {
    if successes > total {
        return Err(StatsError::ParameterOutOfRange {
            name: "successes",
            range: format!("0..={total}"),
        });
    }
    if draws > total {
        return Err(StatsError::ParameterOutOfRange {
            name: "draws",
            range: format!("0..={total}"),
        });
    }
    Ok(())
}

/// Draws one hypergeometric sample, exactly, by inversion from the mode —
/// `O(σ)` expected steps, the same scheme as the binomial sampler.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `successes > total` or
/// `draws > total`.
///
/// # Example
///
/// ```
/// use np_stats::hypergeometric::sample;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// // Draw all items: deterministic count.
/// assert_eq!(sample(&mut rng, 10, 4, 10)?, 4);
/// # Ok::<(), np_stats::StatsError>(())
/// ```
pub fn sample<R: Rng + ?Sized>(rng: &mut R, total: u64, successes: u64, draws: u64) -> Result<u64> {
    validate(total, successes, draws)?;
    Ok(sample_unchecked(rng, total, successes, draws))
}

/// Like [`sample`] without the validation (hot path).
///
/// # Panics
///
/// Debug-asserts the parameter constraints.
pub fn sample_unchecked<R: Rng + ?Sized>(
    rng: &mut R,
    total: u64,
    successes: u64,
    draws: u64,
) -> u64 {
    debug_assert!(successes <= total && draws <= total);
    if draws == 0 || successes == 0 {
        return 0;
    }
    if successes == total {
        return draws;
    }
    if draws == total {
        return successes;
    }
    // Support bounds.
    let failures = total - successes;
    let k_min = draws.saturating_sub(failures);
    let k_max = draws.min(successes);
    if k_min == k_max {
        return k_min;
    }
    // Mode of the hypergeometric.
    let mode =
        (((draws + 1) as f64) * ((successes + 1) as f64) / ((total + 2) as f64)).floor() as u64;
    let mode = mode.clamp(k_min, k_max);
    #[expect(
        clippy::expect_used,
        reason = "parameters validated by the public `sample` wrapper"
    )]
    let pmf_mode = pmf(total, successes, draws, mode).expect("validated");
    let mut u = rng.gen::<f64>() - pmf_mode;
    if u <= 0.0 {
        return mode;
    }
    // Two-sided walk from the mode using the pmf ratio
    // pmf(k+1)/pmf(k) = (successes−k)(draws−k) / ((k+1)(failures−draws+k+1)).
    let ratio_up = |k: u64| -> f64 {
        ((successes - k) as f64 * (draws - k) as f64)
            / ((k + 1) as f64 * (failures + k + 1 - draws) as f64)
    };
    let mut lo = mode;
    let mut hi = mode;
    let mut pmf_lo = pmf_mode;
    let mut pmf_hi = pmf_mode;
    loop {
        let can_left = lo > k_min;
        let can_right = hi < k_max;
        if !can_left && !can_right {
            return mode;
        }
        let next_left = if can_left {
            pmf_lo / ratio_up(lo - 1)
        } else {
            -1.0
        };
        let next_right = if can_right {
            pmf_hi * ratio_up(hi)
        } else {
            -1.0
        };
        if next_right >= next_left {
            hi += 1;
            pmf_hi = next_right;
            u -= pmf_hi;
            if u <= 0.0 {
                return hi;
            }
        } else {
            lo -= 1;
            pmf_lo = next_left;
            u -= pmf_lo;
            if u <= 0.0 {
                return lo;
            }
        }
    }
}

/// Multivariate hypergeometric split, allocation-free: how many of the
/// `draws` without-replacement samples landed in each category, where
/// category `i` holds `counts[i]` items.
///
/// # Panics
///
/// Panics if `out.len() != counts.len()`, `counts` is empty, or
/// `draws > Σ counts`.
pub fn sample_multivariate_into<R: Rng + ?Sized>(
    rng: &mut R,
    counts: &[u64],
    draws: u64,
    out: &mut [u64],
) {
    assert!(!counts.is_empty(), "empty category counts");
    assert_eq!(out.len(), counts.len(), "output buffer size mismatch");
    let mut remaining_total: u64 = counts.iter().sum();
    assert!(
        draws <= remaining_total,
        "cannot draw {draws} from {remaining_total}"
    );
    out.fill(0);
    let mut remaining_draws = draws;
    for (i, &c) in counts.iter().enumerate() {
        if remaining_draws == 0 {
            break;
        }
        if i == counts.len() - 1 {
            out[i] = remaining_draws;
            break;
        }
        let x = sample_unchecked(rng, remaining_total, c, remaining_draws);
        out[i] = x;
        remaining_draws -= x;
        remaining_total -= c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        for &(t, s, d) in &[(20u64, 7u64, 5u64), (50, 25, 50), (10, 10, 3), (30, 1, 30)] {
            let total: f64 = (0..=d).map(|k| pmf(t, s, d, k).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-10, "t={t} s={s} d={d}: {total}");
        }
    }

    #[test]
    fn pmf_validation() {
        assert!(pmf(10, 11, 5, 1).is_err());
        assert!(pmf(10, 5, 11, 1).is_err());
        assert_eq!(pmf(10, 5, 5, 6).unwrap(), 0.0);
    }

    #[test]
    fn degenerate_draws() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample(&mut rng, 10, 5, 0).unwrap(), 0);
        assert_eq!(sample(&mut rng, 10, 0, 5).unwrap(), 0);
        assert_eq!(sample(&mut rng, 10, 10, 7).unwrap(), 7);
        assert_eq!(sample(&mut rng, 10, 4, 10).unwrap(), 4);
        assert!(sample(&mut rng, 10, 11, 1).is_err());
    }

    #[test]
    fn support_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        // total=10, successes=7, draws=6: k ∈ [3, 6].
        for _ in 0..500 {
            let k = sample(&mut rng, 10, 7, 6).unwrap();
            assert!((3..=6).contains(&k));
        }
    }

    #[test]
    fn distribution_matches_pmf() {
        let (t, s, d) = (40u64, 15u64, 12u64);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u64; (d + 1) as usize];
        let trials = 100_000;
        for _ in 0..trials {
            counts[sample(&mut rng, t, s, d).unwrap() as usize] += 1;
        }
        let cdf = |k: usize| -> f64 {
            (0..=k as u64)
                .map(|i| pmf(t, s, d, i).unwrap())
                .sum::<f64>()
                .min(1.0)
        };
        assert!(crate::ks::ks_passes(&counts, cdf, 3.0).unwrap());
    }

    #[test]
    fn mean_matches_formula() {
        let (t, s, d) = (1000u64, 300u64, 500u64);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 4000;
        let mut acc = 0.0;
        for _ in 0..trials {
            acc += sample(&mut rng, t, s, d).unwrap() as f64;
        }
        let mean = acc / trials as f64;
        let expect = d as f64 * s as f64 / t as f64; // 150
                                                     // Variance = d·(s/t)(1−s/t)·(t−d)/(t−1) ≈ 52.6 → σ ≈ 7.25.
        assert!((mean - expect).abs() < 6.0 * 7.25 / (trials as f64).sqrt());
    }

    #[test]
    fn multivariate_counts_sum_and_respect_capacities() {
        let counts = [5u64, 0, 12, 3];
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = [0u64; 4];
        for draws in [0u64, 1, 10, 20] {
            sample_multivariate_into(&mut rng, &counts, draws, &mut out);
            assert_eq!(out.iter().sum::<u64>(), draws);
            for (o, c) in out.iter().zip(&counts) {
                assert!(o <= c, "drew {o} from a category of {c}");
            }
        }
    }

    #[test]
    fn multivariate_draw_all_returns_counts() {
        let counts = [2u64, 7, 1];
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = [0u64; 3];
        sample_multivariate_into(&mut rng, &counts, 10, &mut out);
        assert_eq!(out, counts);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn multivariate_overdraw_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = [0u64; 2];
        sample_multivariate_into(&mut rng, &[1, 2], 4, &mut out);
    }

    #[test]
    fn multivariate_marginals_match_univariate() {
        // The first category's marginal must be HG(total, c0, draws).
        let counts = [6u64, 14];
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = [0u64; 2];
        let trials = 60_000;
        let mut hist = vec![0u64; 7];
        for _ in 0..trials {
            sample_multivariate_into(&mut rng, &counts, 8, &mut out);
            hist[out[0] as usize] += 1;
        }
        let cdf = |k: usize| -> f64 {
            (0..=k as u64)
                .map(|i| pmf(20, 6, 8, i).unwrap())
                .sum::<f64>()
                .min(1.0)
        };
        assert!(crate::ks::ks_passes(&hist, cdf, 3.0).unwrap());
    }
}
