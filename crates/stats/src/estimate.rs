//! Streaming estimators and summary statistics for experiment reporting.

use crate::{Result, StatsError};

/// Welford's online mean/variance accumulator.
///
/// Numerically stable for long streams; used by every experiment to
/// aggregate per-seed convergence times.
///
/// # Example
///
/// ```
/// use np_stats::estimate::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.count(), 8);
/// assert!((r.mean()? - 5.0).abs() < 1e-12);
/// assert!((r.population_variance()? - 4.0).abs() < 1e-12);
/// # Ok::<(), np_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Same as [`Running::new`]. A derived `Default` would zero-fill `min` /
/// `max`, silently reporting a spurious minimum of `0.0` for all-positive
/// streams; the empty accumulator needs the `±∞` sentinels.
impl Default for Running {
    fn default() -> Self {
        Running::new()
    }
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] before the first observation.
    pub fn mean(&self) -> Result<f64> {
        if self.count == 0 {
            return Err(StatsError::Empty);
        }
        Ok(self.mean)
    }

    /// Population variance (divides by `count`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] before the first observation.
    pub fn population_variance(&self) -> Result<f64> {
        if self.count == 0 {
            return Err(StatsError::Empty);
        }
        Ok(self.m2 / self.count as f64)
    }

    /// Unbiased sample variance (divides by `count − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] with fewer than two observations.
    pub fn sample_variance(&self) -> Result<f64> {
        if self.count < 2 {
            return Err(StatsError::Empty);
        }
        Ok(self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] with fewer than two observations.
    pub fn sample_std(&self) -> Result<f64> {
        Ok(self.sample_variance()?.sqrt())
    }

    /// Standard error of the mean.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] with fewer than two observations.
    pub fn standard_error(&self) -> Result<f64> {
        Ok(self.sample_std()? / (self.count as f64).sqrt())
    }

    /// Minimum observation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] before the first observation.
    pub fn min(&self) -> Result<f64> {
        if self.count == 0 {
            return Err(StatsError::Empty);
        }
        Ok(self.min)
    }

    /// Maximum observation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] before the first observation.
    pub fn max(&self) -> Result<f64> {
        if self.count == 0 {
            return Err(StatsError::Empty);
        }
        Ok(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Wilson score interval for a binomial proportion.
///
/// Returns `(low, high)` such that the true success probability lies inside
/// with the confidence implied by `z` (e.g. `z = 1.96` for 95%,
/// `z = 3.29` for 99.9%). More reliable than the normal interval near 0/1,
/// which is where convergence-probability estimates live.
///
/// # Errors
///
/// Returns [`StatsError::ParameterOutOfRange`] if `trials = 0`,
/// `successes > trials`, or `z ≤ 0`.
///
/// # Example
///
/// ```
/// let (lo, hi) = np_stats::estimate::wilson_interval(95, 100, 1.96)?;
/// assert!(lo > 0.85 && hi < 1.0 && lo < 0.95 && 0.95 < hi);
/// # Ok::<(), np_stats::StatsError>(())
/// ```
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> Result<(f64, f64)> {
    if trials == 0 || successes > trials {
        return Err(StatsError::ParameterOutOfRange {
            name: "trials",
            range: "trials > 0 and successes ≤ trials".into(),
        });
    }
    if z <= 0.0 || !z.is_finite() {
        return Err(StatsError::ParameterOutOfRange {
            name: "z",
            range: "(0, ∞)".into(),
        });
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Ok(((center - half).max(0.0), (center + half).min(1.0)))
}

/// A batch summary of a sample: count, mean, standard deviation, extrema,
/// and percentiles.
///
/// Produced by [`Summary::from_values`] for experiment tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    values: Vec<f64>,
    running: Running,
}

impl Summary {
    /// Builds a summary from raw values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if `values` is empty, and
    /// [`StatsError::ParameterOutOfRange`] if any value is non-finite.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(StatsError::Empty);
        }
        if values.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::ParameterOutOfRange {
                name: "values",
                range: "finite".into(),
            });
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut running = Running::new();
        for &x in values {
            running.push(x);
        }
        Ok(Summary {
            values: sorted,
            running,
        })
    }

    /// Number of values.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Mean of the sample.
    #[expect(clippy::expect_used, reason = "Summary::new rejects empty input")]
    pub fn mean(&self) -> f64 {
        self.running.mean().expect("nonempty by construction")
    }

    /// Sample standard deviation, or 0 for a single observation.
    pub fn std(&self) -> f64 {
        self.running.sample_std().unwrap_or(0.0)
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Maximum value.
    #[expect(clippy::expect_used, reason = "Summary::new rejects empty input")]
    pub fn max(&self) -> f64 {
        *self.values.last().expect("nonempty")
    }

    /// Percentile by linear interpolation, `q ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadProbability`] if `q ∉ [0, 1]`.
    pub fn percentile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::BadProbability { value: q });
        }
        let n = self.values.len();
        if n == 1 {
            return Ok(self.values[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Ok(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Median (50th percentile).
    #[expect(clippy::expect_used, reason = "0.5 is always a valid quantile")]
    pub fn median(&self) -> f64 {
        self.percentile(0.5).expect("0.5 is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_empty_errors() {
        let r = Running::new();
        assert_eq!(r.mean(), Err(StatsError::Empty));
        assert_eq!(r.min(), Err(StatsError::Empty));
        assert_eq!(r.max(), Err(StatsError::Empty));
        assert_eq!(r.sample_variance(), Err(StatsError::Empty));
    }

    #[test]
    fn running_default_is_empty_accumulator() {
        // Regression: a derived Default zero-filled min/max, so an
        // all-positive stream reported min() == 0.0.
        let mut r = Running::default();
        assert_eq!(r, Running::new());
        assert_eq!(r.min(), Err(StatsError::Empty));
        r.push(5.0);
        assert_eq!(r.min().unwrap(), 5.0);
        assert_eq!(r.max().unwrap(), 5.0);
        let mut neg = Running::default();
        neg.push(-5.0);
        assert_eq!(neg.max().unwrap(), -5.0);
    }

    #[test]
    fn running_single_value() {
        let mut r = Running::new();
        r.push(3.0);
        assert_eq!(r.mean().unwrap(), 3.0);
        assert_eq!(r.population_variance().unwrap(), 0.0);
        assert!(r.sample_variance().is_err());
        assert_eq!(r.min().unwrap(), 3.0);
        assert_eq!(r.max().unwrap(), 3.0);
    }

    #[test]
    fn running_matches_direct_formulas() {
        let xs = [1.5, -2.0, 7.25, 0.0, 3.5];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((r.mean().unwrap() - mean).abs() < 1e-12);
        assert!((r.sample_variance().unwrap() - var).abs() < 1e-12);
        assert!((r.standard_error().unwrap() - (var / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Running::new();
        let mut right = Running::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-10);
        assert!((left.sample_variance().unwrap() - whole.sample_variance().unwrap()).abs() < 1e-10);
        assert_eq!(left.min().unwrap(), whole.min().unwrap());
        assert_eq!(left.max().unwrap(), whole.max().unwrap());
    }

    #[test]
    fn running_merge_with_empty() {
        let mut a = Running::new();
        a.push(1.0);
        let b = Running::new();
        let mut c = a;
        c.merge(&b);
        assert_eq!(c.count(), 1);
        let mut d = Running::new();
        d.merge(&a);
        assert_eq!(d.mean().unwrap(), 1.0);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let (lo, hi) = wilson_interval(7, 10, 1.96).unwrap();
        assert!(lo < 0.7 && 0.7 < hi);
        // Degenerate successes.
        let (lo0, _) = wilson_interval(0, 10, 1.96).unwrap();
        assert_eq!(lo0, 0.0);
        let (_, hi1) = wilson_interval(10, 10, 1.96).unwrap();
        assert_eq!(hi1, 1.0);
    }

    #[test]
    fn wilson_interval_narrows_with_trials() {
        let (lo1, hi1) = wilson_interval(70, 100, 1.96).unwrap();
        let (lo2, hi2) = wilson_interval(700, 1000, 1.96).unwrap();
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_interval_validates() {
        assert!(wilson_interval(5, 0, 1.96).is_err());
        assert!(wilson_interval(11, 10, 1.96).is_err());
        assert!(wilson_interval(5, 10, 0.0).is_err());
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_values(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0).unwrap(), 1.0);
        assert_eq!(s.percentile(1.0).unwrap(), 5.0);
        assert_eq!(s.percentile(0.25).unwrap(), 2.0);
        assert!(s.percentile(1.5).is_err());
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_values(&[7.0]).unwrap();
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.percentile(0.3).unwrap(), 7.0);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(Summary::from_values(&[]).is_err());
        assert!(Summary::from_values(&[1.0, f64::NAN]).is_err());
    }
}
