//! Noise matrices and the artificial-noise reduction (Section 4 of the
//! paper).
//!
//! A *noise matrix* `N` over an alphabet `Σ` of size `d` is a stochastic
//! `d × d` matrix: when a displayed message `σ` is observed, the observer
//! receives `σ'` with probability `N_{σ,σ'}`. Definition 1 of the paper
//! distinguishes three classes, for `δ ∈ [0, 1/d]`:
//!
//! * **δ-lower bounded**: `N_{σ,σ'} ≥ δ` for every pair (the lower-bound
//!   theorem's assumption);
//! * **δ-upper bounded**: `N_{σ,σ} ≥ 1 − (d−1)δ` and `N_{σ,σ'} ≤ δ` for
//!   `σ ≠ σ'` (the upper-bound theorems' assumption);
//! * **δ-uniform**: equality in the above — every corruption is equally
//!   likely.
//!
//! Theorem 8 shows a δ-upper-bounded channel can be *exactly uniformized*:
//! there is a stochastic artificial-noise matrix `P = N⁻¹·T` such that
//! applying `P` to each received message makes the end-to-end channel
//! `N·P = T` exactly `f(δ)`-uniform, where `f` is the level map of
//! Definition 7. [`NoiseMatrix::artificial_noise`] is the constructive form
//! of that proof.

use crate::lu::LuDecomposition;
use crate::norm::operator_inf_norm;
use crate::stochastic::{is_stochastic, sanitize_stochastic, validate_stochastic, DEFAULT_TOL};
use crate::{LinalgError, Matrix, Result};

/// A validated stochastic noise matrix over an alphabet of size
/// [`NoiseMatrix::dim`].
///
/// The newtype guarantees squareness and stochasticity at construction, so
/// downstream code (channel samplers, the reduction) never has to re-check.
///
/// # Example
///
/// ```
/// use np_linalg::noise::NoiseMatrix;
///
/// // The binary symmetric channel with crossover probability 0.1.
/// let n = NoiseMatrix::uniform(2, 0.1)?;
/// assert_eq!(n.dim(), 2);
/// assert_eq!(n.uniform_level(), Some(0.1));
/// # Ok::<(), np_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseMatrix {
    m: Matrix,
}

impl NoiseMatrix {
    /// Wraps a square stochastic matrix as a noise matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::BadShape`] if `m` is not square.
    /// * [`LinalgError::NotStochastic`] if any row is not a probability
    ///   distribution (within [`DEFAULT_TOL`]).
    pub fn new(m: Matrix) -> Result<Self> {
        if !m.is_square() {
            return Err(LinalgError::BadShape {
                detail: format!("noise matrix must be square, got {}x{}", m.rows(), m.cols()),
            });
        }
        validate_stochastic(&m, DEFAULT_TOL)?;
        Ok(NoiseMatrix { m })
    }

    /// Builds a noise matrix from explicit rows.
    ///
    /// # Errors
    ///
    /// Same as [`NoiseMatrix::new`], plus shape errors from
    /// [`Matrix::from_rows`].
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        NoiseMatrix::new(Matrix::from_rows(rows)?)
    }

    /// The noiseless channel: the `d × d` identity.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn noiseless(d: usize) -> Self {
        NoiseMatrix {
            m: Matrix::identity(d),
        }
    }

    /// The δ-uniform noise matrix on an alphabet of size `d`
    /// (Definition 1): diagonal `1 − (d−1)δ`, off-diagonal `δ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ParameterOutOfRange`] unless `0 ≤ δ ≤ 1/d`
    /// and `d ≥ 2`.
    pub fn uniform(d: usize, delta: f64) -> Result<Self> {
        if d < 2 {
            return Err(LinalgError::ParameterOutOfRange {
                name: "d",
                value: d as f64,
                range: "alphabet size must be at least 2".into(),
            });
        }
        if !(0.0..=1.0 / d as f64).contains(&delta) {
            return Err(LinalgError::ParameterOutOfRange {
                name: "delta",
                value: delta,
                range: format!("[0, 1/{d}]"),
            });
        }
        let mut m = Matrix::zeros(d, d);
        let diag = 1.0 - (d as f64 - 1.0) * delta;
        for i in 0..d {
            for j in 0..d {
                m[(i, j)] = if i == j { diag } else { delta };
            }
        }
        Ok(NoiseMatrix { m })
    }

    /// Alphabet size `d = |Σ|`.
    pub fn dim(&self) -> usize {
        self.m.rows()
    }

    /// Borrows the underlying matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.m
    }

    /// Consumes the newtype, returning the underlying matrix.
    pub fn into_matrix(self) -> Matrix {
        self.m
    }

    /// Row `σ` as a probability distribution over observed messages.
    ///
    /// # Panics
    ///
    /// Panics if `sigma >= self.dim()`.
    pub fn observation_distribution(&self, sigma: usize) -> &[f64] {
        self.m.row(sigma)
    }

    /// Returns `true` if the matrix is δ-lower bounded (Definition 1):
    /// every entry is at least `delta` (up to [`DEFAULT_TOL`]).
    pub fn is_lower_bounded(&self, delta: f64) -> bool {
        self.m.as_slice().iter().all(|&x| x >= delta - DEFAULT_TOL)
    }

    /// The largest `δ` for which this matrix is δ-lower bounded: its
    /// minimum entry.
    pub fn lower_bound_level(&self) -> f64 {
        self.m
            .as_slice()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// Returns `true` if the matrix is δ-upper bounded (Definition 1, Eq.
    /// (1)): `N_{σ,σ} ≥ 1 − (d−1)δ` and `N_{σ,σ'} ≤ δ` off-diagonal, up to
    /// [`DEFAULT_TOL`].
    pub fn is_upper_bounded(&self, delta: f64) -> bool {
        let d = self.dim() as f64;
        if !(0.0..=1.0 / d + DEFAULT_TOL).contains(&delta) {
            return false;
        }
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                let x = self.m[(i, j)];
                if i == j {
                    if x < 1.0 - (d - 1.0) * delta - DEFAULT_TOL {
                        return false;
                    }
                } else if x > delta + DEFAULT_TOL {
                    return false;
                }
            }
        }
        true
    }

    /// The smallest `δ` for which this matrix is δ-upper bounded, or `None`
    /// if no `δ ≤ 1/d` works (e.g. a channel that corrupts more often than
    /// uniform chance).
    ///
    /// For a δ-uniform matrix this returns exactly δ (up to float error).
    pub fn upper_bound_level(&self) -> Option<f64> {
        let d = self.dim() as f64;
        let mut delta: f64 = 0.0;
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                let x = self.m[(i, j)];
                if i == j {
                    // Need 1 − (d−1)δ ≤ x, i.e. δ ≥ (1 − x)/(d−1).
                    delta = delta.max((1.0 - x) / (d - 1.0));
                } else {
                    // Need x ≤ δ.
                    delta = delta.max(x);
                }
            }
        }
        (delta <= 1.0 / d + DEFAULT_TOL).then_some(delta.min(1.0 / d))
    }

    /// Returns `true` if the matrix is exactly δ-uniform for the given
    /// level, within `tol`.
    pub fn is_uniform_with_level(&self, delta: f64, tol: f64) -> bool {
        let d = self.dim() as f64;
        let diag = 1.0 - (d - 1.0) * delta;
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                let want = if i == j { diag } else { delta };
                if (self.m[(i, j)] - want).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// If the matrix is δ-uniform (within [`DEFAULT_TOL`]), returns its
    /// level δ; otherwise `None`.
    pub fn uniform_level(&self) -> Option<f64> {
        // All off-diagonal entries must agree; take the first as candidate.
        let delta = if self.dim() >= 2 { self.m[(0, 1)] } else { 0.0 };
        self.is_uniform_with_level(delta, DEFAULT_TOL)
            .then_some(delta)
    }

    /// Composes two channels: a message first passes through `self`, then
    /// through `after` — the combined channel is `self · after`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the alphabet sizes
    /// differ, or [`LinalgError::NotStochastic`] if numerical error pushes
    /// the product outside tolerance (practically impossible).
    pub fn compose(&self, after: &NoiseMatrix) -> Result<NoiseMatrix> {
        let prod = self.m.mul_checked(&after.m)?;
        NoiseMatrix::new(prod)
    }

    /// Inverts the noise matrix.
    ///
    /// Corollary 14 of the paper proves every δ-upper-bounded matrix with
    /// `δ < 1/d` is invertible with `‖N⁻¹‖∞ ≤ (d−1)/(1−dδ)`; this method
    /// works for any numerically invertible noise matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix is numerically
    /// singular (possible only when it is not δ-upper bounded for any
    /// `δ < 1/d`).
    pub fn inverse(&self) -> Result<Matrix> {
        LuDecomposition::new(&self.m)?.inverse()
    }

    /// Derives the artificial noise of Theorem 8 / Proposition 16.
    ///
    /// Computes the tightest upper-bound level `δ` of this matrix, the
    /// target uniform level `δ' = f(δ)` (Definition 7), and the stochastic
    /// matrix `P = N⁻¹·T` where `T` is δ'-uniform. Agents that re-randomize
    /// every received message according to `P` experience an end-to-end
    /// channel distributed exactly as `T`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NoiseClassViolation`] if the matrix is not δ-upper
    ///   bounded for any `δ < 1/d` (then the construction does not apply).
    /// * [`LinalgError::NotStochastic`] if `P` fails validation — by
    ///   Proposition 16 this indicates a numerical problem, not a modelling
    ///   one.
    ///
    /// # Example
    ///
    /// ```
    /// use np_linalg::noise::NoiseMatrix;
    ///
    /// let n = NoiseMatrix::from_rows(vec![vec![0.85, 0.15], vec![0.05, 0.95]])?;
    /// let red = n.artificial_noise()?;
    /// let composed = n.compose(red.artificial())?;
    /// assert!(composed.is_uniform_with_level(red.uniform_level(), 1e-9));
    /// # Ok::<(), np_linalg::LinalgError>(())
    /// ```
    pub fn artificial_noise(&self) -> Result<ArtificialNoise> {
        let d = self.dim();
        let delta = self
            .upper_bound_level()
            .ok_or_else(|| LinalgError::NoiseClassViolation {
                detail: format!(
                    "matrix is not δ-upper bounded for any δ ≤ 1/{d}; reduction does not apply"
                ),
            })?;
        if delta >= 1.0 / d as f64 - 1e-12 && delta > 0.0 {
            // At δ = 1/d the channel can be non-invertible (fully mixing).
            if self.inverse().is_err() {
                return Err(LinalgError::NoiseClassViolation {
                    detail: format!("δ = {delta} reaches 1/d; channel carries no information"),
                });
            }
        }
        let delta_prime = f_delta(d, delta)?;
        let t = NoiseMatrix::uniform(d, delta_prime)?;
        let n_inv = self.inverse()?;
        let p_raw = n_inv.mul_checked(t.as_matrix())?;
        // Proposition 16 guarantees stochasticity; sanitize float fuzz so
        // alias samplers downstream get exact probabilities.
        let p = sanitize_stochastic(&p_raw, 1e-7)?;
        debug_assert!(is_stochastic(&p, DEFAULT_TOL));
        Ok(ArtificialNoise {
            p: NoiseMatrix { m: p },
            source_level: delta,
            uniform_level: delta_prime,
        })
    }
}

/// The result of the Theorem 8 reduction: an artificial-noise matrix plus
/// the levels involved.
///
/// Returned by [`NoiseMatrix::artificial_noise`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArtificialNoise {
    p: NoiseMatrix,
    source_level: f64,
    uniform_level: f64,
}

impl ArtificialNoise {
    /// The stochastic matrix `P` agents apply to every received message
    /// (Definition 6).
    pub fn artificial(&self) -> &NoiseMatrix {
        &self.p
    }

    /// Consumes the reduction, returning `P`.
    pub fn into_artificial(self) -> NoiseMatrix {
        self.p
    }

    /// The upper-bound level `δ` of the original channel.
    pub fn source_level(&self) -> f64 {
        self.source_level
    }

    /// The uniform level `δ' = f(δ)` of the composed channel.
    pub fn uniform_level(&self) -> f64 {
        self.uniform_level
    }
}

/// The noise-level map `f` of Definition 7:
///
/// `f(0) = 0`, and for `δ ∈ (0, 1/d)`:
///
/// `f(δ) = ( d + ½·(1/(d−1))²·(1−dδ)/δ )⁻¹`.
///
/// `f` is continuous and increasing on `[0, 1/d)` with `f(δ) < 1/d`
/// (Claim 15), and `f(δ) ≥ δ` on the domain — artificial uniformization
/// never *reduces* noise. The level is chosen exactly large enough that
/// `δ'/(1−dδ') = 2(d−1)²·δ/(1−dδ)` dominates the most negative possible
/// entry of `N⁻¹` (Claim 17), which is what makes `P = N⁻¹·T` stochastic
/// in Proposition 16.
///
/// # Errors
///
/// Returns [`LinalgError::ParameterOutOfRange`] unless `d ≥ 2` and
/// `0 ≤ δ < 1/d`.
///
/// # Example
///
/// ```
/// let f = np_linalg::noise::f_delta(2, 0.25)?;
/// assert!(f > 0.25 && f < 0.5);
/// assert_eq!(np_linalg::noise::f_delta(2, 0.0)?, 0.0);
/// # Ok::<(), np_linalg::LinalgError>(())
/// ```
pub fn f_delta(d: usize, delta: f64) -> Result<f64> {
    if d < 2 {
        return Err(LinalgError::ParameterOutOfRange {
            name: "d",
            value: d as f64,
            range: "alphabet size must be at least 2".into(),
        });
    }
    let dd = d as f64;
    if !(0.0..1.0 / dd).contains(&delta) {
        return Err(LinalgError::ParameterOutOfRange {
            name: "delta",
            value: delta,
            range: format!("[0, 1/{d})"),
        });
    }
    // Exact zero has a closed-form answer.
    if delta == 0.0 {
        return Ok(0.0);
    }
    let g = dd + 0.5 / ((dd - 1.0) * (dd - 1.0)) * (1.0 - dd * delta) / delta;
    Ok(1.0 / g)
}

/// Corollary 14's bound on the inverse: `(d−1)/(1−dδ)`.
///
/// Useful for verifying the numerical inverse: for any δ-upper-bounded `N`,
/// `‖N⁻¹‖∞` must not exceed this value.
///
/// # Errors
///
/// Returns [`LinalgError::ParameterOutOfRange`] unless `d ≥ 2` and
/// `0 ≤ δ < 1/d`.
pub fn inverse_norm_bound(d: usize, delta: f64) -> Result<f64> {
    if d < 2 {
        return Err(LinalgError::ParameterOutOfRange {
            name: "d",
            value: d as f64,
            range: "alphabet size must be at least 2".into(),
        });
    }
    let dd = d as f64;
    if !(0.0..1.0 / dd).contains(&delta) {
        return Err(LinalgError::ParameterOutOfRange {
            name: "delta",
            value: delta,
            range: format!("[0, 1/{d})"),
        });
    }
    Ok((dd - 1.0) / (1.0 - dd * delta))
}

/// Checks Corollary 14 numerically for a concrete matrix: returns
/// `(‖N⁻¹‖∞, bound)`.
///
/// # Errors
///
/// Propagates errors from [`NoiseMatrix::inverse`],
/// [`NoiseMatrix::upper_bound_level`] failure
/// ([`LinalgError::NoiseClassViolation`]) and [`inverse_norm_bound`].
pub fn verify_inverse_norm_bound(n: &NoiseMatrix) -> Result<(f64, f64)> {
    let delta = n
        .upper_bound_level()
        .ok_or_else(|| LinalgError::NoiseClassViolation {
            detail: "matrix is not δ-upper bounded".into(),
        })?;
    let inv = n.inverse()?;
    let norm = operator_inf_norm(&inv);
    let bound = inverse_norm_bound(n.dim(), delta)?;
    Ok((norm, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_constructor_matches_definition() {
        let n = NoiseMatrix::uniform(4, 0.1).unwrap();
        assert!(n.is_uniform_with_level(0.1, 1e-12));
        assert_eq!(n.uniform_level(), Some(0.1));
        assert_eq!(
            n.upper_bound_level().map(|d| (d * 1e12).round() / 1e12),
            Some(0.1)
        );
        assert!(n.is_upper_bounded(0.1));
        assert!(n.is_lower_bounded(0.1));
        assert_eq!(n.lower_bound_level(), 0.1);
    }

    #[test]
    fn uniform_rejects_bad_parameters() {
        assert!(NoiseMatrix::uniform(1, 0.1).is_err());
        assert!(NoiseMatrix::uniform(2, -0.1).is_err());
        assert!(NoiseMatrix::uniform(2, 0.51).is_err());
        // δ = 1/d exactly is allowed by Definition 1 (fully mixing channel).
        assert!(NoiseMatrix::uniform(2, 0.5).is_ok());
    }

    #[test]
    fn noiseless_is_identity() {
        let n = NoiseMatrix::noiseless(3);
        assert_eq!(n.uniform_level(), Some(0.0));
        assert_eq!(n.upper_bound_level(), Some(0.0));
        assert_eq!(n.observation_distribution(1), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn new_rejects_non_square_and_non_stochastic() {
        assert!(NoiseMatrix::new(Matrix::zeros(2, 3)).is_err());
        assert!(NoiseMatrix::from_rows(vec![vec![0.9, 0.2], vec![0.5, 0.5]]).is_err());
        assert!(NoiseMatrix::from_rows(vec![vec![1.1, -0.1], vec![0.5, 0.5]]).is_err());
    }

    #[test]
    fn upper_bound_level_of_asymmetric_channel() {
        let n = NoiseMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        // Diagonal constraint: (1 − 0.8)/(2−1) = 0.2; off-diagonal max 0.2.
        assert!((n.upper_bound_level().unwrap() - 0.2).abs() < 1e-12);
        assert!(n.is_upper_bounded(0.2));
        assert!(!n.is_upper_bounded(0.15));
        assert!(n.uniform_level().is_none());
    }

    #[test]
    fn upper_bound_level_none_when_too_noisy() {
        // Off-diagonal 0.6 > 1/2: no δ ≤ 1/d works.
        let n = NoiseMatrix::from_rows(vec![vec![0.4, 0.6], vec![0.6, 0.4]]).unwrap();
        assert_eq!(n.upper_bound_level(), None);
        assert!(n.artificial_noise().is_err());
    }

    #[test]
    fn f_delta_boundary_and_monotonicity() {
        assert_eq!(f_delta(2, 0.0).unwrap(), 0.0);
        assert!(f_delta(2, 0.5).is_err());
        assert!(f_delta(2, -0.01).is_err());
        assert!(f_delta(1, 0.1).is_err());
        // Monotone increasing, f(δ) ∈ [δ, 1/d).
        for d in [2usize, 3, 4, 8] {
            let mut prev = 0.0;
            let hi = 1.0 / d as f64;
            for k in 1..50 {
                let delta = hi * k as f64 / 50.0;
                let f = f_delta(d, delta).unwrap();
                assert!(f > prev, "f not increasing at d={d}, δ={delta}");
                assert!(f < hi, "f(δ) ≥ 1/d at d={d}, δ={delta}");
                assert!(f >= delta - 1e-12, "f(δ) < δ at d={d}, δ={delta}");
                prev = f;
            }
        }
    }

    #[test]
    fn f_delta_golden_values() {
        // Closed forms by hand: d = 2 gives f(δ) = 2δ/(1+2δ).
        assert!((f_delta(2, 0.25).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((f_delta(2, 0.1).unwrap() - 0.2 / 1.2).abs() < 1e-12);
        // d = 4: f(δ) = (4 + (1−4δ)/(18δ))⁻¹; at δ = 0.125 the tail is
        // 0.5/2.25 = 2/9, so f = 1/(4 + 2/9) = 9/38.
        assert!((f_delta(4, 0.125).unwrap() - 9.0 / 38.0).abs() < 1e-12);
    }

    #[test]
    fn f_delta_approaches_one_over_d() {
        // As δ → 1/d, f(δ) → 1/d (Claim 15 / Figure 1).
        let f = f_delta(2, 0.4999).unwrap();
        assert!((f - 0.5).abs() < 1e-3);
        let f4 = f_delta(4, 0.2499).unwrap();
        assert!((f4 - 0.25).abs() < 1e-3);
    }

    #[test]
    fn corollary_14_bound_holds_for_uniform_matrices() {
        for d in [2usize, 3, 4, 8] {
            for k in 0..10 {
                let delta = (1.0 / d as f64) * k as f64 / 10.0 * 0.99;
                let n = NoiseMatrix::uniform(d, delta).unwrap();
                let (norm, bound) = verify_inverse_norm_bound(&n).unwrap();
                assert!(
                    norm <= bound + 1e-9,
                    "‖N⁻¹‖={norm} > bound={bound} at d={d}, δ={delta}"
                );
            }
        }
    }

    #[test]
    fn artificial_noise_uniformizes_binary_channel() {
        let n = NoiseMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.25, 0.75]]).unwrap();
        let red = n.artificial_noise().unwrap();
        let delta = n.upper_bound_level().unwrap();
        assert!((red.source_level() - delta).abs() < 1e-12);
        assert!((red.uniform_level() - f_delta(2, delta).unwrap()).abs() < 1e-12);
        let composed = n.compose(red.artificial()).unwrap();
        assert!(composed.is_uniform_with_level(red.uniform_level(), 1e-9));
    }

    #[test]
    fn artificial_noise_on_4_letter_alphabet() {
        // The SSF alphabet Σ = {0,1}² with a lopsided but δ-upper-bounded
        // channel.
        let n = NoiseMatrix::from_rows(vec![
            vec![0.82, 0.06, 0.06, 0.06],
            vec![0.02, 0.90, 0.05, 0.03],
            vec![0.04, 0.04, 0.88, 0.04],
            vec![0.06, 0.02, 0.02, 0.90],
        ])
        .unwrap();
        let red = n.artificial_noise().unwrap();
        let composed = n.compose(red.artificial()).unwrap();
        assert!(composed.is_uniform_with_level(red.uniform_level(), 1e-9));
        assert!(red.uniform_level() < 0.25);
    }

    #[test]
    fn artificial_noise_of_uniform_channel_keeps_level_reasonable() {
        // Even a channel that is already uniform gets re-uniformized at
        // level f(δ) ≥ δ; the map is not the identity on uniform inputs.
        let n = NoiseMatrix::uniform(2, 0.2).unwrap();
        let red = n.artificial_noise().unwrap();
        assert!(red.uniform_level() >= 0.2);
        let composed = n.compose(red.artificial()).unwrap();
        assert!(composed.is_uniform_with_level(red.uniform_level(), 1e-9));
    }

    #[test]
    fn artificial_noise_of_noiseless_channel_is_identity() {
        let n = NoiseMatrix::noiseless(3);
        let red = n.artificial_noise().unwrap();
        assert_eq!(red.uniform_level(), 0.0);
        assert!(red
            .artificial()
            .as_matrix()
            .approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn compose_requires_matching_dims() {
        let a = NoiseMatrix::uniform(2, 0.1).unwrap();
        let b = NoiseMatrix::uniform(3, 0.1).unwrap();
        assert!(a.compose(&b).is_err());
    }

    #[test]
    fn inverse_norm_bound_rejects_bad_params() {
        assert!(inverse_norm_bound(1, 0.1).is_err());
        assert!(inverse_norm_bound(2, 0.5).is_err());
        assert!(inverse_norm_bound(2, -0.1).is_err());
        assert!((inverse_norm_bound(2, 0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn into_matrix_roundtrip() {
        let n = NoiseMatrix::uniform(2, 0.3).unwrap();
        let m = n.clone().into_matrix();
        assert_eq!(NoiseMatrix::new(m).unwrap(), n);
    }
}
