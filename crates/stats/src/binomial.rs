//! Exact binomial sampling and pmf/cdf evaluation.
//!
//! The engine's aggregated channel (see `np-engine`) replaces per-message
//! noise draws with binomial counts, so the binomial sampler must be *exact*
//! (not a normal approximation): statistical tests in this workspace compare
//! the aggregated channel against the literal per-message channel and would
//! detect distributional drift.
//!
//! The sampler composes three standard exact methods:
//!
//! * direct Bernoulli counting for tiny `n`;
//! * BINV (inversion from zero) when `n·min(p, 1−p)` is small;
//! * inversion from the mode (two-sided pmf walk) otherwise, which runs in
//!   `O(σ)` expected steps — microseconds even at `n = 2³⁰`.

use rand::Rng;

use crate::{Result, StatsError};

/// Natural log of `n!`, exact-table for `n < 1024`, Stirling series beyond.
///
/// The Stirling tail keeps absolute error below `1e-12` for `n ≥ 1024`,
/// which is far below the noise floor of the samplers that consume it.
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_SIZE: usize = 1024;
    // Lazily built exact table (sum of logs).
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = vec![0.0f64; TABLE_SIZE];
        for i in 2..TABLE_SIZE {
            t[i] = t[i - 1] + (i as f64).ln();
        }
        t
    });
    if (n as usize) < TABLE_SIZE {
        return table[n as usize];
    }
    // Stirling series: ln n! = n ln n − n + ½ln(2πn) + 1/(12n) − 1/(360n³) + 1/(1260n⁵)
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
        + 1.0 / (1260.0 * x * x * x * x * x)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` if `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// The binomial pmf `P(Binomial(n, p) = k)`.
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
pub fn pmf(n: u64, p: f64, k: u64) -> Result<f64> {
    check_probability(p)?;
    if k > n {
        return Ok(0.0);
    }
    // Degenerate distributions: exactly 0 and 1 have closed forms;
    // near-0/1 must take the general path.
    if p == 0.0 {
        return Ok(if k == 0 { 1.0 } else { 0.0 });
    }
    #[expect(clippy::float_cmp, reason = "degenerate-distribution sentinel")]
    if p == 1.0 {
        return Ok(if k == n { 1.0 } else { 0.0 });
    }
    let ln_p = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    Ok(ln_p.exp())
}

/// The binomial cdf `P(Binomial(n, p) ≤ k)` by direct summation.
///
/// Intended for moderate `n` (tests and bound evaluation); cost is `O(k)`.
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
pub fn cdf(n: u64, p: f64, k: u64) -> Result<f64> {
    check_probability(p)?;
    if k >= n {
        return Ok(1.0);
    }
    let mut acc = 0.0;
    for i in 0..=k {
        acc += pmf(n, p, i)?;
    }
    Ok(acc.min(1.0))
}

fn check_probability(p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(StatsError::BadProbability { value: p });
    }
    Ok(())
}

/// Draws one sample from `Binomial(n, p)`.
///
/// Exact for all `(n, p)`; see the module docs for the method selection.
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
///
/// # Example
///
/// ```
/// use np_stats::binomial::sample;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let x = sample(&mut rng, 1_000_000, 0.25)?;
/// // Mean 250k, σ ≈ 433: a draw 20σ out would indicate a broken sampler.
/// assert!((x as f64 - 250_000.0).abs() < 20.0 * 433.0);
/// # Ok::<(), np_stats::StatsError>(())
/// ```
pub fn sample<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> Result<u64> {
    check_probability(p)?;
    Ok(sample_unchecked(rng, n, p))
}

/// Like [`sample`] but assumes `p ∈ [0, 1]` (hot-path variant used by the
/// channel implementations, which validate noise levels at construction).
///
/// # Panics
///
/// Debug-asserts `p ∈ [0, 1]`; in release builds an out-of-range `p` is
/// clamped by the underlying arithmetic, producing meaningless output.
pub fn sample_unchecked<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if n == 0 || p == 0.0 {
        return 0;
    }
    #[expect(clippy::float_cmp, reason = "degenerate-distribution sentinel")]
    if p == 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_unchecked(rng, n, 1.0 - p);
    }
    // From here p ≤ 0.5.
    if n <= 16 {
        let mut count = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                count += 1;
            }
        }
        return count;
    }
    if n as f64 * p <= 12.0 {
        sample_binv(rng, n, p)
    } else {
        sample_from_mode(rng, n, p)
    }
}

/// Precomputed inverse-cdf table for repeated draws from one fixed
/// `Binomial(n, p)` law.
///
/// The engine's aggregated channel draws the *same* binomial once per
/// agent per round (the level-0 count of the collapsed observation
/// multinomial — see `np-engine`'s channel docs). [`sample_unchecked`]
/// walks the pmf outward from the mode on every draw (`O(σ)` expected
/// steps); this table performs the identical inversion — same visit
/// order, same tie rule — but pays the walk once at construction and
/// answers each draw with one uniform plus a guide-table lookup (`O(1)`
/// expected).
///
/// Construction visits pmf entries mode-outward in decreasing-pmf order
/// (exactly [`sample_unchecked`]'s order, so in the mode-inversion regime
/// the two are bit-identical on the same generator state) and truncates
/// once the accumulated mass exceeds `1 − 1e-12`; a uniform beyond the
/// table (probability `< 1e-12`) deterministically maps to the last —
/// least likely — tabulated value.
///
/// The lookup is the cutpoint (indexed-search) method of Chen & Asau
/// (1974; Devroye, *Non-Uniform Random Variate Generation*, §III.2.4):
/// `[0, 1)` is cut into `G` equal slices, `G` the power of two at or
/// above the table length, and `guide[j]` records the first index whose
/// cumulative mass reaches `j/G`. A draw `u` starts at its slice's entry
/// and scans forward, on average less than one step. Because `G` is a
/// power of two, `u·G` and `j/G` are exact in `f64`, so the index found
/// is exactly `cum.partition_point(|c| c < u)` — the binary search it
/// replaces — for every `u`.
#[derive(Debug, Clone)]
pub struct CdfTable {
    /// Support values in visit order (mode-outward, decreasing pmf).
    ks: Vec<u64>,
    /// Cumulative mass over `ks[..=i]`; non-decreasing.
    cum: Vec<f64>,
    /// `guide[j]` = first `i` with `cum[i] ≥ j/G`, for `j ∈ 0..=G` with
    /// `G = guide.len() − 1` a power of two (`len()` when no such `i`).
    guide: Vec<u32>,
}

impl CdfTable {
    /// Builds the table for `Binomial(n, p)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        check_probability(p)?;
        Ok(CdfTable::new_unchecked(n, p))
    }

    /// Like [`CdfTable::new`] but assumes `p ∈ [0, 1]` (hot-path variant;
    /// the channel validates noise levels at construction).
    pub fn new_unchecked(n: u64, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        if n == 0 || p == 0.0 {
            return CdfTable::from_cumulative(vec![0], vec![1.0]);
        }
        #[expect(clippy::float_cmp, reason = "degenerate-distribution sentinel")]
        if p == 1.0 {
            return CdfTable::from_cumulative(vec![n], vec![1.0]);
        }
        let mode = ((((n + 1) as f64) * p).floor() as u64).min(n);
        #[expect(
            clippy::expect_used,
            reason = "p validated by every caller of this path"
        )]
        let pmf_mode = pmf(n, p, mode).expect("p validated");
        let q = 1.0 - p;
        let ratio = p / q;
        // Room for ±8σ without regrowth; a wider walk grows as usual.
        let reserve =
            ((16.0 * (n as f64 * p * q).sqrt()) as usize + 16).min((n as usize).saturating_add(1));
        let mut ks = Vec::with_capacity(reserve);
        let mut cum = Vec::with_capacity(reserve);
        ks.push(mode);
        cum.push(pmf_mode);
        let mut total = pmf_mode;
        // Same outward walk as `sample_from_mode`, with the same
        // multiplicative pmf recurrences and the same side-selection rule.
        // Only the side just taken moves, so only its candidate is
        // recomputed; the other keeps its value (same expression, same
        // inputs, so the same bits). `-1.0` marks an exhausted side.
        let mut lo = mode;
        let mut hi = mode;
        let next_left_of = |lo: u64, pmf_lo: f64| {
            if lo > 0 {
                pmf_lo * (lo as f64) / ((n - lo + 1) as f64) / ratio
            } else {
                -1.0
            }
        };
        let next_right_of = |hi: u64, pmf_hi: f64| {
            if hi < n {
                pmf_hi * ((n - hi) as f64) / ((hi + 1) as f64) * ratio
            } else {
                -1.0
            }
        };
        let mut next_left = next_left_of(lo, pmf_mode);
        let mut next_right = next_right_of(hi, pmf_mode);
        while total < 1.0 - 1e-12 {
            if lo == 0 && hi == n {
                break;
            }
            let step = if next_right >= next_left {
                hi += 1;
                ks.push(hi);
                let step = next_right;
                next_right = next_right_of(hi, step);
                step
            } else {
                lo -= 1;
                ks.push(lo);
                let step = next_left;
                next_left = next_left_of(lo, step);
                step
            };
            total += step;
            cum.push(total);
            if step <= 0.0 {
                // Float underflow: no further mass is representable.
                break;
            }
        }
        CdfTable::from_cumulative(ks, cum)
    }

    /// Attaches the guide table to a finished `(ks, cum)` pair.
    fn from_cumulative(ks: Vec<u64>, cum: Vec<f64>) -> Self {
        let slices = cum.len().next_power_of_two();
        let mut guide = Vec::with_capacity(slices + 1);
        let mut i = 0usize;
        for j in 0..=slices {
            // Exact: `slices` is a power of two.
            let edge = j as f64 / slices as f64;
            while i < cum.len() && cum[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        CdfTable { ks, cum, guide }
    }

    /// Draws one value, consuming exactly one `f64` from `rng` — the same
    /// single uniform [`sample_unchecked`]'s mode-inversion regime uses.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.sample_u01(rng.gen::<f64>())
    }

    /// Inverts a uniform `u ∈ [0, 1)` through the table: the first
    /// tabulated value whose cumulative mass reaches `u`, or the last one
    /// when `u` lies beyond the truncated mass.
    pub fn sample_u01(&self, u: f64) -> u64 {
        let slices = self.guide.len() - 1;
        // `u < 1` keeps `slice < slices`; the answer lies in
        // `guide[slice]..=guide[slice + 1]` because `slice/G ≤ u < (slice+1)/G`.
        let slice = ((u * slices as f64) as usize).min(slices - 1);
        let start = self.guide[slice] as usize;
        let end = self.guide[slice + 1] as usize;
        let i = start + self.cum[start..end].iter().take_while(|&&c| c < u).count();
        self.ks[i.min(self.ks.len() - 1)]
    }

    /// Number of tabulated support values.
    pub fn len(&self) -> usize {
        self.ks.len()
    }

    /// Always `false`: the table covers at least the mode.
    pub fn is_empty(&self) -> bool {
        self.ks.is_empty()
    }
}

/// Windowed pmf/cdf table over the *effective support* of one fixed
/// `Binomial(n, p)` law.
///
/// The mean-field counts backend (see `np-engine`) turns protocol
/// transitions into boundary probabilities — binomial tails and
/// two-binomial comparisons with up to `10⁹` trials. `O(k)` summation is
/// infeasible there, so this table walks the pmf outward from the mode
/// with the same multiplicative recurrence (and the same side-selection
/// rule) as [`CdfTable`] and stops once the accumulated mass exceeds
/// `1 − 1e-12`. The visited values form a contiguous window `[lo, hi]` of
/// `O(σ)` entries; queries outside it saturate to mass 0 (below) or
/// cumulative 1 (above), so every answer is exact up to the `1e-12`
/// truncation budget plus f64 round-off.
#[derive(Debug, Clone)]
pub struct TailTable {
    lo: u64,
    /// `pmf[i] = P(X = lo + i)` over the window.
    pmf: Vec<f64>,
    /// `cdf[i] = P(lo ≤ X ≤ lo + i)`; the mass below `lo` is within the
    /// truncation budget, so this doubles as `P(X ≤ lo + i)`.
    cdf: Vec<f64>,
}

impl TailTable {
    /// Builds the table for `Binomial(n, p)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        check_probability(p)?;
        Ok(TailTable::new_unchecked(n, p))
    }

    /// Like [`TailTable::new`] but assumes `p ∈ [0, 1]` (hot-path variant;
    /// the mean-field backend feeds it normalized observation laws).
    pub fn new_unchecked(n: u64, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        let single = |k: u64| TailTable {
            lo: k,
            pmf: vec![1.0],
            cdf: vec![1.0],
        };
        if n == 0 || p == 0.0 {
            return single(0);
        }
        #[expect(clippy::float_cmp, reason = "degenerate-distribution sentinel")]
        if p == 1.0 {
            return single(n);
        }
        let mode = ((((n + 1) as f64) * p).floor() as u64).min(n);
        #[expect(
            clippy::expect_used,
            reason = "p validated by every caller of this path"
        )]
        let pmf_mode = pmf(n, p, mode).expect("p validated");
        let q = 1.0 - p;
        let ratio = p / q;
        // Same outward walk as `CdfTable::new_unchecked`; here we keep the
        // two sides separate so the window assembles contiguously.
        let mut left: Vec<f64> = Vec::new(); // pmf at mode−1, mode−2, …
        let mut right: Vec<f64> = Vec::new(); // pmf at mode+1, mode+2, …
        let mut total = pmf_mode;
        let mut lo = mode;
        let mut hi = mode;
        let mut pmf_lo = pmf_mode;
        let mut pmf_hi = pmf_mode;
        while total < 1.0 - 1e-12 {
            let can_left = lo > 0;
            let can_right = hi < n;
            if !can_left && !can_right {
                break;
            }
            let next_left = if can_left {
                pmf_lo * (lo as f64) / ((n - lo + 1) as f64) / ratio
            } else {
                -1.0
            };
            let next_right = if can_right {
                pmf_hi * ((n - hi) as f64) / ((hi + 1) as f64) * ratio
            } else {
                -1.0
            };
            let step = if next_right >= next_left {
                hi += 1;
                pmf_hi = next_right;
                right.push(next_right);
                next_right
            } else {
                lo -= 1;
                pmf_lo = next_left;
                left.push(next_left);
                next_left
            };
            total += step;
            if step <= 0.0 {
                // Float underflow: no further mass is representable.
                break;
            }
        }
        let mut window = Vec::with_capacity(left.len() + 1 + right.len());
        window.extend(left.iter().rev());
        window.push(pmf_mode);
        window.extend(&right);
        let mut cdf = Vec::with_capacity(window.len());
        let mut acc = 0.0;
        for &m in &window {
            acc += m;
            cdf.push(acc.min(1.0));
        }
        TailTable {
            lo,
            pmf: window,
            cdf,
        }
    }

    /// First tabulated support value.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Last tabulated support value.
    pub fn hi(&self) -> u64 {
        self.lo + (self.pmf.len() as u64 - 1)
    }

    /// `P(X = k)`; zero outside the window.
    pub fn pmf_at(&self, k: u64) -> f64 {
        if k < self.lo || k > self.hi() {
            return 0.0;
        }
        self.pmf[(k - self.lo) as usize]
    }

    /// `P(X ≤ k)`, saturating to 0 below the window and to exactly 1 at
    /// and above its upper end (the truncated tail mass is folded into the
    /// last entry so that [`TailTable::sf_at`] is exactly 0 there).
    pub fn cdf_at(&self, k: u64) -> f64 {
        if k < self.lo {
            return 0.0;
        }
        if k >= self.hi() {
            return 1.0;
        }
        self.cdf[(k - self.lo) as usize]
    }

    /// The survival function `P(X > k)`.
    pub fn sf_at(&self, k: u64) -> f64 {
        1.0 - self.cdf_at(k)
    }
}

/// `P(2X > n) + ½·P(2X = n)` for `X ~ Binomial(n, p)` — the probability
/// that a majority vote over `n` noisy observations (ties broken by a
/// fair coin) lands on the outcome each observation indicates with
/// probability `p`. This is the exact per-agent law of one SF boosting
/// sub-phase and of one h-majority round, evaluated in `O(σ)`.
///
/// `n = 0` returns `½` (an empty vote is a pure coin toss).
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `p ∉ [0, 1]`.
pub fn majority_prob(n: u64, p: f64) -> Result<f64> {
    check_probability(p)?;
    Ok(majority_prob_unchecked(n, p))
}

/// Like [`majority_prob`] but assumes `p ∈ [0, 1]` (hot-path variant).
pub fn majority_prob_unchecked(n: u64, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let table = TailTable::new_unchecked(n, p);
    let half = n / 2;
    // 2X > n ⟺ X > ⌊n/2⌋ for every parity; the tie 2X = n exists only
    // for even n.
    let win = table.sf_at(half);
    let tie = if n.is_multiple_of(2) {
        0.5 * table.pmf_at(half)
    } else {
        0.0
    };
    (win + tie).clamp(0.0, 1.0)
}

/// `P(X > Y) + ½·P(X = Y)` for independent `X ~ Binomial(nx, px)` and
/// `Y ~ Binomial(ny, py)` — the exact law of SF's weak-opinion comparison
/// `1{Counter₁ > Counter₀}` with its fair-coin tie break. Evaluated in
/// `O(σx + σy)` by summing `Y`'s windowed pmf against `X`'s windowed
/// survival function.
///
/// # Errors
///
/// Returns [`StatsError::BadProbability`] if `px ∉ [0, 1]` or
/// `py ∉ [0, 1]`.
pub fn exceeds_prob(nx: u64, px: f64, ny: u64, py: f64) -> Result<f64> {
    check_probability(px)?;
    check_probability(py)?;
    Ok(exceeds_prob_unchecked(nx, px, ny, py))
}

/// Like [`exceeds_prob`] but assumes both probabilities lie in `[0, 1]`.
pub fn exceeds_prob_unchecked(nx: u64, px: f64, ny: u64, py: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&px));
    debug_assert!((0.0..=1.0).contains(&py));
    let tx = TailTable::new_unchecked(nx, px);
    let ty = TailTable::new_unchecked(ny, py);
    let mut acc = 0.0;
    for k in ty.lo()..=ty.hi() {
        let pk = ty.pmf_at(k);
        if pk > 0.0 {
            acc += pk * (tx.sf_at(k) + 0.5 * tx.pmf_at(k));
        }
    }
    acc.clamp(0.0, 1.0)
}

/// BINV: sequential inversion from k = 0 using the pmf recurrence.
/// Expected iterations ≈ n·p + 1; used only when that is small.
fn sample_binv<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let mut f = q.powf(n as f64); // pmf(0)
    let mut u = rng.gen::<f64>();
    let mut k = 0u64;
    loop {
        if u <= f || k >= n {
            return k;
        }
        u -= f;
        // pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/q
        f *= (n - k) as f64 / (k + 1) as f64 * s;
        k += 1;
        // Guard against float underflow stranding us past the support.
        if f <= 0.0 {
            return k.min(n);
        }
    }
}

/// Inversion from the mode: start at the modal value and expand outward,
/// alternating the side with the larger remaining mass direction. Exact up
/// to pmf round-off; expected iterations `O(σ)`.
fn sample_from_mode<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let mode = (((n + 1) as f64) * p).floor() as u64;
    let mode = mode.min(n);
    #[expect(
        clippy::expect_used,
        reason = "p was validated by every public caller of this path"
    )]
    let pmf_mode = pmf(n, p, mode).expect("p validated");
    let q = 1.0 - p;
    let ratio = p / q;
    let mut u = rng.gen::<f64>() - pmf_mode;
    if u <= 0.0 {
        return mode;
    }
    // Walk outward: maintain pmf at the current left/right frontier.
    let mut lo = mode; // next left candidate is lo−1
    let mut hi = mode; // next right candidate is hi+1
    let mut pmf_lo = pmf_mode;
    let mut pmf_hi = pmf_mode;
    loop {
        let can_left = lo > 0;
        let can_right = hi < n;
        if !can_left && !can_right {
            // Numerical leftovers: return the mode (mass deficit < 1e-12).
            return mode;
        }
        // Peek the next pmf on each available side.
        let next_left = if can_left {
            // pmf(k−1) = pmf(k) · k/(n−k+1) · q/p
            pmf_lo * (lo as f64) / ((n - lo + 1) as f64) / ratio
        } else {
            -1.0
        };
        let next_right = if can_right {
            // pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/q
            pmf_hi * ((n - hi) as f64) / ((hi + 1) as f64) * ratio
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // The table/Stirling boundary at 1024 must be seamless.
        let direct: f64 = (2..=1500u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(1500) - direct).abs() < 1e-8);
    }

    #[test]
    fn ln_factorial_table_stirling_seam_exact() {
        // n = 1023 is the last tabulated value, n = 1024 the first Stirling
        // one. Pin both against the exact log-sum and the identity
        // ln(1024!) − ln(1023!) = ln(1024) across the seam.
        let direct_1023: f64 = (2..=1023u64).map(|i| (i as f64).ln()).sum();
        let direct_1024 = direct_1023 + 1024f64.ln();
        assert!((ln_factorial(1023) - direct_1023).abs() < 1e-9);
        assert!((ln_factorial(1024) - direct_1024).abs() < 1e-9);
        assert!((ln_factorial(1024) - ln_factorial(1023) - 1024f64.ln()).abs() < 1e-9);
        // A pmf evaluated with one factor on each side of the seam must
        // still sum to 1 over a window around the mean.
        let (n, p) = (2048u64, 0.5);
        let mass: f64 = (874..=1174).map(|k| pmf(n, p, k).unwrap()).sum();
        assert!((mass - 1.0).abs() < 1e-8, "seam-straddling pmf mass {mass}");
    }

    #[test]
    fn sample_extreme_p_near_zero() {
        // n = 2³⁰ with np ≪ 1: BINV territory where a naive `q^n` would
        // underflow to 0 and an off-by-one would overdraw. The draw must be
        // tiny, never near n.
        let n = 1u64 << 30;
        let mut rng = StdRng::seed_from_u64(60);
        let mut total = 0u64;
        for _ in 0..2000 {
            let x = sample(&mut rng, n, 1e-12).unwrap();
            assert!(x <= 2, "p = 1e-12 drew {x}");
            total += x;
        }
        // E[total] = 2000·n·1e-12 ≈ 0.002: almost surely all-zero draws.
        assert!(total <= 3);
        // Subnormal p must not hang or panic.
        assert_eq!(sample(&mut rng, n, 1e-300).unwrap(), 0);
        assert_eq!(sample(&mut rng, n, 0.0).unwrap(), 0);
    }

    #[test]
    fn sample_extreme_p_near_one() {
        // Mirror case: the sampler reflects to 1 − p, so drift or an
        // off-by-one in the reflection shows up as draws far below n.
        let n = 1u64 << 30;
        let mut rng = StdRng::seed_from_u64(61);
        let mut total_gap = 0u64;
        for _ in 0..2000 {
            let x = sample(&mut rng, n, 1.0 - 1e-12).unwrap();
            assert!(x <= n);
            assert!(n - x <= 2, "p = 1 − 1e-12 drew n − {}", n - x);
            total_gap += n - x;
        }
        assert!(total_gap <= 3);
        assert_eq!(sample(&mut rng, n, 1.0).unwrap(), n);
    }

    #[test]
    fn sample_large_n_moderate_p_moments() {
        // n = 2³⁰ at moderate p exercises the from-mode walk with a huge
        // support; check mean and spread rather than exact values.
        let n = 1u64 << 30;
        let p = 0.3;
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let mut rng = StdRng::seed_from_u64(62);
        let mut acc = 0.0f64;
        let reps = 200;
        for _ in 0..reps {
            let x = sample(&mut rng, n, p).unwrap() as f64;
            assert!((x - mean).abs() < 8.0 * sd, "draw {x} implausibly far");
            acc += x;
        }
        let got = acc / reps as f64;
        assert!((got - mean).abs() < 8.0 * sd / (reps as f64).sqrt());
    }

    #[test]
    fn tail_table_matches_exact_pmf_and_cdf() {
        let (n, p) = (300u64, 0.37);
        let t = TailTable::new(n, p).unwrap();
        assert!(t.lo() <= 111 && t.hi() >= 111, "mode must be covered");
        for k in t.lo()..t.hi() {
            assert!((t.pmf_at(k) - pmf(n, p, k).unwrap()).abs() < 1e-12);
            assert!((t.cdf_at(k) - cdf(n, p, k).unwrap()).abs() < 1e-9);
            assert!((t.sf_at(k) - (1.0 - cdf(n, p, k).unwrap())).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_table_saturates_outside_window() {
        let t = TailTable::new(1u64 << 20, 0.5).unwrap();
        // The effective support of Binomial(2²⁰, ½) is a few thousand wide;
        // far tails must saturate without being tabulated.
        assert!(t.hi() - t.lo() < 40_000);
        assert_eq!(t.pmf_at(0), 0.0);
        assert_eq!(t.cdf_at(0), 0.0);
        assert_eq!(t.cdf_at(1u64 << 20), 1.0);
        assert_eq!(t.sf_at(1u64 << 20), 0.0);
    }

    #[test]
    fn tail_table_degenerate_cases() {
        for (n, p, at) in [(0u64, 0.3, 0u64), (10, 0.0, 0), (10, 1.0, 10)] {
            let t = TailTable::new(n, p).unwrap();
            assert_eq!((t.lo(), t.hi()), (at, at));
            assert_eq!(t.pmf_at(at), 1.0);
            assert_eq!(t.cdf_at(at), 1.0);
        }
        assert!(TailTable::new(5, 1.5).is_err());
    }

    #[test]
    fn majority_prob_small_cases_exact() {
        // n = 1: win iff the single observation is a 1 (no tie possible).
        assert!((majority_prob(1, 0.3).unwrap() - 0.3).abs() < 1e-12);
        // n = 2, p = ½: P(X=2) + ½P(X=1) = ¼ + ¼ = ½.
        assert!((majority_prob(2, 0.5).unwrap() - 0.5).abs() < 1e-12);
        // Empty vote: pure coin.
        assert!((majority_prob(0, 0.9).unwrap() - 0.5).abs() < 1e-12);
        // Symmetry: p = ½ is a coin for every n.
        for n in [3u64, 4, 51, 1000] {
            assert!((majority_prob(n, 0.5).unwrap() - 0.5).abs() < 1e-9);
        }
        assert!(majority_prob(5, -0.1).is_err());
    }

    #[test]
    fn majority_prob_matches_brute_force() {
        for &(n, p) in &[(51u64, 0.3), (50, 0.55), (64, 0.48)] {
            let mut want = 0.0;
            for k in 0..=n {
                let mass = pmf(n, p, k).unwrap();
                match (2 * k).cmp(&n) {
                    std::cmp::Ordering::Greater => want += mass,
                    std::cmp::Ordering::Equal => want += 0.5 * mass,
                    std::cmp::Ordering::Less => {}
                }
            }
            let got = majority_prob(n, p).unwrap();
            assert!((got - want).abs() < 1e-10, "n={n} p={p}: {got} vs {want}");
        }
    }

    #[test]
    fn exceeds_prob_symmetric_case_is_half() {
        // X and Y i.i.d. ⟹ P(X > Y) + ½P(X = Y) = ½ exactly.
        for &(n, p) in &[(40u64, 0.3), (512, 0.5), (1000, 0.05)] {
            let got = exceeds_prob(n, p, n, p).unwrap();
            assert!((got - 0.5).abs() < 1e-9, "n={n} p={p}: {got}");
        }
    }

    #[test]
    fn exceeds_prob_matches_brute_force() {
        let (nx, px, ny, py) = (30u64, 0.6, 25u64, 0.4);
        let mut want = 0.0;
        for x in 0..=nx {
            for y in 0..=ny {
                let m = pmf(nx, px, x).unwrap() * pmf(ny, py, y).unwrap();
                match x.cmp(&y) {
                    std::cmp::Ordering::Greater => want += m,
                    std::cmp::Ordering::Equal => want += 0.5 * m,
                    std::cmp::Ordering::Less => {}
                }
            }
        }
        let got = exceeds_prob(nx, px, ny, py).unwrap();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        assert!(exceeds_prob(5, 0.5, 5, 2.0).is_err());
    }

    #[test]
    fn exceeds_prob_degenerate_edges() {
        // X ≡ nx beats any Y with support below nx.
        assert!((exceeds_prob(10, 1.0, 5, 0.5).unwrap() - 1.0).abs() < 1e-12);
        // X ≡ 0 vs Y ≡ 0: pure tie.
        assert!((exceeds_prob(10, 0.0, 7, 0.0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_values() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (50, 0.5), (100, 0.02), (17, 0.9)] {
            let total: f64 = (0..=n).map(|k| pmf(n, p, k).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n}, p={p}: total={total}");
        }
    }

    #[test]
    fn pmf_edge_cases() {
        assert_eq!(pmf(10, 0.0, 0).unwrap(), 1.0);
        assert_eq!(pmf(10, 0.0, 1).unwrap(), 0.0);
        assert_eq!(pmf(10, 1.0, 10).unwrap(), 1.0);
        assert_eq!(pmf(10, 0.5, 11).unwrap(), 0.0);
        assert!(pmf(10, 1.5, 0).is_err());
        assert!(pmf(10, -0.5, 0).is_err());
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let n = 30;
        let p = 0.4;
        let mut prev = 0.0;
        for k in 0..=n {
            let c = cdf(n, p, k).unwrap();
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(cdf(n, p, n).unwrap(), 1.0);
    }

    #[test]
    fn sample_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample(&mut rng, 0, 0.5).unwrap(), 0);
        assert_eq!(sample(&mut rng, 100, 0.0).unwrap(), 0);
        assert_eq!(sample(&mut rng, 100, 1.0).unwrap(), 100);
        assert!(sample(&mut rng, 10, 2.0).is_err());
    }

    #[test]
    fn sample_within_support() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(n, p) in &[(5u64, 0.5), (100, 0.01), (100, 0.99), (10_000, 0.3)] {
            for _ in 0..200 {
                let x = sample(&mut rng, n, p).unwrap();
                assert!(x <= n);
            }
        }
    }

    /// Kolmogorov–Smirnov check of the empirical cdf against the exact
    /// cdf, for each sampling regime (shared machinery in [`crate::ks`]).
    fn check_distribution(n: u64, p: f64, draws: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..draws {
            counts[sample(&mut rng, n, p).unwrap() as usize] += 1;
        }
        assert!(
            crate::ks::ks_passes(&counts, |k| cdf(n, p, k as u64).unwrap(), 3.0).unwrap(),
            "KS test failed for n={n}, p={p}"
        );
    }

    #[test]
    fn distribution_matches_bernoulli_regime() {
        check_distribution(12, 0.37, 100_000, 11);
    }

    #[test]
    fn distribution_matches_binv_regime() {
        check_distribution(400, 0.01, 100_000, 12);
    }

    #[test]
    fn distribution_matches_mode_inversion_regime() {
        check_distribution(300, 0.45, 100_000, 13);
    }

    #[test]
    fn distribution_matches_reflected_regime() {
        // p > 0.5 goes through the reflection path.
        check_distribution(300, 0.8, 100_000, 14);
    }

    #[test]
    fn cdf_table_rejects_bad_probability() {
        assert!(CdfTable::new(10, 1.5).is_err());
        assert!(CdfTable::new(10, -0.1).is_err());
        assert!(CdfTable::new(10, f64::NAN).is_err());
    }

    #[test]
    fn cdf_table_degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(20);
        let zero = CdfTable::new(100, 0.0).unwrap();
        let one = CdfTable::new(100, 1.0).unwrap();
        let empty = CdfTable::new(0, 0.5).unwrap();
        for _ in 0..10 {
            assert_eq!(zero.sample(&mut rng), 0);
            assert_eq!(one.sample(&mut rng), 100);
            assert_eq!(empty.sample(&mut rng), 0);
        }
        assert_eq!(zero.len(), 1);
        assert!(!zero.is_empty());
    }

    #[test]
    fn cdf_table_matches_mode_inversion_bit_for_bit() {
        // In the mode-inversion regime (n > 16, np > 12, p ≤ 0.5) the
        // table performs the exact inversion `sample_from_mode` does —
        // same visit order, same tie rule, one uniform each — so the
        // draw sequences coincide exactly.
        for &(n, p, seed) in &[(300u64, 0.45, 21u64), (4096, 0.13, 22), (1000, 0.5, 23)] {
            let table = CdfTable::new(n, p).unwrap();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for i in 0..2000 {
                let walk = sample(&mut a, n, p).unwrap();
                let tabled = table.sample(&mut b);
                assert_eq!(walk, tabled, "draw {i} diverged for n={n}, p={p}");
            }
        }
    }

    #[test]
    fn cdf_table_distribution_matches_reflected_regime() {
        // For p > 0.5 the walk reflects but the table inverts directly, so
        // sequences differ; the laws must still agree. KS against the
        // exact cdf.
        let (n, p) = (300u64, 0.8);
        let table = CdfTable::new(n, p).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..100_000 {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        assert!(
            crate::ks::ks_passes(&counts, |k| cdf(n, p, k as u64).unwrap(), 3.0).unwrap(),
            "KS test failed for tabled n={n}, p={p}"
        );
    }

    #[test]
    fn cdf_table_distribution_matches_small_n_regime() {
        // n ≤ 16 draws go through Bernoulli counting in `sample`; the
        // table must agree in law there too.
        let (n, p) = (12u64, 0.37);
        let table = CdfTable::new(n, p).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..100_000 {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        assert!(
            crate::ks::ks_passes(&counts, |k| cdf(n, p, k as u64).unwrap(), 3.0).unwrap(),
            "KS test failed for tabled n={n}, p={p}"
        );
    }

    #[test]
    fn cdf_table_covers_tail_uniforms() {
        // A uniform beyond the truncated mass maps to the last (least
        // likely) tabulated value rather than panicking.
        let table = CdfTable::new(50, 0.3).unwrap();
        let k = table.sample_u01(1.0 - f64::EPSILON);
        assert!(k <= 50);
        assert_eq!(table.sample_u01(0.0), 15); // mode = floor(51 · 0.3)
    }

    #[test]
    fn cdf_table_guide_matches_binary_search_exactly() {
        // The guide lookup must return exactly the index the binary search
        // `cum.partition_point(|c| c < u)` finds, for every u in [0, 1).
        // The probes sit where the two could part: 0, the largest u below
        // 1, every cumulative value and every slice edge j/G, each with
        // its neighbouring floats. The laws build tables of hundreds to
        // tens of thousands of entries, plus the one-entry tables.
        let laws = [
            (65_536u64, 0.2),
            (65_536, 0.5),
            (1024, 0.1),
            (1 << 20, 0.2),
            (0, 0.5),
            (100, 0.0),
            (100, 1.0),
        ];
        for (n, p) in laws {
            let table = CdfTable::new(n, p).unwrap();
            let len = table.len();
            let slices = table.guide.len() - 1;
            assert_eq!(slices, len.next_power_of_two(), "n={n}, p={p}");
            let mut probes = vec![0.0, 1.0 - f64::EPSILON];
            let edges = (0..=slices).map(|j| j as f64 / slices as f64);
            for x in table.cum.iter().copied().chain(edges) {
                probes.extend([x.next_down(), x, x.next_up()]);
            }
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let want = table.ks[table.cum.partition_point(|&c| c < u).min(len - 1)];
                assert_eq!(table.sample_u01(u), want, "n={n}, p={p}, u={u:e}");
            }
        }
    }

    #[test]
    fn large_n_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(15);
        let (n, p) = (1u64 << 24, 0.3);
        let draws = 2000;
        let mean_exact = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let mut acc = 0.0;
        for _ in 0..draws {
            acc += sample(&mut rng, n, p).unwrap() as f64;
        }
        let mean = acc / draws as f64;
        // Standard error of the mean is sd/√draws; allow 6 SEs.
        assert!(
            (mean - mean_exact).abs() < 6.0 * sd / (draws as f64).sqrt(),
            "mean {mean} vs exact {mean_exact}"
        );
    }
}
