//! Order statistics, ratios and span arithmetic behind every number the
//! benchmark reports.

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples)?;
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// A nearest-rank percentile together with the samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The smallest sample with at least `p`% of all samples at or
    /// below it.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub count: usize,
    /// How many samples lie strictly above the percentile's rank — the
    /// evidence behind a tail percentile.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`. `None`
/// for no samples or `p` out of range.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let sorted = sorted(samples)?;
    let count = sorted.len();
    // Rank in 1..=count: the smallest r with r/count ≥ p/100.
    let rank = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        count,
        beyond: count - rank,
    })
}

fn sorted(samples: &[f64]) -> Option<Vec<f64>> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// A ratio that keeps its base, so every reported share can say what it
/// is a share of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator — the base.
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Self {
        Ratio { part, base }
    }

    /// The quotient; `None` on a zero (or non-finite) base.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0 && self.base.is_finite()).then(|| self.part / self.base)
    }

    /// `1 − part / base`: the share of the base that is *not* `part`.
    pub fn complement(&self) -> Option<f64> {
        self.value().map(|v| 1.0 - v)
    }

    /// `(part − base) / base`: the relative excess of `part` over the
    /// base (tracing overhead: traced time against untraced time).
    pub fn excess(&self) -> Option<f64> {
        self.value().map(|v| v - 1.0)
    }
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a span: its duration minus the part of its interval that
/// its child spans cover. Children may overlap each other (parallel
/// workers) and may stick out of the parent (clock skew); only the union
/// of their parts inside the parent is subtracted.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), Some(5.0));
    }

    #[test]
    fn p90_is_nearest_rank_with_its_sample_count() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p = percentile(&ten, 90.0).unwrap();
        assert_eq!(p.value, 9.0);
        assert_eq!(p.count, 10);
        assert_eq!(p.beyond, 1);

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentile(&hundred, 90.0).unwrap();
        assert_eq!((p.value, p.count, p.beyond), (90.0, 100, 10));

        let one = percentile(&[4.0], 90.0).unwrap();
        assert_eq!((one.value, one.count, one.beyond), (4.0, 1, 0));
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0, 2.0], 100.0).unwrap().value, 2.0);
    }

    #[test]
    fn p50_agrees_with_median_on_odd_counts() {
        let xs = [8.0, 2.0, 6.0, 4.0, 10.0];
        assert_eq!(percentile(&xs, 50.0).unwrap().value, median(&xs).unwrap());
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), Some(0.75));
        assert_eq!(r.complement(), Some(0.25));
        assert_eq!(r.base, 4.0);
        assert_eq!(Ratio::new(1.5, 1.0).excess(), Some(0.5));
        assert_eq!(Ratio::new(1.0, 0.0).value(), None);
        assert_eq!(Ratio::new(1.0, 0.0).complement(), None);
        assert_eq!(Ratio::new(1.0, f64::INFINITY).value(), None);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
        assert_eq!(self_time((50, 10), &[]), 0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel workers covering [10, 60) and [30, 90): union 80.
        assert_eq!(self_time((0, 100), &[(30, 90), (10, 60)]), 20);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((100, 200), &[(50, 150), (190, 300)]), 40);
        assert_eq!(self_time((100, 200), &[(0, 100), (200, 250)]), 100);
        assert_eq!(self_time((100, 200), &[(0, 500)]), 0);
    }
}
