//! Exact quantiles and rates over raw samples.
//!
//! Every percentile the benchmark reports comes from the raw per-event
//! samples it collected, never from a log-bucketed histogram, and is
//! reported together with the number of samples behind it.

/// Raw samples of one timing, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value_ms: f64) {
        self.values.push(value_ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        per(self.sum(), self.values.len() as f64)
    }

    /// The exact `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// between closest ranks, 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }
}

/// The `q`-quantile of ascending `sorted` values: the point at rank
/// `q·(n−1)`, interpolated linearly between its two neighbours (the
/// "inclusive" definition of Python's `statistics.quantiles`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on this workload).
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    100.0 * per(part, whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(*v);
        }
        s
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 2.5);
        // rank 0.99·3 = 2.97 → 3 + 0.97·(4 − 3)
        assert!((s.quantile(0.99) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_odd_count_is_the_middle_sample() {
        let s = samples(&[9.0, 1.0, 5.0]);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_and_single_samples() {
        assert_eq!(Samples::default().quantile(0.5), 0.0);
        assert_eq!(Samples::default().mean(), 0.0);
        assert_eq!(samples(&[7.5]).quantile(0.99), 7.5);
    }

    #[test]
    fn rates_guard_zero_denominators() {
        assert_eq!(per(10.0, 4.0), 2.5);
        assert_eq!(per(10.0, 0.0), 0.0);
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(samples(&[1.0, 2.0, 6.0]).mean(), 3.0);
    }
}
