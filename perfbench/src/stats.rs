//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports is read off the sorted samples it
//! kept (nearest rank), never off a bucketed histogram, and travels with
//! the sample count it was taken from.

/// Raw observations of one quantity, in the unit the caller chose.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
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

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the samples at or below it. `NaN` when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly above the `q` quantile — the tail a
    /// percentile rests on.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let s: Samples = (1..=100).map(f64::from).collect();
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.beyond(0.99), 1);
    }

    #[test]
    fn failures_sort_past_every_limit() {
        let mut s: Samples = (0..99).map(|_| 1.0).collect();
        s.push(f64::INFINITY);
        assert_eq!(s.quantile(0.99), 1.0);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert!(Samples::default().median().is_nan());
    }
}
