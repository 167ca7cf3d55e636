//! Order statistics over latency samples.

/// A named set of samples in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between
    /// closest ranks; `NaN` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The `i`-th sample in recording order; `NaN` when absent.
    #[must_use]
    pub fn get(&self, i: usize) -> f64 {
        self.0.get(i).copied().unwrap_or(f64::NAN)
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::default().median().is_nan());
    }
}
