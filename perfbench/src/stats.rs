//! Summaries of timing samples: medians, quartiles, and the tail
//! percentile the report may quote for a given sample count.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads here match the ones the benchmark is judged by.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile on the ladder, no higher than `nominal`, with
/// at least [`MIN_BEYOND`] samples beyond it; the median when even that
/// has fewer (the report states the sample count either way).
pub fn tail_percentile(n: usize, nominal: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= nominal)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile; `None` for no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(v.len(), p) - 1])
}

/// A timing's report: median, quartiles, and tail, with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    /// Nearest-rank median, so a tail that falls back to p50 equals it.
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// The percentile [`tail_percentile`] chose and the value there.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// `None` for no samples.
    pub fn of(values: &[f64], nominal_tail: f64) -> Option<Summary> {
        let [q1, _, q3] = quartiles(values)?;
        let tail_p = tail_percentile(values.len(), nominal_tail);
        Some(Summary {
            n: values.len(),
            p50: percentile(values, 50.0)?,
            q1,
            q3,
            tail_p,
            tail: percentile(values, tail_p)?,
        })
    }

    /// One report line: `<name>` at p50 and at the tail, with quartiles
    /// and the number of samples beyond the tail.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}_p50_{unit} = {:.3} {unit}, {name}_p{}_{unit} = {:.3} {unit} (quartiles {:.3}..{:.3}; {} samples, {} beyond the tail)",
            self.p50,
            self.tail_p,
            self.tail,
            self.q1,
            self.q3,
            self.n,
            beyond(self.n, self.tail_p)
        )
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Reference values from Python's `statistics.quantiles(d, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                [2.75, 5.5, 8.25],
            ),
            (&[3.5, 1.25, 9.0, 4.0], [1.8125, 3.75, 7.75]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[2.0, 7.0, 1.0, 8.0, 3.0], [1.5, 3.0, 7.5]),
        ];
        for (data, want) in cases {
            assert_eq!(quartiles(data), Some(want), "{data:?}");
        }
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 000 samples: p99.9 leaves 100 beyond, but the workload
        // caps the tail at its nominal percentile.
        assert_eq!(tail_percentile(100_000, 99.0), 99.0);
        assert_eq!(tail_percentile(100_000, 99.9), 99.9);
        // 1000 samples: p99.9 leaves 1, p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        // 120 rounds: p90 leaves 12.
        assert_eq!(tail_percentile(120, 90.0), 90.0);
        // 99 rounds: p90 leaves 9, so fall to p75 (24 beyond).
        assert_eq!(tail_percentile(99, 90.0), 75.0);
        // 15 runs: nothing on the ladder has 10 beyond; report the median.
        assert_eq!(tail_percentile(15, 90.0), 50.0);
        for n in [40usize, 100, 1000, 12_345] {
            let p = tail_percentile(n, 99.9);
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().copied().filter(|&q| q > p && q <= 99.9);
            for q in higher {
                assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
    }

    #[test]
    fn summary_reports_median_quartiles_and_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&v, 99.0).expect("samples");
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (200, 100.0, 95.0, 190.0));
        assert_eq!((s.q1, s.q3), (50.25, 150.75));
        // Too few samples for any tail: it falls back to the median itself.
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0], 90.0).expect("samples");
        assert_eq!((s.tail_p, s.tail, s.p50), (50.0, 2.0, 2.0));
        assert!(Summary::of(&[], 90.0).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
