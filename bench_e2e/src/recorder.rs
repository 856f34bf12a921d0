//! Full-resolution latency recorder: every sample kept as raw microseconds
//! with the time it was due, so percentiles are exact and can be taken per
//! window of the run.

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When the request was due, µs since the phase began.
    at_us: u64,
    latency_us: u32,
}

#[derive(Debug, Default, Clone)]
pub struct Recorder {
    samples: Vec<Sample>,
}

/// Exact percentile of a sorted slice by nearest rank; `None` when fewer
/// than `min_beyond` samples lie beyond it.
fn percentile_sorted(sorted: &[u32], q: f64, min_beyond: usize) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of a small set of values (mean of the middle two when even).
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// The value a quarter of the way into the sorted set: from the low end
/// (`best_is_low`, for times) or from the high end (for rates).
///
/// Windows are summarized by their better quartile, not their median: what
/// disturbs a window in the sandbox — a busy sibling hyperthread, a cold
/// cache after the CPU was taken away — only ever slows it down, so the
/// better windows are the ones that measured the program.
pub fn better_quartile(values: &mut [f64], best_is_low: bool) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let quarter = (values.len() - 1) / 4;
    Some(if best_is_low {
        values[quarter]
    } else {
        values[values.len() - 1 - quarter]
    })
}

impl Recorder {
    pub fn record(&mut self, at_us: u64, latency_us: u64) {
        self.samples.push(Sample {
            at_us,
            latency_us: latency_us.min(u64::from(u32::MAX)) as u32,
        });
    }

    pub fn merge(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Samples recorded after `from_us` and up to `to_us`.
    pub fn count_between(&self, from_us: u64, to_us: u64) -> usize {
        self.samples
            .iter()
            .filter(|s| s.at_us > from_us && s.at_us <= to_us)
            .count()
    }

    /// Percentile `q` in `(0, 1]` over every sample.
    pub fn percentile(&self, q: f64, min_beyond: usize) -> Option<u32> {
        let mut all: Vec<u32> = self.samples.iter().map(|s| s.latency_us).collect();
        all.sort_unstable();
        percentile_sorted(&all, q, min_beyond)
    }

    /// The samples of each of `count` consecutive `window_us` windows,
    /// sorted by latency. A window nothing fell into is empty, not missing.
    pub fn windows(&self, window_us: u64, count: usize) -> Vec<Vec<u32>> {
        let mut windows = vec![Vec::new(); count];
        for s in &self.samples {
            if let Some(w) = windows.get_mut((s.at_us / window_us) as usize) {
                w.push(s.latency_us);
            }
        }
        for w in &mut windows {
            w.sort_unstable();
        }
        windows
    }

    /// Percentile `q` of each window; windows too thin to support it are
    /// left out.
    pub fn window_percentiles(
        &self,
        q: f64,
        window_us: u64,
        count: usize,
        min_beyond: usize,
    ) -> Vec<f64> {
        self.windows(window_us, count)
            .iter()
            .filter_map(|w| percentile_sorted(w, q, min_beyond).map(f64::from))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// The oracle: sort everything, index by nearest rank.
    fn oracle(values: &[u32], q: f64) -> u32 {
        let mut v = values.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    fn skewed(rng: &mut Rng) -> u32 {
        // long-tailed: mostly ~200 µs, sometimes milliseconds
        let base = 150 + rng.below(100) as u32;
        if rng.below(50) == 0 {
            base * (10 + rng.below(40) as u32)
        } else {
            base
        }
    }

    #[test]
    fn percentiles_match_the_sorted_vector_oracle() {
        let mut rng = Rng::new(7);
        let mut rec = Recorder::default();
        let mut raw = Vec::new();
        for i in 0..25_000u64 {
            let v = skewed(&mut rng);
            raw.push(v);
            rec.record(i * 40, u64::from(v));
        }
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            assert_eq!(
                rec.percentile(q, MIN_BEYOND),
                Some(oracle(&raw, q)),
                "q={q}"
            );
        }
        assert_eq!(rec.len(), raw.len());
    }

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond_it() {
        let mut rec = Recorder::default();
        for i in 0..1_000u64 {
            rec.record(i, i);
        }
        // p99 of 1000 samples has exactly 10 beyond it; p99.1 has 9
        assert_eq!(rec.percentile(0.99, MIN_BEYOND), Some(989));
        assert_eq!(rec.percentile(0.991, MIN_BEYOND), None);
        assert_eq!(rec.percentile(0.991, 0), Some(990));
        assert_eq!(Recorder::default().percentile(0.5, 0), None);
    }

    #[test]
    fn windows_hold_their_own_samples_sorted_and_keep_empty_ones() {
        let mut rec = Recorder::default();
        for (at, v) in [
            (10, 30),
            (20, 10),
            (2_500_000, 7),
            (1_999_999, 20),
            (9_000_000, 1),
        ] {
            rec.record(at, v);
        }
        let w = rec.windows(1_000_000, 4);
        assert_eq!(w, vec![vec![10, 30], vec![20], vec![7], vec![]]);
        assert_eq!(
            rec.window_percentiles(0.5, 1_000_000, 4, 0),
            vec![10.0, 20.0, 7.0]
        );
        // a window too thin for the percentile is left out
        assert_eq!(rec.window_percentiles(0.5, 1_000_000, 4, 1), vec![10.0]);
        assert_eq!(rec.count_between(10, 2_500_000), 3);
    }

    #[test]
    fn better_quartile_takes_the_low_or_the_high_end() {
        let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(better_quartile(&mut v, true), Some(3.0));
        assert_eq!(better_quartile(&mut v, false), Some(10.0));
        let mut seven = [462.0, 428.0, 383.0, 386.0, 460.0, 682.0, 664.0];
        assert_eq!(better_quartile(&mut seven, false), Some(664.0));
        assert_eq!(better_quartile(&mut [5.0], true), Some(5.0));
        assert_eq!(better_quartile(&mut [], true), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
