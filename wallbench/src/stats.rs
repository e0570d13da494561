//! Sample statistics: percentiles under the ten-beyond rule, span self
//! time, and the FNV digest the workloads fold simulated results into.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at `q` (0 < q < 1), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. With `n`
/// samples the rank is `ceil(q·n)` and `n − rank` samples lie beyond.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile q must be in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `q`.
pub fn min_samples(q: f64) -> usize {
    // Smallest n with n − ceil(q·n) ≥ MIN_BEYOND.
    (1..).find(|&n| n >= ((q * n as f64).ceil() as usize).max(1) + MIN_BEYOND).expect("some n")
}

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty. Used for per-run repetitions such as set-up times, where
/// the ten-beyond rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap one another (as
/// concurrent PFTool ranks do) and may stick out of the parent's window;
/// only the union of their clipped intervals is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Running FNV-1a digest over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        // n = 19: rank of p50 is 10, only 9 beyond.
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        // p90 needs 100 samples: rank 90, 10 beyond.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn min_samples_matches_percentile() {
        for q in [0.5, 0.75, 0.9, 0.99] {
            let n = min_samples(q);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, q).is_some(), "q={q} n={n}");
            assert!(percentile(&v[..n - 1], q).is_none(), "q={q} n={n}");
        }
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 110, &[]), 100);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two ranks overlap on [30, 50): covered = [20, 60) ∪ [70, 80) = 50.
        let kids = [(20, 50), (30, 60), (70, 80)];
        assert_eq!(self_time(0, 100, &kids), 50);
        // A child nested inside another adds nothing.
        let kids = [(10, 90), (20, 30), (40, 50)];
        assert_eq!(self_time(0, 100, &kids), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_window() {
        // Children sticking out on both sides cover only [0, 100).
        let kids = [(0, 40), (60, 150)];
        assert_eq!(self_time(10, 100, &kids), 20);
        // A child wholly outside the window is ignored.
        assert_eq!(self_time(10, 100, &[(200, 300)]), 90);
        // Full coverage leaves zero self time.
        assert_eq!(self_time(10, 100, &[(0, 55), (50, 120)]), 0);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let mut a = Digest::default();
        a.mix(1);
        a.mix(2);
        let mut b = Digest::default();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.mix(1);
        c.mix(2);
        assert_eq!(a.value(), c.value());
    }
}
