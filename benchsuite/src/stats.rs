//! Order statistics and the noise-robust per-cell estimator.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values;
/// `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of values; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Each unit's minimum time over interleaved rounds.
///
/// A unit is one cell configuration (or one grid submission). Every
/// round runs every unit once, on its own sample seeds, so each unit is
/// timed once per round and rounds are spread across the whole run. A
/// host slowdown that covers part of the run inflates some rounds; the
/// minimum keeps the round in which the unit ran undisturbed.
#[derive(Debug, Clone)]
pub struct MinTimes {
    best: Vec<f64>,
}

impl MinTimes {
    /// `units` units, none timed yet.
    pub fn new(units: usize) -> Self {
        MinTimes {
            best: vec![f64::INFINITY; units],
        }
    }

    /// Records one round's time for `unit`, in seconds.
    pub fn record(&mut self, unit: usize, secs: f64) {
        self.best[unit] = self.best[unit].min(secs);
    }

    /// Per-unit minima, in seconds (infinite for units never timed).
    pub fn minima(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the per-unit minima, in seconds.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// The end-to-end figures every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Cells answered per second of host time.
    pub cells_per_s: f64,
    /// Median per-cell latency, ms.
    pub cell_p50_ms: f64,
    /// 95th-percentile per-cell latency, ms.
    pub cell_p95_ms: f64,
    /// Minimum set-up time over the run's set-ups, s.
    pub setup_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Set-ups behind `setup_s`.
    pub setups: usize,
}

impl EndToEnd {
    /// Builds the figures from per-unit throughput minima (`cells` cells
    /// in all units together), per-cell latency minima and set-up
    /// samples. Set-up takes the same estimator as a unit: the fastest
    /// of the run's set-ups, one per round. Within a run the host
    /// alternates between a fast and a slow state for stretches of
    /// several rounds, so a median would report whichever state held
    /// the majority of the rounds.
    pub fn new(cells: usize, throughput: &MinTimes, latency: &MinTimes, setups: &[f64]) -> Self {
        let lat_ms: Vec<f64> = latency.minima().iter().map(|s| s * 1e3).collect();
        EndToEnd {
            cells_per_s: cells as f64 / throughput.total(),
            cell_p50_ms: quantile(&lat_ms, 0.50),
            cell_p95_ms: quantile(&lat_ms, 0.95),
            setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
            samples: lat_ms.len(),
            setups: setups.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn min_times_keep_the_fastest_round() {
        let mut m = MinTimes::new(2);
        m.record(0, 3.0);
        m.record(0, 1.0);
        m.record(1, 2.0);
        assert_eq!(m.minima(), &[1.0, 2.0]);
        assert_eq!(m.total(), 3.0);
    }
}
