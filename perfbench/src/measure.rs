//! The one measurement helper every workload uses: timed repeats, order
//! statistics, the tail percentile a sample can support, and the printed
//! line that puts the sample count next to each number. Warm-up is part of
//! each workload's set-up, which runs one iteration on a planner of its own
//! before anything is timed.

use std::time::Instant;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier would decide the number.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the tail ladder may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A sample of measured values.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// The `p`-th percentile (0..=100), linearly interpolated between order
    /// statistics; 0 for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        interpolate(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// First and third quartile.
    pub fn quartiles(&self) -> (f64, f64) {
        let s = self.sorted();
        (interpolate(&s, 25.0), interpolate(&s, 75.0))
    }

    /// Whether the `p`-th percentile has at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        beyond(self.len(), p) >= TAIL_MIN_BEYOND
    }

    /// The highest percentile of the ladder this sample supports, with its
    /// value; `None` below 40 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .find(|&&p| self.supports(p))
            .map(|&p| (p, self.percentile(p)))
    }
}

/// [`calibrate`]'s time on the machine that set the bounds, in seconds.
pub const REFERENCE_CALIBRATION_S: f64 = 1.4e-3;

/// Times a fixed CPU kernel that shares no code with the program: sort and
/// hash 50,000 pseudo-random integers. How long it takes tracks how fast
/// the machine runs at the moment.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<u64> = (0..50_000u64)
        .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 3))
        .collect();
    v.sort_unstable();
    let h = v.iter().enumerate().fold(0u64, |h, (k, x)| {
        h.wrapping_mul(31).wrapping_add(x ^ k as u64)
    });
    std::hint::black_box(h);
    t0.elapsed().as_secs_f64()
}

/// Samples strictly above the `p`-th percentile of `n` values.
fn beyond(n: usize, p: f64) -> usize {
    n - (n as f64 * p / 100.0).ceil() as usize
}

fn interpolate(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Puts measured intervals at the reference machine speed. Between
/// intervals it runs [`calibrate`]; an interval is scaled by the reference
/// calibration time over the mean of the calibrations on either side. On a
/// shared 2-vCPU machine the speed switches between two levels about 1.5x
/// apart many times a minute, so one factor per run is not enough.
#[derive(Debug, Default)]
pub struct RefClock {
    last: Option<f64>,
    /// Seconds of every calibration run.
    pub calibrations: Samples,
}

impl RefClock {
    /// Calibrates, as the start of the next interval.
    pub fn calibrate(&mut self) {
        let c = calibrate();
        self.calibrations.push(c);
        self.last = Some(c);
    }

    /// Calibrates after an interval of `dt` seconds and returns the
    /// interval at the reference speed. Without a calibration before it,
    /// the one after stands for both.
    pub fn scale(&mut self, dt: f64) -> f64 {
        let before = self.last;
        self.calibrate();
        let after = self.last.expect("just calibrated");
        dt * REFERENCE_CALIBRATION_S * 2.0 / (before.unwrap_or(after) + after)
    }
}

/// Runs `f` `reps` times and returns the seconds of each run at the
/// reference speed, with the last result. The first run is timed from
/// `first_start` (set-up counts from process start).
pub fn repeat<T>(reps: usize, first_start: Instant, mut f: impl FnMut() -> T) -> (Samples, T) {
    assert!(reps > 0, "at least one timed repeat");
    let mut clock = RefClock::default();
    let mut times = Samples::default();
    let mut t0 = first_start;
    let mut last = None;
    for _ in 0..reps {
        last = Some(f());
        times.push(clock.scale(t0.elapsed().as_secs_f64()));
        t0 = Instant::now();
    }
    (times, last.expect("reps > 0"))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Filled in from the metric's definition.
    pub unit: String,
    /// Samples behind the value (1 for a single measured quantity).
    pub n: usize,
    /// Interquartile range as a share of the median, for sampled values.
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: String::new(),
            n,
            spread: None,
        }
    }

    /// The `p`-th percentile of `s`, with its sample count and spread.
    pub fn at(name: impl Into<String>, s: &Samples, p: f64) -> Self {
        let (q1, q3) = s.quartiles();
        let med = s.median();
        Metric {
            spread: (med != 0.0).then(|| (q3 - q1) / med),
            ..Metric::new(name, s.percentile(p), s.len())
        }
    }

    /// The printed line: name, value, unit, sample count, spread.
    pub fn line(&self) -> String {
        let spread = self
            .spread
            .map(|s| format!("  iqr/med {:.3}", s))
            .unwrap_or_default();
        format!(
            "  {:<28} {:>16.6} {:<8} n={}{}",
            self.name, self.value, self.unit, self.n, spread
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 0..n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn order_statistics_interpolate() {
        let s = sample(5);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quartiles(), (1.0, 3.0));
        assert_eq!(s.percentile(90.0), 3.6);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!sample(99).supports(90.0));
        assert!(sample(100).supports(90.0));
        assert_eq!(sample(100).tail().map(|t| t.0), Some(90.0));
        assert_eq!(sample(60).tail().map(|t| t.0), Some(75.0));
        assert_eq!(sample(1000).tail().map(|t| t.0), Some(99.0));
        assert!(sample(39).tail().is_none());
    }

    #[test]
    fn repeat_times_every_rep_and_backdates_the_first() {
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut calls = 0;
        let (t, last) = repeat(3, start, || {
            calls += 1;
            calls
        });
        assert_eq!((t.len(), last), (3, 3));
        // Scaling moves a time by far less than 5x either way.
        assert!(t.percentile(100.0) >= 0.001);
        assert!(t.percentile(0.0) < 0.001);
    }
}
