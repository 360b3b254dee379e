//! The closed loop every workload runs: one driving thread, one batch per
//! iteration, each iteration timed on its own, its outputs checked
//! outside the timed interval, and failures counted instead of aborting.

use std::time::Instant;

use crate::common::{finite_time, Stats};
use crate::measure::{RefClock, Samples};
use crate::trace::{Layer, Tracer};

/// A timed run has at least this many iterations, so that its p90 has ten
/// samples beyond it.
pub const MIN_ITERS: usize = 100;

/// A run stops here even short of [`MIN_ITERS`], so that a much slower
/// program still finishes.
const HARD_CAP_S: f64 = 120.0;

/// What one successful iteration produced.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub tokens: u64,
    /// Simulated fwd+bwd attention seconds of the iteration's plan.
    pub sim_s: f64,
}

pub trait Workload {
    /// Batches in the stream; the loop never asks for more.
    fn batches(&self) -> usize;
    /// The first iterations, always run, whose work counters and simulated
    /// times are summed exactly.
    fn prefix(&self) -> usize;
    /// One timed iteration on batch `i`.
    fn iterate(&mut self, i: usize, tr: &mut Tracer) -> Result<Done, String>;
    /// Untimed: checks iteration `i`'s outputs, records its counters and,
    /// when tracing and `in_prefix`, runs the probes.
    fn check(
        &mut self,
        i: usize,
        in_prefix: bool,
        tr: &mut Tracer,
        st: &mut Stats,
    ) -> Result<(), String>;
    /// Simulated seconds of the TE baseline on the first batches, priced
    /// during set-up.
    fn te_sim_s(&self) -> &[f64];
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Wall seconds of every iteration, as measured.
    pub iter_s: Samples,
    /// The same at the reference machine speed (see [`RefClock`]).
    pub iter_ref_s: Samples,
    /// In a traced run, at the reference speed: iterations recorded with
    /// spans, and without.
    pub traced_s: Samples,
    pub untraced_s: Samples,
    pub tokens: u64,
    /// Batch index and simulated seconds of each successful prefix
    /// iteration.
    pub sim_prefix: Vec<(usize, f64)>,
    /// Seconds of each calibration run between iterations.
    pub calibration_s: Samples,
    pub errors: Vec<String>,
}

/// Runs iterations for `seconds` of wall time, and at least [`MIN_ITERS`]
/// and the workload's prefix.
/// With `trace`, every other iteration records spans, so that the two
/// halves give the tracing overhead.
pub fn timed_loop(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    st: &mut Stats,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let mut o = Outcome::default();
    let min_iters = MIN_ITERS.max(w.prefix());
    let start = Instant::now();
    let mut clock = RefClock::default();
    let mut i = 0;
    while i < w.batches() {
        let elapsed = start.elapsed().as_secs_f64();
        if (i >= min_iters && elapsed >= seconds) || elapsed >= HARD_CAP_S {
            break;
        }
        let traced = trace && i % 2 == 0;
        tr.set_enabled(traced);
        tr.set_iter(Some(i as u64));
        clock.calibrate();
        let open = tr.begin(Layer::Iteration, "iteration");
        let t0 = Instant::now();
        let result = w.iterate(i, tr);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        tr.set_enabled(trace);
        let dt_ref = clock.scale(dt);

        o.attempted += 1;
        o.iter_s.push(dt);
        o.iter_ref_s.push(dt_ref);
        if trace {
            if traced {
                &mut o.traced_s
            } else {
                &mut o.untraced_s
            }
            .push(dt_ref);
        }
        let in_prefix = i < w.prefix();
        let result = result.and_then(|done| {
            finite_time("simulated attention time", done.sim_s)?;
            w.check(i, in_prefix, tr, st).map(|()| done)
        });
        match result {
            Ok(done) => {
                o.tokens += done.tokens;
                if in_prefix {
                    o.sim_prefix.push((i, done.sim_s));
                }
            }
            Err(e) => {
                o.failed += 1;
                if o.errors.len() < 8 {
                    o.errors.push(format!("iteration {i}: {e}"));
                }
            }
        }
        i += 1;
    }
    tr.set_iter(None);
    o.calibration_s = clock.calibrations;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails iteration 1, simulates iteration 5 to NaN and fails the check
    /// of every third iteration.
    struct Flaky;

    impl Workload for Flaky {
        fn batches(&self) -> usize {
            MIN_ITERS + 5
        }
        fn prefix(&self) -> usize {
            10
        }
        fn iterate(&mut self, i: usize, _: &mut Tracer) -> Result<Done, String> {
            if i == 1 {
                return Err("planner error".into());
            }
            Ok(Done {
                tokens: 10,
                sim_s: if i == 5 { f64::NAN } else { 1.0 },
            })
        }
        fn check(
            &mut self,
            i: usize,
            _: bool,
            _: &mut Tracer,
            _: &mut Stats,
        ) -> Result<(), String> {
            if i.is_multiple_of(3) {
                Err("out of tolerance".into())
            } else {
                Ok(())
            }
        }
        fn te_sim_s(&self) -> &[f64] {
            &[]
        }
    }

    #[test]
    fn failures_are_counted_and_the_run_continues() {
        let mut tr = Tracer::new(false);
        let mut st = Stats::default();
        let o = timed_loop(&mut Flaky, &mut tr, &mut st, 0.0, false);
        assert_eq!(o.attempted, MIN_ITERS);
        // Iteration 1 fails in `iterate`, 5 on its simulated time, every
        // third in `check`.
        assert_eq!(o.failed, 2 + MIN_ITERS.div_ceil(3));
        assert_eq!(o.tokens, 10 * (o.attempted - o.failed) as u64);
        assert_eq!(o.iter_s.len(), o.attempted);
        assert_eq!(o.calibration_s.len(), 2 * o.attempted);
        // Prefix iterations 0, 3, 6 and 9 fail their check, 1 and 5 their
        // iteration.
        let kept: Vec<usize> = o.sim_prefix.iter().map(|s| s.0).collect();
        assert_eq!(kept, [2, 4, 7, 8]);
    }

    #[test]
    fn traced_runs_alternate_spans() {
        let mut tr = Tracer::new(true);
        let mut st = Stats::default();
        let o = timed_loop(&mut Flaky, &mut tr, &mut st, 0.0, true);
        assert_eq!(o.traced_s.len(), MIN_ITERS / 2);
        assert_eq!(o.untraced_s.len(), MIN_ITERS / 2);
        assert_eq!(tr.self_times().iterations, MIN_ITERS / 2);
    }
}
