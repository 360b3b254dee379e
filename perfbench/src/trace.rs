//! Spans the benchmark records around its own calls into each layer's
//! public functions. Nothing inside the program is instrumented.
//!
//! Spans stay in memory (name, layer, start, end, parent, iteration) and
//! are written out once, at the end, as a Chrome trace through
//! `dcp-obs`'s exporter. A layer's self time is its spans' durations minus
//! the parts their child spans cover; the iteration span's own self time
//! is the residual no layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

use dcp_obs::{Event, Source};

use crate::measure::Samples;

/// The repository's modules, as the benchmark attributes time to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `dcp-data`: length sampling and batch packing.
    Data,
    /// `dcp-core::dataloader`.
    Loader,
    /// `dcp-core::planner`, with the blocks, hypergraph and sched crates it
    /// calls.
    Planner,
    /// `dcp-exec`.
    Exec,
    /// `dcp-sim`.
    Sim,
    /// `dcp-core::recovery`.
    Recovery,
    /// `dcp-baselines`.
    Baselines,
    /// One timed iteration; its self time is the unattributed residual.
    Iteration,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Data => "data",
            Layer::Loader => "loader",
            Layer::Planner => "planner",
            Layer::Exec => "exec",
            Layer::Sim => "sim",
            Layer::Recovery => "recovery",
            Layer::Baselines => "baselines",
            Layer::Iteration => "iteration",
        }
    }

    /// The Chrome-trace process row the layer is drawn on.
    fn source(self) -> Source {
        match self {
            Layer::Data | Layer::Loader | Layer::Iteration => Source::Dataloader,
            Layer::Planner | Layer::Recovery | Layer::Baselines => Source::Planner,
            Layer::Exec => Source::Executor,
            Layer::Sim => Source::Sim,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub iter: Option<u64>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// An open span; pass it back to [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// Where a span's time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Iteration,
    Setup,
    /// Probe calls made outside the iteration span.
    Probe,
}

/// Self time per layer, split by where it was spent.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Seconds per layer inside traced iterations; [`Layer::Iteration`]
    /// holds the residual.
    pub iteration: BTreeMap<Layer, f64>,
    /// Seconds per layer during set-up.
    pub setup: BTreeMap<Layer, f64>,
    /// Traced iterations and their total duration.
    pub iterations: usize,
    pub iteration_s: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: Option<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between iterations.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with open spans");
        self.on = on;
    }

    /// The iteration id stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: Option<u64>) {
        self.iter = iter;
    }

    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            iter: self.iter,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    /// Runs `f` inside a span and returns its wall seconds, measured
    /// whether or not spans are recorded.
    pub fn timed<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(layer, name);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, dt)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.dur());
        }
        s
    }

    fn scope(&self, mut idx: usize) -> Scope {
        while let Some(p) = self.spans[idx].parent {
            idx = p;
        }
        match (self.spans[idx].layer, self.spans[idx].iter) {
            (Layer::Iteration, _) => Scope::Iteration,
            (_, None) => Scope::Setup,
            (_, Some(_)) => Scope::Probe,
        }
    }

    /// Each layer's self time: span durations minus child coverage.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur();
            }
        }
        let mut out = SelfTimes::default();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur() - child_s[i];
            match self.scope(i) {
                Scope::Iteration => *out.iteration.entry(s.layer).or_default() += own,
                Scope::Setup => *out.setup.entry(s.layer).or_default() += own,
                Scope::Probe => {}
            }
            if s.layer == Layer::Iteration {
                out.iterations += 1;
                out.iteration_s += s.dur();
            }
        }
        out
    }

    /// The spans as `dcp-obs` events, ready for its Chrome exporter. Every
    /// process row gets a zero instant at the origin, because the exporter
    /// starts each row at its own first event.
    pub fn to_events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = [
            Source::Planner,
            Source::Dataloader,
            Source::Executor,
            Source::Sim,
        ]
        .into_iter()
        .map(|src| Event::instant(src, "origin").with_time(0.0, 0.0))
        .collect();
        for s in &self.spans {
            let parent = s.parent.map_or("none", |p| self.spans[p].name);
            let mut e = Event::span(s.layer.source(), s.name)
                .with_label(format!("{} <- {parent}", s.layer.name()))
                .with_time(s.start, s.dur());
            if let Some(i) = s.iter {
                e = e.with_iter(i);
            }
            events.push(e);
        }
        for (seq, e) in events.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_add_up_to_the_iteration() {
        let mut t = Tracer::new(true);
        let setup = t.begin(Layer::Data, "data.pack");
        t.end(setup);
        t.set_iter(Some(0));
        let it = t.begin(Layer::Iteration, "iteration");
        t.span(Layer::Planner, "planner.plan", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ex = t.begin(Layer::Exec, "exec.fwd");
        t.span(Layer::Sim, "sim.nested", || ());
        t.end(ex);
        t.end(it);
        t.span(Layer::Planner, "sched.verify_plan", || ());

        let st = t.self_times();
        assert_eq!(st.iterations, 1);
        let attributed: f64 = st.iteration.values().sum();
        assert!((attributed - st.iteration_s).abs() < 1e-12);
        assert!(st.iteration[&Layer::Planner] >= 0.002);
        assert!(st.setup.contains_key(&Layer::Data));
        // The probe after the iteration is charged nowhere.
        assert_eq!(t.spans().len(), 6);
        assert!(t.to_events().iter().any(|e| e.name == "sched.verify_plan"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Layer::Exec, "exec.fwd", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
