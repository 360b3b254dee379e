//! The benchmark's metrics, named and ordered as `BENCHMARK.json` defines
//! them, and how each is computed from a finished run.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::common::{ratio, Stats};
use crate::measure::{Metric, Samples};
use crate::run::Outcome;
use crate::trace::{Layer, Tracer};

/// A metric's name and unit, as `BENCHMARK.json` defines them.
pub struct Def {
    name: String,
    unit: String,
}

/// The metrics `BENCHMARK.json` defines, in its order: the end-to-end ones
/// from untraced runs and the per-layer ones from traced runs.
pub struct Defs {
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

impl Defs {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<Def>, String> {
            let bad = || format!("{path}: {key} is not a list of metrics with name and unit");
            doc[key]
                .as_array()
                .ok_or_else(bad)?
                .iter()
                .map(|m| match (m["name"].as_str(), m["unit"].as_str()) {
                    (Some(name), Some(unit)) => Ok(Def {
                        name: name.into(),
                        unit: unit.into(),
                    }),
                    _ => Err(bad()),
                })
                .collect()
        };
        Ok(Defs {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Collects metrics by name; units come from the definitions.
#[derive(Default)]
struct Sheet(BTreeMap<String, Metric>);

impl Sheet {
    fn value(&mut self, name: &str, value: f64, n: usize) {
        self.0.insert(name.into(), Metric::new(name, value, n));
    }

    /// The `p`-th percentile of `s` scaled by `scale`.
    fn at(&mut self, name: &str, s: &Samples, p: f64, scale: f64) {
        let mut m = Metric::at(name, s, p);
        m.value *= scale;
        self.0.insert(name.into(), m);
    }

    /// The metrics of `defs`, in their order, each with its unit. Every
    /// defined metric must have been computed, and nothing else.
    fn take(mut self, defs: &[Def]) -> Result<Vec<Metric>, String> {
        let out = defs
            .iter()
            .map(|d| {
                let mut m = self
                    .0
                    .remove(&d.name)
                    .ok_or(format!("metric {} was not computed", d.name))?;
                m.unit = d.unit.clone();
                Ok(m)
            })
            .collect::<Result<Vec<_>, String>>()?;
        match self.0.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not in BENCHMARK.json")),
            None => Ok(out),
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    defs: &Defs,
    o: &Outcome,
    te_sim_s: &[f64],
    setup_s: &Samples,
    rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let mut m = Sheet::default();
    m.at("iter_ms_p50", &o.iter_ref_s, 50.0, 1e3);
    m.at("iter_ms_p90", &o.iter_ref_s, 90.0, 1e3);
    m.value(
        "tokens_per_s",
        ratio(o.tokens as f64, o.iter_ref_s.sum()),
        o.attempted,
    );
    let sims = &o.sim_prefix;
    let mean = ratio(sims.iter().map(|s| s.1).sum(), sims.len() as f64);
    m.value("sim_attn_ms", mean * 1e3, sims.len());
    // TE and DCP on the same batches.
    let (mut te, mut dcp, mut k) = (0.0, 0.0, 0);
    for &(i, s) in sims.iter().filter(|s| s.0 < te_sim_s.len()) {
        te += te_sim_s[i];
        dcp += s;
        k += 1;
    }
    m.value("sim_speedup_vs_te", ratio(te, dcp), k);
    m.at("setup_s", setup_s, 50.0, 1.0);
    m.value("peak_rss_mb", rss_mb, 1);
    m.take(&defs.end_to_end)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    defs: &Defs,
    o: &Outcome,
    st: &Stats,
    tr: &Tracer,
    setup_reps: usize,
) -> Result<Vec<Metric>, String> {
    let mut m = Sheet::default();
    let ms = 1e3;
    m.at("loader.wait_ms_p50", &st.samples("loader.wait_s"), 50.0, ms);
    let plan = st.samples("planner.plan_s");
    m.at("planner.plan_ms_p50", &plan, 50.0, ms);
    m.at("planner.plan_ms_p90", &plan, 90.0, ms);
    for stage in [
        "block_gen",
        "partition",
        "coarsen",
        "initial",
        "refine",
        "schedule",
    ] {
        let s = st.samples(&format!("planner.{stage}_s"));
        m.at(&format!("planner.{stage}_ms"), &s, 50.0, ms);
    }
    m.value(
        "planner.cache_hits",
        st.sum("planner.cache_hits"),
        plan.len(),
    );
    m.value("planner.fallbacks", st.sum("planner.fallbacks"), plan.len());

    // Exact work counters: per-batch means over the prefix.
    let plans = st.sum("prefix.plans");
    let per_plan = |name: &str, scale: f64| ratio(st.sum(name), plans) * scale;
    let n = plans as usize;
    m.value("blocks.comp_blocks", per_plan("blocks.comp_blocks", 1.0), n);
    m.value(
        "blocks.token_blocks",
        per_plan("blocks.token_blocks", 1.0),
        n,
    );
    m.value("sched.comm_mb", per_plan("sched.comm_bytes", 1e-6), n);
    m.value(
        "sched.comm_launches",
        per_plan("sched.comm_launches", 1.0),
        n,
    );
    m.value(
        "sched.passes_saved_mb",
        per_plan("sched.passes_saved_bytes", 1e-6),
        n,
    );
    let probes = st.sum("probe.plans");
    let per_probe = |name: &str| ratio(st.sum(name), probes);
    let np = probes as usize;
    m.value("hypergraph.pins", per_probe("hypergraph.pins"), np);
    m.value("sim.events", per_probe("sim.events"), np);
    m.value("sim.touched_flows", per_probe("sim.touched_flows"), np);
    let counted = tr.durations("sim.simulate_phase_counted");
    m.value(
        "sim.events_per_s",
        ratio(st.sum("sim.events"), counted.sum()),
        counted.len(),
    );
    m.at(
        "sched.verify_ms",
        &tr.durations("sched.verify_plan"),
        50.0,
        ms,
    );

    m.at("exec.fwd_ms", &st.samples("exec.fwd_s"), 50.0, ms);
    m.at("exec.bwd_ms", &st.samples("exec.bwd_s"), 50.0, ms);
    let execs = st.samples("exec.fwd_s").len();
    m.value(
        "exec.blocks_per_s",
        ratio(st.sum("exec.blocks"), st.sum("exec.s")),
        execs,
    );
    m.value(
        "exec.gflop_per_s",
        ratio(st.sum("exec.fwd_flops"), st.sum("exec.fwd_total_s")) * 1e-9,
        execs,
    );
    m.value("exec.max_abs_err", st.maximum("exec.max_abs_err"), execs);

    m.at("sim.ms", &st.samples("sim.wall_s"), 50.0, ms);
    m.at(
        "recovery.patch_ms_p50",
        &st.samples("recovery.patch_s"),
        50.0,
        ms,
    );
    m.at(
        "recovery.sim_ms",
        &st.samples("recovery.sim_wall_s"),
        50.0,
        ms,
    );
    let patches = st.sum("recovery.patches");
    let npatch = patches as usize;
    m.value(
        "recovery.redone_frac",
        ratio(
            st.sum("recovery.redone_flops"),
            st.sum("recovery.failed_flops"),
        ),
        npatch,
    );
    m.value(
        "recovery.salvage_mb",
        ratio(st.sum("recovery.salvage_bytes"), patches) * 1e-6,
        npatch,
    );
    m.value(
        "recovery.makespan_ratio",
        ratio(
            st.sum("recovery.patched_fwd_s"),
            st.sum("recovery.clean_fwd_s"),
        ),
        npatch,
    );

    let overhead = ratio(o.traced_s.median(), o.untraced_s.median()) - 1.0;
    m.value("trace.overhead_frac", overhead, o.traced_s.len());
    m.at("machine.calibration_ms", &o.calibration_s, 50.0, ms);
    let selfs = tr.self_times();
    let iters = selfs.iterations as f64;
    m.value(
        "trace.iter_ms_mean",
        ratio(selfs.iteration_s, iters) * ms,
        selfs.iterations,
    );
    for layer in [
        Layer::Loader,
        Layer::Planner,
        Layer::Exec,
        Layer::Sim,
        Layer::Recovery,
        Layer::Iteration,
    ] {
        let name = match layer {
            Layer::Iteration => "self.residual_ms".to_string(),
            l => format!("self.{}_ms", l.name()),
        };
        let s = selfs.iteration.get(&layer).copied().unwrap_or(0.0);
        m.value(&name, ratio(s, iters) * ms, selfs.iterations);
    }
    for layer in [
        Layer::Data,
        Layer::Planner,
        Layer::Exec,
        Layer::Sim,
        Layer::Recovery,
        Layer::Baselines,
    ] {
        let s = selfs.setup.get(&layer).copied().unwrap_or(0.0);
        let name = format!("setup.{}_ms", layer.name());
        m.value(&name, s / setup_reps as f64 * ms, setup_reps);
    }
    m.take(&defs.per_layer)
}

/// The layer with the most self time per traced iteration.
pub fn dominant_layer(tr: &Tracer) -> Option<(Layer, f64)> {
    let selfs = tr.self_times();
    selfs
        .iteration
        .iter()
        .filter(|(l, _)| **l != Layer::Iteration)
        .map(|(l, s)| (*l, ratio(*s, selfs.iteration_s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs(names: &[&str]) -> Vec<Def> {
        names
            .iter()
            .map(|n| Def {
                name: n.to_string(),
                unit: "ms".into(),
            })
            .collect()
    }

    #[test]
    fn a_sheet_must_match_its_definitions() {
        let sheet = || {
            let mut m = Sheet::default();
            m.value("a", 1.0, 1);
            m.value("b", 2.0, 1);
            m
        };
        let got = sheet().take(&defs(&["b", "a"])).unwrap();
        assert_eq!(got[0].name, "b");
        assert_eq!(got[1].unit, "ms");
        assert!(sheet().take(&defs(&["a"])).is_err(), "b is undefined");
        assert!(
            sheet().take(&defs(&["a", "b", "c"])).is_err(),
            "c is missing"
        );
    }
}
