//! Pieces every workload shares: seeded batch streams, baseline pricing,
//! the counters read off a plan, the trace-mode probes and the run's
//! accumulated statistics.

use std::collections::BTreeMap;

use dcp_baselines::Baseline;
use dcp_core::{PlanOutput, Planner, PlannerConfig};
use dcp_data::{pack_batches, sample_lengths, Batch, DatasetKind, MaskSetting};
use dcp_sched::{verify_plan, ExecutionPlan, Instr};
use dcp_sim::{simulate_phase_counted, simulate_plan};
use dcp_types::{AttnSpec, ClusterSpec, PlanTier};

use crate::measure::Samples;
use crate::trace::{Layer, Tracer};

/// Sums, maxima and samples a run accumulates, by name.
#[derive(Debug, Default)]
pub struct Stats {
    sums: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Samples>,
}

impl Stats {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let m = self.maxima.entry(name).or_default();
        *m = m.max(v);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn maximum(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> Samples {
        self.samples.get(name).cloned().unwrap_or_default()
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// How a workload draws its batches.
pub struct Stream {
    pub kind: DatasetKind,
    /// Longest sequence, in tokens.
    pub cap: u32,
    /// Tokens per batch.
    pub budget: u64,
    /// Mask settings, assigned to batches in rotation.
    pub masks: &'static [MaskSetting],
    /// Batches to generate (more than any run consumes).
    pub batches: usize,
}

impl Stream {
    /// The seeded batch stream, as `pack_batches` packs it.
    pub fn generate(&self, seed: u64) -> Vec<Batch> {
        let mut out = Vec::with_capacity(self.batches);
        let mut chunk = 0u64;
        while out.len() < self.batches {
            let n = (self.batches as u64 * self.budget / u64::from(self.cap)).max(64) as usize;
            let lengths = sample_lengths(self.kind, n, 1.0, self.cap, seed ^ (chunk << 32));
            chunk += 1;
            for b in pack_batches(&lengths, self.budget, |l| MaskSetting::Causal.mask_for(l)) {
                let setting = self.masks[out.len() % self.masks.len()];
                let seqs = b
                    .seqs
                    .iter()
                    .map(|s| (s.0, setting.mask_for(s.0)))
                    .collect();
                out.push(Batch { seqs });
                if out.len() == self.batches {
                    break;
                }
            }
        }
        out
    }
}

/// The planner's default configuration at `block_size`, with the plan
/// cache off. Packed batches repeat (capped lengths often fill a batch the
/// same way), and a cache hit would skip the planning being measured.
pub fn cold_config(block_size: u32) -> PlannerConfig {
    PlannerConfig {
        block_size,
        plan_cache: 0,
        ..Default::default()
    }
}

/// Simulated fwd+bwd seconds of the TransformerEngine head x zigzag
/// baseline on each of `batches`.
pub fn price_te(
    cluster: &ClusterSpec,
    attn: AttnSpec,
    block_size: u32,
    batches: &[Batch],
    tr: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let te = Baseline::TransformerEngine {
        head_groups: attn.kv_heads,
    };
    batches
        .iter()
        .map(|b| {
            let out = tr
                .span(Layer::Baselines, "baselines.build", || {
                    te.build(attn, cluster.num_devices(), block_size, &b.seqs)
                })
                .map_err(|e| format!("TE baseline: {e}"))?;
            let sim = tr
                .span(Layer::Sim, "sim.simulate_baseline", || {
                    simulate_plan(cluster, &out.plan)
                })
                .map_err(|e| format!("TE baseline sim: {e}"))?;
            finite_time("TE baseline simulated time", sim.total())
        })
        .collect()
}

/// `s` if it is a positive finite number of seconds, else why not.
pub fn finite_time(what: &str, s: f64) -> Result<f64, String> {
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("{what} is {s} s"))
    }
}

/// Per-iteration planner numbers read off the returned plan: stage times
/// on every iteration, exact work counters on the run's fixed prefix.
pub fn record_plan(st: &mut Stats, in_prefix: bool, out: &PlanOutput) {
    st.sample("planner.plan_s", out.stats.total_s);
    st.sample("planner.block_gen_s", out.times.block_gen);
    st.sample("planner.partition_s", out.times.partition);
    st.sample("planner.coarsen_s", out.stats.coarsen_s);
    st.sample("planner.initial_s", out.stats.initial_s);
    st.sample("planner.refine_s", out.stats.refine_s);
    st.sample("planner.schedule_s", out.stats.schedule_s);
    st.add(
        "planner.cache_hits",
        f64::from(u8::from(out.stats.cache_hit)),
    );
    st.add(
        "planner.fallbacks",
        f64::from(u8::from(out.tier != PlanTier::Partitioned)),
    );
    if in_prefix {
        st.add("prefix.plans", 1.0);
        st.add("blocks.comp_blocks", out.layout.comp_blocks.len() as f64);
        st.add("blocks.token_blocks", out.layout.token_blocks.len() as f64);
        st.add("sched.comm_bytes", out.plan.total_comm_bytes() as f64);
        st.add("sched.comm_launches", comm_launches(&out.plan) as f64);
        let saved: u64 = out.passes.iter().map(|p| p.comm_bytes_saved()).sum();
        st.add("sched.passes_saved_bytes", saved as f64);
    }
}

fn comm_launches(plan: &ExecutionPlan) -> usize {
    [&plan.fwd, &plan.bwd]
        .iter()
        .flat_map(|p| p.devices.iter())
        .flat_map(|d| d.instrs.iter())
        .filter(|i| matches!(i, Instr::CommLaunch(_)))
        .count()
}

/// Trace-mode probes on a plan of the run's fixed prefix, outside the
/// iteration span: hypergraph size, a verifier pass and a counted
/// simulation.
pub fn probe(
    cluster: &ClusterSpec,
    out: &PlanOutput,
    tr: &mut Tracer,
    st: &mut Stats,
) -> Result<(), String> {
    st.add("probe.plans", 1.0);
    let hg = tr.span(Layer::Planner, "hypergraph.build", || {
        Planner::build_hypergraph(&out.layout)
    });
    st.add("hypergraph.pins", hg.num_pins() as f64);
    tr.span(Layer::Planner, "sched.verify_plan", || {
        verify_plan(&out.layout, &out.placement, &out.plan)
    })
    .map_err(|d| format!("plan fails the verifier: {d:?}"))?;
    for phase in [&out.plan.fwd, &out.plan.bwd] {
        let (_, c) = tr
            .span(Layer::Sim, "sim.simulate_phase_counted", || {
                simulate_phase_counted(cluster, phase)
            })
            .map_err(|e| format!("counted simulation: {e}"))?;
        st.add("sim.events", c.events as f64);
        st.add("sim.touched_flows", c.touched_flows as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_rotates_masks() {
        let s = Stream {
            kind: DatasetKind::LongDataCollections,
            cap: 1024,
            budget: 2048,
            masks: &[MaskSetting::Causal, MaskSetting::SharedQuestion],
            batches: 50,
        };
        let a = s.generate(3);
        assert_eq!(a, s.generate(3));
        assert_ne!(a, s.generate(4));
        assert_eq!(a.len(), 50);
        for (i, b) in a.iter().enumerate() {
            assert!(b.tokens() <= 2048);
            let want = s.masks[i % 2].mask_for(b.seqs[0].0);
            assert_eq!(b.seqs[0].1, want);
        }
    }
}
