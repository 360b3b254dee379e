//! `scale_recover`: planning and failure at scale. Each iteration plans a
//! batch for a three-tier cluster, simulates it, kills the busiest device
//! halfway through its forward divisions, plans the recovery patch,
//! verifies it and simulates the patched forward phase.

use dcp_blocks::BatchLayout;
use dcp_core::{FailureEvent, PlanOutput, Planner, RecoveryConfig, RecoveryPatch, RecoveryPlanner};
use dcp_data::{Batch, DatasetKind, MaskSetting};
use dcp_sched::{verify_phase, Instr};
use dcp_sim::{simulate_phase, simulate_plan, PlanSim};
use dcp_types::{AttnSpec, ClusterSpec};

use crate::common::{cold_config, finite_time, price_te, probe, record_plan, Stats, Stream};
use crate::run::{Done, Workload};
use crate::trace::{Layer, Tracer};

const BLOCK: u32 = 2048;
/// Iterations whose counters and simulated times are summed exactly.
const PREFIX: usize = 128;

/// Batches the TE baseline is priced on; a 128-device ring plan costs
/// about as much to build and simulate as a DCP iteration.
const TE_BATCHES: usize = 64;

/// 2048 tokens per device.
const STREAM: Stream = Stream {
    kind: DatasetKind::LongAlign,
    cap: 65536,
    budget: 262_144,
    masks: &[MaskSetting::Causal],
    batches: 1500,
};

/// 16 nodes, four per leaf switch, leaf uplinks oversubscribed 4:1.
fn cluster() -> ClusterSpec {
    ClusterSpec::p4de_spine(16, 4, 4.0)
}

fn planner(cluster: &ClusterSpec) -> Planner {
    let cfg = cold_config(BLOCK);
    Planner::new(cluster.clone(), AttnSpec::paper_micro(), cfg)
}

/// The patched forward phase must pass the verifier under the patch's
/// recovery semantics.
fn verify_patch(layout: &BatchLayout, patch: &RecoveryPatch) -> Result<(), String> {
    verify_phase(
        layout,
        &patch.placement,
        &patch.fwd,
        false,
        &patch.verify_ctx(),
    )
    .map_err(|d| format!("recovery patch fails the verifier: {d:?}"))
}

/// The device with the most forward attention divisions (lowest rank on a
/// tie) and that count.
fn busiest_device(out: &PlanOutput) -> (u32, u32) {
    out.plan
        .fwd
        .devices
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let n = s
                .instrs
                .iter()
                .filter(|ins| matches!(ins, Instr::Attn { .. }))
                .count() as u32;
            (i as u32, n)
        })
        .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
        .unwrap_or((0, 0))
}

/// One planned, failed and recovered batch, kept for the untimed checks.
struct Step {
    out: PlanOutput,
    sim: PlanSim,
    sim_wall_s: f64,
    patch: RecoveryPatch,
    patched_makespan_s: f64,
    patch_sim_wall_s: f64,
}

/// Plans, fails, patches and re-simulates one batch.
fn step(
    planner: &Planner,
    rp: &RecoveryPlanner,
    seqs: &[(u32, dcp_mask::MaskSpec)],
    tr: &mut Tracer,
) -> Result<Step, String> {
    let cluster = planner.cluster();
    let out = tr
        .span(Layer::Planner, "planner.plan", || planner.plan(seqs))
        .map_err(|e| format!("plan: {e}"))?;
    let (sim, sim_wall_s) = tr.timed(Layer::Sim, "sim.simulate_plan", || {
        simulate_plan(cluster, &out.plan)
    });
    let sim = sim.map_err(|e| format!("simulate: {e}"))?;
    let (device, divisions) = busiest_device(&out);
    let ev = FailureEvent {
        device,
        divisions_done: (divisions / 2).max(1).min(divisions),
    };
    let patch = tr
        .span(Layer::Recovery, "recovery.plan_recovery", || {
            rp.plan_recovery(&out, &ev)
        })
        .map_err(|e| format!("recovery: {e}"))?;
    tr.span(Layer::Planner, "sched.verify_phase", || {
        verify_patch(&out.layout, &patch)
    })?;
    let (patched, patch_sim_wall_s) = tr.timed(Layer::Sim, "sim.simulate_patch", || {
        simulate_phase(cluster, &patch.timing)
    });
    let patched = patched.map_err(|e| format!("simulate patch: {e}"))?;
    Ok(Step {
        out,
        sim,
        sim_wall_s,
        patch,
        patched_makespan_s: finite_time("patched forward makespan", patched.makespan)?,
        patch_sim_wall_s,
    })
}

pub struct ScaleRecover {
    planner: Planner,
    rp: RecoveryPlanner,
    batches: Vec<Batch>,
    te: Vec<f64>,
    last: Option<Step>,
}

impl ScaleRecover {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let cluster = cluster();
        let batches = tr.span(Layer::Data, "data.generate", || STREAM.generate(seed));
        let te = price_te(
            &cluster,
            AttnSpec::paper_micro(),
            BLOCK,
            &batches[..TE_BATCHES],
            tr,
        )?;
        let rp = RecoveryPlanner::new(RecoveryConfig::default());
        step(&planner(&cluster), &rp, &batches[0].seqs, tr).map_err(|e| format!("warm-up: {e}"))?;
        Ok(ScaleRecover {
            planner: planner(&cluster),
            rp,
            batches,
            te,
            last: None,
        })
    }
}

impl Workload for ScaleRecover {
    fn batches(&self) -> usize {
        self.batches.len()
    }

    fn prefix(&self) -> usize {
        PREFIX
    }

    fn iterate(&mut self, i: usize, tr: &mut Tracer) -> Result<Done, String> {
        self.last = None;
        let s = step(&self.planner, &self.rp, &self.batches[i].seqs, tr)?;
        let done = Done {
            tokens: s.out.layout.total_tokens(),
            sim_s: s.sim.total(),
        };
        self.last = Some(s);
        Ok(done)
    }

    fn check(
        &mut self,
        _i: usize,
        in_prefix: bool,
        tr: &mut Tracer,
        st: &mut Stats,
    ) -> Result<(), String> {
        let s = self.last.take().ok_or("no recovered batch to check")?;
        record_plan(st, in_prefix, &s.out);
        st.sample("sim.wall_s", s.sim_wall_s);
        st.sample("recovery.patch_s", s.patch.stats.plan_wall_s);
        st.sample("recovery.sim_wall_s", s.patch_sim_wall_s);
        if in_prefix {
            let p = &s.patch.stats;
            st.add("recovery.patches", 1.0);
            st.add("recovery.failed_flops", p.failed_flops as f64);
            st.add("recovery.redone_flops", p.redone_flops as f64);
            st.add("recovery.salvage_bytes", p.salvage_bytes as f64);
            st.add("recovery.clean_fwd_s", s.sim.fwd.makespan);
            st.add("recovery.patched_fwd_s", s.patched_makespan_s);
        }
        if tr.enabled() && in_prefix {
            probe(self.planner.cluster(), &s.out, tr, st)?;
        }
        Ok(())
    }

    fn te_sim_s(&self) -> &[f64] {
        &self.te
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::PlannerConfig;
    use dcp_mask::MaskSpec;

    #[test]
    fn a_corrupted_patch_fails_verification() {
        let planner = Planner::new(
            ClusterSpec::single_node(4),
            AttnSpec::new(4, 2, 8, 2),
            PlannerConfig {
                block_size: 16,
                ..Default::default()
            },
        );
        let rp = RecoveryPlanner::new(RecoveryConfig::default());
        let seqs = vec![(200, MaskSpec::Causal), (120, MaskSpec::Causal)];
        let mut tr = Tracer::new(false);
        let s = step(&planner, &rp, &seqs, &mut tr).unwrap();
        assert!(verify_patch(&s.out.layout, &s.patch).is_ok());

        // Drop one surviving stream's last attention call: its blocks are
        // never computed.
        let mut bad = s.patch.clone();
        let stream = bad
            .fwd
            .devices
            .iter_mut()
            .filter(|d| !bad.failed_streams.contains(&d.device))
            .find(|d| d.instrs.iter().any(|i| matches!(i, Instr::Attn { .. })))
            .unwrap();
        let at = stream
            .instrs
            .iter()
            .rposition(|i| matches!(i, Instr::Attn { .. }))
            .unwrap();
        stream.instrs.remove(at);
        assert!(verify_patch(&s.out.layout, &bad).is_err());
    }
}
