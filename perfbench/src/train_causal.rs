//! `train_causal`: the host training step. Each iteration takes the next
//! planned batch from the look-ahead dataloader, executes attention
//! forward and backward on the numeric executor, and simulates the plan.

use std::collections::HashMap;

use dcp_blocks::{BatchLayout, TokenBlockId};
use dcp_core::{DcpDataloader, PlanOutput, Planner};
use dcp_data::{Batch, DatasetKind, MaskSetting};
use dcp_exec::executor::{execute_backward, execute_forward, BatchData};
use dcp_sim::simulate_plan;
use dcp_types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{cold_config, price_te, probe, record_plan, Stats, Stream};
use crate::numerics::{check_complete, check_reference, Grads, Outputs};
use crate::run::{Done, Workload};
use crate::trace::{Layer, Tracer};

const BLOCK: u32 = 128;

/// Every this many iterations the outputs are compared with the dense
/// reference, which costs about twice the executor; every iteration gets
/// the completeness check.
const REFERENCE_EVERY: usize = 10;

/// Iterations whose counters and simulated times are summed exactly.
const PREFIX: usize = 100;

const STREAM: Stream = Stream {
    kind: DatasetKind::LongDataCollections,
    cap: 1024,
    budget: 2048,
    masks: &[MaskSetting::Causal],
    batches: 1500,
};

/// The executed operator: 4 query and 2 KV heads of dimension 16, the
/// shape the executor's own reports use.
fn attn() -> AttnSpec {
    AttnSpec::new(4, 2, 16, 1)
}

fn planner(cluster: &ClusterSpec) -> Planner {
    let cfg = cold_config(BLOCK);
    Planner::new(cluster.clone(), attn(), cfg)
}

/// One executed batch, kept for the untimed checks.
struct Step {
    out: PlanOutput,
    data: BatchData,
    d_o: HashMap<TokenBlockId, Vec<f32>>,
    fwd: Outputs,
    bwd: Grads,
    sim_s: f64,
    sim_wall_s: f64,
    wait_s: f64,
    fwd_s: f64,
    bwd_s: f64,
}

pub struct TrainCausal {
    cluster: ClusterSpec,
    seed: u64,
    batches: Vec<Batch>,
    loader: DcpDataloader,
    te: Vec<f64>,
    last: Option<Step>,
}

impl TrainCausal {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let cluster = ClusterSpec::p4de(2);
        let batches = tr.span(Layer::Data, "data.generate", || STREAM.generate(seed));
        let te = price_te(&cluster, attn(), BLOCK, &batches[..PREFIX], tr)?;
        // Warm up once before anything is timed.
        let warm = tr
            .span(Layer::Planner, "planner.plan", || {
                planner(&cluster).plan(&batches[0].seqs)
            })
            .map_err(|e| format!("warm-up plan: {e}"))?;
        execute(&cluster, warm, seed, tr)?;
        let loader = DcpDataloader::new(planner(&cluster), batches.clone(), 1);
        Ok(TrainCausal {
            cluster,
            seed,
            batches,
            loader,
            te,
            last: None,
        })
    }
}

/// Random Q/K/V and output gradients for every token block of `layout`.
fn inputs(layout: &BatchLayout, seed: u64) -> (BatchData, HashMap<TokenBlockId, Vec<f32>>) {
    let data = BatchData::random(layout, seed);
    let (qh, _) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let mut rng = SmallRng::seed_from_u64(!seed);
    let d_o = layout
        .token_blocks
        .iter()
        .enumerate()
        .map(|(i, tb)| {
            let v = (0..tb.len as usize * qh * dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            (TokenBlockId(i as u32), v)
        })
        .collect();
    (data, d_o)
}

fn execute(
    cluster: &ClusterSpec,
    out: PlanOutput,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Step, String> {
    let (data, d_o) = tr.span(Layer::Exec, "exec.inputs", || inputs(&out.layout, seed));
    let (fwd, fwd_s) = tr.timed(Layer::Exec, "exec.forward", || {
        execute_forward(&out.layout, &out.placement, &out.plan, &data)
    });
    let fwd = fwd.map_err(|e| format!("forward: {e}"))?;
    let (bwd, bwd_s) = tr.timed(Layer::Exec, "exec.backward", || {
        execute_backward(&out.layout, &out.placement, &out.plan, &data, &fwd, &d_o)
    });
    let bwd = bwd.map_err(|e| format!("backward: {e}"))?;
    let (sim, sim_wall_s) = tr.timed(Layer::Sim, "sim.simulate_plan", || {
        simulate_plan(cluster, &out.plan)
    });
    let sim = sim.map_err(|e| format!("simulate: {e}"))?;
    Ok(Step {
        sim_s: sim.total(),
        sim_wall_s,
        wait_s: 0.0,
        out,
        data,
        d_o,
        fwd,
        bwd,
        fwd_s,
        bwd_s,
    })
}

/// The untimed checks of one executed batch; returns the largest error
/// against the reference when it was compared.
fn check_step(s: &Step, reference: bool) -> Result<Option<f32>, String> {
    check_complete(&s.out.layout, &s.fwd, &s.bwd)?;
    if !reference {
        return Ok(None);
    }
    check_reference(&s.out.layout, &s.data, &s.d_o, &s.fwd, &s.bwd).map(Some)
}

impl Workload for TrainCausal {
    fn batches(&self) -> usize {
        self.batches.len()
    }

    fn prefix(&self) -> usize {
        PREFIX
    }

    fn iterate(&mut self, i: usize, tr: &mut Tracer) -> Result<Done, String> {
        self.last = None;
        let (item, wait_s) = tr.timed(Layer::Loader, "loader.next", || self.loader.next());
        let (_, out) = item
            .ok_or("batch stream exhausted")?
            .map_err(|e| format!("dataloader: {e}"))?;
        let mut step = execute(&self.cluster, out, self.seed ^ i as u64, tr)?;
        step.wait_s = wait_s;
        let done = Done {
            tokens: step.out.layout.total_tokens(),
            sim_s: step.sim_s,
        };
        self.last = Some(step);
        Ok(done)
    }

    fn check(
        &mut self,
        i: usize,
        in_prefix: bool,
        tr: &mut Tracer,
        st: &mut Stats,
    ) -> Result<(), String> {
        let s = self.last.take().ok_or("no executed batch to check")?;
        record_plan(st, in_prefix, &s.out);
        let layout = &s.out.layout;
        st.sample("loader.wait_s", s.wait_s);
        st.sample("sim.wall_s", s.sim_wall_s);
        st.sample("exec.fwd_s", s.fwd_s);
        st.sample("exec.bwd_s", s.bwd_s);
        st.add("exec.s", s.fwd_s + s.bwd_s);
        st.add("exec.fwd_total_s", s.fwd_s);
        st.add("exec.blocks", 2.0 * layout.comp_blocks.len() as f64);
        let flops: u64 = layout.comp_blocks.iter().map(|c| c.flops).sum();
        st.add("exec.fwd_flops", flops as f64);
        if let Some(err) = check_step(&s, i.is_multiple_of(REFERENCE_EVERY))? {
            st.max("exec.max_abs_err", f64::from(err));
            st.add("exec.reference_checks", 1.0);
        }
        if tr.enabled() && in_prefix {
            probe(&self.cluster, &s.out, tr, st)?;
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

    #[test]
    fn a_perturbed_output_fails_the_check() {
        let cluster = ClusterSpec::p4de(2);
        let batch = STREAM.generate(5).swap_remove(0);
        let out = planner(&cluster).plan(&batch.seqs).unwrap();
        let mut tr = Tracer::new(false);
        let mut step = execute(&cluster, out, 5, &mut tr).unwrap();
        assert!(check_step(&step, true).unwrap().unwrap() < 1e-4);

        let o = &mut step.fwd.get_mut(&TokenBlockId(0)).unwrap().o;
        o[3] += 1e-2;
        assert!(check_step(&step, false).is_ok(), "still complete");
        let err = check_step(&step, true).unwrap_err();
        assert!(err.contains("O differs"), "{err}");

        step.bwd.get_mut(&TokenBlockId(1)).unwrap().dk[0] = f32::NAN;
        assert!(check_step(&step, false).is_err(), "non-finite gradient");
    }
}
