//! `plan_sparse`: the planning front end the paper runs ahead of the
//! accelerators. Each iteration plans one long-context batch under a sparse
//! mask and simulates the plan; nothing is executed.

use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_core::{PlanOutput, Planner};
use dcp_data::{Batch, DatasetKind, MaskSetting};
use dcp_sim::simulate_plan;
use dcp_types::{AttnSpec, ClusterSpec};

use crate::common::{cold_config, price_te, probe, record_plan, Stats, Stream};
use crate::run::{Done, Workload};
use crate::trace::{Layer, Tracer};

const BLOCK: u32 = 1024;
/// Iterations whose counters and simulated times are summed exactly.
const PREFIX: usize = 512;

/// Batches the TE baseline is priced on.
const TE_BATCHES: usize = 256;

/// The sparse masks, one per batch in rotation.
const MASKS: [MaskSetting; 3] = [
    MaskSetting::Lambda,
    MaskSetting::CausalBlockwise,
    MaskSetting::SharedQuestion,
];

const STREAM: Stream = Stream {
    kind: DatasetKind::LongAlign,
    cap: 32768,
    budget: 65536,
    masks: &MASKS,
    batches: 8000,
};

fn planner(cluster: &ClusterSpec) -> Planner {
    let cfg = cold_config(BLOCK);
    Planner::new(cluster.clone(), AttnSpec::paper_micro(), cfg)
}

/// Computation blocks of `batches`' lengths under `setting`.
fn comp_blocks(batches: &[Batch], setting: MaskSetting) -> Result<usize, String> {
    let attn = AttnSpec::paper_micro();
    let cfg = BlockConfig {
        block_size: BLOCK,
        head_blocks: attn.kv_heads,
    };
    batches.iter().try_fold(0, |n, b| {
        let seqs: Vec<_> = b
            .seqs
            .iter()
            .map(|s| (s.0, setting.mask_for(s.0)))
            .collect();
        let layout = BatchLayout::build(attn, cfg, &seqs).map_err(|e| e.to_string())?;
        Ok(n + layout.comp_blocks.len())
    })
}

/// Batches the mask layouts are compared on.
const MASK_CHECK_BATCHES: usize = 16;

/// The three sparse masks give three different block layouts on the same
/// lengths, each different from causal; otherwise a mask setting would
/// silently duplicate another.
fn check_masks_differ(batches: &[Batch]) -> Result<(), String> {
    let mut counts = vec![("causal", comp_blocks(batches, MaskSetting::Causal)?)];
    for m in MASKS {
        counts.push((m.name(), comp_blocks(batches, m)?));
    }
    for (i, a) in counts.iter().enumerate() {
        if let Some(b) = counts[i + 1..].iter().find(|b| b.1 == a.1) {
            return Err(format!(
                "masks {} and {} give the same layout ({} computation blocks)",
                a.0, b.0, a.1
            ));
        }
    }
    Ok(())
}

pub struct PlanSparse {
    cluster: ClusterSpec,
    planner: Planner,
    batches: Vec<Batch>,
    te: Vec<f64>,
    /// The last plan and its simulation's wall seconds.
    last: Option<(PlanOutput, f64)>,
}

impl PlanSparse {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let cluster = ClusterSpec::p4de(4);
        let batches = tr.span(Layer::Data, "data.generate", || STREAM.generate(seed));
        tr.span(Layer::Planner, "blocks.mask_layouts", || {
            check_masks_differ(&batches[..MASK_CHECK_BATCHES])
        })?;
        let te = price_te(
            &cluster,
            AttnSpec::paper_micro(),
            BLOCK,
            &batches[..TE_BATCHES],
            tr,
        )?;
        tr.span(Layer::Planner, "planner.plan", || {
            planner(&cluster).plan(&batches[0].seqs)
        })
        .map_err(|e| format!("warm-up plan: {e}"))?;
        Ok(PlanSparse {
            planner: planner(&cluster),
            cluster,
            batches,
            te,
            last: None,
        })
    }
}

impl Workload for PlanSparse {
    fn batches(&self) -> usize {
        self.batches.len()
    }

    fn prefix(&self) -> usize {
        PREFIX
    }

    fn iterate(&mut self, i: usize, tr: &mut Tracer) -> Result<Done, String> {
        self.last = None;
        let seqs = &self.batches[i].seqs;
        let out = tr
            .span(Layer::Planner, "planner.plan", || self.planner.plan(seqs))
            .map_err(|e| format!("plan: {e}"))?;
        let (sim, sim_s) = tr.timed(Layer::Sim, "sim.simulate_plan", || {
            simulate_plan(&self.cluster, &out.plan)
        });
        let sim = sim.map_err(|e| format!("simulate: {e}"))?;
        let done = Done {
            tokens: out.layout.total_tokens(),
            sim_s: sim.total(),
        };
        self.last = Some((out, sim_s));
        Ok(done)
    }

    fn check(
        &mut self,
        _i: usize,
        in_prefix: bool,
        tr: &mut Tracer,
        st: &mut Stats,
    ) -> Result<(), String> {
        let (out, sim_wall_s) = self.last.take().ok_or("no plan to check")?;
        record_plan(st, in_prefix, &out);
        st.sample("sim.wall_s", sim_wall_s);
        if tr.enabled() && in_prefix {
            probe(&self.cluster, &out, tr, st)?;
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
    use dcp_mask::MaskSpec;

    #[test]
    fn identical_mask_layouts_are_rejected() {
        let long = Batch {
            seqs: vec![(20000, MaskSpec::Causal), (9000, MaskSpec::Causal)],
        };
        assert!(check_masks_differ(std::slice::from_ref(&long)).is_ok());
        // Below the lambda window, lambda is causal.
        let short = Batch {
            seqs: vec![(3000, MaskSpec::Causal)],
        };
        let err = check_masks_differ(&[short]).unwrap_err();
        assert!(err.contains("causal and lambda"), "{err}");
    }
}
