//! The division scheduler (paper Sec. 4.3, Listing 3) and instruction
//! emission.
//!
//! Given a placement, the required communication is fully determined: a
//! remote input block is fetched **once per consuming device** (not once per
//! computation block), and a partial output is returned **once per producing
//! device** — exactly the `s_e * (lambda_e - 1)` accounting of the
//! hypergraph objective.
//!
//! The scheduler groups each device's computation blocks into `T` divisions:
//! division 0 holds the blocks needing no communication, divisions
//! `1..T-1` are filled greedily (starting from the least-loaded device)
//! subject to a per-division cap of `1/T` of the device's total incoming
//! volume per source, and the final division takes everything left. Each
//! division's communication is launched while the previous division
//! computes, which is what overlaps transfer and attention time.
//!
//! Timing assumption encoded in the emitted streams: *input* fetches (Q, KV,
//! dO) carry model input data that exists from the start of the phase, so
//! only the receiver's `CommLaunch` gates them; *output* partials
//! (O/dQ/dKV) are produced data, so the producer launches them after its
//! last division and the owner waits before its final reduction.

use std::collections::{HashMap, HashSet};

use dcp_blocks::{BatchLayout, CompBlockId};
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::buffer::compute_stats;
use crate::placement::Placement;
use crate::plan::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan,
    ReduceItem, Transfer,
};

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Number of divisions `T` (the paper fixes 4).
    pub divisions: u32,
    /// Launch each output-partial transfer right after the last division
    /// that contributes to it, overlapping the return path with later
    /// divisions. The paper's Listing 3 defers all output transfers to the
    /// end of the schedule; set `false` for that behavior (the
    /// `ablations` harness measures the difference).
    pub early_output: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            divisions: 4,
            early_output: true,
        }
    }
}

/// Ratio of backward to forward FLOPs, as a (num, den) rational so FLOPs
/// stay integral (matches [`dcp_types::AttnSpec::BWD_FLOPS_RATIO`]).
const BWD_RATIO: (u64, u64) = (5, 2);

/// Builds the full execution plan (forward + backward) for `layout` under
/// `placement`.
///
/// # Errors
///
/// Returns an error if the placement does not match the layout or
/// `cfg.divisions == 0`.
pub fn build_plan(
    layout: &BatchLayout,
    placement: &Placement,
    cfg: &ScheduleConfig,
) -> DcpResult<ExecutionPlan> {
    placement.validate(layout)?;
    if cfg.divisions == 0 {
        return Err(DcpError::invalid_argument("divisions must be > 0"));
    }
    let fwd = schedule_phase(layout, placement, cfg, false);
    let bwd = schedule_phase(layout, placement, cfg, true);
    Ok(ExecutionPlan {
        num_devices: placement.num_devices,
        fwd,
        bwd,
    })
}

/// Remote input payloads of `comp` on its executing device.
fn remote_inputs(
    layout: &BatchLayout,
    placement: &Placement,
    comp: CompBlockId,
    backward: bool,
) -> Vec<(Payload, u32, u64)> {
    let cb = &layout.comp_blocks[comp.0 as usize];
    let dev = placement.comp_dev(comp);
    let q_owner = placement.token_dev(cb.q_block);
    let kv_owner = placement.token_dev(cb.kv_block);
    let qb = &layout.token_blocks[cb.q_block.0 as usize];
    let kvb = &layout.token_blocks[cb.kv_block.0 as usize];
    let mut v = Vec::new();
    if q_owner != dev {
        v.push((Payload::Q(cb.q_block), q_owner, qb.q_bytes));
        if backward {
            v.push((Payload::DO(cb.q_block), q_owner, qb.o_bytes));
        }
    }
    if kv_owner != dev {
        v.push((Payload::Kv(cb.kv_block), kv_owner, kvb.kv_bytes));
    }
    v
}

fn schedule_phase(
    layout: &BatchLayout,
    placement: &Placement,
    cfg: &ScheduleConfig,
    backward: bool,
) -> PhasePlan {
    let n = placement.num_devices as usize;
    let t = cfg.divisions as usize;

    // Per-device computation blocks, in id order (deterministic).
    let mut dev_comps: Vec<Vec<CompBlockId>> = vec![Vec::new(); n];
    for i in 0..layout.comp_blocks.len() {
        let c = CompBlockId(i as u32);
        dev_comps[placement.comp_dev(c) as usize].push(c);
    }

    // Total deduplicated incoming volume per (device, source).
    let mut total_req: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
    {
        let mut seen: Vec<HashSet<Payload>> = vec![HashSet::new(); n];
        for d in 0..n {
            for &c in &dev_comps[d] {
                for (payload, src, bytes) in remote_inputs(layout, placement, c, backward) {
                    if seen[d].insert(payload) {
                        *total_req[d].entry(src).or_insert(0) += bytes;
                    }
                }
            }
        }
    }
    let limit =
        |d: usize, src: u32| -> u64 { total_req[d].get(&src).map_or(0, |&b| b.div_ceil(t as u64)) };

    // Division construction.
    // divisions[i][d] = (comp blocks, new transfers)
    let mut divisions: Vec<Vec<(Vec<CompBlockId>, Vec<Transfer>)>> =
        vec![vec![(Vec::new(), Vec::new()); n]; t];
    let mut remaining: Vec<Vec<CompBlockId>> = vec![Vec::new(); n];
    let mut fetched: Vec<HashSet<Payload>> = vec![HashSet::new(); n];
    let mut comp_load = vec![0u64; n];
    // Division index of every computation block (for early output launch).
    let mut div_of_comp = vec![0usize; layout.comp_blocks.len()];

    // Division 0: blocks with no remote inputs at all.
    for d in 0..n {
        for &c in &dev_comps[d] {
            if remote_inputs(layout, placement, c, backward).is_empty() {
                divisions[0][d].0.push(c);
                div_of_comp[c.0 as usize] = 0;
                comp_load[d] += layout.comp_blocks[c.0 as usize].flops;
            } else {
                remaining[d].push(c);
            }
        }
    }

    // Middle divisions 1..t-1, least-loaded device first. `i` indexes both
    // `divisions` and `div_of_comp`, so an iterator form would not be clearer.
    #[allow(clippy::needless_range_loop)]
    for i in 1..t.saturating_sub(1) {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&d| comp_load[d]);
        for &d in &order {
            let mut div_comm: HashMap<u32, u64> = HashMap::new();
            let mut kept = Vec::new();
            let blocks = std::mem::take(&mut remaining[d]);
            for c in blocks {
                let new: Vec<(Payload, u32, u64)> = remote_inputs(layout, placement, c, backward)
                    .into_iter()
                    .filter(|(p, _, _)| !fetched[d].contains(p))
                    .collect();
                // Projected per-source volume must stay under the cap.
                let mut projected: HashMap<u32, u64> = div_comm.clone();
                for (_, src, bytes) in &new {
                    *projected.entry(*src).or_insert(0) += bytes;
                }
                let fits = projected.iter().all(|(&src, &b)| b <= limit(d, src));
                if fits {
                    for (payload, src, bytes) in new {
                        fetched[d].insert(payload);
                        *div_comm.entry(src).or_insert(0) += bytes;
                        divisions[i][d].1.push(Transfer {
                            from: src,
                            to: d as u32,
                            payload,
                            bytes,
                        });
                    }
                    divisions[i][d].0.push(c);
                    div_of_comp[c.0 as usize] = i;
                    comp_load[d] += layout.comp_blocks[c.0 as usize].flops;
                } else {
                    kept.push(c);
                }
            }
            remaining[d] = kept;
        }
    }

    // Final division: everything left.
    let last = t - 1;
    for d in 0..n {
        for c in std::mem::take(&mut remaining[d]) {
            let new: Vec<(Payload, u32, u64)> = remote_inputs(layout, placement, c, backward)
                .into_iter()
                .filter(|(p, _, _)| !fetched[d].contains(p))
                .collect();
            for (payload, src, bytes) in new {
                fetched[d].insert(payload);
                divisions[last][d].1.push(Transfer {
                    from: src,
                    to: d as u32,
                    payload,
                    bytes,
                });
            }
            divisions[last][d].0.push(c);
            div_of_comp[c.0 as usize] = last;
        }
    }

    // Output transfers, grouped by (producing device, launch division).
    // For forward: PartialO(qb, producer) -> owner; for backward:
    // PartialDq(qb, producer) and PartialDkv(kb, producer). With
    // `early_output`, a partial launches right after the last division on
    // the producer that contributes to it; otherwise everything launches
    // after the final division (the paper's Listing 3).
    let mut out_ops: Vec<Vec<Vec<Transfer>>> = vec![vec![Vec::new(); t]; n];
    let mut reduce_items: Vec<HashMap<(dcp_blocks::TokenBlockId, PayloadKind), Vec<u32>>> =
        vec![HashMap::new(); n];
    {
        // Last division on each device contributing to each output target.
        let mut last_div: HashMap<(u32, dcp_blocks::TokenBlockId, PayloadKind), usize> =
            HashMap::new();
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            let d = placement.comp_dev(CompBlockId(i as u32));
            let div = if cfg.early_output {
                div_of_comp[i]
            } else {
                t - 1
            };
            let mut touch = |tb, kind| {
                let e = last_div.entry((d, tb, kind)).or_insert(div);
                *e = (*e).max(div);
            };
            if !backward {
                touch(cb.q_block, PayloadKind::PartialO);
            } else {
                touch(cb.q_block, PayloadKind::PartialDq);
                touch(cb.kv_block, PayloadKind::PartialDkv);
            }
        }
        let mut emitted: HashSet<(u32, dcp_blocks::TokenBlockId, PayloadKind)> = HashSet::new();
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            let c = CompBlockId(i as u32);
            let d = placement.comp_dev(c);
            let q_owner = placement.token_dev(cb.q_block);
            let kv_owner = placement.token_dev(cb.kv_block);
            let qb = &layout.token_blocks[cb.q_block.0 as usize];
            let kvb = &layout.token_blocks[cb.kv_block.0 as usize];
            let mut emit = |tb, kind, to: u32, payload, bytes| {
                if emitted.insert((d, tb, kind)) {
                    let div = last_div[&(d, tb, kind)];
                    out_ops[d as usize][div].push(Transfer {
                        from: d,
                        to,
                        payload,
                        bytes,
                    });
                    reduce_items[to as usize]
                        .entry((tb, kind))
                        .or_default()
                        .push(d);
                }
            };
            if !backward {
                if q_owner != d {
                    emit(
                        cb.q_block,
                        PayloadKind::PartialO,
                        q_owner,
                        Payload::PartialO(cb.q_block, d),
                        qb.o_bytes,
                    );
                }
            } else {
                if q_owner != d {
                    emit(
                        cb.q_block,
                        PayloadKind::PartialDq,
                        q_owner,
                        Payload::PartialDq(cb.q_block, d),
                        qb.q_bytes,
                    );
                }
                if kv_owner != d {
                    emit(
                        cb.kv_block,
                        PayloadKind::PartialDkv,
                        kv_owner,
                        Payload::PartialDkv(cb.kv_block, d),
                        kvb.kv_bytes,
                    );
                }
            }
        }
    }

    // Assemble comm ops and instruction streams.
    let mut comms: Vec<CommOp> = Vec::new();
    // comm id of division i on device d (if any).
    let mut div_comm_id: Vec<Vec<Option<CommId>>> = vec![vec![None; n]; t];
    for (i, divs) in divisions.iter().enumerate() {
        for (d, (_, transfers)) in divs.iter().enumerate() {
            if !transfers.is_empty() {
                div_comm_id[i][d] = Some(CommId(comms.len() as u32));
                comms.push(CommOp {
                    transfers: transfers.clone(),
                });
            }
        }
    }
    let mut out_comm_id: Vec<Vec<Option<CommId>>> = vec![vec![None; t]; n];
    for d in 0..n {
        for i in 0..t {
            if !out_ops[d][i].is_empty() {
                out_comm_id[d][i] = Some(CommId(comms.len() as u32));
                comms.push(CommOp {
                    transfers: out_ops[d][i].clone(),
                });
            }
        }
    }

    let mut devices = Vec::with_capacity(n);
    for d in 0..n {
        let mut instrs: Vec<Instr> = Vec::new();
        for i in 0..t {
            if let Some(cid) = div_comm_id[i][d] {
                // Division 0 normally has no communication; when it does
                // (T == 1 collapses everything into one division), launch
                // right before waiting.
                if i == 0 {
                    instrs.push(Instr::CommLaunch(cid));
                }
                instrs.push(Instr::CommWait(cid));
            }
            if i + 1 < t {
                if let Some(cid) = div_comm_id[i + 1][d] {
                    instrs.push(Instr::CommLaunch(cid));
                }
            }
            let (blocks, _) = &divisions[i][d];
            if !blocks.is_empty() {
                let flops: u64 = blocks
                    .iter()
                    .map(|&c| {
                        let f = layout.comp_blocks[c.0 as usize].flops;
                        if backward {
                            f * BWD_RATIO.0 / BWD_RATIO.1
                        } else {
                            f
                        }
                    })
                    .sum();
                if backward {
                    instrs.push(Instr::AttnBwd {
                        items: blocks.clone(),
                        flops,
                    });
                } else {
                    instrs.push(Instr::Attn {
                        items: blocks.clone(),
                        flops,
                    });
                }
            }
            // Launch output partials completed by this division, so the
            // return path overlaps later divisions.
            if let Some(cid) = out_comm_id[d][i] {
                instrs.push(Instr::CommLaunch(cid));
            }
        }
        // Output phase: wait for every op delivering partials to this
        // device (any producer, any division).
        let mut incoming: Vec<CommId> = Vec::new();
        for (s, per_div) in out_comm_id.iter().enumerate() {
            if s == d {
                continue;
            }
            for cid in per_div.iter().flatten() {
                if comms[cid.0 as usize]
                    .transfers
                    .iter()
                    .any(|tr| tr.to == d as u32)
                {
                    incoming.push(*cid);
                }
            }
        }
        for cid in incoming {
            instrs.push(Instr::CommWait(cid));
        }
        if !reduce_items[d].is_empty() {
            let mut items: Vec<ReduceItem> = reduce_items[d]
                .iter()
                .map(|(&(target, kind), sources)| {
                    let mut sources = sources.clone();
                    sources.sort_unstable();
                    ReduceItem {
                        target,
                        sources,
                        kind,
                    }
                })
                .collect();
            items.sort_by_key(|it| (it.target, it.kind));
            let bytes = reduce_bytes(layout, &items);
            instrs.push(Instr::Reduce { items, bytes });
        }

        let owned: Vec<u32> = (0..layout.token_blocks.len() as u32)
            .filter(|&tb| placement.token_to_dev[tb as usize] == d as u32)
            .collect();
        let buffer = compute_stats(layout, &comms, d as u32, &instrs, &owned);
        devices.push(DeviceStream {
            device: d as u32,
            instrs,
            buffer,
        });
    }

    PhasePlan { comms, devices }
}

/// The reduce byte model: read every partial plus the resident
/// accumulator, write the accumulator.
pub fn reduce_bytes(layout: &BatchLayout, items: &[ReduceItem]) -> u64 {
    items
        .iter()
        .map(|it| {
            let tb = &layout.token_blocks[it.target.0 as usize];
            it.kind.bytes(tb) * (it.sources.len() as u64 + 2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_plan;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout(seqs: &[(u32, MaskSpec)], bs: u32) -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: bs,
                head_blocks: 1,
            },
            seqs,
        )
        .unwrap()
    }

    /// Ring-like placement: token block i of a single sequence to device
    /// i % n; comp with its q block.
    fn ring_placement(l: &BatchLayout, n: u32) -> Placement {
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        }
    }

    #[test]
    fn plan_validates_and_covers_all_blocks() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        verify_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn all_local_placement_has_no_comm() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement::all_on_zero(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        verify_plan(&l, &p, &plan).unwrap();
        assert_eq!(plan.total_comm_bytes(), 0);
        assert!(plan.fwd.comms.is_empty());
    }

    #[test]
    fn forward_comm_matches_connectivity_accounting() {
        // Each remote (block, consumer-device) pair is fetched exactly once,
        // and each remote partial returned once: total volume must equal the
        // sum over token blocks of
        //   q_bytes * |remote q-consumer devs| + o_bytes * (same)
        //   + kv_bytes * |remote kv-consumer devs|.
        let l = layout(&[(4096, MaskSpec::Causal), (1024, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let mut expect = 0u64;
        for (t, tb) in l.token_blocks.iter().enumerate() {
            let owner = p.token_to_dev[t];
            let q_devs: HashSet<u32> = l.q_consumers[t]
                .iter()
                .map(|&c| p.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            let kv_devs: HashSet<u32> = l.kv_consumers[t]
                .iter()
                .map(|&c| p.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            expect += (tb.q_bytes + tb.o_bytes) * q_devs.len() as u64
                + tb.kv_bytes * kv_devs.len() as u64;
        }
        assert_eq!(plan.fwd.total_comm_bytes(), expect);
    }

    #[test]
    fn division_zero_is_local() {
        let l = layout(&[(8192, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        for stream in &plan.fwd.devices {
            // The first attention instruction must come before any CommWait.
            let first_attn = stream
                .instrs
                .iter()
                .position(|i| matches!(i, Instr::Attn { .. }));
            let first_wait = stream
                .instrs
                .iter()
                .position(|i| matches!(i, Instr::CommWait(_)));
            if let (Some(a), Some(w)) = (first_attn, first_wait) {
                assert!(a < w, "division 0 should compute before any wait");
            }
        }
    }

    #[test]
    fn backward_has_gradient_returns() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let has_dkv = plan
            .bwd
            .comms
            .iter()
            .flat_map(|c| c.transfers.iter())
            .any(|t| matches!(t.payload, Payload::PartialDkv(..)));
        assert!(has_dkv, "ring placement must return dKV partials");
        // Backward communicates at least as much as forward (extra dO and
        // gradient returns).
        assert!(plan.bwd.total_comm_bytes() >= plan.fwd.total_comm_bytes());
    }

    #[test]
    fn divisions_bound_comm_per_source() {
        // With T divisions, each middle division's per-source volume must be
        // within the cap (last division is exempt by construction).
        let l = layout(&[(16384, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        let t = 4u32;
        let plan = build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: t,
                ..Default::default()
            },
        )
        .unwrap();
        // Reconstruct per-op incoming volume; all input ops except possibly
        // one (the last division) must respect ceil(total/T) per source.
        for d in 0..2u32 {
            let mut totals: HashMap<u32, u64> = HashMap::new();
            let mut per_op: Vec<HashMap<u32, u64>> = Vec::new();
            for op in &plan.fwd.comms {
                let mut m: HashMap<u32, u64> = HashMap::new();
                for tr in &op.transfers {
                    if tr.to == d && matches!(tr.payload.kind(), PayloadKind::Q | PayloadKind::Kv) {
                        *m.entry(tr.from).or_insert(0) += tr.bytes;
                        *totals.entry(tr.from).or_insert(0) += tr.bytes;
                    }
                }
                if !m.is_empty() {
                    per_op.push(m);
                }
            }
            let violations = per_op
                .iter()
                .filter(|m| {
                    m.iter()
                        .any(|(&src, &b)| b > totals[&src].div_ceil(t as u64))
                })
                .count();
            assert!(
                violations <= 1,
                "device {d}: {violations} over-cap divisions"
            );
        }
    }

    #[test]
    fn t1_schedules_everything_in_one_division() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: 1,
                ..Default::default()
            },
        )
        .unwrap();
        verify_plan(&l, &p, &plan).unwrap();
        for stream in &plan.fwd.devices {
            let attn_count = stream
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::Attn { .. }))
                .count();
            assert!(attn_count <= 1);
        }
    }

    #[test]
    fn sparse_mask_reduces_comm() {
        let lc = layout(&[(32768, MaskSpec::Causal)], 1024);
        let ll = layout(
            &[(
                32768,
                MaskSpec::Lambda {
                    sink: 64,
                    window: 2048,
                },
            )],
            1024,
        );
        let pc = ring_placement(&lc, 4);
        let pl = ring_placement(&ll, 4);
        let plan_c = build_plan(&lc, &pc, &ScheduleConfig::default()).unwrap();
        let plan_l = build_plan(&ll, &pl, &ScheduleConfig::default()).unwrap();
        assert!(
            plan_l.fwd.total_comm_bytes() < plan_c.fwd.total_comm_bytes(),
            "lambda mask should need fewer KV fetches even under the same placement"
        );
    }

    #[test]
    fn plan_json_roundtrip() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let s = plan.to_json().unwrap();
        let back = ExecutionPlan::from_json(&s).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn rejects_bad_inputs() {
        let l = layout(&[(1024, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        assert!(build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: 0,
                ..Default::default()
            }
        )
        .is_err());
        let mut bad = p.clone();
        bad.comp_to_dev.pop();
        assert!(build_plan(&l, &bad, &ScheduleConfig::default()).is_err());
    }
}
