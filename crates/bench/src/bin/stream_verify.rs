//! CI stream-legality sweep: runs the `dcp_sched::verify` checker over
//! every plan the benchmark workload produces — all fallback tiers, the
//! pass-optimized rewrites and every forward and backward recovery-patch
//! rendering — and over a battery of seeded illegal mutations that the
//! verifier must *reject* with a typed diagnostic.
//!
//! Writes `VERIFY_streams.json` (uploaded as a CI artifact) and exits
//! non-zero on any illegal stream or any accepted mutation, so a scheduler
//! or patcher regression that emits a malformed stream fails the `verify`
//! job even when no numeric test happens to execute that plan.
//!
//! Workload: the `perf_report` batches (p4de(2), LongDataCollections,
//! block 128, 3 mask settings, `DCP_BENCH_BATCHES` batches per mask).

use std::process::exit;

use dcp_bench::BENCH_SCHEMA_VERSION;
use dcp_core::{FailureEvent, Planner, PlannerConfig, RecoveryConfig, RecoveryPlanner};
use dcp_data::{pack_batches, sample_lengths, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_sched::{
    verify_phase, verify_plan, verify_structure, CommId, Diagnostic, ExecutionPlan, Instr,
    PassConfig, PassManager, Payload, PayloadKind, PhasePlan, Placement, ViolationKind,
};
use dcp_types::{AttnSpec, ClusterSpec, PlanTier};
use serde_json::json;

const SEED: u64 = 7;
const BUDGET: u64 = 8192;
const MAX_LEN: u32 = 2048;
const BLOCK_SIZE: u32 = 128;

fn exec_attn() -> AttnSpec {
    AttnSpec::new(4, 2, 16, 1)
}

fn batches_per_mask() -> usize {
    std::env::var("DCP_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// One plan candidate the mutation battery can draw from.
struct Candidate {
    layout: dcp_blocks::BatchLayout,
    placement: Placement,
    plan: ExecutionPlan,
}

/// A seeded illegal rewrite: returns `true` when it could be applied to
/// this plan (some mutations need a partial transfer or a multi-device op
/// to exist).
type Mutation = (
    &'static str,
    &'static [ViolationKind],
    fn(&mut ExecutionPlan) -> bool,
);

fn mutate_wait_before_launch(plan: &mut ExecutionPlan) -> bool {
    for stream in &mut plan.fwd.devices {
        for i in 0..stream.instrs.len() {
            if let Instr::CommLaunch(cid) = stream.instrs[i] {
                let input_only = plan.fwd.comms[cid.0 as usize]
                    .transfers
                    .iter()
                    .all(|t| matches!(t.payload.kind(), PayloadKind::Q | PayloadKind::Kv));
                if !input_only {
                    continue;
                }
                if let Some(j) = stream.instrs[i + 1..]
                    .iter()
                    .position(|x| *x == Instr::CommWait(cid))
                {
                    let wait = stream.instrs.remove(i + 1 + j);
                    stream.instrs.insert(i, wait);
                    return true;
                }
            }
        }
    }
    false
}

fn mutate_duplicate_compute(plan: &mut ExecutionPlan) -> bool {
    for stream in &mut plan.fwd.devices {
        for ins in &mut stream.instrs {
            if let Instr::Attn { items, .. } = ins {
                if let Some(&c) = items.first() {
                    items.push(c);
                    return true;
                }
            }
        }
    }
    false
}

fn mutate_drop_input_transfer(plan: &mut ExecutionPlan) -> bool {
    for op in &mut plan.fwd.comms {
        if let Some(pos) = op
            .transfers
            .iter()
            .position(|t| matches!(t.payload, Payload::Q(_) | Payload::Kv(_)))
        {
            op.transfers.remove(pos);
            return true;
        }
    }
    false
}

fn mutate_out_of_range_comm_id(plan: &mut ExecutionPlan) -> bool {
    let bogus = CommId(plan.fwd.comms.len() as u32 + 7);
    plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
    true
}

fn mutate_self_transfer(plan: &mut ExecutionPlan) -> bool {
    for op in &mut plan.fwd.comms {
        for tr in &mut op.transfers {
            if matches!(tr.payload, Payload::Q(_) | Payload::Kv(_)) {
                tr.from = tr.to;
                return true;
            }
        }
    }
    false
}

fn mutate_drop_attn(plan: &mut ExecutionPlan) -> bool {
    for stream in &mut plan.fwd.devices {
        if let Some(i) = stream
            .instrs
            .iter()
            .position(|ins| matches!(ins, Instr::Attn { .. }))
        {
            stream.instrs.remove(i);
            return true;
        }
    }
    false
}

fn mutate_phantom_reduce_source(plan: &mut ExecutionPlan) -> bool {
    let nd = plan.num_devices;
    for stream in &mut plan.fwd.devices {
        let dev = stream.device;
        for ins in &mut stream.instrs {
            if let Instr::Reduce { items, .. } = ins {
                for item in items.iter_mut() {
                    if let Some(phantom) = (0..nd).find(|d| !item.sources.contains(d) && *d != dev)
                    {
                        item.sources.push(phantom);
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn mutate_misdirect_partial(plan: &mut ExecutionPlan) -> bool {
    let nd = plan.num_devices;
    for op in &mut plan.fwd.comms {
        for tr in &mut op.transfers {
            if matches!(tr.payload, Payload::PartialO(..)) {
                tr.to = (tr.to + 1) % nd;
                if tr.to == tr.from {
                    tr.to = (tr.to + 1) % nd;
                }
                return true;
            }
        }
    }
    false
}

const MUTATIONS: &[Mutation] = &[
    (
        "wait-before-launch",
        &[ViolationKind::WaitWithoutLaunch],
        mutate_wait_before_launch,
    ),
    (
        "duplicate-compute",
        &[ViolationKind::DuplicateCompute],
        mutate_duplicate_compute,
    ),
    (
        "dropped-input-transfer",
        &[
            ViolationKind::MissingInput,
            ViolationKind::WaitReceivesNothing,
        ],
        mutate_drop_input_transfer,
    ),
    (
        "out-of-range-comm-id",
        &[ViolationKind::CommIdOutOfRange],
        mutate_out_of_range_comm_id,
    ),
    (
        "self-transfer",
        &[ViolationKind::SelfTransfer],
        mutate_self_transfer,
    ),
    (
        "dropped-attn",
        &[
            ViolationKind::MissingCompute,
            ViolationKind::MissingProducerState,
            ViolationKind::MissingPartial,
            ViolationKind::Deadlock,
        ],
        mutate_drop_attn,
    ),
    (
        "phantom-reduce-source",
        &[ViolationKind::MissingPartial],
        mutate_phantom_reduce_source,
    ),
    (
        "misdirected-partial",
        &[
            ViolationKind::BadRoute,
            ViolationKind::MissingPartial,
            ViolationKind::WaitReceivesNothing,
            ViolationKind::Deadlock,
        ],
        mutate_misdirect_partial,
    ),
];

/// The device with the most fused attention divisions in `phase` (lowest
/// rank on a tie) and that count.
fn busiest(phase: &PhasePlan) -> (u32, u32) {
    (phase.devices.iter().enumerate())
        .map(|(i, s)| {
            let divs = s
                .instrs
                .iter()
                .filter(|ins| matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. }))
                .count() as u32;
            (i as u32, divs)
        })
        .max_by_key(|&(i, divs)| (divs, std::cmp::Reverse(i)))
        .expect("nonempty plan")
}

fn diag_json(d: &Diagnostic) -> serde_json::Value {
    serde_json::to_value(d).expect("diagnostic serializes")
}

fn main() {
    let cluster = ClusterSpec::p4de(2);
    let attn = exec_attn();
    let n = batches_per_mask();
    let masks = [
        MaskSetting::Causal,
        MaskSetting::Lambda,
        MaskSetting::SharedQuestion,
    ];
    let pm = PassManager::new(PassConfig::optimize());

    let mut failures: Vec<String> = Vec::new();
    let mut stream_rows = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();

    // Every fallback tier over every batch, raw and pass-optimized.
    for mask in masks {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<Vec<(u32, MaskSpec)>> =
            pack_batches(&lengths, BUDGET, |l| mask.mask_for(l))
                .into_iter()
                .take(n)
                .map(|b| b.seqs)
                .collect();
        for (bi, batch) in batches.iter().enumerate() {
            for tier in PlanTier::all() {
                let planner = Planner::new(
                    cluster.clone(),
                    attn,
                    PlannerConfig {
                        block_size: BLOCK_SIZE,
                        force_tier: Some(tier),
                        ..Default::default()
                    },
                );
                let out = match planner.plan(batch) {
                    Ok(out) => out,
                    Err(e) => {
                        failures.push(format!(
                            "{}/batch{bi}/{}: planning failed: {e}",
                            mask.name(),
                            tier.label()
                        ));
                        continue;
                    }
                };
                let raw = verify_plan(&out.layout, &out.placement, &out.plan).err();
                let mut optimized = out.plan.clone();
                pm.run_plan(&out.layout, &out.placement, &mut optimized);
                let opt = verify_plan(&out.layout, &out.placement, &optimized).err();
                let fwd_structure = verify_structure(&out.plan.fwd).err();
                let bwd_structure = verify_structure(&out.plan.bwd).err();
                for (what, err) in [
                    ("raw", &raw),
                    ("optimized", &opt),
                    ("fwd-structure", &fwd_structure),
                    ("bwd-structure", &bwd_structure),
                ] {
                    if let Some(d) = err {
                        failures.push(format!(
                            "{}/batch{bi}/{} ({what}): {d}",
                            mask.name(),
                            tier.label()
                        ));
                    }
                }
                stream_rows.push(json!({
                    "mask": mask.name(),
                    "batch": bi,
                    "tier": tier.label(),
                    "comm_ops": out.plan.fwd.comms.len() + out.plan.bwd.comms.len(),
                    "comm_bytes": out.plan.total_comm_bytes(),
                    "raw_ok": raw.is_none(),
                    "optimized_ok": opt.is_none(),
                    "raw_diagnostic": raw.as_ref().map(diag_json),
                    "optimized_diagnostic": opt.as_ref().map(diag_json),
                }));
                if tier == PlanTier::Partitioned {
                    candidates.push(Candidate {
                        layout: out.layout,
                        placement: out.placement,
                        plan: out.plan,
                    });
                }
            }
        }
    }

    // Recovery patches: the functional forward phase under the salvage
    // rules, the re-planned backward phase and the host-folded timing plan.
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let mut recovery_rows = Vec::new();
    let mut recovery_bwd_rows = Vec::new();
    {
        let planner = Planner::new(
            cluster.clone(),
            attn,
            PlannerConfig {
                block_size: BLOCK_SIZE,
                ..Default::default()
            },
        );
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<Vec<(u32, MaskSpec)>> =
            pack_batches(&lengths, BUDGET, |l| MaskSetting::Causal.mask_for(l))
                .into_iter()
                .take(n)
                .map(|b| b.seqs)
                .collect();
        for (bi, batch) in batches.iter().enumerate() {
            let out = planner.plan(batch).expect("plan");
            let (dev, nd) = busiest(&out.plan.fwd);
            if nd < 2 {
                continue;
            }
            let patch = match rp.plan_recovery(
                &out,
                &FailureEvent {
                    device: dev,
                    divisions_done: (nd / 2).max(1),
                },
            ) {
                Ok(p) => p,
                Err(e) => {
                    failures.push(format!("recovery/batch{bi}: patch planning failed: {e}"));
                    continue;
                }
            };
            let ctx = patch.verify_ctx();
            let fwd = verify_phase(&out.layout, &patch.placement, &patch.fwd, false, &ctx).err();
            let bwd = verify_plan(&out.layout, &patch.bwd_placement, &patch.bwd).err();
            let timing = verify_structure(&patch.timing).err();
            let mut opt_fwd_phase = patch.fwd.clone();
            pm.run_phase(
                &out.layout,
                &mut opt_fwd_phase,
                "recovery_fwd",
                &patch.salvage_comms,
            );
            let opt_fwd =
                verify_phase(&out.layout, &patch.placement, &opt_fwd_phase, false, &ctx).err();
            for (what, err) in [
                ("fwd", &fwd),
                ("bwd", &bwd),
                ("timing", &timing),
                ("optimized-fwd", &opt_fwd),
            ] {
                if let Some(d) = err {
                    failures.push(format!("recovery/batch{bi} ({what}): {d}"));
                }
            }
            let diagnostics: Vec<_> = [&fwd, &bwd, &timing, &opt_fwd]
                .iter()
                .filter_map(|e| e.as_ref().map(diag_json))
                .collect();
            recovery_rows.push(json!({
                "batch": bi,
                "failed_device": dev,
                "divisions_done": (nd / 2).max(1),
                "fwd_ok": fwd.is_none(),
                "bwd_ok": bwd.is_none(),
                "timing_ok": timing.is_none(),
                "optimized_fwd_ok": opt_fwd.is_none(),
                "diagnostics": diagnostics,
            }));

            // A mid-backward failure of the busiest backward stream: the
            // salvaged backward phase under its recovery context and the
            // host-folded timing phase structurally.
            let (dev, ndb) = busiest(&out.plan.bwd);
            let ev = FailureEvent {
                device: dev,
                divisions_done: ndb / 2,
            };
            let patch = match rp.plan_backward_recovery(&out, &ev) {
                Ok(p) => p,
                Err(e) => {
                    failures.push(format!(
                        "recovery-bwd/batch{bi}: patch planning failed: {e}"
                    ));
                    continue;
                }
            };
            let ctx = patch.verify_ctx();
            let bwd = verify_phase(&out.layout, &patch.placement, &patch.bwd, true, &ctx).err();
            let timing = verify_structure(&patch.timing).err();
            for (what, err) in [("bwd", &bwd), ("timing", &timing)] {
                if let Some(d) = err {
                    failures.push(format!("recovery-bwd/batch{bi} ({what}): {d}"));
                }
            }
            let diagnostics: Vec<_> = [&bwd, &timing]
                .iter()
                .filter_map(|e| e.as_ref().map(diag_json))
                .collect();
            recovery_bwd_rows.push(json!({
                "batch": bi,
                "failed_device": dev,
                "divisions_done": ev.divisions_done,
                "bwd_ok": bwd.is_none(),
                "timing_ok": timing.is_none(),
                "diagnostics": diagnostics,
            }));
        }
    }

    // Seeded illegal mutations: each must be rejected with a typed
    // diagnostic of the expected kind. Candidates come from the partitioned
    // tier above; a mutation that applies to no candidate is a failure
    // (the battery has gone stale against the scheduler's output shape).
    let mut mutation_rows = Vec::new();
    for (name, expected, apply) in MUTATIONS {
        let mut applied = false;
        for cand in &candidates {
            let mut plan = cand.plan.clone();
            if !apply(&mut plan) {
                continue;
            }
            applied = true;
            match verify_plan(&cand.layout, &cand.placement, &plan) {
                Ok(()) => {
                    failures.push(format!(
                        "mutation {name}: verifier ACCEPTED an illegal stream"
                    ));
                    mutation_rows.push(json!({
                        "mutation": name,
                        "rejected": false,
                    }));
                }
                Err(d) => {
                    let kind_ok = expected.contains(&d.kind);
                    if !kind_ok {
                        failures.push(format!(
                            "mutation {name}: rejected with unexpected kind {} \
                             (expected one of {expected:?}): {d}",
                            d.kind
                        ));
                    }
                    mutation_rows.push(json!({
                        "mutation": name,
                        "rejected": true,
                        "kind_ok": kind_ok,
                        "diagnostic": diag_json(&d),
                    }));
                }
            }
            break;
        }
        if !applied {
            failures.push(format!("mutation {name}: applied to no candidate plan"));
        }
    }

    let ok = failures.is_empty();
    let report = json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "cluster": "p4de(2)",
            "dataset": "LongDataCollections",
            "max_len": MAX_LEN,
            "budget_tokens": BUDGET,
            "block_size": BLOCK_SIZE,
            "seed": SEED,
            "batches_per_mask": n,
        },
        "streams": stream_rows,
        "recovery": recovery_rows,
        "recovery_bwd": recovery_bwd_rows,
        "mutations": mutation_rows,
        "failures": failures,
        "ok": ok,
    });
    std::fs::write(
        "VERIFY_streams.json",
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write VERIFY_streams.json: {e}"));
    println!(
        "stream_verify: {} streams, {} + {} fwd + bwd recovery patches, {} mutations — {}",
        report["streams"].as_array().unwrap().len(),
        report["recovery"].as_array().unwrap().len(),
        report["recovery_bwd"].as_array().unwrap().len(),
        report["mutations"].as_array().unwrap().len(),
        if ok { "OK" } else { "FAIL" }
    );
    println!("[written VERIFY_streams.json]");
    if !ok {
        for f in report["failures"].as_array().unwrap() {
            eprintln!("stream_verify: FAIL: {}", f.as_str().unwrap_or("?"));
        }
        exit(1);
    }
}
