//! Elastic recovery, end to end: kill devices mid-iteration, patch the plan
//! onto the survivors plus replacement shards, and finish with output
//! *bitwise identical* to the unfaulted run — redoing only the un-executed
//! computation blocks and salvaging the partials the dead streams already
//! reduced. Covers single failures, cascading (depth-2) failures where a
//! shard-hosting survivor dies mid-patch, backward-phase failures salvaged
//! at reduction frontiers, and a randomized property sweep.
//!
//! Tests that exercise the determinism leg mutate `RAYON_NUM_THREADS`,
//! which is process-global state; they serialize on [`ENV_LOCK`]
//! (mirroring `tests/determinism.rs` and `tests/fault_determinism.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dcp::blocks::TokenBlockId;
use dcp::core::recovery::{FailureEvent, RecoveryConfig, RecoveryPlanner};
use dcp::core::{
    simulate_iteration, simulate_iteration_with_recovery, E2eConfig, PlanOutput, Planner,
    PlannerConfig,
};
use dcp::exec::executor::{
    execute_backward, execute_backward_recovery, execute_forward, execute_forward_recovery,
    BatchData, BlockGrads, BlockOut, ExecObs,
};
use dcp::mask::MaskSpec;
use dcp::obs::{FlightRecorder, ObsHandle, RecorderConfig, RecordingSink};
use dcp::sched::Instr;
use dcp::sim::{simulate_phase, simulate_plan};
use dcp::types::{AttnSpec, ClusterSpec, DcpError, ModelSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Serializes tests that mutate `RAYON_NUM_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A small 8-device batch with skewed sequence lengths and mixed masks, so
/// the placement is non-trivial and every device carries several divisions.
fn plan_small() -> (ClusterSpec, PlanOutput) {
    let cluster = ClusterSpec::single_node(8);
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let seqs = vec![
        (200, MaskSpec::Causal),
        (
            160,
            MaskSpec::Lambda {
                sink: 4,
                window: 24,
            },
        ),
        (120, MaskSpec::Causal),
        (96, MaskSpec::Causal),
        (64, MaskSpec::Causal),
    ];
    let out = planner.plan(&seqs).unwrap();
    (cluster, out)
}

/// The device with the most attention divisions in the forward plan (ties
/// broken toward the lowest id), and its division count.
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
        .unwrap()
}

/// Clean-run forward outputs and a seeded output-gradient batch.
#[allow(clippy::type_complexity)]
fn clean_run(
    out: &PlanOutput,
    data: &BatchData,
) -> (
    HashMap<TokenBlockId, BlockOut>,
    HashMap<TokenBlockId, Vec<f32>>,
) {
    let fwd = execute_forward(&out.layout, &out.placement, &out.plan, data).unwrap();
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    (fwd, d_o)
}

/// Bitwise fingerprint of a forward result, in token-block order.
fn out_bits(outs: &HashMap<TokenBlockId, BlockOut>) -> Vec<u32> {
    let mut keys: Vec<TokenBlockId> = outs.keys().copied().collect();
    keys.sort_by_key(|t| t.0);
    let mut bits = Vec::new();
    for id in keys {
        let b = &outs[&id];
        bits.extend(b.o.iter().map(|v| v.to_bits()));
        bits.extend(b.lse.iter().map(|v| v.to_bits()));
    }
    bits
}

/// Bitwise fingerprint of backward gradients (dQ, dK, dV), in token-block
/// order.
fn grad_bits(grads: &HashMap<TokenBlockId, BlockGrads>) -> Vec<u32> {
    let mut keys: Vec<TokenBlockId> = grads.keys().copied().collect();
    keys.sort_by_key(|t| t.0);
    let mut bits = Vec::new();
    for id in keys {
        let g = &grads[&id];
        for v in [&g.dq, &g.dk, &g.dv] {
            bits.extend(v.iter().map(|x| x.to_bits()));
        }
    }
    bits
}

#[test]
fn mid_iteration_recovery_end_to_end() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, out) = plan_small();
    let (dev, nd) = busiest_device(&out);
    assert!(nd >= 3, "victim needs >= 3 attention divisions, got {nd}");
    let k = 2u32;

    // Unfaulted reference run.
    let data = BatchData::random(&out.layout, 2024);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();

    // Patch-plan the failure with a recording sink: the incident and the
    // recovery plan must land in the observability stream.
    let sink = Arc::new(RecordingSink::new());
    let rp = RecoveryPlanner::new(RecoveryConfig::default()).with_obs(ObsHandle::new(
        sink.clone() as Arc<dyn dcp::obs::ObsSink + Send + Sync>
    ));
    let ev = FailureEvent {
        device: dev,
        divisions_done: k,
    };
    let patch = rp.plan_recovery(&out, &ev).unwrap();

    let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
    for required in ["device_lost", "recovery_plan", "recovery_redone_flops"] {
        assert!(
            names.iter().any(|n| n == required),
            "obs stream missing {required:?}: {names:?}"
        );
    }

    // Only un-executed computation is redone: strictly less than half of
    // the failed device's flops, and something was salvaged rather than
    // recomputed.
    let st = patch.stats;
    assert!(st.failed_flops > 0 && st.redone_flops > 0);
    assert!(
        (st.redone_flops as f64) < 0.5 * st.failed_flops as f64,
        "redid {} of {} flops",
        st.redone_flops,
        st.failed_flops
    );
    assert!(st.salvage_bytes > 0, "no partial outputs were salvaged");
    assert!(st.residual_units > 0);

    // Execute the patched forward: survivors + replacement shards, with the
    // failed device replaying only its pre-failure prefix.
    let ctx = patch.verify_ctx();
    let rec = execute_forward_recovery(
        &out.layout,
        &patch.placement,
        &patch.fwd,
        &data,
        &ctx,
        &ExecObs::disabled(),
    )
    .unwrap();

    // The merged output bitwise-equals the unfaulted run, every block.
    assert_eq!(clean.len(), rec.len());
    for (id, c) in &clean {
        let r = &rec[id];
        assert_eq!(
            c.o.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.o.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "O differs on block {id:?}"
        );
        assert_eq!(
            c.lse.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.lse.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "LSE differs on block {id:?}"
        );
    }

    // Backward completes on the shrunk placement: the dead device gets no
    // backward attention work, and every block still receives gradients.
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    assert!(patch.bwd.bwd.devices[dev as usize]
        .instrs
        .iter()
        .all(|ins| !matches!(ins, Instr::AttnBwd { .. })));
    let grads = execute_backward(
        &out.layout,
        &patch.bwd_placement,
        &patch.bwd,
        &data,
        &rec,
        &d_o,
    )
    .unwrap();
    assert_eq!(grads.len(), out.layout.token_blocks.len());

    // Recovery wall time is charged into the iteration breakdown: the
    // patched timing plan (shard work spliced onto the survivor hosts) is
    // simulated on the *physical* cluster, and its overhead over the clean
    // forward plus the patch-planning wall time lands in `recovery`.
    let clean_fwd = simulate_phase(&cluster, &out.plan.fwd).unwrap();
    let rec_fwd = simulate_phase(&cluster, &patch.timing).unwrap();
    assert_eq!(rec_fwd.devices.len(), cluster.num_devices() as usize);
    assert!(rec_fwd.makespan > 0.0);
    let overhead = (rec_fwd.makespan - clean_fwd.makespan).max(0.0) + st.plan_wall_s;
    assert!(overhead > 0.0);

    let plan_sim = simulate_plan(&cluster, &out.plan).unwrap();
    let e2e = E2eConfig {
        model: ModelSpec::gpt_8b(),
        tp: 1,
        cluster: cluster.clone(),
    };
    let mut device_tokens = vec![0u64; cluster.num_devices() as usize];
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        device_tokens[out.placement.token_dev(TokenBlockId(i as u32)) as usize] += tb.len as u64;
    }
    let max_tokens = *device_tokens.iter().max().unwrap();
    let total_tokens: u64 = out.layout.seq_lens.iter().map(|&l| l as u64).sum();
    let base = simulate_iteration(&e2e, &plan_sim, max_tokens, total_tokens);
    let with_rec =
        simulate_iteration_with_recovery(&e2e, &plan_sim, max_tokens, total_tokens, overhead);
    assert_eq!(with_rec.recovery, overhead);
    assert!((with_rec.total - base.total - overhead).abs() < 1e-12);

    // Determinism: the whole patch pipeline — plan, patch, execute the
    // recovery — is bitwise identical across thread counts.
    let run = || {
        let (_, out) = plan_small();
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &ev)
            .unwrap();
        let data = BatchData::random(&out.layout, 2024);
        let ctx = patch.verify_ctx();
        let rec = execute_forward_recovery(
            &out.layout,
            &patch.placement,
            &patch.fwd,
            &data,
            &ctx,
            &ExecObs::disabled(),
        )
        .unwrap();
        (
            patch.placement.token_to_dev.clone(),
            patch.placement.comp_to_dev.clone(),
            patch.stats.redone_flops,
            out_bits(&rec),
        )
    };
    let parallel = run();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let other = run();
        assert_eq!(parallel.0, other.0, "token placement differs at {threads}");
        assert_eq!(parallel.1, other.1, "comp placement differs at {threads}");
        assert_eq!(parallel.2, other.2, "redone flops differ at {threads}");
        assert_eq!(parallel.3, other.3, "recovery bits differ at {threads}");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(parallel.3, out_bits(&rec), "recovery run is not repeatable");
}

/// Cascading failure: a survivor that hosts a recovery shard dies while
/// executing the first patch. The second patch composes over the first —
/// salvaging both the victim's own stream and its spliced shard — and the
/// merged output is still bitwise identical to the unfaulted run, with
/// total redone work bounded below 75% of the two dead ranks' flops.
#[test]
fn cascading_failure_composes_patches_bitwise() {
    let (_, out) = plan_small();
    let d = out.plan.num_devices;
    let (dev1, nd1) = busiest_device(&out);
    assert!(nd1 >= 3);
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let patch1 = rp
        .plan_recovery(
            &out,
            &FailureEvent {
                device: dev1,
                divisions_done: nd1 / 2,
            },
        )
        .unwrap();
    assert_eq!(patch1.stats.cascade_depth, 1);

    // Second victim: the shard-hosting survivor whose spliced shard carries
    // the most attention work, so the cascade really kills a mid-patch
    // shard and not just an idle host.
    let divs = |instrs: &[Instr]| {
        instrs
            .iter()
            .filter(|ins| matches!(ins, Instr::Attn { .. }))
            .count() as u32
    };
    let (j2, _) = patch1
        .shard_hosts
        .iter()
        .enumerate()
        .map(|(j, _)| (j, divs(&patch1.fwd.devices[(d + j as u32) as usize].instrs)))
        .max_by_key(|&(j, n)| (n, std::cmp::Reverse(j)))
        .unwrap();
    let dev2 = patch1.shard_hosts[j2];
    let own2 = divs(&patch1.fwd.devices[dev2 as usize].instrs);
    let shard2 = divs(&patch1.fwd.devices[(d + j2 as u32) as usize].instrs);
    assert!(
        shard2 >= 1,
        "second victim must host spliced attention work"
    );
    // Kill after finishing its own stream plus part of the spliced shard.
    let k2 = own2 + (shard2 / 2).max(1).min(shard2);

    // Depth-2 recovery must always leave a postmortem, even when the
    // bundle buffer is already full (max_pending = 0 blocks every
    // ordinary trigger).
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
        max_pending: 0,
        ..RecorderConfig::default()
    }));
    let rp2 = RecoveryPlanner::new(RecoveryConfig::default()).with_obs(ObsHandle::new(
        recorder.clone() as Arc<dyn dcp::obs::ObsSink + Send + Sync>,
    ));
    let patch2 = rp2
        .plan_recovery_onto(
            &out,
            &patch1,
            &FailureEvent {
                device: dev2,
                divisions_done: k2,
            },
        )
        .unwrap();
    assert_eq!(patch2.stats.cascade_depth, 2);
    assert!(patch2.failed_devices == vec![dev1, dev2]);
    assert!(patch2.failed_streams.contains(&dev1));
    assert!(patch2.failed_streams.contains(&dev2));
    assert!(
        patch2.failed_streams.contains(&(d + j2 as u32)),
        "the hosted shard stream dies with its host"
    );

    // The cascade froze a postmortem despite the zero-capacity buffer.
    let bundles = recorder.take_postmortems();
    assert!(
        bundles
            .iter()
            .any(|b| b.trigger == "recovery_plan" && b.trigger_event.value == Some(2.0)),
        "depth-2 recovery must freeze a postmortem bundle"
    );

    // Bitwise-identical merged output at cascade depth 2.
    let data = BatchData::random(&out.layout, 2024);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();
    let rec = execute_forward_recovery(
        &out.layout,
        &patch2.placement,
        &patch2.fwd,
        &data,
        &patch2.verify_ctx(),
        &ExecObs::disabled(),
    )
    .unwrap();
    assert_eq!(out_bits(&clean), out_bits(&rec), "cascade output diverged");

    // Redone-work bound: both patches together redo strictly less than
    // 75% of the two dead ranks' attention flops.
    let redone = patch1.stats.redone_flops + patch2.stats.redone_flops;
    let lost = patch1.stats.failed_flops + patch2.stats.failed_flops;
    assert!(lost > 0);
    assert!(
        (redone as f64) < 0.75 * lost as f64,
        "cascade redid {redone} of {lost} flops"
    );

    // Determinism at depth 2: both thread counts reproduce the exact
    // placement and bits.
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let other = execute_forward_recovery(
            &out.layout,
            &patch2.placement,
            &patch2.fwd,
            &data,
            &patch2.verify_ctx(),
            &ExecObs::disabled(),
        )
        .unwrap();
        assert_eq!(
            out_bits(&rec),
            out_bits(&other),
            "cascade bits differ at {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// A failure mid-backward is salvaged at the reduction frontier: the dead
/// stream's partial dQ/dKV running sums move to replacement shards instead
/// of being recomputed, and the final gradients are bitwise identical to
/// the unfaulted backward.
#[test]
fn backward_phase_failure_salvages_partial_accumulators() {
    let (_, out) = plan_small();
    let (dev, nd) = out
        .plan
        .bwd
        .devices
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let n = s
                .instrs
                .iter()
                .filter(|ins| matches!(ins, Instr::AttnBwd { .. }))
                .count() as u32;
            (i as u32, n)
        })
        .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
        .unwrap();
    assert!(nd >= 2, "victim needs >= 2 backward divisions, got {nd}");

    let data = BatchData::random(&out.layout, 2024);
    let (fwd_out, d_o) = clean_run(&out, &data);
    let clean = execute_backward(
        &out.layout,
        &out.placement,
        &out.plan,
        &data,
        &fwd_out,
        &d_o,
    )
    .unwrap();

    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let patch = rp
        .plan_backward_recovery(
            &out,
            &FailureEvent {
                device: dev,
                divisions_done: nd / 2,
            },
        )
        .unwrap();

    // Partial accumulators were salvaged, and strictly less than the whole
    // backward stream is redone.
    let st = &patch.stats;
    assert!(st.salvage_bytes > 0, "no backward accumulators salvaged");
    assert!(st.failed_flops > 0 && st.redone_flops > 0);
    assert!(
        st.redone_flops < st.failed_flops,
        "backward salvage redid the full stream: {} of {}",
        st.redone_flops,
        st.failed_flops
    );

    let rec = execute_backward_recovery(
        &out.layout,
        &patch.placement,
        &patch.bwd,
        &data,
        &fwd_out,
        &d_o,
        &patch.verify_ctx(),
        &ExecObs::disabled(),
    )
    .unwrap();
    assert_eq!(clean.len(), rec.len());
    for (id, c) in &clean {
        let r = &rec[id];
        for (name, a, b) in [
            ("dQ", &c.dq, &r.dq),
            ("dK", &c.dk, &r.dk),
            ("dV", &c.dv, &r.dv),
        ] {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name} differs on block {id:?}"
            );
        }
    }
}

/// An out-of-range frontier is a typed error carrying the device and the
/// bogus `divisions_done`, for both the forward and backward planners.
#[test]
fn out_of_range_frontier_is_a_typed_error() {
    let (_, out) = plan_small();
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let ev = FailureEvent {
        device: 0,
        divisions_done: 10_000,
    };
    for err in [
        rp.plan_recovery(&out, &ev).unwrap_err(),
        rp.plan_backward_recovery(&out, &ev).unwrap_err(),
    ] {
        match err {
            DcpError::InvalidFailureEvent { device, frontier } => {
                assert_eq!(device, 0);
                assert_eq!(frontier, 10_000);
            }
            other => panic!("expected InvalidFailureEvent, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized kills — any (survivor count, victim, frontier) — produce
    /// a patch that passes the stream verifier and executes to merged
    /// output bitwise equal to the clean run at 1, 2 and 8 rayon threads;
    /// a backward-phase kill at the same victim and relative frontier
    /// salvages to gradients bitwise equal to the clean backward.
    #[test]
    fn random_failures_recover_bitwise(
        n in 2u32..6,
        dev_sel in 0u32..8,
        frac in 0u32..=4,
        seed in 0u64..500,
    ) {
        let planner = Planner::new(
            ClusterSpec::single_node(n),
            AttnSpec::new(4, 2, 8, 2),
            PlannerConfig { block_size: 16, ..Default::default() },
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let seqs: Vec<(u32, MaskSpec)> = (0..4)
            .map(|_| (rng.gen_range(48..220), MaskSpec::Causal))
            .collect();
        let out = planner.plan(&seqs).unwrap();
        let dev = dev_sel % n;
        let nd = out.plan.fwd.devices[dev as usize]
            .instrs
            .iter()
            .filter(|ins| matches!(ins, Instr::Attn { .. }))
            .count() as u32;
        let k = nd * frac / 4;
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &FailureEvent { device: dev, divisions_done: k })
            .unwrap();
        // The patch rendering passes the stream verifier under its own
        // composition context (plan_recovery verifies internally; this
        // re-checks through the public surface).
        dcp::sched::verify_phase(
            &out.layout,
            &patch.placement,
            &patch.fwd,
            false,
            &patch.verify_ctx(),
        )
        .map_err(|d| TestCaseError::fail(format!("patch rejected: {d}")))?;
        dcp::sched::verify_structure(&patch.timing)
            .map_err(|d| TestCaseError::fail(format!("timing rejected: {d}")))?;

        let data = BatchData::random(&out.layout, seed ^ 0xD15EA5E);
        let (clean, d_o) = clean_run(&out, &data);
        let ctx = patch.verify_ctx();
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut bits: Option<Vec<u32>> = None;
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let rec = execute_forward_recovery(
                &out.layout,
                &patch.placement,
                &patch.fwd,
                &data,
                &ctx,
                &ExecObs::disabled(),
            )
            .unwrap();
            prop_assert_eq!(
                out_bits(&clean),
                out_bits(&rec),
                "recovered output diverged at {} threads",
                threads
            );
            match &bits {
                None => bits = Some(out_bits(&rec)),
                Some(b) => prop_assert_eq!(b.clone(), out_bits(&rec)),
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");

        // The same victim failing at the same relative frontier of its
        // backward stream: salvaged gradients equal the clean backward.
        let ndb = out.plan.bwd.devices[dev as usize]
            .instrs
            .iter()
            .filter(|ins| matches!(ins, Instr::AttnBwd { .. }))
            .count() as u32;
        let bpatch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_backward_recovery(
                &out,
                &FailureEvent { device: dev, divisions_done: ndb * frac / 4 },
            )
            .unwrap();
        dcp::sched::verify_structure(&bpatch.timing)
            .map_err(|d| TestCaseError::fail(format!("bwd timing rejected: {d}")))?;
        let clean_grads =
            execute_backward(&out.layout, &out.placement, &out.plan, &data, &clean, &d_o).unwrap();
        let rec_grads = execute_backward_recovery(
            &out.layout,
            &bpatch.placement,
            &bpatch.bwd,
            &data,
            &clean,
            &d_o,
            &bpatch.verify_ctx(),
            &ExecObs::disabled(),
        )
        .unwrap();
        prop_assert_eq!(grad_bits(&clean_grads), grad_bits(&rec_grads));
    }
}
