//! Property tests for the plan-IR pass pipeline and the stream verifier
//! (DESIGN.md Sec. 10).
//!
//! Two families of properties:
//!
//! 1. *Legal streams stay legal and bitwise-equal*: any plan the scheduler
//!    renders for a random (layout, placement) pair passes the verifier,
//!    still passes it after the full optimizer pipeline, and — the
//!    load-bearing promise — executes to bitwise-identical merged outputs
//!    and gradients.
//! 2. *Illegal streams are rejected with a typed diagnostic*: random
//!    mutations of a legal stream (wait-before-launch, out-of-range comm
//!    id, duplicated compute item, self-transfer) must each produce a
//!    [`dcp::sched::Diagnostic`] that names the offending instruction
//!    index, never a pass and never a panic — and the executor, which runs
//!    the same stream machine, must reject each mutant with the same
//!    violation kind.

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::exec::{execute_forward, plans_equivalent, BatchData};
use dcp::mask::MaskSpec;
use dcp::sched::{
    build_plan, verify_plan, CommId, ExecutionPlan, Instr, PassConfig, PassManager, Payload,
    PayloadKind, Placement, ScheduleConfig, ViolationKind,
};
use dcp::types::AttnSpec;
use proptest::prelude::*;

fn arb_mask() -> impl Strategy<Value = MaskSpec> {
    prop_oneof![
        Just(MaskSpec::Causal),
        Just(MaskSpec::Full),
        (0u32..4, 1u32..32).prop_map(|(sink, window)| MaskSpec::Lambda { sink, window }),
    ]
}

prop_compose! {
    fn arb_case()(
        lens in prop::collection::vec(1u32..150, 1..4),
        masks in prop::collection::vec(arb_mask(), 4),
        bs in 8u32..64,
        n in 2u32..6,
        t in 1u32..5,
        seed in 0u64..1000,
    ) -> (Vec<(u32, MaskSpec)>, u32, u32, u32, u64) {
        let seqs: Vec<(u32, MaskSpec)> = lens
            .iter()
            .zip(masks.iter().cycle())
            .map(|(&l, m)| (l, m.clone()))
            .collect();
        (seqs, bs, n, t, seed)
    }
}

fn random_placement(layout: &BatchLayout, n: u32, seed: u64) -> Placement {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    Placement {
        num_devices: n,
        token_to_dev: (0..layout.token_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
        comp_to_dev: (0..layout.comp_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
    }
}

fn case_plan(
    seqs: &[(u32, MaskSpec)],
    bs: u32,
    n: u32,
    t: u32,
    seed: u64,
) -> (BatchLayout, Placement, ExecutionPlan) {
    let layout = BatchLayout::build(
        AttnSpec::new(2, 2, 4, 2),
        BlockConfig {
            block_size: bs,
            head_blocks: 1,
        },
        seqs,
    )
    .unwrap();
    let placement = random_placement(&layout, n, seed);
    let plan = build_plan(
        &layout,
        &placement,
        &ScheduleConfig {
            divisions: t,
            ..Default::default()
        },
    )
    .unwrap();
    (layout, placement, plan)
}

/// The seeded illegal rewrites. Each returns `true` when it found a place
/// to apply itself (small plans may e.g. have no remote transfer to turn
/// into a self-transfer).
fn mutate(which: u8, plan: &mut ExecutionPlan) -> bool {
    match which % 4 {
        // Move a wait on an input-only op in front of its launch.
        0 => {
            for stream in &mut plan.fwd.devices {
                for i in 0..stream.instrs.len() {
                    if let Instr::CommLaunch(cid) = stream.instrs[i] {
                        let op = &plan.fwd.comms[cid.0 as usize];
                        let input_only = !op.transfers.is_empty()
                            && op.transfers.iter().all(|t| {
                                matches!(t.payload.kind(), PayloadKind::Q | PayloadKind::Kv)
                            });
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
        // Wait on a comm id outside the op table.
        1 => {
            let bogus = CommId(plan.fwd.comms.len() as u32 + 3);
            plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
            true
        }
        // Schedule one computation block twice.
        2 => {
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
        // Point a transfer back at its sender.
        _ => {
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduler output is always verifier-legal, and stays legal through
    /// the full pass pipeline.
    #[test]
    fn passes_preserve_verifier_validity((seqs, bs, n, t, seed) in arb_case()) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        verify_plan(&layout, &placement, &plan)
            .map_err(|d| TestCaseError::fail(format!("raw plan illegal: {d}")))?;
        let mut opt = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        pm.run_plan(&layout, &placement, &mut opt);
        verify_plan(&layout, &placement, &opt)
            .map_err(|d| TestCaseError::fail(format!("optimized plan illegal: {d}")))?;
    }

    /// The optimizer pipeline preserves merged outputs and gradients
    /// bitwise, checked by executing both plans (fewer cases: each one
    /// runs a full forward+backward twice).
    #[test]
    fn passes_preserve_outputs_bitwise((seqs, bs, n, t, seed) in arb_case()) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        let mut opt = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        pm.run_plan(&layout, &placement, &mut opt);
        prop_assert!(
            plans_equivalent(&layout, &placement, &plan, &placement, &opt, seed).unwrap(),
            "optimized plan diverged bitwise"
        );
    }

    /// Launch fusion never grows a comm op past the configured cap — for
    /// the default 256 KiB threshold and for tiny random caps that actually
    /// bind at these block sizes. An op that absorbed transfers (bytes
    /// grew) must sit at or under the cap; untouched ops may be any size.
    #[test]
    fn fusion_never_exceeds_the_cap(
        (seqs, bs, n, t, seed) in arb_case(),
        small_cap in 1u64..4096,
    ) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        for cap in [small_cap, PassConfig::default().fuse_threshold_bytes] {
            let mut opt = plan.clone();
            let pm = PassManager::new(PassConfig {
                enabled: true,
                dead_comm: false,
                coalesce: false,
                sink: false,
                fuse_threshold_bytes: cap,
                ..PassConfig::default()
            });
            pm.run_plan(&layout, &placement, &mut opt);
            verify_plan(&layout, &placement, &opt)
                .map_err(|d| TestCaseError::fail(format!("fused plan illegal: {d}")))?;
            for (phase, orig) in [(&opt.fwd, &plan.fwd), (&opt.bwd, &plan.bwd)] {
                for (i, op) in phase.comms.iter().enumerate() {
                    let before = orig.comms[i].bytes();
                    if op.bytes() > before {
                        prop_assert!(
                            op.bytes() <= cap,
                            "op {i} fused past the cap: {} > {cap}",
                            op.bytes()
                        );
                    }
                }
            }
        }
    }

    /// Every seeded illegal mutation is rejected with a typed diagnostic
    /// that names the offending instruction index.
    #[test]
    fn mutated_streams_are_rejected((seqs, bs, n, t, seed) in arb_case(), which in 0u8..4) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        let mut bad = plan.clone();
        if !mutate(which, &mut bad) {
            // Nothing to mutate in this plan shape (e.g. fully local):
            // vacuously true.
            return Ok(());
        }
        let diag = verify_plan(&layout, &placement, &bad)
            .expect_err("verifier accepted a seeded-illegal stream");
        prop_assert!(
            diag.instr.is_some(),
            "diagnostic must name the offending instruction: {diag}"
        );
        prop_assert!(
            matches!(
                diag.kind,
                ViolationKind::WaitWithoutLaunch
                    | ViolationKind::CommIdOutOfRange
                    | ViolationKind::DuplicateCompute
                    | ViolationKind::SelfTransfer
                    | ViolationKind::MissingInput
                    | ViolationKind::WaitReceivesNothing
                    | ViolationKind::Deadlock
            ),
            "unexpected diagnostic kind for mutation {which}: {diag}"
        );
        // Every mutant touches the forward phase; the executor runs the same
        // stream machine, so it must reject it for the same reason.
        let data = BatchData::random(&layout, seed);
        let err = execute_forward(&layout, &placement, &bad, &data)
            .expect_err("executor ran a seeded-illegal stream");
        let tag = format!("[{}]", diag.kind);
        prop_assert!(
            err.to_string().contains(&tag),
            "executor error {err} does not carry the verifier's {tag}"
        );
    }
}
