//! Property tests: scheduling invariants must hold for arbitrary layouts
//! and placements (DESIGN.md Sec. 6).

use std::collections::HashSet;

use dcp_blocks::{BatchLayout, BlockConfig, CompBlockId};
use dcp_mask::MaskSpec;
use dcp_sched::{build_plan, verify_plan, Instr, Payload, PayloadKind, Placement, ScheduleConfig};
use dcp_types::AttnSpec;
use proptest::prelude::*;

fn arb_mask() -> impl Strategy<Value = MaskSpec> {
    prop_oneof![
        Just(MaskSpec::Causal),
        Just(MaskSpec::Full),
        (0u32..4, 1u32..32).prop_map(|(sink, window)| MaskSpec::Lambda { sink, window }),
        (1u32..8, 1u32..4).prop_map(|(block, wb)| MaskSpec::CausalBlockwise {
            block,
            window_blocks: wb,
            sink_blocks: 1,
        }),
    ]
}

prop_compose! {
    fn arb_case()(
        lens in prop::collection::vec(1u32..200, 1..5),
        masks in prop::collection::vec(arb_mask(), 5),
        bs in 1u32..64,
        n in 1u32..6,
        t in 1u32..6,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any (layout, placement) pair yields a structurally valid plan:
    /// every comp block scheduled exactly once on its device, waits
    /// matched, transfers consistent with ownership.
    #[test]
    fn plans_always_validate((seqs, bs, n, t, seed) in arb_case()) {
        let layout = BatchLayout::build(
            AttnSpec::new(2, 2, 4, 2),
            BlockConfig { block_size: bs, head_blocks: 1 },
            &seqs,
        ).unwrap();
        let placement = random_placement(&layout, n, seed);
        let plan = build_plan(&layout, &placement, &ScheduleConfig {
            divisions: t,
            ..Default::default()
        }).unwrap();
        verify_plan(&layout, &placement, &plan).unwrap();
        // The verifier admits input relays (the ring baselines use them);
        // the scheduler never relays: in every op of both phases an input
        // leaves its owner and a partial goes from its producer to the
        // owner.
        for phase in [&plan.fwd, &plan.bwd] {
            for tr in phase.comms.iter().flat_map(|op| &op.transfers) {
                let owner = placement.token_dev(tr.payload.token_block());
                let (from, to) = match tr.payload.producer() {
                    Some(p) => (p, owner),
                    None => (owner, tr.to),
                };
                prop_assert!(
                    tr.from == from && tr.to == to && tr.from != tr.to,
                    "transfer {:?} is off its owner route",
                    tr
                );
            }
        }
    }

    /// Each remote input block is fetched at most once per destination
    /// device, in both phases (no duplicate transfers).
    #[test]
    fn no_duplicate_fetches((seqs, bs, n, t, seed) in arb_case()) {
        let layout = BatchLayout::build(
            AttnSpec::new(2, 2, 4, 2),
            BlockConfig { block_size: bs, head_blocks: 1 },
            &seqs,
        ).unwrap();
        let placement = random_placement(&layout, n, seed);
        let plan = build_plan(&layout, &placement, &ScheduleConfig {
            divisions: t,
            ..Default::default()
        }).unwrap();
        for phase in [&plan.fwd, &plan.bwd] {
            let mut seen: HashSet<(u32, PayloadKind, u32, u32)> = HashSet::new();
            for op in &phase.comms {
                for tr in &op.transfers {
                    let key = (tr.payload.token_block().0, tr.payload.kind(), tr.from, tr.to);
                    prop_assert!(
                        seen.insert(key),
                        "duplicate transfer {:?} to {}",
                        tr.payload,
                        tr.to
                    );
                }
            }
        }
    }

    /// The backward phase fetches at least what the forward fetches per
    /// (KV block, destination): re-communication plus gradients.
    #[test]
    fn backward_superset_of_forward_kv((seqs, bs, n, t, seed) in arb_case()) {
        let layout = BatchLayout::build(
            AttnSpec::new(2, 2, 4, 2),
            BlockConfig { block_size: bs, head_blocks: 1 },
            &seqs,
        ).unwrap();
        let placement = random_placement(&layout, n, seed);
        let plan = build_plan(&layout, &placement, &ScheduleConfig {
            divisions: t,
            ..Default::default()
        }).unwrap();
        let kv_fetches = |phase: &dcp_sched::PhasePlan| -> HashSet<(u32, u32)> {
            phase
                .comms
                .iter()
                .flat_map(|c| c.transfers.iter())
                .filter(|tr| matches!(tr.payload, Payload::Kv(_)))
                .map(|tr| (tr.payload.token_block().0, tr.to))
                .collect()
        };
        let fwd = kv_fetches(&plan.fwd);
        let bwd = kv_fetches(&plan.bwd);
        prop_assert!(fwd.is_subset(&bwd));
    }

    /// Total forward communication equals the closed-form ownership
    /// accounting (the connectivity-cost identity).
    #[test]
    fn forward_comm_closed_form((seqs, bs, n, t, seed) in arb_case()) {
        let layout = BatchLayout::build(
            AttnSpec::new(2, 2, 4, 2),
            BlockConfig { block_size: bs, head_blocks: 1 },
            &seqs,
        ).unwrap();
        let placement = random_placement(&layout, n, seed);
        let plan = build_plan(&layout, &placement, &ScheduleConfig {
            divisions: t,
            ..Default::default()
        }).unwrap();
        let mut expect = 0u64;
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            let owner = placement.token_to_dev[i];
            let q_devs: HashSet<u32> = layout.q_consumers[i]
                .iter()
                .map(|&c| placement.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            let kv_devs: HashSet<u32> = layout.kv_consumers[i]
                .iter()
                .map(|&c| placement.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            expect += (tb.q_bytes + tb.o_bytes) * q_devs.len() as u64
                + tb.kv_bytes * kv_devs.len() as u64;
        }
        prop_assert_eq!(plan.fwd.total_comm_bytes(), expect);
    }

    /// Attention items in the stream preserve the per-device comp set.
    #[test]
    fn attn_items_partition_comp_blocks((seqs, bs, n, t, seed) in arb_case()) {
        let layout = BatchLayout::build(
            AttnSpec::new(2, 2, 4, 2),
            BlockConfig { block_size: bs, head_blocks: 1 },
            &seqs,
        ).unwrap();
        let placement = random_placement(&layout, n, seed);
        let plan = build_plan(&layout, &placement, &ScheduleConfig {
            divisions: t,
            ..Default::default()
        }).unwrap();
        for (phase, bwd) in [(&plan.fwd, false), (&plan.bwd, true)] {
            let mut scheduled: Vec<CompBlockId> = Vec::new();
            for stream in &phase.devices {
                for ins in &stream.instrs {
                    match ins {
                        Instr::Attn { items, .. } if !bwd => scheduled.extend(items),
                        Instr::AttnBwd { items, .. } if bwd => scheduled.extend(items),
                        _ => {}
                    }
                }
            }
            scheduled.sort_unstable();
            let expect: Vec<CompBlockId> =
                (0..layout.comp_blocks.len() as u32).map(CompBlockId).collect();
            prop_assert_eq!(scheduled, expect);
        }
    }
}
