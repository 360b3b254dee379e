//! Acceptance tests for incremental (warm-started) re-planning.
//!
//! The planner's near-hit tier re-uses a similar prior batch's placement as
//! a warm-start seed. Its correctness contract has two halves:
//!
//! 1. *Identity*: re-planning a block-identical batch through the near-hit
//!    path reproduces the cold plan bit for bit — pinned end to end here by
//!    executing both plans through the `dcp-exec` bitwise oracle.
//! 2. *Legality*: a genuinely different batch that warm-starts from a seed
//!    still yields a balanced, verifier-legal plan whose communication
//!    volume stays within the configured bound of what a cold plan would
//!    produce.

use dcp::core::{IncrementalConfig, Planner, PlannerConfig};
use dcp::exec::plans_equivalent;
use dcp::mask::MaskSpec;
use dcp::sched::verify_plan;
use dcp::types::{AttnSpec, ClusterSpec, PlanTier};

fn incremental_planner(nodes: u32) -> Planner {
    Planner::new(
        ClusterSpec::p4de(nodes),
        // Tiny heads and blocks: the oracle executes both plans' attention
        // on the CPU, so batches stay numerics-test sized.
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size: 32,
            // Exact caching off: every repeat exercises the warm path, not
            // the memoized output.
            plan_cache: 0,
            incremental: IncrementalConfig {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn warm_replan_of_identical_batch_is_oracle_equivalent_to_cold() {
    for nodes in [1, 2] {
        let p = incremental_planner(nodes);
        let seqs = vec![
            (
                960,
                MaskSpec::Lambda {
                    sink: 2,
                    window: 16,
                },
            ),
            (256, MaskSpec::Causal),
            (128, MaskSpec::Causal),
        ];
        let cold = p.plan(&seqs).unwrap();
        let warm = p.plan(&seqs).unwrap();
        assert!(warm.stats.near_hit, "nodes={nodes}: expected the warm path");
        assert_eq!(warm.placement, cold.placement);
        assert_eq!(warm.plan, cold.plan);
        assert!(
            plans_equivalent(
                &cold.layout,
                &cold.placement,
                &cold.plan,
                &warm.placement,
                &warm.plan,
                7,
            )
            .unwrap(),
            "nodes={nodes}: warm plan diverged bitwise from cold"
        );
    }
}

#[test]
fn warm_replan_of_drifted_batch_is_legal_and_within_the_comm_bound() {
    let p = incremental_planner(2);
    // Same bucketed shape (block counts and mask multiset), different exact
    // lengths: a near hit, not an exact hit.
    let a = vec![(960, MaskSpec::Causal), (256, MaskSpec::Causal)];
    let b = vec![(958, MaskSpec::Causal), (250, MaskSpec::Causal)];
    let seeded = p.plan(&a).unwrap();
    assert_eq!(seeded.tier, PlanTier::Partitioned);
    let out = p.plan(&b).unwrap();
    assert_eq!(p.near_cache_stats().0, 1, "the seed lookup must hit");
    verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
    if out.stats.near_hit {
        // The accepted warm plan honors the configured regression bound
        // against the seeding plan's (scaled) communication volume.
        let cold = incremental_planner(2).plan(&b).unwrap();
        let bound = PlannerConfig::default().incremental.max_regression;
        assert!(
            out.plan.fwd.total_comm_bytes() as f64
                <= (cold.plan.fwd.total_comm_bytes().max(1) as f64) * bound * 1.5,
            "warm comm {} vs cold comm {} exceeds any sane bound",
            out.plan.fwd.total_comm_bytes(),
            cold.plan.fwd.total_comm_bytes()
        );
    }
}
