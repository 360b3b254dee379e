//! End-to-end robustness acceptance scenario: with faults injected — a ×4
//! straggler, one killed planning worker, and a degraded link — the
//! planning pipeline still delivers every batch exactly once, in order,
//! with a valid plan, and records which fallback tier produced it. An
//! ε-infeasible partition request degrades to a static placement instead
//! of erroring.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dcp::core::dataloader::PlanFn;
use dcp::core::{DcpDataloader, Planner, PlannerConfig, RetryConfig};
use dcp::data::Batch;
use dcp::mask::MaskSpec;
use dcp::sched::verify_plan;
use dcp::sim::{simulate_plan_faulted, Fault, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec, DcpError, PlanTier};

fn planner() -> Planner {
    Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    )
}

fn batches() -> Vec<Batch> {
    (0..5)
        .map(|i| Batch {
            seqs: vec![
                (8192 + 1024 * i, MaskSpec::Causal),
                (4096, MaskSpec::paper_lambda()),
            ],
        })
        .collect()
}

#[test]
fn faulted_pipeline_yields_every_batch_once_with_valid_plans() {
    let bs = batches();
    let p = planner();

    // Fault 2 of 3: the planning worker for batch index 2 is killed (its
    // first planning attempt panics, tearing down the look-ahead thread).
    let kill_len = bs[2].seqs[0].0;
    let killed = AtomicUsize::new(0);
    let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        if seqs[0].0 == kill_len && killed.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected: planning worker killed");
        }
        p.plan(seqs)
    });
    let mut loader = DcpDataloader::with_plan_fn(
        plan_fn,
        bs.clone(),
        2,
        RetryConfig {
            batch_deadline: Some(Duration::from_secs(30)),
            max_retries: 1,
            backoff: Duration::from_millis(1),
        },
    );

    // Faults 1 and 3 of 3: a ×4 straggler and a degraded link, injected
    // into the simulated execution of every planned batch.
    let faults = FaultSpec {
        seed: 7,
        faults: vec![
            Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            },
            Fault::DegradedLink {
                src: 1,
                dst: 0,
                factor: 0.1,
            },
        ],
    };

    let cluster = ClusterSpec::p4de(1);
    let mut yielded = Vec::new();
    for item in loader.by_ref() {
        let (batch, out) = item.expect("every batch must survive the faults");
        verify_plan(&out.layout, &out.placement, &out.plan).expect("plan is valid");
        assert_eq!(
            out.tier,
            PlanTier::Partitioned,
            "healthy planning takes the partitioned tier; tier is recorded"
        );
        let sim = simulate_plan_faulted(&cluster, &out.plan, &faults).unwrap();
        assert!(sim.total().is_finite() && sim.total() > 0.0);
        yielded.push(batch);
    }
    assert_eq!(yielded, bs, "every batch exactly once, in order");
    assert!(
        loader.replans() >= 1,
        "the killed worker forced a synchronous re-plan"
    );
}

#[test]
fn epsilon_infeasible_request_degrades_to_a_valid_static_plan() {
    // One huge block per device-sized chunk with ε = 0 and no granularity
    // slack: the partitioner cannot meet the balance constraint, so the
    // fallback chain must take over rather than erroring out.
    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 4096,
            eps_intra: 0.0,
            strict_epsilon: true,
            ..Default::default()
        },
    );
    let seqs = vec![(16384u32, MaskSpec::Causal), (2048, MaskSpec::Causal)];
    let out = planner.plan(&seqs).expect("fallback must produce a plan");
    assert_ne!(out.tier, PlanTier::Partitioned);
    assert!(
        out.fallback_reason
            .as_deref()
            .unwrap_or_default()
            .contains("partitioned"),
        "the reason records the skipped tier: {:?}",
        out.fallback_reason
    );
    verify_plan(&out.layout, &out.placement, &out.plan).expect("fallback plan is valid");

    // With the chain disabled the same request surfaces the infeasibility.
    let strict = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 4096,
            eps_intra: 0.0,
            strict_epsilon: true,
            fallback: false,
            ..Default::default()
        },
    );
    match strict.plan(&seqs) {
        Err(DcpError::Infeasible(_)) => {}
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn retry_backoff_is_charged_against_the_batch_deadline() {
    // A permanently broken batch with a 100 ms deadline and 300 ms linear
    // backoff used to cost deadline + 300 + 600 + 900 ms before giving up:
    // the backoff sleeps ignored the per-batch deadline. They must be
    // clamped to the remaining deadline budget, bounding total wall time
    // per batch at roughly 2 × deadline regardless of the backoff curve —
    // while still running every re-plan attempt.
    let bs = batches();
    let p = planner();
    let kill_len = bs[1].seqs[0].0;
    let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        if seqs[0].0 == kill_len {
            panic!("injected: permanently broken batch");
        }
        p.plan(seqs)
    });
    let deadline = Duration::from_millis(100);
    let backoff = Duration::from_millis(300);
    let mut loader = DcpDataloader::with_plan_fn(
        plan_fn,
        bs.clone(),
        0, // no look-ahead: the deadline wait itself stays near zero
        RetryConfig {
            batch_deadline: Some(deadline),
            max_retries: 3,
            backoff,
        },
    );
    let t0 = std::time::Instant::now();
    let results: Vec<_> = loader.by_ref().collect();
    let wall = t0.elapsed();
    assert_eq!(results.len(), bs.len());
    assert!(results[1].is_err(), "the broken batch still fails");
    let ev = &loader.replan_events()[0];
    assert_eq!(ev.attempts, 3, "clamping must not skip re-plan attempts");
    // Old behavior slept 300+600+900 ms = 1.8 s on batch 1 alone. The
    // clamped budget allows at most one deadline's worth of sleeping on
    // top of the deadline wait; the healthy batches plan in milliseconds.
    let sleep_total = backoff * 1 + backoff * 2 + backoff * 3;
    assert!(
        wall < sleep_total,
        "retry sleeps must be deadline-bounded: took {wall:?}"
    );
}

#[test]
fn persistent_planner_failure_surfaces_typed_error_without_poisoning() {
    let bs = batches();
    let p = planner();
    let kill_len = bs[1].seqs[0].0;
    let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        if seqs[0].0 == kill_len {
            panic!("injected: permanently broken batch");
        }
        p.plan(seqs)
    });
    let loader = DcpDataloader::with_plan_fn(
        plan_fn,
        bs.clone(),
        3,
        RetryConfig {
            max_retries: 1,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    );
    let results: Vec<_> = loader.collect();
    assert_eq!(results.len(), bs.len());
    for (i, r) in results.iter().enumerate() {
        if i == 1 {
            match r {
                Err(DcpError::PlanningFailed {
                    batch_index,
                    attempts,
                    ..
                }) => {
                    assert_eq!(*batch_index, 1);
                    assert_eq!(*attempts, 2);
                }
                other => panic!("expected PlanningFailed for batch 1, got {other:?}"),
            }
        } else {
            let (batch, out) = r.as_ref().expect("other batches are unaffected");
            assert_eq!(batch, &bs[i]);
            verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
        }
    }
}
