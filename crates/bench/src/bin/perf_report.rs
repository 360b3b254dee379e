//! Executor performance report: measures the parallel blockwise execution
//! hot path on a pinned workload and records wall-times, throughput and the
//! speedup over single-threaded execution.
//!
//! Workload (fixed): a p4de(2) cluster (16 devices), LongDataCollections
//! sequence lengths, causal + sparse mask settings, fixed seeds. Each batch
//! runs through plan → execute (forward + backward) → simulate. Execution is
//! timed twice in-process — once at the default rayon width and once with
//! `RAYON_NUM_THREADS=1` — and the two results are compared bitwise, so
//! every report run re-verifies the executor's determinism contract.
//!
//! Writes `BENCH_exec.json` (execution timings), `BENCH_plan.json`
//! (planning/simulation timings, planner stage breakdown, plan-cache hit
//! rates and the serial-vs-parallel partitioner equivalence check) and
//! `BENCH_robustness.json` (fallback-tier plan latencies, fault-injected
//! makespans and dataloader recovery stats with structured replan events)
//! to the current directory.
//!
//! The planner section plans every batch twice through one shared
//! [`Planner`]: the first (cold) plan runs the full multilevel pipeline and
//! is the `plan_wall_s` the latency gate watches; the second (warm) plan
//! must be served by the signature-keyed plan cache. Each batch is also
//! re-planned by two fresh planners at `RAYON_NUM_THREADS=1` and the
//! default width, asserting the partitioner's serial/parallel determinism.
//!
//! A separate `planner_incremental` section measures the near-hit
//! warm-start tier: identical re-plans must reproduce the cold plan bit
//! for bit (asserted structurally and through the `dcp-exec` execution
//! oracle) inside the gate's sub-millisecond budget, and drifted re-plans
//! (same block shape, shifted lengths) time the delta-refinement path and
//! its near-hit rate.
//!
//! Environment knobs: `DCP_BENCH_BATCHES` (default 2) batches per mask.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcp_bench::{trace_doc, trace_workload, Table, BENCH_SCHEMA_VERSION};
use dcp_blocks::TokenBlockId;
use dcp_core::dataloader::PlanFn;
use dcp_core::{
    simulate_iteration, simulate_iteration_with_recovery, DcpDataloader, E2eConfig, FailureEvent,
    IncrementalConfig, PlanOutput, Planner, PlannerConfig, RecoveryConfig, RecoveryPlanner,
    RetryConfig,
};
use dcp_data::{pack_batches, sample_lengths, Batch, DatasetKind, MaskSetting};
use dcp_exec::executor::{
    execute_backward, execute_forward, execute_forward_recovery, BatchData, BlockGrads, BlockOut,
    ExecObs,
};
use dcp_exec::plans_equivalent;
use dcp_mask::MaskSpec;
use dcp_sched::{verify_phase, verify_structure, Instr, PassConfig, PassManager};
use dcp_sim::{simulate_phase, simulate_plan, simulate_plan_faulted, Fault, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec, ModelSpec, PlanTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

/// Fixed dataset seed (independent of `DCP_BENCH_SEED`: the report must be
/// comparable across machines and runs).
const SEED: u64 = 7;
/// Tokens per batch.
const BUDGET: u64 = 8192;
/// Maximum sequence length.
const MAX_LEN: u32 = 2048;
/// Planner block size (small, so divisions hold enough computation blocks
/// for the pool to chew on).
const BLOCK_SIZE: u32 = 128;

/// The executed attention operator. Smaller than the paper's (4Q/2KV heads,
/// d=16) so the numeric f32 executor, not the simulator, is the thing being
/// measured at a tractable scale.
fn exec_attn() -> AttnSpec {
    AttnSpec::new(4, 2, 16, 1)
}

fn batches_per_mask() -> usize {
    std::env::var("DCP_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Median of `values` (0.0 for an empty slice).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `f` with `RAYON_NUM_THREADS` set to `threads` (`None` = default
/// width), restoring the previous value afterwards. Works in-process: the
/// vendored rayon re-reads the variable at every parallel call.
fn with_rayon_threads<T>(threads: Option<&str>, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    match threads {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

struct ExecRun {
    wall_s: f64,
    fwd: HashMap<TokenBlockId, BlockOut>,
    bwd: HashMap<TokenBlockId, BlockGrads>,
}

/// Executes forward + backward once, timed.
fn run_exec(out: &PlanOutput, data: &BatchData, d_o: &HashMap<TokenBlockId, Vec<f32>>) -> ExecRun {
    let t0 = Instant::now();
    let fwd = execute_forward(&out.layout, &out.placement, &out.plan, data).expect("forward");
    let bwd = execute_backward(&out.layout, &out.placement, &out.plan, data, &fwd, d_o)
        .expect("backward");
    ExecRun {
        wall_s: t0.elapsed().as_secs_f64(),
        fwd,
        bwd,
    }
}

/// Robustness benchmarks: plan latency per fallback tier, fallback-tier
/// counts under an ε-infeasible partitioning request, fault-injected
/// simulation cost, and dataloader recovery from a killed planning worker.
fn robustness_report(cluster: &ClusterSpec, attn: AttnSpec, n: usize) -> serde_json::Value {
    let n = n.max(2);
    let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
    let batches: Vec<Batch> = pack_batches(&lengths, BUDGET, |l| MaskSetting::Causal.mask_for(l))
        .into_iter()
        .take(n)
        .collect();

    // Plan latency and simulated quality per fallback tier, same batches.
    let mut tier_rows = Vec::new();
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
        let mut wall = 0.0f64;
        let mut sim_total = 0.0f64;
        for b in &batches {
            let t0 = Instant::now();
            let out = planner.plan(&b.seqs).expect("plan");
            wall += t0.elapsed().as_secs_f64();
            assert_eq!(out.tier, tier, "forced tier must be honored");
            sim_total += simulate_plan(cluster, &out.plan).expect("simulate").total();
        }
        tier_rows.push(json!({
            "tier": tier.label(),
            "batches": batches.len(),
            "plan_wall_s": wall,
            "simulated_total_s": sim_total,
        }));
    }

    // Fallback-tier counts when the partitioning request is ε-infeasible
    // (strict ε = 0 with coarse blocks: exact balance is impossible).
    let infeasible = Planner::new(
        cluster.clone(),
        attn,
        PlannerConfig {
            block_size: BLOCK_SIZE * 8,
            eps_intra: 0.0,
            strict_epsilon: true,
            ..Default::default()
        },
    );
    let mut tier_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for b in &batches {
        let out = infeasible.plan(&b.seqs).expect("fallback plan");
        *tier_counts.entry(out.tier.label()).or_insert(0) += 1;
    }

    // Fault-injected simulation of the default (partitioned) plans.
    let faults = FaultSpec {
        seed: SEED,
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
            Fault::DelayedStart {
                device: 2,
                delay_s: 1e-3,
            },
        ],
    };
    let planner = Planner::new(
        cluster.clone(),
        attn,
        PlannerConfig {
            block_size: BLOCK_SIZE,
            ..Default::default()
        },
    );
    let mut fault_rows = Vec::new();
    for (bi, b) in batches.iter().enumerate() {
        let out = planner.plan(&b.seqs).expect("plan");
        let clean = simulate_plan(cluster, &out.plan).expect("simulate");
        let faulted = simulate_plan_faulted(cluster, &out.plan, &faults).expect("simulate faulted");
        fault_rows.push(json!({
            "batch": bi,
            "clean_total_s": clean.total(),
            "faulted_total_s": faulted.total(),
            "slowdown": faulted.total() / clean.total(),
        }));
    }

    // Elastic mid-iteration recovery: kill the busiest device of each
    // batch's plan halfway through its attention divisions, patch-plan the
    // residual work onto the survivors, and price the patch (planning
    // latency, redone computation, recovered-vs-clean makespan).
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let mut recovery_rows = Vec::new();
    let mut patch_walls: Vec<f64> = Vec::new();
    for (bi, b) in batches.iter().enumerate() {
        let out = planner.plan(&b.seqs).expect("plan");
        let (dev, nd) = out
            .plan
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
            .expect("nonempty plan");
        if nd < 2 {
            continue;
        }
        let k = (nd / 2).max(1);
        let patch = rp
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: dev,
                    divisions_done: k,
                },
            )
            .expect("patch plan");
        let clean_fwd = simulate_phase(cluster, &out.plan.fwd).expect("simulate clean fwd");
        let recovered_fwd = simulate_phase(cluster, &patch.timing).expect("simulate recovered fwd");
        let st = patch.stats;
        patch_walls.push(st.plan_wall_s);
        recovery_rows.push(json!({
            "batch": bi,
            "failed_device": dev,
            "divisions_done": k,
            "attn_divisions": nd,
            "patch_plan_wall_s": st.plan_wall_s,
            "failed_flops": st.failed_flops,
            "redone_flops": st.redone_flops,
            "redone_fraction": if st.failed_flops > 0 {
                st.redone_flops as f64 / st.failed_flops as f64
            } else {
                0.0
            },
            "salvage_bytes": st.salvage_bytes,
            "refetch_bytes": st.refetch_bytes,
            "residual_units": st.residual_units as u64,
            "greedy_fallback": st.greedy_fallback,
            "clean_fwd_makespan_s": clean_fwd.makespan,
            "recovered_fwd_makespan_s": recovered_fwd.makespan,
            "makespan_ratio": if clean_fwd.makespan > 0.0 {
                recovered_fwd.makespan / clean_fwd.makespan
            } else {
                0.0
            },
        }));
    }
    let patch_wall_median = median(&patch_walls);
    println!(
        "[robustness: elastic recovery — {} patch plans, median {:.2}ms]",
        patch_walls.len(),
        patch_wall_median * 1e3
    );

    // Dataloader recovery: the first look-ahead planning worker is killed;
    // the loader must still yield every batch (via a synchronous re-plan).
    println!("[robustness: killing one planning worker on purpose — a panic message follows]");
    let p2 = planner.clone();
    let killed = AtomicUsize::new(0);
    let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        if killed.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected: planning worker killed");
        }
        p2.plan(seqs)
    });
    let t0 = Instant::now();
    let mut loader = DcpDataloader::with_plan_fn(
        plan_fn,
        batches.clone(),
        2,
        RetryConfig {
            backoff: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let mut yielded = 0u64;
    for item in loader.by_ref() {
        item.expect("loader must recover from the killed worker");
        yielded += 1;
    }
    let loader_wall = t0.elapsed().as_secs_f64();
    assert_eq!(yielded, batches.len() as u64);

    // Charge the loader's recovery wall time into the end-to-end timeline:
    // a synchronous re-plan stalls the training step, so the e2e model adds
    // it to the iteration total rather than only reporting it on the side.
    let recovery_s: f64 = loader
        .replan_events()
        .iter()
        .map(|e| e.recovery_wall_s)
        .sum();
    let e2e_cfg = E2eConfig {
        model: ModelSpec::gpt_8b(),
        tp: 1,
        cluster: cluster.clone(),
    };
    let out = planner.plan(&batches[0].seqs).expect("plan");
    let sim = simulate_plan(cluster, &out.plan).expect("simulate");
    let max_tokens = *out.placement.token_loads(&out.layout).iter().max().unwrap();
    let clean = simulate_iteration(&e2e_cfg, &sim, max_tokens, out.layout.total_tokens());
    let charged = simulate_iteration_with_recovery(
        &e2e_cfg,
        &sim,
        max_tokens,
        out.layout.total_tokens(),
        recovery_s,
    );
    assert!(charged.total >= clean.total);

    json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "cluster": "p4de(2)",
            "dataset": "LongDataCollections",
            "max_len": MAX_LEN,
            "budget_tokens": BUDGET,
            "block_size": BLOCK_SIZE,
            "seed": SEED,
            "batches": batches.len(),
        },
        "plan_latency_by_tier": tier_rows,
        "infeasible_fallback_tier_counts": tier_counts,
        "fault_spec": faults,
        "faulted_simulation": fault_rows,
        "elastic_recovery": {
            "patch_plans": patch_walls.len() as u64,
            "patch_plan_wall_s_median": patch_wall_median,
            "runs": recovery_rows,
        },
        "dataloader_recovery": {
            "batches": batches.len() as u64,
            "killed_workers": 1u64,
            "planning_workers": loader.workers() as u64,
            "yielded": yielded,
            "replans": loader.replans(),
            "replan_events": loader.replan_events(),
            "wall_s": loader_wall,
        },
        "e2e_recovery_accounting": {
            "recovery_wall_s": recovery_s,
            "iteration_s_clean": clean.total,
            "iteration_s_with_recovery": charged.total,
            "recovery_charged": charged.recovery,
        },
    })
}

fn main() {
    // `--trace <path>`: additionally run one *instrumented* pass over the
    // causal batches and write a unified Chrome trace there. The timed runs
    // below always use the no-op sink, so the flag never perturbs the
    // measurements this report exists to take.
    let mut trace_path: Option<String> = None;
    let mut cli = std::env::args().skip(1);
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(cli.next().unwrap_or_else(|| {
                    eprintln!("perf_report: --trace requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("perf_report: unknown argument {other} (supported: --trace <path>)");
                std::process::exit(2);
            }
        }
    }

    let cluster = ClusterSpec::p4de(2);
    let attn = exec_attn();
    let n = batches_per_mask();
    let masks = [
        MaskSetting::Causal,
        MaskSetting::Lambda,
        MaskSetting::SharedQuestion,
    ];
    let threads_default = rayon::current_num_threads();

    println!(
        "perf_report: p4de(2) / LongDataCollections / block {BLOCK_SIZE} / {n} batch(es) per \
         mask / {threads_default} thread(s) vs 1"
    );

    let mut exec_rows = Vec::new();
    let mut plan_rows = Vec::new();
    let mut table = Table::new(&[
        "mask", "batch", "blocks", "t1_s", "tN_s", "speedup", "blk/s_1", "blk/s_N",
    ]);
    let mut total_t1 = 0.0f64;
    let mut total_tn = 0.0f64;
    let mut total_blocks = 0u64;

    // One shared planner across every batch: recurring batch signatures hit
    // its plan cache exactly as they would in a training loop.
    let plan_cfg = PlannerConfig {
        block_size: BLOCK_SIZE,
        ..Default::default()
    };
    let plan_planner = Planner::new(cluster.clone(), attn, plan_cfg.clone());
    let mut cold_walls: Vec<f64> = Vec::new();
    let mut warm_walls: Vec<f64> = Vec::new();
    let mut serial_parallel_identical = true;

    // Pass-pipeline accounting: every batch's plan is re-run through the
    // optimizer, re-simulated and re-executed; the optimized outputs must be
    // bitwise identical to the unoptimized run already measured above.
    let pass_pm = PassManager::new(PassConfig::optimize());
    let mut pass_rows = Vec::new();
    let mut per_pass: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    let mut pass_bytes_before = 0u64;
    let mut pass_bytes_after = 0u64;
    let mut pass_makespan_before = 0.0f64;
    let mut pass_makespan_after = 0.0f64;
    let mut pass_bitwise = true;

    for mask in masks {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<_> = pack_batches(&lengths, BUDGET, |l| mask.mask_for(l))
            .into_iter()
            .take(n)
            .map(|b| b.seqs)
            .collect();
        for (bi, batch) in batches.iter().enumerate() {
            // Cold plan: full multilevel pipeline (this is the latency the
            // plan gate watches). Warm plan: must hit the signature cache.
            let t0 = Instant::now();
            let out = plan_planner.plan(batch).expect("plan");
            let plan_s = t0.elapsed().as_secs_f64();
            assert!(!out.stats.cache_hit, "first plan of a batch must miss");
            let t0 = Instant::now();
            let warm = plan_planner.plan(batch).expect("warm plan");
            let warm_s = t0.elapsed().as_secs_f64();
            assert!(warm.stats.cache_hit, "second plan of a batch must hit");
            assert_eq!(warm.placement, out.placement, "cached plan must match");
            assert_eq!(warm.plan, out.plan, "cached plan must match");
            cold_walls.push(plan_s);
            warm_walls.push(warm_s);

            // Partitioner determinism: a serial and a default-width re-plan
            // (fresh planners — empty caches) must agree bitwise.
            let fresh = || Planner::new(cluster.clone(), attn, plan_cfg.clone());
            let ser_out =
                with_rayon_threads(Some("1"), || fresh().plan(batch).expect("serial plan"));
            let par_out = with_rayon_threads(None, || fresh().plan(batch).expect("parallel plan"));
            let identical = ser_out.placement == par_out.placement
                && ser_out.plan == par_out.plan
                && ser_out.placement == out.placement;
            assert!(identical, "plans must not depend on RAYON_NUM_THREADS");
            serial_parallel_identical &= identical;

            let t0 = Instant::now();
            let sim = simulate_plan(&cluster, &out.plan).expect("simulate");
            let sim_wall_s = t0.elapsed().as_secs_f64();

            let data = BatchData::random(&out.layout, 2024);
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

            // Warm-up, then timed runs: default width first, then one
            // thread (the vendored rayon re-reads RAYON_NUM_THREADS at
            // every parallel call, so this works in-process).
            let saved = std::env::var("RAYON_NUM_THREADS").ok();
            std::env::remove_var("RAYON_NUM_THREADS");
            run_exec(&out, &data, &d_o);
            let par = run_exec(&out, &data, &d_o);
            std::env::set_var("RAYON_NUM_THREADS", "1");
            let ser = run_exec(&out, &data, &d_o);
            match saved {
                Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
            assert_eq!(par.fwd, ser.fwd, "forward outputs must be bitwise equal");
            assert_eq!(par.bwd, ser.bwd, "gradients must be bitwise equal");

            // Pass pipeline: optimize a clone of the plan, re-simulate and
            // re-execute it, and compare outputs bitwise against the
            // unoptimized run above.
            let mut optimized = out.plan.clone();
            let outcomes = pass_pm.run_plan(&out.layout, &out.placement, &mut optimized);
            let sim_opt = simulate_plan(&cluster, &optimized).expect("simulate optimized");
            let opt_run = run_exec(
                &PlanOutput {
                    plan: optimized.clone(),
                    ..out.clone()
                },
                &data,
                &d_o,
            );
            let bitwise = opt_run.fwd == par.fwd && opt_run.bwd == par.bwd;
            assert!(bitwise, "passes must preserve merged outputs bitwise");
            pass_bitwise &= bitwise;
            let bytes_before = out.plan.total_comm_bytes();
            let bytes_after = optimized.total_comm_bytes();
            pass_bytes_before += bytes_before;
            pass_bytes_after += bytes_after;
            pass_makespan_before += sim.total();
            pass_makespan_after += sim_opt.total();
            for o in &outcomes {
                let e = per_pass.entry(o.pass.clone()).or_insert((0, 0, 0));
                e.0 += o.comm_bytes_saved();
                e.1 += o.instrs_removed + o.transfers_removed;
                e.2 += o.ops_fused + o.reduces_coalesced + o.copies_coalesced + o.waits_sunk;
            }
            pass_rows.push(json!({
                "mask": mask.name(),
                "batch": bi,
                "comm_bytes_before": bytes_before,
                "comm_bytes_after": bytes_after,
                "simulated_total_before_s": sim.total(),
                "simulated_total_after_s": sim_opt.total(),
                "bitwise_identical": bitwise,
                "outcomes": outcomes,
            }));

            // Forward + backward each execute every computation block once.
            let blocks = 2 * out.layout.comp_blocks.len() as u64;
            let speedup = ser.wall_s / par.wall_s;
            total_t1 += ser.wall_s;
            total_tn += par.wall_s;
            total_blocks += blocks;
            table.row(vec![
                mask.name().to_string(),
                bi.to_string(),
                blocks.to_string(),
                format!("{:.3}", ser.wall_s),
                format!("{:.3}", par.wall_s),
                format!("{speedup:.2}x"),
                format!("{:.0}", blocks as f64 / ser.wall_s),
                format!("{:.0}", blocks as f64 / par.wall_s),
            ]);
            exec_rows.push(json!({
                "mask": mask.name(),
                "batch": bi,
                "seqs": batch.len(),
                "tokens": batch.iter().map(|(l, _)| *l as u64).sum::<u64>(),
                "comp_blocks_executed": blocks,
                "wall_s_1_thread": ser.wall_s,
                "wall_s_default": par.wall_s,
                "speedup": speedup,
                "blocks_per_sec_1_thread": blocks as f64 / ser.wall_s,
                "blocks_per_sec_default": blocks as f64 / par.wall_s,
                "bitwise_identical": true,
            }));
            plan_rows.push(json!({
                "mask": mask.name(),
                "batch": bi,
                "plan_wall_s": plan_s,
                "plan_wall_warm_s": warm_s,
                "cache_hit_warm": warm.stats.cache_hit,
                "stages_s": {
                    "coarsen": out.stats.coarsen_s,
                    "initial": out.stats.initial_s,
                    "refine": out.stats.refine_s,
                    "schedule": out.stats.schedule_s,
                },
                "serial_parallel_identical": identical,
                "simulate_wall_s": sim_wall_s,
                "simulated_total_s": sim.total(),
                "comm_bytes": out.plan.total_comm_bytes(),
                "token_blocks": out.layout.token_blocks.len(),
                "comp_blocks": out.layout.comp_blocks.len(),
            }));
        }
    }

    table.print();
    let overall = total_t1 / total_tn;
    println!(
        "\noverall executor speedup: {overall:.2}x ({threads_default} threads, \
         {total_blocks} blocks, {total_t1:.3}s -> {total_tn:.3}s)"
    );

    let exec_report = json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "cluster": "p4de(2)",
            "dataset": "LongDataCollections",
            "max_len": MAX_LEN,
            "budget_tokens": BUDGET,
            "block_size": BLOCK_SIZE,
            "attn": { "q_heads": 4, "kv_heads": 2, "head_dim": 16 },
            "seed": SEED,
            "batches_per_mask": n,
        },
        "threads_default": threads_default as u64,
        "overall_speedup": overall,
        "total_wall_s_1_thread": total_t1,
        "total_wall_s_default": total_tn,
        "runs": exec_rows,
    });
    // Pass pipeline over recovery patches: the truncated failed stream
    // retains prefetches whose waits were cut — genuine dead communication
    // only the optimizer can remove. The optimized functional stream must
    // still execute to a bitwise-identical merged output, and the optimized
    // timing stream must stay structurally legal.
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let mut rec_pass_rows = Vec::new();
    let mut rec_fwd_saved = 0u64;
    let mut rec_timing_before = 0.0f64;
    let mut rec_timing_after = 0.0f64;
    {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<_> = pack_batches(&lengths, BUDGET, |l| MaskSetting::Causal.mask_for(l))
            .into_iter()
            .take(n)
            .map(|b| b.seqs)
            .collect();
        for (bi, batch) in batches.iter().enumerate() {
            let out = plan_planner.plan(batch).expect("plan");
            let (dev, nd) = out
                .plan
                .fwd
                .devices
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let divs = s
                        .instrs
                        .iter()
                        .filter(|ins| matches!(ins, Instr::Attn { .. }))
                        .count() as u32;
                    (i as u32, divs)
                })
                .max_by_key(|&(i, divs)| (divs, std::cmp::Reverse(i)))
                .expect("nonempty plan");
            if nd < 2 {
                continue;
            }
            let patch = rp
                .plan_recovery(
                    &out,
                    &FailureEvent {
                        device: dev,
                        divisions_done: (nd / 2).max(1),
                    },
                )
                .expect("patch plan");
            let ctx = patch.verify_ctx();
            let mut fwd = patch.fwd.clone();
            let fwd_outs =
                pass_pm.run_phase(&out.layout, &mut fwd, "recovery_fwd", &patch.salvage_comms);
            verify_phase(&out.layout, &patch.placement, &fwd, false, &ctx)
                .expect("optimized recovery stream must stay legal");
            let data = BatchData::random(&out.layout, 2024);
            let obs = ExecObs::disabled();
            let base_out = execute_forward_recovery(
                &out.layout,
                &patch.placement,
                &patch.fwd,
                &data,
                &ctx,
                &obs,
            )
            .expect("recovery execute");
            let opt_out =
                execute_forward_recovery(&out.layout, &patch.placement, &fwd, &data, &ctx, &obs)
                    .expect("optimized recovery execute");
            assert_eq!(
                base_out, opt_out,
                "passes must preserve recovered outputs bitwise"
            );
            let fwd_saved: u64 = fwd_outs.iter().map(|o| o.comm_bytes_saved()).sum();
            rec_fwd_saved += fwd_saved;
            // Recovery phases count toward the headline totals: fresh plans
            // are comm-tight, so the dead prefetches of a truncated failed
            // stream are where the byte savings actually live.
            pass_bytes_before += patch.fwd.total_comm_bytes();
            pass_bytes_after += fwd.total_comm_bytes();

            let mut timing = patch.timing.clone();
            let t_before = simulate_phase(&cluster, &patch.timing)
                .expect("simulate timing")
                .makespan;
            let timing_outs = pass_pm.run_phase(
                &out.layout,
                &mut timing,
                "recovery_timing",
                &patch.salvage_comms,
            );
            verify_structure(&timing).expect("optimized timing stream must stay legal");
            let t_after = simulate_phase(&cluster, &timing)
                .expect("simulate optimized timing")
                .makespan;
            rec_timing_before += t_before;
            rec_timing_after += t_after;
            pass_bytes_before += patch.timing.total_comm_bytes();
            pass_bytes_after += timing.total_comm_bytes();
            for o in fwd_outs.iter().chain(timing_outs.iter()) {
                let e = per_pass.entry(o.pass.clone()).or_insert((0, 0, 0));
                e.0 += o.comm_bytes_saved();
                e.1 += o.instrs_removed + o.transfers_removed;
                e.2 += o.ops_fused + o.reduces_coalesced + o.copies_coalesced + o.waits_sunk;
            }
            rec_pass_rows.push(json!({
                "batch": bi,
                "failed_device": dev,
                "fwd_comm_bytes_saved": fwd_saved,
                "fwd_outcomes": fwd_outs,
                "timing_makespan_before_s": t_before,
                "timing_makespan_after_s": t_after,
                "timing_outcomes": timing_outs,
                "bitwise_identical": true,
            }));
        }
    }
    println!(
        "passes: comm bytes {pass_bytes_before} -> {pass_bytes_after} \
         ({:.2}% saved), simulated {:.3}s -> {:.3}s, recovery fwd saved {rec_fwd_saved} bytes, \
         bitwise: {pass_bitwise}",
        if pass_bytes_before > 0 {
            100.0 * (pass_bytes_before - pass_bytes_after) as f64 / pass_bytes_before as f64
        } else {
            0.0
        },
        pass_makespan_before,
        pass_makespan_after,
    );

    // Incremental re-planning: a dedicated planner with the exact output
    // cache disabled and the near-hit warm-start tier enabled. Every batch
    // is planned cold, then re-planned twice:
    //
    // - *identical* re-plan: must take the near-hit path, reproduce the
    //   cold plan bit for bit (checked structurally and through the
    //   `dcp-exec` execution oracle) and pass the stream verifier — this
    //   is the latency the incremental gate's sub-millisecond budget
    //   watches;
    // - *drifted* re-plan (every length nudged down one token without
    //   changing its block count): same near-hit key, different exact
    //   lengths, so the warm path cannot shortcut to the exact fixed
    //   point and must run delta refinement end to end.
    let inc_planner = Planner::new(
        cluster.clone(),
        attn,
        PlannerConfig {
            block_size: BLOCK_SIZE,
            plan_cache: 0,
            incremental: IncrementalConfig {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut inc_rows = Vec::new();
    let mut inc_walls: Vec<f64> = Vec::new();
    let mut drift_walls: Vec<f64> = Vec::new();
    let mut inc_bitwise = true;
    let mut inc_oracle = true;
    let mut drift_near_hits = 0u64;
    let mut drift_attempts = 0u64;
    for mask in masks {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<_> = pack_batches(&lengths, BUDGET, |l| mask.mask_for(l))
            .into_iter()
            .take(n)
            .map(|b| b.seqs)
            .collect();
        for (bi, batch) in batches.iter().enumerate() {
            let t0 = Instant::now();
            let cold = inc_planner.plan(batch).expect("incremental cold plan");
            let cold_s = t0.elapsed().as_secs_f64();
            assert!(!cold.stats.near_hit, "first plan of a batch must be cold");

            let t0 = Instant::now();
            let warm = inc_planner.plan(batch).expect("incremental warm plan");
            let inc_s = t0.elapsed().as_secs_f64();
            assert!(
                warm.stats.near_hit,
                "re-plan of an identical batch must take the near-hit path"
            );
            let bitwise = warm.placement == cold.placement && warm.plan == cold.plan;
            assert!(bitwise, "identical re-plan must reproduce the cold plan");
            inc_bitwise &= bitwise;
            dcp_sched::verify_plan(&warm.layout, &warm.placement, &warm.plan)
                .expect("warm plan must pass the stream verifier");
            let oracle = plans_equivalent(
                &cold.layout,
                &cold.placement,
                &cold.plan,
                &warm.placement,
                &warm.plan,
                SEED,
            )
            .expect("oracle execution");
            assert!(oracle, "oracle found a cold/warm bitwise divergence");
            inc_oracle &= oracle;
            inc_walls.push(inc_s);

            // Nudge each length down one token without changing its block
            // count, regenerating the mask for the new length (some mask
            // settings, e.g. shared-question, encode structure tied to the
            // exact length — those drift to a different near-hit key and
            // land in the cold-fallback part of the rate).
            let drifted: Vec<(u32, MaskSpec)> = batch
                .iter()
                .map(|(l, _)| {
                    let l = if *l > 1 && l % BLOCK_SIZE != 1 {
                        l - 1
                    } else {
                        *l
                    };
                    (l, mask.mask_for(l))
                })
                .collect();
            drift_attempts += 1;
            let t0 = Instant::now();
            let drift = inc_planner
                .plan(&drifted)
                .expect("incremental drifted plan");
            let drift_s = t0.elapsed().as_secs_f64();
            drift_near_hits += u64::from(drift.stats.near_hit);
            dcp_sched::verify_plan(&drift.layout, &drift.placement, &drift.plan)
                .expect("drifted plan must pass the stream verifier");
            drift_walls.push(drift_s);

            inc_rows.push(json!({
                "mask": mask.name(),
                "batch": bi,
                "plan_wall_s_cold": cold_s,
                "plan_wall_s_incremental": inc_s,
                "plan_wall_s_drift": drift_s,
                "bitwise_identical": bitwise,
                "oracle_equivalent": oracle,
                "drift_near_hit": drift.stats.near_hit,
            }));
        }
    }
    let inc_median = median(&inc_walls);
    let drift_median = median(&drift_walls);
    let near_hit_rate = if drift_attempts > 0 {
        drift_near_hits as f64 / drift_attempts as f64
    } else {
        0.0
    };
    println!(
        "planner incremental: identical re-plan median {:.3}ms, drifted re-plan median \
         {:.3}ms, drift near-hit rate {near_hit_rate:.2} ({drift_near_hits}/{drift_attempts}), \
         bitwise: {inc_bitwise}, oracle: {inc_oracle}",
        inc_median * 1e3,
        drift_median * 1e3,
    );

    let (cache_hits, cache_misses) = plan_planner.cache_stats();
    let cold_median = median(&cold_walls);
    let warm_median = median(&warm_walls);
    println!(
        "planner: cold median {:.2}ms, warm median {:.3}ms (warm/cold {:.4}), cache \
         {cache_hits} hits / {cache_misses} misses, serial==parallel: {serial_parallel_identical}",
        cold_median * 1e3,
        warm_median * 1e3,
        if cold_median > 0.0 {
            warm_median / cold_median
        } else {
            0.0
        },
    );
    let plan_report = json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": { "cluster": "p4de(2)", "dataset": "LongDataCollections", "seed": SEED },
        "planner": {
            "threads_default": threads_default as u64,
            "plan_wall_s_cold_median": cold_median,
            "plan_wall_s_warm_median": warm_median,
            "warm_over_cold": if cold_median > 0.0 { warm_median / cold_median } else { 0.0 },
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": if cache_hits + cache_misses > 0 {
                    cache_hits as f64 / (cache_hits + cache_misses) as f64
                } else {
                    0.0
                },
            },
            "stage_totals_s": {
                "coarsen": plan_rows.iter().map(|r| r["stages_s"]["coarsen"].as_f64().unwrap()).sum::<f64>(),
                "initial": plan_rows.iter().map(|r| r["stages_s"]["initial"].as_f64().unwrap()).sum::<f64>(),
                "refine": plan_rows.iter().map(|r| r["stages_s"]["refine"].as_f64().unwrap()).sum::<f64>(),
                "schedule": plan_rows.iter().map(|r| r["stages_s"]["schedule"].as_f64().unwrap()).sum::<f64>(),
            },
            "serial_parallel_identical": serial_parallel_identical,
        },
        "planner_incremental": {
            "enabled": true,
            "plan_wall_s_incremental_median": inc_median,
            "plan_wall_s_drift_median": drift_median,
            "near_hit_rate": near_hit_rate,
            "bitwise_identical": inc_bitwise,
            "oracle_equivalent": inc_oracle,
            "verified": true,
            "batches": inc_rows.len() as u64,
            "runs": inc_rows,
        },
        "passes": {
            "enabled": true,
            "comm_bytes_before_total": pass_bytes_before,
            "comm_bytes_after_total": pass_bytes_after,
            "comm_bytes_saved_total": pass_bytes_before - pass_bytes_after,
            "simulated_makespan_before_s": pass_makespan_before,
            "simulated_makespan_after_s": pass_makespan_after,
            "output_bitwise_identical": pass_bitwise,
            "per_pass": per_pass
                .iter()
                .map(|(name, (saved, removed, rewritten))| json!({
                    "pass": name,
                    "comm_bytes_saved": saved,
                    "instrs_or_transfers_removed": removed,
                    "instrs_rewritten": rewritten,
                }))
                .collect::<Vec<_>>(),
            "runs": pass_rows,
            "recovery": {
                "patches": rec_pass_rows.len() as u64,
                "fwd_comm_bytes_saved": rec_fwd_saved,
                "timing_makespan_before_s": rec_timing_before,
                "timing_makespan_after_s": rec_timing_after,
                "runs": rec_pass_rows,
            },
        },
        "runs": plan_rows,
    });
    let robustness = robustness_report(&cluster, attn, n);
    for (name, value) in [
        ("BENCH_exec.json", &exec_report),
        ("BENCH_plan.json", &plan_report),
        ("BENCH_robustness.json", &robustness),
    ] {
        std::fs::write(
            name,
            serde_json::to_string_pretty(value).expect("serializable"),
        )
        .unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        println!("[written {name}]");
    }

    if let Some(path) = trace_path {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, n * 64, 1.0, MAX_LEN, SEED);
        let batches: Vec<Batch> =
            pack_batches(&lengths, BUDGET, |l| MaskSetting::Causal.mask_for(l))
                .into_iter()
                .take(n)
                .collect();
        let iters = batches.len() as u64;
        let outcome =
            trace_workload(&cluster, attn, &plan_cfg, batches, true).expect("trace workload");
        let doc = trace_doc(
            &outcome,
            json!({
                "cluster": "p4de(2)",
                "dataset": "LongDataCollections",
                "max_len": MAX_LEN,
                "budget_tokens": BUDGET,
                "block_size": BLOCK_SIZE,
                "seed": SEED,
                "iterations": iters,
                "executed": true,
            }),
        );
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("[written {path} — open in chrome://tracing or Perfetto]");
    }
}
