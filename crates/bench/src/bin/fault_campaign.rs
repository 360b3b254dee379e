//! Seeded fault-campaign sweep: randomized kill cocktails against the
//! elastic-recovery subsystem, priced into `BENCH_robustness.json`.
//!
//! Four scenario families, all seeded and fully deterministic:
//!
//! - **single**: one device dies mid-forward at a random division frontier;
//! - **concurrent**: two devices die back to back before the second one
//!   starts any recovery work (its kill frontier stays inside its own
//!   stream), composing a depth-2 patch over an untouched shard set;
//! - **cascade**: a shard-hosting survivor dies *mid-patch* — after
//!   executing part of the spliced recovery shard — so the second patch
//!   must salvage recovery work from the first;
//! - **backward**: a device dies mid-backward and its partial `dQ`/`dKV`
//!   accumulators are salvaged at the reduction frontier.
//!
//! Every run executes the patched plan numerically and compares the merged
//! output (or gradients) **bitwise** against the unfaulted run. Half the
//! forward runs plan recovery fault-aware (a straggler and a degraded link
//! among the survivors) to exercise the `FaultSpec`-adjusted water-fill.
//!
//! The summary is merged into `BENCH_robustness.json` under a
//! `fault_campaign` key (the rest of the document — written by
//! `perf_report` — is preserved; the file is created schema-stamped when
//! absent), and the process exits 1 on any bitwise mismatch or verifier
//! rejection so CI fails even without the gate.
//!
//! Usage: `fault_campaign [--smoke] [robustness.json]`
//! `--smoke` runs 2 seeds per scenario instead of 5 (the CI verify job).

use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;

use dcp_bench::BENCH_SCHEMA_VERSION;
use dcp_blocks::TokenBlockId;
use dcp_core::{FailureEvent, PlanOutput, Planner, PlannerConfig, RecoveryConfig, RecoveryPlanner};
use dcp_exec::{
    execute_backward, execute_backward_recovery, execute_forward, execute_forward_recovery,
    BatchData, BlockOut, ExecObs,
};
use dcp_mask::MaskSpec;
use dcp_sched::Instr;
use dcp_sim::{Fault, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec, DcpError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

const DEVICES: u32 = 8;
const CAMPAIGN_SEED: u64 = 0xFA17;

fn fwd_divs(out_instrs: &[Instr]) -> u32 {
    out_instrs
        .iter()
        .filter(|i| matches!(i, Instr::Attn { .. }))
        .count() as u32
}

fn bwd_divs(out_instrs: &[Instr]) -> u32 {
    out_instrs
        .iter()
        .filter(|i| matches!(i, Instr::AttnBwd { .. }))
        .count() as u32
}

fn plan_batch(seed: u64) -> PlanOutput {
    let planner = Planner::new(
        ClusterSpec::single_node(DEVICES),
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let nseq = rng.gen_range(3..6);
    let seqs: Vec<(u32, MaskSpec)> = (0..nseq)
        .map(|i| {
            let len = rng.gen_range(48..220);
            let mask = if i == 0 {
                MaskSpec::Lambda {
                    sink: 4,
                    window: 24,
                }
            } else {
                MaskSpec::Causal
            };
            (len, mask)
        })
        .collect();
    planner.plan(&seqs).expect("campaign batch plans")
}

fn bits_of(outs: &HashMap<TokenBlockId, BlockOut>) -> Vec<u32> {
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

/// A FaultSpec degrading two random survivors (straggler + slow link),
/// exercising the fault-aware water-fill without changing numerics.
fn survivor_faults(rng: &mut SmallRng, failed: u32) -> FaultSpec {
    let mut pick = || loop {
        let d = rng.gen_range(0..DEVICES);
        if d != failed {
            return d;
        }
    };
    let straggler = pick();
    let (src, dst) = (pick(), pick());
    let mut faults = vec![Fault::Straggler {
        device: straggler,
        slowdown: 2.5,
    }];
    if src != dst {
        faults.push(Fault::DegradedLink {
            src,
            dst,
            factor: 0.4,
        });
    }
    FaultSpec { seed: 1, faults }
}

#[derive(Default)]
struct Tally {
    runs: u64,
    redone_fracs: Vec<f64>,
    patch_walls: Vec<f64>,
    salvage_bytes: u64,
    bitwise_failures: u64,
    verifier_rejections: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record_err(&mut self, what: &str, e: &DcpError) {
        if matches!(e, DcpError::InvalidPlan(_)) {
            self.verifier_rejections += 1;
        }
        self.errors.push(format!("{what}: {e}"));
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "runs": self.runs,
            "redone_frac_median": median(&self.redone_fracs),
            "patch_plan_wall_s_median": median(&self.patch_walls),
            "salvage_bytes_total": self.salvage_bytes,
            "bitwise_failures": self.bitwise_failures,
            "verifier_rejections": self.verifier_rejections,
            "errors": self.errors,
        })
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// One forward-phase campaign run. `depth2` selects a second kill;
/// `mid_patch` places the second kill frontier inside the spliced shard
/// (cascade) instead of inside the victim's own stream (concurrent).
fn run_forward(seed: u64, depth2: bool, mid_patch: bool, fault_aware: bool, tally: &mut Tally) {
    let out = plan_batch(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let d = out.plan.num_devices;
    // First victim: any device with at least one division.
    let mut dev1 = rng.gen_range(0..d);
    for _ in 0..d {
        if fwd_divs(&out.plan.fwd.devices[dev1 as usize].instrs) >= 2 {
            break;
        }
        dev1 = (dev1 + 1) % d;
    }
    let nd1 = fwd_divs(&out.plan.fwd.devices[dev1 as usize].instrs);
    let k1 = rng.gen_range(0..=nd1);
    let mut rp = RecoveryPlanner::new(RecoveryConfig::default());
    if fault_aware {
        rp = rp.with_fault_spec(survivor_faults(&mut rng, dev1));
    }
    let t0 = Instant::now();
    let patch1 = match rp.plan_recovery(
        &out,
        &FailureEvent {
            device: dev1,
            divisions_done: k1,
        },
    ) {
        Ok(p) => p,
        Err(e) => return tally.record_err(&format!("seed{seed} patch1"), &e),
    };
    let wall1 = t0.elapsed().as_secs_f64();
    tally.runs += 1;
    tally.patch_walls.push(wall1);
    tally.salvage_bytes += patch1.stats.salvage_bytes;

    let (patch, lost, redone) = if depth2 {
        // Second victim: the shard-hosting survivor with the most spliced
        // attention work.
        let divs = |x: u32| fwd_divs(&patch1.fwd.devices[x as usize].instrs);
        let (j2, _) = patch1
            .shard_hosts
            .iter()
            .enumerate()
            .map(|(j, _)| (j, divs(d + j as u32)))
            .max_by_key(|&(j, n)| (n, std::cmp::Reverse(j)))
            .expect("survivors exist");
        let dev2 = patch1.shard_hosts[j2];
        let own2 = divs(dev2);
        let shard2 = divs(d + j2 as u32);
        let k2 = if mid_patch && shard2 > 0 {
            own2 + rng.gen_range(1..=shard2)
        } else {
            rng.gen_range(0..=own2)
        };
        let t1 = Instant::now();
        let patch2 = match rp.plan_recovery_onto(
            &out,
            &patch1,
            &FailureEvent {
                device: dev2,
                divisions_done: k2,
            },
        ) {
            Ok(p) => p,
            Err(e) => return tally.record_err(&format!("seed{seed} patch2"), &e),
        };
        tally.patch_walls.push(t1.elapsed().as_secs_f64());
        tally.salvage_bytes += patch2.stats.salvage_bytes;
        let lost = patch1.stats.failed_flops + patch2.stats.failed_flops;
        let redone = patch1.stats.redone_flops + patch2.stats.redone_flops;
        (patch2, lost, redone)
    } else {
        let (l, r) = (patch1.stats.failed_flops, patch1.stats.redone_flops);
        (patch1, l, r)
    };
    if lost > 0 {
        tally.redone_fracs.push(redone as f64 / lost as f64);
    }

    let data = BatchData::random(&out.layout, seed);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data)
        .expect("clean forward executes");
    match execute_forward_recovery(
        &out.layout,
        &patch.placement,
        &patch.fwd,
        &data,
        &patch.verify_ctx(),
        &ExecObs::disabled(),
    ) {
        Ok(rec) => {
            if bits_of(&clean) != bits_of(&rec) {
                tally.bitwise_failures += 1;
                tally
                    .errors
                    .push(format!("seed{seed}: forward output diverged bitwise"));
            }
        }
        Err(e) => tally.record_err(&format!("seed{seed} recovery exec"), &e),
    }
}

/// One backward-phase campaign run: reduction-frontier salvage.
fn run_backward(seed: u64, tally: &mut Tally) {
    let out = plan_batch(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAD);
    let d = out.plan.num_devices;
    let mut dev = rng.gen_range(0..d);
    for _ in 0..d {
        if bwd_divs(&out.plan.bwd.devices[dev as usize].instrs) >= 2 {
            break;
        }
        dev = (dev + 1) % d;
    }
    let nd = bwd_divs(&out.plan.bwd.devices[dev as usize].instrs);
    let k = rng.gen_range(1..=nd.max(1));
    let rp = RecoveryPlanner::new(RecoveryConfig::default());
    let t0 = Instant::now();
    let patch = match rp.plan_backward_recovery(
        &out,
        &FailureEvent {
            device: dev,
            divisions_done: k,
        },
    ) {
        Ok(p) => p,
        Err(e) => return tally.record_err(&format!("seed{seed} bwd patch"), &e),
    };
    tally.runs += 1;
    tally.patch_walls.push(t0.elapsed().as_secs_f64());
    tally.salvage_bytes += patch.stats.salvage_bytes;
    if patch.stats.failed_flops > 0 {
        tally
            .redone_fracs
            .push(patch.stats.redone_flops as f64 / patch.stats.failed_flops as f64);
    }

    let data = BatchData::random(&out.layout, seed);
    let fwd_out = execute_forward(&out.layout, &out.placement, &out.plan, &data)
        .expect("clean forward executes");
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut grng = SmallRng::seed_from_u64(seed ^ 0xD0);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| grng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    let clean = execute_backward(
        &out.layout,
        &out.placement,
        &out.plan,
        &data,
        &fwd_out,
        &d_o,
    )
    .expect("clean backward executes");
    match execute_backward_recovery(
        &out.layout,
        &patch.placement,
        &patch.bwd,
        &data,
        &fwd_out,
        &d_o,
        &patch.verify_ctx(),
        &ExecObs::disabled(),
    ) {
        Ok(rec) => {
            let same = clean.len() == rec.len()
                && clean.iter().all(|(id, c)| {
                    let r = &rec[id];
                    c.dq.iter()
                        .map(|v| v.to_bits())
                        .eq(r.dq.iter().map(|v| v.to_bits()))
                        && c.dk
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(r.dk.iter().map(|v| v.to_bits()))
                        && c.dv
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(r.dv.iter().map(|v| v.to_bits()))
                });
            if !same {
                tally.bitwise_failures += 1;
                tally
                    .errors
                    .push(format!("seed{seed}: backward grads diverged bitwise"));
            }
        }
        Err(e) => tally.record_err(&format!("seed{seed} bwd recovery exec"), &e),
    }
}

fn main() {
    let (flags, positional): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let smoke = flags.iter().any(|f| f == "--smoke");
    let path = positional
        .into_iter()
        .next()
        .unwrap_or_else(|| "BENCH_robustness.json".into());
    let seeds_per = if smoke { 2u64 } else { 5 };

    let mut single = Tally::default();
    let mut concurrent = Tally::default();
    let mut cascade = Tally::default();
    let mut backward = Tally::default();
    for i in 0..seeds_per {
        let seed = CAMPAIGN_SEED + i;
        // Half the single-kill runs plan fault-aware.
        run_forward(seed, false, false, i % 2 == 1, &mut single);
        run_forward(seed + 100, true, false, false, &mut concurrent);
        run_forward(seed + 200, true, true, i % 2 == 0, &mut cascade);
        run_backward(seed + 300, &mut backward);
    }

    let tallies = [
        ("single", &single),
        ("concurrent", &concurrent),
        ("cascade", &cascade),
        ("backward", &backward),
    ];
    let bitwise_failures: u64 = tallies.iter().map(|(_, t)| t.bitwise_failures).sum();
    let verifier_rejections: u64 = tallies.iter().map(|(_, t)| t.verifier_rejections).sum();
    let runs_total: u64 = tallies.iter().map(|(_, t)| t.runs).sum();
    let all_redone: Vec<f64> = tallies
        .iter()
        .flat_map(|(_, t)| t.redone_fracs.iter().copied())
        .collect();
    let campaign = json!({
        "seed": CAMPAIGN_SEED,
        "smoke": smoke,
        "runs_total": runs_total,
        "bitwise_failures": bitwise_failures,
        "verifier_rejections": verifier_rejections,
        "redone_frac_median": median(&all_redone),
        "redone_frac_max": all_redone.iter().cloned().fold(0.0f64, f64::max),
        "cascade_patch_wall_s_median": median(&cascade.patch_walls),
        "scenarios": tallies
            .iter()
            .map(|(name, t)| (name.to_string(), t.to_json()))
            .collect::<serde_json::Map>(),
    });

    // Merge into the robustness report, preserving perf_report's sections.
    let prior: serde_json::Value = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_else(|| json!({}));
    let mut map = match prior {
        serde_json::Value::Object(m) => m,
        _ => serde_json::Map::new(),
    };
    map.insert("schema_version".into(), json!(BENCH_SCHEMA_VERSION));
    map.insert("fault_campaign".into(), campaign);
    let doc = serde_json::Value::Object(map);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));

    println!(
        "fault_campaign: {runs_total} runs ({} per scenario family), \
         {bitwise_failures} bitwise failure(s), {verifier_rejections} verifier rejection(s)",
        seeds_per
    );
    for (name, t) in &tallies {
        println!(
            "  {name:<10} runs={} redone_frac_median={:.3} patch_wall_median={:.2}ms \
             salvage_bytes={}",
            t.runs,
            median(&t.redone_fracs),
            median(&t.patch_walls) * 1e3,
            t.salvage_bytes
        );
        for e in &t.errors {
            eprintln!("  {name}: ERROR {e}");
        }
    }
    println!("[merged fault_campaign into {path}]");

    if bitwise_failures > 0 || verifier_rejections > 0 {
        eprintln!("fault_campaign: FAIL");
        exit(1);
    }
    let errs: usize = tallies.iter().map(|(_, t)| t.errors.len()).sum();
    if errs > 0 {
        eprintln!("fault_campaign: FAIL ({errs} run error(s))");
        exit(1);
    }
}
