//! Elastic mid-iteration recovery: shrink-and-reshard a live plan onto the
//! surviving devices after a device loss.
//!
//! The planner (Sec. 4) assumes the device set is fixed for the whole
//! iteration. This module relaxes that: given a [`PlanOutput`] already in
//! flight, a per-device execution frontier (how many fused attention
//! divisions each device completed) and a [`FailureEvent`] naming the lost
//! device, [`RecoveryPlanner::plan_recovery`] produces a [`RecoveryPatch`]
//! that completes the batch on the survivors **without recomputing anything
//! the failed device already finished**:
//!
//! - the failed device's *un-executed* computation blocks and its ownership
//!   duties are grouped into per-Q-block **residual units** and re-sharded
//!   over the survivors by the same hypergraph partitioner the planner uses,
//!   with each survivor's *remaining* capacity (its own unfinished divisions)
//!   as the per-part target weight (via
//!   [`dcp_hypergraph::PartitionConfig::with_part_targets`]);
//! - partial outputs the failed device already reduced are **salvaged**: its
//!   raw online-softmax accumulators ship to the replacement shards over
//!   dedicated salvage comm ops, so the shards fold the residual blocks into
//!   them exactly where the failed device left off — the merged batch output
//!   is bitwise identical to an unfaulted run (see
//!   `dcp_exec::execute_forward_recovery`);
//! - survivor instruction streams are reused **verbatim**: shards deposit
//!   the failed device's outstanding partials under the original comm ids,
//!   so nothing downstream of the failure is regenerated. Only the failed
//!   device's stream (truncated at the frontier plus salvage launches) and
//!   the shard streams are new.
//!
//! Forward and backward salvage share one renderer. It takes the dying
//! streams cut at their frontiers and each stream's residual groups with
//! their shard assignment, and emits the patch's *functional* phase over
//! `D + S` logical devices (shard `j` is logical device `D + j`) for the
//! numerical executor: retargeted partials, salvage and input re-fetch
//! ops, truncated dying streams and shard streams. Its host fold, `timing`,
//! is the same work spliced back onto the `D` physical ranks (shard `j` on
//! survivor `shard_hosts[j]`) for the cluster simulator — the
//! recovered-vs-clean makespan delta is the recovery cost charged into the
//! iteration breakdown. Direction is data, not a code path: the partial
//! kinds (`O`, or `dQ` and `dKV`), the re-fetched inputs (plus `dO`
//! backward) and the attention instruction.
//!
//! Recovery is **re-entrant**: a [`RecoveryPatch`] is itself a recoverable
//! plan. If a survivor dies while a patch is in flight —
//! including one hosting spliced shards — [`RecoveryPlanner::plan_recovery_onto`]
//! composes a second patch over the first. Every logical stream the new
//! failure kills (the rank's own stream plus any recovery shards it hosted)
//! is cut at its own frontier, and each dying stream's residual units are
//! re-sharded onto a fresh block of shard streams. Per-dying-stream shard
//! separation is what keeps the merged output bitwise identical at any
//! cascade depth: two dying streams may each hold a *distinct* accumulator
//! for the same token block (the owner's reduce state vs. another stream's
//! outstanding partial), and merging them would change the reduction tree.
//!
//! Failures during the **backward** phase do not throw the phase away:
//! [`RecoveryPlanner::plan_backward_recovery`] cuts the dead stream at its
//! reduction frontier, groups the surviving partial `dQ`/`dKV` accumulators
//! into connected components (an item contributes to one dQ and one dKV
//! accumulator, so co-contributing blocks must stay colocated), salvages
//! the raw running sums and water-fills the components over the survivors.
//! Gradient accumulators are plain sums, so the salvaged state folds in
//! bitwise exactly where the dead stream stopped.
//!
//! With [`RecoveryPlanner::with_fault_spec`] the re-shard targets are
//! scaled by estimated survivor health (straggler slowdowns shrink a
//! survivor's flop target, degraded links its byte target), closing the
//! detect → estimate → place loop inside recovery itself. A healthy or
//! absent spec leaves the targets byte-identical to the fault-blind path.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use dcp_blocks::{BatchLayout, CompBlock, CompBlockId, TokenBlockId};
use dcp_hypergraph::{partition, HypergraphBuilder, PartitionConfig, VertexWeight};
use dcp_obs::{Event, ObsHandle, Source as ObsSource};
use dcp_sched::schedule::reduce_bytes;
use dcp_sched::{
    build_plan, verify_phase, verify_plan, verify_structure, BufferStats, CommId, CommOp,
    DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, Placement, ReduceItem,
    ScheduleConfig, Transfer, VerifyCtx,
};
use dcp_sim::FaultSpec;
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::planner::PlanOutput;

/// Floor for the fault-adjusted compute weight, matching the network
/// floor of [`FaultSpec::capacity_weights`]: even a badly degraded survivor
/// keeps a sliver of capacity so targets stay positive.
const MIN_CAP_WEIGHT: f64 = 0.05;

/// A device loss at a division boundary of the forward phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// The lost device rank.
    pub device: u32,
    /// Fused attention divisions the device completed before failing (its
    /// execution frontier). `0` means it failed before computing anything;
    /// a value equal to its division count means only its ownership duties
    /// (output reduction) remain.
    pub divisions_done: u32,
}

/// Tuning knobs for the recovery planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Imbalance tolerance for the residual re-shard (both weight
    /// dimensions). The residual subproblem is small, so this is looser
    /// than the planner's placement epsilon.
    pub epsilon: f64,
    /// Partitioner seed.
    pub seed: u64,
    /// Divisions for the re-planned backward phase (match the original
    /// [`crate::PlannerConfig::divisions`]).
    pub divisions: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            epsilon: 0.4,
            seed: 0x5eed,
            divisions: 4,
        }
    }
}

/// Accounting for one recovery patch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Forward FLOPs the failed device was assigned in the original plan.
    pub failed_flops: u64,
    /// Forward FLOPs re-assigned to shards (the failed device's un-executed
    /// blocks). Everything it finished is salvaged, not redone.
    pub redone_flops: u64,
    /// Bytes of raw accumulators evacuated from the failed device.
    pub salvage_bytes: u64,
    /// Bytes of Q/KV inputs the shards re-fetch for residual blocks.
    pub refetch_bytes: u64,
    /// Residual units (Q-block groups) re-sharded over the survivors.
    pub residual_units: usize,
    /// Whether the hypergraph re-shard fell back to greedy waterfilling.
    pub greedy_fallback: bool,
    /// Wall time spent building this patch.
    pub plan_wall_s: f64,
    /// How many failures this patch composes over: `1` for a patch against
    /// a clean plan, `2` for a patch over a depth-1 patch, and so on.
    pub cascade_depth: u32,
}

/// The shrink-and-reshard patch for one [`FailureEvent`].
///
/// `fwd` is the functional plan: `D + shard_hosts.len()` logical devices,
/// executed with `dcp_exec::execute_forward_recovery` under
/// [`RecoveryPatch::verify_ctx`]. `timing` folds the shard work onto the
/// `D` physical ranks for the simulator. The backward phase is re-planned:
/// `bwd_placement` assigns nothing to the failed device and `bwd` is its
/// freshly built plan.
#[derive(Debug, Clone)]
pub struct RecoveryPatch {
    /// The most recently failed device rank (this patch's event).
    pub failed: u32,
    /// Divisions the failed device completed (copied from the event).
    pub divisions_done: u32,
    /// Every physical rank lost so far, in failure order. The last entry is
    /// `failed`; earlier entries come from the prior patch when composing.
    pub failed_devices: Vec<u32>,
    /// Every dead *logical* stream: lost ranks plus any shard streams that
    /// were hosted on them when they died. Their truncated prefixes remain
    /// in `fwd` and may still read re-owned blocks locally.
    pub failed_streams: HashSet<u32>,
    /// Physical survivor hosting each shard: shard `j` (logical device
    /// `D + j`) runs on rank `shard_hosts[j]`. Cumulative across cascade
    /// depths — earlier patches' shards keep their slots.
    pub shard_hosts: Vec<u32>,
    /// Placement over the `D + S` logical devices of `fwd`.
    pub placement: Placement,
    /// Patched forward phase over `D + S` logical devices.
    pub fwd: PhasePlan,
    /// Comm ids in `fwd` carrying raw salvaged accumulators (cumulative).
    pub salvage_comms: HashSet<u32>,
    /// Shard (logical device id) that deposits each outstanding partial
    /// under the original comm ids, keyed by that partial (its producer
    /// field names the dead stream) — two dead streams may owe partials for
    /// the same block.
    pub producer_of: HashMap<Payload, u32>,
    /// Token blocks whose ownership moved off a dead stream (cumulative).
    pub reowned: HashSet<TokenBlockId>,
    /// The patched forward phase folded onto the `D` physical ranks, for
    /// the cluster simulator.
    pub timing: PhasePlan,
    /// Backward placement over `D` devices with nothing on any failed rank.
    pub bwd_placement: Placement,
    /// Freshly built plan for `bwd_placement` (use its `bwd` phase).
    pub bwd: ExecutionPlan,
    /// Patch accounting (for this event; sets `cascade_depth`).
    pub stats: RecoveryStats,
}

impl RecoveryPatch {
    /// The recovery context of `fwd`: the one value both
    /// [`dcp_sched::verify_phase`] and `dcp_exec::execute_forward_recovery`
    /// take.
    pub fn verify_ctx(&self) -> VerifyCtx {
        VerifyCtx {
            failed: self.failed_streams.clone(),
            salvage_comms: self.salvage_comms.clone(),
            producer_of: self.producer_of.clone(),
            reowned: self.reowned.clone(),
        }
    }
}

/// A reduction-frontier salvage patch for a failure **during the backward
/// phase** (see [`RecoveryPlanner::plan_backward_recovery`]).
///
/// `bwd` is the functional patched backward phase over `D + S` logical
/// devices, executed with `dcp_exec::execute_backward_recovery` under
/// [`BwdRecoveryPatch::verify_ctx`]. `timing` folds the shard work onto
/// the `D` physical ranks for the simulator.
#[derive(Debug, Clone)]
pub struct BwdRecoveryPatch {
    /// The failed device rank.
    pub failed: u32,
    /// Backward divisions the failed device completed before dying.
    pub divisions_done: u32,
    /// Physical survivor hosting each shard stream.
    pub shard_hosts: Vec<u32>,
    /// Placement over the `D + S` logical devices of `bwd`.
    pub placement: Placement,
    /// Patched backward phase over `D + S` logical devices.
    pub bwd: PhasePlan,
    /// Comm ids carrying raw salvaged `dQ`/`dKV` running sums.
    pub salvage_comms: HashSet<u32>,
    /// Shard that deposits each outstanding `dQ`/`dKV` partial, keyed by
    /// that partial.
    pub producer_of: HashMap<Payload, u32>,
    /// Token blocks whose gradient ownership moved to a shard.
    pub reowned: HashSet<TokenBlockId>,
    /// The patched backward phase folded onto the `D` physical ranks.
    pub timing: PhasePlan,
    /// Patch accounting.
    pub stats: RecoveryStats,
}

impl BwdRecoveryPatch {
    /// The recovery context of `bwd`: the one value both
    /// [`dcp_sched::verify_phase`] and `dcp_exec::execute_backward_recovery`
    /// take.
    pub fn verify_ctx(&self) -> VerifyCtx {
        VerifyCtx {
            failed: HashSet::from([self.failed]),
            salvage_comms: self.salvage_comms.clone(),
            producer_of: self.producer_of.clone(),
            reowned: self.reowned.clone(),
        }
    }
}

/// What the patch renderer needs to know about a phase's direction.
struct Direction {
    /// Whether residual work runs as `AttnBwd` rather than `Attn`.
    backward: bool,
    /// Accumulators an executed computation block leaves live, one per
    /// partial kind.
    partials: &'static [PayloadKind],
    /// Inputs a residual computation block re-fetches.
    inputs: &'static [PayloadKind],
}

const FORWARD: Direction = Direction {
    backward: false,
    partials: &[PayloadKind::PartialO],
    inputs: &[PayloadKind::Q, PayloadKind::Kv],
};

const BACKWARD: Direction = Direction {
    backward: true,
    partials: &[PayloadKind::PartialDq, PayloadKind::PartialDkv],
    inputs: &[PayloadKind::Q, PayloadKind::Kv, PayloadKind::DO],
};

impl Direction {
    /// The fused attention instruction of this direction.
    fn attn(&self, items: Vec<CompBlockId>, flops: u64) -> Instr {
        if self.backward {
            Instr::AttnBwd { items, flops }
        } else {
            Instr::Attn { items, flops }
        }
    }
}

/// The token block of `cb` a payload of `kind` concerns: the KV block for
/// KV and dKV, the Q block otherwise.
fn block_of(kind: PayloadKind, cb: &CompBlock) -> TokenBlockId {
    match kind {
        PayloadKind::Kv | PayloadKind::PartialDkv => cb.kv_block,
        _ => cb.q_block,
    }
}

/// Residual work moved to one shard as a whole, so the salvaged
/// accumulators, the residual folds into them and the ownership duties of
/// their blocks stay colocated: a forward per-Q-block unit, or a backward
/// component of the dQ/dKV contribution graph.
#[derive(Debug, Default)]
struct Group {
    /// Deterministic tie-break for the greedy water-fill.
    key: u32,
    /// Accumulators the group may salvage, in salvage order.
    accs: Vec<(PayloadKind, TokenBlockId)>,
    /// Residual computation blocks, in stream order.
    items: Vec<CompBlockId>,
    /// Token blocks whose ownership moves with the group.
    owned: Vec<TokenBlockId>,
    /// Attention flops of `items`.
    flops: u64,
}

impl Group {
    /// An empty group for the accumulator `(kind, tb)`.
    fn new(kind: PayloadKind, tb: TokenBlockId) -> Self {
        Group {
            key: tb.0,
            accs: vec![(kind, tb)],
            ..Default::default()
        }
    }
}

/// Builds [`RecoveryPatch`]es for failures against live [`PlanOutput`]s.
#[derive(Debug, Clone)]
pub struct RecoveryPlanner {
    cfg: RecoveryConfig,
    obs: ObsHandle,
    fault_spec: Option<FaultSpec>,
}

/// One dying stream cut at its execution frontier, plus (filled in by the
/// caller) its residual groups and where they were re-sharded.
struct DyingView {
    /// The dying logical stream id.
    l: u32,
    /// Fused divisions this stream completed.
    k: u32,
    /// Instruction index of the frontier cut.
    cut: usize,
    /// Total attention flops of the stream.
    flops: u64,
    /// Accumulators live at the cut: the partials of executed blocks plus
    /// any installed by salvage waits in the prefix.
    executed: HashSet<(PayloadKind, TokenBlockId)>,
    /// Residual (un-executed) computation blocks, in stream order.
    residual: Vec<CompBlockId>,
    /// Comm ids waited *within* the kept prefix (these waits replay, so
    /// their incoming transfers must not be retargeted).
    kept_waits: HashSet<u32>,
    /// Non-salvage comm ids waited in the dropped suffix, in stream order.
    tail_waits: Vec<u32>,
    /// Every reduce item of the dying stream, flattened in stream order.
    reduce_items: Vec<ReduceItem>,
    /// Suffix comm launches carrying partials this stream still owed.
    residual_out_cids: Vec<u32>,
    /// Each owed partial, as its original payload.
    outstanding: Vec<Payload>,
    /// Residual groups.
    groups: Vec<Group>,
    /// First logical id of this stream's block of shards (one per
    /// survivor), or `None` when it has no groups to move.
    shards: Option<u32>,
    /// Shard index (within the block) of each group.
    part: Vec<u32>,
}

impl DyingView {
    /// Cuts stream `l` of `phase` after its `k`-th fused division. `ctx` is
    /// the recovery context the phase already carries (prior salvage ops
    /// and deposits); `device` names the physical rank in errors.
    fn cut(
        layout: &BatchLayout,
        phase: &PhasePlan,
        dir: &Direction,
        ctx: &VerifyCtx,
        l: u32,
        k: u32,
        device: u32,
    ) -> DcpResult<Self> {
        let instrs = &phase.devices[l as usize].instrs;
        let (cut, executed_items, residual, flops) = split_frontier(instrs, k, device)?;
        let mut executed: HashSet<(PayloadKind, TokenBlockId)> = HashSet::new();
        for &c in &executed_items {
            let cb = &layout.comp_blocks[c.0 as usize];
            executed.extend(dir.partials.iter().map(|&kind| (kind, block_of(kind, cb))));
        }
        let mut kept_waits: HashSet<u32> = HashSet::new();
        for ins in &instrs[..cut] {
            if let Instr::CommWait(cid) = ins {
                kept_waits.insert(cid.0);
                if ctx.salvage_comms.contains(&cid.0) {
                    // A replayed salvage wait re-installs an inherited
                    // accumulator — live state this stream can re-ship.
                    for tr in &phase.comms[cid.0 as usize].transfers {
                        if tr.to == l {
                            executed.insert((tr.payload.kind(), tr.payload.token_block()));
                        }
                    }
                }
            }
        }
        let tail_waits: Vec<u32> = instrs[cut..]
            .iter()
            .filter_map(|ins| match ins {
                Instr::CommWait(cid) if !ctx.salvage_comms.contains(&cid.0) => Some(cid.0),
                _ => None,
            })
            .collect();
        let reduce_items: Vec<ReduceItem> = instrs
            .iter()
            .flat_map(|ins| match ins {
                Instr::Reduce { items, .. } => items.clone(),
                _ => Vec::new(),
            })
            .collect();
        // Outstanding out-comms: partials launched after the frontier that
        // this stream produced, or deposits it inherited from a prior patch.
        let mut residual_out_cids: Vec<u32> = Vec::new();
        let mut outstanding: Vec<Payload> = Vec::new();
        for ins in &instrs[cut..] {
            if let Instr::CommLaunch(cid) = ins {
                let before = outstanding.len();
                outstanding.extend(
                    phase.comms[cid.0 as usize]
                        .transfers
                        .iter()
                        .map(|tr| tr.payload)
                        .filter(|p| p.producer() == Some(l) || ctx.producer_of.get(p) == Some(&l)),
                );
                if outstanding.len() > before {
                    residual_out_cids.push(cid.0);
                }
            }
        }
        Ok(DyingView {
            l,
            k,
            cut,
            flops,
            executed,
            residual,
            kept_waits,
            tail_waits,
            reduce_items,
            residual_out_cids,
            outstanding,
            groups: Vec::new(),
            shards: None,
            part: Vec::new(),
        })
    }

    /// The groups re-sharded onto logical shard `dev` of this stream.
    fn groups_on(&self, dev: u32) -> impl Iterator<Item = &Group> {
        let j = dev - self.shards.expect("stream has shards");
        (self.groups.iter().zip(&self.part)).filter_map(move |(g, &p)| (p == j).then_some(g))
    }

    /// Attention flops of the residual blocks.
    fn redone_flops(&self, layout: &BatchLayout) -> u64 {
        let flops = |c: &CompBlockId| layout.comp_blocks[c.0 as usize].flops;
        self.residual.iter().map(flops).sum()
    }
}

/// The renderings of one recovery patch (see [`Renderer::render`]).
struct Rendering {
    /// Placement over the `D + S` logical devices of `phase`.
    placement: Placement,
    /// The functional patched phase over `D + S` logical devices.
    phase: PhasePlan,
    /// `phase` folded onto the `D` physical ranks.
    timing: PhasePlan,
    /// The patch's cumulative recovery context.
    ctx: VerifyCtx,
    /// Bytes of raw accumulators evacuated from the dying streams.
    salvage_bytes: u64,
    /// Bytes of inputs the shards re-fetch.
    refetch_bytes: u64,
}

/// The one renderer of recovery patches: forward and backward salvage both
/// hand it their dying streams and group → shard assignments.
struct Renderer<'a> {
    layout: &'a BatchLayout,
    dir: &'a Direction,
    /// The clean plan's placement: residual inputs are re-fetched from
    /// their original owners (dead devices keep serving resident blocks
    /// while draining, which the verifier admits via the re-owned set).
    origin: &'a Placement,
    /// Placement of the phase being patched.
    base_placement: &'a Placement,
    /// The phase being patched.
    base: &'a PhasePlan,
    /// Dying streams with their groups and shard assignment.
    views: &'a [DyingView],
    /// Physical survivor hosting each shard, cumulative.
    shard_hosts: &'a [u32],
    /// Every physical rank lost so far.
    failed_devices: &'a [u32],
}

impl Renderer<'_> {
    /// Renders the patch. `ctx` is the base phase's recovery context with
    /// `failed` already extended by the dying streams; the returned context
    /// adds this patch's salvage ops, deposits and re-owned blocks.
    fn render(&self, mut ctx: VerifyCtx) -> DcpResult<Rendering> {
        let (layout, base, views) = (self.layout, self.base, self.views);
        let d_total = self.origin.num_devices;
        let s_count = d_total - self.failed_devices.len() as u32;

        // Patched placement over the grown logical device set.
        let mut token_to_dev = self.base_placement.token_to_dev.clone();
        let mut comp_to_dev = self.base_placement.comp_to_dev.clone();
        let mut acc_dev: HashMap<(u32, PayloadKind, TokenBlockId), u32> = HashMap::new();
        for view in views {
            let Some(first) = view.shards else { continue };
            for (g, &j) in view.groups.iter().zip(&view.part) {
                let dev = first + j;
                for &(kind, tb) in &g.accs {
                    acc_dev.insert((view.l, kind, tb), dev);
                }
                for &tb in &g.owned {
                    token_to_dev[tb.0 as usize] = dev;
                    ctx.reowned.insert(tb);
                }
                for &c in &g.items {
                    comp_to_dev[c.0 as usize] = dev;
                }
            }
        }
        let placement = Placement {
            num_devices: d_total + self.shard_hosts.len() as u32,
            token_to_dev,
            comp_to_dev,
        };

        // Partials bound for a dying stream move with the block — unless
        // the receiving wait sits in the kept prefix, which replays it.
        // Ordinary partials target the block's owner, so they follow
        // ownership; a prior patch's salvage evacuation follows the group
        // that was going to consume it.
        let mut comms: Vec<CommOp> = base.comms.clone();
        for (cid, op) in comms.iter_mut().enumerate() {
            let cid = cid as u32;
            for tr in &mut op.transfers {
                let Some(view) = views.iter().find(|v| v.l == tr.to) else {
                    continue;
                };
                let (kind, tb) = (tr.payload.kind(), tr.payload.token_block());
                if kind.is_input() || view.kept_waits.contains(&cid) {
                    continue;
                }
                if ctx.salvage_comms.contains(&cid) {
                    tr.to = *acc_dev.get(&(tr.to, kind, tb)).ok_or_else(|| {
                        DcpError::invalid_plan(format!(
                            "inherited salvage for {tb:?} targets dying stream {} \
                             but the block has no residual unit",
                            tr.to
                        ))
                    })?;
                } else {
                    tr.to = placement.token_dev(tb);
                    debug_assert!(tr.to >= d_total, "partial retarget must land on a shard");
                }
            }
        }
        // Outstanding partials now deposit from their group's shard.
        for view in views {
            for &p in &view.outstanding {
                let dev = acc_dev[&(view.l, p.kind(), p.token_block())];
                ctx.producer_of.insert(p, dev);
            }
        }
        // Salvage ops: live accumulators a dying stream built (or had
        // re-installed) before its frontier that a shard still needs —
        // residual folds, outstanding partials, or final assembly of a
        // re-owned block.
        let mut salvage_bytes = 0u64;
        let salvage_cid = push_shard_ops(&mut comms, views, s_count, |view, dev, transfers| {
            for g in view.groups_on(dev) {
                for &(kind, tb) in &g.accs {
                    if !view.executed.contains(&(kind, tb)) {
                        continue;
                    }
                    let bytes = kind.bytes(&layout.token_blocks[tb.0 as usize]);
                    salvage_bytes += bytes;
                    transfers.push(Transfer {
                        from: view.l,
                        to: dev,
                        payload: Payload::partial(kind, tb, view.l).expect("partial kind"),
                        bytes,
                    });
                }
            }
        });
        // Prior patches' salvage ops, ascending.
        let mut inherited: Vec<u32> = ctx.salvage_comms.iter().copied().collect();
        inherited.sort_unstable();
        ctx.salvage_comms
            .extend(salvage_cid.iter().flatten().flatten().map(|c| c.0));
        // Input re-fetch ops: inputs a shard's residual blocks read that it
        // does not own under the patched placement.
        let mut refetch_bytes = 0u64;
        let fetch_cid = push_shard_ops(&mut comms, views, s_count, |view, dev, transfers| {
            let mut seen: HashSet<Payload> = HashSet::new();
            for g in view.groups_on(dev) {
                for &c in &g.items {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    for &kind in self.dir.inputs {
                        let tb = block_of(kind, cb);
                        let payload = Payload::input(kind, tb).expect("input kind");
                        if placement.token_dev(tb) == dev || !seen.insert(payload) {
                            continue;
                        }
                        let bytes = kind.bytes(&layout.token_blocks[tb.0 as usize]);
                        refetch_bytes += bytes;
                        transfers.push(Transfer {
                            from: self.origin.token_dev(tb),
                            to: dev,
                            payload,
                            bytes,
                        });
                    }
                }
            }
        });

        // Streams: truncate the dying streams, emit the shards.
        let mut devices: Vec<DeviceStream> = base.devices.clone();
        for (view, cids) in views.iter().zip(&salvage_cid) {
            let orig = &base.devices[view.l as usize];
            let mut instrs: Vec<Instr> = orig.instrs[..view.cut].to_vec();
            instrs.extend(cids.iter().flatten().map(|&cid| Instr::CommLaunch(cid)));
            devices[view.l as usize] = DeviceStream {
                device: view.l,
                instrs,
                buffer: orig.buffer,
            };
        }
        let receives =
            |cid: u32, dev: u32| comms[cid as usize].transfers.iter().any(|t| t.to == dev);
        for (v, view) in views.iter().enumerate() {
            let Some(first) = view.shards else { continue };
            for j in 0..s_count as usize {
                let dev = first + j as u32;
                let (salvage, fetch) = (salvage_cid[v][j], fetch_cid[v][j]);
                let mut instrs: Vec<Instr> = Vec::new();
                instrs.extend(fetch.map(Instr::CommLaunch));
                // Old salvage evacuations whose receiving wait was
                // truncated now land here; wait on them before any residual
                // fold touches the installed accumulator.
                instrs.extend(
                    (inherited.iter())
                        .filter(|&&cid| receives(cid, dev))
                        .map(|&cid| Instr::CommWait(CommId(cid))),
                );
                instrs.extend(salvage.map(Instr::CommWait));
                instrs.extend(fetch.map(Instr::CommWait));
                let items: Vec<CompBlockId> = (view.residual.iter().copied())
                    .filter(|&c| placement.comp_dev(c) == dev)
                    .collect();
                if !items.is_empty() {
                    let flops = items
                        .iter()
                        .map(|&c| layout.comp_blocks[c.0 as usize].flops)
                        .sum();
                    instrs.push(self.dir.attn(items, flops));
                }
                for &cid in &view.residual_out_cids {
                    let mine = comms[cid as usize]
                        .transfers
                        .iter()
                        .any(|tr| ctx.producer_of.get(&tr.payload) == Some(&dev));
                    if mine {
                        instrs.push(Instr::CommLaunch(CommId(cid)));
                    }
                }
                instrs.extend(
                    (view.tail_waits.iter())
                        .filter(|&&cid| receives(cid, dev))
                        .map(|&cid| Instr::CommWait(CommId(cid))),
                );
                let ritems: Vec<ReduceItem> = (view.reduce_items.iter())
                    .filter(|it| placement.token_dev(it.target) == dev)
                    .cloned()
                    .collect();
                if !ritems.is_empty() {
                    let bytes = reduce_bytes(layout, &ritems);
                    instrs.push(Instr::Reduce {
                        items: ritems,
                        bytes,
                    });
                }
                devices.push(DeviceStream {
                    device: dev,
                    instrs,
                    buffer: BufferStats::default(),
                });
            }
        }
        let phase = PhasePlan { comms, devices };
        let timing = self.fold_onto_hosts(&phase, &ctx);
        Ok(Rendering {
            placement,
            phase,
            timing,
            ctx,
            salvage_bytes,
            refetch_bytes,
        })
    }

    /// The host fold: `phase` with every shard stream spliced onto its
    /// physical host, for the cluster simulator.
    fn fold_onto_hosts(&self, phase: &PhasePlan, ctx: &VerifyCtx) -> PhasePlan {
        let d_total = self.origin.num_devices;
        let shard_hosts = self.shard_hosts;
        let host = |x: u32| {
            if x >= d_total {
                shard_hosts[(x - d_total) as usize]
            } else {
                x
            }
        };
        let comms: Vec<CommOp> = (phase.comms.iter().enumerate())
            .map(|(cid, op)| CommOp {
                transfers: (op.transfers.iter())
                    .map(|tr| {
                        // Outstanding partials are now produced by a shard,
                        // so the flow must originate from the shard's host
                        // for the spliced launch to start it. Salvage ops
                        // are genuine dead→shard evacuations and keep
                        // their source.
                        let redeposited = !tr.payload.kind().is_input()
                            && ctx.failed.contains(&tr.from)
                            && !ctx.salvage_comms.contains(&(cid as u32));
                        let from = match ctx.producer_of.get(&tr.payload) {
                            Some(&shard) if redeposited => shard,
                            _ => tr.from,
                        };
                        Transfer { from, ..*tr }
                    })
                    .filter(|tr| host(tr.from) != host(tr.to))
                    .map(|tr| Transfer {
                        from: host(tr.from),
                        to: host(tr.to),
                        ..tr
                    })
                    .collect(),
            })
            .collect();
        let l_new = d_total + shard_hosts.len() as u32;
        let devices = (0..d_total)
            .map(|r| {
                let hosted = |dead: bool| {
                    (d_total..l_new)
                        .filter(move |&l| {
                            shard_hosts[(l - d_total) as usize] == r
                                && ctx.failed.contains(&l) == dead
                        })
                        .flat_map(|l| phase.devices[l as usize].instrs.iter().cloned())
                };
                let mut instrs = phase.devices[r as usize].instrs.clone();
                if self.failed_devices.contains(&r) {
                    // A dead rank replays the truncated prefixes of every
                    // logical stream it was running, in splice order.
                    instrs.extend(hosted(true));
                } else {
                    // Live shard work slots in after the host's own
                    // compute, before its trailing output waits and
                    // reduce, in ascending logical id.
                    let tail = instrs
                        .iter()
                        .rposition(|i| !matches!(i, Instr::CommWait(_) | Instr::Reduce { .. }))
                        .map_or(0, |i| i + 1);
                    instrs.splice(tail..tail, hosted(false));
                }
                DeviceStream {
                    device: r,
                    instrs,
                    buffer: self.base.devices[r as usize].buffer,
                }
            })
            .collect();
        PhasePlan { comms, devices }
    }
}

/// Appends one comm op per shard of every dying stream that has shards,
/// filled by `fill(view, shard, transfers)`; an op left empty is skipped
/// (`None`). Indexed `[view][shard index]`.
fn push_shard_ops(
    comms: &mut Vec<CommOp>,
    views: &[DyingView],
    s_count: u32,
    mut fill: impl FnMut(&DyingView, u32, &mut Vec<Transfer>),
) -> Vec<Vec<Option<CommId>>> {
    let mut cids = Vec::with_capacity(views.len());
    for view in views {
        let mut row = vec![None; s_count as usize];
        if let Some(first) = view.shards {
            for (j, slot) in row.iter_mut().enumerate() {
                let mut transfers = Vec::new();
                fill(view, first + j as u32, &mut transfers);
                if !transfers.is_empty() {
                    *slot = Some(CommId(comms.len() as u32));
                    comms.push(CommOp { transfers });
                }
            }
        }
        cids.push(row);
    }
    cids
}

impl RecoveryPlanner {
    /// A recovery planner with the given configuration and no observability.
    pub fn new(cfg: RecoveryConfig) -> Self {
        RecoveryPlanner {
            cfg,
            obs: ObsHandle::noop(),
            fault_spec: None,
        }
    }

    /// Attaches an observability sink: `plan_recovery` emits a
    /// `device_lost` instant, a `recovery_plan` span (whose value is the
    /// cascade depth) and salvage/redo counters under
    /// [`dcp_obs::Source::Planner`].
    #[must_use]
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a fault estimate (e.g. from
    /// [`crate::estimate_fault_spec`]): re-shard targets are scaled by each
    /// survivor's estimated health — straggler slowdowns shrink its flop
    /// target, degraded or flapping incident links its byte target. A
    /// healthy or empty spec leaves every target byte-identical to the
    /// fault-blind path.
    #[must_use]
    pub fn with_fault_spec(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// Per-physical-device capacity weights `[compute, bytes]`: the
    /// planner's [`FaultSpec::capacity_weights`] with compute floored too,
    /// or `None` when no spec is set or it changes nothing (so the healthy
    /// path stays byte-identical).
    fn fault_caps(&self, n: u32) -> Option<Vec<[f64; 2]>> {
        let mut w = self.fault_spec.as_ref()?.capacity_weights(n as usize)?;
        for x in &mut w {
            x[0] = x[0].max(MIN_CAP_WEIGHT);
        }
        Some(w)
    }

    /// Produces the shrink-and-reshard patch for `ev` against a clean
    /// `out` (cascade depth 1).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] if the failed device is out of
    /// range or there are no survivors;
    /// [`DcpError::InvalidFailureEvent`] (carrying the device and the
    /// offending frontier) if `divisions_done` exceeds the device's
    /// division count; [`DcpError::InvalidPlan`] if the plan's streams are
    /// internally inconsistent.
    pub fn plan_recovery(&self, out: &PlanOutput, ev: &FailureEvent) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, None, ev)
    }

    /// Composes a new patch **over a prior one**: `ev` kills a survivor of
    /// `prior` (possibly one hosting spliced recovery shards) and the
    /// result completes the batch on the remaining survivors, bitwise
    /// identical to the clean run.
    ///
    /// `ev.divisions_done` counts the fused divisions the dying rank
    /// completed across *all* the logical streams it was running, in splice
    /// order: its own truncated-or-original stream first, then each hosted
    /// shard stream in ascending logical id.
    ///
    /// # Errors
    ///
    /// As [`RecoveryPlanner::plan_recovery`]; additionally
    /// [`DcpError::InvalidArgument`] if `ev.device` already failed.
    pub fn plan_recovery_onto(
        &self,
        out: &PlanOutput,
        prior: &RecoveryPatch,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, Some(prior), ev)
    }

    /// The shared re-entrant core behind [`RecoveryPlanner::plan_recovery`]
    /// and [`RecoveryPlanner::plan_recovery_onto`].
    fn plan_patch(
        &self,
        out: &PlanOutput,
        prior: Option<&RecoveryPatch>,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        let t0 = Instant::now();
        let d_total = out.plan.num_devices;
        let failed = ev.device;
        let layout = &out.layout;
        // Views of the plan being patched: the clean plan at depth 1, the
        // prior patch's rendering when composing.
        let base_fwd: &PhasePlan = prior.map_or(&out.plan.fwd, |p| &p.fwd);
        let base_placement: &Placement = prior.map_or(&out.placement, |p| &p.placement);
        let base_hosts: &[u32] = prior.map_or(&[], |p| &p.shard_hosts);
        let mut ctx = prior.map(RecoveryPatch::verify_ctx).unwrap_or_default();
        let mut failed_devices: Vec<u32> =
            prior.map(|p| p.failed_devices.clone()).unwrap_or_default();
        let (mut bwd_token, mut bwd_comp) = match prior {
            Some(p) => (
                p.bwd_placement.token_to_dev.clone(),
                p.bwd_placement.comp_to_dev.clone(),
            ),
            None => (
                out.placement.token_to_dev.clone(),
                out.placement.comp_to_dev.clone(),
            ),
        };
        let cascade_depth = prior.map_or(0, |p| p.stats.cascade_depth) + 1;

        if failed >= d_total {
            return Err(DcpError::invalid_argument(format!(
                "failed device {failed} out of range for {d_total} devices"
            )));
        }
        if failed_devices.contains(&failed) {
            return Err(DcpError::invalid_argument(format!(
                "device {failed} already failed in the prior patch"
            )));
        }
        let survivors: Vec<u32> = (0..d_total)
            .filter(|x| *x != failed && !failed_devices.contains(x))
            .collect();
        if survivors.is_empty() {
            return Err(DcpError::invalid_argument(
                "cannot recover: no surviving devices",
            ));
        }
        let s_count = survivors.len();
        let l_total = base_fwd.devices.len() as u32;
        debug_assert_eq!(l_total, d_total + base_hosts.len() as u32);
        // Live shard streams hosted on physical rank `r`, ascending.
        let dead = &ctx.failed;
        let hosted = |r: u32| {
            (d_total..l_total)
                .filter(move |&l| base_hosts[(l - d_total) as usize] == r && !dead.contains(&l))
        };

        // --- 1. Dying logical streams, cut at their frontiers. -----------
        // The rank's own stream first, then any live shard streams it was
        // hosting (ascending logical id). `ev.divisions_done` distributes
        // across them in that order.
        let dying: Vec<u32> = std::iter::once(failed).chain(hosted(failed)).collect();
        let mut budget = ev.divisions_done;
        let mut views: Vec<DyingView> = Vec::with_capacity(dying.len());
        for &l in &dying {
            let na = base_fwd.devices[l as usize]
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::Attn { .. } | Instr::AttnBwd { .. }))
                .count() as u32;
            let k = budget.min(na);
            budget -= k;
            views.push(DyingView::cut(
                layout, base_fwd, &FORWARD, &ctx, l, k, failed,
            )?);
        }
        if budget > 0 {
            return Err(DcpError::invalid_failure_event(failed, ev.divisions_done));
        }
        let failed_flops: u64 = views.iter().map(|v| v.flops).sum();
        let redone_flops: u64 = views.iter().map(|v| v.redone_flops(layout)).sum();

        // --- 2. Residual units per dying stream. -------------------------
        // One unit per Q block: the stream's residual blocks targeting it,
        // its ownership duties, or an outstanding partial (a zero-item unit
        // keeps an executed-but-unsent block's salvaged accumulator attached
        // to a shard that re-deposits it). Units from different dying
        // streams must NOT merge: two dying streams can each hold a
        // distinct accumulator for the same token block (owner reduce state
        // vs. an inherited outstanding partial), and merging them would
        // change the reduction tree — breaking bitwise equality with the
        // clean run.
        for view in &mut views {
            let mut unit_of: HashMap<TokenBlockId, usize> = HashMap::new();
            let mut unit = |units: &mut Vec<Group>, tb: TokenBlockId| -> usize {
                *unit_of.entry(tb).or_insert_with(|| {
                    units.push(Group::new(PayloadKind::PartialO, tb));
                    units.len() - 1
                })
            };
            for &c in &view.residual {
                let cb = layout.comp_blocks[c.0 as usize];
                let i = unit(&mut view.groups, cb.q_block);
                view.groups[i].items.push(c);
                view.groups[i].flops += cb.flops;
            }
            for (i, &owner) in base_placement.token_to_dev.iter().enumerate() {
                if owner == view.l {
                    let tb = TokenBlockId(i as u32);
                    let i = unit(&mut view.groups, tb);
                    view.groups[i].owned.push(tb);
                }
            }
            for p in &view.outstanding {
                unit(&mut view.groups, p.token_block());
            }
        }

        // --- 3. Re-shard each dying stream onto survivor capacity. -------
        // Each dying stream with units gets its own block of fresh shard
        // streams (one per survivor). Targets water-fill the shortfall
        // between the post-recovery ideal and what each survivor already
        // has queued — scaled by estimated survivor health when a fault
        // spec is attached.
        let caps = self.fault_caps(d_total);
        let k_own = views[0].k;
        let mut queued: Vec<u64> = survivors
            .iter()
            .map(|&s| {
                let own = remaining_flops(&base_fwd.devices[s as usize].instrs, k_own);
                let shards =
                    hosted(s).map(|l| remaining_flops(&base_fwd.devices[l as usize].instrs, 0));
                own + shards.sum::<u64>()
            })
            .collect();
        let unit_bytes = |u: &Group| {
            let tb = |t: &TokenBlockId| &layout.token_blocks[t.0 as usize];
            let accs = u.accs.iter().map(|(_, t)| tb(t).o_bytes);
            accs.chain(u.owned.iter().map(|t| tb(t).total_bytes()))
                .sum::<u64>()
        };
        let mut shard_hosts: Vec<u32> = base_hosts.to_vec();
        let mut greedy_fallback = false;
        for view in &mut views {
            let units = &view.groups;
            if units.is_empty() {
                continue;
            }
            view.shards = Some(d_total + shard_hosts.len() as u32);
            shard_hosts.extend(survivors.iter().copied());
            let residual_total: u64 = units.iter().map(|u| u.flops).sum();
            let bytes_total: u64 = units.iter().map(unit_bytes).sum();
            let targets = recovery_targets(
                &queued,
                &survivors,
                residual_total,
                bytes_total,
                caps.as_deref(),
            );
            view.part = if s_count == 1 {
                vec![0; units.len()]
            } else {
                let mut b = HypergraphBuilder::new(units.len());
                for (i, u) in units.iter().enumerate() {
                    b.set_vertex_weight(i, [u.flops.max(1), unit_bytes(u)]);
                }
                // Units sharing a KV input want to land on the same shard
                // so the input is fetched once.
                let mut consumers: BTreeMap<TokenBlockId, Vec<u32>> = BTreeMap::new();
                for (i, u) in units.iter().enumerate() {
                    for &c in &u.items {
                        let kb = layout.comp_blocks[c.0 as usize].kv_block;
                        consumers.entry(kb).or_default().push(i as u32);
                    }
                }
                for (kb, pins) in consumers {
                    if pins.len() > 1 {
                        b.add_edge(layout.token_blocks[kb.0 as usize].kv_bytes, &pins);
                    }
                }
                let hg = b.build()?;
                let mut pc = PartitionConfig::new(s_count as u32)
                    .with_epsilon(self.cfg.epsilon)
                    .with_part_targets(targets.clone());
                pc.eps[1] = self.cfg.epsilon;
                pc.seed = self.cfg.seed;
                match partition(&hg, &pc) {
                    Ok(p) if p.balanced => p.assignment,
                    _ => {
                        greedy_fallback = true;
                        waterfill(units, &targets)
                    }
                }
            };
            for (u, &j) in units.iter().zip(&view.part) {
                queued[j as usize] += u.flops;
            }
        }

        // --- 4. Render the functional phase and its host fold. -----------
        failed_devices.push(failed);
        ctx.failed.extend(dying.iter().copied());
        let r = Renderer {
            layout,
            dir: &FORWARD,
            origin: &out.placement,
            base_placement,
            base: base_fwd,
            views: &views,
            shard_hosts: &shard_hosts,
            failed_devices: &failed_devices,
        }
        .render(ctx)?;

        // --- 5. Backward: re-plan from scratch on the survivors. ---------
        for view in &views {
            for (u, &j) in view.groups.iter().zip(&view.part) {
                let s = survivors[j as usize];
                for &tb in &u.owned {
                    bwd_token[tb.0 as usize] = s;
                }
                for &c in &u.items {
                    bwd_comp[c.0 as usize] = s;
                }
            }
        }
        let mut load = vec![0u64; d_total as usize];
        for (c, &dev) in bwd_comp.iter().enumerate() {
            if dev != failed {
                load[dev as usize] += layout.comp_blocks[c].flops;
            }
        }
        // The dead rank's *executed* blocks still need a backward home;
        // waterfill them over the survivors by total flop load (effective
        // time when a fault spec scales survivor speed).
        for (c, dev) in bwd_comp.iter_mut().enumerate() {
            if *dev == failed {
                let s = pick_least_loaded(&survivors, &load, caps.as_deref());
                *dev = s;
                load[s as usize] += layout.comp_blocks[c].flops;
            }
        }
        // Defensive: any token still owned by the dead rank (cannot happen
        // when every owned block formed a unit, but cheap to guarantee).
        for t in bwd_token.iter_mut() {
            if *t == failed {
                *t = pick_least_loaded(&survivors, &load, caps.as_deref());
            }
        }
        let bwd_placement = Placement {
            num_devices: d_total,
            token_to_dev: bwd_token,
            comp_to_dev: bwd_comp,
        };
        let bwd = build_plan(
            layout,
            &bwd_placement,
            &ScheduleConfig {
                divisions: self.cfg.divisions,
                ..Default::default()
            },
        )?;

        let stats = RecoveryStats {
            failed_flops,
            redone_flops,
            salvage_bytes: r.salvage_bytes,
            refetch_bytes: r.refetch_bytes,
            residual_units: views.iter().map(|v| v.groups.len()).sum(),
            greedy_fallback,
            plan_wall_s: 0.0,
            cascade_depth,
        };
        let VerifyCtx {
            failed: failed_streams,
            salvage_comms,
            producer_of,
            reowned,
        } = r.ctx;
        let mut patch = RecoveryPatch {
            failed,
            divisions_done: ev.divisions_done,
            failed_devices,
            failed_streams,
            shard_hosts,
            placement: r.placement,
            fwd: r.phase,
            salvage_comms,
            producer_of,
            reowned,
            timing: r.timing,
            bwd_placement,
            bwd,
            stats,
        };
        // Every rendered patch stream must satisfy the legal-stream contract
        // before it ships: the functional forward phase under the salvage
        // rules, the re-planned backward phase as an ordinary plan, and the
        // host-folded timing phase structurally (host folding legitimately
        // leaves some waits with no incoming transfers, so the full symbolic
        // check does not apply).
        let ctx = patch.verify_ctx();
        verify_phase(layout, &patch.placement, &patch.fwd, false, &ctx)
            .map_err(|d| DcpError::invalid_plan(format!("recovery fwd patch: {d}")))?;
        verify_plan(layout, &patch.bwd_placement, &patch.bwd)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd plan: {d}")))?;
        verify_structure(&patch.timing)
            .map_err(|d| DcpError::invalid_plan(format!("recovery timing plan: {d}")))?;
        patch.stats.plan_wall_s = t0.elapsed().as_secs_f64();
        self.emit_obs(failed, ev.divisions_done, &patch.stats);
        Ok(patch)
    }

    /// Produces a reduction-frontier salvage patch for a failure **during
    /// the backward phase**.
    ///
    /// Instead of re-planning the whole backward from scratch, the dead
    /// stream is cut at its `ev.divisions_done`-th fused `AttnBwd` division
    /// and its partial `dQ`/`dKV` running sums are salvaged. Accumulators
    /// are grouped into connected components of the bipartite contribution
    /// graph (each residual item links its Q block's `dQ` accumulator to
    /// its KV block's `dKV` accumulator; a block the dead rank owned links
    /// its own pair), because a component's accumulators must stay
    /// colocated for residual folds to extend the salvaged sums in clean
    /// stream order. Components water-fill over the survivors by remaining
    /// backward capacity (fault-adjusted under
    /// [`RecoveryPlanner::with_fault_spec`]).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] if the failed device is out of
    /// range or there are no survivors;
    /// [`DcpError::InvalidFailureEvent`] if `divisions_done` exceeds the
    /// stream's backward division count; [`DcpError::InvalidPlan`] if a
    /// rendering fails verification.
    pub fn plan_backward_recovery(
        &self,
        out: &PlanOutput,
        ev: &FailureEvent,
    ) -> DcpResult<BwdRecoveryPatch> {
        let t0 = Instant::now();
        let d_total = out.plan.num_devices;
        let failed = ev.device;
        let layout = &out.layout;
        if failed >= d_total {
            return Err(DcpError::invalid_argument(format!(
                "failed device {failed} out of range for {d_total} devices"
            )));
        }
        if d_total < 2 {
            return Err(DcpError::invalid_argument(
                "cannot recover: no surviving devices",
            ));
        }
        let survivors: Vec<u32> = (0..d_total).filter(|&x| x != failed).collect();
        let bwd = &out.plan.bwd;

        // --- 1. Reduction frontier: cut the dead backward stream. --------
        let mut view = DyingView::cut(
            layout,
            bwd,
            &BACKWARD,
            &VerifyCtx::default(),
            failed,
            ev.divisions_done,
            failed,
        )?;

        // --- 2. Components of the accumulator contribution graph. --------
        // Node = one surviving accumulator (dQ or dKV of a token block).
        let mut nodes: Vec<(PayloadKind, TokenBlockId)> = Vec::new();
        let mut node_id: HashMap<(PayloadKind, TokenBlockId), usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut node = |acc: (PayloadKind, TokenBlockId), parent: &mut Vec<usize>| -> usize {
            *node_id.entry(acc).or_insert_with(|| {
                nodes.push(acc);
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |a: usize, b: usize, parent: &mut Vec<usize>| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[rb.max(ra)] = ra.min(rb);
            }
        };
        let (dq, dkv) = (PayloadKind::PartialDq, PayloadKind::PartialDkv);
        for &c in &view.residual {
            let cb = layout.comp_blocks[c.0 as usize];
            let a = node((dq, cb.q_block), &mut parent);
            let b = node((dkv, cb.kv_block), &mut parent);
            union(a, b, &mut parent);
        }
        let mut owned_tbs: Vec<TokenBlockId> = Vec::new();
        for (i, &owner) in out.placement.token_to_dev.iter().enumerate() {
            if owner == failed {
                let tb = TokenBlockId(i as u32);
                owned_tbs.push(tb);
                let a = node((dq, tb), &mut parent);
                let b = node((dkv, tb), &mut parent);
                union(a, b, &mut parent);
            }
        }
        // Outstanding gradient partials launched after the frontier.
        for p in &view.outstanding {
            node((p.kind(), p.token_block()), &mut parent);
        }
        // Group nodes into components, in node insertion order; each
        // component salvages its dQ sums before its dKV sums.
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut comps: Vec<Group> = Vec::new();
        let mut comp_of_node = vec![0usize; nodes.len()];
        for (i, &acc) in nodes.iter().enumerate() {
            let r = find(&mut parent, i);
            let ci = *comp_of_root.entry(r).or_insert_with(|| {
                comps.push(Group {
                    key: acc.1 .0,
                    ..Default::default()
                });
                comps.len() - 1
            });
            comp_of_node[i] = ci;
            comps[ci].accs.push(acc);
        }
        for comp in &mut comps {
            comp.accs.sort_by_key(|&(kind, _)| kind);
        }
        for &c in &view.residual {
            let cb = layout.comp_blocks[c.0 as usize];
            let ci = comp_of_node[node_id[&(dq, cb.q_block)]];
            comps[ci].items.push(c);
            comps[ci].flops += cb.flops;
        }
        for tb in owned_tbs {
            comps[comp_of_node[node_id[&(dq, tb)]]].owned.push(tb);
        }

        // --- 3. Water-fill components over survivor backward capacity. ---
        let caps = self.fault_caps(d_total);
        let queued: Vec<u64> = survivors
            .iter()
            .map(|&s| remaining_flops(&bwd.devices[s as usize].instrs, ev.divisions_done))
            .collect();
        let residual_total: u64 = comps.iter().map(|c| c.flops).sum();
        let bytes_total: u64 = comps
            .iter()
            .flat_map(|c| &c.accs)
            .map(|&(_, tb)| layout.token_blocks[tb.0 as usize].o_bytes)
            .sum();
        let targets = recovery_targets(
            &queued,
            &survivors,
            residual_total,
            bytes_total,
            caps.as_deref(),
        );
        view.part = waterfill(&comps, &targets);
        view.groups = comps;
        view.shards = Some(d_total);

        // --- 4. Render the functional phase and its host fold. -----------
        let failed_flops = view.flops;
        let redone_flops = view.redone_flops(layout);
        let residual_units = view.groups.len();
        let r = Renderer {
            layout,
            dir: &BACKWARD,
            origin: &out.placement,
            base_placement: &out.placement,
            base: bwd,
            views: &[view],
            shard_hosts: &survivors,
            failed_devices: &[failed],
        }
        .render(VerifyCtx {
            failed: HashSet::from([failed]),
            ..Default::default()
        })?;

        let stats = RecoveryStats {
            failed_flops,
            redone_flops,
            salvage_bytes: r.salvage_bytes,
            refetch_bytes: r.refetch_bytes,
            residual_units,
            greedy_fallback: false,
            plan_wall_s: 0.0,
            cascade_depth: 1,
        };
        let mut patch = BwdRecoveryPatch {
            failed,
            divisions_done: ev.divisions_done,
            shard_hosts: survivors,
            placement: r.placement,
            bwd: r.phase,
            salvage_comms: r.ctx.salvage_comms,
            producer_of: r.ctx.producer_of,
            reowned: r.ctx.reowned,
            timing: r.timing,
            stats,
        };

        // --- 5. Verify both renderings. -----------------------------------
        let ctx = patch.verify_ctx();
        verify_phase(layout, &patch.placement, &patch.bwd, true, &ctx)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd patch: {d}")))?;
        verify_structure(&patch.timing)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd timing plan: {d}")))?;
        patch.stats.plan_wall_s = t0.elapsed().as_secs_f64();
        self.emit_obs(failed, ev.divisions_done, &patch.stats);
        Ok(patch)
    }

    /// Shared obs emission for forward and backward patches.
    fn emit_obs(&self, failed: u32, divisions_done: u32, stats: &RecoveryStats) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.record(
            Event::instant(ObsSource::Planner, "device_lost")
                .with_device(failed)
                .with_division(divisions_done),
        );
        self.obs.record(
            Event::span(ObsSource::Planner, "recovery_plan")
                .with_device(failed)
                .with_time(0.0, stats.plan_wall_s)
                .with_value(stats.cascade_depth as f64),
        );
        self.obs.record(
            Event::counter(
                ObsSource::Planner,
                "recovery_redone_flops",
                stats.redone_flops as f64,
            )
            .with_flops(stats.redone_flops),
        );
        self.obs.record(
            Event::counter(
                ObsSource::Planner,
                "recovery_salvage_bytes",
                stats.salvage_bytes as f64,
            )
            .with_bytes(stats.salvage_bytes),
        );
        if stats.greedy_fallback {
            self.obs.record(Event::instant(
                ObsSource::Planner,
                "recovery_greedy_fallback",
            ));
        }
    }
}

/// Splits a device stream at its execution frontier: the instruction just
/// past the `k`-th fused attention call (`Attn` in forward streams,
/// `AttnBwd` in backward streams), extended through the comm launches that
/// immediately follow it (the completed division's out-comm and any
/// already-issued prefetch). Returns the cut index, the executed and
/// residual computation blocks (in stream order) and the stream's total
/// attention flops.
///
/// `device` is the physical rank the stream belongs to, used only to build
/// the typed [`DcpError::InvalidFailureEvent`] when `k` exceeds the
/// stream's division count.
fn split_frontier(
    instrs: &[Instr],
    k: u32,
    device: u32,
) -> DcpResult<(usize, Vec<CompBlockId>, Vec<CompBlockId>, u64)> {
    let mut cut = 0usize;
    if k > 0 {
        let mut seen = 0u32;
        let mut found = false;
        for (i, ins) in instrs.iter().enumerate() {
            if matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. }) {
                seen += 1;
                if seen == k {
                    cut = i + 1;
                    found = true;
                    break;
                }
            }
        }
        if !found {
            return Err(DcpError::invalid_failure_event(device, k));
        }
    }
    while cut < instrs.len() && matches!(instrs[cut], Instr::CommLaunch(_)) {
        cut += 1;
    }
    let mut executed = Vec::new();
    let mut residual = Vec::new();
    let mut total = 0u64;
    for (i, ins) in instrs.iter().enumerate() {
        if let Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } = ins {
            total += flops;
            if i < cut {
                executed.extend_from_slice(items);
            } else {
                residual.extend_from_slice(items);
            }
        }
    }
    Ok((cut, executed, residual, total))
}

/// Attention flops a device has left after completing `k` fused divisions
/// (forward `Attn` or backward `AttnBwd`, whichever the stream carries).
fn remaining_flops(instrs: &[Instr], k: u32) -> u64 {
    instrs
        .iter()
        .filter_map(|ins| match ins {
            Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => Some(*flops),
            _ => None,
        })
        .skip(k as usize)
        .sum()
}

/// Per-shard `[flops, bytes]` targets for the residual re-shard.
///
/// Without a fault spec (`caps == None`) each survivor's flop target is its
/// shortfall against the water level — the clean planner's equal-finish
/// heuristic — and bytes split evenly. With a fault spec, shortfalls are
/// scaled by each survivor's effective compute rate (straggler-slowed ranks
/// absorb less residual work) and bytes follow the survivors' effective
/// link weights, mirroring [`Planner::plan`]'s fault-aware targets.
fn recovery_targets(
    queued: &[u64],
    survivors: &[u32],
    residual_total: u64,
    bytes_total: u64,
    caps: Option<&[[f64; 2]]>,
) -> Vec<VertexWeight> {
    let s_count = survivors.len();
    let total_queued: u64 = queued.iter().sum();
    let ideal = (total_queued + residual_total) as f64 / s_count as f64;
    match caps {
        None => queued
            .iter()
            .map(|&r| {
                [
                    (ideal - r as f64).max(1.0).round() as u64,
                    (bytes_total / s_count as u64).max(1),
                ]
            })
            .collect(),
        Some(caps) => {
            // Effective finish-together water level: each survivor should
            // end up with work proportional to its compute rate.
            let wsum: f64 = survivors.iter().map(|&s| caps[s as usize][0]).sum();
            let raw: Vec<f64> = survivors
                .iter()
                .zip(queued)
                .map(|(&s, &r)| {
                    let w = caps[s as usize][0];
                    ((total_queued + residual_total) as f64 * w / wsum - r as f64).max(0.0)
                })
                .collect();
            let rsum: f64 = raw.iter().sum();
            let flops: Vec<f64> = if rsum > 0.0 {
                raw.iter()
                    .map(|&x| x * residual_total as f64 / rsum)
                    .collect()
            } else {
                survivors
                    .iter()
                    .map(|&s| residual_total as f64 * caps[s as usize][0] / wsum)
                    .collect()
            };
            let nsum: f64 = survivors.iter().map(|&s| caps[s as usize][1]).sum();
            survivors
                .iter()
                .zip(&flops)
                .map(|(&s, &fl)| {
                    let net = caps[s as usize][1] / nsum;
                    [
                        fl.max(1.0).round() as u64,
                        (bytes_total as f64 * net).max(1.0).round() as u64,
                    ]
                })
                .collect()
        }
    }
}

/// Picks the survivor with the least effective load: raw flops when no
/// fault spec is active, flops divided by the survivor's compute rate when
/// one is (a straggler at half speed counts double). Ties break toward the
/// lowest rank for determinism.
fn pick_least_loaded(survivors: &[u32], load: &[u64], caps: Option<&[[f64; 2]]>) -> u32 {
    match caps {
        None => *survivors
            .iter()
            .min_by_key(|&&s| (load[s as usize], s))
            .expect("nonempty survivors"),
        Some(caps) => *survivors
            .iter()
            .min_by(|&&a, &&b| {
                let ta = load[a as usize] as f64 / caps[a as usize][0];
                let tb = load[b as usize] as f64 / caps[b as usize][0];
                ta.partial_cmp(&tb).unwrap().then(a.cmp(&b))
            })
            .expect("nonempty survivors"),
    }
}

/// Deterministic greedy fallback for the residual re-shard: heaviest group
/// first (ties by key) into the shard with the most remaining flop
/// capacity.
fn waterfill(groups: &[Group], targets: &[VertexWeight]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(groups[i].flops), groups[i].key));
    let mut cap: Vec<i128> = targets.iter().map(|t| t[0] as i128).collect();
    let mut part = vec![0u32; groups.len()];
    for i in order {
        let j = (0..cap.len())
            .max_by_key(|&j| (cap[j], std::cmp::Reverse(j)))
            .expect("nonempty targets");
        part[i] = j as u32;
        cap[j] -= groups[i].flops.max(1) as i128;
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use dcp_mask::MaskSpec;
    use dcp_types::{AttnSpec, ClusterSpec};

    fn plan_8dev() -> PlanOutput {
        let planner = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 2048,
                divisions: 4,
                ..Default::default()
            },
        );
        planner
            .plan(&[
                (32768, MaskSpec::Causal),
                (16384, MaskSpec::Causal),
                (8192, MaskSpec::Causal),
                (8192, MaskSpec::Causal),
            ])
            .unwrap()
    }

    /// The device with the most fused divisions, and that count.
    fn busiest_device(out: &PlanOutput) -> (u32, u32) {
        out.plan
            .fwd
            .devices
            .iter()
            .map(|s| {
                s.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::Attn { .. }))
                    .count() as u32
            })
            .enumerate()
            .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
            .map(|(i, n)| (i as u32, n))
            .unwrap()
    }

    #[test]
    fn patch_reassigns_only_unexecuted_blocks() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        assert!(nd >= 2, "planner produced a single-division stream");
        let k = nd / 2;
        let ev = FailureEvent {
            device: dev,
            divisions_done: k,
        };
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &ev)
            .unwrap();
        assert!(patch.stats.redone_flops < patch.stats.failed_flops);
        // Every residual computation block moved to a shard; every executed
        // one stayed.
        let d = out.plan.num_devices;
        let (cut, executed, residual, _) =
            split_frontier(&out.plan.fwd.devices[dev as usize].instrs, k, dev).unwrap();
        assert!(cut > 0);
        for &c in &residual {
            assert!(patch.placement.comp_dev(c) >= d, "residual block on {c:?}");
        }
        for &c in &executed {
            assert_eq!(patch.placement.comp_dev(c), dev);
        }
        // Logical device count covers the shards.
        assert_eq!(
            patch.fwd.devices.len() as u32,
            d + patch.shard_hosts.len() as u32
        );
        assert_eq!(patch.shard_hosts.len(), 7);
    }

    #[test]
    fn ownership_and_production_move_to_shards() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        assert!(nd >= 1);
        let ev = FailureEvent {
            device: dev,
            divisions_done: 1,
        };
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &ev)
            .unwrap();
        let d = out.plan.num_devices;
        for (i, &owner) in out.placement.token_to_dev.iter().enumerate() {
            let tb = TokenBlockId(i as u32);
            if owner == dev {
                assert!(patch.placement.token_dev(tb) >= d);
                assert!(patch.reowned.contains(&tb));
            } else {
                assert_eq!(patch.placement.token_dev(tb), owner);
            }
        }
        for (partial, &shard) in &patch.producer_of {
            assert!(shard >= d);
            assert_ne!(
                out.placement.token_dev(partial.token_block()),
                dev,
                "owner partials self-sent"
            );
        }
        // No transfer in the patch still targets the failed owner with a
        // partial.
        for op in &patch.fwd.comms {
            for tr in &op.transfers {
                if matches!(tr.payload, Payload::PartialO(..)) {
                    assert_ne!(tr.to, dev, "partial still bound for the failed device");
                }
            }
        }
        // The timing plan stays on the physical ranks.
        assert_eq!(patch.timing.devices.len() as u32, d);
        for op in &patch.timing.comms {
            for tr in &op.transfers {
                assert!(tr.from < d && tr.to < d);
                assert_ne!(tr.from, tr.to);
            }
        }
        // Backward placement has nothing left on the failed rank.
        assert!(patch.bwd_placement.comp_to_dev.iter().all(|&x| x != dev));
        assert!(patch.bwd_placement.token_to_dev.iter().all(|&x| x != dev));
        assert_eq!(patch.bwd.num_devices, d);
    }

    #[test]
    fn failure_after_all_divisions_salvages_without_redo() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: dev,
                    divisions_done: nd,
                },
            )
            .unwrap();
        assert_eq!(patch.stats.redone_flops, 0);
        assert!(patch.stats.salvage_bytes > 0);
    }

    #[test]
    fn out_of_range_inputs_error() {
        let out = plan_8dev();
        let rp = RecoveryPlanner::new(RecoveryConfig::default());
        assert!(rp
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: 99,
                    divisions_done: 0
                }
            )
            .is_err());
        assert!(rp
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: 1,
                    divisions_done: 1000
                }
            )
            .is_err());
    }
}
