//! Stream verifier: the plan IR's legality contract.
//!
//! The rules live in one place, the [`StreamMachine`]: deposit rules at
//! `CommLaunch`, arrival rules at `CommWait`, input availability at
//! `Attn`/`AttnBwd`, partial availability at `Reduce`, coverage and
//! round-robin progress. The verifier is that machine with the symbolic
//! `()` effect handler — no data moves, so it runs in microseconds per plan
//! and gates every planner output and every recovery-patch rendering. The
//! numerical executor (`dcp-exec`) is the same machine with numeric
//! handlers, so a stream the verifier accepts is exactly a stream the
//! executor runs. Rejections are typed [`Diagnostic`]s naming the violated
//! rule, the offending device and the instruction index.
//!
//! Three entry points:
//!
//! - [`verify_plan`]: both phases of an [`ExecutionPlan`] against its layout
//!   and placement (normal planner outputs).
//! - [`verify_phase`]: one phase with an explicit [`VerifyCtx`], the
//!   relaxed ownership rules of a recovery patch plan (salvage ops,
//!   re-owned blocks, shard-deposited partials).
//! - [`verify_structure`]: launch/wait/deposit structure only, for streams
//!   with no logical placement (a recovery patch's host-folded `timing`
//!   plan, whose self-transfers are filtered and whose waits may legally
//!   receive nothing after folding). It shares the machine's round-robin
//!   driver.

use std::collections::{HashMap, HashSet};
use std::fmt;

use dcp_blocks::{BatchLayout, TokenBlockId};
use serde::{Deserialize, Serialize};

use crate::machine::{drive, StreamMachine};
use crate::placement::Placement;
use crate::plan::{ExecutionPlan, Instr, Payload, PhasePlan, Transfer};
/// Which legality rule a stream violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A `CommLaunch`/`CommWait` references a comm id outside the op table.
    CommIdOutOfRange,
    /// An input-only op is waited by a device that never launched it
    /// (input fetches are receiver-launched).
    WaitWithoutLaunch,
    /// A device waits on an op that sends it nothing.
    WaitReceivesNothing,
    /// An attention instruction reads a Q/KV/dO block that is neither local
    /// nor arrived.
    MissingInput,
    /// A reduction reads a partial that never arrived (or arrived as a raw
    /// salvage accumulator rather than a finalized partial).
    MissingPartial,
    /// A device launches a partial it has not computed yet.
    MissingProducerState,
    /// An instruction's direction or payload kind contradicts the phase.
    WrongPhase,
    /// A computation block executes on a device other than its placement.
    WrongDevice,
    /// A computation block is scheduled more than once.
    DuplicateCompute,
    /// A computation block is never scheduled.
    MissingCompute,
    /// A transfer's endpoints contradict ownership/producer records.
    BadRoute,
    /// A transfer sends a device data it already holds.
    SelfTransfer,
    /// A salvage op installs an accumulator the device already has.
    DuplicateSalvage,
    /// No device can make progress (circular or absent dependencies).
    Deadlock,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::CommIdOutOfRange => "comm-id-out-of-range",
            ViolationKind::WaitWithoutLaunch => "wait-without-launch",
            ViolationKind::WaitReceivesNothing => "wait-receives-nothing",
            ViolationKind::MissingInput => "missing-input",
            ViolationKind::MissingPartial => "missing-partial",
            ViolationKind::MissingProducerState => "missing-producer-state",
            ViolationKind::WrongPhase => "wrong-phase",
            ViolationKind::WrongDevice => "wrong-device",
            ViolationKind::DuplicateCompute => "duplicate-compute",
            ViolationKind::MissingCompute => "missing-compute",
            ViolationKind::BadRoute => "bad-route",
            ViolationKind::SelfTransfer => "self-transfer",
            ViolationKind::DuplicateSalvage => "duplicate-salvage",
            ViolationKind::Deadlock => "deadlock",
        };
        f.write_str(s)
    }
}

/// A typed verifier rejection: the violated rule, where it anchors in the
/// streams (device rank and instruction index, when the violation has a
/// stream position), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The violated rule.
    pub kind: ViolationKind,
    /// Device whose stream violates the rule, if anchored.
    pub device: Option<u32>,
    /// Index of the offending instruction in that device's stream, if
    /// anchored.
    pub instr: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn at(
        kind: ViolationKind,
        device: u32,
        instr: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            kind,
            device: Some(device),
            instr: Some(instr),
            message: message.into(),
        }
    }

    pub(crate) fn phase_level(kind: ViolationKind, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            device: None,
            instr: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.kind)?;
        if let (Some(d), Some(i)) = (self.device, self.instr) {
            write!(f, "device {d} instr {i}: ")?;
        } else if let Some(d) = self.device {
            write!(f, "device {d}: ")?;
        }
        f.write_str(&self.message)
    }
}

/// Result alias for verifier entry points.
pub type VerifyResult = Result<(), Diagnostic>;

/// Recovery semantics of a phase: the one context both the verifier and
/// the executor (`dcp_exec::execute_*_recovery`) take. The default context
/// encodes a normal (non-recovery) plan. `dcp-core`'s recovery renderer
/// builds the others, forward or backward alike, and
/// `RecoveryPatch::verify_ctx` / `BwdRecoveryPatch::verify_ctx` hand them
/// out. Deposits of every partial kind share one map.
#[derive(Debug, Clone, Default)]
pub struct VerifyCtx {
    /// Dead logical streams of a recovery patch: the failed physical
    /// rank(s) plus any recovery-shard streams they were hosting when they
    /// died (cascading failures compose patches, so more than one stream
    /// can be dead at once).
    pub failed: HashSet<u32>,
    /// Comm ids carrying raw accumulators from a dead stream to its
    /// replacement shards.
    pub salvage_comms: HashSet<u32>,
    /// Shard that deposits each outstanding partial (forward O, backward dQ
    /// or dKV) under the original comm id, keyed by that partial: its
    /// producer field still names the dead stream, and two dead streams may
    /// owe distinct partials for the same token block.
    pub producer_of: HashMap<Payload, u32>,
    /// Token blocks re-owned away from dead streams; their truncated
    /// prefixes may still read them locally.
    pub reowned: HashSet<TokenBlockId>,
}

impl VerifyCtx {
    /// The shard that deposits a dead stream's outstanding `partial` in its
    /// stead, if any.
    pub(crate) fn replacement(&self, partial: Payload) -> Option<u32> {
        self.producer_of.get(&partial).copied()
    }
}

/// What each instruction of one device's stream reads from arrived data.
/// Shared by the verifier and the passes (dead-comm, wait sinking).
pub(crate) fn instr_reads(layout: &BatchLayout, ins: &Instr, out: &mut HashSet<Payload>) {
    match ins {
        Instr::Attn { items, .. } => {
            for &c in items {
                let cb = &layout.comp_blocks[c.0 as usize];
                out.insert(Payload::Q(cb.q_block));
                out.insert(Payload::Kv(cb.kv_block));
            }
        }
        Instr::AttnBwd { items, .. } => {
            for &c in items {
                let cb = &layout.comp_blocks[c.0 as usize];
                out.insert(Payload::Q(cb.q_block));
                out.insert(Payload::Kv(cb.kv_block));
                out.insert(Payload::DO(cb.q_block));
            }
        }
        Instr::Reduce { items, .. } => {
            for item in items {
                let sources = item.sources.iter();
                out.extend(
                    sources.filter_map(|&src| Payload::partial(item.kind, item.target, src)),
                );
            }
        }
        _ => {}
    }
}

/// Verifies both phases of a plan against its layout and placement with
/// normal (non-recovery) semantics.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] encountered.
pub fn verify_plan(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
) -> VerifyResult {
    let ctx = VerifyCtx::default();
    verify_phase(layout, placement, &plan.fwd, false, &ctx)?;
    verify_phase(layout, placement, &plan.bwd, true, &ctx)
}

/// Verifies one phase with explicit recovery semantics: the
/// [`StreamMachine`] with no effects.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] encountered; blocked progress surfaces
/// as [`ViolationKind::Deadlock`] anchored at the first stalled device.
pub fn verify_phase(
    layout: &BatchLayout,
    placement: &Placement,
    phase: &PhasePlan,
    backward: bool,
    ctx: &VerifyCtx,
) -> VerifyResult {
    StreamMachine::new(layout, placement, phase, backward, ctx).run(&mut ())
}

/// Structural verification for streams with no logical placement (e.g. a
/// recovery patch's host-folded `timing` plan): comm ids in range, every
/// wait's incoming transfers deposited by some launch (receiver-launched
/// for inputs, sender-launched for partials), and round-robin progress
/// without deadlock. Waits that receive nothing are legal here — host
/// folding filters same-host transfers out of ops whose waits remain.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] encountered.
pub fn verify_structure(phase: &PhasePlan) -> VerifyResult {
    let depositor = |tr: &Transfer| {
        if tr.payload.kind().is_input() {
            tr.to
        } else {
            tr.from
        }
    };
    // Which devices launch each op (any position, any stream).
    let mut launchers: Vec<HashSet<u32>> = vec![HashSet::new(); phase.comms.len()];
    for stream in &phase.devices {
        for (idx, ins) in stream.instrs.iter().enumerate() {
            if let Instr::CommLaunch(cid) | Instr::CommWait(cid) = ins {
                if cid.0 as usize >= phase.comms.len() {
                    return Err(Diagnostic::at(
                        ViolationKind::CommIdOutOfRange,
                        stream.device,
                        idx,
                        format!("comm id {} outside op table", cid.0),
                    ));
                }
                if matches!(ins, Instr::CommLaunch(_)) {
                    launchers[cid.0 as usize].insert(stream.device);
                }
            }
        }
    }
    // A wait can only be satisfied if each of its incoming transfers has a
    // depositor: the receiver (inputs) or the sender (partials) launches
    // the op somewhere.
    for stream in &phase.devices {
        for (idx, ins) in stream.instrs.iter().enumerate() {
            let Instr::CommWait(cid) = ins else { continue };
            let op = &phase.comms[cid.0 as usize];
            for tr in op.transfers.iter().filter(|t| t.to == stream.device) {
                let from = depositor(tr);
                if !launchers[cid.0 as usize].contains(&from) {
                    return Err(Diagnostic::at(
                        ViolationKind::WaitWithoutLaunch,
                        stream.device,
                        idx,
                        format!(
                            "waits on op {} whose {:?} is never launched by device {from}",
                            cid.0, tr.payload
                        ),
                    ));
                }
            }
        }
    }
    // Round-robin progress with structural deposits.
    let mut mailbox: HashSet<(u32, Payload)> = HashSet::new();
    drive(phase, |d, _, ins| {
        let dev = phase.devices[d].device;
        Ok(match ins {
            Instr::CommLaunch(cid) => {
                let op = &phase.comms[cid.0 as usize];
                let deposits = op.transfers.iter().filter(|t| depositor(t) == dev);
                mailbox.extend(deposits.map(|t| (cid.0, t.payload)));
                true
            }
            Instr::CommWait(cid) => phase.comms[cid.0 as usize]
                .transfers
                .iter()
                .filter(|t| t.to == dev)
                .all(|t| mailbox.contains(&(cid.0, t.payload))),
            _ => true,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommId, CommOp, PayloadKind, Transfer};
    use crate::schedule::{build_plan, ScheduleConfig};
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

    fn small_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    /// Like [`small_case`] but with comp blocks on their *kv* owner, so
    /// forward partials (and reduces at the q owners) exist.
    fn scatter_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let n = 4;
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.kv_block.0 as usize])
            .collect();
        let p = Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    #[test]
    fn accepts_scatter_plan_with_partials() {
        let (l, p, plan) = scatter_case();
        assert!(
            plan.fwd
                .comms
                .iter()
                .flat_map(|op| &op.transfers)
                .any(|t| matches!(t.payload, Payload::PartialO(..))),
            "fixture must exercise the partial/reduce path"
        );
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn accepts_schedule_output() {
        let (l, p, plan) = small_case();
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn accepts_all_local_plan() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement::all_on_zero(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        verify_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn rejects_wait_before_launch_with_instr_index() {
        let (l, p, mut plan) = small_case();
        // Find a stream with a launch followed later by its wait, and swap
        // the wait to the front.
        let mut mutated = false;
        'outer: for stream in &mut plan.fwd.devices {
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
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(mutated, "expected an input launch/wait pair to mutate");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::WaitWithoutLaunch);
        assert!(err.instr.is_some(), "diagnostic must name the instruction");
    }

    #[test]
    fn rejects_duplicate_and_misplaced_compute() {
        let (l, p, mut plan) = small_case();
        let (d, i) = plan
            .fwd
            .devices
            .iter()
            .enumerate()
            .find_map(|(d, s)| {
                s.instrs
                    .iter()
                    .position(|ins| matches!(ins, Instr::Attn { .. }))
                    .map(|i| (d, i))
            })
            .unwrap();
        if let Instr::Attn { items, .. } = &mut plan.fwd.devices[d].instrs[i] {
            let c = items[0];
            items.push(c);
        }
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::DuplicateCompute);
        assert_eq!(err.device, Some(d as u32));
        assert_eq!(err.instr, Some(i));
    }

    #[test]
    fn rejects_missing_transfer_as_missing_input() {
        let (l, p, mut plan) = small_case();
        // Remove one input transfer: the consuming Attn must be flagged.
        let mut removed = false;
        for op in &mut plan.fwd.comms {
            if let Some(pos) = op
                .transfers
                .iter()
                .position(|t| matches!(t.payload, Payload::Q(_) | Payload::Kv(_)))
            {
                op.transfers.remove(pos);
                removed = true;
                break;
            }
        }
        assert!(removed);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingInput | ViolationKind::WaitReceivesNothing
            ),
            "{err}"
        );
        assert!(err.instr.is_some());
    }

    #[test]
    fn rejects_out_of_range_comm_id() {
        let (l, p, mut plan) = small_case();
        let bogus = CommId(plan.fwd.comms.len() as u32 + 7);
        plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::CommIdOutOfRange);
        assert_eq!(err.instr, Some(0));
    }

    #[test]
    fn rejects_bad_route_and_self_transfer() {
        let (l, p, mut plan) = small_case();
        let mut flipped = false;
        'outer: for op in &mut plan.fwd.comms {
            for tr in &mut op.transfers {
                if matches!(tr.payload, Payload::Q(_) | Payload::Kv(_)) {
                    tr.from = tr.to; // now a self transfer
                    flipped = true;
                    break 'outer;
                }
            }
        }
        assert!(flipped);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::SelfTransfer);
    }

    #[test]
    fn rejects_dropped_attn_as_missing_state() {
        let (l, p, mut plan) = small_case();
        let (d, i) = plan
            .fwd
            .devices
            .iter()
            .enumerate()
            .find_map(|(d, s)| {
                s.instrs
                    .iter()
                    .position(|ins| matches!(ins, Instr::Attn { .. }))
                    .map(|i| (d, i))
            })
            .unwrap();
        plan.fwd.devices[d].instrs.remove(i);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingProducerState
                    | ViolationKind::MissingCompute
                    | ViolationKind::MissingPartial
            ),
            "{err}"
        );
    }

    #[test]
    fn structural_catches_unlaunched_wait() {
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![Transfer {
                    from: 1,
                    to: 0,
                    payload: Payload::Q(TokenBlockId(0)),
                    bytes: 8,
                }],
            }],
            devices: vec![
                DeviceStreamBuilder::new(0).wait(0).build(),
                DeviceStreamBuilder::new(1).build(),
            ],
        };
        let err = verify_structure(&phase).unwrap_err();
        assert_eq!(err.kind, ViolationKind::WaitWithoutLaunch);
        assert_eq!(err.device, Some(0));
        assert_eq!(err.instr, Some(0));
    }

    #[test]
    fn diagnostic_serializes_and_displays() {
        let d = Diagnostic::at(ViolationKind::MissingInput, 3, 7, "no Q");
        let s = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
        let shown = d.to_string();
        assert!(shown.contains("missing-input"), "{shown}");
        assert!(shown.contains("device 3"), "{shown}");
        assert!(shown.contains("instr 7"), "{shown}");
    }

    /// Minimal stream builder for structural tests.
    struct DeviceStreamBuilder {
        device: u32,
        instrs: Vec<Instr>,
    }

    impl DeviceStreamBuilder {
        fn new(device: u32) -> Self {
            DeviceStreamBuilder {
                device,
                instrs: Vec::new(),
            }
        }
        fn wait(mut self, cid: u32) -> Self {
            self.instrs.push(Instr::CommWait(CommId(cid)));
            self
        }
        fn build(self) -> crate::plan::DeviceStream {
            crate::plan::DeviceStream {
                device: self.device,
                instrs: self.instrs,
                buffer: crate::buffer::BufferStats::default(),
            }
        }
    }

    #[test]
    fn reduce_missing_partial_is_typed() {
        let (l, p, mut plan) = scatter_case();
        // Drop a source's partial transfer from an out op while keeping the
        // reduce item: the owner's reduce must be flagged.
        let mut dropped = false;
        'outer: for op in &mut plan.fwd.comms {
            for pos in 0..op.transfers.len() {
                if matches!(op.transfers[pos].payload, Payload::PartialO(..)) {
                    op.transfers.remove(pos);
                    dropped = true;
                    break 'outer;
                }
            }
        }
        assert!(dropped, "expected a partial transfer in the forward phase");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingPartial | ViolationKind::WaitReceivesNothing
            ),
            "{err}"
        );
    }

    #[test]
    fn reduce_with_nothing_to_merge_is_missing_partial() {
        let (l, p, mut plan) = small_case();
        // Device 0 reduces a block it neither computed nor receives
        // partials for: the item has no sources and no local accumulator.
        let target = (0..l.token_blocks.len() as u32)
            .map(TokenBlockId)
            .find(|&tb| p.token_dev(tb) == 1)
            .unwrap();
        let item = crate::plan::ReduceItem {
            target,
            sources: vec![],
            kind: PayloadKind::PartialO,
        };
        let reduce = Instr::Reduce {
            items: vec![item],
            bytes: 0,
        };
        plan.fwd.devices[0].instrs.push(reduce);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::MissingPartial);
        assert_eq!(err.device, Some(0));
        assert_eq!(err.instr, Some(plan.fwd.devices[0].instrs.len() - 1));
    }

    #[test]
    fn reduce_items_are_checked_against_arrivals() {
        let (l, p, mut plan) = scatter_case();
        // Add a phantom source to a reduce: no transfer carries it.
        let mut added = false;
        'outer: for stream in &mut plan.fwd.devices {
            let dev = stream.device;
            for ins in &mut stream.instrs {
                if let Instr::Reduce { items, .. } = ins {
                    for item in items.iter_mut() {
                        if let Some(phantom) =
                            (0..p.num_devices).find(|d| !item.sources.contains(d) && *d != dev)
                        {
                            item.sources.push(phantom);
                            added = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(added, "expected a reduce item with a free phantom source");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::MissingPartial);
    }
}
