//! The stream machine: the one interpreter of the plan IR.
//!
//! A phase is one serialized instruction stream per device. The machine
//! steps the streams round-robin in rank order, each as far as it can go,
//! until all finish; a sweep in which no stream moves is a deadlock. It
//! owns every piece of legality state — instruction pointers, the mailbox
//! of in-flight deposits, arrived payloads, launched comm ids, per-device
//! accumulator presence and compute coverage — and checks every rule
//! *before* the instruction's effect runs. Effects belong to an
//! [`Effects`] handler:
//!
//! - `()`, the symbolic handler: [`crate::verify::verify_phase`] is the
//!   machine with no effects, so it runs in microseconds per plan;
//! - `dcp-exec`'s numeric handlers, one per direction, which run the
//!   attention kernels and reductions.
//!
//! The verifier and the executor therefore cannot disagree about which
//! streams are legal. Violations are typed [`Diagnostic`]s naming the rule,
//! the device and the instruction index.
//!
//! Transfers move through a mailbox keyed by (comm id, payload):
//!
//! - *input* payloads (Q, KV, dO) are deposited when the **receiver**
//!   launches the op (model inputs exist from the start of the phase,
//!   matching the scheduler's eager-send assumption);
//! - *partial* payloads (O, dQ, dKV) are deposited when the **producer**
//!   launches, i.e. after it computed them — or, under a recovery
//!   [`VerifyCtx`], the shard that finishes a dead stream's work. On a
//!   salvage op the deposit is a raw accumulator, which the receiving wait
//!   installs as the shard's starting state.
//!
//! A device may only read a block it owns (or, as a dead stream, one the
//! patch re-owned) or one that arrived through a waited op.

use std::collections::{HashMap, HashSet};

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};

use crate::placement::Placement;
use crate::plan::{Instr, Payload, PayloadKind, PhasePlan, ReduceItem};
use crate::verify::{Diagnostic, VerifyCtx, ViolationKind};

/// The effects of instructions the machine has found legal.
pub trait Effects {
    /// Value of a partial payload in flight (`()` for the verifier).
    type Partial;

    /// Device `dev` deposits `payload`, a partial whose accumulator state it
    /// holds (keyed by the payload's kind and token block).
    fn deposit(&mut self, dev: u32, payload: Payload) -> Self::Partial;

    /// Device `dev` installs a salvaged raw accumulator as its state for
    /// `payload`'s kind and token block.
    fn install(&mut self, dev: u32, payload: Payload, value: Self::Partial);

    /// Device `dev` runs one `Attn` or `AttnBwd` call; every input is local
    /// or has arrived.
    fn attn(&mut self, dev: u32, items: &[CompBlockId]);

    /// Device `dev` folds one reduction item; `partials` are the arrived
    /// partials of `item.sources`, in source order.
    fn reduce(&mut self, dev: u32, item: &ReduceItem, partials: &[&Self::Partial]);

    /// A device is about to attempt its next instruction.
    fn before_step(&mut self) {}

    /// The attempt completed `ins` (`done`) or blocked on it.
    fn after_step(&mut self, _dev: u32, _ins: &Instr, _done: bool) {}
}

/// The symbolic handler: legality only.
impl Effects for () {
    type Partial = ();
    fn deposit(&mut self, _: u32, _: Payload) {}
    fn install(&mut self, _: u32, _: Payload, _: ()) {}
    fn attn(&mut self, _: u32, _: &[CompBlockId]) {}
    fn reduce(&mut self, _: u32, _: &ReduceItem, _: &[&()]) {}
}

/// An in-flight or arrived payload.
enum Slot<V> {
    /// A model input; handlers read it in place, so it carries no value.
    Input,
    /// A finalized partial, readable by a `Reduce`.
    Partial(V),
    /// A raw accumulator on a salvage op, installed by the receiving wait.
    Raw(V),
}

/// Kinds of payload legal in each phase direction.
fn kind_in_phase(kind: PayloadKind, backward: bool) -> bool {
    match kind {
        PayloadKind::Q | PayloadKind::Kv => true,
        PayloadKind::PartialO => !backward,
        PayloadKind::DO | PayloadKind::PartialDq | PayloadKind::PartialDkv => backward,
    }
}

/// Steps device streams round-robin until all finish. `step(d, idx, ins)`
/// runs instruction `idx` of stream `d` and returns `Ok(false)` when the
/// stream blocks on it.
///
/// # Errors
///
/// The first error of `step`, or [`ViolationKind::Deadlock`] anchored at
/// the first blocked stream when a full sweep makes no progress.
pub(crate) fn drive<'p>(
    phase: &'p PhasePlan,
    mut step: impl FnMut(usize, usize, &'p Instr) -> Result<bool, Diagnostic>,
) -> Result<(), Diagnostic> {
    let mut ip = vec![0usize; phase.devices.len()];
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (d, stream) in phase.devices.iter().enumerate() {
            while let Some(ins) = stream.instrs.get(ip[d]) {
                all_done = false;
                if !step(d, ip[d], ins)? {
                    break;
                }
                ip[d] += 1;
                progressed = true;
            }
        }
        if all_done {
            return Ok(());
        }
        if !progressed {
            let (d, stream) = (phase.devices.iter().enumerate())
                .find(|(d, s)| ip[*d] < s.instrs.len())
                .expect("some device is blocked");
            return Err(Diagnostic::at(
                ViolationKind::Deadlock,
                stream.device,
                ip[d],
                "no device can make progress (missing launch or circular wait)",
            ));
        }
    }
}

/// Interpreter state of one phase; see the module docs.
pub struct StreamMachine<'a, V> {
    layout: &'a BatchLayout,
    placement: &'a Placement,
    phase: &'a PhasePlan,
    backward: bool,
    ctx: &'a VerifyCtx,
    /// In-flight deposits keyed `(comm id, payload)`.
    mailbox: HashMap<(u32, Payload), Slot<V>>,
    /// Per device: payloads that have arrived.
    arrived: Vec<HashMap<Payload, Slot<V>>>,
    /// Per device: comm ids launched so far.
    launched: Vec<HashSet<u32>>,
    /// Per device: accumulator state held, keyed by partial kind and token
    /// block (forward O accumulators, backward dQ and dKV sums).
    held: Vec<HashSet<(PayloadKind, TokenBlockId)>>,
    /// Computation blocks executed so far.
    seen: Vec<bool>,
    /// `(device, payload)` pairs some op of the phase delivers, built on
    /// first use: a device may relay an input it receives (ring baselines).
    receives: Option<HashSet<(u32, Payload)>>,
}

impl<'a, V> StreamMachine<'a, V> {
    /// A machine for one phase. `backward` selects the direction;
    /// `ctx` carries the recovery rules (default: a normal plan).
    pub fn new(
        layout: &'a BatchLayout,
        placement: &'a Placement,
        phase: &'a PhasePlan,
        backward: bool,
        ctx: &'a VerifyCtx,
    ) -> Self {
        let n = phase.devices.len();
        StreamMachine {
            layout,
            placement,
            phase,
            backward,
            ctx,
            mailbox: HashMap::new(),
            arrived: (0..n).map(|_| HashMap::new()).collect(),
            launched: vec![HashSet::new(); n],
            held: vec![HashSet::new(); n],
            seen: vec![false; layout.comp_blocks.len()],
            receives: None,
        }
    }

    /// Runs the phase to completion, calling `fx` for every legal effect.
    ///
    /// # Errors
    ///
    /// The first [`Diagnostic`] encountered; after the streams drain,
    /// [`ViolationKind::MissingCompute`] if a computation block never ran.
    pub fn run<E: Effects<Partial = V>>(mut self, fx: &mut E) -> Result<(), Diagnostic> {
        drive(self.phase, |d, idx, ins| {
            fx.before_step();
            let done = self.step(fx, d as u32, idx, ins)?;
            fx.after_step(d as u32, ins, done);
            Ok(done)
        })?;
        match self.seen.iter().position(|&s| !s) {
            Some(missing) => Err(Diagnostic::phase_level(
                ViolationKind::MissingCompute,
                format!("comp block {missing} never scheduled in this phase"),
            )),
            None => Ok(()),
        }
    }

    /// Whether `dev` reads token block `tb` in place.
    fn local(&self, dev: u32, tb: TokenBlockId) -> bool {
        self.placement.token_dev(tb) == dev
            || (self.ctx.failed.contains(&dev) && self.ctx.reowned.contains(&tb))
    }

    /// Whether some op of the phase delivers `payload` to `dev`.
    fn receives(&mut self, dev: u32, payload: Payload) -> bool {
        let phase = self.phase;
        self.receives
            .get_or_insert_with(|| {
                (phase.comms.iter().flat_map(|op| &op.transfers))
                    .map(|t| (t.to, t.payload))
                    .collect()
            })
            .contains(&(dev, payload))
    }

    /// Executes one instruction; `Ok(false)` means blocked on a wait.
    fn step<E: Effects<Partial = V>>(
        &mut self,
        fx: &mut E,
        dev: u32,
        idx: usize,
        ins: &Instr,
    ) -> Result<bool, Diagnostic> {
        let d = dev as usize;
        let at = |kind, msg: String| Diagnostic::at(kind, dev, idx, msg);
        let (layout, phase, backward, ctx) = (self.layout, self.phase, self.backward, self.ctx);
        match ins {
            Instr::CommLaunch(cid) | Instr::CommWait(cid)
                if cid.0 as usize >= phase.comms.len() =>
            {
                let what = if matches!(ins, Instr::CommLaunch(_)) {
                    "launch of"
                } else {
                    "wait on"
                };
                Err(at(
                    ViolationKind::CommIdOutOfRange,
                    format!("{what} comm id {} outside op table", cid.0),
                ))
            }
            Instr::CommLaunch(cid) => {
                let op = &phase.comms[cid.0 as usize];
                let salvage = ctx.salvage_comms.contains(&cid.0);
                // Route checks for every transfer of the op (anchored at the
                // launch, the first stream position that references the op).
                for tr in &op.transfers {
                    if tr.from == tr.to {
                        return Err(at(
                            ViolationKind::SelfTransfer,
                            format!(
                                "op {} transfer {:?} sends a device its own data",
                                cid.0, tr.payload
                            ),
                        ));
                    }
                    let kind = tr.payload.kind();
                    if !kind_in_phase(kind, backward) {
                        return Err(at(
                            ViolationKind::WrongPhase,
                            format!(
                                "op {} carries {kind:?} in the {} phase",
                                cid.0,
                                if backward { "backward" } else { "forward" }
                            ),
                        ));
                    }
                    let tb = tr.payload.token_block();
                    let ok = match tr.payload {
                        Payload::PartialO(_, p)
                        | Payload::PartialDq(_, p)
                        | Payload::PartialDkv(_, p) => {
                            tr.from == p && (tr.to == self.placement.token_dev(tb) || salvage)
                        }
                        _ => {
                            self.placement.token_dev(tb) == tr.from
                                || (ctx.failed.contains(&tr.from) && ctx.reowned.contains(&tb))
                                || self.receives(tr.from, tr.payload)
                        }
                    };
                    if !ok {
                        return Err(at(
                            ViolationKind::BadRoute,
                            format!("op {} transfer {tr:?} inconsistent with ownership", cid.0),
                        ));
                    }
                }
                for tr in &op.transfers {
                    let slot = if tr.payload.kind().is_input() {
                        if tr.to != dev {
                            continue;
                        }
                        Slot::Input
                    } else {
                        if tr.from != dev
                            && !(ctx.failed.contains(&tr.from)
                                && ctx.replacement(tr.payload) == Some(dev))
                        {
                            continue;
                        }
                        let key = (tr.payload.kind(), tr.payload.token_block());
                        if !self.held[d].contains(&key) {
                            return Err(at(
                                ViolationKind::MissingProducerState,
                                format!("sends {:?} for {:?} it never computed", key.0, key.1),
                            ));
                        }
                        let value = fx.deposit(dev, tr.payload);
                        if salvage {
                            Slot::Raw(value)
                        } else {
                            Slot::Partial(value)
                        }
                    };
                    self.mailbox.insert((cid.0, tr.payload), slot);
                }
                self.launched[d].insert(cid.0);
                Ok(true)
            }
            Instr::CommWait(cid) => {
                let op = &phase.comms[cid.0 as usize];
                let incoming = || op.transfers.iter().filter(|t| t.to == dev);
                if incoming().next().is_none() {
                    return Err(at(
                        ViolationKind::WaitReceivesNothing,
                        format!("waits on op {} that sends it nothing", cid.0),
                    ));
                }
                // Input fetches are receiver-launched; a wait on an input-only
                // op without a prior launch in the same stream can never be
                // satisfied by another device.
                let input_only = op.transfers.iter().all(|t| t.payload.kind().is_input());
                if input_only && !self.launched[d].contains(&cid.0) {
                    return Err(at(
                        ViolationKind::WaitWithoutLaunch,
                        format!("waits on input op {} before launching it", cid.0),
                    ));
                }
                if incoming().any(|t| !self.mailbox.contains_key(&(cid.0, t.payload))) {
                    return Ok(false);
                }
                for tr in incoming() {
                    match self.mailbox.remove(&(cid.0, tr.payload)) {
                        // Raw accumulators resume the dead stream's state:
                        // forward O accumulators, or backward dQ/dKV sums.
                        Some(Slot::Raw(value)) => {
                            let key = (tr.payload.kind(), tr.payload.token_block());
                            if !self.held[d].insert(key) {
                                return Err(at(
                                    ViolationKind::DuplicateSalvage,
                                    format!("salvaged {:?} it already accumulates", key.1),
                                ));
                            }
                            fx.install(dev, tr.payload, value);
                        }
                        Some(slot) => {
                            self.arrived[d].insert(tr.payload, slot);
                        }
                        None => {}
                    }
                }
                Ok(true)
            }
            Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                let bwd_instr = matches!(ins, Instr::AttnBwd { .. });
                if bwd_instr != backward {
                    return Err(at(
                        ViolationKind::WrongPhase,
                        format!(
                            "{} attention in {} phase",
                            if bwd_instr { "backward" } else { "forward" },
                            if backward { "backward" } else { "forward" }
                        ),
                    ));
                }
                let verb = if backward { "bwd" } else { "computes" };
                for &c in items {
                    let owner = self.placement.comp_dev(c);
                    if owner != dev {
                        return Err(at(
                            ViolationKind::WrongDevice,
                            format!("comp block {c:?} belongs to device {owner}"),
                        ));
                    }
                    if std::mem::replace(&mut self.seen[c.0 as usize], true) {
                        return Err(at(
                            ViolationKind::DuplicateCompute,
                            format!("comp block {c:?} scheduled twice"),
                        ));
                    }
                    let cb = &layout.comp_blocks[c.0 as usize];
                    let reads = [
                        (Payload::Q(cb.q_block), "Q"),
                        (Payload::Kv(cb.kv_block), "KV"),
                        (Payload::DO(cb.q_block), "dO"),
                    ];
                    for (p, name) in &reads[..if backward { 3 } else { 2 }] {
                        let tb = p.token_block();
                        if !self.local(dev, tb)
                            && !matches!(self.arrived[d].get(p), Some(Slot::Input))
                        {
                            return Err(at(
                                ViolationKind::MissingInput,
                                format!("{verb} {c:?} without {name}({tb:?})"),
                            ));
                        }
                    }
                    if backward {
                        self.held[d].insert((PayloadKind::PartialDq, cb.q_block));
                        self.held[d].insert((PayloadKind::PartialDkv, cb.kv_block));
                    } else {
                        self.held[d].insert((PayloadKind::PartialO, cb.q_block));
                    }
                }
                fx.attn(dev, items);
                Ok(true)
            }
            Instr::Reduce { items, .. } => {
                for item in items {
                    let tb = item.target;
                    if item.kind.is_input() || !kind_in_phase(item.kind, backward) {
                        return Err(at(
                            ViolationKind::WrongPhase,
                            format!("reduce of {:?} in the wrong phase", item.kind),
                        ));
                    }
                    let mut partials = Vec::with_capacity(item.sources.len());
                    for &src in &item.sources {
                        let p = Payload::partial(item.kind, tb, src);
                        match p.and_then(|p| self.arrived[d].get(&p)) {
                            Some(Slot::Partial(v)) => partials.push(v),
                            _ => {
                                return Err(at(
                                    ViolationKind::MissingPartial,
                                    format!("reduces {tb:?} without partial from {src}"),
                                ))
                            }
                        }
                    }
                    let key = (item.kind, tb);
                    if backward {
                        // A backward reduction sums into the device's own
                        // (possibly fresh) accumulator.
                        self.held[d].insert(key);
                    } else if partials.is_empty() && !self.held[d].contains(&key) {
                        return Err(at(
                            ViolationKind::MissingPartial,
                            format!("reduces {tb:?} with no partial to merge"),
                        ));
                    }
                    fx.reduce(dev, item, &partials);
                }
                Ok(true)
            }
            Instr::Copy { .. } => Ok(true),
        }
    }
}
