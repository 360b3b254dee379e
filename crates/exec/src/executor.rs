//! Numerical execution of plans: the numeric effect handlers of
//! [`dcp_sched::StreamMachine`].
//!
//! The machine steps every device's stream round-robin and checks every
//! legality rule before an effect runs — the same machine, with no effects,
//! is the verifier (`dcp_sched::verify`), so the executor and the verifier
//! cannot disagree about which streams are legal. A plan that reads data
//! it never communicated fails with [`DcpError::InvalidPlan`] carrying the
//! machine's diagnostic (e.g. `[missing-input] device 2 instr 5: ...`)
//! rather than producing correct-looking results: executing a plan is
//! itself a verification.
//!
//! This module keeps only the numerics: the attention kernels (fanned out
//! over rayon, folded in plan order so results are bitwise identical at
//! every thread count), the reductions, one obs span per completed
//! instruction, and output assembly. Model inputs (Q, KV, dO) are
//! immutable, so every device reads them in place once the machine has
//! found them local or arrived; partials travel as raw accumulators and
//! are finalized where they are merged.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_obs::{Event, ObsSink, Phase as ObsPhase, Source as ObsSource, NOOP};
use dcp_sched::{
    Effects, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, Placement, ReduceItem,
    StreamMachine, VerifyCtx,
};
use dcp_types::{DcpError, DcpResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::kernels::{
    attn_block_bwd, attn_block_fwd, merge_outputs, BlockAcc, BlockArgs, BlockBwdArgs,
};

/// Per-token-block input tensors of one batch.
///
/// Block `t` holds `q: [len, qh, dim]`, `k`/`v`: `[len, kvh, dim]` where
/// `qh`/`kvh` are the per-head-group head counts of the layout.
#[derive(Debug, Clone)]
pub struct BatchData {
    /// Q slices, indexed by token block.
    pub q: Vec<Vec<f32>>,
    /// K slices.
    pub k: Vec<Vec<f32>>,
    /// V slices.
    pub v: Vec<Vec<f32>>,
}

impl BatchData {
    /// Per-head-group (query, kv) head counts of `layout`.
    pub fn head_counts(layout: &BatchLayout) -> (usize, usize) {
        (
            (layout.attn.q_heads / layout.config.head_blocks) as usize,
            (layout.attn.kv_heads / layout.config.head_blocks) as usize,
        )
    }

    /// Random input data for every token block (token blocks tile the batch
    /// disjointly, so independent blocks form a coherent batch).
    pub fn random(layout: &BatchLayout, seed: u64) -> Self {
        let (qh, kvh) = Self::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let mut q = Vec::new();
        let mut k = Vec::new();
        let mut v = Vec::new();
        for tb in &layout.token_blocks {
            let len = tb.len as usize;
            q.push(gen(len * qh * dim));
            k.push(gen(len * kvh * dim));
            v.push(gen(len * kvh * dim));
        }
        BatchData { q, k, v }
    }

    /// Assembles the full `[len, heads, dim]` tensors of sequence `seq`
    /// from its blocks (all head groups), for comparison against the dense
    /// reference. Returns `(q, k, v)`.
    pub fn assemble_sequence(
        &self,
        layout: &BatchLayout,
        seq: u32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (qh, kvh) = Self::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        let hb = layout.config.head_blocks as usize;
        let len = layout.seq_lens[seq as usize] as usize;
        let total_qh = qh * hb;
        let total_kvh = kvh * hb;
        let mut q = vec![0.0f32; len * total_qh * dim];
        let mut k = vec![0.0f32; len * total_kvh * dim];
        let mut v = vec![0.0f32; len * total_kvh * dim];
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            if tb.seq != seq {
                continue;
            }
            let h0q = tb.head_block as usize * qh;
            let h0kv = tb.head_block as usize * kvh;
            for t in 0..tb.len as usize {
                let abs = tb.start as usize + t;
                for h in 0..qh {
                    for d in 0..dim {
                        q[(abs * total_qh + h0q + h) * dim + d] = self.q[i][(t * qh + h) * dim + d];
                    }
                }
                for h in 0..kvh {
                    for d in 0..dim {
                        k[(abs * total_kvh + h0kv + h) * dim + d] =
                            self.k[i][(t * kvh + h) * dim + d];
                        v[(abs * total_kvh + h0kv + h) * dim + d] =
                            self.v[i][(t * kvh + h) * dim + d];
                    }
                }
            }
        }
        (q, k, v)
    }
}

/// Final attention output of one token block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockOut {
    /// Normalized output, `[len, qh, dim]`.
    pub o: Vec<f32>,
    /// Log-sum-exp, `[len * qh]`.
    pub lse: Vec<f32>,
}

/// Gradients of one token block's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGrads {
    /// `[len, qh, dim]`.
    pub dq: Vec<f32>,
    /// `[len, kvh, dim]`.
    pub dk: Vec<f32>,
    /// `[len, kvh, dim]`.
    pub dv: Vec<f32>,
}

/// Observability context for an executor call: the sink plus the iteration
/// index stamped onto every emitted event. [`ExecObs::disabled`] is the
/// zero-overhead default used by the plain entry points.
pub struct ExecObs<'a> {
    /// Destination sink.
    pub sink: &'a dyn ObsSink,
    /// Iteration / batch index, when known.
    pub iter: Option<u64>,
}

impl<'a> ExecObs<'a> {
    /// Wraps a sink with no iteration index.
    pub fn new(sink: &'a dyn ObsSink) -> Self {
        ExecObs { sink, iter: None }
    }

    /// Stamps `iter` onto every event (builder style).
    pub fn with_iter(mut self, iter: u64) -> Self {
        self.iter = Some(iter);
        self
    }

    fn stamp(&self, e: Event) -> Event {
        match self.iter {
            Some(i) => e.with_iter(i),
            None => e,
        }
    }
}

impl ExecObs<'static> {
    /// The no-op context: a single disabled-branch per instruction.
    pub fn disabled() -> Self {
        ExecObs {
            sink: &NOOP,
            iter: None,
        }
    }
}

/// Per-instruction obs spans of one phase, fed by the machine's step hooks.
struct Spans<'a> {
    obs: &'a ExecObs<'a>,
    phase: &'a PhasePlan,
    obs_phase: ObsPhase,
    enabled: bool,
    /// Time origin shared by every span of this phase.
    t0: Instant,
    /// Start of the current step attempt (only when enabled).
    started: Option<Instant>,
    /// Per device: divisions completed so far (an `Attn`/`AttnBwd`
    /// instruction closes a division).
    division: Vec<u32>,
    /// Per device: when the device first blocked on its pending `CommWait`,
    /// so the eventual `comm_wait` span covers the whole blocked interval.
    wait_since: Vec<Option<Instant>>,
}

impl<'a> Spans<'a> {
    fn new(obs: &'a ExecObs<'a>, phase: &'a PhasePlan, obs_phase: ObsPhase) -> Self {
        let n = phase.devices.len();
        Spans {
            obs,
            phase,
            obs_phase,
            enabled: obs.sink.enabled(),
            t0: Instant::now(),
            started: None,
            division: vec![0; n],
            wait_since: vec![None; n],
        }
    }

    fn before_step(&mut self) {
        if self.enabled {
            self.started = Some(Instant::now());
        }
    }

    /// Emits the span of a completed instruction, or remembers when a
    /// blocked wait started. The machine steps devices in a serial
    /// round-robin order that depends only on plan structure (rayon
    /// parallelism stays inside an instruction), so the stream is
    /// deterministic across thread counts.
    fn after_step(&mut self, dev: u32, ins: &Instr, done: bool) {
        let Some(t) = self.started else { return };
        if done {
            self.emit(dev, ins, t);
        } else {
            self.wait_since[dev as usize].get_or_insert(t);
        }
    }

    /// Emits the span for one completed instruction: per-instruction-class
    /// name, per-division index, and the bytes/flops payload.
    fn emit(&mut self, dev: u32, ins: &Instr, t_start: Instant) {
        let d = dev as usize;
        let div = self.division[d];
        let obs_phase = self.obs_phase;
        let span = |name: &str, div: u32| {
            Event::span(ObsSource::Executor, name)
                .with_device(dev)
                .with_phase(obs_phase)
                .with_division(div)
        };
        let (ev, started) = match ins {
            Instr::CommLaunch(cid) => (
                span("comm_launch", div)
                    .with_comm(cid.0)
                    .with_bytes(self.phase.comms[cid.0 as usize].bytes()),
                t_start,
            ),
            // The span covers the whole blocked interval, not just the
            // final successful poll.
            Instr::CommWait(cid) => (
                span("comm_wait", div)
                    .with_comm(cid.0)
                    .with_bytes(self.phase.comms[cid.0 as usize].bytes_into(dev)),
                self.wait_since[d].take().unwrap_or(t_start),
            ),
            Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } => {
                self.division[d] += 1;
                let name = if matches!(ins, Instr::Attn { .. }) {
                    "attn"
                } else {
                    "attn_bwd"
                };
                let e = span(name, div).with_flops(*flops);
                (e.with_value(items.len() as f64), t_start)
            }
            Instr::Reduce { items, bytes } => (
                span("reduce", div.saturating_sub(1))
                    .with_bytes(*bytes)
                    .with_value(items.len() as f64),
                t_start,
            ),
            Instr::Copy { bytes } => (
                span("copy", div.saturating_sub(1)).with_bytes(*bytes),
                t_start,
            ),
        };
        let ev = ev.with_time(
            (started - self.t0).as_secs_f64(),
            started.elapsed().as_secs_f64(),
        );
        self.obs.sink.record(self.obs.stamp(ev));
    }

    /// Per-device peak planned buffer gauges for this phase.
    fn emit_buffer_gauges(&self) {
        if !self.enabled {
            return;
        }
        for ds in &self.phase.devices {
            let gauge = Event::gauge(
                ObsSource::Executor,
                "peak_buffer_bytes",
                ds.buffer.peak_bytes() as f64,
            );
            let gauge = gauge.with_device(ds.device).with_phase(self.obs_phase);
            self.obs.sink.record(self.obs.stamp(gauge));
        }
    }
}

/// Read-only kernel inputs of one batch.
struct Kernels<'a> {
    layout: &'a BatchLayout,
    data: &'a BatchData,
    qh: usize,
    kvh: usize,
    dim: usize,
}

impl<'a> Kernels<'a> {
    fn new(layout: &'a BatchLayout, data: &'a BatchData) -> Self {
        let (qh, kvh) = BatchData::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        Kernels {
            layout,
            data,
            qh,
            kvh,
            dim,
        }
    }

    /// The Q and KV blocks of computation block `c` and its forward kernel
    /// arguments, read from the model inputs in place.
    fn args(&self, c: CompBlockId) -> (TokenBlockId, TokenBlockId, BlockArgs<'a>) {
        let (layout, data) = (self.layout, self.data);
        let cb = layout.comp_blocks[c.0 as usize];
        let (qb, kb) = (cb.q_block, cb.kv_block);
        let qtb = layout.token_blocks[qb.0 as usize];
        let ktb = layout.token_blocks[kb.0 as usize];
        let args = BlockArgs {
            q: &data.q[qb.0 as usize],
            k: &data.k[kb.0 as usize],
            v: &data.v[kb.0 as usize],
            qh: self.qh,
            kvh: self.kvh,
            dim: self.dim,
            q_len: qtb.len as usize,
            kv_len: ktb.len as usize,
            q_start: qtb.start,
            kv_start: ktb.start,
            mask: &layout.masks[qtb.seq as usize],
            scale: 1.0 / (self.dim as f32).sqrt(),
        };
        (qb, kb, args)
    }

    /// Zeroed gradient sums of `kind` for token block `tb`: `[dQ]` or
    /// `[dK, dV]`.
    fn zero_grads(&self, kind: PayloadKind, tb: TokenBlockId) -> Vec<Vec<f32>> {
        let len = self.layout.token_blocks[tb.0 as usize].len as usize;
        match kind {
            PayloadKind::PartialDq => vec![vec![0.0; len * self.qh * self.dim]],
            _ => vec![vec![0.0; len * self.kvh * self.dim]; 2],
        }
    }
}

/// Forward effects: online-softmax accumulators per device and Q block.
struct Forward<'a> {
    k: Kernels<'a>,
    spans: Spans<'a>,
    accs: Vec<HashMap<TokenBlockId, BlockAcc>>,
    finals: HashMap<TokenBlockId, BlockOut>,
}

impl Effects for Forward<'_> {
    type Partial = BlockAcc;

    fn deposit(&mut self, dev: u32, payload: Payload) -> BlockAcc {
        self.accs[dev as usize][&payload.token_block()].clone()
    }

    fn install(&mut self, dev: u32, payload: Payload, acc: BlockAcc) {
        self.accs[dev as usize].insert(payload.token_block(), acc);
    }

    fn attn(&mut self, dev: u32, items: &[CompBlockId]) {
        // Compute each computation block's partial accumulator on the rayon
        // pool, then fold the partials into the per-Q-block state in item
        // order. The fold order is fixed by the plan, never by the
        // scheduler, so results are bitwise identical at every thread
        // count.
        let k = &self.k;
        let parts: Vec<(TokenBlockId, BlockAcc)> = items
            .par_iter()
            .map(|&c| {
                let (qb, _, args) = k.args(c);
                let mut acc = BlockAcc::new(args.q_len, args.qh, args.dim);
                attn_block_fwd(&mut acc, args);
                (qb, acc)
            })
            .collect();
        for (qb, part) in parts {
            match self.accs[dev as usize].entry(qb) {
                Entry::Occupied(e) => e.into_mut().merge(&part),
                Entry::Vacant(e) => {
                    e.insert(part);
                }
            }
        }
    }

    fn reduce(&mut self, dev: u32, item: &ReduceItem, partials: &[&BlockAcc]) {
        // The device's own partial (if it computed locally for this block)
        // first, then the sources in order.
        let dim = self.k.dim;
        let local = self.accs[dev as usize].get(&item.target);
        let mut outs = local.into_iter().chain(partials.iter().copied());
        let first = outs.next().expect("the machine rejects empty reductions");
        let (o, lse) = outs.fold(first.finalize(), |(o, lse), p| {
            let (po, plse) = p.finalize();
            merge_outputs(&o, &lse, &po, &plse, dim)
        });
        self.finals.insert(item.target, BlockOut { o, lse });
    }

    fn before_step(&mut self) {
        self.spans.before_step();
    }

    fn after_step(&mut self, dev: u32, ins: &Instr, done: bool) {
        self.spans.after_step(dev, ins, done);
    }
}

/// One device's gradient running sums, keyed like the machine's
/// accumulator state: `(PartialDq, q block)` holds `[dQ]`,
/// `(PartialDkv, kv block)` holds `[dK, dV]`.
type GradSums = HashMap<(PayloadKind, TokenBlockId), Vec<Vec<f32>>>;

/// Backward effects: gradient running sums per device.
struct Backward<'a> {
    k: Kernels<'a>,
    spans: Spans<'a>,
    fwd_out: &'a HashMap<TokenBlockId, BlockOut>,
    d_o: &'a HashMap<TokenBlockId, Vec<f32>>,
    sums: Vec<GradSums>,
}

impl Backward<'_> {
    /// Adds `part` into `dev`'s running sums for `key`, zero-initialized on
    /// first use.
    fn add(&mut self, dev: u32, key: (PayloadKind, TokenBlockId), part: &[Vec<f32>]) {
        let k = &self.k;
        let acc = self.sums[dev as usize]
            .entry(key)
            .or_insert_with(|| k.zero_grads(key.0, key.1));
        for (a, p) in acc.iter_mut().zip(part) {
            for (x, y) in a.iter_mut().zip(p) {
                *x += y;
            }
        }
    }
}

impl Effects for Backward<'_> {
    type Partial = Vec<Vec<f32>>;

    fn deposit(&mut self, dev: u32, payload: Payload) -> Vec<Vec<f32>> {
        self.sums[dev as usize][&(payload.kind(), payload.token_block())].clone()
    }

    fn install(&mut self, dev: u32, payload: Payload, sums: Vec<Vec<f32>>) {
        self.sums[dev as usize].insert((payload.kind(), payload.token_block()), sums);
    }

    fn attn(&mut self, dev: u32, items: &[CompBlockId]) {
        // Per-item gradient partials on the rayon pool, added into the
        // device sums in item order: gradient addition order is fixed by
        // the plan, so results are bitwise identical at every thread count.
        let (k, fwd_out, d_o) = (&self.k, self.fwd_out, self.d_o);
        type GradPart = (TokenBlockId, TokenBlockId, [Vec<f32>; 1], [Vec<f32>; 2]);
        let parts: Vec<GradPart> = items
            .par_iter()
            .map(|&c| {
                let (qb, kb, a) = k.args(c);
                let mut pdq = vec![0.0f32; a.q_len * a.qh * a.dim];
                let mut pdk = vec![0.0f32; a.kv_len * a.kvh * a.dim];
                let mut pdv = vec![0.0f32; a.kv_len * a.kvh * a.dim];
                let out = &fwd_out[&qb];
                let args = BlockBwdArgs {
                    fwd: a,
                    o: &out.o,
                    lse: &out.lse,
                    d_o: &d_o[&qb],
                };
                attn_block_bwd(args, &mut pdq, &mut pdk, &mut pdv);
                (qb, kb, [pdq], [pdk, pdv])
            })
            .collect();
        for (qb, kb, dq, dkv) in parts {
            self.add(dev, (PayloadKind::PartialDq, qb), &dq);
            self.add(dev, (PayloadKind::PartialDkv, kb), &dkv);
        }
    }

    fn reduce(&mut self, dev: u32, item: &ReduceItem, partials: &[&Vec<Vec<f32>>]) {
        // A reduction creates the owner's sums even when it merges nothing.
        let key = (item.kind, item.target);
        self.add(dev, key, &[]);
        for p in partials {
            self.add(dev, key, p);
        }
    }

    fn before_step(&mut self) {
        self.spans.before_step();
    }

    fn after_step(&mut self, dev: u32, ins: &Instr, done: bool) {
        self.spans.after_step(dev, ins, done);
    }
}

/// Runs one phase through the machine with effect handler `fx`.
fn run_phase<E: Effects>(
    layout: &BatchLayout,
    placement: &Placement,
    phase: &PhasePlan,
    backward: bool,
    ctx: &VerifyCtx,
    fx: &mut E,
) -> DcpResult<()> {
    placement.validate(layout)?;
    StreamMachine::new(layout, placement, phase, backward, ctx)
        .run(fx)
        .map_err(|d| DcpError::invalid_plan(d.to_string()))
}

/// Executes the forward phase of `plan`, returning the final `(O, lse)` of
/// every token block (keyed by id).
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`] if the plan breaks a stream-machine
/// rule: it reads data that was never communicated, deadlocks, or
/// references unknown blocks.
pub fn execute_forward(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
) -> DcpResult<HashMap<TokenBlockId, BlockOut>> {
    execute_forward_obs(layout, placement, plan, data, &ExecObs::disabled())
}

/// [`execute_forward`] with observability: emits one span per completed
/// instruction (`attn` / `reduce` / `copy` / `comm_launch` / `comm_wait`,
/// with per-division indices and bytes/flops payloads) plus per-device
/// `peak_buffer_bytes` gauges. With [`ExecObs::disabled`] the overhead is a
/// single branch per instruction.
pub fn execute_forward_obs(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockOut>> {
    let ctx = VerifyCtx::default();
    execute_forward_recovery(layout, placement, &plan.fwd, data, &ctx, obs)
}

/// Executes a forward phase under the recovery rules of `ctx` (see
/// [`VerifyCtx`]); with the default context this *is* the normal forward
/// executor. Under a patch's context a dead stream's raw accumulators ship
/// over salvage ops and are installed as the waiting shard's starting
/// state, so its residual `Attn` items fold in exactly where the dead
/// stream left off; shards deposit the dead stream's outstanding partials
/// under the original comm ids. Survivor streams execute verbatim, so a
/// patch execution's outputs are bitwise identical to the unfaulted run's.
///
/// # Errors
///
/// As [`execute_forward`].
pub fn execute_forward_recovery(
    layout: &BatchLayout,
    placement: &Placement,
    phase: &PhasePlan,
    data: &BatchData,
    ctx: &VerifyCtx,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockOut>> {
    let n = phase.devices.len().max(placement.num_devices as usize);
    let mut fx = Forward {
        k: Kernels::new(layout, data),
        spans: Spans::new(obs, phase, ObsPhase::Fwd),
        accs: vec![HashMap::new(); n],
        finals: HashMap::new(),
    };
    run_phase(layout, placement, phase, false, ctx, &mut fx)?;
    fx.spans.emit_buffer_gauges();

    // Owned blocks whose outputs were computed entirely locally; a block no
    // computation targets (a mask with no pairs in its rows) is zero.
    let (qh, dim) = (fx.k.qh, fx.k.dim);
    for (i, tb) in layout.token_blocks.iter().enumerate() {
        let id = TokenBlockId(i as u32);
        let acc = fx.accs[placement.token_dev(id) as usize].get(&id);
        fx.finals.entry(id).or_insert_with(|| match acc {
            Some(acc) => {
                let (o, lse) = acc.finalize();
                BlockOut { o, lse }
            }
            None => BlockOut {
                o: vec![0.0; tb.len as usize * qh * dim],
                lse: vec![f32::NEG_INFINITY; tb.len as usize * qh],
            },
        });
    }
    Ok(fx.finals)
}

/// Executes the backward phase of `plan`, returning the gradients of every
/// token block. `fwd_out` is the forward result (from [`execute_forward`])
/// and `d_o` the per-block output gradients.
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`] if the plan breaks a stream-machine
/// rule, and [`DcpError::InvalidArgument`] if `d_o` is missing a block.
pub fn execute_backward(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    fwd_out: &HashMap<TokenBlockId, BlockOut>,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
) -> DcpResult<HashMap<TokenBlockId, BlockGrads>> {
    let obs = ExecObs::disabled();
    execute_backward_obs(layout, placement, plan, data, fwd_out, d_o, &obs)
}

/// [`execute_backward`] with observability — the backward mirror of
/// [`execute_forward_obs`] (`attn_bwd` spans instead of `attn`).
pub fn execute_backward_obs(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    fwd_out: &HashMap<TokenBlockId, BlockOut>,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockGrads>> {
    let ctx = VerifyCtx::default();
    execute_backward_recovery(layout, placement, &plan.bwd, data, fwd_out, d_o, &ctx, obs)
}

/// Executes a backward phase under the recovery rules of `ctx` — the
/// backward mirror of [`execute_forward_recovery`]; with the default
/// context this *is* the normal backward executor. Salvage ops ship a dead
/// stream's raw `dQ` / `dKV` running sums (gradient accumulators are plain
/// sums, so the raw state and the partial payload coincide), installed as
/// the waiting shard's starting sums at its reduction frontier.
///
/// # Errors
///
/// As [`execute_backward`]; also [`DcpError::InvalidArgument`] if
/// `fwd_out` is missing a block.
#[allow(clippy::too_many_arguments)]
pub fn execute_backward_recovery(
    layout: &BatchLayout,
    placement: &Placement,
    phase: &PhasePlan,
    data: &BatchData,
    fwd_out: &HashMap<TokenBlockId, BlockOut>,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
    ctx: &VerifyCtx,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockGrads>> {
    for i in 0..layout.token_blocks.len() {
        let tb = TokenBlockId(i as u32);
        if !d_o.contains_key(&tb) || !fwd_out.contains_key(&tb) {
            return Err(DcpError::invalid_argument(format!(
                "missing forward output or dO for {tb:?}"
            )));
        }
    }
    let n = phase.devices.len().max(placement.num_devices as usize);
    let mut fx = Backward {
        k: Kernels::new(layout, data),
        spans: Spans::new(obs, phase, ObsPhase::Bwd),
        fwd_out,
        d_o,
        sums: vec![HashMap::new(); n],
    };
    run_phase(layout, placement, phase, true, ctx, &mut fx)?;
    fx.spans.emit_buffer_gauges();

    // Assemble owned gradients.
    let mut grads = HashMap::new();
    for i in 0..layout.token_blocks.len() {
        let id = TokenBlockId(i as u32);
        let owner = placement.token_dev(id) as usize;
        let mut take = |kind| {
            let sums = fx.sums[owner].remove(&(kind, id));
            sums.unwrap_or_else(|| fx.k.zero_grads(kind, id))
        };
        let [dq]: [Vec<f32>; 1] = take(PayloadKind::PartialDq)
            .try_into()
            .expect("dQ sums hold one tensor");
        let [dk, dv]: [Vec<f32>; 2] = take(PayloadKind::PartialDkv)
            .try_into()
            .expect("dKV sums hold two tensors");
        grads.insert(id, BlockGrads { dq, dk, dv });
    }
    Ok(grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_sched::{build_plan, ScheduleConfig};
    use dcp_types::AttnSpec;

    fn small_attn() -> AttnSpec {
        AttnSpec::new(4, 2, 8, 2)
    }

    fn build(seqs: &[(u32, MaskSpec)], bs: u32, hb: u32) -> BatchLayout {
        BatchLayout::build(
            small_attn(),
            BlockConfig {
                block_size: bs,
                head_blocks: hb,
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

    /// Compares a plan execution against the dense reference for all
    /// sequences in the layout. Panics with context on mismatch.
    pub(crate) fn check_against_reference(
        l: &BatchLayout,
        p: &Placement,
        tol_fwd: f32,
        tol_bwd: f32,
    ) {
        let plan = build_plan(l, p, &ScheduleConfig::default()).unwrap();
        dcp_sched::verify_plan(l, p, &plan).unwrap();
        let data = BatchData::random(l, 77);
        let out = execute_forward(l, p, &plan, &data).unwrap();

        let (qh, kvh) = BatchData::head_counts(l);
        let dim = l.attn.head_dim as usize;
        let hb = l.config.head_blocks as usize;

        // dO: random but deterministic.
        let mut d_o = HashMap::new();
        {
            let mut rng = SmallRng::seed_from_u64(123);
            for (i, tb) in l.token_blocks.iter().enumerate() {
                let v: Vec<f32> = (0..tb.len as usize * qh * dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                d_o.insert(TokenBlockId(i as u32), v);
            }
        }
        let grads = execute_backward(l, p, &plan, &data, &out, &d_o).unwrap();

        for seq in 0..l.num_seqs() as u32 {
            let (q, k, v) = data.assemble_sequence(l, seq);
            let len = l.seq_lens[seq as usize] as usize;
            let total_qh = qh * hb;
            let total_kvh = kvh * hb;
            let mask = &l.masks[seq as usize];
            let (ro, rlse) = reference::attention(&q, &k, &v, len, total_qh, total_kvh, dim, mask);
            // Assemble dO for the full sequence.
            let mut full_do = vec![0.0f32; len * total_qh * dim];
            for (i, tb) in l.token_blocks.iter().enumerate() {
                if tb.seq != seq {
                    continue;
                }
                let h0 = tb.head_block as usize * qh;
                let blk = &d_o[&TokenBlockId(i as u32)];
                for t in 0..tb.len as usize {
                    for h in 0..qh {
                        for d in 0..dim {
                            full_do[((tb.start as usize + t) * total_qh + h0 + h) * dim + d] =
                                blk[(t * qh + h) * dim + d];
                        }
                    }
                }
            }
            let (rdq, rdk, rdv) = reference::attention_bwd(
                &q, &k, &v, &ro, &rlse, &full_do, len, total_qh, total_kvh, dim, mask,
            );
            // Compare every block slice.
            for (i, tb) in l.token_blocks.iter().enumerate() {
                if tb.seq != seq {
                    continue;
                }
                let id = TokenBlockId(i as u32);
                let got = &out[&id];
                let g = &grads[&id];
                let h0q = tb.head_block as usize * qh;
                let h0kv = tb.head_block as usize * kvh;
                for t in 0..tb.len as usize {
                    let abs = tb.start as usize + t;
                    for h in 0..qh {
                        let rr = (abs * total_qh + h0q + h) * dim;
                        let br = (t * qh + h) * dim;
                        for d in 0..dim {
                            let diff = (got.o[br + d] - ro[rr + d]).abs();
                            assert!(
                                diff < tol_fwd,
                                "seq {seq} block {i} O mismatch {diff} at t={t},h={h},d={d}"
                            );
                            let gdiff = (g.dq[br + d] - rdq[rr + d]).abs();
                            assert!(gdiff < tol_bwd, "seq {seq} block {i} dQ mismatch {gdiff}");
                        }
                        let lse_ref = rlse[abs * total_qh + h0q + h];
                        let lse_got = got.lse[t * qh + h];
                        if lse_ref == f32::NEG_INFINITY {
                            assert_eq!(lse_got, f32::NEG_INFINITY);
                        } else {
                            assert!((lse_got - lse_ref).abs() < tol_fwd);
                        }
                    }
                    for h in 0..kvh {
                        let rr = (abs * total_kvh + h0kv + h) * dim;
                        let br = (t * kvh + h) * dim;
                        for d in 0..dim {
                            assert!(
                                (g.dk[br + d] - rdk[rr + d]).abs() < tol_bwd,
                                "seq {seq} block {i} dK mismatch"
                            );
                            assert!(
                                (g.dv[br + d] - rdv[rr + d]).abs() < tol_bwd,
                                "seq {seq} block {i} dV mismatch"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ring_plan_matches_reference_causal() {
        let l = build(&[(64, MaskSpec::Causal), (32, MaskSpec::Causal)], 16, 1);
        let p = ring_placement(&l, 3);
        check_against_reference(&l, &p, 1e-4, 1e-3);
    }

    #[test]
    fn ring_plan_matches_reference_masks() {
        for spec in [
            MaskSpec::Lambda { sink: 3, window: 9 },
            MaskSpec::SharedQuestion {
                question_len: 20,
                answer_lens: vec![20, 24],
            },
            MaskSpec::CausalBlockwise {
                block: 8,
                window_blocks: 2,
                sink_blocks: 1,
            },
        ] {
            let l = build(&[(64, spec)], 16, 2);
            let p = ring_placement(&l, 4);
            check_against_reference(&l, &p, 1e-4, 1e-3);
        }
    }

    #[test]
    fn single_device_matches_reference() {
        let l = build(&[(48, MaskSpec::Causal)], 16, 1);
        let p = Placement::all_on_zero(&l, 1);
        check_against_reference(&l, &p, 1e-4, 1e-3);
    }

    #[test]
    fn random_placements_match_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..5 {
            let l = build(
                &[
                    (40, MaskSpec::Causal),
                    (24, MaskSpec::Lambda { sink: 2, window: 8 }),
                ],
                8,
                1,
            );
            let n = 3u32;
            let token_to_dev: Vec<u32> = (0..l.token_blocks.len())
                .map(|_| rng.gen_range(0..n))
                .collect();
            let comp_to_dev: Vec<u32> = (0..l.comp_blocks.len())
                .map(|_| rng.gen_range(0..n))
                .collect();
            let p = Placement {
                num_devices: n,
                token_to_dev,
                comp_to_dev,
            };
            check_against_reference(&l, &p, 1e-4, 1e-3);
            let _ = trial;
        }
    }

    #[test]
    fn tampered_plan_is_rejected() {
        // Removing a transfer makes the executor fail loudly.
        let l = build(&[(64, MaskSpec::Causal)], 16, 1);
        let p = ring_placement(&l, 2);
        let mut plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let data = BatchData::random(&l, 7);
        // Drop all transfers of the first forward comm op.
        if let Some(op) = plan.fwd.comms.first_mut() {
            op.transfers.clear();
        }
        let res = execute_forward(&l, &p, &plan, &data);
        assert!(res.is_err(), "under-communicating plan must fail");
    }

    /// The defects the old executor panicked on or ran silently: an
    /// out-of-range comm id, a forward reduction with nothing to merge, an
    /// `Attn` item listed twice. The stream machine rejects each with the
    /// verifier's diagnostic.
    #[test]
    fn malformed_streams_are_invalid_plans() {
        type Mutation = fn(&BatchLayout, &Placement, &mut ExecutionPlan);
        let cases: [(&str, Mutation); 4] = [
            ("[comm-id-out-of-range]", |_, _, plan| {
                let bogus = dcp_sched::CommId(plan.fwd.comms.len() as u32 + 3);
                plan.fwd.devices[0]
                    .instrs
                    .insert(0, Instr::CommLaunch(bogus));
            }),
            ("[comm-id-out-of-range]", |_, _, plan| {
                let bogus = dcp_sched::CommId(plan.fwd.comms.len() as u32 + 3);
                plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
            }),
            ("[missing-partial]", |l, p, plan| {
                // A block device 0 neither owns nor computes for.
                let target = (0..l.token_blocks.len() as u32)
                    .map(TokenBlockId)
                    .find(|&tb| p.token_dev(tb) == 1)
                    .unwrap();
                let item = dcp_sched::ReduceItem {
                    target,
                    sources: vec![],
                    kind: PayloadKind::PartialO,
                };
                let items = vec![item];
                plan.fwd.devices[0]
                    .instrs
                    .push(Instr::Reduce { items, bytes: 0 });
            }),
            ("[duplicate-compute]", |_, _, plan| {
                let instrs = &mut plan.fwd.devices[0].instrs;
                let items = instrs.iter_mut().find_map(|ins| match ins {
                    Instr::Attn { items, .. } => Some(items),
                    _ => None,
                });
                let items = items.unwrap();
                items.push(items[0]);
            }),
        ];
        let l = build(&[(64, MaskSpec::Causal)], 16, 1);
        let p = ring_placement(&l, 2);
        let data = BatchData::random(&l, 7);
        for (tag, mutate) in cases {
            let mut plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
            mutate(&l, &p, &mut plan);
            match execute_forward(&l, &p, &plan, &data) {
                Err(e @ DcpError::InvalidPlan(_)) => assert!(e.to_string().contains(tag), "{e}"),
                other => panic!("expected InvalidPlan {tag}, got {other:?}"),
            }
        }
    }
}
