//! The execution-plan IR: the paper's five instructions plus the transfer
//! and communication-operation records they reference.

use dcp_blocks::{CompBlockId, TokenBlock, TokenBlockId};
use serde::{Deserialize, Serialize};

/// Index of a [`CommOp`] within a [`PhasePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommId(pub u32);

/// What a transfer carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Payload {
    /// The Q slice of a token block (forward input fetch).
    Q(TokenBlockId),
    /// The K+V slices of a token block (forward/backward input fetch).
    Kv(TokenBlockId),
    /// A partial attention output (O + log-sum-exp) for a token block,
    /// produced on the given device, sent to the block's owner.
    PartialO(TokenBlockId, u32),
    /// The output gradient dO of a token block (backward input fetch).
    DO(TokenBlockId),
    /// A partial dQ for a token block produced on the given device.
    PartialDq(TokenBlockId, u32),
    /// A partial dK/dV for a token block produced on the given device.
    PartialDkv(TokenBlockId, u32),
}

impl Payload {
    /// The token block this payload concerns.
    pub fn token_block(&self) -> TokenBlockId {
        match *self {
            Payload::Q(t)
            | Payload::Kv(t)
            | Payload::PartialO(t, _)
            | Payload::DO(t)
            | Payload::PartialDq(t, _)
            | Payload::PartialDkv(t, _) => t,
        }
    }

    /// The coarse payload kind (used for fetch deduplication).
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Q(_) => PayloadKind::Q,
            Payload::Kv(_) => PayloadKind::Kv,
            Payload::PartialO(..) => PayloadKind::PartialO,
            Payload::DO(_) => PayloadKind::DO,
            Payload::PartialDq(..) => PayloadKind::PartialDq,
            Payload::PartialDkv(..) => PayloadKind::PartialDkv,
        }
    }

    /// The partial of `kind` for token block `tb` produced on `producer`
    /// (`None` for input kinds).
    pub fn partial(kind: PayloadKind, tb: TokenBlockId, producer: u32) -> Option<Payload> {
        match kind {
            PayloadKind::PartialO => Some(Payload::PartialO(tb, producer)),
            PayloadKind::PartialDq => Some(Payload::PartialDq(tb, producer)),
            PayloadKind::PartialDkv => Some(Payload::PartialDkv(tb, producer)),
            PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO => None,
        }
    }

    /// The input of `kind` for token block `tb` (`None` for partial kinds).
    pub fn input(kind: PayloadKind, tb: TokenBlockId) -> Option<Payload> {
        match kind {
            PayloadKind::Q => Some(Payload::Q(tb)),
            PayloadKind::Kv => Some(Payload::Kv(tb)),
            PayloadKind::DO => Some(Payload::DO(tb)),
            PayloadKind::PartialO | PayloadKind::PartialDq | PayloadKind::PartialDkv => None,
        }
    }

    /// The device that produced a partial (`None` for inputs).
    pub fn producer(&self) -> Option<u32> {
        match *self {
            Payload::PartialO(_, p) | Payload::PartialDq(_, p) | Payload::PartialDkv(_, p) => {
                Some(p)
            }
            Payload::Q(_) | Payload::Kv(_) | Payload::DO(_) => None,
        }
    }
}

/// Coarse classification of payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PayloadKind {
    /// Query slice.
    Q,
    /// Key/value slices.
    Kv,
    /// Partial output.
    PartialO,
    /// Output gradient slice.
    DO,
    /// Partial query gradient.
    PartialDq,
    /// Partial key/value gradient.
    PartialDkv,
}

impl PayloadKind {
    /// Whether this is a model input (Q, KV, dO) rather than a partial:
    /// inputs are deposited by the receiver's launch, partials by the
    /// producer's.
    pub fn is_input(self) -> bool {
        matches!(self, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO)
    }

    /// Bytes one payload of this kind moves for token block `tb`: Q and dQ
    /// are Q-sized, KV and dKV KV-sized, dO and partial O output-sized.
    pub fn bytes(self, tb: &TokenBlock) -> u64 {
        match self {
            PayloadKind::Q | PayloadKind::PartialDq => tb.q_bytes,
            PayloadKind::Kv | PayloadKind::PartialDkv => tb.kv_bytes,
            PayloadKind::PartialO | PayloadKind::DO => tb.o_bytes,
        }
    }
}

/// One point-to-point transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Sending device.
    pub from: u32,
    /// Receiving device.
    pub to: u32,
    /// What is carried.
    pub payload: Payload,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A batch of transfers launched together (one `CommLaunch`/`CommWait`
/// pair). Corresponds to one fused NCCL group call in the paper's executor.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CommOp {
    /// The transfers of this operation.
    pub transfers: Vec<Transfer>,
}

impl CommOp {
    /// Total bytes moved by this operation.
    pub fn bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Bytes received by device `d`.
    pub fn bytes_into(&self, d: u32) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.to == d)
            .map(|t| t.bytes)
            .sum()
    }
}

/// A reduction merging partial results into a block owned by this device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReduceItem {
    /// The owned token block being reduced into.
    pub target: TokenBlockId,
    /// The remote devices whose partials are merged.
    pub sources: Vec<u32>,
    /// What is being reduced (partial O, dQ or dKV).
    pub kind: PayloadKind,
}

/// One instruction of a device stream — the paper's five instruction types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Asynchronously launch a communication operation.
    CommLaunch(CommId),
    /// Block until the incoming transfers of the operation have arrived.
    CommWait(CommId),
    /// Fused blockwise attention over the computation blocks of one
    /// division. Accumulates into the per-Q-block online-softmax
    /// accumulators on this device (FlashAttention-style rescale-and-add is
    /// fused into the kernel, as in the paper).
    Attn {
        /// Computation blocks executed by this fused call.
        items: Vec<CompBlockId>,
        /// Total forward FLOPs of the call.
        flops: u64,
    },
    /// Fused blockwise attention *backward* over one division's blocks.
    AttnBwd {
        /// Computation blocks whose backward is executed.
        items: Vec<CompBlockId>,
        /// Total backward FLOPs of the call.
        flops: u64,
    },
    /// Fused blockwise reduction merging remote partials into owned blocks.
    Reduce {
        /// Reductions performed by this fused call.
        items: Vec<ReduceItem>,
        /// Total bytes read+written by the reduction.
        bytes: u64,
    },
    /// Fused on-device block copy (buffer compaction / staging).
    Copy {
        /// Bytes copied.
        bytes: u64,
    },
}

/// The instruction stream of one device for one phase, plus its buffer
/// accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStream {
    /// Device rank.
    pub device: u32,
    /// Instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// Peak buffer usage of this stream (set by the buffer manager).
    pub buffer: crate::buffer::BufferStats,
}

/// All device streams and communication operations of one pass direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Communication operations referenced by `CommLaunch`/`CommWait`.
    pub comms: Vec<CommOp>,
    /// One stream per device, indexed by rank.
    pub devices: Vec<DeviceStream>,
}

impl PhasePlan {
    /// Total bytes communicated in this phase.
    pub fn total_comm_bytes(&self) -> u64 {
        self.comms.iter().map(CommOp::bytes).sum()
    }

    /// Total bytes of transfers for which `pred(from, to)` holds (e.g.
    /// cross-node transfers under some topology).
    pub fn comm_bytes_where(&self, mut pred: impl FnMut(u32, u32) -> bool) -> u64 {
        self.comms
            .iter()
            .flat_map(|c| c.transfers.iter())
            .filter(|t| pred(t.from, t.to))
            .map(|t| t.bytes)
            .sum()
    }

    /// Bytes communicated per tier distance under `cluster`'s topology:
    /// index 0 is intra-node traffic, 1 crosses only the first network tier
    /// (e.g. stays under one leaf), and so on up to
    /// [`dcp_types::ClusterSpec::num_tier_distances`]` - 1` for traffic
    /// crossing the whole fabric. The flat two-tier model yields
    /// `[intra_node, inter_node]`.
    pub fn comm_bytes_by_tier(&self, cluster: &dcp_types::ClusterSpec) -> Vec<u64> {
        let mut out = vec![0u64; cluster.num_tier_distances()];
        for t in self.comms.iter().flat_map(|c| c.transfers.iter()) {
            let d = cluster.tier_distance(dcp_types::DeviceId(t.from), dcp_types::DeviceId(t.to));
            out[d as usize] += t.bytes;
        }
        out
    }

    /// Maximum, over devices, of bytes sent plus bytes received.
    pub fn max_device_comm_bytes(&self) -> u64 {
        let n = self.devices.len();
        let mut per_dev = vec![0u64; n];
        for c in &self.comms {
            for t in &c.transfers {
                per_dev[t.from as usize] += t.bytes;
                per_dev[t.to as usize] += t.bytes;
            }
        }
        per_dev.into_iter().max().unwrap_or(0)
    }

    /// Per-device total attention FLOPs in this phase.
    pub fn comp_loads(&self) -> Vec<u64> {
        self.devices
            .iter()
            .map(|d| {
                d.instrs
                    .iter()
                    .map(|i| match i {
                        Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => *flops,
                        _ => 0,
                    })
                    .sum()
            })
            .collect()
    }
}

/// A complete execution plan for one training iteration's attention:
/// forward and backward phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Number of participating devices.
    pub num_devices: u32,
    /// Forward-pass streams.
    pub fwd: PhasePlan,
    /// Backward-pass streams.
    pub bwd: PhasePlan,
}

impl ExecutionPlan {
    /// Number of participating devices.
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// Total bytes communicated over both phases.
    pub fn total_comm_bytes(&self) -> u64 {
        self.fwd.total_comm_bytes() + self.bwd.total_comm_bytes()
    }

    /// Per-tier-distance bytes over both phases (see
    /// [`PhasePlan::comm_bytes_by_tier`]).
    pub fn comm_bytes_by_tier(&self, cluster: &dcp_types::ClusterSpec) -> Vec<u64> {
        let mut out = self.fwd.comm_bytes_by_tier(cluster);
        for (o, b) in out.iter_mut().zip(self.bwd.comm_bytes_by_tier(cluster)) {
            *o += b;
        }
        out
    }

    /// Serializes the plan to JSON (the dataloader-to-executor handoff).
    ///
    /// # Errors
    ///
    /// Returns [`dcp_types::DcpError::Serialization`] if encoding fails.
    pub fn to_json(&self) -> dcp_types::DcpResult<String> {
        serde_json::to_string(self).map_err(|e| dcp_types::DcpError::Serialization(e.to_string()))
    }

    /// Deserializes a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`dcp_types::DcpError::Serialization`] if decoding fails.
    pub fn from_json(s: &str) -> dcp_types::DcpResult<Self> {
        serde_json::from_str(s).map_err(|e| dcp_types::DcpError::Serialization(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_op_byte_accounting() {
        let op = CommOp {
            transfers: vec![
                Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Q(TokenBlockId(3)),
                    bytes: 100,
                },
                Transfer {
                    from: 2,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(4)),
                    bytes: 50,
                },
                Transfer {
                    from: 1,
                    to: 0,
                    payload: Payload::PartialO(TokenBlockId(3), 1),
                    bytes: 25,
                },
            ],
        };
        assert_eq!(op.bytes(), 175);
        assert_eq!(op.bytes_into(1), 150);
        assert_eq!(op.bytes_into(0), 25);
    }

    #[test]
    fn payload_kind_and_block() {
        let p = Payload::PartialDkv(TokenBlockId(7), 3);
        assert_eq!(p.kind(), PayloadKind::PartialDkv);
        assert_eq!(p.token_block(), TokenBlockId(7));
    }

    #[test]
    fn phase_filters() {
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![
                    Transfer {
                        from: 0,
                        to: 9,
                        payload: Payload::Kv(TokenBlockId(0)),
                        bytes: 10,
                    },
                    Transfer {
                        from: 1,
                        to: 2,
                        payload: Payload::Kv(TokenBlockId(1)),
                        bytes: 7,
                    },
                ],
            }],
            devices: vec![],
        };
        assert_eq!(phase.total_comm_bytes(), 17);
        // "Cross-node" if ranks are 8 apart.
        assert_eq!(phase.comm_bytes_where(|a, b| a / 8 != b / 8), 10);
    }

    #[test]
    fn comm_bytes_by_tier_splits_traffic_by_crossed_fabric_level() {
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![
                    // Intra-node (devices 0 and 1 share node 0).
                    Transfer {
                        from: 0,
                        to: 1,
                        payload: Payload::Kv(TokenBlockId(0)),
                        bytes: 3,
                    },
                    // Cross-node, same leaf (nodes 0 and 1, leaf 0).
                    Transfer {
                        from: 1,
                        to: 9,
                        payload: Payload::Kv(TokenBlockId(1)),
                        bytes: 5,
                    },
                    // Cross-leaf (node 0 → node 2).
                    Transfer {
                        from: 0,
                        to: 17,
                        payload: Payload::Kv(TokenBlockId(2)),
                        bytes: 11,
                    },
                ],
            }],
            devices: vec![],
        };
        // 4 nodes of 8 devices, 2 nodes per leaf → leaf boundary at node 2.
        let spine = dcp_types::ClusterSpec::p4de_spine(4, 2, 4.0);
        assert_eq!(phase.comm_bytes_by_tier(&spine), vec![3, 5, 11]);
        // Flat topology folds all cross-node traffic into one bucket.
        let flat = dcp_types::ClusterSpec::p4de(4);
        assert_eq!(phase.comm_bytes_by_tier(&flat), vec![3, 16]);
    }
}
