//! Block-buffer accounting with slot reuse (paper Sec. 5).
//!
//! The paper's executor keeps one contiguous GPU buffer per block type and
//! addresses blocks by (type, index), reusing indices whose blocks are no
//! longer needed. This module replays a device's instruction stream and
//! computes the peak number of live slots per type — with a free-list, so an
//! index freed by an earlier division is reused by a later fetch — plus the
//! resulting peak bytes.

use std::collections::HashMap;

use dcp_blocks::BatchLayout;
use serde::{Deserialize, Serialize};

use crate::plan::{CommOp, Instr, Payload, PayloadKind};

/// Peak buffer usage of one device stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BufferStats {
    /// Peak live remote-Q slots.
    pub q_slots: u32,
    /// Peak live remote-KV slots.
    pub kv_slots: u32,
    /// Peak live partial/gradient slots (PartialO/DO/PartialDq/PartialDkv).
    pub partial_slots: u32,
    /// Bytes of locally owned blocks resident for the whole phase.
    pub owned_bytes: u64,
    /// Peak bytes of fetched/partial slots (slot size x peak slots).
    pub fetched_bytes: u64,
}

impl BufferStats {
    /// Total peak bytes of the stream's buffers.
    pub fn peak_bytes(&self) -> u64 {
        self.owned_bytes + self.fetched_bytes
    }
}

/// A per-kind slot allocator with index reuse.
#[derive(Debug, Default)]
struct SlotPool {
    free: Vec<u32>,
    next: u32,
    peak: u32,
    live: HashMap<Payload, u32>,
}

impl SlotPool {
    fn alloc(&mut self, p: Payload) -> u32 {
        if let Some(&s) = self.live.get(&p) {
            return s; // Already resident (e.g. re-referenced payload).
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next;
            self.next += 1;
            s
        });
        self.live.insert(p, slot);
        self.peak = self.peak.max(self.next);
        slot
    }

    fn release(&mut self, p: &Payload) {
        if let Some(s) = self.live.remove(p) {
            self.free.push(s);
        }
    }
}

/// Replays `instrs` for device `device`, computing [`BufferStats`].
///
/// Fetched blocks become live at their `CommWait` and are released after the
/// last instruction that consumes them (attention for Q/KV/DO fetches,
/// reduction for partials). Owned blocks are counted as resident for the
/// whole phase.
pub fn compute_stats(
    layout: &BatchLayout,
    comms: &[CommOp],
    device: u32,
    instrs: &[Instr],
    owned_token_blocks: &[u32],
) -> BufferStats {
    // Last instruction index consuming each incoming payload.
    let mut last_use: HashMap<Payload, usize> = HashMap::new();
    // Incoming payloads by the CommWait instruction index that makes them
    // live.
    let mut arrivals: Vec<(usize, Payload)> = Vec::new();

    for (idx, ins) in instrs.iter().enumerate() {
        match ins {
            Instr::CommWait(cid) => {
                for t in &comms[cid.0 as usize].transfers {
                    if t.to == device {
                        arrivals.push((idx, t.payload));
                    }
                }
            }
            Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                for &c in items {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    for payload in [
                        Payload::Q(cb.q_block),
                        Payload::Kv(cb.kv_block),
                        Payload::DO(cb.q_block),
                    ] {
                        last_use.insert(payload, idx);
                    }
                }
            }
            Instr::Reduce { items, .. } => {
                for item in items {
                    for &src in &item.sources {
                        if let Some(payload) = Payload::partial(item.kind, item.target, src) {
                            last_use.insert(payload, idx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Sweep: allocate at arrival, release after last use.
    let mut pools: HashMap<PayloadKind, SlotPool> = HashMap::new();
    let mut releases: HashMap<usize, Vec<Payload>> = HashMap::new();
    for (arrive_idx, payload) in &arrivals {
        let release_idx = last_use.get(payload).copied().unwrap_or(*arrive_idx);
        releases.entry(release_idx).or_default().push(*payload);
        // Allocation happens during the sweep below; remember arrival order.
        let _ = arrive_idx;
    }
    let mut arrivals_by_idx: HashMap<usize, Vec<Payload>> = HashMap::new();
    for (idx, p) in arrivals {
        arrivals_by_idx.entry(idx).or_default().push(p);
    }
    for idx in 0..instrs.len() {
        if let Some(ps) = arrivals_by_idx.get(&idx) {
            for &p in ps {
                pools.entry(p.kind()).or_default().alloc(p);
            }
        }
        if let Some(ps) = releases.get(&idx) {
            for p in ps {
                if let Some(pool) = pools.get_mut(&p.kind()) {
                    pool.release(p);
                }
            }
        }
    }

    // Slot byte sizes: the maximum block size of the kind (uniform slots in
    // one contiguous buffer, as in the paper).
    let max_q = layout
        .token_blocks
        .iter()
        .map(|t| t.q_bytes)
        .max()
        .unwrap_or(0);
    let max_kv = layout
        .token_blocks
        .iter()
        .map(|t| t.kv_bytes)
        .max()
        .unwrap_or(0);
    let max_o = layout
        .token_blocks
        .iter()
        .map(|t| t.o_bytes)
        .max()
        .unwrap_or(0);

    let peak = |k: PayloadKind| pools.get(&k).map_or(0, |p| p.peak);
    let q_slots = peak(PayloadKind::Q);
    let kv_slots = peak(PayloadKind::Kv);
    let partial_slots = peak(PayloadKind::PartialO)
        + peak(PayloadKind::DO)
        + peak(PayloadKind::PartialDq)
        + peak(PayloadKind::PartialDkv);

    let owned_bytes: u64 = owned_token_blocks
        .iter()
        .map(|&t| layout.token_blocks[t as usize].total_bytes())
        .sum();
    let fetched_bytes = q_slots as u64 * max_q
        + kv_slots as u64 * max_kv
        + peak(PayloadKind::PartialO) as u64 * max_o
        + peak(PayloadKind::DO) as u64 * max_o
        + peak(PayloadKind::PartialDq) as u64 * max_q
        + peak(PayloadKind::PartialDkv) as u64 * max_kv;

    BufferStats {
        q_slots,
        kv_slots,
        partial_slots,
        owned_bytes,
        fetched_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommId, Transfer};
    use dcp_blocks::{BlockConfig, CompBlockId, TokenBlockId};
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout() -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(2048, MaskSpec::Causal)],
        )
        .unwrap()
    }

    #[test]
    fn slot_pool_reuses_freed_indices() {
        let mut pool = SlotPool::default();
        let a = pool.alloc(Payload::Q(TokenBlockId(0)));
        let b = pool.alloc(Payload::Q(TokenBlockId(1)));
        assert_ne!(a, b);
        pool.release(&Payload::Q(TokenBlockId(0)));
        let c = pool.alloc(Payload::Q(TokenBlockId(2)));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(pool.peak, 2);
    }

    #[test]
    fn sequential_fetch_use_release_keeps_peak_low() {
        let l = layout();
        // Device 1 fetches KV(0), uses it, then fetches KV(2), uses it.
        // Comp block ids: find comp with kv_block 0 and q_block 1 etc. For
        // simplicity use comp blocks 1 (q1,kv0) and 5 (q2... ) — look up.
        let find = |q: u32, kv: u32| {
            CompBlockId(
                l.comp_blocks
                    .iter()
                    .position(|c| c.q_block == TokenBlockId(q) && c.kv_block == TokenBlockId(kv))
                    .unwrap() as u32,
            )
        };
        let c10 = find(1, 0);
        let c21 = find(2, 1);
        let comms = vec![
            CommOp {
                transfers: vec![Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(0)),
                    bytes: 10,
                }],
            },
            CommOp {
                transfers: vec![Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(1)),
                    bytes: 10,
                }],
            },
        ];
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::Attn {
                items: vec![c10],
                flops: 1,
            },
            Instr::CommWait(CommId(1)),
            Instr::Attn {
                items: vec![c21],
                flops: 1,
            },
        ];
        let stats = compute_stats(&l, &comms, 1, &instrs, &[4 % l.token_blocks.len() as u32]);
        // KV(0) is released after instruction 1, before KV(1) arrives:
        // peak 1 slot... but note arrival at idx 2 comes after release at
        // idx 1, so the pool holds at most 1 live slot — yet peak counts
        // allocations high-water: expect 1.
        assert_eq!(stats.kv_slots, 1);
        assert_eq!(stats.q_slots, 0);
    }

    #[test]
    fn overlapping_fetches_need_two_slots() {
        let l = layout();
        let comms = vec![CommOp {
            transfers: vec![
                Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(0)),
                    bytes: 10,
                },
                Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(1)),
                    bytes: 10,
                },
            ],
        }];
        let c10 = CompBlockId(
            l.comp_blocks
                .iter()
                .position(|c| c.q_block == TokenBlockId(1) && c.kv_block == TokenBlockId(0))
                .unwrap() as u32,
        );
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::Attn {
                items: vec![c10],
                flops: 1,
            },
        ];
        let stats = compute_stats(&l, &comms, 1, &instrs, &[]);
        assert_eq!(stats.kv_slots, 2);
        assert_eq!(stats.owned_bytes, 0);
        assert!(stats.fetched_bytes > 0);
    }

    #[test]
    fn owned_bytes_counted() {
        let l = layout();
        let stats = compute_stats(&l, &[], 0, &[], &[0, 1]);
        let expect = l.token_blocks[0].total_bytes() + l.token_blocks[1].total_bytes();
        assert_eq!(stats.owned_bytes, expect);
        assert_eq!(stats.peak_bytes(), expect);
    }
}
