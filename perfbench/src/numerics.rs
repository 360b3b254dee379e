//! Output checks for executed plans: a cheap completeness check on every
//! iteration and a comparison against the dense reference attention
//! (`dcp_exec::reference`) at the integration tests' tolerances.

use std::collections::HashMap;

use dcp_blocks::{BatchLayout, TokenBlockId};
use dcp_exec::executor::{BatchData, BlockGrads, BlockOut};
use dcp_exec::reference;

/// Largest allowed |O - O_ref|.
pub const O_TOL: f32 = 2e-4;
/// Largest allowed |dX - dX_ref| for dQ, dK and dV.
pub const GRAD_TOL: f32 = 2e-3;

pub type Outputs = HashMap<TokenBlockId, BlockOut>;
pub type Grads = HashMap<TokenBlockId, BlockGrads>;

/// Every token block has an output and gradients of the right size, and
/// no value is NaN or infinite.
pub fn check_complete(layout: &BatchLayout, out: &Outputs, grads: &Grads) -> Result<(), String> {
    let (qh, kvh) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    for (i, tb) in layout.token_blocks.iter().enumerate() {
        let id = TokenBlockId(i as u32);
        let len = tb.len as usize;
        let o = out.get(&id).ok_or(format!("block {i}: no output"))?;
        let g = grads.get(&id).ok_or(format!("block {i}: no gradients"))?;
        let sizes = [
            (o.o.len(), len * qh * dim),
            (o.lse.len(), len * qh),
            (g.dq.len(), len * qh * dim),
            (g.dk.len(), len * kvh * dim),
            (g.dv.len(), len * kvh * dim),
        ];
        if sizes.iter().any(|(got, want)| got != want) {
            return Err(format!("block {i}: wrong output sizes {sizes:?}"));
        }
        // A row with no allowed keys has an lse of -inf, so lse may only
        // not be NaN.
        let mut values = o.o.iter().chain(&g.dq).chain(&g.dk).chain(&g.dv);
        if values.any(|v| !v.is_finite()) || o.lse.iter().any(|v| v.is_nan()) {
            return Err(format!("block {i}: non-finite output"));
        }
    }
    Ok(())
}

/// Compares `out` and `grads` with the dense reference, sequence by
/// sequence. Returns the largest absolute error over O, dQ, dK and dV.
pub fn check_reference(
    layout: &BatchLayout,
    data: &BatchData,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
    out: &Outputs,
    grads: &Grads,
) -> Result<f32, String> {
    let (qh, kvh) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let hb = layout.config.head_blocks as usize;
    let (tq, tkv) = (qh * hb, kvh * hb);
    let mut max_err = 0.0f32;
    for seq in 0..layout.num_seqs() as u32 {
        let (q, k, v) = data.assemble_sequence(layout, seq);
        let len = layout.seq_lens[seq as usize] as usize;
        let mask = &layout.masks[seq as usize];
        let blocks: Vec<(usize, _)> = layout
            .token_blocks
            .iter()
            .enumerate()
            .filter(|(_, tb)| tb.seq == seq)
            .collect();
        let mut full_do = vec![0.0f32; len * tq * dim];
        for &(i, tb) in &blocks {
            let h0 = tb.head_block as usize * qh;
            let blk = &d_o[&TokenBlockId(i as u32)];
            for t in 0..tb.len as usize {
                for h in 0..qh {
                    let dst = ((tb.start as usize + t) * tq + h0 + h) * dim;
                    let src = (t * qh + h) * dim;
                    full_do[dst..dst + dim].copy_from_slice(&blk[src..src + dim]);
                }
            }
        }
        let (ro, rlse) = reference::attention(&q, &k, &v, len, tq, tkv, dim, mask);
        let (rdq, rdk, rdv) =
            reference::attention_bwd(&q, &k, &v, &ro, &rlse, &full_do, len, tq, tkv, dim, mask);

        for &(i, tb) in &blocks {
            let id = TokenBlockId(i as u32);
            let (o, g) = (&out[&id].o, &grads[&id]);
            let (h0q, h0kv) = (tb.head_block as usize * qh, tb.head_block as usize * kvh);
            for t in 0..tb.len as usize {
                let abs = tb.start as usize + t;
                let rows = [
                    (o, &ro, qh, tq, h0q, O_TOL, "O"),
                    (&g.dq, &rdq, qh, tq, h0q, GRAD_TOL, "dQ"),
                    (&g.dk, &rdk, kvh, tkv, h0kv, GRAD_TOL, "dK"),
                    (&g.dv, &rdv, kvh, tkv, h0kv, GRAD_TOL, "dV"),
                ];
                for (got, want, heads, total, h0, tol, what) in rows {
                    let got = &got[t * heads * dim..(t + 1) * heads * dim];
                    let at = (abs * total + h0) * dim;
                    let want = &want[at..at + heads * dim];
                    for (a, b) in got.iter().zip(want) {
                        let err = (a - b).abs();
                        if err.is_nan() || err >= tol {
                            return Err(format!(
                                "{what} differs from the reference by {err} \
                                 (seq {seq}, block {i}, token {abs})"
                            ));
                        }
                        max_err = max_err.max(err);
                    }
                }
            }
        }
    }
    Ok(max_err)
}
