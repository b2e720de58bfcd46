//! A LLaMA-style decoder — an *extension* beyond the paper's seven-model
//! suite (its conclusion positions the Tandem Processor as the heart of
//! GeneSys's "accelerated execution of LLMs"). The block structure brings
//! the post-2022 non-GEMM operator mix: RMSNorm (Pow/ReduceMean/Sqrt/Div
//! without mean subtraction), rotary position embeddings (element-wise
//! Mul/Sub/Add against precomputed sin/cos tables), SiLU (Sigmoid·Mul),
//! and the gated SwiGLU FFN.
//!
//! Not part of the paper's figures; used by the `llm` extension of the
//! experiment registry (`tandem figure llm`) and the extension tests.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, TensorId};

const HIDDEN: usize = 512;
const HEADS: usize = 8;
const LAYERS: usize = 8;
const FFN: usize = 1408; // ~8/3 · hidden, SwiGLU-sized
const VOCAB: usize = 32000;

/// RMSNorm as ONNX exports emit it (no mean subtraction):
/// `y = x / sqrt(mean(x²) + eps) * gamma`.
fn rms_norm(b: &mut GraphBuilder, x: TensorId) -> TensorId {
    let hidden = b.shape(x).dim(-1);
    let sq = b.pow_const(x, 2.0);
    let ms = b.reduce_mean(sq, -1);
    let ms_eps = b.add_const(ms, crate::shape::Shape::scalar());
    let rms = b.sqrt(ms_eps);
    let norm = b.div(x, rms);
    b.mul_const(norm, [hidden])
}

/// Rotary position embedding on a `[1, heads, seq, dh]` tensor:
/// `x·cos + rotate_half(x)·sin`, with the tables precomputed constants and
/// the rotation expressed as two slices and a concat (the ONNX pattern).
fn rope(b: &mut GraphBuilder, x: TensorId, seq: usize, dh: usize) -> TensorId {
    let cos = b.weight([1, 1, seq, dh]);
    let sin = b.weight([1, 1, seq, dh]);
    let x1 = b.slice(x, -1, 0, dh / 2);
    let x2 = b.slice(x, -1, dh / 2, dh / 2);
    let neg_x2 = b.mul_const(x2, crate::shape::Shape::scalar());
    let rotated = b.concat(&[neg_x2, x1], -1);
    let xc = b.mul(x, cos);
    let rs = b.mul(rotated, sin);
    b.add(xc, rs)
}

fn linear(b: &mut GraphBuilder, x: TensorId, out: usize) -> TensorId {
    b.linear(x, out) // LLaMA projections carry no bias
}

fn decoder_layer(b: &mut GraphBuilder, x: TensorId, seq: usize, causal: TensorId) -> TensorId {
    let dh = HIDDEN / HEADS;
    // --- attention with RoPE (pre-RMSNorm) ---
    let ln = rms_norm(b, x);
    let q = linear(b, ln, HIDDEN);
    let k = linear(b, ln, HIDDEN);
    let v = linear(b, ln, HIDDEN);
    let qh0 = {
        let r = b.reshape(q, [1, seq, HEADS, dh]);
        b.transpose(r, &[0, 2, 1, 3])
    };
    let kh0 = {
        let r = b.reshape(k, [1, seq, HEADS, dh]);
        b.transpose(r, &[0, 2, 1, 3])
    };
    let vh = {
        let r = b.reshape(v, [1, seq, HEADS, dh]);
        b.transpose(r, &[0, 2, 1, 3])
    };
    let qh = rope(b, qh0, seq, dh);
    let kh = rope(b, kh0, seq, dh);
    let kt = b.transpose(kh, &[0, 1, 3, 2]);
    let scores = b.matmul(qh, kt);
    let scaled = b.div_const(scores);
    let neg = b.weight(crate::shape::Shape::scalar());
    let masked = b.where_op(causal, scaled, neg);
    let probs = b.softmax(masked, -1);
    let ctx = b.matmul(probs, vh);
    let merged_t = b.transpose(ctx, &[0, 2, 1, 3]);
    let merged = b.reshape(merged_t, [1, seq, HIDDEN]);
    let attn_out = linear(b, merged, HIDDEN);
    let res1 = b.add(attn_out, x);

    // --- SwiGLU FFN (pre-RMSNorm): (silu(W1 x) ⊙ W3 x) W2 ---
    let ln2 = rms_norm(b, res1);
    let gate = linear(b, ln2, FFN);
    let silu = b.swish(gate);
    let up = linear(b, ln2, FFN);
    let gated = b.mul(silu, up);
    let down = linear(b, gated, HIDDEN);
    b.add(down, res1)
}

/// Builds the LLaMA-style extension decoder (8 layers, hidden 512) at the
/// given sequence length (batch 1), producing next-token logits.
pub fn llama_tiny(seq: usize) -> Graph {
    let mut b = GraphBuilder::new("llama_tiny", 2023);
    let ids = b.input("input_ids", [seq]);
    let wte = b.weight([VOCAB, HIDDEN]);
    let tok = b.gather(wte, ids);
    let mut h = b.reshape(tok, [1, seq, HIDDEN]);
    let causal = b.weight([1, 1, seq, seq]);
    for _ in 0..LAYERS {
        h = decoder_layer(&mut b, h, seq, causal);
    }
    let ln_f = rms_norm(&mut b, h);
    let lm_w = b.weight([HIDDEN, VOCAB]);
    let logits = b.matmul(ln_f, lm_w);
    b.output(logits);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn structure() {
        let g = llama_tiny(64);
        g.validate().unwrap();
        let s = g.stats();
        // 7 projections (q,k,v,o + gate,up,down) + 2 attention matmuls
        // per layer + the LM head.
        assert_eq!(s.kind_count(OpKind::MatMul), LAYERS * 9 + 1);
        assert_eq!(s.kind_count(OpKind::Softmax), LAYERS);
        // RMSNorm: 2 per layer + final — one ReduceMean each (no mean
        // subtraction, unlike LayerNorm).
        assert_eq!(s.kind_count(OpKind::ReduceMean), LAYERS * 2 + 1);
        // RoPE: 2 per layer, each with 2 slices + 1 concat.
        assert_eq!(s.kind_count(OpKind::Slice), LAYERS * 4);
        assert_eq!(s.kind_count(OpKind::Concat), LAYERS * 2);
        // SiLU = Sigmoid + Mul per layer.
        assert_eq!(s.kind_count(OpKind::Sigmoid), LAYERS);
        assert!(s.gemm_node_fraction() < 0.25);
    }

    #[test]
    fn no_layernorm_mean_subtraction() {
        // RMSNorm has no Sub nodes in its normalization path; the only
        // Subs would come from elsewhere (there are none in this model).
        let g = llama_tiny(32);
        assert_eq!(g.stats().kind_count(OpKind::Sub), 0);
    }
}
