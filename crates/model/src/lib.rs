//! # tandem-model
//!
//! A DNN graph intermediate representation mirroring the ONNX-level view
//! that the Tandem Processor paper characterizes (§2, Table 1), plus the
//! **benchmark zoo**: hand-built operator graphs for the seven DNNs the
//! paper evaluates — VGG-16, ResNet-50, MobileNetV2, EfficientNet-B0,
//! YOLOv3, BERT-base, and GPT-2, all at batch size 1.
//!
//! The graphs are constructed op-by-op the way the models' ONNX exports
//! look for inference: batch-norm is folded into convolutions, LayerNorm is
//! decomposed into `ReduceMean / Sub / Pow / ReduceMean / Add / Sqrt / Div /
//! Mul / Add`, GELU into its `Erf`- or `Tanh`-based expansion, Swish into
//! `Sigmoid + Mul`, and attention into
//! `MatMul/Transpose/Reshape/Div/Add/Softmax` chains. This preserves the
//! operator-count statistics the paper reports in Figures 1–2 (across all
//! seven models only ~15% of nodes are GEMMs).
//!
//! ```
//! use tandem_model::zoo;
//! use tandem_model::OpClass;
//!
//! let bert = zoo::bert_base(128);
//! let stats = bert.stats();
//! // Transformers are dominated by non-GEMM nodes.
//! assert!(stats.class_count(OpClass::Gemm) * 4 < stats.total_nodes());
//! ```

#![warn(missing_docs)]

mod builder;
mod dot;
mod graph;
pub mod hash;
pub mod interp;
mod op;
mod roofline;
mod shape;
mod stats;
pub mod zoo;

pub use builder::GraphBuilder;
pub use graph::{Graph, GraphError, Name, Node, NodeId, Tensor, TensorId};
pub use op::{OpAttrs, OpClass, OpKind, Padding};
pub use roofline::{operator_roofline, RooflinePoint};
pub use shape::Shape;
pub use stats::{GraphStats, NodeCost};
