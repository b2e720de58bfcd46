//! `FleetConfig::batch_marginal` must lie in `0.0..=1.0`. Outside it the
//! batch-scaling law's float-to-`u64` cast saturates: a negative or NaN
//! marginal made every batch member cost the solo time (batches were
//! free), and a huge one overflowed the service sum. Every fleet
//! constructor rejects such a value up front.

use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec};
use tandem_fleet::{Fleet, FleetConfig};
use tandem_model::{Graph, GraphBuilder};
use tandem_npu::{Npu, NpuConfig};

fn config(batch_marginal: f64) -> FleetConfig {
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 1);
    cfg.batch_marginal = batch_marginal;
    cfg
}

fn micro_graph(rows: usize) -> Graph {
    let mut b = GraphBuilder::new("micro", 2024);
    let x = b.input("x", [rows.max(1), 16]);
    let w = b.weight([16, 16]);
    let h = b.matmul(x, w);
    b.output(h);
    b.finish()
}

fn llm_fleet(batch_marginal: f64) {
    let spec = LlmModelSpec {
        name: "micro".to_string(),
        prefill: micro_graph,
        decode_step: micro_graph,
        block_tokens: 4,
        max_context: 8,
    };
    let tables = DecodeModel::build(&spec, &Npu::fleet(&[NpuConfig::paper()]));
    LlmFleet::new(
        LlmConfig::new(config(batch_marginal), LlmMode::Continuous),
        &tables,
    );
}

#[test]
fn the_closed_range_is_accepted() {
    for m in [0.0, 0.35, 1.0] {
        Fleet::new(config(m));
        llm_fleet(m);
    }
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn fleet_rejects_a_negative_marginal() {
    Fleet::new(config(-2.0));
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn fleet_rejects_a_nan_marginal() {
    Fleet::new(config(f64::NAN));
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn fleet_rejects_a_huge_marginal() {
    Fleet::new(config(1e300));
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn fleet_with_members_rejects_an_out_of_range_marginal() {
    Fleet::with_members(config(-2.0), Npu::fleet(&[NpuConfig::paper()]));
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn llm_fleet_rejects_a_negative_marginal() {
    llm_fleet(-2.0);
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn llm_fleet_rejects_a_nan_marginal() {
    llm_fleet(f64::NAN);
}

#[test]
#[should_panic(expected = "batch_marginal must lie in 0.0..=1.0")]
fn llm_fleet_rejects_a_huge_marginal() {
    llm_fleet(1e300);
}
