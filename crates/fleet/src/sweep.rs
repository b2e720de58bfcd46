//! Policy × fleet-size sweeps and the deterministic `SERVE.json`
//! rendering, shared by the `tandem_serve` binary and the test suite.

use crate::engine::{Fleet, FleetConfig};
use crate::policy::Policy;
use crate::report::FleetReport;
use crate::workload::{Catalog, WorkloadSpec};
use std::fmt::Write as _;
use tandem_npu::{par_map, Npu};

/// One sweep: every policy crossed with every fleet size (and,
/// optionally, every shared-HBM budget), all serving the same workload,
/// so rows are directly comparable.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Per-cell template: `npus[0]` is the homogeneous member
    /// configuration, replicated to each cell's fleet size; the serving
    /// knobs (queue bound, deadline, warm-up, batching) carry over
    /// verbatim.
    pub template: FleetConfig,
    /// Fleet sizes to evaluate.
    pub fleet_sizes: Vec<usize>,
    /// Policies to evaluate.
    pub policies: Vec<Policy>,
    /// Shared-HBM budgets to evaluate (`None` = unlimited). Empty (the
    /// common case) sweeps just the template's own `hbm_gbps`, which
    /// leaves the grid — and the rendered JSON — exactly as it was
    /// before the budget axis existed.
    pub hbm_budgets: Vec<Option<f64>>,
    /// The workload every cell serves.
    pub workload: WorkloadSpec,
}

impl SweepSpec {
    fn cell_config(&self, size: usize, hbm_gbps: Option<f64>) -> FleetConfig {
        let mut cfg = self.template.clone();
        cfg.npus = vec![self.template.npus[0].clone(); size];
        // Per-member links replicate with the members; the shared
        // budget is the cell's own axis value, one fixed stack per cell.
        cfg.bw_gbps = self.template.bw_gbps.as_ref().map(|v| vec![v[0]; size]);
        cfg.hbm_gbps = hbm_gbps;
        cfg
    }

    /// The budget axis actually swept: the explicit `hbm_budgets`, or
    /// the template's own budget when none were given.
    fn budget_axis(&self) -> Vec<Option<f64>> {
        if self.hbm_budgets.is_empty() {
            vec![self.template.hbm_gbps]
        } else {
            self.hbm_budgets.clone()
        }
    }
}

/// Runs the sweep on up to `jobs` worker threads (0 = one per core).
///
/// Rows come back in `(policy, fleet_size, budget)` row-major order
/// regardless of `jobs`, and every modeled number is independent of
/// host-cache state and thread interleaving — the caches change only
/// *how fast* answers arrive, never *what* they are — so the rendered
/// JSON is byte-identical across runs and `jobs` settings.
///
/// All cells draw their members from one pool built once with
/// [`Npu::fleet`], so the per-model cycle simulations behind the
/// service-time tables are paid once for the whole sweep, not once per
/// cell.
pub fn sweep(catalog: &Catalog, spec: &SweepSpec, jobs: usize) -> Vec<FleetReport> {
    assert!(
        !spec.fleet_sizes.is_empty() && !spec.policies.is_empty(),
        "a sweep needs at least one policy and one fleet size"
    );
    let max = *spec.fleet_sizes.iter().max().unwrap();
    assert!(max >= 1, "fleet sizes must be at least 1");
    let pool = Npu::fleet(&vec![spec.template.npus[0].clone(); max]);
    let budgets = spec.budget_axis();
    let mut cells: Vec<(Policy, usize, Option<f64>)> =
        Vec::with_capacity(spec.policies.len() * spec.fleet_sizes.len() * budgets.len());
    for &p in &spec.policies {
        for &s in &spec.fleet_sizes {
            for &b in &budgets {
                cells.push((p, s, b));
            }
        }
    }
    par_map(cells.len(), jobs, |i| {
        let (policy, size, budget) = cells[i];
        let fleet = Fleet::with_members(spec.cell_config(size, budget), pool[..size].to_vec());
        fleet.serve(catalog, &spec.workload, policy)
    })
}

/// A named sweep inside `SERVE.json` (e.g. `"mixed"`, `"bert_heavy"`).
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// JSON key of the scenario's row array.
    pub name: String,
    /// The sweep to run.
    pub spec: SweepSpec,
}

/// Runs every scenario and renders the full `SERVE.json` document: one
/// key per scenario, one row per sweep cell. Deterministic
/// byte-for-byte for fixed inputs — the property the determinism tests
/// pin down.
pub fn serve_json(catalog: &Catalog, scenarios: &[ServeScenario], jobs: usize) -> String {
    let sections: Vec<(String, Vec<FleetReport>)> = scenarios
        .iter()
        .map(|sc| (sc.name.clone(), sweep(catalog, &sc.spec, jobs)))
        .collect();
    render_serve_json(&sections)
}

/// Renders already-computed sweep rows as the `SERVE.json` document —
/// the single serialization path, so a binary that also prints a table
/// from the rows writes byte-identical JSON to [`serve_json`].
pub fn render_serve_json(sections: &[(String, Vec<FleetReport>)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, rows)) in sections.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  \"{name}\": [");
        for (j, r) in rows.iter().enumerate() {
            if j > 0 {
                out.push_str(",\n");
            }
            out.push_str("    ");
            out.push_str(&r.to_json());
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ArrivalProcess;
    use tandem_npu::NpuConfig;

    fn tiny_spec() -> (Catalog, SweepSpec) {
        let mut catalog = Catalog::new();
        catalog.add("MobileNetV2", tandem_model::zoo::mobilenetv2());
        let spec = SweepSpec {
            template: FleetConfig::homogeneous(NpuConfig::paper(), 1),
            fleet_sizes: vec![1, 2],
            policies: vec![Policy::Fifo, Policy::BatchCoalesce],
            hbm_budgets: Vec::new(),
            workload: WorkloadSpec {
                mix: vec![(0, 1.0)],
                arrival: ArrivalProcess::Poisson { rate_rps: 3_000.0 },
                seed: 11,
                requests: 24,
            },
        };
        (catalog, spec)
    }

    #[test]
    fn rows_come_back_in_policy_major_order() {
        let (catalog, spec) = tiny_spec();
        let rows = sweep(&catalog, &spec, 1);
        let shape: Vec<(String, usize)> = rows
            .iter()
            .map(|r| (r.policy.clone(), r.fleet_size))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("fifo".into(), 1),
                ("fifo".into(), 2),
                ("batch".into(), 1),
                ("batch".into(), 2),
            ]
        );
    }

    #[test]
    fn budget_axis_expands_the_grid_in_row_major_order() {
        let (catalog, mut spec) = tiny_spec();
        spec.policies = vec![Policy::Fifo];
        spec.hbm_budgets = vec![None, Some(4.0)];
        let rows = sweep(&catalog, &spec, 2);
        let shape: Vec<(usize, Option<f64>)> =
            rows.iter().map(|r| (r.fleet_size, r.hbm_gbps)).collect();
        assert_eq!(
            shape,
            vec![(1, None), (1, Some(4.0)), (2, None), (2, Some(4.0))]
        );
        // A finite budget can only stall, never speed up.
        assert!(rows[1].latency.mean_ns >= rows[0].latency.mean_ns);
        // And the budget grid is byte-deterministic across jobs too.
        let scenarios = [ServeScenario {
            name: "budgets".into(),
            spec,
        }];
        assert_eq!(
            serve_json(&catalog, &scenarios, 1),
            serve_json(&catalog, &scenarios, 3)
        );
    }

    #[test]
    fn json_is_byte_identical_across_jobs_settings() {
        let (catalog, spec) = tiny_spec();
        let scenarios = [ServeScenario {
            name: "tiny".into(),
            spec,
        }];
        let serial = serve_json(&catalog, &scenarios, 1);
        let parallel = serve_json(&catalog, &scenarios, 4);
        assert_eq!(serial, parallel);
        assert!(serial.starts_with("{\n  \"tiny\": [\n"));
        assert!(serial.ends_with("\n  ]\n}\n"));
    }
}
