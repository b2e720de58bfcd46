//! Whole-stack host benchmark for the Tandem NPU simulator.
//!
//! One run drives every host path of the stack on one workload's models
//! and checks each result against the uncached reference path. The
//! phases take turns in rounds of [`ROUND_S`] seconds, each keeping to a
//! fixed share of the time, until `--seconds` have passed:
//!
//! | phase      | one operation                                                |
//! |------------|--------------------------------------------------------------|
//! | `setup`    | the run's set-up, built again                                |
//! | `run`      | every workload model through `Npu::run`                      |
//! | `uncached` | the same round through `Npu::uncached`                       |
//! | `sibling`  | the tuned model under a random autotuner schedule            |
//! | `verify`   | full-graph compilation of the round, widened verifier on     |
//! | `compile`  | the same compilation with the verifier off                   |
//! | `tune`     | a small autotuner search over the tuned model                |
//! | `serve`    | 20k open-loop Poisson requests on 4 NPUs at 1.2x capacity    |
//! | `hbm`      | the same on a shared-HBM budget of two members' demand       |
//! | `llm`      | 2k GPT-2 decode requests, continuous batching, 1.2x capacity |
//! | `preempt`  | the same with block-boundary preemption                      |
//!
//! Cold workloads give every operation fresh, empty simulator caches;
//! warm workloads fill the caches during set-up and share them.
//!
//! Before every round the run times a fixed kernel of its own (see
//! [`probe`]), and the end-to-end metrics are scaled by how fast the host
//! ran, so that a shared host's slow stretches do not move them.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload cnn_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object. With `--trace 0` it holds
//! the end-to-end metrics, measured with tracing off. With `--trace 1`
//! the run records host-time spans around the calls into each layer and
//! reports the per-layer metrics of [`LAYERS`] instead.

mod probe;
mod span;

use gemm_sim::{GemmUnit, GemmWorkload};
use span::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering, Partitioner};
use tandem_core::{Dram, Mode, TandemProcessor};
use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec, LlmWorkloadSpec};
use tandem_fleet::{
    ArrivalProcess, Catalog, Dispatch, Fleet, FleetConfig, FleetView, Policy, Request,
    SchedulerPolicy, SplitMix64, WorkloadSpec,
};
use tandem_model::{zoo, Graph, Node, OpKind};
use tandem_npu::{Npu, NpuConfig, NpuReport, NullSink};
use tandem_tune::{search_space, tune_in_space, Candidate, SearchSpace, TuneOptions};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Members of every serving fleet.
const FLEET: usize = 4;
/// Requests per whole-graph serving operation.
const SERVE_REQUESTS: usize = 20_000;
/// Requests per LLM serving operation.
const LLM_REQUESTS: usize = 2_000;
/// Fewest timed operations per phase, however long they take.
const MIN_OPS: usize = 5;
/// Seconds of one round in which every phase measures for its share.
const ROUND_S: f64 = 0.25;
/// Share of a phase's operations, those that ran while the host was
/// fastest, whose median its end-to-end metric reports.
const QUIET_SHARE: f64 = 0.25;

/// Per-layer metrics of a traced run, each read per operation of its
/// phase (the name up to the first dot); times get an `_ms` suffix. The
/// `run.*` times split `uncached_ms`, the cache counters explain `run_ms`
/// and `sibling_ms` cold against warm, and `tune.*`, `serve.*`, `hbm.*`,
/// `llm.*` and `preempt.*` split `tune_ms`, `serve_req_ns`,
/// `serve_hbm_req_ns`, `llm_token_ns` and `llm_preempt_token_ns`.
const LAYERS: [(&str, &str); 32] = [
    ("run.executor", "ms"),
    ("run.uncached", "ms"),
    ("run.partition", "ms"),
    ("run.compile", "ms"),
    ("run.verify", "ms"),
    ("run.tandem_sim", "ms"),
    ("run.gemm_model", "ms"),
    ("run.graph_hits", "count"),
    ("run.graph_misses", "count"),
    ("sibling.compile_hits", "count"),
    ("sibling.compile_misses", "count"),
    ("sibling.sim_hits", "count"),
    ("sibling.sim_misses", "count"),
    ("sibling.gemm_hits", "count"),
    ("sibling.gemm_misses", "count"),
    ("tune.space", "ms"),
    ("tune.gate", "ms"),
    ("tune.score", "ms"),
    ("tune.bookkeeping", "ms"),
    ("tune.evaluated", "count"),
    ("serve.tables", "ms"),
    ("serve.policy", "ms"),
    ("serve.engine", "ms"),
    ("serve.policy_calls", "count"),
    ("hbm.tables", "ms"),
    ("hbm.policy", "ms"),
    ("hbm.engine", "ms"),
    ("hbm.policy_calls", "count"),
    ("llm.tables", "ms"),
    ("llm.engine", "ms"),
    ("preempt.tables", "ms"),
    ("preempt.engine", "ms"),
];

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    });
    steady_heap();
    let s = Setup::new(args.transformer, args.warm, args.seed);
    let mut tr = Tracer::new(args.trace);
    let phases = Phases::measure(&s, &args, &mut tr);
    let metrics = if args.trace {
        layer_metrics(&tr)
    } else {
        phases.end_to_end()
    };
    phases.print(&metrics);
}

/// Stops glibc's allocator from handing freed heap back to the system
/// and from moving its mmap threshold. Whether it does so depends on how
/// fragmented the heap happens to be, which differs from run to run: the
/// set-ups and searches of a run then pay page faults for memory they
/// reuse, or do not, and their times move by up to a third between runs
/// of the same workload.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // 32 MiB is the largest mmap threshold glibc accepts on 64-bit hosts.
    // SAFETY: mallopt only sets allocator parameters and is called before
    // any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_heap() {}

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
struct Args {
    transformer: bool,
    warm: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (0, 10.0f64, false);
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let name = workload.ok_or("--workload is required")?;
        let (transformer, warm) = match name.as_str() {
            "cnn_cold" => (false, false),
            "cnn_warm" => (false, true),
            "transformer_cold" => (true, false),
            "transformer_warm" => (true, true),
            _ => return Err(format!("unknown workload {name}")),
        };
        Ok(Args {
            transformer,
            warm,
            seed,
            seconds,
            trace,
        })
    }
}

/// Everything a run builds before it measures. The `setup` phase builds
/// it again and again, so work moved out of the other phases into set-up
/// shows in `setup_s`.
struct Setup {
    /// Caches are filled here and shared by every operation; otherwise
    /// each operation starts from empty caches.
    warm: bool,
    /// The workload's models, in seed order.
    graphs: Vec<Graph>,
    /// Their `Npu::uncached` reports, which every run must reproduce.
    reference: Vec<NpuReport>,
    /// The model the sibling and tune phases search, and its reference.
    tuned: Graph,
    tuned_ref: NpuReport,
    space: SearchSpace,
    /// The cache hub warm operations share.
    hub: Npu,
    /// The serving fleet warm operations share.
    pool: Vec<Npu>,
    catalog: Catalog,
    /// Poisson rate offering 1.2x the fleet's solo-service capacity.
    rate_rps: f64,
    /// Shared-HBM budget sized for two members' mean bandwidth demand.
    hbm_gbps: f64,
    /// LLM arrival rate offering 1.2x the fleet's decode capacity.
    llm_rate_rps: f64,
}

impl Setup {
    fn new(transformer: bool, warm: bool, seed: u64) -> Setup {
        let (mut graphs, tuned) = if transformer {
            (
                vec![zoo::bert_base(128), zoo::gpt2(128)],
                zoo::bert_base(128),
            )
        } else {
            let cnns = vec![
                zoo::vgg16(),
                zoo::resnet50(),
                zoo::yolov3(),
                zoo::mobilenetv2(),
                zoo::efficientnet_b0(),
            ];
            (cnns, zoo::resnet50())
        };
        let mut rng = SplitMix64::new(seed);
        for i in (1..graphs.len()).rev() {
            graphs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let reference: Vec<NpuReport> = graphs
            .iter()
            .map(|g| Npu::uncached(NpuConfig::paper()).run(g))
            .collect();
        let tuned_ref = Npu::uncached(NpuConfig::paper()).run(&tuned);
        let hub = Npu::new(NpuConfig::paper());
        let space = search_space(&hub, &tuned);
        let mut catalog = Catalog::new();
        for g in &graphs {
            catalog.add(g.name.clone(), g.clone());
        }
        let pool = Npu::fleet(&vec![NpuConfig::paper(); FLEET]);
        let freq = NpuConfig::paper().tandem.freq_ghz;
        let n = reference.len() as f64;
        let mean_ns = reference
            .iter()
            .map(|r| r.total_cycles as f64 / freq)
            .sum::<f64>()
            / n;
        // Bytes per nanosecond are GB/s.
        let mean_gbps = reference
            .iter()
            .map(|r| {
                (r.tandem_dram_bytes + r.gemm_dram_bytes) as f64 * freq / r.total_cycles as f64
            })
            .sum::<f64>()
            / n;
        let tables = DecodeModel::build(&llm_model(), &pool);
        let llm_ns = tables.mean_request_ns(0, &llm_workload(0, 0.0));
        if warm {
            for g in graphs.iter().chain(std::iter::once(&tuned)) {
                hub.run(g);
            }
            for (i, site) in space.sites().iter().enumerate() {
                if space.weights()[i] > 0 {
                    for &choice in &site.candidates {
                        hub.sibling(schedule_cfg(&space.single(i, choice)))
                            .run(&tuned);
                    }
                }
            }
            for g in &graphs {
                pool[0].estimate_demand(g);
            }
        }
        Setup {
            warm,
            graphs,
            reference,
            tuned,
            tuned_ref,
            space,
            hub,
            pool,
            catalog,
            rate_rps: 1.2 * FLEET as f64 * 1e9 / mean_ns,
            hbm_gbps: 2.0 * mean_gbps,
            llm_rate_rps: 1.2 * FLEET as f64 * 1e9 / llm_ns,
        }
    }

    /// The NPU one operation runs on: a sibling of the warm hub, or a
    /// fresh NPU with empty caches.
    fn npu(&self, cfg: NpuConfig) -> Npu {
        if self.warm {
            self.hub.sibling(cfg)
        } else {
            Npu::new(cfg)
        }
    }

    /// The fleet members one serving operation runs on.
    fn pool(&self) -> Vec<Npu> {
        if self.warm {
            self.pool.clone()
        } else {
            Npu::fleet(&vec![NpuConfig::paper(); FLEET])
        }
    }
}

/// The executor configuration the autotuner scores `cand` under.
fn schedule_cfg(cand: &Candidate) -> NpuConfig {
    let mut cfg = NpuConfig::paper();
    cfg.verify = false;
    cfg.schedule = cand.schedule();
    cfg
}

/// GPT-2 with 16-token KV blocks up to a 64-token context.
fn llm_model() -> LlmModelSpec {
    LlmModelSpec::gpt2(16, 64)
}

/// `LLM_REQUESTS` GPT-2 requests, a quarter of them latency-critical.
fn llm_workload(seed: u64, rate_rps: f64) -> LlmWorkloadSpec {
    LlmWorkloadSpec {
        rate_rps,
        requests: LLM_REQUESTS,
        seed,
        prompt_tokens: (8, 24),
        output_tokens: (4, 32),
        latency_fraction: 0.25,
    }
}

/// Timed operations of one phase and the tally of their checks.
#[derive(Default)]
struct Samples {
    secs: Vec<f64>,
    /// The round each operation ran in.
    rounds: Vec<usize>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Nearest-rank quantile of `xs` (non-empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// One phase's operation. It returns the seconds of its own timed
/// section, which leaves out input generation and checks, and whether
/// its output checked out.
type Op<'a> = Box<dyn FnMut(&mut Tracer) -> (f64, bool) + 'a>;

/// Phases of a run.
const PHASES: usize = 11;

/// Every phase's samples.
struct Phases {
    setup: Samples,
    run: Samples,
    uncached: Samples,
    sibling: Samples,
    verify: Samples,
    compile: Samples,
    tune: Samples,
    /// Seconds per evaluated candidate of each timed search.
    tune_per_eval: Vec<f64>,
    serve: Samples,
    hbm: Samples,
    llm: Samples,
    preempt: Samples,
    /// Probe seconds at each round boundary: before every round and after
    /// the last.
    probes: Vec<f64>,
}

impl Phases {
    fn measure(s: &Setup, args: &Args, tr: &mut Tracer) -> Phases {
        let seed = args.seed;
        // One stream per phase, so a phase's inputs never depend on how
        // many operations an earlier phase fitted in.
        let stream = |k: u64| SplitMix64::new(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (mut sib, mut tun, mut srv, mut hbm, mut llm, mut pre) = (
            stream(1),
            stream(2),
            stream(3),
            stream(4),
            stream(5),
            stream(6),
        );
        let mut tune_per_eval = Vec::new();
        let mut probes = Vec::new();
        let mut samples: [Samples; PHASES] = Default::default();
        {
            // Each phase's share of the time, and its operation.
            let mut ops: [(f64, Op); PHASES] = [
                (0.07, Box::new(|_: &mut Tracer| setup_op(s, args))),
                (0.08, Box::new(|tr: &mut Tracer| run_op(s, tr))),
                (0.08, Box::new(|_: &mut Tracer| uncached_op(s))),
                (
                    0.10,
                    Box::new(|tr: &mut Tracer| sibling_op(s, &mut sib, tr)),
                ),
                (0.08, Box::new(|_: &mut Tracer| compile_op(s, true))),
                (0.05, Box::new(|_: &mut Tracer| compile_op(s, false))),
                (
                    0.26,
                    Box::new(|tr: &mut Tracer| tune_op(s, tun.next_u64(), tr, &mut tune_per_eval)),
                ),
                (
                    0.07,
                    Box::new(|tr: &mut Tracer| serve_op(s, false, srv.next_u64(), tr)),
                ),
                (
                    0.07,
                    Box::new(|tr: &mut Tracer| serve_op(s, true, hbm.next_u64(), tr)),
                ),
                (
                    0.07,
                    Box::new(|tr: &mut Tracer| llm_op(s, false, llm.next_u64(), tr)),
                ),
                (
                    0.07,
                    Box::new(|tr: &mut Tracer| llm_op(s, true, pre.next_u64(), tr)),
                ),
            ];
            // One untimed operation each settles lazy state.
            for ((_, op), smp) in ops.iter_mut().zip(&mut samples) {
                let (_, ok) = op(tr);
                smp.check(ok);
            }
            // Phases take turns in rounds of ROUND_S seconds, so a burst
            // of outside load on a shared host lands on every phase a
            // little instead of on one phase whole. In each round a phase
            // runs until it has had its share of the rounds so far; one
            // whose operation outlasts its share of a round sits out
            // rounds to keep to its share.
            let mut spent = [0.0f64; PHASES];
            let mut rounds = 0.0;
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < args.seconds
                || samples.iter().any(|smp| smp.secs.len() < MIN_OPS)
            {
                probes.push(probe::probe());
                let round = probes.len() - 1;
                rounds += 1.0;
                for (((share, op), smp), spent) in ops.iter_mut().zip(&mut samples).zip(&mut spent)
                {
                    while *spent < *share * rounds * ROUND_S {
                        let (took, (secs, ok)) = timed(|| op(tr));
                        *spent += took;
                        smp.secs.push(secs);
                        smp.rounds.push(round);
                        smp.check(ok);
                    }
                }
            }
            probes.push(probe::probe());
        }
        // The first search was the untimed warm-up.
        tune_per_eval.remove(0);
        let [setup, run, uncached, sibling, verify, compile, tune, serve, hbm, llm, preempt] =
            samples;
        Phases {
            setup,
            run,
            uncached,
            sibling,
            verify,
            compile,
            tune,
            tune_per_eval,
            serve,
            hbm,
            llm,
            preempt,
            probes,
        }
    }

    /// The median of `secs`, one per operation of `smp`, over the
    /// [`QUIET_SHARE`] of the operations that ran while the host was
    /// fastest, each scaled to the quiet host by [`probe::speed`].
    ///
    /// On a shared host, outside load slows the stack 1.5x to 2x, for
    /// stretches from a tenth of a second to longer than a run. The probes
    /// before and after an operation's round say how fast the host ran
    /// around it; they are a round apart and miss short stretches, so the
    /// slowest rounds' operations are left out rather than trusted to the
    /// scale. When the whole run was slowed, the quietest rounds are slow
    /// ones too, and the scale takes the slowdown out.
    fn quiet(&self, smp: &Samples, secs: &[f64]) -> f64 {
        let mut by_host: Vec<(f64, f64)> = smp
            .rounds
            .iter()
            .map(|&r| 0.5 * (self.probes[r] + self.probes[r + 1]))
            .zip(secs.iter().copied())
            .collect();
        by_host.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_host.truncate((QUIET_SHARE * by_host.len() as f64).ceil().max(1.0) as usize);
        let scaled: Vec<f64> = by_host
            .iter()
            .map(|&(host, t)| t * probe::speed(host))
            .collect();
        quantile(&scaled, 0.5)
    }

    /// Each metric is [`Phases::quiet`] of its phase. Tails are left out:
    /// the operations of `run`, `uncached`, `verify` and `compile` repeat
    /// the same work, so their tails would measure the host alone.
    fn end_to_end(&self) -> Vec<Metric> {
        let ms = |s: &Samples| self.quiet(s, &s.secs) * 1e3;
        let ns = |s: &Samples| self.quiet(s, &s.secs) * 1e9;
        vec![
            (
                "setup_s".into(),
                self.quiet(&self.setup, &self.setup.secs),
                "s",
            ),
            ("run_ms".into(), ms(&self.run), "ms"),
            ("uncached_ms".into(), ms(&self.uncached), "ms"),
            ("sibling_ms".into(), ms(&self.sibling), "ms"),
            ("verify_ms".into(), ms(&self.verify), "ms"),
            ("compile_ms".into(), ms(&self.compile), "ms"),
            ("tune_ms".into(), ms(&self.tune), "ms"),
            (
                "tune_eval_us".into(),
                self.quiet(&self.tune, &self.tune_per_eval) * 1e6,
                "us",
            ),
            ("serve_req_ns".into(), ns(&self.serve), "ns"),
            ("serve_hbm_req_ns".into(), ns(&self.hbm), "ns"),
            ("llm_token_ns".into(), ns(&self.llm), "ns"),
            ("llm_preempt_token_ns".into(), ns(&self.preempt), "ns"),
        ]
    }

    /// Prints a table to stderr and the result object as the last line
    /// of stdout.
    fn print(&self, metrics: &[Metric]) {
        let all = [
            &self.setup,
            &self.run,
            &self.uncached,
            &self.sibling,
            &self.verify,
            &self.compile,
            &self.tune,
            &self.serve,
            &self.hbm,
            &self.llm,
            &self.preempt,
        ];
        let attempted: u64 = all.iter().map(|s| s.attempted).sum();
        let failed: u64 = all.iter().map(|s| s.failed).sum();
        let mut fields = Vec::with_capacity(metrics.len());
        for (name, value, unit) in metrics {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            eprintln!("{name:>24} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        eprintln!("{attempted} operations, {failed} failed checks");
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            fields.join(", ")
        );
    }
}

fn layer_metrics(tr: &Tracer) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(key, unit)| match unit {
            "ms" => (format!("{key}_ms"), tr.per_op(key) * 1e3, unit),
            _ => (key.to_string(), tr.per_op(key), unit),
        })
        .collect()
}

/// One set-up, which must reproduce the run's reference reports.
fn setup_op(s: &Setup, args: &Args) -> (f64, bool) {
    let (secs, again) = timed(|| Setup::new(args.transformer, args.warm, args.seed));
    (
        secs,
        again.reference == s.reference && again.tuned_ref == s.tuned_ref,
    )
}

/// One round of the workload's models through `Npu::run`.
fn run_op(s: &Setup, tr: &mut Tracer) -> (f64, bool) {
    tr.op("run");
    let (secs, (reports, stats)) = timed(|| {
        tr.span("run.executor", |_| {
            let npu = s.npu(NpuConfig::paper());
            let before = npu.stats();
            let reports: Vec<NpuReport> = s.graphs.iter().map(|g| npu.run(g)).collect();
            (reports, npu.stats().delta(&before))
        })
    });
    tr.add("run.graph_hits", stats.graph_hits as f64);
    tr.add("run.graph_misses", stats.graph_misses as f64);
    if tr.on() {
        tr.span("run.uncached", |_| {
            let npu = Npu::uncached(NpuConfig::paper());
            for g in &s.graphs {
                black_box(npu.run(g));
            }
        });
        replay(&s.graphs, tr);
    }
    (secs, reports == s.reference)
}

/// The same round through `Npu::uncached`, which recompiles and
/// resimulates every node.
fn uncached_op(s: &Setup) -> (f64, bool) {
    let (secs, reports) = timed(|| {
        let npu = Npu::uncached(NpuConfig::paper());
        s.graphs.iter().map(|g| npu.run(g)).collect::<Vec<_>>()
    });
    (secs, reports == s.reference)
}

/// The tuned model under a random schedule, as the autotuner scores a
/// candidate; checked against an uncached run of the same schedule.
fn sibling_op(s: &Setup, rng: &mut SplitMix64, tr: &mut Tracer) -> (f64, bool) {
    tr.op("sibling");
    let cfg = schedule_cfg(&s.space.random(rng));
    let (secs, (report, stats)) = timed(|| {
        let npu = s.npu(cfg.clone());
        let before = npu.stats();
        let report = npu.run(&s.tuned);
        (report, npu.stats().delta(&before))
    });
    for (name, value) in [
        ("sibling.compile_hits", stats.compile_hits),
        ("sibling.compile_misses", stats.compile_misses),
        ("sibling.sim_hits", stats.sim_hits),
        ("sibling.sim_misses", stats.sim_misses),
        ("sibling.gemm_hits", stats.gemm_hits),
        ("sibling.gemm_misses", stats.gemm_misses),
    ] {
        tr.add(name, value as f64);
    }
    (secs, report == Npu::uncached(cfg).run(&s.tuned))
}

/// Full-graph compilation of the round, with the widened verifier on or
/// off.
fn compile_op(s: &Setup, verify: bool) -> (f64, bool) {
    let tandem = NpuConfig::paper().tandem;
    let lowering = OpLowering::new(tandem.lanes, tandem.interim_rows);
    let opts = CompileOptions {
        verify,
        verify_mode: VerifyMode::Widened,
        ..CompileOptions::default()
    };
    timed(|| {
        s.graphs
            .iter()
            .all(|g| black_box(schedule_graph_opts(&lowering, g, &opts)).is_ok())
    })
}

/// A small autotuner search over the tuned model.
fn tune_op(s: &Setup, seed: u64, tr: &mut Tracer, per_eval: &mut Vec<f64>) -> (f64, bool) {
    tr.op("tune");
    let opts = TuneOptions {
        seed,
        generations: 1,
        population: 4,
        beam: 2,
        jobs: 1,
        max_singles: 8,
        ..TuneOptions::default()
    };
    let (secs, (out, space_s)) = timed(|| {
        let hub = s.npu(NpuConfig::paper());
        if tr.on() {
            let (space_s, space) = timed(|| search_space(&hub, &s.tuned));
            (tune_in_space(&hub, &s.tuned, &space, &opts), space_s)
        } else {
            (tune_in_space(&hub, &s.tuned, &s.space, &opts), 0.0)
        }
    });
    tr.add("tune.space", space_s);
    tr.add("tune.gate", out.verify_wall_s);
    tr.add("tune.score", out.sim_wall_s);
    let rest = secs - space_s - out.verify_wall_s - out.sim_wall_s;
    tr.add("tune.bookkeeping", rest.max(0.0));
    tr.add("tune.evaluated", out.evaluated as f64);
    per_eval.push(secs / out.evaluated.max(1) as f64);
    let ok =
        out.baseline_cycles == s.tuned_ref.total_cycles && out.best_cycles <= out.baseline_cycles;
    (secs, ok)
}

/// A scheduler that times the calls the fleet engine makes into the
/// policy layer.
struct TimedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    secs: f64,
    calls: u64,
}

impl SchedulerPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn enqueue(&mut self, req: Request, view: &FleetView) {
        let t0 = Instant::now();
        self.inner.enqueue(req, view);
        self.secs += t0.elapsed().as_secs_f64();
        self.calls += 1;
    }

    fn dispatch(&mut self, npu: usize, now_ns: u64, view: &FleetView) -> Dispatch {
        let t0 = Instant::now();
        let d = self.inner.dispatch(npu, now_ns, view);
        self.secs += t0.elapsed().as_secs_f64();
        self.calls += 1;
        d
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// One whole-graph serving run over the workload's models, optionally on
/// the shared-HBM budget. The sample is host seconds per request.
fn serve_op(s: &Setup, hbm: bool, seed: u64, tr: &mut Tracer) -> (f64, bool) {
    let (phase, tables, policy, engine, calls) = if hbm {
        (
            "hbm",
            "hbm.tables",
            "hbm.policy",
            "hbm.engine",
            "hbm.policy_calls",
        )
    } else {
        (
            "serve",
            "serve.tables",
            "serve.policy",
            "serve.engine",
            "serve.policy_calls",
        )
    };
    tr.op(phase);
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), FLEET);
    cfg.retain_records = false;
    cfg.hbm_gbps = hbm.then_some(s.hbm_gbps);
    let spec = WorkloadSpec {
        mix: (0..s.catalog.len()).map(|m| (m, 1.0)).collect(),
        arrival: ArrivalProcess::Poisson {
            rate_rps: s.rate_rps,
        },
        seed,
        requests: SERVE_REQUESTS,
    };
    let (secs, report) = timed(|| {
        let fleet = Fleet::with_members(cfg, s.pool());
        if !tr.on() {
            return fleet.serve(&s.catalog, &spec, Policy::BatchCoalesce);
        }
        // Fill the service tables first, so the engine's own share holds
        // no simulation.
        tr.span(tables, |_| {
            for m in 0..s.catalog.len() {
                black_box(fleet.npus()[0].estimate_demand(s.catalog.graph(m)));
            }
        });
        let mut timed_policy = TimedPolicy {
            inner: Policy::BatchCoalesce.build(),
            secs: 0.0,
            calls: 0,
        };
        let (wall, report) =
            timed(|| fleet.serve_with(&s.catalog, &spec, &mut timed_policy, &mut NullSink));
        tr.add(policy, timed_policy.secs);
        tr.add(engine, wall - timed_policy.secs);
        tr.add(calls, timed_policy.calls as f64);
        report
    });
    let ok = report.offered == SERVE_REQUESTS as u64
        && report.completed > 0
        && report.completed + report.dropped + report.timed_out == report.offered;
    (secs / SERVE_REQUESTS as f64, ok)
}

/// LLM decode serving: decode tables built from the pool, then the
/// requests through continuous batching, with or without block-boundary
/// preemption. The sample is host seconds per decoded token.
fn llm_op(s: &Setup, preempt: bool, seed: u64, tr: &mut Tracer) -> (f64, bool) {
    let (phase, tables, engine, mode) = if preempt {
        (
            "preempt",
            "preempt.tables",
            "preempt.engine",
            LlmMode::Preemptive,
        )
    } else {
        ("llm", "llm.tables", "llm.engine", LlmMode::Continuous)
    };
    tr.op(phase);
    let requests = llm_workload(seed, s.llm_rate_rps).generate();
    let tokens: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), FLEET);
    cfg.retain_records = false;
    let (secs, report) = timed(|| {
        let tables = tr.span(tables, |_| DecodeModel::build(&llm_model(), &s.pool()));
        tr.span(engine, |_| {
            LlmFleet::new(LlmConfig::new(cfg, mode), &tables).serve(&requests)
        })
    });
    let ok = report.completed == LLM_REQUESTS as u64
        && report
            .llm
            .as_ref()
            .is_some_and(|l| l.tokens_out == tokens && l.preemptions == l.resumes);
    (secs / tokens as f64, ok)
}

/// Replays one round through each layer's own entry point, in the order
/// `Npu::run` calls them, so a traced run can time the layers apart.
fn replay(graphs: &[Graph], tr: &mut Tracer) {
    let cfg = NpuConfig::paper();
    let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
    let verifier = Verifier::new(VerifyConfig::from(&cfg.tandem).with_mode(VerifyMode::Widened));
    let gemm = GemmUnit::new(cfg.gemm.clone());
    let mut proc = TandemProcessor::with_mode(cfg.tandem.clone(), Mode::Performance);
    let mut dram = Dram::new(16);
    for g in graphs {
        let blocks = tr.span("run.partition", |_| Partitioner::new().partition(g));
        for block in &blocks {
            for &id in &block.non_gemm {
                let node = g.node(id);
                let Ok(op) = tr.span("run.compile", |_| lowering.lower_node(g, node)) else {
                    continue;
                };
                for (prog, _) in &op.tiles {
                    black_box(tr.span("run.verify", |_| verifier.verify(prog)));
                    black_box(tr.span("run.tandem_sim", |_| {
                        proc.run(prog, &mut dram)
                            .expect("a compiled tile program simulates")
                    }));
                }
            }
            if let Some(id) = block.gemm {
                let w = gemm_workload(g, g.node(id));
                let m_tile = gemm.max_tile_rows(w.n).min(w.m);
                black_box(tr.span("run.gemm_model", |_| {
                    (gemm.tile_report(w, m_tile), gemm.layer_report(w))
                }));
            }
        }
    }
}

/// The `M × K × N` GEMM of a GEMM-class node, mapped as the executor
/// maps it (the executor's mapping is private to `tandem-npu`).
fn gemm_workload(graph: &Graph, node: &Node) -> GemmWorkload {
    let out = &graph.tensor(node.outputs[0]).shape;
    let input = &graph.tensor(node.inputs[0]).shape;
    match node.kind {
        OpKind::Conv => GemmWorkload::from_conv(
            out.dim(2) as u64,
            out.dim(3) as u64,
            input.dim(1) as u64,
            out.dim(1) as u64,
            node.attrs.kernel as u64,
        ),
        OpKind::MatMul => {
            let n = out.dim(-1) as u64;
            GemmWorkload::new(out.elements() as u64 / n, input.dim(-1) as u64, n)
        }
        _ => GemmWorkload::new(out.dim(0) as u64, input.dim(-1) as u64, out.dim(-1) as u64),
    }
}
