//! The four workloads: their scenario definitions, how one repetition
//! runs, and the outputs every repetition is checked on.

use std::time::Instant;

use facs::FacsConfig;
use facs_bench::experiments::{base_scenario, fig10_scenario, request_counts, stress_scenario};
use facs_cellsim::prelude::*;
use facs_cellsim::{offered_load_fraction, MetricsSink, TraceDigest};

use crate::json::Obj;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 127-cell stress grid at per-cell offered load ≈ 1, one shard.
    Nominal,
    /// The same inputs on two shards driven by two workers.
    NominalTwoShard,
    /// The same grid at per-cell offered load ≈ 40.
    Overload,
    /// The Fig. 7 speed sweep and the Fig. 10 FACS-vs-SCC sweep on the
    /// exact Mamdani backend.
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Nominal, Workload::NominalTwoShard, Workload::Overload, Workload::PaperSweep];

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Nominal => "nominal",
            Workload::NominalTwoShard => "nominal-2shard",
            Workload::Overload => "overload",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    #[must_use]
    pub fn is_kernel(self) -> bool {
        self != Workload::PaperSweep
    }

    /// Threads the workload runs on: the shard workers, or the sweep
    /// runner's cap (one per core).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Workload::Nominal | Workload::Overload => 1,
            Workload::NominalTwoShard => 2,
            Workload::PaperSweep => crate::sys::nproc(),
        }
    }

    /// The FACS configuration the workload's controllers run.
    #[must_use]
    pub fn facs_config(self) -> FacsConfig {
        if self.is_kernel() {
            FacsConfig::compiled()
        } else {
            FacsConfig::default()
        }
    }

    /// The workload whose outputs must equal this one's exactly.
    #[must_use]
    pub fn peer(self) -> Option<Self> {
        match self {
            Workload::Nominal => Some(Workload::NominalTwoShard),
            Workload::NominalTwoShard => Some(Workload::Nominal),
            _ => None,
        }
    }
}

/// Problem size. `FULL` is what the benchmark measures; tests shrink
/// every workload by a divisor while keeping its offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub divisor: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { divisor: 1 };
}

/// Users and arrival window of the kernel workloads. The ratio sets the
/// per-cell offered load: 1M users over 24,000 s is ρ ≈ 1.0 on the
/// 127-cell grid, 1M over 600 s is ρ ≈ 40.7. The sizes keep one
/// repetition near half a second to a second, so a run takes the median
/// of many.
const NOMINAL_USERS: usize = 250_000;
const NOMINAL_WINDOW_S: f64 = 6_000.0;
const OVERLOAD_USERS: usize = 1_500_000;
const OVERLOAD_WINDOW_S: f64 = 900.0;

/// Replications per sweep point of the paper workload.
const SWEEP_REPLICATIONS: u32 = 4;

/// The kernel workload's scenario: the repository's stress scenario with
/// users and window scaled, streamed synthesis, compiled FACS.
#[must_use]
pub fn kernel_config(workload: Workload, seed: u64, scale: Scale) -> ScenarioConfig {
    let (users, window_s) = match workload {
        Workload::Nominal | Workload::NominalTwoShard => (NOMINAL_USERS, NOMINAL_WINDOW_S),
        Workload::Overload => (OVERLOAD_USERS, OVERLOAD_WINDOW_S),
        Workload::PaperSweep => panic!("paper-sweep is not a kernel workload"),
    };
    let shards = workload.workers();
    ScenarioConfig {
        window_s: window_s / scale.divisor as f64,
        workers: shards,
        seed,
        streamed: true,
        ..stress_scenario(users / scale.divisor, shards)
    }
}

/// Per-cell offered load of a scenario.
#[must_use]
pub fn per_cell_load(config: &ScenarioConfig) -> f64 {
    offered_load_fraction(config) / config.grid().len() as f64
}

/// A kernel repetition after set-up: the simulation and its workload
/// stream, ready to run.
pub struct KernelRun {
    sim: Simulation,
    stream: WorkloadStream,
}

/// Builds a kernel repetition: controllers, grid, simulation, stream.
/// `wrap` sees every controller before the simulation takes it.
pub fn open_kernel(
    config: &ScenarioConfig,
    build: &ControllerBuilder,
    wrap: &dyn Fn(facs_cac::BoxedController) -> facs_cac::BoxedController,
) -> KernelRun {
    let grid = config.grid();
    let controllers = build(&grid).into_iter().map(wrap).collect();
    let sim = Simulation::new(grid, config.sim_config(config.seed), controllers);
    KernelRun { sim, stream: config.stream_workload(config.seed) }
}

impl KernelRun {
    /// Runs to completion; returns the sink and the host seconds taken.
    pub fn run<S: MetricsSink>(mut self, sink: S) -> (S, f64) {
        let start = Instant::now();
        let sink = self.sim.run_streamed_with(self.stream, sink);
        (sink, start.elapsed().as_secs_f64())
    }
}

/// Which controller family a sweep curve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Facs,
    Scc,
}

/// One curve of the paper sweep: a label, its x-axis and one scenario
/// per x.
#[derive(Debug, Clone)]
pub struct Curve {
    pub label: String,
    pub policy: Policy,
    pub xs: Vec<usize>,
    pub configs: Vec<ScenarioConfig>,
}

impl Curve {
    /// Every `(point, replication seed)` job, in the runner's order.
    #[must_use]
    pub fn jobs(&self) -> Vec<(usize, u64)> {
        self.configs
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.replication_seeds().map(move |seed| (i, seed)))
            .collect()
    }
}

/// The Fig. 7 speed sweep (four speeds) and the Fig. 10 7-cell sweep
/// (FACS and SCC), with the replication seeds rooted at `seed`. The
/// configurations are those of `facs_bench::experiments::{fig7_speed,
/// fig10_facs_vs_scc}`.
#[must_use]
pub fn sweep_plan(seed: u64, scale: Scale) -> Vec<Curve> {
    if scale == Scale::FULL {
        plan_with(seed, SWEEP_REPLICATIONS, 1)
    } else {
        plan_with(seed, 1, 5)
    }
}

/// The sweep with `replications` per point, on every `xs_step`-th x.
#[must_use]
pub fn plan_with(seed: u64, replications: u32, xs_step: usize) -> Vec<Curve> {
    let xs: Vec<usize> = request_counts().into_iter().step_by(xs_step).collect();
    let curve = |label: String, policy, configure: &dyn Fn(usize) -> ScenarioConfig| Curve {
        label,
        policy,
        xs: xs.clone(),
        configs: xs.iter().map(|&n| configure(n)).collect(),
    };
    let mut plan: Vec<Curve> = [4.0, 10.0, 30.0, 60.0]
        .iter()
        .map(|&speed| {
            curve(format!("{speed:.0}km/h"), Policy::Facs, &|n| ScenarioConfig {
                speed: SpeedSpec::Fixed(speed),
                angle: AngleSpec::HeadingHistory { history_s: 300.0 },
                replications,
                seed,
                ..base_scenario(n)
            })
        })
        .collect();
    for (label, policy) in [("FACS", Policy::Facs), ("SCC", Policy::Scc)] {
        plan.push(curve(label.to_string(), policy, &|n| ScenarioConfig {
            replications,
            seed,
            ..fig10_scenario(n)
        }));
    }
    plan
}

/// Runs every curve through the public parallel runner
/// (`acceptance_curve`).
pub fn run_sweep(plan: &[Curve], facs: &ControllerBuilder, scc: &ControllerBuilder) -> Vec<Series> {
    plan.iter()
        .map(|curve| {
            let build = match curve.policy {
                Policy::Facs => facs,
                Policy::Scc => scc,
            };
            let configure = |n: usize| {
                let i = curve.xs.iter().position(|&x| x == n).expect("x on the curve");
                curve.configs[i].clone()
            };
            acceptance_curve(&curve.label, &curve.xs, configure, build)
        })
        .collect()
}

/// Runs one curve's jobs as `ScenarioConfig::run_once` does, but into a
/// fork of `sink`, on up to one thread per core. Results come back in
/// job order.
pub fn run_curve_jobs<S: MetricsSink + Sync>(
    curve: &Curve,
    build: &ControllerBuilder,
    sink: &S,
) -> Vec<S> {
    let jobs = curve.jobs();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let run_job = |&(i, seed): &(usize, u64)| {
        let config = &curve.configs[i];
        let grid = config.grid();
        let controllers = build(&grid);
        let mut sim = Simulation::new(grid, config.sim_config(seed), controllers);
        sim.run_with(config.generate_workload(seed), sink.fork())
    };
    let mut done: Vec<(usize, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crate::sys::nproc().min(jobs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        out.push((i, run_job(job)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep job panicked")).collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, s)| s).collect()
}

/// Folds per-job acceptance into a curve's series exactly as
/// `acceptance_curve` does (replication order, then divide).
#[must_use]
pub fn fold_series(curve: &Curve, per_job: &[Metrics]) -> Series {
    let mut series = Series::new(curve.label.clone());
    let mut cursor = 0;
    for (&n, config) in curve.xs.iter().zip(&curve.configs) {
        let reps = config.replication_seeds().len();
        let mut total = 0.0;
        for m in &per_job[cursor..cursor + reps] {
            total += m.acceptance_percentage();
        }
        cursor += reps;
        series.push(n as f64, total / reps as f64);
    }
    series
}

/// The simulated outputs of one repetition, which every check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Counters summed over the repetition (every job of a sweep).
    pub metrics: Metrics,
    /// Order-insensitive digest of every event of the repetition.
    pub digest: TraceDigest,
    /// The sweep's curves; empty for kernel workloads.
    pub series: Vec<Series>,
}

impl Outputs {
    /// A 64-bit FNV-1a hash over every counter, the digest and every
    /// curve point, bit for bit.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut text = format!("{:?}|{}", self.metrics, self.digest.hex());
        for s in &self.series {
            for (x, y) in &s.points {
                text.push_str(&format!("|{}:{:016x}", x, y.to_bits()));
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Admission decisions: new calls plus handoffs.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.metrics.offered_new + self.metrics.handoff_attempts
    }

    /// The checked regime values reported beside the metrics.
    #[must_use]
    pub fn regime(&self, loads: (f64, f64)) -> String {
        let m = &self.metrics;
        Obj::new()
            .num("rho_per_cell_min", loads.0)
            .num("rho_per_cell_max", loads.1)
            .num("acceptance_pct", m.acceptance_percentage())
            .num("dropping_pct", m.dropping_percentage())
            .int("arrivals", m.offered_new)
            .int("handoffs", m.handoff_attempts)
            .int("completions", m.completed)
            .int("exits", m.exited_coverage)
            .int("mobility_steps", m.mobility_steps)
            .int("events", m.total_events())
            .int("decisions", self.decisions())
            .render()
    }
}

/// Range of per-cell offered load over a workload's scenarios.
#[must_use]
pub fn load_range(workload: Workload, seed: u64, scale: Scale) -> (f64, f64) {
    let loads: Vec<f64> = if workload.is_kernel() {
        vec![per_cell_load(&kernel_config(workload, seed, scale))]
    } else {
        sweep_plan(seed, scale).iter().flat_map(|c| c.configs.iter().map(per_cell_load)).collect()
    };
    let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
    let max = loads.iter().copied().fold(0.0, f64::max);
    (min, max)
}

/// Sums per-job sinks into one set of outputs.
pub fn sum_outputs(per_job: impl IntoIterator<Item = (Metrics, TraceDigest)>) -> Outputs {
    let mut total = (Metrics::new(), TraceDigest::new());
    for (m, d) in per_job {
        total.0.merge(&m);
        total.1.absorb(d);
    }
    Outputs { metrics: total.0, digest: total.1, series: Vec::new() }
}
