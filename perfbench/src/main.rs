//! `facsbench` — the benchmark's measuring process.
//!
//! ```text
//! facsbench worker --workload <name> --seed <n> --budget <s> [--check]
//! facsbench trace  --workload <name> --seed <n> --budget <s>
//! facsbench setup  --workload <name> --seed <n>
//! ```
//!
//! `worker` sets the workload up once (timed), then repeats it untraced
//! until `--budget` seconds of runs have passed, and prints one JSON line
//! with every repetition's host seconds, CPU seconds, host steal seconds
//! and output fingerprint, and a calibration sample taken after each.
//! `--check` adds the run's correctness extras: the peer workload's
//! outputs (nominal ↔ nominal-2shard) and, for the paper sweep, every
//! job's counters and trace digest.
//!
//! `setup` only sets the workload up, timed as `worker` does, and prints
//! `setup_s`, its steal and calibration samples: the compiled surfaces
//! are cached per process, so each further set-up sample of a kernel
//! workload needs a fresh process.
//!
//! `trace` alternates untraced and traced repetitions for `--budget`
//! seconds, then runs the standalone layer passes, and prints one JSON
//! line with the per-layer metrics and the reconciliation report.
//! `run.py` drives both and owns the medians and the checks.

mod calib;
mod json;
mod layers;
mod sys;
mod trace;
mod workloads;

use std::time::Instant;

use facs::FacsController;
use facs_bench::experiments::{facs_builder, scc_builder};
use facs_cac::BoxedController;
use facs_cellsim::prelude::*;
use facs_cellsim::{Metrics, TraceDigest};
use facs_scc::SccConfig;

use json::Obj;
use trace::{Collector, CoreTotals, Op, TimedController, TimingSink};
use workloads::{
    fold_series, kernel_config, load_range, open_kernel, run_curve_jobs, run_sweep, sum_outputs,
    sweep_plan, Outputs, Policy, Scale, Workload,
};

type Builder = std::sync::Arc<dyn Fn(&HexGrid) -> Vec<BoxedController> + Send + Sync>;

/// The workload's controller builders, built here: on the compiled
/// backend this is where the decision surfaces are compiled.
struct Builders {
    facs: Builder,
    scc: Builder,
}

impl Builders {
    fn new(workload: Workload) -> Self {
        Self {
            facs: std::sync::Arc::new(facs_builder(workload.facs_config())),
            scc: std::sync::Arc::new(scc_builder(SccConfig::default())),
        }
    }

    /// The FACS builder with every controller wrapped for tracing.
    fn traced_facs(&self, collector: &Collector) -> Builder {
        let (facs, collector) = (self.facs.clone(), collector.clone());
        std::sync::Arc::new(move |grid: &HexGrid| {
            facs(grid).into_iter().map(|c| TimedController::wrap(c, &collector)).collect()
        })
    }
}

fn no_wrap(c: BoxedController) -> BoxedController {
    c
}

/// One untraced repetition: host seconds, CPU seconds, seconds the
/// hypervisor stole from the virtual CPUs meanwhile, peak RSS, outputs.
struct Rep {
    run_s: f64,
    cpu_s: f64,
    steal_s: f64,
    peak_rss_mb: f64,
    outputs: Outputs,
}

fn untraced_rep(workload: Workload, seed: u64, scale: Scale, builders: &Builders) -> Rep {
    sys::reset_peak_rss();
    let mut rep = untraced_run(workload, seed, scale, builders);
    let peak = facs_bench::experiments::peak_rss_bytes().expect("VmHWM in /proc/self/status");
    rep.peak_rss_mb = peak as f64 / (1024.0 * 1024.0);
    rep
}

fn untraced_run(workload: Workload, seed: u64, scale: Scale, builders: &Builders) -> Rep {
    if workload.is_kernel() {
        let config = kernel_config(workload, seed, scale);
        let run = open_kernel(&config, &*builders.facs, &no_wrap);
        let (cpu, steal) = (sys::process_cpu(), sys::host_steal_s());
        let ((metrics, digest), run_s) = run.run((Metrics::new(), TraceDigest::new()));
        let cpu_s = (sys::process_cpu() - cpu).as_secs_f64();
        let steal_s = sys::host_steal_s() - steal;
        let outputs = Outputs { metrics, digest, series: Vec::new() };
        Rep { run_s, cpu_s, steal_s, peak_rss_mb: 0.0, outputs }
    } else {
        let plan = sweep_plan(seed, scale);
        let (cpu, steal) = (sys::process_cpu(), sys::host_steal_s());
        let start = Instant::now();
        let series = run_sweep(&plan, &*builders.facs, &*builders.scc);
        let run_s = start.elapsed().as_secs_f64();
        let cpu_s = (sys::process_cpu() - cpu).as_secs_f64();
        Rep {
            run_s,
            cpu_s,
            steal_s: sys::host_steal_s() - steal,
            peak_rss_mb: 0.0,
            outputs: Outputs { metrics: Metrics::new(), digest: TraceDigest::new(), series },
        }
    }
}

/// Every sweep job rerun into `sink` forks: the counters and digest the
/// sweep's runner does not return. Fails unless the folded acceptance
/// equals `series` bit for bit.
fn sweep_jobs<S: facs_cellsim::MetricsSink + Sync>(
    seed: u64,
    scale: Scale,
    builders: &Builders,
    series: &[Series],
    sink: &S,
    split: impl Fn(&S) -> (Metrics, TraceDigest),
) -> (Outputs, Vec<S>, bool) {
    let plan = sweep_plan(seed, scale);
    let mut per_job_all = Vec::new();
    let mut sinks = Vec::new();
    let mut folds_match = plan.len() == series.len();
    for (curve, expected) in plan.iter().zip(series) {
        let build: &ControllerBuilder = match curve.policy {
            Policy::Facs => &*builders.facs,
            Policy::Scc => &*builders.scc,
        };
        let per_job = run_curve_jobs(curve, build, sink);
        let pairs: Vec<(Metrics, TraceDigest)> = per_job.iter().map(&split).collect();
        let metrics: Vec<Metrics> = pairs.iter().map(|p| p.0.clone()).collect();
        folds_match &= fold_series(curve, &metrics).points == expected.points;
        per_job_all.extend(pairs);
        sinks.extend(per_job);
    }
    let mut outputs = sum_outputs(per_job_all);
    outputs.series = series.to_vec();
    (outputs, sinks, folds_match)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up repetitions measured in one process where nothing is cached
/// between them (the exact backend); compiled surfaces are cached per
/// process, so kernel workloads measure set-up once per process.
const SWEEP_SETUP_REPEATS: usize = 201;

/// Sets the workload up and times it: the first set-up of the process
/// on kernel workloads, the median of [`SWEEP_SETUP_REPEATS`] on the
/// sweep. Also returns the host steal seconds over a kernel set-up (a
/// sweep set-up lasts far less than one steal tick).
fn timed_setup(workload: Workload, seed: u64, scale: Scale) -> (Builders, f64, f64) {
    let steal = sys::host_steal_s();
    let start = Instant::now();
    let builders = Builders::new(workload);
    if workload.is_kernel() {
        // Set-up ends where the first event is about to run: controllers,
        // grid, simulation and stream are all open.
        let config = kernel_config(workload, seed, scale);
        drop(open_kernel(&config, &*builders.facs, &no_wrap));
        let setup_s = start.elapsed().as_secs_f64();
        return (builders, setup_s, sys::host_steal_s() - steal);
    }
    let mut samples = vec![start.elapsed().as_secs_f64()];
    for _ in 1..SWEEP_SETUP_REPEATS {
        let again = Instant::now();
        let _ = Builders::new(workload);
        let _ = sweep_plan(seed, scale);
        samples.push(again.elapsed().as_secs_f64());
    }
    (builders, median(&samples), 0.0)
}

/// Calibration samples a set-up-only process takes after its set-up.
const SETUP_CALIB_SAMPLES: usize = 5;

fn cmd_setup(workload: Workload, seed: u64) -> String {
    let (_, setup_s, setup_steal_s) = timed_setup(workload, seed, Scale::FULL);
    let calib: Vec<f64> =
        (0..SETUP_CALIB_SAMPLES).map(|_| calib::sample(workload.workers())).collect();
    Obj::new()
        .str("workload", workload.name())
        .int("seed", seed)
        .num("setup_s", setup_s)
        .num("setup_steal_s", setup_steal_s)
        .nums("calib_s", &calib)
        .render()
}

fn cmd_worker(workload: Workload, seed: u64, budget_s: f64, check: bool) -> String {
    let scale = Scale::FULL;
    let (builders, setup_s, setup_steal_s) = timed_setup(workload, seed, scale);

    let mut reps: Vec<Rep> = Vec::new();
    let mut calib = Vec::new();
    let timed = Instant::now();
    loop {
        reps.push(untraced_rep(workload, seed, scale, &builders));
        calib.push(calib::sample(workload.workers()));
        let elapsed = timed.elapsed().as_secs_f64();
        let last = reps.last().expect("one rep").run_s;
        if elapsed + last > budget_s {
            break;
        }
    }

    let mut out = Obj::new();
    out.str("workload", workload.name())
        .int("seed", seed)
        .num("setup_s", setup_s)
        .num("setup_steal_s", setup_steal_s)
        .nums("run_s", &reps.iter().map(|r| r.run_s).collect::<Vec<_>>())
        .nums("cpu_s", &reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>())
        .nums("steal_s", &reps.iter().map(|r| r.steal_s).collect::<Vec<_>>())
        .nums("calib_s", &calib)
        .raw(
            "fingerprints",
            &format!(
                "[{}]",
                reps.iter()
                    .map(|r| format!("\"{}\"", r.outputs.fingerprint()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .nums("peak_rss_mb", &reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>())
        .int("workers", workload.workers() as u64);
    if check {
        let first = &reps[0].outputs;
        let loads = load_range(workload, seed, scale);
        if let Some(peer) = workload.peer() {
            let peer_rep = untraced_rep(peer, seed, scale, &Builders::new(peer));
            out.str("peer_fingerprint", &peer_rep.outputs.fingerprint());
        }
        let outputs = if workload.is_kernel() {
            first.clone()
        } else {
            let pair = (Metrics::new(), TraceDigest::new());
            let (outputs, _, folds_match) =
                sweep_jobs(seed, scale, &builders, &first.series, &pair, Clone::clone);
            out.bool("sweep_folds_match", folds_match);
            outputs
        };
        out.str("outputs_fingerprint", &outputs.fingerprint())
            .int("decisions", outputs.decisions())
            .int("events", outputs.metrics.total_events())
            .raw("regime", &outputs.regime(loads));
    }
    out.render()
}

/// One traced repetition: wrapped FACS controllers and, on kernel
/// workloads, a timing sink.
struct TracedRep {
    run_s: f64,
    outputs: Outputs,
    sink: Op,
}

fn traced_rep(
    workload: Workload,
    seed: u64,
    scale: Scale,
    builders: &Builders,
    collector: &Collector,
) -> TracedRep {
    if workload.is_kernel() {
        let config = kernel_config(workload, seed, scale);
        let wrap = |c| TimedController::wrap(c, collector);
        let run = open_kernel(&config, &*builders.facs, &wrap);
        let (sink, run_s) = run.run(TimingSink::new((Metrics::new(), TraceDigest::new())));
        let (metrics, digest) = sink.inner;
        TracedRep {
            run_s,
            outputs: Outputs { metrics, digest, series: Vec::new() },
            sink: sink.hooks,
        }
    } else {
        let plan = sweep_plan(seed, scale);
        let facs = builders.traced_facs(collector);
        let start = Instant::now();
        let series = run_sweep(&plan, &*facs, &*builders.scc);
        let run_s = start.elapsed().as_secs_f64();
        TracedRep {
            run_s,
            outputs: Outputs { metrics: Metrics::new(), digest: TraceDigest::new(), series },
            sink: Op::default(),
        }
    }
}

fn cmd_trace(workload: Workload, seed: u64, budget_s: f64, scale: Scale) -> String {
    // The first FACS build of the process: on the compiled backend it
    // compiles the decision surfaces.
    let start = Instant::now();
    let probe = FacsController::with_config(workload.facs_config()).expect("FACS builds");
    let compile_s = start.elapsed().as_secs_f64();
    let builders = Builders::new(workload);
    let collector: Collector = Collector::default();

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut sink = Op::default();
    let mut reference: Option<Outputs> = None;
    let timed = Instant::now();
    while untraced.is_empty() || timed.elapsed().as_secs_f64() < budget_s {
        let plain = untraced_rep(workload, seed, scale, &builders);
        let t = traced_rep(workload, seed, scale, &builders, &collector);
        attempted += 2;
        let reference = reference.get_or_insert_with(|| plain.outputs.clone());
        failed += u64::from(plain.outputs != *reference) + u64::from(t.outputs != *reference);
        sink.merge(t.sink);
        untraced.push(plain);
        traced.push(t.run_s);
    }
    let reps = traced.len() as f64;
    let core = CoreTotals::collect(&collector);
    let reference = reference.expect("at least one rep");

    // Counters: from the kernel's Metrics, or from rerunning every sweep
    // job into a timing sink (the sweep runner keeps its sinks).
    let (outputs, sink) = if workload.is_kernel() {
        (reference.clone(), sink)
    } else {
        let timing = TimingSink::new((Metrics::new(), TraceDigest::new()));
        let (outputs, sinks, folds_match) =
            sweep_jobs(seed, scale, &builders, &reference.series, &timing, |s| s.inner.clone());
        attempted += 1;
        failed += u64::from(!folds_match);
        let mut hooks = Op::default();
        for s in sinks {
            hooks.merge(s.hooks);
        }
        (outputs, hooks)
    };
    let m = &outputs.metrics;

    let synth = layers::synthesize(workload, seed, scale);
    let costs = layers::measure(&synth, seed);
    let (evaluate_ns, flc1_ns) = layers::replay_fuzzy(&probe, &core.inputs);

    let workers = workload.workers() as f64;
    let run_s = median(&traced);
    let untraced_run_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let untraced_cpu_s = median(&untraced.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    let cpu_util = untraced_cpu_s / (untraced_run_s * workers);
    let per_rep = |op: Op| Op {
        calls: (op.calls as f64 / reps) as u64,
        busy_ns: (op.busy_ns as f64 / reps) as u64,
    };
    let (decide, fast, observe, notify) = (
        per_rep(core.decide),
        per_rep(core.fast_reject),
        per_rep(core.observe),
        per_rep(core.notify),
    );
    let core_busy_s = core.busy_s() / reps;
    let sink_per_rep = if workload.is_kernel() { per_rep(sink) } else { sink };

    let users = synth.users;
    let locate_calls = users + m.mobility_steps - m.exited_coverage;
    // The kernel asks `out_of_coverage` on every mobility step and on
    // every arrival that `fast_reject` let through.
    let fast_hits = core.fast_hits / reps as u64;
    let coverage_calls = m.mobility_steps + m.offered_new - fast_hits.min(m.offered_new);
    let scheduled = m.accepted_new + m.handoff_accepted;
    let ledger_ops = scheduled + m.completed + m.exited_coverage + m.handoff_attempts;
    let synth_ns_per_user = synth.synth_s * 1e9 / users.max(1) as f64;

    let estimates = [
        ("core", core_busy_s),
        ("metrics", sink_per_rep.busy_s()),
        ("workload", synth.synth_s),
        ("mobility", m.mobility_steps as f64 * costs.step_ns * 1e-9),
        (
            "geometry",
            (locate_calls as f64 * costs.locate_ns + coverage_calls as f64 * costs.coverage_ns)
                * 1e-9,
        ),
        ("events", 2.0 * scheduled as f64 * costs.queue_op_ns * 1e-9),
        ("cac", ledger_ops as f64 * costs.ledger_op_ns * 1e-9),
    ];
    let self_s = run_s - (core_busy_s + sink_per_rep.busy_s()) / workers;
    let kernel_layers: f64 = estimates[2..].iter().map(|e| e.1).sum();
    let residual_s = self_s - kernel_layers / workers;
    let mut reconciliation: Vec<String> = estimates
        .iter()
        .map(|&(layer, s)| {
            Obj::new()
                .str("layer", layer)
                .num("seconds", s / workers)
                .num("share", s / workers / run_s)
                .render()
        })
        .collect();
    reconciliation.push(
        Obj::new()
            .str("layer", "engine residual")
            .num("seconds", residual_s)
            .num("share", residual_s / run_s)
            .render(),
    );

    let jobs: u64 = if workload.is_kernel() {
        1
    } else {
        sweep_plan(seed, scale).iter().map(|c| c.jobs().len() as u64).sum()
    };
    let mut layers_obj = Obj::new();
    layers_obj
        .num("fuzzy.compile_s", compile_s)
        .int("core.decide.calls", decide.calls)
        .num("core.decide.busy_s", decide.busy_s())
        .num("core.decide.p50_ns", core.decide_quantile(0.50))
        .num("core.decide.p99_ns", core.decide_quantile(0.99))
        .num("core.decide.admit_ratio", core.admits as f64 / core.decide.calls.max(1) as f64)
        .num("core.decide.handoff_share", core.handoffs as f64 / core.decide.calls.max(1) as f64)
        .num("fuzzy.evaluate_ns", evaluate_ns)
        .num("fuzzy.flc1_ns", flc1_ns)
        .num("fuzzy.cascade_share", evaluate_ns / core.decide.mean_ns().max(1e-9))
        .int("core.fast_reject.calls", fast.calls)
        .num("core.fast_reject.busy_s", fast.busy_s())
        .num(
            "core.fast_reject.hit_ratio",
            core.fast_hits as f64 / core.fast_reject.calls.max(1) as f64,
        )
        .int("core.observe.calls", observe.calls)
        .num("core.observe.busy_s", observe.busy_s())
        .int("core.notify.calls", notify.calls)
        .num("core.notify.busy_s", notify.busy_s())
        .int("workload.users", users)
        .num("workload.synth_s", synth.synth_s)
        .num("workload.synth_ns_per_user", synth_ns_per_user)
        .int("mobility.steps", m.mobility_steps)
        .num("mobility.step_ns", costs.step_ns)
        .int("geometry.locate.calls", locate_calls)
        .num("geometry.locate_ns", costs.locate_ns)
        .int("geometry.coverage.calls", coverage_calls)
        .num("geometry.coverage_ns", costs.coverage_ns)
        .int("events.queue.scheduled", scheduled)
        .num("events.queue.op_ns", costs.queue_op_ns)
        .int("cac.ledger.ops", ledger_ops)
        .num("cac.ledger.op_ns", costs.ledger_op_ns)
        .int("metrics.sink.calls", sink_per_rep.calls)
        .num("metrics.sink.busy_s", sink_per_rep.busy_s())
        .num("engine.self_s", self_s)
        .num("engine.residual_s", residual_s)
        .num("engine.cpu_util", cpu_util)
        .int("scenario.jobs", jobs)
        .num("scenario.cpu_util", cpu_util)
        .num("trace.overhead_ratio", run_s / untraced_run_s);

    Obj::new()
        .str("workload", workload.name())
        .int("seed", seed)
        .int("attempted", attempted)
        .int("failed", failed)
        .str("outputs_fingerprint", &outputs.fingerprint())
        .raw("regime", &outputs.regime(load_range(workload, seed, scale)))
        .num("traced_run_s", run_s)
        .num("untraced_run_s", untraced_run_s)
        .raw("layers", &layers_obj.render())
        .raw("reconciliation", &format!("[{}]", reconciliation.join(", ")))
        .render()
}

#[cfg(test)]
mod tests;

fn usage() -> ! {
    eprintln!(
        "usage: facsbench <worker|trace> --workload <{}> --seed <n> --budget <seconds> [--check]\n       facsbench setup --workload <name> --seed <n>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else { usage() };
    let Some(seed) = value("--seed").and_then(|s| s.parse().ok()) else { usage() };
    if command == "setup" {
        println!("{}", cmd_setup(workload, seed));
        return;
    }
    let Some(budget) = value("--budget").and_then(|s| s.parse::<f64>().ok()) else { usage() };
    if !(budget.is_finite() && budget > 0.0) {
        usage();
    }
    let line = match command.as_str() {
        "worker" => cmd_worker(workload, seed, budget, args.iter().any(|a| a == "--check")),
        "trace" => cmd_trace(workload, seed, budget, Scale::FULL),
        _ => usage(),
    };
    println!("{line}");
}
