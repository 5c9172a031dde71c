//! Wrapper fidelity: the timing wrappers must change no behaviour, so the
//! traced run measures the same simulation as the untraced one.

use std::sync::{Arc, Mutex};

use facs_bench::experiments::{fig10_facs_vs_scc, fig7_speed};
use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, BoxedController, CallId,
    CallKind, CallRequest, CellId, CellSnapshot, Decision, MobilityInfo, ServiceClass,
    ServiceProfile,
};
use facs_cellsim::metrics::DecisionRecord;
use facs_cellsim::prelude::*;
use facs_cellsim::{MetricsSink, UserId};
use facs_scc::{SccConfig, SccNetwork};

use super::*;
use crate::trace::Decimated;
use crate::workloads::{self, Workload};

type Log = Arc<Mutex<Vec<&'static str>>>;

/// A controller whose every method leaves a trace and whose
/// `fast_reject` and `is_cell_local` differ from the trait defaults.
struct Probe(Log);

impl Probe {
    fn note(&self, call: &'static str) {
        self.0.lock().expect("probe log").push(call);
    }
}

impl AdmissionController for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn decide(&mut self, request: &CallRequest, _cell: &BandwidthLedger) -> AdmissionPlan {
        self.note("decide");
        AdmissionPlan::gate(Decision::from_score(
            if request.kind == CallKind::Handoff { 0.5 } else { -0.5 },
            0.0,
        ))
    }

    fn fast_reject(&self, _profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        self.note("fast_reject");
        cell.occupied().get() > 0
    }

    fn observe(&mut self, _now_s: f64, _cell: &BandwidthLedger) {
        self.note("observe");
    }

    fn on_admitted(&mut self, _request: &CallRequest, _cell: &CellSnapshot) {
        self.note("on_admitted");
    }

    fn on_released(&mut self, _call: CallId, _class: ServiceClass, _cell: &CellSnapshot) {
        self.note("on_released");
    }

    fn is_cell_local(&self) -> bool {
        self.note("is_cell_local");
        false
    }
}

/// Calls every trait method once and returns what each returned.
fn exercise(c: &mut dyn AdmissionController) -> (String, bool, bool, bool, bool, bool) {
    let mut cell = BandwidthLedger::new(BandwidthUnits::new(40));
    let profile = ServiceProfile::paper(ServiceClass::Voice);
    let empty_reject = c.fast_reject(&profile, &cell);
    let new = CallRequest::new(
        CallId(1),
        ServiceClass::Voice,
        CallKind::New,
        MobilityInfo::new(30.0, 0.0, 2.0),
    );
    let handoff = CallRequest { kind: CallKind::Handoff, ..new };
    let (a, b) = (c.decide(&new, &cell).admits(), c.decide(&handoff, &cell).admits());
    c.observe(5.0, &cell);
    cell.allocate(new.id, new.profile).expect("fits");
    c.on_admitted(&new, &cell.snapshot());
    let busy_reject = c.fast_reject(&profile, &cell);
    cell.release(new.id).expect("held");
    c.on_released(new.id, ServiceClass::Voice, &cell.snapshot());
    (c.name().to_string(), empty_reject, busy_reject, a, b, c.is_cell_local())
}

#[test]
fn timed_controller_forwards_every_method() {
    let (direct_log, wrapped_log) = (Log::default(), Log::default());
    let direct = exercise(&mut Probe(direct_log.clone()));
    let collector = Collector::default();
    let mut wrapped = TimedController::wrap(Box::new(Probe(wrapped_log.clone())), &collector);
    let through = exercise(&mut wrapped);
    assert_eq!(direct, ("probe".to_string(), false, true, false, true, false));
    assert_eq!(through, direct);
    assert_eq!(*wrapped_log.lock().unwrap(), *direct_log.lock().unwrap());
    drop(wrapped);
    let core = CoreTotals::collect(&collector);
    assert_eq!(
        (core.decide.calls, core.admits, core.handoffs, core.fast_reject.calls, core.fast_hits),
        (2, 1, 1, 2, 1)
    );
    assert_eq!((core.observe.calls, core.notify.calls, core.inputs.len()), (1, 2, 2));
}

/// Counts every hook, fork and absorb it sees.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counting {
    hooks: [u64; 7],
    forks: u64,
    absorbs: u64,
}

impl MetricsSink for Counting {
    fn fork(&self) -> Self {
        Counting { forks: 1, ..Counting::default() }
    }

    fn absorb(&mut self, other: Self) {
        for (a, b) in self.hooks.iter_mut().zip(other.hooks) {
            *a += b;
        }
        self.forks += other.forks;
        self.absorbs += other.absorbs + 1;
    }

    fn on_decision(&mut self, _: SimTime, _: CellId, _: &DecisionRecord) {
        self.hooks[0] += 1;
    }

    fn on_reallocation(
        &mut self,
        _: SimTime,
        _: CellId,
        _: UserId,
        _: BandwidthUnits,
        _: BandwidthUnits,
    ) {
        self.hooks[1] += 1;
    }

    fn on_completion(&mut self, _: SimTime, _: CellId, _: UserId) {
        self.hooks[2] += 1;
    }

    fn on_exit(&mut self, _: SimTime, _: CellId, _: UserId) {
        self.hooks[3] += 1;
    }

    fn on_mobility_step(&mut self, _: SimTime, _: CellId) {
        self.hooks[4] += 1;
    }

    fn on_cell_sample(&mut self, _: SimTime, _: CellId, _: u32, _: u32) {
        self.hooks[5] += 1;
    }

    fn on_cell_utilization(&mut self, _: CellId, _: f64, _: f64) {
        self.hooks[6] += 1;
    }
}

#[test]
fn timing_sink_forwards_every_hook_fork_and_absorb() {
    let mut sink = TimingSink::new(Counting::default());
    let mut shard = sink.fork();
    let (now, cell, user) = (SimTime::ZERO, CellId(0), UserId(7));
    let profile = ServiceProfile::paper(ServiceClass::Text);
    shard.on_decision(now, cell, &DecisionRecord::denied(user, profile, CallKind::New));
    shard.on_reallocation(now, cell, user, BandwidthUnits::new(1), BandwidthUnits::new(1));
    shard.on_completion(now, cell, user);
    shard.on_exit(now, cell, user);
    shard.on_mobility_step(now, cell);
    shard.on_cell_sample(now, cell, 0, 40);
    sink.absorb(shard);
    sink.on_cell_utilization(cell, 0.0, 1.0);
    assert_eq!(sink.inner, Counting { hooks: [1; 7], forks: 1, absorbs: 1 });
    assert_eq!(sink.hooks.calls, 8);
}

#[test]
fn timing_sink_sees_what_the_sink_sees_on_a_two_shard_run() {
    let config = kernel_config(Workload::NominalTwoShard, 11, Scale { divisor: 500 });
    let builders = Builders::new(Workload::NominalTwoShard);
    let plain = open_kernel(&config, &*builders.facs, &no_wrap).run(Counting::default()).0;
    let timed =
        open_kernel(&config, &*builders.facs, &no_wrap).run(TimingSink::new(Counting::default())).0;
    assert_eq!(timed.inner, plain);
    assert_eq!(plain.forks, 2, "one fork per shard");
    let hooks: u64 = plain.hooks.iter().sum();
    assert!(hooks > 1000);
    assert_eq!(timed.hooks.calls, hooks + plain.absorbs);
}

#[test]
fn wrapped_shared_state_controller_still_refuses_two_shards() {
    let config = kernel_config(Workload::NominalTwoShard, 3, Scale { divisor: 2000 });
    let collector = Collector::default();
    let result = std::panic::catch_unwind(|| {
        let grid = config.grid();
        let controllers: Vec<BoxedController> = SccNetwork::new(SccConfig::default())
            .controllers(&grid)
            .into_iter()
            .map(|c| TimedController::wrap(c, &collector))
            .collect();
        let mut sim = Simulation::new(grid, config.sim_config(config.seed), controllers);
        sim.run_streamed(config.stream_workload(config.seed))
    });
    assert!(result.is_err(), "is_cell_local must reach the kernel through the wrapper");
}

const SMALL: Scale = Scale { divisor: 200 };

#[test]
fn traced_outputs_equal_untraced_on_every_workload() {
    for workload in Workload::ALL {
        let builders = Builders::new(workload);
        let collector = Collector::default();
        let plain = untraced_rep(workload, 5, SMALL, &builders).outputs;
        let traced = traced_rep(workload, 5, SMALL, &builders, &collector).outputs;
        assert_eq!(traced, plain, "{}", workload.name());
        let core = CoreTotals::collect(&collector);
        assert!(core.decide.calls > 0 && core.fast_reject.calls > 0, "{}", workload.name());
    }
}

#[test]
fn nominal_and_two_shard_outputs_agree() {
    for seed in [0, 1] {
        let one = untraced_rep(Workload::Nominal, seed, SMALL, &Builders::new(Workload::Nominal));
        let two = untraced_rep(
            Workload::NominalTwoShard,
            seed,
            SMALL,
            &Builders::new(Workload::NominalTwoShard),
        );
        assert_eq!(one.outputs, two.outputs);
        assert!(one.outputs.metrics.total_events() > 10_000);
    }
}

#[test]
fn sweep_jobs_fold_to_the_runner_curves() {
    let builders = Builders::new(Workload::PaperSweep);
    let series = untraced_rep(Workload::PaperSweep, 9, SMALL, &builders).outputs.series;
    let pair = (Metrics::new(), TraceDigest::new());
    let (outputs, sinks, folds_match) =
        sweep_jobs(9, SMALL, &builders, &series, &pair, Clone::clone);
    assert!(folds_match);
    assert_eq!(
        sinks.len() as u64,
        sweep_plan(9, SMALL).iter().map(|c| c.jobs().len() as u64).sum::<u64>()
    );
    assert!(outputs.decisions() > 0);
}

#[test]
fn sweep_plan_is_the_experiments_sweep() {
    let builders = Builders::new(Workload::PaperSweep);
    let plan = workloads::plan_with(2007, 1, 1);
    let ours = run_sweep(&plan, &*builders.facs, &*builders.scc);
    let theirs: Vec<Series> = fig7_speed(1).into_iter().chain(fig10_facs_vs_scc(1)).collect();
    assert_eq!(ours.len(), theirs.len());
    for (a, b) in ours.iter().zip(&theirs) {
        assert_eq!((&a.label, &a.points), (&b.label, &b.points));
    }
}

#[test]
fn decimated_sample_stays_bounded_and_spread() {
    let mut d = Decimated::new(8);
    for i in 0..1000u64 {
        d.offer(|| i);
    }
    let kept = d.into_weighted();
    assert!(kept.len() < 8);
    let weight: u64 = kept.iter().map(|k| k.1).sum();
    assert!((900..=1100).contains(&weight), "weights stand for the stream: {weight}");
    assert!(kept.last().unwrap().0 > 500, "the sample reaches the end of the stream");
}
