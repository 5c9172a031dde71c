//! The sharded deterministic simulation kernel.
//!
//! The world — cells with ledgers and admission controllers, in-call
//! users, pending arrivals — is partitioned into **cell-group shards**
//! (cell `i` belongs to shard `i % shards`). Each shard runs an
//! independent discrete-event loop over its own [`EngineQueue`] and the
//! shards only interact at **epoch barriers** spaced one movement tick
//! apart, where calls that crossed into a cell owned by another shard
//! are exchanged as migrants.
//!
//! ## Why multi-shard runs are bit-identical to single-shard runs
//!
//! 1. **Conservative lookahead = movement cadence.** Between barriers
//!    every event (arrival, call-end) is local to a single cell: handoffs
//!    — the only cross-cell interaction — can occur *only* at movement
//!    ticks, so a shard can safely simulate a whole epoch without
//!    looking at any other shard.
//! 2. **Shard-independent event order.** [`EngineQueue`] orders events
//!    by `(time, kind, user, generation)` — content, not insertion
//!    order — so each *cell* sees the same event sequence no matter
//!    which queue hosts it.
//! 3. **Per-user RNG streams.** Every user draws mobility noise from a
//!    private stream seeded by `(simulation seed, user id)`; the stream
//!    state travels with the call on migration. No draw ever depends on
//!    how users are grouped.
//! 4. **Ordered barrier exchange.** At a barrier, all source-cell
//!    releases happen before any target-cell admission, and each cell
//!    applies its inbound handoffs in ascending user order.
//! 5. **Ordered folds.** Integer counters are exact sums; per-cell
//!    utilization integrals are accumulated cell-locally and folded in
//!    cell-id order at the end of the run, fixing every float-op order.
//!
//! The guarantee covers every controller whose state is **cell-local**
//! (FACS on both inference backends, complete sharing, guard channels).
//! SCC controllers share a cross-cell shadow board; with more than one
//! shard their board updates would interleave nondeterministically, so
//! controllers declare locality via
//! [`AdmissionController::is_cell_local`] and the kernel **panics**
//! rather than run a shared-state policy on multiple shards.
//!
//! [`EngineQueue`]: crate::events::EngineQueue

mod shard;

use facs_cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, BoxedController, CellId,
    ControllerFactory, ServiceProfile,
};

use crate::geometry::HexGrid;
use crate::metrics::{Metrics, MetricsSink};
use crate::mobility::{
    GaussMarkov, MobileState, MobilityModel, RandomWaypoint, StraightLine, Walker,
};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::workload::WorkloadStream;

use shard::{CellUnit, Migrant, PendingArrival, Shard};

/// A clonable, serde-friendly sum of the crate's mobility models, so
/// workloads can be described as plain data.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MobilityKind {
    /// Heading-diffusion walker (speed-dependent stability).
    Walker(Walker),
    /// Random waypoint within a disc.
    RandomWaypoint(RandomWaypoint),
    /// Gauss–Markov autoregressive motion.
    GaussMarkov(GaussMarkov),
    /// Constant heading and speed.
    StraightLine,
}

impl MobilityModel for MobilityKind {
    fn step(&mut self, state: &mut MobileState, dt_s: f64, rng: &mut SimRng) {
        match self {
            MobilityKind::Walker(m) => m.step(state, dt_s, rng),
            MobilityKind::RandomWaypoint(m) => m.step(state, dt_s, rng),
            MobilityKind::GaussMarkov(m) => m.step(state, dt_s, rng),
            MobilityKind::StraightLine => StraightLine.step(state, dt_s, rng),
        }
    }

    fn name(&self) -> &str {
        match self {
            MobilityKind::Walker(_) => "walker",
            MobilityKind::RandomWaypoint(_) => "random-waypoint",
            MobilityKind::GaussMarkov(_) => "gauss-markov",
            MobilityKind::StraightLine => "straight-line",
        }
    }
}

/// One user of the workload: when they request, what they request, where
/// they start and how they move.
#[derive(Debug, Clone)]
pub struct UserSpec {
    /// Request instant, seconds from simulation start.
    pub arrival_s: f64,
    /// Requested service profile — the class plus its `[floor, nominal]`
    /// bandwidth band. `ServiceProfile::paper(class)` reproduces the
    /// paper's rigid unit costs.
    pub profile: ServiceProfile,
    /// Kinematic state at request time.
    pub start: MobileState,
    /// Mobility model for the call's lifetime.
    pub mobility: MobilityKind,
    /// Pre-drawn call holding time, seconds (drawn by the workload
    /// generator so admission policy cannot perturb the random stream).
    pub holding_s: f64,
}

/// Simulation-wide constants.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Capacity of every base station (the paper's 40 BU).
    pub capacity: BandwidthUnits,
    /// Movement/handoff processing cadence, seconds — also the epoch
    /// length (conservative lookahead) of the sharded kernel.
    pub movement_tick_s: f64,
    /// Hard stop; events beyond this instant are discarded.
    pub max_time_s: f64,
    /// Seed for the per-user mobility random streams.
    pub seed: u64,
    /// Number of cell-group shards. Clamped to the cell count; `0` and
    /// `1` both mean one shard. Any value produces bit-identical
    /// results for cell-local controllers (see the module docs).
    pub shards: usize,
    /// Worker threads driving the shards. `0` (the default) sizes the
    /// pool to `min(shards, available cores)`; `1` runs every shard
    /// inline on the calling thread even for many shards (useful on
    /// single-core hosts, where threads only add barrier overhead).
    /// Shards are **work items**, stolen whole — the worker count never
    /// affects results, only wall-clock.
    pub workers: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            capacity: BandwidthUnits::new(40),
            movement_tick_s: 5.0,
            max_time_s: 7_200.0,
            seed: 0xFAC5,
            shards: 1,
            workers: 0,
        }
    }
}

/// The simulator: owns the grid and the cells (ledger + controller
/// each); each run partitions them into shards, drives the epoch loop,
/// and reassembles the world.
///
/// Build with [`Simulation::new`], then [`Simulation::run`] a workload
/// (or [`Simulation::run_with`] to stream events into a custom
/// [`MetricsSink`]).
pub struct Simulation {
    grid: HexGrid,
    cells: Vec<CellUnit>,
    clock: SimTime,
    config: SimulationConfig,
    metrics: Metrics,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cells", &self.cells.len())
            .field("clock", &self.clock)
            .field("shards", &self.config.shards)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation over `grid` with one controller per cell.
    ///
    /// # Panics
    ///
    /// Panics unless `controllers.len() == grid.len()` — the pairing is a
    /// construction-time contract, not runtime data — and unless the
    /// movement cadence is finite and positive (it is the kernel's epoch
    /// length).
    #[must_use]
    pub fn new(grid: HexGrid, config: SimulationConfig, controllers: Vec<BoxedController>) -> Self {
        assert_eq!(
            controllers.len(),
            grid.len(),
            "need exactly one controller per cell ({} cells, {} controllers)",
            grid.len(),
            controllers.len()
        );
        assert!(
            config.movement_tick_s.is_finite() && config.movement_tick_s > 0.0,
            "bad movement tick {}",
            config.movement_tick_s
        );
        let cells = controllers
            .into_iter()
            .enumerate()
            .map(|(i, controller)| {
                let id = CellId(i as u32);
                CellUnit::new(
                    id,
                    BandwidthLedger::new(config.capacity),
                    controller,
                    grid.center_of(id),
                )
            })
            .collect();
        Self { grid, cells, clock: SimTime::ZERO, config, metrics: Metrics::new() }
    }

    /// Creates a simulation with one controller per cell built by
    /// `factory` — the per-shard construction hook used when every cell
    /// runs the same policy.
    #[must_use]
    pub fn from_factory(
        grid: HexGrid,
        config: SimulationConfig,
        factory: &dyn ControllerFactory,
    ) -> Self {
        let controllers = grid.cell_ids().map(|_| factory.build()).collect();
        Self::new(grid, config, controllers)
    }

    /// Runs the workload to completion and returns the collected metrics.
    ///
    /// Users are admitted at the cell covering their position; admitted
    /// calls hold bandwidth until their holding time elapses, the user
    /// hands off out of a full cell (drop), or the user leaves coverage.
    pub fn run(&mut self, workload: Vec<UserSpec>) -> Metrics {
        let metrics = self.run_with(workload, Metrics::new());
        self.metrics = metrics.clone();
        metrics
    }

    /// Runs the workload, streaming every observable event into `sink`
    /// (forked per shard, folded back in shard order; see
    /// [`MetricsSink`]). `workload[i]` is user `i`; the specs need not be
    /// sorted by arrival time.
    pub fn run_with<S: MetricsSink>(&mut self, workload: Vec<UserSpec>, sink: S) -> S {
        self.run_source(Source::eager(workload), sink)
    }

    /// Runs a streamed workload to completion and returns the collected
    /// metrics. See [`Simulation::run_streamed_with`].
    pub fn run_streamed(&mut self, stream: WorkloadStream) -> Metrics {
        let metrics = self.run_streamed_with(stream, Metrics::new());
        self.metrics = metrics.clone();
        metrics
    }

    /// Runs a lazily synthesized workload: users are generated chunk by
    /// chunk from `stream` and routed to their home shards one epoch
    /// window at a time, so peak resident specs are O(active calls + one
    /// chunk) instead of O(total users). Results are bit-identical to
    /// [`Simulation::run_with`] on the eagerly generated workload: the
    /// stream replays the same random draws in the same order, and both
    /// inputs reach the kernel in the same `(time, user)` order.
    pub fn run_streamed_with<S: MetricsSink>(&mut self, stream: WorkloadStream, sink: S) -> S {
        self.run_source(Source::Stream(Box::new(stream)), sink)
    }

    /// The one run body behind every entry point: refuses shared-state
    /// controllers on several shards, partitions the cells, drives the
    /// epochs and reassembles the world.
    fn run_source<S: MetricsSink>(&mut self, source: Source, mut sink: S) -> S {
        let shard_count = self.config.shards.clamp(1, self.cells.len().max(1));
        if shard_count > 1 {
            // Bit-identity only holds for cell-local controllers; a
            // shared-state policy (SCC's shadow board) on concurrent
            // shards would be silently nondeterministic, so refuse it.
            if let Some(cell) = self.cells.iter().find(|c| !c.controller.is_cell_local()) {
                panic!(
                    "controller `{}` shares cross-cell state and cannot run on {} shards \
                     without losing bit-reproducibility; use shards = 1",
                    cell.controller.name(),
                    shard_count
                );
            }
        }
        let tick = SimDuration::from_secs_f64(self.config.movement_tick_s);
        assert!(tick.as_micros() > 0, "movement tick rounds to zero microseconds");
        let horizon = SimTime::from_secs_f64(self.config.max_time_s);

        // Partition cells round-robin: shard s owns ids s, s+n, s+2n, …
        let mut per_shard: Vec<Vec<CellUnit>> = (0..shard_count).map(|_| Vec::new()).collect();
        for cell in std::mem::take(&mut self.cells) {
            per_shard[cell.id.0 as usize % shard_count].push(cell);
        }
        let (grid, config) = (&self.grid, self.config);
        let mut shards: Vec<Shard<'_, S>> = per_shard
            .into_iter()
            .enumerate()
            .map(|(i, cells)| Shard::new(i, shard_count, grid, config, cells, sink.fork()))
            .collect();
        let mut feeder = Feeder { source, grid, shard_count };
        let workers = resolve_workers(config.workers, shard_count);
        let epochs = drive(&mut shards, &mut feeder, tick, horizon, workers);

        // Fold shard sinks in shard order, put the cells back in id
        // order and flush each cell's utilization integral.
        let final_time =
            if epochs == 0 { SimTime::ZERO } else { barrier_time(tick, epochs).min(horizon) };
        for shard in shards {
            sink.absorb(shard.sink);
            self.cells.extend(shard.cells);
        }
        self.cells.sort_by_key(|c| c.id.0);
        for cell in &mut self.cells {
            let (occupied_bu_s, capacity_bu_s) = cell.finish(final_time);
            sink.on_cell_utilization(cell.id, occupied_bu_s, capacity_bu_s);
        }
        self.clock = final_time;
        sink
    }

    /// Metrics collected by the last [`Simulation::run`].
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The simulation clock (final barrier time after a run).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The grid the simulation runs on.
    #[must_use]
    pub fn grid(&self) -> &HexGrid {
        &self.grid
    }

    /// Occupied bandwidth of a cell (for assertions in tests and the
    /// distributed runtime's cross-checks).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn occupied(&self, cell: CellId) -> BandwidthUnits {
        self.cells[cell.0 as usize].ledger.occupied()
    }
}

/// The instant of barrier `epoch` (exact integer microsecond math, so
/// every shard and worker computes identical barrier times).
fn barrier_time(tick: SimDuration, epoch: u64) -> SimTime {
    SimTime::from_micros(tick.as_micros() * epoch)
}

/// Where a run's users come from.
enum Source {
    /// Lazily synthesized chunks, already in `(time, user)` order.
    Stream(Box<WorkloadStream>),
    /// The caller's specs (`specs[i]` is user `i`), taken out one by one
    /// in `order`: `(arrival µs, index)` ascending from `cursor`.
    Eager { specs: Vec<Option<UserSpec>>, order: Vec<(u64, usize)>, cursor: usize },
}

impl Source {
    /// Wraps an eager workload, ordering it once by `(arrival µs,
    /// index)` — the content-defined dispatch order — because hand-built
    /// workloads need not be time-sorted. `Option<UserSpec>` has the
    /// size of `UserSpec`, so the wrapping collect can reuse the
    /// caller's buffer in place.
    fn eager(workload: Vec<UserSpec>) -> Self {
        let mut order: Vec<(u64, usize)> = workload
            .iter()
            .enumerate()
            .map(|(i, spec)| (SimTime::from_secs_f64(spec.arrival_s).as_micros(), i))
            .collect();
        order.sort_unstable();
        Source::Eager { specs: workload.into_iter().map(Some).collect(), order, cursor: 0 }
    }
}

/// Feeds the run's users into the shards' pending queues one epoch
/// window at a time, routing each to the shard that owns its covering
/// cell (the locate here is the only one; shards reuse it on dispatch).
/// A stream is pulled at chunk granularity, so a refill can overshoot
/// the window by at most one chunk — that overshoot simply waits in the
/// pending queues.
struct Feeder<'g> {
    source: Source,
    grid: &'g HexGrid,
    shard_count: usize,
}

impl Feeder<'_> {
    /// True once every user has been delivered.
    fn exhausted(&self) -> bool {
        match &self.source {
            Source::Stream(stream) => stream.is_exhausted(),
            Source::Eager { order, cursor, .. } => *cursor >= order.len(),
        }
    }

    /// Delivers every arrival due at or before `limit` as
    /// `deliver(target shard, arrival)`, in `(time, user)` order.
    fn refill(&mut self, limit: SimTime, mut deliver: impl FnMut(usize, PendingArrival)) {
        let (grid, shard_count) = (self.grid, self.shard_count);
        let mut route = |time_us: u64, user: u64, spec: UserSpec| {
            let cell = grid.locate(spec.start.position);
            deliver(cell.0 as usize % shard_count, PendingArrival { time_us, user, cell, spec });
        };
        match &mut self.source {
            Source::Stream(stream) => {
                while stream
                    .peek_next_arrival_s()
                    .is_some_and(|t| SimTime::from_secs_f64(t) <= limit)
                {
                    let Some(mut chunk) = stream.next_chunk() else { break };
                    for (i, spec) in chunk.specs.drain(..).enumerate() {
                        let time_us = SimTime::from_secs_f64(spec.arrival_s).as_micros();
                        route(time_us, chunk.first_user + i as u64, spec);
                    }
                    stream.recycle(chunk);
                }
            }
            Source::Eager { specs, order, cursor } => {
                while let Some(&(time_us, i)) = order.get(*cursor) {
                    if SimTime::from_micros(time_us) > limit {
                        break;
                    }
                    *cursor += 1;
                    route(time_us, i as u64, specs[i].take().expect("user delivered twice"));
                }
                if *cursor == order.len() && !order.is_empty() {
                    // Fully delivered: free the emptied slots and the
                    // order instead of pinning them for the run's tail.
                    (*specs, *order, *cursor) = (Vec::new(), Vec::new(), 0);
                }
            }
        }
    }
}

/// Sizes the worker pool: an explicit count is honored (capped at one
/// worker per shard, more can never help); `0` asks the OS for the
/// available parallelism. A single shard skips the probe: it always
/// runs inline.
fn resolve_workers(configured: usize, shard_count: usize) -> usize {
    let requested = match configured {
        0 if shard_count > 1 => {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
        0 => 1,
        n => n,
    };
    requested.min(shard_count)
}

/// The epoch driver. Each epoch has three phases:
///
/// 1. **Refill** — the feeder delivers every arrival due by the next
///    barrier. The run ends once every shard is idle *and* the feeder is
///    exhausted (an all-idle world with undelivered future arrivals must
///    keep pulsing epochs), or the horizon is reached.
/// 2. **Events + movement** ([`Shard::advance`]) — every shard drains its
///    local events up to the barrier and posts the calls that crossed
///    into another shard's cell to that shard's mailbox.
/// 3. **Admissions + pulse** ([`Shard::settle`]) — every shard admits its
///    sorted inbox, then fires the epoch pulse.
///
/// With one worker the phases run inline on the calling thread. With
/// more, `workers` scoped threads **steal shards whole** from a shared
/// atomic counter in phases 2 and 3, and barriers separate the phases:
/// the barrier leader refills while every other worker holds, so all
/// workers read the same idle/exhausted flags and the epoch count and
/// termination branch stay unanimous.
///
/// ## Why stealing cannot perturb results
///
/// A shard's epoch is a pure function of its own state plus its sorted
/// inbox: *which worker* runs it, and in *what order* relative to other
/// shards within the phase, is invisible to the shard. Mailbox pushes
/// from concurrently-running shards can interleave arbitrarily — the
/// inbox is sorted into global user order before any admission — and
/// sinks are folded in shard order at reassembly, so every float and
/// every RNG draw happens in the same order as with one worker. The
/// phase counters are reset by the barrier leader one full barrier
/// before their next use, which orders the reset before every
/// subsequent `fetch_add`. Returns the number of epochs run.
fn drive<S: MetricsSink>(
    shards: &mut [Shard<'_, S>],
    feeder: &mut Feeder<'_>,
    tick: SimDuration,
    horizon: SimTime,
    workers: usize,
) -> u64 {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    let shard_count = shards.len();
    let window = |epoch: u64| barrier_time(tick, epoch + 1).min(horizon);
    let finished = |done: bool, epoch: u64| done || barrier_time(tick, epoch) >= horizon;

    if workers <= 1 {
        let mut mailboxes: Vec<Vec<Migrant>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut epoch: u64 = 0;
        loop {
            feeder.refill(window(epoch), |i, a| shards[i].push_pending(a));
            if finished(shards.iter().all(Shard::idle) && feeder.exhausted(), epoch) {
                return epoch;
            }
            epoch += 1;
            let t = barrier_time(tick, epoch);
            for shard in shards.iter_mut() {
                shard.advance(t, horizon, |target, m| mailboxes[target].push(m));
            }
            if t > horizon {
                return epoch;
            }
            for (shard, inbox) in shards.iter_mut().zip(&mut mailboxes) {
                shard.settle(t, inbox);
            }
        }
    }

    let sync = Barrier::new(workers);
    let mailboxes: Vec<Mutex<Vec<Migrant>>> =
        (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();
    // Published at the end of each epoch's phase 3 by whichever worker
    // ran the shard (and cleared by the refill); seeded here so epoch
    // 0's check sees truth.
    let idle: Vec<AtomicBool> = shards.iter().map(|s| AtomicBool::new(s.idle())).collect();
    let exhausted = AtomicBool::new(feeder.exhausted());
    let (next_a, next_b) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let claim = |counter: &AtomicUsize| {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        (i < shard_count).then_some(i)
    };
    let slots: Vec<Mutex<&mut Shard<'_, S>>> = shards.iter_mut().map(Mutex::new).collect();
    let feeder = Mutex::new(feeder);
    let worker = || {
        let mut epoch: u64 = 0;
        loop {
            if sync.wait().is_leader() {
                // Phase 3 is over on every worker; the counter's next use
                // is behind the phase-2 barrier below.
                next_b.store(0, Ordering::Relaxed);
                let mut feeder = feeder.lock().expect("feeder poisoned");
                feeder.refill(window(epoch), |i, a| {
                    slots[i].lock().expect("shard slot poisoned").push_pending(a);
                    idle[i].store(false, Ordering::SeqCst);
                });
                exhausted.store(feeder.exhausted(), Ordering::SeqCst);
            }
            sync.wait();
            let all_idle = idle.iter().all(|flag| flag.load(Ordering::SeqCst));
            if finished(all_idle && exhausted.load(Ordering::SeqCst), epoch) {
                return epoch;
            }
            epoch += 1;
            let t = barrier_time(tick, epoch);
            while let Some(i) = claim(&next_a) {
                let mut shard = slots[i].lock().expect("shard slot poisoned");
                shard.advance(t, horizon, |target, m| {
                    mailboxes[target].lock().expect("mailbox poisoned").push(m);
                });
            }
            if sync.wait().is_leader() {
                // Phase 2 is over on every worker; the counter's next use
                // is behind the loop-top barrier.
                next_a.store(0, Ordering::Relaxed);
            }
            if t > horizon {
                return epoch;
            }
            while let Some(i) = claim(&next_b) {
                let mut shard = slots[i].lock().expect("shard slot poisoned");
                shard.settle(t, &mut mailboxes[i].lock().expect("mailbox poisoned"));
                idle[i].store(shard.idle(), Ordering::SeqCst);
            }
        }
    };
    let epochs: Vec<u64> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    })
    .expect("shard scope failed");
    debug_assert!(epochs.iter().all(|&e| e == epochs[0]), "workers disagreed on epoch count");
    epochs[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::metrics::{CellLoadSeries, DecisionRecord};
    use facs_cac::policies::CompleteSharing;
    use facs_cac::{AdmissionController, AdmissionPlan, CallRequest, Decision, ServiceClass};

    fn controllers(n: usize) -> Vec<BoxedController> {
        (0..n).map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
    }

    fn stationary_spec(arrival_s: f64, class: ServiceClass, holding_s: f64) -> UserSpec {
        UserSpec {
            arrival_s,
            profile: ServiceProfile::paper(class),
            start: MobileState::new(Point::new(0.5, 0.0), 0.0, 0.0),
            mobility: MobilityKind::StraightLine,
            holding_s,
        }
    }

    #[test]
    fn single_call_is_admitted_and_completes() {
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Video, 60.0)]);
        assert_eq!(metrics.offered_new, 1);
        assert_eq!(metrics.accepted_new, 1);
        assert_eq!(metrics.completed, 1);
        assert_eq!(sim.occupied(CellId(0)), BandwidthUnits::ZERO, "bandwidth returned");
    }

    #[test]
    fn capacity_blocks_excess_calls() {
        let grid = HexGrid::single_cell(10.0);
        // 40 BU: exactly 4 video calls fit if they overlap.
        let workload: Vec<UserSpec> = (0..6)
            .map(|i| stationary_spec(1.0 + i as f64 * 0.001, ServiceClass::Video, 1_000.0))
            .collect();
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(workload);
        assert_eq!(metrics.offered_new, 6);
        assert_eq!(metrics.accepted_new, 4);
        assert_eq!(metrics.blocked_new, 2);
    }

    #[test]
    fn sequential_calls_reuse_bandwidth() {
        let grid = HexGrid::single_cell(10.0);
        // Calls arrive 100 s apart, each holds 10 s: never concurrent.
        let workload: Vec<UserSpec> = (0..5)
            .map(|i| stationary_spec(10.0 + 100.0 * i as f64, ServiceClass::Video, 10.0))
            .collect();
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(workload);
        assert_eq!(metrics.accepted_new, 5);
        assert_eq!(metrics.completed, 5);
    }

    #[test]
    fn handoff_moves_bandwidth_between_cells() {
        let grid = HexGrid::new(1, 1.0);
        // A user in the center cell moving due east at high speed will
        // cross into the east neighbor well within its holding time.
        let spec = UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 120.0,
        };
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        let mut sim = Simulation::new(grid, config, controllers(7));
        let metrics = sim.run(vec![spec]);
        assert_eq!(metrics.accepted_new, 1);
        assert!(metrics.handoff_attempts >= 1, "no handoff happened");
        assert_eq!(metrics.handoff_dropped, 0);
        // Either completed in a neighbor or exited past the map edge.
        assert_eq!(metrics.completed + metrics.exited_coverage, 1);
    }

    fn east_center(grid: &HexGrid) -> Point {
        let id = grid
            .cell_ids()
            .find(|&id| {
                let c = grid.center_of(id);
                c.y.abs() < 1e-9 && c.x > 0.0
            })
            .expect("east neighbor exists");
        grid.center_of(id)
    }

    #[test]
    fn handoff_into_full_cell_drops_call() {
        let grid = HexGrid::new(1, 1.0);
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        // Fill the east neighbor with stationary video calls, then drive a
        // voice call into it.
        let east = east_center(&HexGrid::new(1, 1.0));
        let mut workload: Vec<UserSpec> = (0..4)
            .map(|i| UserSpec {
                arrival_s: 0.5 + i as f64 * 0.01,
                profile: ServiceProfile::paper(ServiceClass::Video),
                start: MobileState::new(east, 0.0, 0.0),
                mobility: MobilityKind::StraightLine,
                holding_s: 10_000.0,
            })
            .collect();
        workload.push(UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 10_000.0,
        });
        let mut sim = Simulation::new(grid, config, controllers(7));
        let metrics = sim.run(workload);
        assert_eq!(metrics.accepted_new, 5);
        assert!(metrics.handoff_dropped >= 1, "expected a dropped handoff");
    }

    /// Speed (km/h) that advances a user by `km_per_tick` km per
    /// movement tick of `tick_s` seconds.
    fn kmh_for(km_per_tick: f64, tick_s: f64) -> f64 {
        km_per_tick / tick_s * 3_600.0
    }

    #[test]
    fn call_end_exactly_on_a_barrier_preempts_the_handoff() {
        // A call whose end lands *exactly* on an epoch barrier is a
        // call-end, not a handoff: run_events drains events with
        // `time <= barrier` before the movement phase, so the user is
        // gone before the step that would have crossed the border.
        let grid = HexGrid::new(1, 1.0);
        let east = east_center(&grid);
        let boundary = east.x / 2.0;
        let km_per_tick = 0.04;
        // 4.5 ticks from the border: the crossing step is step 5.
        let spec = |holding_s: f64| UserSpec {
            arrival_s: 0.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(
                Point::new(boundary - 4.5 * km_per_tick, 0.0),
                0.0,
                kmh_for(km_per_tick, 1.0),
            ),
            mobility: MobilityKind::StraightLine,
            holding_s,
        };
        let run = |holding_s: f64, shards: usize| {
            let config = SimulationConfig { movement_tick_s: 1.0, shards, ..Default::default() };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            sim.run(vec![spec(holding_s)])
        };
        // Control: a slightly longer call does cross at barrier 5.
        let crossing = run(5.5, 1);
        assert_eq!(crossing.handoff_attempts, 1, "control call should hand off");
        // Holding 5.0 ends exactly at barrier 5: completed, never stepped
        // at barrier 5, no handoff.
        let exact = run(5.0, 1);
        assert_eq!(exact.completed, 1);
        assert_eq!(exact.handoff_attempts, 0, "end-at-barrier must preempt the handoff");
        assert_eq!(exact.mobility_steps, 4, "no movement step at the final barrier");
        for shards in [2, 4, 7] {
            assert_eq!(exact, run(5.0, shards), "barrier-exact end diverged at {shards} shards");
        }
    }

    #[test]
    fn call_end_racing_an_outbound_handoff_across_shards() {
        // The call hands off to a cell owned by another shard at barrier
        // 2, then ends mid-epoch at t = 2.5. The source shard still holds
        // the original generation-0 CallEnd event for t = 2.5; it must be
        // discarded as stale while the destination shard's generation-1
        // event completes the call — exactly once, on either side.
        let grid = HexGrid::new(1, 1.0);
        let east_id = grid.locate(east_center(&grid));
        let boundary = east_center(&grid).x / 2.0;
        let km_per_tick = 0.04;
        let spec = UserSpec {
            arrival_s: 0.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            // 1.5 ticks from the border: crosses on step 2.
            start: MobileState::new(
                Point::new(boundary - 1.5 * km_per_tick, 0.0),
                0.0,
                kmh_for(km_per_tick, 1.0),
            ),
            mobility: MobilityKind::StraightLine,
            holding_s: 2.5,
        };
        let run = |shards: usize| {
            let config = SimulationConfig { movement_tick_s: 1.0, shards, ..Default::default() };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            let metrics = sim.run(vec![spec.clone()]);
            for id in 0..7 {
                assert_eq!(
                    sim.occupied(CellId(id)),
                    BandwidthUnits::ZERO,
                    "cell {id} leaked bandwidth at {shards} shards"
                );
            }
            metrics
        };
        let single = run(1);
        assert_eq!(single.handoff_attempts, 1);
        assert_eq!(single.handoff_accepted, 1);
        assert_eq!(single.completed, 1, "the call must complete exactly once");
        // Pick a shard count that puts source (cell 0) and destination on
        // different shards, plus a few others for good measure.
        let remote = (2..=7).find(|s| east_id.0 as usize % s != 0).expect("remote split exists");
        for shards in [remote, 4, 7] {
            assert_eq!(single, run(shards), "handoff/end race diverged at {shards} shards");
        }
    }

    #[test]
    fn handoff_into_a_full_cell_on_a_remote_shard_drops_the_call() {
        // Same setup as handoff_into_full_cell_drops_call, but run with
        // shard counts that place the full east neighbor on a different
        // shard than the source cell: the migrant is exchanged at the
        // barrier, denied at the remote cell, and dropped — bit-identical
        // to the single-shard run.
        let grid = HexGrid::new(1, 1.0);
        let east = east_center(&grid);
        let east_id = grid.locate(east);
        let mut workload: Vec<UserSpec> = (0..4)
            .map(|i| UserSpec {
                arrival_s: 0.5 + i as f64 * 0.01,
                profile: ServiceProfile::paper(ServiceClass::Video),
                start: MobileState::new(east, 0.0, 0.0),
                mobility: MobilityKind::StraightLine,
                holding_s: 10_000.0,
            })
            .collect();
        workload.push(UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 10_000.0,
        });
        let run = |shards: usize| {
            let config = SimulationConfig {
                movement_tick_s: 1.0,
                max_time_s: 600.0,
                shards,
                ..Default::default()
            };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            sim.run(workload.clone())
        };
        let single = run(1);
        assert_eq!(single.accepted_new, 5);
        assert!(single.handoff_dropped >= 1, "expected a dropped handoff");
        let remote = (2..=7).find(|s| east_id.0 as usize % s != 0).expect("remote split exists");
        assert_ne!(east_id.0 as usize % remote, 0, "east cell must live on a remote shard");
        for shards in [remote, 4, 7] {
            assert_eq!(single, run(shards), "remote full-cell drop diverged at {shards} shards");
        }
    }

    fn walker_workload(n: u64) -> Vec<UserSpec> {
        (0..n)
            .map(|i| UserSpec {
                arrival_s: i as f64,
                profile: ServiceProfile::paper(if i % 3 == 0 {
                    ServiceClass::Video
                } else {
                    ServiceClass::Text
                }),
                start: MobileState::new(Point::new(0.1 * i as f64 % 1.5, 0.0), 45.0, 30.0),
                mobility: MobilityKind::Walker(Walker::paper_default()),
                holding_s: 60.0 + i as f64,
            })
            .collect()
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let grid = HexGrid::new(1, 2.0);
            let config = SimulationConfig { movement_tick_s: 2.0, seed: 7, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(7));
            sim.run(walker_workload(50))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_runs_match_single_shard_bit_for_bit() {
        let run = |shards: usize| {
            let grid = HexGrid::new(2, 2.0);
            let config =
                SimulationConfig { movement_tick_s: 2.0, seed: 7, shards, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(19));
            sim.run(walker_workload(200))
        };
        let single = run(1);
        for shards in [2, 3, 4, 19, 64] {
            assert_eq!(single, run(shards), "{shards} shards diverged from 1");
        }
        assert!(single.handoff_attempts > 0, "workload should exercise handoffs");
    }

    #[test]
    fn pooled_driver_matches_single_worker_bit_for_bit() {
        // Force worker counts explicitly: auto-sizing on a small CI box
        // may resolve to one worker, and both the inline and the
        // stealing paths must be exercised regardless of the host's core
        // count.
        let run = |shards: usize, workers: usize| {
            let grid = HexGrid::new(2, 2.0);
            let config = SimulationConfig {
                movement_tick_s: 2.0,
                seed: 7,
                shards,
                workers,
                ..Default::default()
            };
            let mut sim = Simulation::new(grid, config, controllers(19));
            sim.run(walker_workload(200))
        };
        let single = run(1, 1);
        for shards in [2, 3, 7] {
            for workers in [1, 2, 3] {
                assert_eq!(
                    single,
                    run(shards, workers),
                    "{shards} shards / {workers} workers diverged"
                );
            }
        }
        assert!(single.handoff_attempts > 0, "workload should exercise handoffs");
    }

    #[test]
    fn unsorted_eager_input_is_decided_in_time_order() {
        // User 0 arrives last, after users 1..=4 have filled the cell
        // with video calls: decided in (time, index) order it is blocked,
        // while index order would admit it and block user 4 instead.
        struct Decisions(Vec<(u64, bool)>);
        impl MetricsSink for Decisions {
            fn fork(&self) -> Self {
                Decisions(Vec::new())
            }
            fn absorb(&mut self, other: Self) {
                self.0.extend(other.0);
            }
            fn on_decision(&mut self, _now: SimTime, _cell: CellId, record: &DecisionRecord) {
                self.0.push((record.user.0, record.admitted));
            }
        }
        let mut workload = vec![stationary_spec(5.0, ServiceClass::Video, 1_000.0)];
        workload
            .extend((1..=4).map(|i| stationary_spec(i as f64 * 0.5, ServiceClass::Video, 1_000.0)));
        let mut sim = Simulation::new(
            HexGrid::single_cell(10.0),
            SimulationConfig::default(),
            controllers(1),
        );
        let Decisions(decisions) = sim.run_with(workload, Decisions(Vec::new()));
        assert_eq!(decisions, [(1, true), (2, true), (3, true), (4, true), (0, false)]);
    }

    #[test]
    fn streamed_runs_match_eager_bit_for_bit() {
        use crate::traffic::HoldingTimes;
        use crate::workload::{MobilityChoice, SpawnSpec, Workload};
        let grid = HexGrid::new(2, 2.0);
        let desc = Workload {
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            ..Workload::default()
        };
        let holding = HoldingTimes::new(60.0);
        let config = |shards, workers| SimulationConfig {
            movement_tick_s: 2.0,
            seed: 7,
            shards,
            workers,
            max_time_s: 3_000.0,
            ..Default::default()
        };
        let eager = {
            let mut sim = Simulation::new(grid.clone(), config(1, 1), controllers(19));
            sim.run(desc.generate(&grid, 300, 600.0, holding, 42))
        };
        assert!(eager.handoff_attempts > 0, "workload should exercise handoffs");
        for shards in [1, 2, 4] {
            for workers in [1, 2] {
                for chunk in [1, 7, 4096] {
                    let stream = desc.stream(&grid, 300, 600.0, holding, 42, chunk);
                    let mut sim =
                        Simulation::new(grid.clone(), config(shards, workers), controllers(19));
                    let streamed = sim.run_streamed(stream);
                    assert_eq!(
                        eager, streamed,
                        "streamed diverged: {shards} shards, {workers} workers, chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_cell_series_matches_eager() {
        // The epoch pulse (sample_cells) must fire on exactly the same
        // barriers in both drivers, including arrival gaps where every
        // shard is momentarily idle but the stream is not exhausted.
        use crate::traffic::HoldingTimes;
        use crate::workload::{MobilityChoice, SpawnSpec, Workload};
        let grid = HexGrid::new(1, 2.0);
        let desc = Workload {
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            ..Workload::default()
        };
        let holding = HoldingTimes::new(30.0);
        let config = SimulationConfig {
            movement_tick_s: 2.0,
            seed: 9,
            shards: 3,
            max_time_s: 2_000.0,
            ..Default::default()
        };
        let eager = {
            let mut sim = Simulation::new(grid.clone(), config, controllers(7));
            sim.run_with(
                desc.generate(&grid, 60, 400.0, holding, 5),
                (Metrics::new(), CellLoadSeries::new()),
            )
        };
        let streamed = {
            let mut sim = Simulation::new(grid.clone(), config, controllers(7));
            sim.run_streamed_with(
                desc.stream(&grid, 60, 400.0, holding, 5, 8),
                (Metrics::new(), CellLoadSeries::new()),
            )
        };
        assert_eq!(eager, streamed);
    }

    #[test]
    fn worker_pool_resolution_caps_at_shard_count() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 5), 2);
        assert_eq!(resolve_workers(1, 4), 1);
        // Auto mode asks the OS but can never exceed one per shard.
        assert!(resolve_workers(0, 2) <= 2);
        assert!(resolve_workers(0, 1) == 1);
    }

    #[test]
    fn cell_series_sink_is_shard_independent() {
        let run = |shards: usize| {
            let grid = HexGrid::new(1, 2.0);
            let config =
                SimulationConfig { movement_tick_s: 2.0, seed: 9, shards, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(7));
            sim.run_with(walker_workload(60), (Metrics::new(), CellLoadSeries::new()))
        };
        let (m1, s1) = run(1);
        let (m4, s4) = run(4);
        assert_eq!(m1, m4);
        assert_eq!(s1, s4);
        assert_eq!(s1.capacity_bu(), 40);
        assert!(s1.cells().count() > 0, "series sampled no cells");
        let csv = s1.to_csv();
        assert!(csv.starts_with("cell,t_s,occupied_bu\n"));
    }

    #[test]
    fn controller_veto_blocks_even_with_capacity() {
        struct DenyAll;
        impl AdmissionController for DenyAll {
            fn name(&self) -> &str {
                "deny"
            }
            fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
                AdmissionPlan::gate(Decision::binary(false))
            }
        }
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(
            grid,
            SimulationConfig::default(),
            vec![Box::new(DenyAll) as BoxedController],
        );
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Text, 10.0)]);
        assert_eq!(metrics.blocked_new, 1);
        assert_eq!(metrics.accepted_new, 0);
    }

    struct SharedState;
    impl AdmissionController for SharedState {
        fn name(&self) -> &str {
            "shared"
        }
        fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
            AdmissionPlan::gate(Decision::binary(true))
        }
        fn is_cell_local(&self) -> bool {
            false
        }
    }

    fn shared_controllers(n: usize) -> Vec<BoxedController> {
        (0..n).map(|_| Box::new(SharedState) as BoxedController).collect()
    }

    #[test]
    #[should_panic(expected = "shares cross-cell state")]
    fn shared_state_controller_refuses_multiple_shards() {
        let grid = HexGrid::new(1, 1.0);
        let config = SimulationConfig { shards: 2, ..Default::default() };
        let mut sim = Simulation::new(grid, config, shared_controllers(7));
        let _ = sim.run(vec![stationary_spec(1.0, ServiceClass::Voice, 10.0)]);
    }

    #[test]
    fn shared_state_controller_runs_single_shard() {
        let grid = HexGrid::new(1, 1.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), shared_controllers(7));
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Voice, 10.0)]);
        assert_eq!(metrics.accepted_new, 1);
    }

    #[test]
    #[should_panic(expected = "one controller per cell")]
    fn controller_count_mismatch_panics() {
        let grid = HexGrid::new(1, 1.0);
        let _ = Simulation::new(grid, SimulationConfig::default(), controllers(3));
    }

    #[test]
    fn from_factory_builds_one_controller_per_cell() {
        let grid = HexGrid::new(1, 10.0);
        let factory = || Box::new(CompleteSharing::new()) as BoxedController;
        let mut sim = Simulation::from_factory(grid, SimulationConfig::default(), &factory);
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Voice, 10.0)]);
        assert_eq!(metrics.accepted_new, 1);
    }

    #[test]
    fn utilization_is_tracked() {
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(vec![stationary_spec(0.0, ServiceClass::Video, 600.0)]);
        assert!(metrics.mean_utilization() > 0.0);
    }

    #[test]
    fn mobility_steps_are_counted() {
        let grid = HexGrid::single_cell(10.0);
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        let mut sim = Simulation::new(grid, config, controllers(1));
        // One stationary call holding ~10.5 s: stepped at barriers 1..=10.
        let metrics = sim.run(vec![stationary_spec(0.0, ServiceClass::Voice, 10.5)]);
        assert_eq!(metrics.mobility_steps, 10);
        assert_eq!(metrics.total_events(), 1 + 1 + 10);
    }
}
