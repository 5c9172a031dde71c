//! Standalone passes over the public layer functions, on inputs drawn
//! from the workload's own seed: a second workload stream drained on its
//! own, then mobility steps, locates, calendar-queue traffic, ledger
//! traffic and fuzzy inference over samples of what it produced.

use std::hint::black_box;
use std::time::Instant;

use facs::FacsController;
use facs_cac::{BandwidthLedger, BandwidthUnits, CallId, CallRequest, CellSnapshot, MobilityInfo};
use facs_cellsim::prelude::*;
use facs_cellsim::{EngineEvent, EngineQueue, UserId};

use crate::trace::Decimated;
use crate::workloads::{kernel_config, sweep_plan, Scale, Workload};

/// Runs `pass` (which returns the operations it did) until at least
/// `min_ops` operations and 50 ms have been timed; returns ns per op.
fn ns_per_op(min_ops: u64, mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < 0.05 {
        ops += pass().max(1);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// What the workload layer produced in the standalone pass.
#[derive(Debug)]
pub struct Synthesis {
    pub users: u64,
    pub synth_s: f64,
    /// An even sample of the synthesized users.
    pub sample: Vec<UserSpec>,
    pub grid: HexGrid,
    pub tick_s: f64,
    pub capacity_bu: u32,
}

/// Synthesizes the workload again, alone: a second stream of the same
/// seed drained chunk by chunk (kernel workloads), or every sweep job's
/// workload generated (paper sweep).
#[must_use]
pub fn synthesize(workload: Workload, seed: u64, scale: Scale) -> Synthesis {
    let mut sample = Decimated::new(4096);
    let mut users = 0u64;
    let start = Instant::now();
    let config = if workload.is_kernel() {
        let config = kernel_config(workload, seed, scale);
        let mut stream = config.stream_workload(seed);
        while let Some(chunk) = stream.next_chunk() {
            users += chunk.specs.len() as u64;
            for spec in &chunk.specs {
                sample.offer(|| spec.clone());
            }
            stream.recycle(chunk);
        }
        config
    } else {
        let plan = sweep_plan(seed, scale);
        for curve in &plan {
            for (i, job_seed) in curve.jobs() {
                for spec in curve.configs[i].generate_workload(job_seed) {
                    users += 1;
                    sample.offer(|| spec);
                }
            }
        }
        // The 7-cell grid of the Fig. 10 curves.
        plan.last().expect("sweep has curves").configs[0].clone()
    };
    let synth_s = start.elapsed().as_secs_f64();
    Synthesis {
        users,
        synth_s,
        sample: sample.into_weighted().into_iter().map(|(s, _)| s).collect(),
        grid: config.grid(),
        tick_s: config.movement_tick_s,
        capacity_bu: config.capacity_bu,
    }
}

/// Per-operation costs of the layers, from the standalone passes.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    pub step_ns: f64,
    pub locate_ns: f64,
    pub coverage_ns: f64,
    pub queue_op_ns: f64,
    pub ledger_op_ns: f64,
}

const STEPS_PER_USER: usize = 32;

#[must_use]
pub fn measure(synth: &Synthesis, seed: u64) -> Costs {
    let specs = &synth.sample;

    // Mobility: every sampled user walks STEPS_PER_USER ticks on its
    // own stream; the positions feed the geometry pass.
    let mut positions = Vec::with_capacity(specs.len() * STEPS_PER_USER);
    let walk = |positions: &mut Vec<Point>| {
        positions.clear();
        for (i, spec) in specs.iter().enumerate() {
            let mut model = spec.mobility.clone();
            let mut state = spec.start;
            let mut rng = SimRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            for _ in 0..STEPS_PER_USER {
                model.step(&mut state, synth.tick_s, &mut rng);
                positions.push(state.position);
            }
        }
        positions.len() as u64
    };
    let step_ns = ns_per_op(1_000_000, || walk(&mut positions));

    let grid = &synth.grid;
    let locate_ns = ns_per_op(2_000_000, || {
        for &p in &positions {
            black_box(grid.locate(black_box(p)));
        }
        positions.len() as u64
    });
    let coverage_ns = ns_per_op(2_000_000, || {
        for &p in &positions {
            black_box(grid.out_of_coverage(black_box(p)));
        }
        positions.len() as u64
    });

    // Calendar queue: schedule every sampled call's end, then drain it
    // epoch by epoch as the kernel does.
    let tick = SimDuration::from_secs_f64(synth.tick_s);
    let ends: Vec<SimTime> =
        specs.iter().map(|s| SimTime::from_secs_f64(s.arrival_s + s.holding_s)).collect();
    let queue_op_ns = ns_per_op(1_000_000, || {
        let mut queue = EngineQueue::with_epoch(tick);
        for (i, &end) in ends.iter().enumerate() {
            let user = UserId(i as u64);
            queue.schedule_tagged(end, EngineEvent::CallEnd { user, generation: 0 }, i as u32);
        }
        let mut popped = 0u64;
        let mut limit = SimTime::ZERO;
        while !queue.is_empty() {
            limit += tick;
            while let Some(entry) = queue.pop_within(limit) {
                black_box(entry);
                popped += 1;
            }
        }
        ends.len() as u64 + popped
    });

    // Ledger: admit each sampled profile, releasing the oldest calls
    // first whenever it does not fit.
    let capacity = BandwidthUnits::new(synth.capacity_bu);
    let ledger_op_ns = ns_per_op(1_000_000, || {
        let mut ledger = BandwidthLedger::new(capacity);
        let mut held = std::collections::VecDeque::new();
        let mut ops = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            while !ledger.can_fit(spec.profile.rb_cost_nominal) {
                let Some(oldest) = held.pop_front() else { break };
                black_box(ledger.release(oldest).expect("held call"));
                ops += 1;
            }
            let id = CallId(i as u64);
            if ledger.allocate(id, spec.profile).is_ok() {
                held.push_back(id);
            }
            ops += 1;
        }
        ops
    });

    Costs { step_ns, locate_ns, coverage_ns, queue_op_ns, ledger_op_ns }
}

/// Replays sampled `decide` inputs through the cascade
/// (`FacsController::evaluate`) and through FLC1 alone; ns per call.
#[must_use]
pub fn replay_fuzzy(
    controller: &FacsController,
    inputs: &[(CallRequest, CellSnapshot)],
) -> (f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0);
    }
    let min_ops = if controller.flc1().surface().is_some() { 200_000 } else { 2_000 };
    let evaluate_ns = ns_per_op(min_ops, || {
        for (request, cell) in inputs {
            black_box(controller.evaluate(black_box(request), black_box(cell)));
        }
        inputs.len() as u64
    });
    // FLC1 sees distances scaled into its 0–10 km universe.
    let scale = 10.0 / controller.config().cell_radius_km;
    let scaled: Vec<MobilityInfo> = inputs
        .iter()
        .map(|(r, _)| MobilityInfo { distance_km: r.mobility.distance_km * scale, ..r.mobility })
        .collect();
    let flc1_ns = ns_per_op(min_ops, || {
        for m in &scaled {
            black_box(controller.flc1().correction_value(black_box(m)).ok());
        }
        scaled.len() as u64
    });
    (evaluate_ns, flc1_ns)
}
