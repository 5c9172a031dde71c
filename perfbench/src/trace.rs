//! Tracing from outside the program: a timing [`AdmissionController`]
//! and a timing [`MetricsSink`] that forward every call to the wrapped
//! value and account count and busy time per call site.
//!
//! Stats accumulate in the wrapper that owns them — one per cell, one
//! per sink fork — so no counter is shared between cores while the
//! simulation runs. Controllers hand their stats to a [`Collector`] when
//! dropped (the simulation owns them until then); sink stats travel back
//! through `absorb`.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, BoxedController, CallId,
    CallKind, CallRequest, CellId, CellSnapshot, ServiceClass, ServiceProfile,
};
use facs_cellsim::metrics::DecisionRecord;
use facs_cellsim::{MetricsSink, SimTime, UserId};

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Count and busy time of one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Op {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Op {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
    }

    pub fn merge(&mut self, other: Op) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
    }

    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }
}

/// A bounded, evenly spread sample of a stream: keeps every `stride`-th
/// item and, when full, drops every other kept item and doubles the
/// stride. Each kept item stands for `stride` items of the stream.
#[derive(Debug, Clone)]
pub struct Decimated<T> {
    items: Vec<(T, u64)>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl<T> Decimated<T> {
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self { items: Vec::new(), stride: 1, seen: 0, cap: cap.max(2) }
    }

    /// Offers one stream item; `make` runs only when it is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        if self.seen.is_multiple_of(self.stride) {
            self.items.push((make(), self.stride));
            if self.items.len() >= self.cap {
                let mut keep = false;
                self.items.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
                for item in &mut self.items {
                    item.1 = self.stride;
                }
            }
        }
        self.seen += 1;
    }

    /// Kept items with the number of stream items each stands for.
    pub fn into_weighted(self) -> Vec<(T, u64)> {
        self.items
    }
}

/// Per-controller trace of the `core` layer.
#[derive(Debug)]
pub struct ControllerStats {
    pub decide: Op,
    pub admits: u64,
    pub handoffs: u64,
    pub decide_ns: Decimated<u64>,
    pub inputs: Decimated<(CallRequest, CellSnapshot)>,
    pub fast_reject: Op,
    pub fast_hits: u64,
    pub observe: Op,
    pub notify: Op,
}

impl Default for ControllerStats {
    fn default() -> Self {
        Self {
            decide: Op::default(),
            admits: 0,
            handoffs: 0,
            decide_ns: Decimated::new(4096),
            inputs: Decimated::new(64),
            fast_reject: Op::default(),
            fast_hits: 0,
            observe: Op::default(),
            notify: Op::default(),
        }
    }
}

/// Where dropped controllers leave their stats.
pub type Collector = Arc<Mutex<Vec<ControllerStats>>>;

/// An [`AdmissionController`] that times every trait method of the
/// controller it wraps and forwards each call unchanged — including
/// `fast_reject` and `is_cell_local`, whose trait defaults would
/// otherwise change the arrival path and the shard refusal.
pub struct TimedController {
    inner: BoxedController,
    stats: ControllerStats,
    // `fast_reject` takes `&self`.
    fast_calls: Cell<u64>,
    fast_busy_ns: Cell<u64>,
    fast_hits: Cell<u64>,
    collector: Collector,
}

impl TimedController {
    #[must_use]
    pub fn wrap(inner: BoxedController, collector: &Collector) -> BoxedController {
        Box::new(Self {
            inner,
            stats: ControllerStats::default(),
            fast_calls: Cell::new(0),
            fast_busy_ns: Cell::new(0),
            fast_hits: Cell::new(0),
            collector: Arc::clone(collector),
        })
    }
}

impl AdmissionController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        self.stats.inputs.offer(|| (*request, cell.snapshot()));
        let start = Instant::now();
        let plan = self.inner.decide(request, cell);
        let ns = elapsed_ns(start);
        self.stats.decide.record(ns);
        self.stats.decide_ns.offer(|| ns);
        self.stats.admits += u64::from(plan.admits());
        self.stats.handoffs += u64::from(request.kind == CallKind::Handoff);
        plan
    }

    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        let start = Instant::now();
        let hit = self.inner.fast_reject(profile, cell);
        self.fast_busy_ns.set(self.fast_busy_ns.get() + elapsed_ns(start));
        self.fast_calls.set(self.fast_calls.get() + 1);
        self.fast_hits.set(self.fast_hits.get() + u64::from(hit));
        hit
    }

    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        let start = Instant::now();
        self.inner.observe(now_s, cell);
        self.stats.observe.record(elapsed_ns(start));
    }

    fn on_admitted(&mut self, request: &CallRequest, cell: &CellSnapshot) {
        let start = Instant::now();
        self.inner.on_admitted(request, cell);
        self.stats.notify.record(elapsed_ns(start));
    }

    fn on_released(&mut self, call: CallId, class: ServiceClass, cell: &CellSnapshot) {
        let start = Instant::now();
        self.inner.on_released(call, class, cell);
        self.stats.notify.record(elapsed_ns(start));
    }

    fn is_cell_local(&self) -> bool {
        self.inner.is_cell_local()
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        let mut stats = std::mem::take(&mut self.stats);
        stats.fast_reject = Op { calls: self.fast_calls.get(), busy_ns: self.fast_busy_ns.get() };
        stats.fast_hits = self.fast_hits.get();
        // A poisoned collector means a worker panicked mid-run; the run
        // is failing anyway, and Drop must not panic on top of it.
        if let Ok(mut all) = self.collector.lock() {
            all.push(stats);
        }
    }
}

/// A [`MetricsSink`] that forwards every hook, `fork` and `absorb` to
/// the sink it wraps and accounts their count and busy time.
#[derive(Debug, Clone, Default)]
pub struct TimingSink<S> {
    pub inner: S,
    pub hooks: Op,
}

impl<S: MetricsSink> TimingSink<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, hooks: Op::default() }
    }

    fn timed(&mut self, call: impl FnOnce(&mut S)) {
        let start = Instant::now();
        call(&mut self.inner);
        self.hooks.record(elapsed_ns(start));
    }
}

impl<S: MetricsSink> MetricsSink for TimingSink<S> {
    fn fork(&self) -> Self {
        Self::new(self.inner.fork())
    }

    fn absorb(&mut self, other: Self) {
        self.hooks.merge(other.hooks);
        self.timed(|s| s.absorb(other.inner));
    }

    fn on_decision(&mut self, now: SimTime, cell: CellId, record: &DecisionRecord) {
        self.timed(|s| s.on_decision(now, cell, record));
    }

    fn on_reallocation(
        &mut self,
        now: SimTime,
        cell: CellId,
        user: UserId,
        allocated: BandwidthUnits,
        floor: BandwidthUnits,
    ) {
        self.timed(|s| s.on_reallocation(now, cell, user, allocated, floor));
    }

    fn on_completion(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.timed(|s| s.on_completion(now, cell, user));
    }

    fn on_exit(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.timed(|s| s.on_exit(now, cell, user));
    }

    fn on_mobility_step(&mut self, now: SimTime, cell: CellId) {
        self.timed(|s| s.on_mobility_step(now, cell));
    }

    fn on_cell_sample(&mut self, now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        self.timed(|s| s.on_cell_sample(now, cell, occupied, capacity));
    }

    fn on_cell_utilization(&mut self, cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
        self.timed(|s| s.on_cell_utilization(cell, occupied_bu_s, capacity_bu_s));
    }
}

/// The `core` layer summed over every controller of a run.
#[derive(Debug, Default)]
pub struct CoreTotals {
    pub decide: Op,
    pub admits: u64,
    pub handoffs: u64,
    pub fast_reject: Op,
    pub fast_hits: u64,
    pub observe: Op,
    pub notify: Op,
    /// Decide latencies with their weights.
    pub decide_ns: Vec<(u64, u64)>,
    /// Sampled decide inputs, for replay through the fuzzy layer.
    pub inputs: Vec<(CallRequest, CellSnapshot)>,
}

impl CoreTotals {
    #[must_use]
    pub fn collect(collector: &Collector) -> Self {
        let stats = std::mem::take(&mut *collector.lock().expect("no controller panicked"));
        let mut t = Self::default();
        for s in stats {
            t.decide.merge(s.decide);
            t.admits += s.admits;
            t.handoffs += s.handoffs;
            t.fast_reject.merge(s.fast_reject);
            t.fast_hits += s.fast_hits;
            t.observe.merge(s.observe);
            t.notify.merge(s.notify);
            t.decide_ns.extend(s.decide_ns.into_weighted());
            t.inputs.extend(s.inputs.into_weighted().into_iter().map(|(x, _)| x));
        }
        t
    }

    /// Weighted quantile of the sampled decide latencies, in ns.
    #[must_use]
    pub fn decide_quantile(&self, q: f64) -> f64 {
        let mut samples = self.decide_ns.clone();
        samples.sort_unstable();
        let total: u64 = samples.iter().map(|s| s.1).sum();
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (ns, weight) in samples {
            seen += weight;
            if seen >= target {
                return ns as f64;
            }
        }
        0.0
    }

    /// Busy time of every `core` call site together.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.decide.busy_s()
            + self.fast_reject.busy_s()
            + self.observe.busy_s()
            + self.notify.busy_s()
    }
}
