//! Replays of `Experiment::run`, built from the simulator's public layers
//! so each layer can be timed from outside: world set-up, the event loop
//! (queue pop and per-kind `World::handle`), and the recorder's
//! `finish()`/`metrics()`.

use qnet_core::experiment::{ExperimentConfig, ExperimentResult};
use qnet_core::network::{NetEvent, QuantumNetworkWorld};
use qnet_core::observer::EventCounts;
use qnet_sim::{Engine, EventQueue, SimTime, StopCondition, World};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The kinds of [`NetEvent`], in the order the per-layer metrics list them.
pub const KINDS: [&str; 7] = [
    "generate",
    "swap_scan",
    "request_arrival",
    "arrival_wake",
    "cutoff_sweep",
    "gossip_exchange",
    "swap_execute",
];

fn kind_of(event: &NetEvent) -> usize {
    match event {
        NetEvent::Generate { .. } => 0,
        NetEvent::SwapScan { .. } => 1,
        NetEvent::RequestArrival { .. } => 2,
        NetEvent::ArrivalWake => 3,
        NetEvent::CutoffSweep => 4,
        NetEvent::GossipExchange { .. } => 5,
        NetEvent::SwapExecute { .. } => 6,
    }
}

/// A world exactly as `Experiment::run` builds it, with the events its
/// constructor seeded, not yet restaged onto the engine's queue.
pub struct Staged {
    /// The built world.
    pub world: QuantumNetworkWorld,
    /// The constructor's staging queue.
    pub staging: EventQueue<NetEvent>,
}

/// Build the world of `config` the way `Experiment::run` does: lazily
/// streamed arrivals for open-loop traffic, an eager workload otherwise.
pub fn stage(config: &ExperimentConfig) -> Staged {
    let mut spec = config.workload;
    spec.node_count = config.network.node_count();
    let mut staging = EventQueue::new();
    let world = if spec.is_open_loop() {
        QuantumNetworkWorld::with_arrival_stream(
            config.network,
            spec.stream(config.seed),
            config.mode.instantiate(),
            config.knowledge,
            config.seed,
            &mut staging,
        )
    } else {
        QuantumNetworkWorld::new(
            config.network,
            spec.generate(config.seed),
            config.mode.instantiate(),
            config.knowledge,
            config.seed,
            &mut staging,
        )
    };
    Staged { world, staging }
}

/// Move the staged events onto `queue` in (time, seq) order, re-assigning
/// seqs, as `Experiment::run` does onto its engine's queue.
pub fn restage(staging: &mut EventQueue<NetEvent>, queue: &mut EventQueue<NetEvent>) {
    while let Some(ev) = staging.pop() {
        queue.schedule_at(ev.time, ev.event);
    }
}

fn horizon(config: &ExperimentConfig) -> SimTime {
    SimTime::from_secs_f64(config.max_sim_time_s)
}

/// Finish the world and assemble the result as `Experiment::run` does.
fn finish(
    config: &ExperimentConfig,
    mut world: QuantumNetworkWorld,
    ended: SimTime,
) -> ExperimentResult {
    world.finish();
    let metrics = world.metrics();
    ExperimentResult {
        topology: config.network.topology.label(),
        node_count: config.network.node_count(),
        mode: config.mode,
        distillation_overhead: config.network.distillation_overhead(),
        satisfied_requests: metrics.satisfied_count(),
        unsatisfied_requests: metrics.unsatisfied_requests,
        swaps_performed: metrics.swaps_performed,
        simulated_seconds: ended.as_secs_f64(),
        metrics,
    }
}

/// Host seconds of an untraced replay after set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// `Engine::run` to the horizon.
    pub loop_s: f64,
    /// `finish()` plus `metrics()`.
    pub finish_s: f64,
}

/// Run `config` on the simulator's own `Engine`, timing each phase.
pub fn untraced(config: &ExperimentConfig) -> (ExperimentResult, PhaseTimes) {
    let Staged { world, mut staging } = stage(config);
    let mut engine = Engine::new(world);
    restage(&mut staging, engine.queue_mut());
    let t0 = Instant::now();
    engine.run(StopCondition::at_horizon(horizon(config)));
    let t1 = Instant::now();
    let ended = engine.now();
    let result = finish(config, engine.into_world(), ended);
    let t2 = Instant::now();
    let times = PhaseTimes {
        loop_s: (t1 - t0).as_secs_f64(),
        finish_s: (t2 - t1).as_secs_f64(),
    };
    (result, times)
}

/// The two spans of one delivered event, as nanosecond offsets from the
/// start of the loop span that is their parent: the queue span runs from
/// the previous event's end to `popped_ns` (`peek_time` + `pop`), the
/// handle span from `popped_ns` to `handled_ns` (`World::handle`).
#[derive(Debug, Clone, Copy)]
struct EventSpans {
    kind: u8,
    popped_ns: u64,
    handled_ns: u64,
}

/// Per-layer figures of traced runs; sums over runs where several are
/// folded together.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Events delivered.
    pub events: u64,
    /// Seconds in `peek_time` + `pop`.
    pub pop_s: f64,
    /// Largest queue length seen after a handle.
    pub queue_peak: usize,
    /// Events handled, per kind of [`KINDS`].
    pub kind_n: [u64; 7],
    /// Seconds in `World::handle`, per kind of [`KINDS`].
    pub kind_s: [f64; 7],
    /// Wall seconds of the traced event loop.
    pub loop_s: f64,
    /// Seconds in `finish()` + `metrics()`.
    pub finish_s: f64,
    /// Balancing and repair swaps the counting observer saw.
    pub swaps: u64,
    /// Repair swaps only.
    pub repair_swaps: u64,
    /// Stale-decided swaps that missed.
    pub missed_swaps: u64,
    /// Stale rows consulted by decisions.
    pub stale_decisions: u64,
}

impl LayerTrace {
    /// Fold another trace into this one.
    pub fn add(&mut self, other: &LayerTrace) {
        self.events += other.events;
        self.pop_s += other.pop_s;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        for k in 0..KINDS.len() {
            self.kind_n[k] += other.kind_n[k];
            self.kind_s[k] += other.kind_s[k];
        }
        self.loop_s += other.loop_s;
        self.finish_s += other.finish_s;
        self.swaps += other.swaps;
        self.repair_swaps += other.repair_swaps;
        self.missed_swaps += other.missed_swaps;
        self.stale_decisions += other.stale_decisions;
    }

    /// Share of the traced loop-plus-finish wall time the pop, per-kind
    /// handle and finish spans account for.
    pub fn accounted_ratio(&self) -> f64 {
        let total = self.loop_s + self.finish_s;
        let spans = self.pop_s + self.kind_s.iter().sum::<f64>() + self.finish_s;
        if total > 0.0 {
            spans / total
        } else {
            0.0
        }
    }
}

/// Run `config` with the event loop replayed here, timing every pop and
/// every handle by event kind, with a counting observer attached. Spans are
/// kept in memory and folded into the [`LayerTrace`] after the run.
pub fn traced(config: &ExperimentConfig) -> (ExperimentResult, LayerTrace) {
    let Staged {
        mut world,
        mut staging,
    } = stage(config);
    let counts = Arc::new(Mutex::new(EventCounts::default()));
    world.add_observer(Box::new(Arc::clone(&counts)));
    let mut queue = EventQueue::new();
    restage(&mut staging, &mut queue);
    let horizon = horizon(config);

    let mut spans: Vec<EventSpans> = Vec::new();
    let mut queue_peak = queue.len();
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    // As `Engine::run`: an exhausted queue ends the run at the last event,
    // the horizon ends it at the horizon.
    while let Some(next) = queue.peek_time() {
        if next > horizon {
            now = horizon;
            break;
        }
        let scheduled = queue.pop().expect("peeked event must pop");
        let popped = Instant::now();
        now = scheduled.time;
        let kind = kind_of(&scheduled.event) as u8;
        world.handle(now, scheduled.event, &mut queue);
        let handled = Instant::now();
        queue_peak = queue_peak.max(queue.len());
        spans.push(EventSpans {
            kind,
            popped_ns: (popped - start).as_nanos() as u64,
            handled_ns: (handled - start).as_nanos() as u64,
        });
    }
    let loop_end = Instant::now();
    let result = finish(config, world, now);
    let finish_end = Instant::now();

    let mut trace = LayerTrace {
        events: spans.len() as u64,
        queue_peak,
        loop_s: (loop_end - start).as_secs_f64(),
        finish_s: (finish_end - loop_end).as_secs_f64(),
        ..LayerTrace::default()
    };
    let mut previous_end = 0u64;
    for span in &spans {
        let k = span.kind as usize;
        trace.pop_s += (span.popped_ns - previous_end) as f64 * 1e-9;
        trace.kind_n[k] += 1;
        trace.kind_s[k] += (span.handled_ns - span.popped_ns) as f64 * 1e-9;
        previous_end = span.handled_ns;
    }
    let counts = counts.lock().expect("counting observer poisoned");
    trace.swaps = counts.swaps;
    trace.repair_swaps = counts.repair_swaps;
    trace.missed_swaps = counts.missed_swaps;
    trace.stale_decisions = counts.stale_decisions;
    (result, trace)
}
