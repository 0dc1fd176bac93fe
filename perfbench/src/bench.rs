//! One benchmark run of one workload: set-up, the measured untraced
//! repetitions, then the traced pass. Every output is checked on the way;
//! a failed check counts against the run's operations.

use crate::host::HostSpeed;
use crate::measure::{check_digest, digest, median, peak_rss_mb, quantile};
use crate::replay::{self, LayerTrace, PhaseTimes, KINDS};
use crate::workloads::{self, Workload, DEFAULT_GRID_FINGERPRINT, DEFAULT_GRID_REPLICATES};
use qnet_campaign::{
    aggregate, run_scenarios_streaming, to_jsonl_string, RunnerConfig, ScenarioGrid,
    ScenarioOutcome,
};
use qnet_core::experiment::{Experiment, ExperimentConfig, ExperimentResult};
use qnet_core::metrics::RunMetrics;
use qnet_sim::EventQueue;
use qnet_topology::{EdgeIndex, PathOracle};
use std::hint::black_box;
use std::panic::catch_unwind;
use std::time::{Duration, Instant};

/// Fewest measured repetitions a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-up is timed in bursts: one before the timed repetitions and one
/// after each, so its median sees the same host conditions they do.
const FIRST_SETUP_BURST: Duration = Duration::from_millis(200);
const SETUP_BURST: Duration = Duration::from_millis(50);
/// Failures beyond this many are counted but not described.
pub const MAX_FAILURE_NOTES: u64 = 20;

/// What one benchmark invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// How long the untraced repetitions are measured.
    pub seconds: f64,
    /// Whether to collect the per-layer metrics.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operation executions: scenario runs in `paper_grid`, whole runs in
    /// the single-run workloads (untraced repetitions, the traced run and,
    /// when tracing, the untraced replay).
    pub attempted: u64,
    /// Executions that panicked, failed a digest or accounting check, or
    /// disagreed with the reference untraced output.
    pub failed: u64,
    /// The end-to-end metrics, measured untraced.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (only when tracing).
    pub per_layer: Vec<Metric>,
    /// Sample counts, recorded settings and failure details.
    pub notes: Vec<String>,
}

impl Report {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= MAX_FAILURE_NOTES {
                self.notes.push(format!("FAILED: {why}"));
            }
        }
    }
}

/// Run one workload as `options` say.
pub fn run(options: &Options) -> Report {
    match options.workload {
        Workload::PaperGrid => run_grid(options),
        Workload::OpenLoopCycle25 => {
            run_single(options, workloads::open_loop_cycle25(options.seed))
        }
        Workload::StaleGossipSf300 => {
            run_single(options, workloads::stale_gossip_sf300(options.seed))
        }
    }
}

/// Satisfied, unsatisfied, dropped and fidelity-rejected requests must add
/// up to the requests that arrived.
pub fn check_accounting(metrics: &RunMetrics) -> Result<(), String> {
    let settled = metrics.satisfied_count() as u64
        + metrics.unsatisfied_requests
        + metrics.dropped_requests
        + metrics.fidelity_rejected_requests;
    if settled == metrics.arrived_requests {
        Ok(())
    } else {
        Err(format!(
            "{settled} requests settled but {} arrived",
            metrics.arrived_requests
        ))
    }
}

fn panicked<T>(outcome: std::thread::Result<T>, what: &str) -> Result<T, String> {
    outcome.map_err(|_| format!("{what} panicked"))
}

fn list(samples: &[f64]) -> String {
    let shown: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    shown.join(" ")
}

/// Medians of the set-up repetitions; every field sums over the
/// workload's worlds.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    /// World construction plus restaging, at the reference host speed:
    /// `setup_s`.
    total_s: f64,
    /// The same in host seconds.
    raw_total_s: f64,
    graph_s: f64,
    oracle_s: f64,
    edge_index_s: f64,
    world_s: f64,
    /// Peak RSS after the first burst, before any run.
    rss_mb: f64,
}

/// Set-up times of every repetition so far: world construction plus
/// restaging, and the graph, path oracle, edge index and world
/// construction on their own, each summed over the workload's worlds.
#[derive(Debug, Default)]
struct SetupSamples {
    series: [Vec<f64>; 5],
    /// `series[0]` at the reference host speed, for every burst rescaled
    /// so far.
    total_scaled: Vec<f64>,
    rss_mb: f64,
}

impl SetupSamples {
    /// Build every world of `configs`, and each one's graph, path oracle
    /// and edge index on their own, repeatedly for at least `min_time`.
    fn burst(&mut self, configs: &[ExperimentConfig], min_time: Duration) {
        let started = Instant::now();
        loop {
            let mut sums = [0.0; 5];
            for config in configs {
                let t0 = Instant::now();
                let graph = black_box(config.network.build_graph());
                let t1 = Instant::now();
                black_box(PathOracle::new(&graph));
                let t2 = Instant::now();
                black_box(EdgeIndex::new(&graph));
                let t3 = Instant::now();
                let mut staged = replay::stage(config);
                let t4 = Instant::now();
                let mut queue = EventQueue::new();
                replay::restage(&mut staged.staging, &mut queue);
                let t5 = Instant::now();
                black_box((staged.world, queue));
                sums[0] += (t5 - t3).as_secs_f64();
                sums[1] += (t1 - t0).as_secs_f64();
                sums[2] += (t2 - t1).as_secs_f64();
                sums[3] += (t3 - t2).as_secs_f64();
                sums[4] += (t4 - t3).as_secs_f64();
            }
            for (series, sum) in self.series.iter_mut().zip(sums) {
                series.push(sum);
            }
            if started.elapsed() >= min_time {
                break;
            }
        }
        if self.rss_mb == 0.0 {
            self.rss_mb = peak_rss_mb();
        }
    }

    /// Rescale the totals not rescaled yet by the host-speed `factor` of
    /// the block they were measured in.
    fn rescale(&mut self, factor: f64) {
        let done = self.total_scaled.len();
        self.total_scaled
            .extend(self.series[0][done..].iter().map(|s| s * factor));
    }

    fn medians(&self) -> Setup {
        Setup {
            total_s: median(&self.total_scaled),
            raw_total_s: median(&self.series[0]),
            graph_s: median(&self.series[1]),
            oracle_s: median(&self.series[2]),
            edge_index_s: median(&self.series[3]),
            world_s: median(&self.series[4]),
            rss_mb: self.rss_mb,
        }
    }
}

/// Simulated counters summed over the traced runs' results.
#[derive(Debug, Clone, Copy, Default)]
struct ResultTotals {
    pairs_generated: u64,
    pairs_expired: u64,
    count_update_msgs: u64,
    satisfied: u64,
}

impl ResultTotals {
    fn add(&mut self, result: &ExperimentResult) {
        self.pairs_generated += result.metrics.pairs_generated;
        self.pairs_expired += result.metrics.expired_pairs;
        self.count_update_msgs += result.metrics.classical.count_update_messages;
        self.satisfied += result.metrics.satisfied_count() as u64;
    }
}

/// Host times of the campaign layer (`paper_grid` only): medians over the
/// measured passes, and percentiles over every scenario of every pass.
#[derive(Debug, Clone, Copy, Default)]
struct CampaignTimes {
    run_s: f64,
    aggregate_s: f64,
    report_s: f64,
    runner_overhead_s: f64,
    scenario_p50_ms: f64,
    scenario_p99_ms: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The host seconds behind the rescaled end-to-end times, and the
/// host-speed probe's median reading.
#[derive(Debug, Clone, Copy, Default)]
struct HostTimes {
    probe_s: f64,
    wall_raw_s: f64,
    setup_raw_s: f64,
}

impl HostTimes {
    fn new(speed: &HostSpeed, walls: &Walls, setup: &Setup) -> Self {
        HostTimes {
            probe_s: median(speed.readings()),
            wall_raw_s: median(&walls.raw),
            setup_raw_s: setup.raw_total_s,
        }
    }
}

/// Host time of each measured repetition, and the same at the reference
/// host speed.
#[derive(Debug, Default)]
struct Walls {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Walls {
    fn push(&mut self, raw_s: f64, factor: f64) {
        self.raw.push(raw_s);
        self.scaled.push(raw_s * factor);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }
}

fn end_to_end(walls_s: &[f64], setup: &Setup, peak_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", median(walls_s), "s"),
        metric("setup_s", setup.total_s, "s"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ]
}

fn per_layer(
    trace: &LayerTrace,
    replay_times: &PhaseTimes,
    totals: &ResultTotals,
    setup: &Setup,
    campaign: &CampaignTimes,
    host: &HostTimes,
) -> Vec<Metric> {
    let events = trace.events as f64;
    let mut out = vec![
        metric("sim.events", events, "count"),
        metric("sim.pop_s", trace.pop_s, "s"),
        metric("sim.pop_ns", ratio(trace.pop_s * 1e9, events), "ns"),
        metric("sim.queue_peak", trace.queue_peak as f64, "count"),
        metric(
            "sim.events_per_s",
            ratio(events, replay_times.loop_s),
            "1/s",
        ),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        out.push(metric(
            format!("net.{kind}.n"),
            trace.kind_n[k] as f64,
            "count",
        ));
        out.push(metric(format!("net.{kind}.s"), trace.kind_s[k], "s"));
    }
    let balancing = (trace.swaps - trace.repair_swaps) as f64;
    let scans = trace.kind_n[1] as f64;
    let executes = trace.kind_n[6] as f64;
    out.extend([
        metric("balancer.swaps", balancing, "count"),
        metric("balancer.swap_yield", ratio(balancing, scans), "ratio"),
        metric(
            "inventory.pairs_generated",
            totals.pairs_generated as f64,
            "count",
        ),
        metric(
            "inventory.pairs_expired",
            totals.pairs_expired as f64,
            "count",
        ),
        metric(
            "control.count_update_msgs",
            totals.count_update_msgs as f64,
            "count",
        ),
        metric("control.swaps_missed", trace.missed_swaps as f64, "count"),
        metric(
            "control.miss_ratio",
            ratio(trace.missed_swaps as f64, executes),
            "ratio",
        ),
        metric(
            "control.stale_decisions",
            trace.stale_decisions as f64,
            "count",
        ),
        metric("recorder.finish_s", trace.finish_s, "s"),
        metric("recorder.satisfied", totals.satisfied as f64, "count"),
        metric("setup.graph_s", setup.graph_s, "s"),
        metric("setup.oracle_s", setup.oracle_s, "s"),
        metric("setup.edge_index_s", setup.edge_index_s, "s"),
        metric("setup.world_s", setup.world_s, "s"),
        metric("setup.rss_mb", setup.rss_mb, "MB"),
        metric("campaign.run_s", campaign.run_s, "s"),
        metric("campaign.aggregate_s", campaign.aggregate_s, "s"),
        metric("campaign.report_s", campaign.report_s, "s"),
        metric(
            "campaign.runner_overhead_s",
            campaign.runner_overhead_s,
            "s",
        ),
        metric("campaign.scenario_p50_ms", campaign.scenario_p50_ms, "ms"),
        metric("campaign.scenario_p99_ms", campaign.scenario_p99_ms, "ms"),
        metric(
            "trace.overhead_ratio",
            ratio(
                trace.loop_s + trace.finish_s,
                replay_times.loop_s + replay_times.finish_s,
            ),
            "ratio",
        ),
        metric("trace.accounted_ratio", trace.accounted_ratio(), "ratio"),
        metric("host.probe_s", host.probe_s, "s"),
        metric("host.wall_raw_s", host.wall_raw_s, "s"),
        metric("host.setup_raw_s", host.setup_raw_s, "s"),
    ]);
    out
}

/// A single-run workload: the operation is the whole run.
fn run_single(options: &Options, config: ExperimentConfig) -> Report {
    let mut report = Report::default();
    let pinned = options.workload.pinned_digest(options.seed);
    let configs = std::slice::from_ref(&config);
    let mut speed = HostSpeed::start();
    let mut setup = SetupSamples::default();
    setup.burst(configs, FIRST_SETUP_BURST);
    setup.rescale(speed.rescale());

    // Measured, untraced: `Experiment::run` to a serialized, checked result.
    let mut reference: Option<(ExperimentResult, String)> = None;
    let mut walls = Walls::default();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < options.seconds {
        let t0 = Instant::now();
        let outcome = panicked(
            catch_unwind(|| Experiment::new(config).run()),
            "untraced run",
        )
        .and_then(|result| {
            let json = serde_json::to_string(&result).expect("results serialize");
            let d = digest(json.as_bytes());
            check_digest(&d, pinned)?;
            check_accounting(&result.metrics)?;
            match &reference {
                Some((_, first)) if *first != d => Err(format!(
                    "untraced digest {d} differs from the first run's {first}"
                )),
                Some(_) => Ok(()),
                None => {
                    reference = Some((result, d));
                    Ok(())
                }
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        report.record(outcome);
        setup.burst(configs, SETUP_BURST);
        let factor = speed.rescale();
        walls.push(wall_s, factor);
        setup.rescale(factor);
    }
    let peak_mb = peak_rss_mb();
    let setup = setup.medians();
    let host = HostTimes::new(&speed, &walls, &setup);
    report.notes.push(format!(
        "{} untraced runs, host seconds: {}",
        walls.len(),
        list(&walls.raw)
    ));
    report.notes.push(format!(
        "at the reference host speed: {}",
        list(&walls.scaled)
    ));
    if let Some((_, d)) = &reference {
        report.notes.push(format!(
            "output digest {d} ({})",
            if pinned.is_some() {
                "pinned, checked"
            } else {
                "no digest pinned at this seed"
            }
        ));
    }
    report.end_to_end = end_to_end(&walls.scaled, &setup, peak_mb);

    let same_as_reference = |result: &ExperimentResult, what: &str| match &reference {
        Some((first, _)) if first != result => {
            Err(format!("{what} result differs from the untraced run"))
        }
        _ => check_accounting(&result.metrics),
    };

    let traced = catch_unwind(|| replay::traced(&config));
    let trace = match panicked(traced, "traced run") {
        Ok((result, trace)) => {
            report.record(same_as_reference(&result, "traced"));
            let mut totals = ResultTotals::default();
            totals.add(&result);
            Some((trace, totals))
        }
        Err(why) => {
            report.record(Err(why));
            None
        }
    };

    if options.trace {
        let replayed = panicked(
            catch_unwind(|| replay::untraced(&config)),
            "untraced replay",
        );
        match (replayed, trace) {
            (Ok((result, times)), Some((trace, totals))) => {
                report.record(same_as_reference(&result, "untraced replay"));
                report.per_layer = per_layer(
                    &trace,
                    &times,
                    &totals,
                    &setup,
                    &CampaignTimes::default(),
                    &host,
                );
            }
            (replayed, _) => report.record(replayed.map(|_| ())),
        }
    }
    report
}

/// Check that [`workloads::paper_grid`] still expands to the campaign
/// CLI's default grid at the default seed.
fn check_grid_fingerprint(options: &Options) -> Result<(), String> {
    if options.seed != options.workload.default_seed() {
        return Ok(());
    }
    let actual = workloads::paper_grid(options.seed, DEFAULT_GRID_REPLICATES)
        .fingerprint()
        .to_hex();
    if actual == DEFAULT_GRID_FINGERPRINT {
        Ok(())
    } else {
        Err(format!(
            "default grid fingerprint {actual} differs from {DEFAULT_GRID_FINGERPRINT}"
        ))
    }
}

/// One serial campaign pass: outcomes, report digest, per-scenario gaps
/// and stage times.
struct GridPass {
    outcomes: Vec<ScenarioOutcome>,
    digest: String,
    gaps_ms: Vec<f64>,
    run_s: f64,
    aggregate_s: f64,
    report_s: f64,
}

fn grid_pass(grid: &ScenarioGrid, ids: &[usize]) -> GridPass {
    let mut gaps_ms = Vec::with_capacity(ids.len());
    let t0 = Instant::now();
    let mut last = t0;
    let result = run_scenarios_streaming(grid, &RunnerConfig::serial(), ids, None, |_| {
        let now = Instant::now();
        gaps_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
    })
    .expect("cacheless runs perform no I/O");
    let t1 = Instant::now();
    let report = aggregate(grid, &result);
    let t2 = Instant::now();
    let jsonl = to_jsonl_string(&report);
    let t3 = Instant::now();
    GridPass {
        outcomes: result.outcomes,
        digest: digest(jsonl.as_bytes()),
        gaps_ms,
        run_s: (t1 - t0).as_secs_f64(),
        aggregate_s: (t2 - t1).as_secs_f64(),
        report_s: (t3 - t2).as_secs_f64(),
    }
}

fn outcome_accounting(outcome: &ScenarioOutcome) -> Result<(), String> {
    let settled = outcome.satisfied_requests as u64
        + outcome.unsatisfied_requests
        + outcome.fidelity_rejected;
    if settled == outcome.arrived_requests {
        Ok(())
    } else {
        Err(format!(
            "scenario {}: {settled} requests settled but {} arrived",
            outcome.id, outcome.arrived_requests
        ))
    }
}

/// `paper_grid`: the operation is one scenario; a pass runs them all on
/// the serial campaign runner and writes the JSONL report.
fn run_grid(options: &Options) -> Report {
    let mut report = Report::default();
    let grid = workloads::paper_grid(options.seed, workloads::PAPER_GRID_REPLICATES);
    let scenarios: Vec<_> = grid.scenarios().collect();
    let configs: Vec<ExperimentConfig> = scenarios.iter().map(|s| s.config).collect();
    let ids: Vec<usize> = (0..scenarios.len()).collect();
    let pinned = options.workload.pinned_digest(options.seed);
    let fingerprint = check_grid_fingerprint(options);
    let mut speed = HostSpeed::start();
    let mut setup = SetupSamples::default();
    setup.burst(&configs, FIRST_SETUP_BURST);
    setup.rescale(speed.rescale());

    let mut reference: Option<(Vec<ScenarioOutcome>, String)> = None;
    let (mut walls, mut gaps_ms) = (Walls::default(), Vec::new());
    let mut stages: [Vec<f64>; 3] = Default::default();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < options.seconds {
        let t0 = Instant::now();
        let pass = match panicked(catch_unwind(|| grid_pass(&grid, &ids)), "campaign pass") {
            Ok(pass) => pass,
            Err(why) => {
                report.attempted += ids.len() as u64;
                report.failed += ids.len() as u64;
                report.notes.push(format!("FAILED: {why}"));
                break;
            }
        };
        let whole = check_digest(&pass.digest, pinned).and(fingerprint.clone());
        let mut checks: Vec<Result<(), String>> = Vec::with_capacity(ids.len());
        for outcome in &pass.outcomes {
            let check = whole.clone().and_then(|()| outcome_accounting(outcome));
            checks.push(check.and_then(|()| match &reference {
                Some((first, _)) if first[outcome.id] != *outcome => Err(format!(
                    "scenario {} differs from the first pass",
                    outcome.id
                )),
                _ => Ok(()),
            }));
        }
        if let Some((_, first)) = &reference {
            if *first != pass.digest {
                checks.fill(Err(format!(
                    "report digest {} differs from the first pass's {first}",
                    pass.digest
                )));
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        for check in checks {
            report.record(check);
        }
        // Kept only when they are reported: the growing list would
        // otherwise count in `peak_rss_mb`.
        if options.trace {
            gaps_ms.extend_from_slice(&pass.gaps_ms);
        }
        stages[0].push(pass.run_s);
        stages[1].push(pass.aggregate_s);
        stages[2].push(pass.report_s);
        if reference.is_none() {
            reference = Some((pass.outcomes, pass.digest));
        }
        setup.burst(&configs, SETUP_BURST);
        let factor = speed.rescale();
        walls.push(wall_s, factor);
        setup.rescale(factor);
    }
    let peak_mb = peak_rss_mb();
    let setup = setup.medians();
    let host = HostTimes::new(&speed, &walls, &setup);
    report.notes.push(format!(
        "{} campaign passes of {} scenarios, host seconds: {}",
        walls.len(),
        ids.len(),
        list(&walls.raw)
    ));
    report.notes.push(format!(
        "at the reference host speed: {}",
        list(&walls.scaled)
    ));
    if options.trace {
        report.notes.push(format!(
            "campaign.scenario_p50_ms/_p99_ms over {} scenario gaps",
            gaps_ms.len()
        ));
    }
    if let Some((_, d)) = &reference {
        report.notes.push(format!(
            "report digest {d} ({})",
            if pinned.is_some() {
                "pinned, checked"
            } else {
                "no digest pinned at this seed"
            }
        ));
    }
    report.end_to_end = end_to_end(&walls.scaled, &setup, peak_mb);
    if reference.is_none() {
        return report;
    }

    // Each scenario once more through `Experiment::run`, the traced replay
    // and, when tracing, the untraced replay: all three must agree.
    let mut trace = LayerTrace::default();
    let mut totals = ResultTotals::default();
    let mut replay_times = PhaseTimes::default();
    let mut direct_s = 0.0;
    for config in &configs {
        let t0 = Instant::now();
        let untraced = catch_unwind(|| Experiment::new(*config).run());
        direct_s += t0.elapsed().as_secs_f64();
        let untraced = match panicked(untraced, "untraced scenario") {
            Ok(result) => result,
            Err(why) => {
                report.record(Err(why));
                continue;
            }
        };
        let agrees = |result: &ExperimentResult, what: &str| {
            check_accounting(&result.metrics)?;
            if *result == untraced {
                Ok(())
            } else {
                Err(format!(
                    "{what} result of seed {} differs from the untraced run",
                    config.seed
                ))
            }
        };
        let traced = panicked(catch_unwind(|| replay::traced(config)), "traced scenario");
        report.record(traced.and_then(|(result, t)| {
            trace.add(&t);
            totals.add(&result);
            agrees(&result, "traced")
        }));
        if options.trace {
            let replayed = panicked(catch_unwind(|| replay::untraced(config)), "untraced replay");
            report.record(replayed.and_then(|(result, times)| {
                replay_times.loop_s += times.loop_s;
                replay_times.finish_s += times.finish_s;
                agrees(&result, "untraced replay")
            }));
        }
    }

    if options.trace {
        let run_s = median(&stages[0]);
        let campaign = CampaignTimes {
            run_s,
            aggregate_s: median(&stages[1]),
            report_s: median(&stages[2]),
            runner_overhead_s: run_s - direct_s,
            scenario_p50_ms: quantile(&gaps_ms, 0.50),
            scenario_p99_ms: quantile(&gaps_ms, 0.99),
        };
        report.per_layer = per_layer(&trace, &replay_times, &totals, &setup, &campaign, &host);
    }
    report
}
