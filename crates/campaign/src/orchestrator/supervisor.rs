//! The supervision loop behind [`super::orchestrate`] / [`super::resume`].
//!
//! One single-threaded poll loop owns every worker: spawn pending shards,
//! tail progress files (growth = heartbeat, records = observability), reap
//! exits, validate-and-seal shard files, kill and respawn the dead or
//! stalled, and live-merge sealed shards into the partial report. All
//! decisions are taken from on-disk state, which is what makes a killed
//! *orchestrator* resumable too: the run directory is the only memory.

use super::events::{parse_progress_line, EventLog, ProgressBody, ProgressEvent};
use super::{InjectAbort, OrchestrateReport, OrchestratorConfig, RunDir};
use crate::cache::OutcomeCache;
use crate::grid::ScenarioGrid;
use crate::report::{aggregate, aggregate_covered, to_jsonl_string};
use crate::runner::OutcomeSource;
use crate::shard::{merge_shards, read_shard, ShardFile, ShardSpec};
use serde_json::Value;
use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One running worker subprocess and its heartbeat state.
struct Worker {
    child: Child,
    attempt: u32,
    progress_path: PathBuf,
    /// Bytes of the progress file already parsed (complete lines only).
    parsed: usize,
    /// Progress-file size at the last poll (growth = heartbeat).
    last_size: usize,
    /// When the progress file last grew (or the worker spawned).
    last_activity: Instant,
}

impl Worker {
    /// Parse the complete lines appended since the last poll. Returns the
    /// new events and whether the file grew (the liveness signal). A torn
    /// final line is left unconsumed for the next poll.
    fn drain(&mut self) -> (Vec<ProgressEvent>, bool) {
        let text = match fs::read_to_string(&self.progress_path) {
            Ok(text) => text,
            Err(_) => return (Vec::new(), false),
        };
        let grew = text.len() > self.last_size;
        self.last_size = text.len();
        if grew {
            self.last_activity = Instant::now();
        }
        if text.len() <= self.parsed {
            return (Vec::new(), grew);
        }
        let fresh = &text[self.parsed..];
        let mut events = Vec::new();
        if let Some(last_newline) = fresh.rfind('\n') {
            for line in fresh[..last_newline].split('\n') {
                if let Some(event) = parse_progress_line(line) {
                    events.push(event);
                }
            }
            self.parsed += last_newline + 1;
        }
        (events, grew)
    }
}

enum State {
    Pending,
    Running(Worker),
    Sealed,
    Failed(String),
}

/// Per-shard supervision state.
struct Slot {
    spec: ShardSpec,
    /// Scenarios this shard owns.
    scenarios: usize,
    state: State,
    /// Spawns consumed this run (bounded by `max_attempts`).
    attempts: u32,
    /// Scenario events observed in the current attempt.
    simulated: usize,
    cache_hits: usize,
}

impl Slot {
    fn done(&self) -> usize {
        match self.state {
            State::Sealed => self.scenarios,
            _ => self.simulated + self.cache_hits,
        }
    }
}

fn u64_field(name: &str, value: u64) -> (String, Value) {
    (name.to_string(), Value::U64(value))
}

fn str_field(name: &str, value: &str) -> (String, Value) {
    (name.to_string(), Value::Str(value.to_string()))
}

/// Highest attempt number that already has a progress file for `index`
/// (0 if none) — resumed runs continue the numbering instead of
/// overwriting a dead run's evidence.
fn last_attempt_on_disk(layout: &RunDir, index: usize) -> u32 {
    let prefix = format!("shard-{index}.attempt-");
    let mut max = 0;
    if let Ok(entries) = fs::read_dir(layout.progress_dir()) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(k) = rest
                    .strip_suffix(".jsonl")
                    .and_then(|k| k.parse::<u32>().ok())
                {
                    max = max.max(k);
                }
            }
        }
    }
    max
}

/// Validate a shard file's text against the run's grid and shard spec.
fn validate_shard(text: &str, grid: &ScenarioGrid, spec: ShardSpec) -> Result<ShardFile, String> {
    let shard = read_shard(text)?;
    if shard.spec != spec {
        return Err(format!(
            "file holds shard {} but shard {spec} was expected",
            shard.spec
        ));
    }
    if shard.fingerprint != grid.fingerprint() {
        return Err(format!(
            "shard ran grid {} but this run is grid {}",
            shard.fingerprint,
            grid.fingerprint()
        ));
    }
    Ok(shard)
}

/// Validate the worker's `.partial` file and rename it to the sealed name.
/// Rename-after-validate keeps the invariant that a sealed shard file is
/// always complete and well-formed.
fn seal_partial(
    layout: &RunDir,
    grid: &ScenarioGrid,
    spec: ShardSpec,
) -> Result<ShardFile, String> {
    let partial = layout.shard_partial(spec.index);
    let text = fs::read_to_string(&partial)
        .map_err(|e| format!("shard {} left no readable shard file: {e}", spec.index))?;
    let shard = validate_shard(&text, grid, spec)?;
    fs::rename(&partial, layout.shard_sealed(spec.index))
        .map_err(|e| format!("cannot seal shard {}: {e}", spec.index))?;
    Ok(shard)
}

/// Spawn one worker subprocess for `slot`'s shard.
fn spawn_worker(
    binary: &PathBuf,
    grid_threads: usize,
    layout: &RunDir,
    slot: &Slot,
    attempt: u32,
    inject: Option<InjectAbort>,
) -> Result<Worker, String> {
    let progress_path = layout.progress_file(slot.spec.index, attempt);
    let partial = layout.shard_partial(slot.spec.index);
    // A fresh attempt starts from a clean slate; finished work lives in
    // the cache, not in the half-written files of a dead predecessor.
    let _ = fs::remove_file(&partial);
    let _ = fs::remove_file(&progress_path);
    let mut cmd = Command::new(binary);
    cmd.arg("--grid-file")
        .arg(layout.grid_path())
        .arg("--shard")
        .arg(slot.spec.to_string())
        .arg("--cache-dir")
        .arg(layout.cache_dir())
        .arg("--threads")
        .arg(grid_threads.to_string())
        .arg("--progress")
        .arg(&progress_path)
        .arg("--out")
        .arg(&partial)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(inject) = inject {
        if inject.shard == slot.spec.index && attempt == 1 {
            cmd.arg("--worker-abort-after")
                .arg(inject.abort_after.to_string());
        }
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn worker for shard {}: {e}", slot.spec))?;
    Ok(Worker {
        child,
        attempt,
        progress_path,
        parsed: 0,
        last_size: 0,
        last_activity: Instant::now(),
    })
}

/// Rewrite `partial.jsonl` from the sealed shards so far.
fn write_partial_report(
    layout: &RunDir,
    grid: &ScenarioGrid,
    sealed: &[Option<ShardFile>],
) -> Result<(), String> {
    let outcomes: Vec<_> = sealed
        .iter()
        .flatten()
        .flat_map(|shard| shard.outcomes.iter().cloned())
        .collect();
    let report = aggregate_covered(grid, &outcomes);
    fs::write(layout.partial_report_path(), to_jsonl_string(&report))
        .map_err(|e| format!("cannot write partial report: {e}"))
}

/// The supervision loop. See the module docs for the state machine.
pub(super) fn run(
    grid: &ScenarioGrid,
    config: &OrchestratorConfig,
    layout: &RunDir,
    resuming: bool,
) -> Result<OrchestrateReport, String> {
    let scenario_count = grid.scenario_count();
    let binary = match &config.worker_binary {
        Some(path) => path.clone(),
        None => {
            std::env::current_exe().map_err(|e| format!("cannot locate the worker binary: {e}"))?
        }
    };
    let mut log = if resuming {
        EventLog::append(&layout.events_path())
    } else {
        EventLog::create(&layout.events_path())
    }
    .map_err(|e| format!("cannot open events.jsonl: {e}"))?;
    let emit_err = |e: std::io::Error| format!("cannot write events.jsonl: {e}");

    let mut slots: Vec<Slot> = (0..config.workers)
        .map(|index| {
            let spec = ShardSpec::new(index, config.workers).expect("index < workers");
            Slot {
                spec,
                scenarios: spec.ids(scenario_count).len(),
                state: State::Pending,
                attempts: 0,
                simulated: 0,
                cache_hits: 0,
            }
        })
        .collect();
    let mut sealed_files: Vec<Option<ShardFile>> = (0..config.workers).map(|_| None).collect();
    let mut retries = 0u32;
    let mut total_simulated = 0usize;
    let mut total_cache_hits = 0usize;

    log.emit(
        if resuming {
            "run-resumed"
        } else {
            "run-started"
        },
        vec![
            u64_field("workers", config.workers as u64),
            u64_field("scenarios", scenario_count as u64),
            str_field("fingerprint", &grid.fingerprint().to_hex()),
        ],
    )
    .map_err(emit_err)?;

    // Resume scan: keep valid sealed shards, seal valid leftovers, respawn
    // the rest. Anything invalid is deleted and recomputed from the cache.
    if resuming {
        for slot in &mut slots {
            let index = slot.spec.index;
            let sealed_path = layout.shard_sealed(index);
            if let Ok(text) = fs::read_to_string(&sealed_path) {
                match validate_shard(&text, grid, slot.spec) {
                    Ok(shard) => {
                        sealed_files[index] = Some(shard);
                        slot.state = State::Sealed;
                        log.emit(
                            "shard-recovered",
                            vec![
                                u64_field("shard", index as u64),
                                str_field("from", "sealed"),
                            ],
                        )
                        .map_err(emit_err)?;
                        continue;
                    }
                    Err(reason) => {
                        let _ = fs::remove_file(&sealed_path);
                        log.emit(
                            "shard-invalid",
                            vec![
                                u64_field("shard", index as u64),
                                str_field("reason", &reason),
                            ],
                        )
                        .map_err(emit_err)?;
                    }
                }
            }
            if layout.shard_partial(index).exists() {
                match seal_partial(layout, grid, slot.spec) {
                    Ok(shard) => {
                        sealed_files[index] = Some(shard);
                        slot.state = State::Sealed;
                        log.emit(
                            "shard-recovered",
                            vec![
                                u64_field("shard", index as u64),
                                str_field("from", "partial"),
                            ],
                        )
                        .map_err(emit_err)?;
                    }
                    Err(reason) => {
                        let _ = fs::remove_file(layout.shard_partial(index));
                        log.emit(
                            "shard-invalid",
                            vec![
                                u64_field("shard", index as u64),
                                str_field("reason", &reason),
                            ],
                        )
                        .map_err(emit_err)?;
                    }
                }
            }
        }
        write_partial_report(layout, grid, &sealed_files)?;
    }

    let started = Instant::now();
    let mut last_line = String::new();
    loop {
        // Spawn every pending shard that still has attempts left.
        for slot in &mut slots {
            if !matches!(slot.state, State::Pending) {
                continue;
            }
            if slot.attempts >= config.max_attempts {
                let reason = format!(
                    "shard {} exhausted its {} attempt(s)",
                    slot.spec, config.max_attempts
                );
                log.emit(
                    "shard-failed",
                    vec![
                        u64_field("shard", slot.spec.index as u64),
                        str_field("reason", &reason),
                    ],
                )
                .map_err(emit_err)?;
                slot.state = State::Failed(reason);
                continue;
            }
            let attempt = last_attempt_on_disk(layout, slot.spec.index) + 1;
            slot.attempts += 1;
            if slot.attempts > 1 {
                retries += 1;
            }
            slot.simulated = 0;
            slot.cache_hits = 0;
            match spawn_worker(
                &binary,
                config.worker_threads.max(1),
                layout,
                slot,
                attempt,
                config.inject_abort,
            ) {
                Ok(worker) => {
                    log.emit(
                        "worker-spawned",
                        vec![
                            u64_field("shard", slot.spec.index as u64),
                            u64_field("attempt", attempt as u64),
                            u64_field("scenarios", slot.scenarios as u64),
                        ],
                    )
                    .map_err(emit_err)?;
                    slot.state = State::Running(worker);
                }
                Err(reason) => {
                    log.emit(
                        "worker-spawn-failed",
                        vec![
                            u64_field("shard", slot.spec.index as u64),
                            str_field("reason", &reason),
                        ],
                    )
                    .map_err(emit_err)?;
                    // Stays Pending; the attempt was consumed, so this
                    // terminates in shard-failed once attempts run out.
                }
            }
        }

        // Poll every running worker: forward progress, reap exits, enforce
        // the heartbeat.
        let mut newly_sealed = false;
        for slot in &mut slots {
            let State::Running(worker) = &mut slot.state else {
                continue;
            };
            let index = slot.spec.index;
            let attempt = worker.attempt;
            let (events, _) = worker.drain();
            for event in &events {
                match &event.body {
                    ProgressBody::ShardClaimed { .. } => {
                        log.emit(
                            "shard-claimed",
                            vec![
                                u64_field("shard", index as u64),
                                u64_field("attempt", attempt as u64),
                            ],
                        )
                        .map_err(emit_err)?;
                    }
                    ProgressBody::Scenario { id, source } => {
                        match source {
                            OutcomeSource::Simulated => slot.simulated += 1,
                            OutcomeSource::CacheHit => slot.cache_hits += 1,
                        }
                        log.emit(
                            "scenario",
                            vec![
                                u64_field("shard", index as u64),
                                u64_field("id", *id as u64),
                                str_field(
                                    "source",
                                    match source {
                                        OutcomeSource::Simulated => "simulated",
                                        OutcomeSource::CacheHit => "cache-hit",
                                    },
                                ),
                                u64_field("worker_seq", event.seq),
                            ],
                        )
                        .map_err(emit_err)?;
                    }
                    ProgressBody::ShardSealed { .. } => {
                        // The authoritative seal is the supervisor's
                        // validate+rename below.
                    }
                }
            }

            let failure: Option<String> = match worker.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    match seal_partial(layout, grid, slot.spec) {
                        Ok(shard) => {
                            total_simulated += slot.simulated;
                            total_cache_hits += slot.cache_hits;
                            sealed_files[index] = Some(shard);
                            log.emit(
                                "shard-sealed",
                                vec![
                                    u64_field("shard", index as u64),
                                    u64_field("attempt", attempt as u64),
                                    u64_field("simulated", slot.simulated as u64),
                                    u64_field("cache_hits", slot.cache_hits as u64),
                                ],
                            )
                            .map_err(emit_err)?;
                            // Counters moved into the run totals above.
                            slot.simulated = 0;
                            slot.cache_hits = 0;
                            slot.state = State::Sealed;
                            newly_sealed = true;
                            continue;
                        }
                        Err(reason) => Some(format!("worker exited cleanly but {reason}")),
                    }
                }
                Ok(Some(status)) => Some(match status.code() {
                    Some(code) => format!("worker exited with code {code}"),
                    None => "worker was killed by a signal".to_string(),
                }),
                Ok(None) => {
                    if worker.last_activity.elapsed() > config.heartbeat_timeout {
                        let _ = worker.child.kill();
                        let _ = worker.child.wait();
                        Some(format!(
                            "no heartbeat for {:.0?}: worker presumed dead",
                            config.heartbeat_timeout
                        ))
                    } else {
                        None
                    }
                }
                Err(e) => Some(format!("cannot poll worker: {e}")),
            };

            if let Some(reason) = failure {
                log.emit(
                    "worker-lost",
                    vec![
                        u64_field("shard", index as u64),
                        u64_field("attempt", attempt as u64),
                        str_field("reason", &reason),
                    ],
                )
                .map_err(emit_err)?;
                // Back to Pending: the next loop iteration respawns (or
                // declares the shard failed once attempts are exhausted).
                slot.state = State::Pending;
            }
        }

        if newly_sealed {
            write_partial_report(layout, grid, &sealed_files)?;
        }

        // Human progress (stderr only — ETA and wall-clock never enter the
        // deterministic files).
        if !config.quiet {
            let done: usize = slots.iter().map(Slot::done).sum();
            let hits: usize = total_cache_hits + slots.iter().map(|s| s.cache_hits).sum::<usize>();
            let sealed = slots
                .iter()
                .filter(|s| matches!(s.state, State::Sealed))
                .count();
            let states: Vec<String> = slots
                .iter()
                .map(|s| match &s.state {
                    State::Pending => format!("{}:wait", s.spec.index),
                    State::Running(w) => format!(
                        "{}:run#{} {}/{}",
                        s.spec.index,
                        w.attempt,
                        s.done(),
                        s.scenarios
                    ),
                    State::Sealed => format!("{}:sealed", s.spec.index),
                    State::Failed(_) => format!("{}:FAILED", s.spec.index),
                })
                .collect();
            let elapsed = started.elapsed().as_secs_f64();
            let eta = if done > 0 && done < scenario_count {
                let rate = done as f64 / elapsed.max(1e-9);
                format!(" · ETA {:.0}s", (scenario_count - done) as f64 / rate)
            } else {
                String::new()
            };
            let line = format!(
                "orchestrate: {done}/{scenario_count} scenarios ({hits} cache hits) · \
                 sealed {sealed}/{} shards · [{}]{eta}",
                config.workers,
                states.join(" | "),
            );
            if line != last_line {
                eprintln!("{line}");
                last_line = line;
            }
        }

        let all_sealed = slots.iter().all(|s| matches!(s.state, State::Sealed));
        if all_sealed {
            break;
        }
        let any_live = slots
            .iter()
            .any(|s| matches!(s.state, State::Pending | State::Running(_)));
        if !any_live {
            // Only Sealed and Failed remain: the run is over and lost.
            let reasons: Vec<String> = slots
                .iter()
                .filter_map(|s| match &s.state {
                    State::Failed(reason) => Some(reason.clone()),
                    _ => None,
                })
                .collect();
            log.emit("run-failed", vec![str_field("reason", &reasons.join("; "))])
                .map_err(emit_err)?;
            return Err(format!(
                "{} (the run directory is resumable with --resume)",
                reasons.join("; ")
            ));
        }
        std::thread::sleep(config.poll_interval);
    }

    // Every shard sealed: the full-partition merge is the final (and
    // authoritative) validation pass.
    let shards: Vec<ShardFile> = sealed_files.into_iter().flatten().collect();
    let (merged_grid, result) = merge_shards(shards)?;
    if merged_grid.fingerprint() != grid.fingerprint() {
        return Err("merged grid does not match the run's grid".to_string());
    }
    // Every worker has exited, so nothing appends to the shared cache any
    // more: leave it in scenario-id order before the run is declared done.
    OutcomeCache::open(&layout.cache_dir(), grid)
        .and_then(|cache| cache.compact())
        .map_err(|e| format!("cannot compact the outcome cache: {e}"))?;
    let report = aggregate(&merged_grid, &result);
    let merged_jsonl = to_jsonl_string(&report);
    fs::write(layout.merged_path(), &merged_jsonl)
        .map_err(|e| format!("cannot write merged.jsonl: {e}"))?;
    // At full coverage the partial report equals the final one.
    fs::write(layout.partial_report_path(), &merged_jsonl)
        .map_err(|e| format!("cannot write partial report: {e}"))?;
    log.emit(
        "run-complete",
        vec![
            u64_field("scenarios", scenario_count as u64),
            u64_field("simulated", total_simulated as u64),
            u64_field("cache_hits", total_cache_hits as u64),
            u64_field("retries", retries as u64),
        ],
    )
    .map_err(emit_err)?;

    Ok(OrchestrateReport {
        merged_jsonl,
        scenarios: scenario_count,
        simulated: total_simulated,
        cache_hits: total_cache_hits,
        retries,
        sealed_shards: config.workers,
    })
}
