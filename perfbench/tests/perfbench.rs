//! The benchmark's own checks, on configurations small enough for a debug
//! build: its counters repeat, its traced replay reproduces the simulator,
//! and its correctness gates reject wrong output.

use perfbench::bench::check_accounting;
use perfbench::host::{probe_in_child, rescale_factor, REFERENCE_PROBE_S};
use perfbench::measure::{check_digest, digest, quantile};
use perfbench::replay::{self, KINDS};
use perfbench::workloads::{self, Workload, DEFAULT_GRID_FINGERPRINT, DEFAULT_GRID_REPLICATES};
use qnet_core::classical::KnowledgeModel;
use qnet_core::experiment::{Experiment, ExperimentConfig};
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_core::NetworkConfig;
use qnet_topology::Topology;

fn closed_loop() -> ExperimentConfig {
    ExperimentConfig {
        network: NetworkConfig::new(Topology::Cycle { nodes: 7 }),
        workload: WorkloadSpec::closed_loop(7, 6, 10),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed: 5,
        max_sim_time_s: 2_000.0,
    }
}

fn stale_open_loop() -> ExperimentConfig {
    ExperimentConfig {
        network: NetworkConfig::new(Topology::Cycle { nodes: 12 }),
        workload: WorkloadSpec::open_loop(12, 6, 5.0, 20.0),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.25,
        },
        seed: 3,
        max_sim_time_s: 20.0,
    }
}

#[test]
fn deterministic_counters_repeat_exactly() {
    for config in [closed_loop(), stale_open_loop()] {
        let (first_result, a) = replay::traced(&config);
        let (second_result, b) = replay::traced(&config);
        assert_eq!(first_result, second_result);
        assert!(a.events > 0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.kind_n, b.kind_n);
        assert_eq!(a.kind_n.iter().sum::<u64>(), a.events);
        assert_eq!(a.queue_peak, b.queue_peak);
        assert_eq!(
            (a.swaps, a.repair_swaps, a.missed_swaps, a.stale_decisions),
            (b.swaps, b.repair_swaps, b.missed_swaps, b.stale_decisions)
        );
    }
    // The stale plane's own event kinds fire only under gossip knowledge.
    let (_, stale) = replay::traced(&stale_open_loop());
    let gossip = KINDS.iter().position(|k| *k == "gossip_exchange").unwrap();
    assert!(stale.kind_n[gossip] > 0);
    let (_, global) = replay::traced(&closed_loop());
    assert_eq!(global.kind_n[gossip], 0);
}

#[test]
fn traced_and_replayed_runs_equal_the_simulator() {
    for config in [closed_loop(), stale_open_loop()] {
        let expected = Experiment::new(config).run();
        let (traced, trace) = replay::traced(&config);
        assert_eq!(traced, expected);
        assert!(trace.accounted_ratio() > 0.0 && trace.accounted_ratio() <= 1.0);
        let (replayed, _) = replay::untraced(&config);
        assert_eq!(replayed, expected);
        check_accounting(&expected.metrics).unwrap();
    }
}

#[test]
fn digest_check_rejects_a_wrong_digest() {
    let result = Experiment::new(closed_loop()).run();
    let actual = digest(serde_json::to_string(&result).unwrap().as_bytes());
    assert!(check_digest(&actual, Some(&actual)).is_ok());
    assert!(check_digest(&actual, None).is_ok());
    let err = check_digest(&actual, Some("0000000000000000")).unwrap_err();
    assert!(err.contains("differs from the pinned"), "{err}");
}

#[test]
fn accounting_check_rejects_a_lost_request() {
    let mut metrics = Experiment::new(closed_loop()).run().metrics;
    check_accounting(&metrics).unwrap();
    metrics.arrived_requests += 1;
    assert!(check_accounting(&metrics).is_err());
}

#[test]
fn paper_grid_is_the_campaign_default_grid() {
    let grid = workloads::paper_grid(Workload::PaperGrid.default_seed(), DEFAULT_GRID_REPLICATES);
    assert_eq!(grid.fingerprint().to_hex(), DEFAULT_GRID_FINGERPRINT);
    assert_eq!(grid.scenario_count(), 108);
    let full = workloads::paper_grid(1, workloads::PAPER_GRID_REPLICATES);
    assert_eq!(full.scenario_count(), 1080);
}

#[test]
fn digests_are_pinned_only_at_the_default_seed() {
    for workload in workloads::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
        assert!(workload.pinned_digest(workload.default_seed()).is_some());
        assert!(workload
            .pinned_digest(workload.default_seed() + 1)
            .is_none());
    }
}

#[test]
fn quantiles_are_nearest_rank() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&samples, 0.5), 50.0);
    assert_eq!(quantile(&samples, 0.99), 99.0);
    assert_eq!(quantile(&[3.0], 0.99), 3.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

#[test]
fn host_probe_runs_in_a_child_and_rescales_to_the_reference() {
    let probe_s = probe_in_child(std::path::Path::new(env!("CARGO_BIN_EXE_perfbench"))).unwrap();
    assert!(probe_s > 0.0 && probe_s.is_finite());
    assert_eq!(rescale_factor(REFERENCE_PROBE_S, REFERENCE_PROBE_S), 1.0);
    // A host running at half speed halves the reference seconds per host second.
    let slow = 2.0 * REFERENCE_PROBE_S;
    assert_eq!(rescale_factor(slow, slow), 0.5);
    assert_eq!(
        rescale_factor(REFERENCE_PROBE_S, 3.0 * REFERENCE_PROBE_S),
        0.5
    );
}
