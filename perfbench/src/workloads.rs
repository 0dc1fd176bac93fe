//! The benchmark's workloads: each turns a seed into the configuration the
//! simulator receives, and pins the digest of its output at its default
//! seed.

use qnet_campaign::ScenarioGrid;
use qnet_core::classical::KnowledgeModel;
use qnet_core::experiment::ExperimentConfig;
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_core::NetworkConfig;
use qnet_topology::{FabricSpec, HardwarePreset, Topology};

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The campaign CLI's default §5 grid with 60 replicates per cell, on
    /// the serial runner: many small worlds, so the event queue dominates.
    PaperGrid,
    /// One lazily streamed open-loop run of 10⁵ requests on a 25-node
    /// cycle: the swap scan and the streaming recorder dominate.
    OpenLoopCycle25,
    /// One open-loop run on scale-free:300 over the metro-fiber fabric
    /// under stale `gossip:2:0.25` knowledge: the control plane dominates.
    StaleGossipSf300,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 3] = [
    Workload::PaperGrid,
    Workload::OpenLoopCycle25,
    Workload::StaleGossipSf300,
];

/// Replicates per cell of [`Workload::PaperGrid`]: 18 cells × 60 = 1080
/// scenarios, enough for a per-scenario p99 with ten samples beyond it.
pub const PAPER_GRID_REPLICATES: u32 = 60;

/// Replicate count of the campaign CLI's default grid.
pub const DEFAULT_GRID_REPLICATES: u32 = 6;

/// Fingerprint of the campaign CLI's default grid (seed 1, 6 replicates).
/// [`paper_grid`] must reproduce it, or the workload is not the CLI sweep.
pub const DEFAULT_GRID_FINGERPRINT: &str = "3d0ceedd6e2ff513";

impl Workload {
    /// The name the `--workload` argument takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::OpenLoopCycle25 => "open_loop_cycle25",
            Workload::StaleGossipSf300 => "stale_gossip_sf300",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload's output digest is pinned at.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperGrid => 1,
            Workload::OpenLoopCycle25 | Workload::StaleGossipSf300 => 7,
        }
    }

    /// The pinned FNV-1a digest of the workload's output at `seed`, if
    /// `seed` is the default seed: the JSONL report for
    /// [`Workload::PaperGrid`], the JSON-serialized `ExperimentResult` for
    /// the single-run workloads.
    pub fn pinned_digest(self, seed: u64) -> Option<&'static str> {
        (seed == self.default_seed()).then_some(match self {
            Workload::PaperGrid => "8b13719302f80394",
            Workload::OpenLoopCycle25 => "3085877d834fe69a",
            Workload::StaleGossipSf300 => "b223ba7170e966b1",
        })
    }
}

/// The campaign CLI's default axes — cycle:9, rand-grid:3, ws:9:4:0.2 ×
/// oblivious/planned/hybrid × D ∈ {1, 2}, closed-loop 12 requests over 10
/// pairs, horizon 4000 s — with master seed `seed` and `replicates` per
/// cell.
pub fn paper_grid(seed: u64, replicates: u32) -> ScenarioGrid {
    ScenarioGrid::new(seed)
        .with_topologies(vec![
            Topology::Cycle { nodes: 9 },
            Topology::RandomConnectedGrid { side: 3 },
            Topology::WattsStrogatz {
                nodes: 9,
                neighbors: 4,
                rewire_probability: 0.2,
            },
        ])
        .with_modes(vec![
            PolicyId::OBLIVIOUS,
            PolicyId::PLANNED,
            PolicyId::HYBRID,
        ])
        .with_distillations(vec![1.0, 2.0])
        // Node count 0 is patched per topology at expansion time.
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 10, 12)])
        .with_replicates(replicates)
        .with_horizon_s(4_000.0)
}

/// The `open_loop_million/cycle25_wheel/100000` configuration: cycle:25,
/// generation 400 Hz, scan 200 Hz, 35 pairs offered 500 Hz for 200 s
/// (10⁵ requests), oblivious under global knowledge.
pub fn open_loop_cycle25(seed: u64) -> ExperimentConfig {
    let nodes = 25;
    let rate_hz = 500.0;
    let horizon_s = 100_000.0 / rate_hz;
    ExperimentConfig {
        network: NetworkConfig::new(Topology::Cycle { nodes })
            .with_generation_rate(400.0)
            .with_swap_scan_rate(200.0),
        workload: WorkloadSpec::open_loop(nodes, 35, rate_hz, horizon_s),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed,
        max_sim_time_s: horizon_s * 2.0,
    }
}

/// Scale-free:300 (attach 2) over the metro-fiber fabric, oblivious under
/// `gossip:2:0.25`, 35 pairs offered 20 Hz for 100 simulated seconds. The
/// graph is the fixed infrastructure (topology seed 0); the seed drives
/// traffic, generation and scan timing.
pub fn stale_gossip_sf300(seed: u64) -> ExperimentConfig {
    let nodes = 300;
    let horizon_s = 100.0;
    ExperimentConfig {
        network: NetworkConfig::new(Topology::ScaleFree { nodes, attach: 2 })
            .with_fabric(FabricSpec::new(HardwarePreset::MetroFiber)),
        workload: WorkloadSpec::open_loop(nodes, 35, 20.0, horizon_s),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.25,
        },
        seed,
        max_sim_time_s: horizon_s,
    }
}
