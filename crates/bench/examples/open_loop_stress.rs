//! Open-loop stress driver: run one lazily-streamed Poisson workload at a
//! chosen scale and print a one-line machine-readable summary. The CI
//! memory-smoke jobs wrap this in `/usr/bin/time -v`: one asserts that peak
//! RSS stays flat from 10⁵ to 10⁶ requests (the arrival stream and the
//! streaming metrics recorder are both fixed-memory, so RSS is dominated
//! by the topology, not the request count), the other bounds the stale
//! gossip control plane's memory on a 600-node fabric.
//!
//! ```text
//! cargo run --release -p qnet-bench --example open_loop_stress -- \
//!     --topology cycle:25 --requests 100000 [--seed 7] [--rate-hz 2000] \
//!     [--knowledge global|gossip:K[:PERIOD]]
//! ```
//!
//! `scale-free:<n>` runs on the `metro-fiber` fabric and `cycle:<n>` on
//! the homogeneous substrate. `--knowledge` defaults to `global`.

use qnet_core::classical::KnowledgeModel;
use qnet_core::experiment::{Experiment, ExperimentConfig};
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_core::NetworkConfig;
use qnet_topology::{FabricSpec, HardwarePreset, Topology};

struct Args {
    topology: String,
    requests: u64,
    seed: u64,
    rate_hz: f64,
    gen_rate: Option<f64>,
    scan_rate: Option<f64>,
    knowledge: KnowledgeModel,
}

fn parse_args() -> Args {
    let mut args = Args {
        topology: "cycle:25".to_string(),
        requests: 100_000,
        seed: 7,
        rate_hz: 1_000.0,
        gen_rate: None,
        scan_rate: None,
        knowledge: KnowledgeModel::Global,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--topology" => args.topology = value(),
            "--requests" => args.requests = value().parse().expect("--requests: integer"),
            "--seed" => args.seed = value().parse().expect("--seed: integer"),
            "--rate-hz" => args.rate_hz = value().parse().expect("--rate-hz: float"),
            "--gen-rate" => args.gen_rate = Some(value().parse().expect("--gen-rate: float")),
            "--scan-rate" => args.scan_rate = Some(value().parse().expect("--scan-rate: float")),
            "--knowledge" => {
                args.knowledge =
                    KnowledgeModel::parse(&value()).unwrap_or_else(|e| panic!("--knowledge: {e}"))
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // The horizon realises ~`requests` Poisson arrivals at `rate_hz`.
    let horizon_s = args.requests as f64 / args.rate_hz;
    let (mut network, nodes) = match args.topology.as_str() {
        spec if spec.starts_with("cycle:") => {
            let nodes: usize = spec["cycle:".len()..].parse().expect("cycle:<nodes>");
            (NetworkConfig::new(Topology::Cycle { nodes }), nodes)
        }
        spec if spec.starts_with("scale-free:") => {
            let nodes: usize = spec["scale-free:".len()..]
                .parse()
                .expect("scale-free:<nodes>");
            (
                NetworkConfig::new(Topology::ScaleFree { nodes, attach: 2 })
                    .with_fabric(FabricSpec::new(HardwarePreset::MetroFiber)),
                nodes,
            )
        }
        other => panic!("unknown topology {other} (use cycle:<n> or scale-free:<n>)"),
    };
    if let Some(rate) = args.gen_rate {
        network = network.with_generation_rate(rate);
    }
    if let Some(rate) = args.scan_rate {
        network = network.with_swap_scan_rate(rate);
    }
    let config = ExperimentConfig {
        network,
        workload: WorkloadSpec::open_loop(
            nodes,
            35.min(nodes * (nodes - 1) / 2),
            args.rate_hz,
            horizon_s,
        ),
        mode: PolicyId::OBLIVIOUS,
        knowledge: args.knowledge,
        seed: args.seed,
        max_sim_time_s: horizon_s * 2.0,
    };
    let start = std::time::Instant::now();
    let result = Experiment::new(config).run();
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "topology={} requests={} arrived={} satisfied={} \
         streamed={} swaps={} wall_s={elapsed:.3}",
        args.topology,
        args.requests,
        result.metrics.arrived_requests,
        result.satisfied_requests,
        result.metrics.is_streamed(),
        result.swaps_performed,
    );
}
