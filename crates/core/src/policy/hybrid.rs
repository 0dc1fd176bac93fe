//! The §6 hybrid "oblivious + minimal planning" discipline as a
//! [`SwapPolicy`].

use super::{oblivious::ObliviousPolicy, PolicyCtx, PolicyId, RequestAction, SwapPolicy};
use crate::balancer::{BalancerPolicy, SwapCandidate};
use crate::hybrid::hybrid_repair;
use crate::planned::execute_nested_along_path;
use crate::workload::ConsumptionRequest;
use qnet_topology::{bfs_path, Graph, NodeId, NodePair};

/// Oblivious balancing plus consumer-side repair: when the head request is
/// not directly satisfiable, search for a shortest path over the *existing*
/// Bell pairs (which balancing has been seeding) and close the gap with the
/// few swaps it needs.
#[derive(Debug, Default)]
pub struct HybridPolicy {
    balancer: BalancerPolicy,
}

impl HybridPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        HybridPolicy::default()
    }
}

impl SwapPolicy for HybridPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::HYBRID
    }

    fn schedules_swap_scans(&self) -> bool {
        true
    }

    fn on_swap_scan(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) -> Option<SwapCandidate> {
        ObliviousPolicy::scan(&self.balancer, ctx, node)
    }

    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        let k = ctx.pairs_per_distilled();
        if let Some(ctl) = ctx.control {
            // The consumer plans its repair over the entanglement graph *it
            // believes in*: its own pools are exact, every remote-remote
            // pair comes from its stale knowledge view. A believed path
            // whose pairs were consumed while the row aged is a miss.
            let consumer = request.pair.lo();
            let (path, age) = {
                let view = ctl.view(consumer).for_owner(consumer, ctx.inventory);
                let mut believed = Graph::with_nodes(ctx.inventory.node_count());
                for (pair, count) in view.nonzero_pairs() {
                    if count >= k {
                        believed.add_edge(pair.lo(), pair.hi());
                    }
                }
                match bfs_path(&believed, request.pair.lo(), request.pair.hi()) {
                    None => return RequestAction::Wait,
                    Some(p) => {
                        let age = p
                            .nodes
                            .windows(2)
                            .map(|w| view.pair_age_s(NodePair::new(w[0], w[1]), ctx.now))
                            .fold(0.0, f64::max);
                        (p.nodes, age)
                    }
                }
            };
            if path.len() < 2 {
                return RequestAction::Wait;
            }
            ctx.telemetry.record_age(age);
            return match execute_nested_along_path(ctx.inventory, &path, k, k) {
                Some(swaps) => RequestAction::Repaired(swaps),
                None => {
                    ctx.telemetry.record_miss(request.pair);
                    RequestAction::Wait
                }
            };
        }
        match hybrid_repair(ctx.inventory, request.pair, k, k) {
            Some(swaps) => RequestAction::Repaired(swaps),
            None => RequestAction::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::test_support::{pair, run_world};
    use crate::workload::Workload;
    use qnet_topology::Topology;

    #[test]
    fn repairs_from_seeded_pairs() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 9 });
        let workload = Workload::from_pairs(vec![pair(0, 4)]);
        let world = run_world(config, workload, PolicyId::HYBRID, 11, 600);
        assert!(world.is_done());
        let m = world.metrics();
        assert_eq!(m.satisfied.len(), 1);
    }
}
