//! Latency-aware gossip: rotating row pulls with in-flight deliveries.
//!
//! [`StaleControl`] models the paper's §6 BitTorrent-like relaxation as
//! events. Each node runs a periodic `GossipExchange`: it pulls the
//! buffer-count rows of `peers_per_refresh` peers, chosen by a
//! deterministic round-robin cursor that skips the node itself, but the
//! pulled rows are *snapshots in flight* — they arrive after the classical
//! propagation delay of the node↔peer fibre path plus a fixed processing
//! delay, and are installed into the puller's [`KnowledgeView`] only once
//! matured. A snapshot is the peer's sparse `(peer, count)` list, so one
//! row transfer costs O(degree), not O(N). Between refreshes of a row, the
//! believed count drifts from truth; that drift is the staleness the §6
//! curves measure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qnet_sim::{SimDuration, SimTime};
use qnet_topology::{NodeId, NodePair};

use super::latency::{PropagationDelays, PROCESSING_DELAY_S};
use super::views::{KnowledgeView, SparseRow};
use crate::inventory::Inventory;

/// A pulled row travelling the classical network: `owner`'s nonzero
/// `(peer, count)` list as read at `read_at`, destined for `dest`'s view
/// once `deliver_at` passes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Delivery {
    deliver_at: SimTime,
    /// Issue order, breaking delivery-time ties deterministically.
    seq: u64,
    dest: u32,
    owner: u32,
    read_at: SimTime,
    row: SparseRow,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Snapshot `owner`'s row from ground truth in O(degree). Counts beyond
/// `u32::MAX` (no pool comes near) saturate.
fn snapshot_row(truth: &Inventory, owner: NodeId) -> SparseRow {
    truth
        .peer_counts(owner)
        .iter()
        .map(|&(peer, count)| (peer, u32::try_from(count).unwrap_or(u32::MAX)))
        .collect()
}

/// The event-driven stale control plane: one [`KnowledgeView`] per node,
/// refreshed by periodic latency-delayed gossip exchanges.
#[derive(Debug)]
pub struct StaleControl {
    views: Vec<KnowledgeView>,
    cursor: Vec<usize>,
    peers_per_refresh: usize,
    period: SimDuration,
    delays: PropagationDelays,
    in_flight: BinaryHeap<Reverse<Delivery>>,
    seq: u64,
}

impl StaleControl {
    /// Build a control plane over `node_count` nodes where each exchange
    /// pulls `peers_per_refresh` rotating peers' rows and exchanges repeat
    /// every `refresh_period_s` seconds per node.
    ///
    /// # Panics
    /// If `peers_per_refresh` is zero or `refresh_period_s` is not
    /// strictly positive.
    pub fn new(
        node_count: usize,
        peers_per_refresh: usize,
        refresh_period_s: f64,
        delays: PropagationDelays,
    ) -> Self {
        assert!(
            peers_per_refresh >= 1,
            "gossip must refresh at least one peer per exchange"
        );
        assert!(
            refresh_period_s > 0.0,
            "gossip refresh period must be positive"
        );
        StaleControl {
            views: (0..node_count)
                .map(|_| KnowledgeView::new(node_count))
                .collect(),
            cursor: vec![0; node_count],
            peers_per_refresh,
            period: SimDuration::from_secs_f64(refresh_period_s),
            delays,
            in_flight: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.views.len()
    }

    /// Peers pulled per exchange.
    pub fn peers_per_refresh(&self) -> usize {
        self.peers_per_refresh
    }

    /// The per-node exchange period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The classical propagation-delay table the plane was built with
    /// (also used to defer swap execution by coordination round-trips).
    pub fn delays(&self) -> &PropagationDelays {
        &self.delays
    }

    /// `node`'s current (possibly stale) view.
    pub fn view(&self, node: NodeId) -> &KnowledgeView {
        &self.views[node.index()]
    }

    /// Rows still in flight (delivered but not yet matured).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Run one gossip exchange for `node` at `now`: snapshot the sparse
    /// rows of its next `peers_per_refresh` rotating peers from ground
    /// truth and put them in flight towards `node`'s view. Returns the
    /// number of row-transfer messages issued (the classical-overhead
    /// unit).
    ///
    /// Each node's cursor starts at peer 0, skips the node itself and
    /// wraps around, so coverage rotates over every other node.
    pub fn exchange(&mut self, now: SimTime, node: NodeId, truth: &Inventory) -> u64 {
        let n = self.node_count();
        if n <= 1 {
            return 0;
        }
        let mut issued = 0;
        for _ in 0..self.peers_per_refresh.min(n - 1) {
            let mut peer = self.cursor[node.index()] % n;
            if peer == node.index() {
                peer = (peer + 1) % n;
            }
            self.cursor[node.index()] = (peer + 1) % n;
            let peer_id = NodeId::from(peer);
            let deliver_at = now
                + self.delays.duration(NodePair::new(node, peer_id))
                + SimDuration::from_secs_f64(PROCESSING_DELAY_S);
            self.seq += 1;
            self.in_flight.push(Reverse(Delivery {
                deliver_at,
                seq: self.seq,
                dest: node.index() as u32,
                owner: peer as u32,
                read_at: now,
                row: snapshot_row(truth, peer_id),
            }));
            issued += 1;
        }
        issued
    }

    /// Install every in-flight row whose delivery time has passed.
    /// Called by the world before each decision so views are as fresh as
    /// the classical network allows — but never fresher.
    pub fn deliver_matured(&mut self, now: SimTime) {
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.deliver_at > now {
                break;
            }
            let Reverse(d) = self.in_flight.pop().expect("peeked entry exists");
            self.views[d.dest as usize].install_row(NodeId(d.owner), d.read_at, d.row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::CountView;
    use crate::inventory::Inventory;
    use qnet_topology::{PathOracle, Topology};

    fn pair(a: usize, b: usize) -> NodePair {
        NodePair::new(NodeId::from(a), NodeId::from(b))
    }

    fn control(n: usize, peers: usize, period_s: f64) -> StaleControl {
        let graph = Topology::Cycle { nodes: n }.build(0);
        let oracle = PathOracle::new(&graph);
        let delays = PropagationDelays::new(&graph, None, &oracle);
        StaleControl::new(n, peers, period_s, delays)
    }

    fn seeded_inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new(n);
        for _ in 0..3 {
            inv.add_pair(pair(0, 1)).unwrap();
        }
        inv.add_pair(pair(1, 2)).unwrap();
        inv
    }

    #[test]
    fn rows_arrive_only_after_the_propagation_delay() {
        let mut ctl = control(5, 1, 0.25);
        let inv = seeded_inventory(5);
        let t0 = SimTime::from_secs_f64(1.0);
        let issued = ctl.exchange(t0, NodeId(2), &inv);
        assert_eq!(issued, 1);
        assert_eq!(ctl.in_flight_len(), 1);
        // Immediately after the exchange nothing has matured.
        ctl.deliver_matured(t0);
        assert_eq!(ctl.in_flight_len(), 1);
        assert_eq!(ctl.view(NodeId(2)).count(pair(0, 1)), 0);
        // Well past the delay the row lands, stamped with its read time.
        let later = SimTime::from_secs_f64(1.1);
        ctl.deliver_matured(later);
        assert_eq!(ctl.in_flight_len(), 0);
        // Node 2's cursor starts at peer 0, whose row holds pair (0,1).
        assert_eq!(ctl.view(NodeId(2)).count(pair(0, 1)), 3);
        assert_eq!(ctl.view(NodeId(2)).row_refreshed_at(NodeId(0)), t0);
    }

    #[test]
    fn snapshots_are_the_owners_sparse_row_and_empty_rows_still_refresh() {
        let mut ctl = control(3, 1, 0.25);
        let mut inv = Inventory::new(3);
        inv.add_pair(pair(0, 2)).unwrap();
        inv.add_pair(pair(0, 2)).unwrap();
        let settle = SimDuration::from_secs_f64(0.5);

        // Node 2 pulls peer 0: the in-flight row is exactly peer 0's
        // `peer_counts`, and it lands as such.
        let t0 = SimTime::from_secs(1);
        ctl.exchange(t0, NodeId(2), &inv);
        let Reverse(head) = ctl.in_flight.peek().expect("a row is in flight");
        assert_eq!(head.owner, 0);
        let carried: Vec<(NodeId, u64)> = head
            .row
            .iter()
            .map(|&(peer, count)| (peer, u64::from(count)))
            .collect();
        assert_eq!(carried, inv.peer_counts(NodeId(0)));
        ctl.deliver_matured(t0 + settle);
        assert_eq!(ctl.view(NodeId(2)).count(pair(0, 2)), 2);

        // Next it pulls peer 1, which holds no pairs: an empty row.
        let t1 = SimTime::from_secs(2);
        ctl.exchange(t1, NodeId(2), &inv);
        let Reverse(head) = ctl.in_flight.peek().expect("a row is in flight");
        assert_eq!(head.owner, 1);
        assert!(head.row.is_empty());
        ctl.deliver_matured(t1 + settle);
        assert_eq!(ctl.view(NodeId(2)).row_refreshed_at(NodeId(1)), t1);

        // Peer 0 drains; its next (empty) row still refreshes the row and
        // zeroes the count it carried before.
        inv.remove_pairs(pair(0, 2), 2).unwrap();
        let t2 = SimTime::from_secs(3);
        ctl.exchange(t2, NodeId(2), &inv);
        ctl.deliver_matured(t2 + settle);
        let view = ctl.view(NodeId(2));
        assert_eq!(view.row_refreshed_at(NodeId(0)), t2);
        assert_eq!(view.count(pair(0, 2)), 0);
        assert!(view.nonzero_pairs().is_empty());
    }

    #[test]
    fn rotation_starts_at_zero_skips_self_and_wraps() {
        let n = 5;
        let mut ctl = control(n, 2, 0.25);
        let inv = seeded_inventory(n);
        // The peers each node pulls in four successive exchanges.
        let expected: [[[usize; 2]; 4]; 5] = [
            [[1, 2], [3, 4], [1, 2], [3, 4]],
            [[0, 2], [3, 4], [0, 2], [3, 4]],
            [[0, 1], [3, 4], [0, 1], [3, 4]],
            [[0, 1], [2, 4], [0, 1], [2, 4]],
            [[0, 1], [2, 3], [0, 1], [2, 3]],
        ];
        for round in 0..4 {
            let now = SimTime::from_secs(round as u64 + 1);
            for i in 0..n {
                assert_eq!(ctl.exchange(now, NodeId::from(i), &inv), 2);
            }
            ctl.deliver_matured(now + SimDuration::from_secs_f64(0.5));
            for (i, rounds) in expected.iter().enumerate() {
                let view = ctl.view(NodeId::from(i));
                let pulled: Vec<usize> = (0..n)
                    .filter(|&o| view.row_refreshed_at(NodeId::from(o)) == now)
                    .collect();
                assert_eq!(pulled, rounds[round], "node {i} round {round}");
            }
        }
        // Truth never mutated, so every matured view holds the true rows.
        for i in 0..n {
            for p in qnet_topology::pairs::all_pairs(n) {
                assert_eq!(ctl.view(NodeId::from(i)).count(p), inv.count(p));
            }
        }
    }
}
