//! Per-node stale copies of the network-wide buffer-count state.
//!
//! Under [`crate::classical::KnowledgeModel::Global`] every policy decision
//! reads ground-truth [`Inventory`] counts. The stale control plane instead
//! gives each node a [`KnowledgeView`]: its possibly-out-of-date copy of
//! every other node's buffer-count *row*, stamped with the simulation time
//! at which that row was read at its owner. Policies decide on these
//! believed counts while the world keeps mutating the true ones — the gap
//! between the two is exactly the §6 staleness the paper's gossip
//! relaxation trades protocol messages against.
//!
//! Rows are held sparse, exactly as gossip carries them: a [`SparseRow`]
//! is the owner's `(peer, count)` list with nonzero counts only (the shape
//! of [`Inventory::peer_counts`]), so a view costs O(Σ degree) rather than
//! O(N²) and an install is a move, not an N-entry copy.

use crate::balancer::CountView;
use crate::inventory::Inventory;
use qnet_sim::SimTime;
use qnet_topology::{NodeId, NodePair};

/// One owner's buffer-count row as gossip carries it: `(peer, count)` in
/// ascending peer order, nonzero counts only. Counts are held as `u32`,
/// which halves a view's footprint against `u64`; every view keeps a copy
/// of every row, so entry size is what sets the plane's memory.
pub type SparseRow = Vec<(NodeId, u32)>;

/// The last installed copy of one owner's row.
#[derive(Debug, Clone, Default)]
struct BelievedRow {
    counts: SparseRow,
    /// When the row was read at its owner.
    read_at: SimTime,
    /// Position in the view's install order (0 = never installed).
    stamp: u64,
}

impl BelievedRow {
    fn count(&self, peer: NodeId) -> u64 {
        self.counts
            .binary_search_by_key(&peer, |&(p, _)| p)
            .map_or(0, |i| u64::from(self.counts[i].1))
    }
}

/// One node's stale copy of every node's buffer-count row.
///
/// A *row* is the set of pair counts involving one owner node; gossip
/// refreshes whole rows at a time, so freshness is tracked per row. Both
/// endpoint rows carry a pair `(a, b)`: its believed count is the one in
/// whichever of the two rows was installed *last*, and it is fresh as of
/// the *newer* of the two rows' read times.
#[derive(Debug, Clone)]
pub struct KnowledgeView {
    rows: Vec<BelievedRow>,
    installs: u64,
}

impl KnowledgeView {
    /// An empty view over `n` nodes; every row starts "never refreshed"
    /// (timestamp zero, all counts zero), so ages grow from the start of
    /// the run.
    pub fn new(n: usize) -> Self {
        KnowledgeView {
            rows: vec![BelievedRow::default(); n],
            installs: 0,
        }
    }

    /// Number of nodes this view covers.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Install `owner`'s row as read at `read_at`; every pair `(owner, x)`
    /// absent from `row` is believed empty. Deliveries can overtake each
    /// other on heterogeneous links, so an install older than the row
    /// already held is dropped (latest read wins).
    pub fn install_row(&mut self, owner: NodeId, read_at: SimTime, row: SparseRow) {
        debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(row.iter().all(|&(peer, count)| peer != owner && count > 0));
        let held = &mut self.rows[owner.index()];
        if read_at < held.read_at {
            return;
        }
        self.installs += 1;
        *held = BelievedRow {
            counts: row,
            read_at,
            stamp: self.installs,
        };
    }

    /// When `owner`'s row was last read at its owner ([`SimTime::ZERO`]
    /// if never refreshed).
    pub fn row_refreshed_at(&self, owner: NodeId) -> SimTime {
        self.rows[owner.index()].read_at
    }

    /// When the believed count for `pair` was last read: the newer of its
    /// two endpoint rows (both carry the pair).
    pub fn pair_refreshed_at(&self, pair: NodePair) -> SimTime {
        self.row_refreshed_at(pair.lo())
            .max(self.row_refreshed_at(pair.hi()))
    }

    /// Age in seconds of the believed count for `pair` as of `now`.
    pub fn pair_age_s(&self, pair: NodePair, now: SimTime) -> f64 {
        now.saturating_since(self.pair_refreshed_at(pair))
            .as_secs_f64()
    }

    /// Age in seconds of the stalest row in the view as of `now`.
    pub fn max_row_age_s(&self, now: SimTime) -> f64 {
        self.rows
            .iter()
            .map(|row| now.saturating_since(row.read_at).as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// All pairs with a nonzero *believed* count, in ascending pair order
    /// (the believed analogue of [`Inventory::nonzero_pairs`], used to
    /// build believed entanglement graphs for path repair). Each pair is
    /// taken from the endpoint row that decides its count.
    pub fn nonzero_pairs(&self) -> Vec<(NodePair, u64)> {
        let mut pairs: Vec<(NodePair, u64)> = Vec::new();
        for (owner, row) in self.rows.iter().enumerate() {
            for &(peer, count) in &row.counts {
                if row.stamp > self.rows[peer.index()].stamp {
                    pairs.push((NodePair::new(NodeId::from(owner), peer), u64::from(count)));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(pair, _)| pair);
        pairs
    }

    /// A view that answers pairs touching `owner` from ground truth: a
    /// node always knows its *own* pools exactly (they live in its local
    /// buffers), and only remote-remote pairs go through gossip.
    pub fn for_owner<'a>(&'a self, owner: NodeId, truth: &'a Inventory) -> OwnerAwareView<'a> {
        OwnerAwareView {
            view: self,
            owner,
            truth,
        }
    }
}

impl CountView for KnowledgeView {
    fn count(&self, pair: NodePair) -> u64 {
        let lo = &self.rows[pair.lo().index()];
        let hi = &self.rows[pair.hi().index()];
        if lo.stamp >= hi.stamp {
            lo.count(pair.hi())
        } else {
            hi.count(pair.lo())
        }
    }
}

/// [`KnowledgeView`] overlay that reads pairs containing the owning node
/// from ground truth (local buffers are always exact) and everything else
/// from the stale view.
#[derive(Debug, Clone, Copy)]
pub struct OwnerAwareView<'a> {
    view: &'a KnowledgeView,
    owner: NodeId,
    truth: &'a Inventory,
}

impl OwnerAwareView<'_> {
    /// Age in seconds of the believed count for `pair` as of `now`
    /// (zero for pairs the owner holds locally).
    pub fn pair_age_s(&self, pair: NodePair, now: SimTime) -> f64 {
        if pair.contains(self.owner) {
            0.0
        } else {
            self.view.pair_age_s(pair, now)
        }
    }

    /// All pairs with a nonzero count under this overlay: ground truth for
    /// pairs touching the owner, believed counts for everything else. Used
    /// to build believed entanglement graphs for path repair.
    pub fn nonzero_pairs(&self) -> Vec<(NodePair, u64)> {
        let mut pairs: Vec<(NodePair, u64)> = self
            .view
            .nonzero_pairs()
            .into_iter()
            .filter(|(p, _)| !p.contains(self.owner))
            .collect();
        for &(peer, count) in self.truth.peer_counts(self.owner) {
            if count > 0 {
                pairs.push((NodePair::new(self.owner, peer), count));
            }
        }
        pairs
    }
}

impl CountView for OwnerAwareView<'_> {
    fn count(&self, pair: NodePair) -> u64 {
        if pair.contains(self.owner) {
            self.truth.count(pair)
        } else {
            self.view.count(pair)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: usize, b: usize) -> NodePair {
        NodePair::new(NodeId::from(a), NodeId::from(b))
    }

    fn row(entries: &[(u32, u32)]) -> SparseRow {
        entries.iter().map(|&(p, c)| (NodeId(p), c)).collect()
    }

    #[test]
    fn rows_start_unrefreshed_and_age_from_zero() {
        let view = KnowledgeView::new(4);
        let now = SimTime::from_secs_f64(3.0);
        assert_eq!(view.count(pair(0, 2)), 0);
        assert!((view.pair_age_s(pair(0, 2), now) - 3.0).abs() < 1e-12);
        assert!((view.max_row_age_s(now) - 3.0).abs() < 1e-12);
        assert!(view.nonzero_pairs().is_empty());
    }

    #[test]
    fn install_row_updates_counts_and_freshness() {
        let mut view = KnowledgeView::new(3);
        let read_at = SimTime::from_secs_f64(1.0);
        view.install_row(NodeId(1), read_at, row(&[(0, 5), (2, 7)]));
        assert_eq!(view.count(pair(0, 1)), 5);
        assert_eq!(view.count(pair(1, 2)), 7);
        assert_eq!(view.count(pair(0, 2)), 0);
        let now = SimTime::from_secs_f64(1.5);
        assert!((view.pair_age_s(pair(0, 1), now) - 0.5).abs() < 1e-12);
        // Pair (0,2) is in neither refreshed row: still never-refreshed.
        assert!((view.pair_age_s(pair(0, 2), now) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn older_deliveries_lose_the_race() {
        let mut view = KnowledgeView::new(3);
        view.install_row(
            NodeId(1),
            SimTime::from_secs_f64(2.0),
            row(&[(0, 9), (2, 9)]),
        );
        view.install_row(
            NodeId(1),
            SimTime::from_secs_f64(1.0),
            row(&[(0, 1), (2, 1)]),
        );
        assert_eq!(view.count(pair(0, 1)), 9);
        assert_eq!(
            view.row_refreshed_at(NodeId(1)),
            SimTime::from_secs_f64(2.0)
        );
    }

    #[test]
    fn the_last_installed_endpoint_row_decides_a_pair() {
        let mut view = KnowledgeView::new(3);
        // Row 0 is read later, but row 1 lands after it: row 1's word on
        // (0,1) stands, while the pair's freshness is row 0's newer read.
        view.install_row(NodeId(0), SimTime::from_secs_f64(5.0), row(&[(1, 4)]));
        view.install_row(NodeId(1), SimTime::from_secs_f64(2.0), row(&[(2, 3)]));
        assert_eq!(view.count(pair(0, 1)), 0);
        assert_eq!(
            view.pair_refreshed_at(pair(0, 1)),
            SimTime::from_secs_f64(5.0)
        );
        assert_eq!(view.nonzero_pairs(), vec![(pair(1, 2), 3)]);
        // An empty re-install of row 1 wipes everything it carried.
        view.install_row(NodeId(1), SimTime::from_secs_f64(2.0), Vec::new());
        assert_eq!(view.count(pair(1, 2)), 0);
        assert!(view.nonzero_pairs().is_empty());
    }

    #[test]
    fn nonzero_pairs_reports_believed_counts() {
        let mut view = KnowledgeView::new(3);
        view.install_row(NodeId(2), SimTime::from_secs_f64(1.0), row(&[(0, 4)]));
        assert_eq!(view.nonzero_pairs(), vec![(pair(0, 2), 4)]);
    }
}
