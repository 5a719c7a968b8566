//! Two-tier spine/leaf network topology over N racks.
//!
//! The paper's rack is a building block: ~1440 DPUs hang off one shared
//! Infiniband switch. Scaling past one rack means a second switching
//! tier — every rack keeps its leaf switch, and the leaves interconnect
//! through a spine. [`Topology`] is the pure geometry: which rack a node
//! lives in, how many hops a transfer crosses, and how much uplink
//! bandwidth the spine tier grants each rack. The [`Fabric`] turns that
//! geometry into queuing servers; the coordinator derives failover
//! timeouts from its hop counts; the planner prices inter- vs intra-rack
//! merges from the same object.
//!
//! **Oversubscription.** A leaf's uplink to the spine carries
//! `switch_bytes_per_cycle / oversub` — the classic leaf oversubscription
//! ratio (downlink capacity : uplink capacity). `oversub = 1` is a
//! non-blocking fabric; `oversub = 4` means a rack's nodes can jointly
//! offer 4× more traffic than its uplink can drain, so shuffle-heavy
//! plans queue on the spine tier. The spine core itself is non-blocking
//! (it carries `racks ×` the uplink rate): saturation is a property of
//! the uplinks, which is exactly what the ratio expresses.
//!
//! **Hop counts.** An intra-rack transfer crosses 2 hops (NIC → leaf →
//! NIC), exactly the flat single-switch model. An inter-rack transfer
//! crosses 4 (NIC → leaf → spine → leaf → NIC). `racks = 1` therefore
//! reproduces the original fabric cycle for cycle — every committed
//! `BENCH_rack_*.json` baseline is pinned on that equivalence.
//!
//! [`Fabric`]: crate::fabric::Fabric

use crate::fabric::FabricConfig;

/// The spine/leaf geometry: `n_nodes` split evenly over `racks` racks,
/// with per-rack uplinks oversubscribed by `oversub`.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n_nodes: usize,
    racks: usize,
    oversub: f64,
}

impl Topology {
    /// The degenerate single-rack topology: one leaf, no spine — the
    /// original flat fabric.
    pub fn single_rack(n_nodes: usize) -> Self {
        Topology::new(n_nodes, 1, 1.0)
    }

    /// `n_nodes` split evenly over `racks` racks behind a spine whose
    /// per-rack uplinks are oversubscribed by `oversub`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero, `racks` does not divide `n_nodes`,
    /// or `oversub < 1` (an uplink cannot outrun its leaf).
    pub fn new(n_nodes: usize, racks: usize, oversub: f64) -> Self {
        assert!(n_nodes > 0, "a topology needs nodes");
        assert!(racks >= 1, "a topology needs at least one rack");
        assert!(n_nodes.is_multiple_of(racks), "{racks} racks must divide {n_nodes} nodes evenly");
        assert!(oversub >= 1.0, "oversubscription ratio must be ≥ 1, got {oversub}");
        Topology { n_nodes, racks, oversub }
    }

    /// Node count across all racks.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Rack count (== leaf switch count).
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// The oversubscription ratio (leaf bandwidth : uplink bandwidth).
    pub fn oversub(&self) -> f64 {
        self.oversub
    }

    /// Nodes per rack.
    pub fn nodes_per_rack(&self) -> usize {
        self.n_nodes / self.racks
    }

    /// The rack holding `node`. Nodes are numbered rack-major: rack `r`
    /// holds nodes `r*m .. (r+1)*m`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rack_of(&self, node: usize) -> usize {
        assert!(node < self.n_nodes, "node {node} out of range");
        node / self.nodes_per_rack()
    }

    /// Whether two nodes share a rack (and hence a leaf switch).
    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// The node-id range of rack `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn rack_nodes(&self, r: usize) -> std::ops::Range<usize> {
        assert!(r < self.racks, "rack {r} out of range");
        let m = self.nodes_per_rack();
        r * m..(r + 1) * m
    }

    /// Hops a `src → dst` transfer crosses: 0 locally, 2 within a rack
    /// (NIC → leaf → NIC), 4 across racks (NIC → leaf → spine → leaf →
    /// NIC).
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        if src == dst {
            0
        } else if self.same_rack(src, dst) {
            2
        } else {
            4
        }
    }

    /// The worst-case hop count of any transfer: 2 with one rack, 4 once
    /// a spine tier exists.
    pub fn max_hops(&self) -> u64 {
        if self.racks == 1 {
            2
        } else {
            4
        }
    }

    /// Per-rack uplink bandwidth, bytes per cycle: the leaf rate divided
    /// by the oversubscription ratio (floor 1).
    pub fn uplink_bytes_per_cycle(&self, cfg: &FabricConfig) -> u64 {
        (((cfg.switch_bytes_per_cycle as f64) / self.oversub).round() as u64).max(1)
    }

    /// The coordinator's per-attempt failover timeout, in cycles: the
    /// round trip of a control probe over the worst-case path
    /// (`max_hops` each way plus descriptor setup on both A9s), doubled
    /// for scheduling slack. With one rack this reproduces the original
    /// hard-coded `2*(4*hop + 2*msg)` exactly (pinned by a regression
    /// test); a spine tier stretches the probe to
    /// `2*(8*hop + 2*msg)`.
    pub fn failover_timeout_cycles(&self, cfg: &FabricConfig) -> u64 {
        2 * (2 * self.max_hops() * cfg.hop_cycles + 2 * cfg.message_overhead_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_geometry_is_flat() {
        let t = Topology::single_rack(8);
        assert_eq!(t.racks(), 1);
        assert_eq!(t.nodes_per_rack(), 8);
        assert_eq!(t.max_hops(), 2);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.hops(a, b), if a == b { 0 } else { 2 });
            }
        }
    }

    #[test]
    fn rack_major_numbering_and_hops() {
        let t = Topology::new(8, 2, 4.0);
        assert_eq!(t.nodes_per_rack(), 4);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.rack_nodes(1), 4..8);
        assert_eq!(t.hops(0, 3), 2, "same rack: 2 hops");
        assert_eq!(t.hops(0, 4), 4, "cross rack: 4 hops");
        assert_eq!(t.hops(5, 5), 0);
        assert_eq!(t.max_hops(), 4);
    }

    #[test]
    fn uplink_divides_leaf_rate_by_oversub() {
        let cfg = FabricConfig::infiniband(); // switch = 64 B/cycle
        assert_eq!(Topology::new(8, 2, 1.0).uplink_bytes_per_cycle(&cfg), 64);
        assert_eq!(Topology::new(8, 2, 4.0).uplink_bytes_per_cycle(&cfg), 16);
        assert_eq!(Topology::new(8, 2, 8.0).uplink_bytes_per_cycle(&cfg), 8);
        // The floor: an absurd ratio still moves bytes.
        assert_eq!(Topology::new(8, 2, 1e6).uplink_bytes_per_cycle(&cfg), 1);
    }

    #[test]
    fn timeout_generalizes_the_flat_round_trip() {
        let cfg = FabricConfig::infiniband();
        let flat = Topology::single_rack(8);
        assert_eq!(
            flat.failover_timeout_cycles(&cfg),
            2 * (4 * cfg.hop_cycles + 2 * cfg.message_overhead_cycles),
            "single rack must reproduce the original hard-coded formula"
        );
        let spine = Topology::new(8, 2, 4.0);
        assert_eq!(
            spine.failover_timeout_cycles(&cfg),
            2 * (8 * cfg.hop_cycles + 2 * cfg.message_overhead_cycles),
            "a spine doubles the probe's hop budget"
        );
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn uneven_racks_are_rejected() {
        Topology::new(6, 4, 2.0);
    }
}
