//! K-way replica placement by chained declustering, generalized to rack
//! failure domains.
//!
//! Each logical shard is stored on `k` distinct nodes: its *primary*
//! (node `s` for shard `s`, exactly the pre-replication layout) plus
//! `k-1` chained copies. Chained declustering (Hsiao & DeWitt, 1990)
//! has the property that when a node fails, the shards it carried are
//! re-hosted on *different* survivors — its primary shard moves to its
//! successor while the copies it held are served by their own primaries —
//! so a failure spreads load over neighbors instead of doubling one
//! node's work the way mirrored pairs do.
//!
//! On a multi-rack topology the chain walks **racks first**: replica `j`
//! of a shard homed in rack `r` lands in rack `(r + j) mod racks`, at
//! local slot `(l + j/racks) mod m` within that rack (`m` nodes per
//! rack). Successive replicas therefore occupy `min(k, racks)` distinct
//! failure domains — a whole-rack power loss cannot take out every copy
//! as long as `k ≥ 2` and `racks ≥ 2` — while within each visited rack
//! the layout is still a chain, preserving the load-spreading property.
//! With `racks = 1` the formula collapses to the classic ring
//! `(s + j) mod n`, bit-identical to the original placement.
//!
//! `k = 1` degenerates to "shard `s` lives on node `s`", bit-identical
//! to the unreplicated placement, and is property-tested to stay that
//! way.

/// Chained-declustering placement of `n_shards == n_nodes` shards with
/// `k` replicas each over `racks` failure domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    n_nodes: usize,
    k: usize,
    racks: usize,
}

impl Placement {
    /// A single-rack placement of one shard per node with `k` replicas
    /// each — the classic chained-declustering ring.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds `n_nodes` (replicas must land on
    /// distinct nodes).
    pub fn new(n_nodes: usize, k: usize) -> Self {
        Placement::rack_aware(n_nodes, 1, k)
    }

    /// A rack-aware placement: nodes are numbered rack-major over
    /// `racks` equal racks, and a shard's replica chain advances one
    /// rack per step so copies span `min(k, racks)` failure domains.
    ///
    /// # Panics
    ///
    /// Panics if `racks` does not divide `n_nodes`, or `k` is zero or
    /// exceeds `n_nodes`.
    pub fn rack_aware(n_nodes: usize, racks: usize, k: usize) -> Self {
        assert!(n_nodes > 0, "a placement needs nodes");
        assert!(
            racks >= 1 && n_nodes.is_multiple_of(racks),
            "{racks} racks must divide {n_nodes} nodes"
        );
        assert!(k >= 1, "need at least one replica");
        assert!(k <= n_nodes, "{k} replicas cannot occupy {n_nodes} distinct nodes");
        Placement { n_nodes, k, racks }
    }

    /// Node count (== shard count).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Replication factor.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Failure-domain count.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Nodes per rack.
    fn nodes_per_rack(&self) -> usize {
        self.n_nodes / self.racks
    }

    /// The rack (failure domain) holding `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        assert!(node < self.n_nodes, "node {node} out of range");
        node / self.nodes_per_rack()
    }

    /// The `k` distinct nodes holding `shard`, primary first, then the
    /// chained copies in failover-preference order. Copy `j` lives in
    /// rack `(rack(shard) + j) mod racks` at local slot
    /// `(slot(shard) + j/racks) mod m` — one rack per chain step.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn owners(&self, shard: usize) -> Vec<usize> {
        assert!(shard < self.n_nodes, "shard {shard} out of range");
        let m = self.nodes_per_rack();
        let (r, l) = (shard / m, shard % m);
        (0..self.k).map(|j| ((r + j) % self.racks) * m + (l + j / self.racks) % m).collect()
    }

    /// The primary node of `shard` (its first owner).
    pub fn primary(&self, shard: usize) -> usize {
        assert!(shard < self.n_nodes, "shard {shard} out of range");
        shard
    }

    /// The owners of `shard` reordered for a gather landing on `dst`:
    /// replicas sharing `dst`'s rack come first, others after, chain
    /// order preserved within each group (stable partition). A
    /// re-derivation of a lost partial thus reads from a rack-local
    /// replica whenever one is alive, paying 2 hops instead of 4. With
    /// one rack every owner ties and this is exactly the chain order.
    pub fn gather_order(&self, shard: usize, dst: usize) -> Vec<usize> {
        let dr = self.rack_of(dst);
        let mut owners = self.owners(shard);
        owners.sort_by_key(|&v| self.rack_of(v) != dr);
        owners
    }

    /// Distinct failure domains spanned by `shard`'s replicas — always
    /// `min(k, racks)` for this chain, property-tested to stay so.
    pub fn spanned_racks(&self, shard: usize) -> usize {
        let mut racks: Vec<usize> = self.owners(shard).iter().map(|&v| self.rack_of(v)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }

    /// The shards stored on `node` (as primary or copy), ascending.
    pub fn shards_on(&self, node: usize) -> Vec<usize> {
        assert!(node < self.n_nodes, "node {node} out of range");
        let m = self.nodes_per_rack();
        let (nr, nl) = (node / m, node % m);
        let mut shards: Vec<usize> = (0..self.k)
            .map(|j| {
                let r = (nr + self.racks - j % self.racks) % self.racks;
                let l = (nl + m - (j / self.racks) % m) % m;
                r * m + l
            })
            .collect();
        shards.sort_unstable();
        shards
    }

    /// Whether `node` holds a replica of `shard`.
    pub fn holds(&self, node: usize, shard: usize) -> bool {
        self.owners(shard).contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_are_k_distinct_chained_nodes() {
        let p = Placement::new(8, 3);
        for s in 0..8 {
            let o = p.owners(s);
            assert_eq!(o.len(), 3);
            assert_eq!(o[0], s, "primary is the shard's own node");
            assert_eq!(o[1], (s + 1) % 8);
            assert_eq!(o[2], (s + 2) % 8);
            let distinct: std::collections::HashSet<_> = o.iter().collect();
            assert_eq!(distinct.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn k1_is_the_identity_placement() {
        let p = Placement::new(6, 1);
        for s in 0..6 {
            assert_eq!(p.owners(s), vec![s]);
            assert_eq!(p.shards_on(s), vec![s]);
        }
    }

    #[test]
    fn shards_on_inverts_owners() {
        let p = Placement::new(8, 3);
        for node in 0..8 {
            for s in 0..8 {
                assert_eq!(p.shards_on(node).contains(&s), p.holds(node, s));
            }
            assert_eq!(p.shards_on(node).len(), 3, "k shards per node");
        }
    }

    #[test]
    fn single_rack_rack_aware_is_the_classic_ring() {
        for n in [1, 2, 5, 8] {
            for k in 1..=n {
                assert_eq!(Placement::rack_aware(n, 1, k), Placement::new(n, k));
            }
        }
    }

    #[test]
    fn rack_aware_chain_walks_racks_first() {
        // 8 nodes, 2 racks of 4: shard 1 (rack 0, slot 1) chains to rack
        // 1 slot 1 (node 5), then back to rack 0 slot 2 (node 2).
        let p = Placement::rack_aware(8, 2, 3);
        assert_eq!(p.owners(1), vec![1, 5, 2]);
        assert_eq!(p.spanned_racks(1), 2);
        // Shard homed in rack 1 chains into rack 0 first.
        assert_eq!(p.owners(6), vec![6, 2, 7]);
        for s in 0..8 {
            assert_eq!(p.owners(s)[0], s, "primary is unchanged by rack awareness");
            let distinct: std::collections::HashSet<_> = p.owners(s).into_iter().collect();
            assert_eq!(distinct.len(), 3);
        }
    }

    #[test]
    fn rack_aware_shards_on_inverts_owners() {
        for (n, racks, k) in [(8, 2, 3), (12, 4, 5), (12, 3, 12), (9, 3, 4)] {
            let p = Placement::rack_aware(n, racks, k);
            for node in 0..n {
                for s in 0..n {
                    assert_eq!(
                        p.shards_on(node).contains(&s),
                        p.holds(node, s),
                        "n={n} racks={racks} k={k} node={node} shard={s}"
                    );
                }
                assert_eq!(p.shards_on(node).len(), k, "k shards per node");
            }
        }
    }

    #[test]
    fn gather_order_puts_dst_rack_first_without_reordering_groups() {
        let p = Placement::rack_aware(8, 2, 3);
        // owners(1) = [1, 5, 2]; gathering to node 4 (rack 1) floats the
        // rack-1 copy (node 5) to the front, keeping [1, 2] in chain
        // order behind it.
        assert_eq!(p.gather_order(1, 4), vec![5, 1, 2]);
        // Gathering to rack 0 keeps the chain order outright.
        assert_eq!(p.gather_order(1, 0), vec![1, 2, 5]);
        // Single rack: gather order IS the chain order, always.
        let flat = Placement::new(8, 3);
        for s in 0..8 {
            for d in 0..8 {
                assert_eq!(flat.gather_order(s, d), flat.owners(s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn k_larger_than_nodes_is_rejected() {
        Placement::new(3, 4);
    }
}
