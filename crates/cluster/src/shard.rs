//! Sharding TPC-H across DPU nodes, with k-way replica placement.
//!
//! Each node owns 8 GB — a rack-resident dataset must be partitioned.
//! The layout mirrors what distributed warehouses do on top of the
//! paper's hardware: the two fact tables (`orders`, `lineitem`) are
//! **co-sharded by order key**, so every order and all of its line items
//! live on exactly one logical shard and the orders⋈lineitem join never
//! crosses the fabric; the small dimension tables (customer, part,
//! supplier, nation, region) are **replicated** to every node at load
//! time over a fabric broadcast. Only re-keyed aggregations (Q10's
//! group-by customer) need a network shuffle at query time.
//!
//! Since PR 2, each fact shard is additionally **stored on `k` distinct
//! nodes** under chained-declustering [`Placement`] so a node crash
//! degrades throughput instead of losing a shard; `k = 1` reproduces the
//! original one-copy layout exactly.

use dpu_isa::hash::crc32c_u64;
use dpu_sql::tpch::{project_rows, TableCompression, TpchDb};
use dpu_sql::{sample_bounds, BaseTable, Table};

use crate::replica::Placement;

/// How rows map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPolicy {
    /// `crc32c(key) mod shards` — the same hash the DMS partition engine
    /// uses, so a node-level reshard can reuse the hardware path.
    Hash {
        /// Shard count.
        shards: usize,
    },
    /// Range sharding on sampled inclusive upper bounds (ascending);
    /// shard `i` holds keys `≤ bounds[i]`, the last shard the rest —
    /// the DMS range engine's semantics.
    Range {
        /// Ascending inclusive upper bounds (one fewer than shards).
        bounds: Vec<i64>,
    },
}

impl ShardPolicy {
    /// Hash sharding over `shards` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardPolicy::Hash { shards }
    }

    /// Range sharding with bounds sampled from `values` (equi-depth).
    /// Duplicate-heavy data can yield fewer than `shards` shards.
    pub fn range_over(values: &[i64], shards: usize) -> Self {
        ShardPolicy::Range { bounds: sample_bounds(values, shards) }
    }

    /// Number of shards this policy produces.
    pub fn shards(&self) -> usize {
        match self {
            ShardPolicy::Hash { shards } => *shards,
            ShardPolicy::Range { bounds } => bounds.len() + 1,
        }
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: i64) -> usize {
        match self {
            ShardPolicy::Hash { shards } => crc32c_u64(key as u64) as usize % shards,
            ShardPolicy::Range { bounds } => {
                bounds.iter().position(|&b| key <= b).unwrap_or(bounds.len())
            }
        }
    }
}

/// Splits `table` into one table per shard by the `key` column, keeping
/// row order within each shard.
///
/// # Panics
///
/// Panics if the key column is missing.
pub fn shard_table(table: &Table, key: &str, policy: &ShardPolicy) -> Vec<Table> {
    let keys = &table.columns[table.col_index(key)].data;
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); policy.shards()];
    for (r, &k) in keys.iter().enumerate() {
        rows[policy.shard_of(k)].push(r);
    }
    rows.iter().map(|rs| project_rows(table, rs)).collect()
}

/// The database distributed across a cluster.
#[derive(Debug, Clone)]
pub struct ShardedTpch {
    /// Per-shard databases: sharded facts + replicated dimensions. Shard
    /// `s` is stored on every node in `placement.owners(s)`.
    pub shards: Vec<TpchDb>,
    /// Which nodes hold a replica of each shard.
    pub placement: Placement,
    /// The fact-table placement policy.
    pub policy: ShardPolicy,
    /// Fact bytes scattered point-to-point at load time (each row `k`
    /// times — once per replica).
    pub scatter_bytes: u64,
    /// Dimension bytes each node receives from the load-time broadcast.
    pub broadcast_bytes: u64,
}

impl ShardedTpch {
    /// Node count (== shard count).
    pub fn n_nodes(&self) -> usize {
        self.shards.len()
    }

    /// Replication factor.
    pub fn k(&self) -> usize {
        self.placement.k()
    }

    /// Per-shard row counts of one base table — the single statistics
    /// source shared by the planner's cardinality catalog and
    /// [`skew_report`](Self::skew_report). Dimension tables report their
    /// replicated (identical) per-node counts.
    pub fn table_rows(&self, table: BaseTable) -> Vec<usize> {
        self.shards.iter().map(|n| table.of(n).rows()).collect()
    }

    /// Lineitem rows per shard (the skew metric).
    pub fn lineitem_rows(&self) -> Vec<usize> {
        self.table_rows(BaseTable::Lineitem)
    }

    /// The load-balance report over [`lineitem_rows`](Self::lineitem_rows)
    /// — the slowest shard gates every scatter/gather query, so placement
    /// skew converts directly into lost QPS.
    pub fn skew_report(&self) -> SkewReport {
        SkewReport::from_rows(&self.lineitem_rows())
    }

    /// Fact bytes of shard `s` (one replica's worth).
    pub fn shard_fact_bytes(&self, s: usize) -> u64 {
        self.shards[s].orders.bytes() + self.shards[s].lineitem.bytes()
    }

    /// Fact bytes stored on `node` across all shards it holds.
    pub fn node_fact_bytes(&self, node: usize) -> u64 {
        self.placement.shards_on(node).iter().map(|&s| self.shard_fact_bytes(s)).sum()
    }

    /// Per-table compression totals merged across every shard. Dimension
    /// tables count once per shard — they really are replicated to every
    /// node — so the sums are the rack's actual resident bytes (for one
    /// replica of each fact shard; multiply fact rows by
    /// [`k`](Self::k) for the replicated footprint).
    pub fn compression_report(&self) -> Vec<TableCompression> {
        let mut merged = self.shards[0].compression_report();
        for s in &self.shards[1..] {
            for (dst, src) in merged.iter_mut().zip(s.compression_report()) {
                dst.merge(&src);
            }
        }
        merged
    }
}

/// How evenly the fact rows spread across shards. `imbalance` is the
/// straggler factor a perfectly CPU-bound scatter/gather query pays:
/// the slowest shard holds `imbalance ×` the mean row count.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Rows per shard, in shard order.
    pub rows: Vec<usize>,
    /// Rows on the heaviest shard.
    pub max_rows: usize,
    /// Mean rows per shard.
    pub mean_rows: f64,
    /// `max_rows / mean_rows` (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Coefficient of variation of the per-shard row counts.
    pub cv: f64,
    /// Gini coefficient of the per-shard row counts (0 = uniform,
    /// → 1 = one shard holds everything).
    pub gini: f64,
}

impl SkewReport {
    /// Computes the report from per-shard row counts.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn from_rows(rows: &[usize]) -> Self {
        assert!(!rows.is_empty(), "no shards to report on");
        let n = rows.len() as f64;
        let total: usize = rows.iter().sum();
        let mean = total as f64 / n;
        let max = rows.iter().copied().max().expect("non-empty");
        let (imbalance, cv, gini) = if total == 0 {
            (1.0, 0.0, 0.0)
        } else {
            let var = rows.iter().map(|&r| (r as f64 - mean).powi(2)).sum::<f64>() / n;
            let mut sorted: Vec<usize> = rows.to_vec();
            sorted.sort_unstable();
            // G = (2 Σᵢ i·xᵢ) / (n Σ x) − (n + 1)/n over ascending xᵢ,
            // i counted from 1.
            let weighted: f64 =
                sorted.iter().enumerate().map(|(i, &r)| (i + 1) as f64 * r as f64).sum();
            let g = 2.0 * weighted / (n * total as f64) - (n + 1.0) / n;
            (max as f64 / mean, var.sqrt() / mean, g.max(0.0))
        };
        SkewReport { rows: rows.to_vec(), max_rows: max, mean_rows: mean, imbalance, cv, gini }
    }
}

/// Distributes `db` across shards with one replica each: `orders` and
/// `lineitem` co-sharded by order key under `policy`, dimensions
/// replicated everywhere. Equivalent to
/// [`shard_tpch_replicated`]`(db, policy, 1)`.
pub fn shard_tpch(db: &TpchDb, policy: &ShardPolicy) -> ShardedTpch {
    shard_tpch_replicated(db, policy, 1)
}

/// Distributes `db` across shards with `k` replicas per fact shard under
/// single-rack chained-declustering placement. Dimensions are replicated
/// to every node regardless of `k`. Equivalent to
/// [`shard_tpch_placed`] with [`Placement::new`].
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the shard count.
pub fn shard_tpch_replicated(db: &TpchDb, policy: &ShardPolicy, k: usize) -> ShardedTpch {
    shard_tpch_placed(db, policy, Placement::new(policy.shards(), k))
}

/// Distributes `db` across shards under an explicit replica `placement`
/// (e.g. [`Placement::rack_aware`], which spreads each shard's copies
/// over `min(k, racks)` failure domains). Dimensions are replicated to
/// every node regardless of the placement.
///
/// # Panics
///
/// Panics if the placement's node count differs from the policy's shard
/// count.
pub fn shard_tpch_placed(db: &TpchDb, policy: &ShardPolicy, placement: Placement) -> ShardedTpch {
    assert_eq!(placement.n_nodes(), policy.shards(), "placement nodes must match policy shards");
    let orders = shard_table(&db.orders, "o_orderkey", policy);
    let lineitem = shard_table(&db.lineitem, "l_orderkey", policy);
    let mut shards: Vec<TpchDb> = orders
        .into_iter()
        .zip(lineitem)
        .map(|(o, l)| TpchDb {
            orders: o,
            lineitem: l,
            customer: db.customer.clone(),
            part: db.part.clone(),
            supplier: db.supplier.clone(),
            nation: db.nation.clone(),
            region: db.region.clone(),
        })
        .collect();
    // The fact shards are freshly projected (flat) tables; the cloned
    // dimensions arrive pre-packed. Re-encode so every shard stores its
    // facts FOR/bit-packed too (encoding is idempotent per column).
    for s in &mut shards {
        s.encode_packed();
    }
    let k = placement.k();
    let broadcast_bytes = db.customer.bytes()
        + db.part.bytes()
        + db.supplier.bytes()
        + db.nation.bytes()
        + db.region.bytes();
    ShardedTpch {
        shards,
        placement,
        policy: policy.clone(),
        scatter_bytes: k as u64 * (db.orders.bytes() + db.lineitem.bytes()),
        broadcast_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sql::tpch::generate;
    use dpu_sql::Column;

    #[test]
    fn hash_policy_covers_all_shards() {
        let p = ShardPolicy::hash(8);
        assert_eq!(p.shards(), 8);
        let mut seen = [false; 8];
        for k in 0..1000 {
            seen[p.shard_of(k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys should hit all 8 shards");
    }

    #[test]
    fn range_policy_is_monotone() {
        let keys: Vec<i64> = (0..10_000).collect();
        let p = ShardPolicy::range_over(&keys, 8);
        assert_eq!(p.shards(), 8);
        let mut last = 0;
        for k in 0..10_000 {
            let s = p.shard_of(k);
            assert!(s >= last, "range shards must be monotone in key");
            last = s;
        }
        assert_eq!(last, 7);
    }

    #[test]
    fn shard_table_partitions_rows_exactly() {
        let t = Table::new(vec![
            Column::i32("k", (0..100).collect()),
            Column::i32("v", (100..200).collect()),
        ]);
        let p = ShardPolicy::hash(4);
        let shards = shard_table(&t, "k", &p);
        assert_eq!(shards.iter().map(Table::rows).sum::<usize>(), 100);
        for (s, shard) in shards.iter().enumerate() {
            for r in 0..shard.rows() {
                let k = shard.column("k").unwrap().data[r];
                assert_eq!(p.shard_of(k), s);
                // Row integrity: v rides along with its key.
                assert_eq!(shard.column("v").unwrap().data[r], k + 100);
            }
        }
    }

    #[test]
    fn tpch_cosharding_keeps_orders_with_their_lines() {
        let db = generate(500, 7);
        let sharded = shard_tpch(&db, &ShardPolicy::hash(8));
        assert_eq!(sharded.n_nodes(), 8);
        assert_eq!(sharded.k(), 1);
        // Every row placed exactly once.
        let o: usize = sharded.shards.iter().map(|n| n.orders.rows()).sum();
        let l: usize = sharded.shards.iter().map(|n| n.lineitem.rows()).sum();
        assert_eq!(o, db.orders.rows());
        assert_eq!(l, db.lineitem.rows());
        // Co-sharding: a shard's lineitem keys all appear in its orders.
        for node in &sharded.shards {
            let owned: std::collections::HashSet<i64> =
                node.orders.column("o_orderkey").unwrap().data.iter().copied().collect();
            for &k in &node.lineitem.column("l_orderkey").unwrap().data {
                assert!(owned.contains(&k), "line item {k} astray from its order");
            }
            // Dimensions replicated in full.
            assert_eq!(node.customer.rows(), db.customer.rows());
            assert_eq!(node.nation.rows(), 25);
        }
        assert_eq!(sharded.scatter_bytes, db.orders.bytes() + db.lineitem.bytes());
        assert!(sharded.broadcast_bytes > 0);
    }

    #[test]
    fn lineitem_shards_take_the_key_ordered_group_by_for_q18() {
        // Every shard keeps lineitem in `l_orderkey` order, so Q18's
        // `GROUP BY l_orderkey` never hashes.
        let plan = dpu_sql::logical::q18_plan();
        let dpu_sql::logical::Source::GroupHaving { spec, .. } = &plan.scans[0].source else {
            panic!("Q18 starts from a grouped lineitem scan");
        };
        let sharded = shard_tpch(&generate(2_000, 2026), &ShardPolicy::hash(8));
        for node in &sharded.shards {
            let ordered = spec.execute_ordered(&node.lineitem, None);
            assert_eq!(ordered, Some(spec.execute_seq(&node.lineitem, None)));
        }
    }

    #[test]
    fn replication_multiplies_storage_not_shards() {
        let db = generate(400, 11);
        let one = shard_tpch_replicated(&db, &ShardPolicy::hash(6), 1);
        let three = shard_tpch_replicated(&db, &ShardPolicy::hash(6), 3);
        // The logical shards are identical — replication changes where
        // they are stored, not how rows partition.
        assert_eq!(one.shards.len(), three.shards.len());
        for (a, b) in one.shards.iter().zip(&three.shards) {
            assert_eq!(a.orders.rows(), b.orders.rows());
            assert_eq!(a.lineitem.rows(), b.lineitem.rows());
        }
        assert_eq!(three.scatter_bytes, 3 * one.scatter_bytes);
        // Each node stores k shards' worth of facts; the total across
        // nodes is k × the database.
        let per_node: u64 = (0..6).map(|n| three.node_fact_bytes(n)).sum();
        assert_eq!(per_node, 3 * (db.orders.bytes() + db.lineitem.bytes()));
    }

    #[test]
    fn skew_report_flags_a_deliberately_lopsided_range_layout() {
        let db = generate(600, 17);
        // Order keys run 1..=600. Hand-picked bounds pile nearly every
        // key onto the last of 4 shards.
        let skewed = shard_tpch(&db, &ShardPolicy::Range { bounds: vec![5, 10, 15] });
        let balanced = shard_tpch(&db, &ShardPolicy::hash(4));
        let s = skewed.skew_report();
        let b = balanced.skew_report();
        assert_eq!(s.rows, skewed.lineitem_rows());
        assert!(s.max_rows >= s.mean_rows as usize);
        assert!(
            s.imbalance > 3.0,
            "4 shards with one holding ~everything must report imbalance ≈ 4 (got {})",
            s.imbalance
        );
        assert!(s.gini > 0.6, "lopsided layout must have high Gini (got {})", s.gini);
        assert!(s.cv > 1.0, "lopsided layout must have high CV (got {})", s.cv);
        assert!(b.imbalance < 1.3, "hash sharding should balance (got {})", b.imbalance);
        assert!(b.gini < 0.2, "hash sharding Gini should be near 0 (got {})", b.gini);
        assert!(s.gini > b.gini && s.cv > b.cv && s.imbalance > b.imbalance);
    }

    #[test]
    fn table_rows_is_the_single_statistics_source() {
        let db = generate(500, 7);
        let sharded = shard_tpch(&db, &ShardPolicy::hash(8));
        let li = sharded.table_rows(BaseTable::Lineitem);
        assert_eq!(li, sharded.lineitem_rows());
        assert_eq!(sharded.skew_report(), SkewReport::from_rows(&li));
        // Facts partition exactly; dimensions replicate in full.
        assert_eq!(li.iter().sum::<usize>(), db.lineitem.rows());
        let orders = sharded.table_rows(BaseTable::Orders);
        assert_eq!(orders.iter().sum::<usize>(), db.orders.rows());
        let cust = sharded.table_rows(BaseTable::Customer);
        assert!(cust.iter().all(|&c| c == db.customer.rows()));
    }

    #[test]
    fn skew_report_is_exact_on_known_counts() {
        let r = SkewReport::from_rows(&[10, 10, 10, 10]);
        assert_eq!(r.max_rows, 10);
        assert_eq!(r.mean_rows, 10.0);
        assert_eq!(r.imbalance, 1.0);
        assert_eq!(r.cv, 0.0);
        assert!(r.gini.abs() < 1e-12);
        // One shard holds all rows of four: G = (n−1)/n = 0.75.
        let one = SkewReport::from_rows(&[0, 0, 0, 40]);
        assert_eq!(one.imbalance, 4.0);
        assert!((one.gini - 0.75).abs() < 1e-12);
    }
}
