//! Per-shard statistics: row counts, min/max bands and HyperLogLog NDV
//! sketches, collected per shard and merged at the coordinator.
//!
//! The statistics layer is deliberately built the way a rack would build
//! it: each shard sketches its own columns (a scan-speed pass on the
//! DPU), the coordinator merges the sketches register-wise — HLL merge
//! is exact for unions — and row counts come from the same
//! [`ShardedTpch::table_rows`] source the skew report uses, so the
//! planner and the load balancer can never disagree about shard sizes.
//!
//! [`ShardedTpch::table_rows`]: dpu_cluster::ShardedTpch::table_rows
//!
//! Sketches hash with `Murmur64`, not the DPU's native CRC32: planner
//! statistics run over raw (often sequential) key columns, exactly the
//! structured inputs where CRC32's GF(2) linearity collapses register
//! ranks (see `dpu_sql::hll`).

use std::collections::BTreeMap;

use dpu_cluster::ClusterCore;
use dpu_isa::hash::HashKind;
use dpu_sql::hll::HyperLogLog;
use dpu_sql::logical::{BaseTable, ColFilter};
use dpu_sql::{CompareOp, Table};

/// Sketch precision: 2^12 registers ⇒ ≈1.6 % standard error.
pub const SKETCH_PRECISION: u8 = 12;

/// Merged statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Smallest value seen across all shards.
    pub min: i64,
    /// Largest value seen across all shards.
    pub max: i64,
    /// Estimated number of distinct values (merged HLL estimate, ≥ 1).
    pub ndv: f64,
    /// Total *resident* bytes across the cluster (replicas counted
    /// once): packed columns report their FOR/bit-packed size, so the
    /// roofline prices scans by the bytes the engine actually streams.
    pub bytes: u64,
    /// The merged sketch itself (kept so error bounds can be audited).
    pub sketch: HyperLogLog,
}

/// Statistics for one base table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total rows (replicated tables counted once).
    pub rows: u64,
    /// Rows per shard; replicated tables repeat their full count.
    pub per_shard_rows: Vec<usize>,
    /// Whether the table is hash/range-partitioned across shards.
    pub sharded: bool,
    /// Per-column statistics, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// Fraction of rows a single-column band filter keeps, under the
    /// uniform-within-band assumption; equality predicates use `1/NDV`.
    pub fn selectivity(&self, f: &ColFilter) -> f64 {
        let Some(s) = self.columns.get(&f.col) else { return 1.0 };
        if s.max < s.min {
            return 0.0;
        }
        let (lo, hi) = f.op.band();
        let (lo, hi) = (lo.max(s.min), hi.min(s.max));
        if hi < lo {
            return 0.0;
        }
        if matches!(f.op, CompareOp::Eq(_)) {
            return (1.0 / s.ndv).min(1.0);
        }
        // In i128: a band or domain spanning most of `i64` overflows it.
        let width = (hi as i128 - lo as i128 + 1) as f64;
        let domain = (s.max as i128 - s.min as i128 + 1) as f64;
        (width / domain).min(1.0)
    }

    /// Combined selectivity of a conjunction (independence assumption).
    pub fn conjunction(&self, filters: &[ColFilter]) -> f64 {
        filters.iter().map(|f| self.selectivity(f)).product()
    }
}

/// The merged cluster-wide catalog the optimizer costs plans against.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Number of shards the statistics were collected from.
    pub n_shards: usize,
    tables: Vec<(BaseTable, TableStats)>,
}

impl Catalog {
    /// Collects statistics from a cluster core: per-shard row counts via
    /// [`ShardedTpch::table_rows`] (the skew report's source), per-shard
    /// HLL sketches merged across shards for partitioned tables, and a
    /// single replica's sketch for replicated dimensions.
    ///
    /// [`ShardedTpch::table_rows`]: dpu_cluster::ShardedTpch::table_rows
    pub fn from_core(core: &ClusterCore) -> Catalog {
        let sharded = core.sharded();
        let n_shards = sharded.shards.len();
        let mut tables = Vec::with_capacity(BaseTable::ALL.len());
        for &t in &BaseTable::ALL {
            let per_shard_rows = sharded.table_rows(t);
            let rows: u64 = if t.is_sharded() {
                per_shard_rows.iter().sum::<usize>() as u64
            } else {
                per_shard_rows[0] as u64
            };
            let proto = t.of(&sharded.shards[0]);
            let mut columns = BTreeMap::new();
            for c in &proto.columns {
                let shard_tables: Vec<&Table> = if t.is_sharded() {
                    sharded.shards.iter().map(|db| t.of(db)).collect()
                } else {
                    vec![proto]
                };
                columns.insert(c.name.clone(), column_stats(&c.name, &shard_tables));
            }
            tables.push((t, TableStats { rows, per_shard_rows, sharded: t.is_sharded(), columns }));
        }
        Catalog { n_shards, tables }
    }

    /// Statistics for one table.
    pub fn table(&self, t: BaseTable) -> &TableStats {
        &self.tables.iter().find(|(b, _)| *b == t).expect("table in catalog").1
    }

    /// Finds the table owning a column name (TPC-H prefixes make names
    /// unique) together with its stats; grouped-output columns such as
    /// `sum_qty` have no base column and return `None`.
    pub fn column(&self, col: &str) -> Option<(BaseTable, &ColumnStats)> {
        self.tables.iter().find_map(|(t, s)| s.columns.get(col).map(|c| (*t, c)))
    }

    /// Cluster-wide NDV of a column, 1.0 when unknown.
    pub fn ndv(&self, col: &str) -> f64 {
        self.column(col).map_or(1.0, |(_, c)| c.ndv)
    }

    /// NDV of a column *as seen by one shard*, under the planner's
    /// uniformity assumption: a partitioned table spreads its distinct
    /// values evenly over the shards, a replicated table exposes all of
    /// them everywhere. This is the textbook assumption, and like any
    /// NDV-only model it carries no correlation information: after a
    /// filter or join, [`super::cost`]'s group estimate can only cap
    /// the group count at the surviving input rows, as if every row
    /// carried a distinct key. Keys that repeat across rows (Q10's
    /// repeat customers on `o_custkey`) collapse the real partial
    /// aggregates well below that cap — the estimation error the
    /// adaptive layer observes and corrects from serve traffic.
    pub fn shard_ndv(&self, col: &str) -> f64 {
        match self.column(col) {
            None => 1.0,
            Some((t, c)) => {
                if self.table(t).sharded {
                    (c.ndv / self.n_shards as f64).max(1.0)
                } else {
                    c.ndv
                }
            }
        }
    }
}

fn column_stats(name: &str, shard_tables: &[&Table]) -> ColumnStats {
    let mut merged = HyperLogLog::new(SKETCH_PRECISION, HashKind::Murmur64);
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    let mut bytes = 0u64;
    for t in shard_tables {
        let col = t.column(name).expect("column present on every shard");
        bytes += col.resident_bytes();
        let mut local = HyperLogLog::new(SKETCH_PRECISION, HashKind::Murmur64);
        if let Some(p) = &col.packed {
            // Packed columns carry exact per-chunk frame/max zone maps —
            // min/max fold over the headers instead of the row stream.
            for ch in p.chunks() {
                min = min.min(ch.frame);
                max = max.max(ch.max);
            }
            for &v in &col.data {
                local.insert(v as u64);
            }
        } else {
            for &v in &col.data {
                local.insert(v as u64);
                min = min.min(v);
                max = max.max(v);
            }
        }
        merged.merge(&local);
    }
    ColumnStats { min, max, ndv: merged.estimate().max(1.0), bytes, sketch: merged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_cluster::{ClusterConfig, ShardPolicy};
    use dpu_sql::tpch::generate;
    use std::collections::BTreeSet;

    fn core() -> std::sync::Arc<ClusterCore> {
        let db = generate(1000, 7);
        ClusterCore::new(db, &ShardPolicy::hash(8), ClusterConfig::prototype_slice(8, 1000))
    }

    #[test]
    fn merged_sketches_track_true_distinct_counts() {
        let core = core();
        let catalog = Catalog::from_core(&core);
        for (table, col) in [
            (BaseTable::Lineitem, "l_orderkey"),
            (BaseTable::Orders, "o_custkey"),
            (BaseTable::Customer, "c_custkey"),
        ] {
            let truth = t_distinct(core.full(), table, col);
            let s = &catalog.table(table).columns[col];
            let err = (s.ndv - truth).abs() / truth;
            // 4σ of the 2^12-register estimator.
            assert!(err < 4.0 * s.sketch.std_error(), "{col}: est {} truth {truth}", s.ndv);
        }
    }

    fn t_distinct(db: &dpu_sql::tpch::TpchDb, t: BaseTable, col: &str) -> f64 {
        t.of(db).column(col).unwrap().data.iter().collect::<BTreeSet<_>>().len() as f64
    }

    #[test]
    fn row_counts_come_from_the_shared_shard_source() {
        let core = core();
        let catalog = Catalog::from_core(&core);
        let li = catalog.table(BaseTable::Lineitem);
        assert!(li.sharded);
        assert_eq!(li.per_shard_rows, core.sharded().table_rows(BaseTable::Lineitem));
        assert_eq!(li.rows as usize, li.per_shard_rows.iter().sum::<usize>());
        let nation = catalog.table(BaseTable::Nation);
        assert!(!nation.sharded);
        assert_eq!(nation.rows as usize, nation.per_shard_rows[0]);
    }

    #[test]
    fn packed_headers_reproduce_scanned_stats() {
        // The catalog reads min/max from FOR chunk headers and bytes from
        // the resident (packed) sizes; both must equal what a full scan
        // of the flat data would have produced.
        let core = core();
        let catalog = Catalog::from_core(&core);
        let sharded = core.sharded();
        let mut packed_cols = 0usize;
        for &t in &BaseTable::ALL {
            let shard_tables: Vec<&Table> = if t.is_sharded() {
                sharded.shards.iter().map(|db| t.of(db)).collect()
            } else {
                vec![t.of(&sharded.shards[0])]
            };
            for c in &shard_tables[0].columns {
                let (mut min, mut max, mut bytes) = (i64::MAX, i64::MIN, 0u64);
                for st in &shard_tables {
                    let col = st.column(&c.name).expect("column on every shard");
                    packed_cols += usize::from(col.packed.is_some());
                    bytes += col.resident_bytes();
                    for &v in &col.data {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                let s = &catalog.table(t).columns[&c.name];
                assert_eq!((s.min, s.max, s.bytes), (min, max, bytes), "{}", c.name);
            }
        }
        assert!(packed_cols > 0, "no packed columns — the header path went untested");
    }

    #[test]
    fn band_selectivity_is_proportional_and_clamped() {
        let core = core();
        let catalog = Catalog::from_core(&core);
        let orders = catalog.table(BaseTable::Orders);
        let all =
            orders.selectivity(&ColFilter::new("o_orderdate", CompareOp::Ge(i32::MIN as i64)));
        assert!((all - 1.0).abs() < 1e-9);
        let none =
            orders.selectivity(&ColFilter::new("o_orderdate", CompareOp::Lt(i32::MIN as i64 + 1)));
        assert_eq!(none, 0.0);
        // Strict compares past the i64 extremes are empty bands.
        for op in [CompareOp::Lt(i64::MIN), CompareOp::Gt(i64::MAX)] {
            assert_eq!(orders.selectivity(&ColFilter::new("o_orderdate", op)), 0.0, "{op:?}");
        }
        let half_band = {
            let s = &orders.columns["o_orderdate"];
            ColFilter::new("o_orderdate", CompareOp::Between(s.min, s.min + (s.max - s.min) / 2))
        };
        let half = orders.selectivity(&half_band);
        assert!(half > 0.3 && half < 0.7, "half-band selectivity {half}");
        let eq = orders.selectivity(&ColFilter::new("o_custkey", CompareOp::Eq(1)));
        let ndv = catalog.ndv("o_custkey");
        assert!((eq - 1.0 / ndv).abs() < 1e-9);
    }

    #[test]
    fn selectivity_spans_the_whole_i64_domain() {
        let stats = |min: i64, max: i64| TableStats {
            rows: 100,
            per_shard_rows: vec![100],
            sharded: false,
            columns: BTreeMap::from([(
                "x".to_string(),
                ColumnStats {
                    min,
                    max,
                    ndv: 100.0,
                    bytes: 800,
                    sketch: HyperLogLog::new(SKETCH_PRECISION, HashKind::Murmur64),
                },
            )]),
        };
        let ge0 = ColFilter::new("x", CompareOp::Ge(0));
        // [0, MAX] of [-5, MAX]: all but five values.
        let sel = stats(-5, i64::MAX).selectivity(&ge0);
        assert!((sel - 1.0).abs() < 1e-9, "Ge(0) over [-5, MAX]: {sel}");
        // [0, MAX] of [MIN, MAX]: half the domain.
        let sel = stats(i64::MIN, i64::MAX).selectivity(&ge0);
        assert!((sel - 0.5).abs() < 1e-9, "Ge(0) over [MIN, MAX]: {sel}");
        let sel = stats(i64::MIN, i64::MAX).selectivity(&ColFilter::new("x", CompareOp::Lt(0)));
        assert!((sel - 0.5).abs() < 1e-9, "Lt(0) over [MIN, MAX]: {sel}");
    }
}
