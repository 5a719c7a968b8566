//! TPC-H: scaled data generation and the Figure 16 query set.
//!
//! The paper connects its DPU SQL engine to a commercial columnar
//! database and offloads TPC-H execution, reporting a 15× geometric-mean
//! performance/watt gain (Figure 16). We regenerate that experiment with
//! a dbgen-shaped synthetic dataset (deterministic, scaled down) and
//! eight representative queries. Each query is defined once, as a
//! [`logical`] plan; the functions here run that plan on one node
//! (functionally — `tests/tpch_oracle.rs` checks every answer against a
//! naive row-at-a-time evaluator) and price it through the plan's cost
//! walk ([`crate::walk`]).
//!
//! Monetary values are integer cents; percentages are integer points;
//! dates are days since 1992-01-01.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xeon_model::Xeon;

use crate::bitvec::BitVec;
use crate::column::{Column, Table};
use crate::logical::{self, LogicalOutput, LogicalPlan};
use crate::plan::QueryCost;

/// Day count of 1995-01-01 relative to 1992-01-01 (used by Q3/Q5-style
/// date predicates).
pub const D_1995: i64 = 1096;
/// Total days covered by order dates (1992-01-01 .. 1998-08-02).
pub const ORDER_DAYS: i64 = 2405;

// Per-operator compute costs (cycles per row). The DPU numbers come from
// the measured FILT kernel (scan) and single-cycle DMEM hash tables; the
// Xeon numbers assume SIMD scans and L2-resident probes after
// partitioning.
pub const SCAN_DPU: f64 = 1.65;
/// The Figure 16 baseline is "a widely used commercial database with
/// in-memory columnar query execution", not the hand-tuned kernels of
/// Figure 14. Commercial engines realize roughly half of hand-tuned
/// scan bandwidth (expression interpretation, operator overheads,
/// row-group bookkeeping) — this factor scales the Xeon side of every
/// TPC-H query accordingly.
pub const XEON_DB_EFFICIENCY: f64 = 0.5;
pub const SCAN_XEON: f64 = 0.5;
pub const PROBE_DPU: f64 = 8.0;
pub const PROBE_XEON: f64 = 12.0;
pub const AGG_DPU: f64 = 6.0;
pub const AGG_XEON: f64 = 10.0;

/// The generated database.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchDb {
    /// Fact table.
    pub lineitem: Table,
    /// Orders.
    pub orders: Table,
    /// Customers.
    pub customer: Table,
    /// Parts.
    pub part: Table,
    /// Suppliers.
    pub supplier: Table,
    /// Nations (25).
    pub nation: Table,
    /// Regions (5).
    pub region: Table,
}

impl TpchDb {
    /// Table name/reference pairs, fact table first.
    pub fn tables(&self) -> [(&'static str, &Table); 7] {
        [
            ("lineitem", &self.lineitem),
            ("orders", &self.orders),
            ("customer", &self.customer),
            ("part", &self.part),
            ("supplier", &self.supplier),
            ("nation", &self.nation),
            ("region", &self.region),
        ]
    }

    /// Packs every column of every table where packing pays
    /// ([`crate::column::Column::encode_packed`]). The generate paths
    /// call this once at load, unconditionally, so every simulated cost
    /// prices the packed resident sizes. Idempotent and deterministic:
    /// encoding depends only on the values, never on thread count.
    pub fn encode_packed(&mut self) {
        for t in [
            &mut self.lineitem,
            &mut self.orders,
            &mut self.customer,
            &mut self.part,
            &mut self.supplier,
            &mut self.nation,
            &mut self.region,
        ] {
            t.encode_packed();
        }
    }

    /// Per-table compression report (bits/value per column, resident
    /// packed vs flat bytes) — what `rack_tpch` prints next to the skew
    /// report.
    pub fn compression_report(&self) -> Vec<TableCompression> {
        self.tables().iter().map(|(n, t)| TableCompression::of(n, t)).collect()
    }
}

/// One column's share of a [`TableCompression`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCompression {
    /// Column name.
    pub name: String,
    /// Rows.
    pub rows: u64,
    /// Bytes at the declared flat width.
    pub flat_bytes: u64,
    /// Resident bytes (packed when packing pays, flat otherwise).
    pub packed_bytes: u64,
}

impl ColumnCompression {
    /// Average resident bits per value, headers included.
    pub fn bits_per_value(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.packed_bytes as f64 * 8.0 / self.rows as f64
        }
    }
}

/// A table's compression summary; shard reports merge with
/// [`TableCompression::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCompression {
    /// Table name.
    pub table: String,
    /// Rows.
    pub rows: u64,
    /// Per-column breakdown.
    pub columns: Vec<ColumnCompression>,
}

impl TableCompression {
    /// The report for one table.
    pub fn of(table: &str, t: &Table) -> TableCompression {
        TableCompression {
            table: table.to_string(),
            rows: t.rows() as u64,
            columns: t
                .columns
                .iter()
                .map(|c| ColumnCompression {
                    name: c.name.clone(),
                    rows: c.data.len() as u64,
                    flat_bytes: c.bytes(),
                    packed_bytes: c.resident_bytes(),
                })
                .collect(),
        }
    }

    /// Total bytes at the declared flat widths.
    pub fn flat_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.flat_bytes).sum()
    }

    /// Total resident bytes.
    pub fn packed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.packed_bytes).sum()
    }

    /// Flat-to-resident compression ratio (1.0 for an empty table).
    pub fn ratio(&self) -> f64 {
        if self.packed_bytes() == 0 {
            1.0
        } else {
            self.flat_bytes() as f64 / self.packed_bytes() as f64
        }
    }

    /// Folds another shard's report for the same table into this one
    /// (summing rows and bytes column-wise).
    ///
    /// # Panics
    ///
    /// Panics if the schemas disagree.
    pub fn merge(&mut self, other: &TableCompression) {
        assert_eq!(self.table, other.table, "table mismatch");
        assert_eq!(self.columns.len(), other.columns.len(), "schema mismatch");
        self.rows += other.rows;
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            assert_eq!(dst.name, src.name, "schema mismatch");
            dst.rows += src.rows;
            dst.flat_bytes += src.flat_bytes;
            dst.packed_bytes += src.packed_bytes;
        }
    }
}

/// Generates a deterministic database with roughly `orders_n × 4`
/// lineitem rows (dbgen proportions: customer = orders/10, part =
/// orders/7.5, supplier = orders/100).
pub fn generate(orders_n: usize, seed: u64) -> TpchDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let customers_n = (orders_n / 10).max(5);
    let parts_n = (orders_n * 2 / 15).max(5);
    let suppliers_n = (orders_n / 100).max(3);

    // region / nation.
    let region = Table::new(vec![Column::i32("r_regionkey", (0..5).collect())]);
    let nation = Table::new(vec![
        Column::i32("n_nationkey", (0..25).collect()),
        Column::i32("n_regionkey", (0..25).map(|i| i % 5).collect()),
    ]);

    let customer = Table::new(vec![
        Column::i32("c_custkey", (0..customers_n as i64).collect()),
        Column::i32("c_nationkey", (0..customers_n).map(|_| rng.gen_range(0..25)).collect()),
        Column::i32("c_mktsegment", (0..customers_n).map(|_| rng.gen_range(0..5)).collect()),
    ]);

    let supplier = Table::new(vec![
        Column::i32("s_suppkey", (0..suppliers_n as i64).collect()),
        Column::i32("s_nationkey", (0..suppliers_n).map(|_| rng.gen_range(0..25)).collect()),
    ]);

    let part = Table::new(vec![
        Column::i32("p_partkey", (0..parts_n as i64).collect()),
        Column::i32("p_type", (0..parts_n).map(|_| rng.gen_range(0..150)).collect()),
    ]);

    let o_orderdate: Vec<i64> = (0..orders_n).map(|_| rng.gen_range(0..ORDER_DAYS)).collect();
    let orders = Table::new(vec![
        Column::i32("o_orderkey", (0..orders_n as i64).collect()),
        Column::i32(
            "o_custkey",
            (0..orders_n).map(|_| rng.gen_range(0..customers_n as i64)).collect(),
        ),
        Column::i32("o_orderdate", o_orderdate.clone()),
        Column::i32("o_totalprice", (0..orders_n).map(|_| rng.gen_range(1_000..500_000)).collect()),
    ]);

    // lineitem: 1..7 lines per order (mean 4, as dbgen).
    let mut l_orderkey = Vec::new();
    let mut l_partkey = Vec::new();
    let mut l_suppkey = Vec::new();
    let mut l_quantity = Vec::new();
    let mut l_extendedprice = Vec::new();
    let mut l_discount = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_returnflag = Vec::new();
    let mut l_linestatus = Vec::new();
    let mut l_shipdate = Vec::new();
    let mut l_receiptdate = Vec::new();
    let mut l_shipmode = Vec::new();
    for (ok, &odate) in o_orderdate.iter().enumerate() {
        for _ in 0..rng.gen_range(1..=7) {
            l_orderkey.push(ok as i64);
            l_partkey.push(rng.gen_range(0..parts_n as i64));
            l_suppkey.push(rng.gen_range(0..suppliers_n as i64));
            l_quantity.push(rng.gen_range(1..=50));
            l_extendedprice.push(rng.gen_range(100..100_000));
            l_discount.push(rng.gen_range(0..=10)); // percent
            l_tax.push(rng.gen_range(0..=8));
            let ship = odate + rng.gen_range(1..=121);
            l_shipdate.push(ship);
            l_receiptdate.push(ship + rng.gen_range(1..=30));
            l_returnflag.push(rng.gen_range(0..3));
            l_linestatus.push(rng.gen_range(0..2));
            l_shipmode.push(rng.gen_range(0..7));
        }
    }
    let lineitem = Table::new(vec![
        Column::i32("l_orderkey", l_orderkey),
        Column::i32("l_partkey", l_partkey),
        Column::i32("l_suppkey", l_suppkey),
        Column::i32("l_quantity", l_quantity),
        Column::i32("l_extendedprice", l_extendedprice),
        Column::i32("l_discount", l_discount),
        Column::i32("l_tax", l_tax),
        Column::i32("l_returnflag", l_returnflag),
        Column::i32("l_linestatus", l_linestatus),
        Column::i32("l_shipdate", l_shipdate),
        Column::i32("l_receiptdate", l_receiptdate),
        Column::i32("l_shipmode", l_shipmode),
    ]);

    let mut db = TpchDb { lineitem, orders, customer, part, supplier, nation, region };
    db.encode_packed();
    db
}

/// [`generate`] under the name the host-clock benchmark (`perfbench`)
/// calls; kept only until that benchmark names [`generate`] itself
/// (ROADMAP direction 5).
pub fn generate_parallel(orders_n: usize, seed: u64) -> TpchDb {
    generate(orders_n, seed)
}

/// Runs `plan` on `db`, costed at `scale`, returning its table.
fn run_table(plan: LogicalPlan, db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    match plan.execute_costed(db, xeon, scale) {
        (LogicalOutput::Table(t), cost, _) => (t, cost),
        (LogicalOutput::Scalars(_), ..) => unreachable!("{} is table-valued", plan.name),
    }
}

/// Runs `plan` on `db`, costed at `scale`, returning its scalar sums.
fn run_scalars(plan: LogicalPlan, db: &TpchDb, xeon: &Xeon, scale: u64) -> (Vec<i64>, QueryCost) {
    match plan.execute_costed(db, xeon, scale) {
        (LogicalOutput::Scalars(v), cost, _) => (v, cost),
        (LogicalOutput::Table(_), ..) => unreachable!("{} is scalar-valued", plan.name),
    }
}

/// Q1: pricing summary report (scan + 2-group aggregate).
pub fn q1(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q1_plan(), db, xeon, scale)
}

/// Q3: shipping-priority (3-table join, group, top-10).
pub fn q3(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q3_plan(), db, xeon, scale)
}

/// Q5: local-supplier volume (5-table join with a same-nation residual).
pub fn q5(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q5_plan(), db, xeon, scale)
}

/// Q6: revenue-change forecast (pure scan-filter-aggregate).
pub fn q6(db: &TpchDb, xeon: &Xeon, scale: u64) -> (i64, QueryCost) {
    let (v, cost) = run_scalars(logical::q6_plan(), db, xeon, scale);
    (v[0], cost)
}

/// Q10: returned-item reporting (join + group + top-20).
pub fn q10(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q10_plan(), db, xeon, scale)
}

/// Q12: shipping-mode priority (join + group by shipmode).
pub fn q12(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q12_plan(), db, xeon, scale)
}

/// Q14: promotion effect (join lineitem × part over one month), as the
/// `(promo, total)` revenue pair.
pub fn q14(db: &TpchDb, xeon: &Xeon, scale: u64) -> ((i64, i64), QueryCost) {
    let (v, cost) = run_scalars(logical::q14_plan(), db, xeon, scale);
    ((v[0], v[1]), cost)
}

/// Q18: large-volume customers (group-having + join + top-100).
pub fn q18(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    run_table(logical::q18_plan(), db, xeon, scale)
}

/// Materializes the rows `sel` keeps of `cols` into a new (flat) table:
/// the selected row ids are walked out of the bit vector once, then
/// every column gathers through that list.
pub(crate) fn select_columns<'a>(
    cols: impl IntoIterator<Item = &'a Column>,
    sel: &BitVec,
) -> Table {
    let mut rows = Vec::with_capacity(sel.count());
    rows.extend(sel.iter_set());
    gather_columns(cols, &rows)
}

/// Materializes selected rows into a new table.
pub fn select_rows(t: &Table, sel: &BitVec) -> Table {
    select_columns(&t.columns, sel)
}

/// Projects rows by index into a new table.
pub fn project_rows(t: &Table, rows: &[usize]) -> Table {
    gather_columns(&t.columns, rows)
}

/// A flat table of `cols` at the row ids `rows`, in that order.
fn gather_columns<'a>(cols: impl IntoIterator<Item = &'a Column>, rows: &[usize]) -> Table {
    Table::new(
        cols.into_iter()
            .map(|c| Column {
                name: c.name.clone(),
                width: c.width,
                data: rows.iter().map(|&r| c.data[r]).collect(),
                packed: None,
            })
            .collect(),
    )
}

/// Runs all eight queries, returning `(name, gain)` pairs plus the
/// geometric mean (Figure 16).
pub fn run_all(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Vec<(&'static str, f64)>, f64) {
    let gains = vec![
        ("Q1", q1(db, xeon, scale).1.gain(xeon)),
        ("Q3", q3(db, xeon, scale).1.gain(xeon)),
        ("Q5", q5(db, xeon, scale).1.gain(xeon)),
        ("Q6", q6(db, xeon, scale).1.gain(xeon)),
        ("Q10", q10(db, xeon, scale).1.gain(xeon)),
        ("Q12", q12(db, xeon, scale).1.gain(xeon)),
        ("Q14", q14(db, xeon, scale).1.gain(xeon)),
        ("Q18", q18(db, xeon, scale).1.gain(xeon)),
    ];
    let geomean = (gains.iter().map(|(_, g)| g.ln()).sum::<f64>() / gains.len() as f64).exp();
    (gains, geomean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TpchDb {
        generate(2000, 42)
    }

    #[test]
    fn generator_shapes() {
        let db = db();
        assert_eq!(db.orders.rows(), 2000);
        assert!(db.lineitem.rows() > 4000 && db.lineitem.rows() < 16000);
        assert_eq!(db.nation.rows(), 25);
        assert_eq!(db.region.rows(), 5);
        // Deterministic for a seed.
        let db2 = generate(2000, 42);
        assert_eq!(db.lineitem, db2.lineitem);
        // Different for another seed.
        let db3 = generate(2000, 43);
        assert_ne!(db.lineitem, db3.lineitem);
    }

    #[test]
    fn q3_returns_descending_revenue() {
        let db = db();
        let xeon = Xeon::new();
        let (out, _) = q3(&db, &xeon, 1);
        let rev = &out.column("revenue").unwrap().data;
        assert!(!rev.is_empty());
        assert!(rev.windows(2).all(|w| w[0] >= w[1]), "top-k order");
    }

    #[test]
    fn q14_fraction_is_sane() {
        let db = db();
        let xeon = Xeon::new();
        let ((promo, total), _) = q14(&db, &xeon, 1);
        assert!(total > 0);
        assert!(promo >= 0 && promo <= total);
        // p_type < 30 of 150 ⇒ roughly 20% of revenue.
        let frac = promo as f64 / total as f64;
        assert!((0.08..0.35).contains(&frac), "promo fraction {frac}");
    }

    #[test]
    fn q18_orders_have_large_quantities() {
        let db = db();
        let xeon = Xeon::new();
        let (out, _) = q18(&db, &xeon, 1);
        for r in 0..out.rows() {
            assert!(out.column("sum_qty").unwrap().data[r] > 180);
        }
    }

    #[test]
    fn all_gains_exceed_one_and_geomean_is_large() {
        let db = db();
        let xeon = Xeon::new();
        // Cost at TPC-H SF≈100 cardinalities (≈600 M lineitem rows).
        let (gains, geomean) = run_all(&db, &xeon, 50_000);
        assert_eq!(gains.len(), 8);
        for (name, g) in &gains {
            assert!(*g > 1.0, "{name} gain {g:.2} ≤ 1");
            assert!(*g < 35.0, "{name} gain {g:.2} implausible");
        }
        assert!(
            geomean > 10.0 && geomean < 25.0,
            "geomean {geomean:.2} out of the Figure 16 band around 15×"
        );
    }

    #[test]
    fn scale_raises_join_heavy_gains_only() {
        let db = db();
        let xeon = Xeon::new();
        // Q6 is a pure scan: scale-invariant. Q3 joins: partitioning
        // rounds appear at scale and widen the DPU's advantage.
        let q6_small = q6(&db, &xeon, 1).1.gain(&xeon);
        let q6_big = q6(&db, &xeon, 50_000).1.gain(&xeon);
        assert!((q6_small - q6_big).abs() < 0.2);
        let q3_small = q3(&db, &xeon, 1).1.gain(&xeon);
        let q3_big = q3(&db, &xeon, 50_000).1.gain(&xeon);
        assert!(q3_big > q3_small + 0.5, "Q3 {q3_small:.2} → {q3_big:.2}");
    }
}
