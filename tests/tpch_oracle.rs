//! An independent result oracle for the eight Figure 16 queries.
//!
//! The engine defines each query once, as a logical plan, and runs that
//! plan on one node (`tpch::q*`) and per shard (`Cluster::run`). Checking
//! one path against the other would compare a plan with itself, so the
//! answers here come from a naive row-at-a-time evaluator instead: plain
//! loops over `Column::data` with std maps, sharing no filter, join,
//! group-by or top-k kernel with the engine.

use std::collections::{BTreeMap, HashMap, HashSet};

use dpu_repro::cluster::{Cluster, ClusterConfig, QueryId, QueryOutput, ShardPolicy};
use dpu_repro::sql::tpch::{self, TpchDb, D_1995, ORDER_DAYS};
use dpu_repro::sql::{pack, set_pack, Pack, Table};
use dpu_repro::xeon::Xeon;

/// A query answer in a shape both sides convert to: a table as its
/// named columns in order, or the scalar sums.
#[derive(Debug, PartialEq)]
enum Answer {
    Table(Vec<(String, Vec<i64>)>),
    Scalar(i64),
    Pair(i64, i64),
}

impl Answer {
    fn of_table(t: &Table) -> Answer {
        Answer::Table(t.columns.iter().map(|c| (c.name.clone(), c.data.clone())).collect())
    }

    fn of_output(o: &QueryOutput) -> Answer {
        match o {
            QueryOutput::Table(t) => Answer::of_table(t),
            QueryOutput::Scalar(v) => Answer::Scalar(*v),
            QueryOutput::Pair(a, b) => Answer::Pair(*a, *b),
        }
    }

    /// Rows of a table answer (1 for scalars).
    fn rows(&self) -> usize {
        match self {
            Answer::Table(cols) => cols.first().map_or(0, |(_, d)| d.len()),
            _ => 1,
        }
    }
}

/// A table answer from row-major rows.
fn rows_to_table(names: &[&str], rows: &[Vec<i64>]) -> Answer {
    Answer::Table(
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), rows.iter().map(|r| r[i]).collect()))
            .collect(),
    )
}

/// The first `k` rows by `rows[value]` descending; rows arrive in the
/// tie-break order (ascending key) and the stable sort keeps it.
fn top(mut rows: Vec<Vec<i64>>, value: usize, k: usize) -> Vec<Vec<i64>> {
    rows.sort_by(|a, b| b[value].cmp(&a[value]));
    rows.truncate(k);
    rows
}

fn col<'a>(t: &'a Table, name: &str) -> &'a [i64] {
    &t.column(name).unwrap_or_else(|| panic!("column {name}")).data
}

fn within(v: i64, lo: i64, hi: i64) -> bool {
    lo <= v && v <= hi
}

fn q1(db: &TpchDb) -> Answer {
    let li = &db.lineitem;
    let (ship, flag, status) =
        (col(li, "l_shipdate"), col(li, "l_returnflag"), col(li, "l_linestatus"));
    let (qty, price, disc) =
        (col(li, "l_quantity"), col(li, "l_extendedprice"), col(li, "l_discount"));
    let mut groups: BTreeMap<(i64, i64), [i64; 4]> = BTreeMap::new();
    for r in 0..ship.len() {
        if ship[r] <= ORDER_DAYS - 90 {
            let g = groups.entry((flag[r], status[r])).or_default();
            g[0] += qty[r];
            g[1] += price[r];
            g[2] += price[r] * disc[r];
            g[3] += 1;
        }
    }
    let rows: Vec<Vec<i64>> =
        groups.into_iter().map(|((f, s), g)| vec![f, s, g[0], g[1], g[2], g[3]]).collect();
    rows_to_table(
        &[
            "l_returnflag",
            "l_linestatus",
            "sum_qty",
            "sum_base_price",
            "sum_disc_price",
            "count_order",
        ],
        &rows,
    )
}

fn q3(db: &TpchDb) -> Answer {
    let (c, o, li) = (&db.customer, &db.orders, &db.lineitem);
    let seg = col(c, "c_mktsegment");
    let building: HashSet<i64> =
        col(c, "c_custkey").iter().zip(seg).filter(|(_, &s)| s == 1).map(|(&k, _)| k).collect();
    let (okey, ocust, odate) = (col(o, "o_orderkey"), col(o, "o_custkey"), col(o, "o_orderdate"));
    let mut order_date: HashMap<i64, i64> = HashMap::new();
    for r in 0..okey.len() {
        if odate[r] < D_1995 && building.contains(&ocust[r]) {
            order_date.insert(okey[r], odate[r]);
        }
    }
    let (lkey, ship) = (col(li, "l_orderkey"), col(li, "l_shipdate"));
    let (price, disc) = (col(li, "l_extendedprice"), col(li, "l_discount"));
    let mut groups: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    for r in 0..lkey.len() {
        if ship[r] > D_1995 {
            if let Some(&d) = order_date.get(&lkey[r]) {
                *groups.entry((lkey[r], d)).or_default() += price[r] * disc[r];
            }
        }
    }
    let rows = groups.into_iter().map(|((k, d), rev)| vec![k, d, rev]).collect();
    rows_to_table(&["l_orderkey", "o_orderdate", "revenue"], &top(rows, 2, 10))
}

fn q5(db: &TpchDb) -> Answer {
    let (n, c, o, li, s) = (&db.nation, &db.customer, &db.orders, &db.lineitem, &db.supplier);
    let in_region: HashSet<i64> = col(n, "n_nationkey")
        .iter()
        .zip(col(n, "n_regionkey"))
        .filter(|(_, &r)| r == 0)
        .map(|(&k, _)| k)
        .collect();
    let cust_nation: HashMap<i64, i64> = col(c, "c_custkey")
        .iter()
        .zip(col(c, "c_nationkey"))
        .filter(|(_, nk)| in_region.contains(nk))
        .map(|(&k, &nk)| (k, nk))
        .collect();
    let (okey, ocust, odate) = (col(o, "o_orderkey"), col(o, "o_custkey"), col(o, "o_orderdate"));
    let mut order_nation: HashMap<i64, i64> = HashMap::new();
    for r in 0..okey.len() {
        if within(odate[r], D_1995, D_1995 + 365) {
            if let Some(&nk) = cust_nation.get(&ocust[r]) {
                order_nation.insert(okey[r], nk);
            }
        }
    }
    let supp_nation: HashMap<i64, i64> =
        col(s, "s_suppkey").iter().copied().zip(col(s, "s_nationkey").iter().copied()).collect();
    let (lkey, supp) = (col(li, "l_orderkey"), col(li, "l_suppkey"));
    let (price, disc) = (col(li, "l_extendedprice"), col(li, "l_discount"));
    let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
    for r in 0..lkey.len() {
        if let Some(&nk) = order_nation.get(&lkey[r]) {
            if supp_nation.get(&supp[r]) == Some(&nk) {
                *groups.entry(nk).or_default() += price[r] * disc[r];
            }
        }
    }
    let rows: Vec<Vec<i64>> = groups.into_iter().map(|(nk, rev)| vec![nk, rev]).collect();
    rows_to_table(&["n_nationkey", "revenue"], &rows)
}

fn q6(db: &TpchDb) -> Answer {
    let li = &db.lineitem;
    let (ship, disc, qty, price) = (
        col(li, "l_shipdate"),
        col(li, "l_discount"),
        col(li, "l_quantity"),
        col(li, "l_extendedprice"),
    );
    let mut revenue = 0;
    for r in 0..ship.len() {
        if within(ship[r], D_1995, D_1995 + 364) && within(disc[r], 5, 7) && qty[r] < 24 {
            revenue += price[r] * disc[r];
        }
    }
    Answer::Scalar(revenue)
}

fn q10(db: &TpchDb) -> Answer {
    let (o, li) = (&db.orders, &db.lineitem);
    let (okey, ocust, odate) = (col(o, "o_orderkey"), col(o, "o_custkey"), col(o, "o_orderdate"));
    let mut order_cust: HashMap<i64, i64> = HashMap::new();
    for r in 0..okey.len() {
        if within(odate[r], D_1995, D_1995 + 90) {
            order_cust.insert(okey[r], ocust[r]);
        }
    }
    let (lkey, flag) = (col(li, "l_orderkey"), col(li, "l_returnflag"));
    let (price, disc) = (col(li, "l_extendedprice"), col(li, "l_discount"));
    let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
    for r in 0..lkey.len() {
        if flag[r] == 2 {
            if let Some(&cust) = order_cust.get(&lkey[r]) {
                *groups.entry(cust).or_default() += price[r] * disc[r];
            }
        }
    }
    let rows = groups.into_iter().map(|(cust, rev)| vec![cust, rev]).collect();
    rows_to_table(&["o_custkey", "revenue"], &top(rows, 1, 20))
}

fn q12(db: &TpchDb) -> Answer {
    let (o, li) = (&db.orders, &db.lineitem);
    let orders: HashSet<i64> = col(o, "o_orderkey").iter().copied().collect();
    let (lkey, mode, receipt) =
        (col(li, "l_orderkey"), col(li, "l_shipmode"), col(li, "l_receiptdate"));
    let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
    for r in 0..lkey.len() {
        if within(mode[r], 2, 3)
            && within(receipt[r], D_1995, D_1995 + 364)
            && orders.contains(&lkey[r])
        {
            *groups.entry(mode[r]).or_default() += 1;
        }
    }
    let rows: Vec<Vec<i64>> = groups.into_iter().map(|(m, n)| vec![m, n]).collect();
    rows_to_table(&["l_shipmode", "line_count"], &rows)
}

fn q14(db: &TpchDb) -> Answer {
    let (p, li) = (&db.part, &db.lineitem);
    let part_type: HashMap<i64, i64> =
        col(p, "p_partkey").iter().copied().zip(col(p, "p_type").iter().copied()).collect();
    let (part, ship) = (col(li, "l_partkey"), col(li, "l_shipdate"));
    let (price, disc) = (col(li, "l_extendedprice"), col(li, "l_discount"));
    let (mut promo, mut total) = (0, 0);
    for r in 0..part.len() {
        if within(ship[r], D_1995, D_1995 + 29) {
            if let Some(&ty) = part_type.get(&part[r]) {
                let rev = price[r] * (100 - disc[r]);
                total += rev;
                if ty < 30 {
                    promo += rev;
                }
            }
        }
    }
    Answer::Pair(promo, total)
}

fn q18(db: &TpchDb) -> Answer {
    let (o, li) = (&db.orders, &db.lineitem);
    let mut sum_qty: HashMap<i64, i64> = HashMap::new();
    for (&k, &q) in col(li, "l_orderkey").iter().zip(col(li, "l_quantity")) {
        *sum_qty.entry(k).or_default() += q;
    }
    let (okey, ocust, price) = (col(o, "o_orderkey"), col(o, "o_custkey"), col(o, "o_totalprice"));
    // Candidates in ascending order key: the tie-break order.
    let mut order: Vec<usize> = (0..okey.len()).collect();
    order.sort_by_key(|&r| okey[r]);
    let rows: Vec<Vec<i64>> = order
        .into_iter()
        .filter_map(|r| {
            let q = *sum_qty.get(&okey[r])?;
            (q > 180).then(|| vec![q, okey[r], ocust[r], price[r]])
        })
        .collect();
    rows_to_table(&["sum_qty", "o_orderkey", "o_custkey", "o_totalprice"], &top(rows, 3, 100))
}

/// The oracle's answer for `id`.
fn oracle(db: &TpchDb, id: QueryId) -> Answer {
    match id {
        QueryId::Q1 => q1(db),
        QueryId::Q3 => q3(db),
        QueryId::Q5 => q5(db),
        QueryId::Q6 => q6(db),
        QueryId::Q10 => q10(db),
        QueryId::Q12 => q12(db),
        QueryId::Q14 => q14(db),
        QueryId::Q18 => q18(db),
    }
}

/// The single-node engine's answer for `id`.
fn single_node(db: &TpchDb, id: QueryId, xeon: &Xeon) -> Answer {
    let t = |(t, _): (Table, _)| Answer::of_table(&t);
    match id {
        QueryId::Q1 => t(tpch::q1(db, xeon, 1)),
        QueryId::Q3 => t(tpch::q3(db, xeon, 1)),
        QueryId::Q5 => t(tpch::q5(db, xeon, 1)),
        QueryId::Q6 => Answer::Scalar(tpch::q6(db, xeon, 1).0),
        QueryId::Q10 => t(tpch::q10(db, xeon, 1)),
        QueryId::Q12 => t(tpch::q12(db, xeon, 1)),
        QueryId::Q14 => {
            let ((promo, total), _) = tpch::q14(db, xeon, 1);
            Answer::Pair(promo, total)
        }
        QueryId::Q18 => t(tpch::q18(db, xeon, 1)),
    }
}

#[test]
fn single_node_queries_match_the_naive_oracle_packed_and_flat() {
    let db = tpch::generate(2000, 42);
    let xeon = Xeon::new();
    let answers: Vec<Answer> = QueryId::ALL.iter().map(|&id| oracle(&db, id)).collect();
    // The oracle's answers are not vacuous: every table has rows, the
    // top-k queries fill their k, and the sums select something.
    for (id, a) in QueryId::ALL.iter().zip(&answers) {
        assert!(a.rows() > 0, "{}: empty oracle answer", id.name());
    }
    assert_eq!(answers[1].rows(), 10, "Q3 top-10");
    assert_eq!(answers[4].rows(), 20, "Q10 top-20");
    assert!(matches!(answers[3], Answer::Scalar(v) if v > 0), "Q6 selects nothing");
    assert!(matches!(answers[6], Answer::Pair(p, t) if 0 < p && p < t), "Q14 degenerate");

    let prior = pack();
    for mode in [Pack::On, Pack::Off] {
        set_pack(mode);
        for (&id, want) in QueryId::ALL.iter().zip(&answers) {
            assert_eq!(&single_node(&db, id, &xeon), want, "{} under {mode:?}", id.name());
        }
    }
    set_pack(prior);

    // Q6 is a pure scan against the commercial engine: the 6.7×
    // bandwidth/watt ratio divided by the engine's ~0.5 efficiency.
    let g = tpch::q6(&db, &xeon, 1).1.gain(&xeon);
    assert!((11.0..16.0).contains(&g), "Q6 gain {g:.2}");
}

#[test]
fn distributed_queries_match_the_naive_oracle() {
    let db = tpch::generate(2000, 42);
    let answers: Vec<Answer> = QueryId::ALL.iter().map(|&id| oracle(&db, id)).collect();
    let mut c = Cluster::new(db, &ShardPolicy::hash(8), ClusterConfig::prototype_slice(8, 10_000));
    for (&id, want) in QueryId::ALL.iter().zip(&answers) {
        let q = c.run(id);
        assert_eq!(&Answer::of_output(&q.output), want, "{} distributed", id.name());
        assert_eq!(&Answer::of_output(&q.single_output), want, "{} reference", id.name());
    }
}
