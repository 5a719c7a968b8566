//! Logical query plans: the one definition of each TPC-H query.
//!
//! A [`JoinGraph`] describes a query declaratively (relations +
//! equi-join edges + a finishing operator), and a [`LogicalPlan`] is one
//! left-deep linearization of that graph that the executor lowers onto
//! the physical operators — [`FilterSpec`], [`HashJoin`],
//! [`GroupBySpec`], [`top_k`]. The single-node queries ([`tpch::q1`] …
//! [`tpch::q18`]), the distributed coordinator's per-shard local phases
//! and every planner-chosen alternative all execute these plans through
//! [`LogicalPlan::execute_costed`], so a query is written down once.
//!
//! Determinism argument: every finishing operator canonicalizes its
//! output — group-by emits key-sorted rows, top-k orders by value
//! descending with content-based ties, scalar sums are exact integer
//! sums — and inner equi-joins produce the same row *multiset* under any
//! join order. A plan's result is therefore a function of the query, not
//! of the linearization the optimizer picked, which is what lets the
//! planner search plan space while keeping the repo's bit-identity house
//! rule (property-tested in `tests/planner_properties.rs`).

use std::borrow::Cow;

use xeon_model::Xeon;

use crate::agg::GroupBySpec;
use crate::bitvec::BitVec;
use crate::column::Table;
use crate::expr::Expr;
use crate::filter::{CompareOp, FilterSpec};
use crate::join::HashJoin;
use crate::plan::QueryCost;
use crate::topk::top_k;
use crate::tpch::{self, project_rows, select_columns, select_rows, TpchDb};
use crate::walk::Trace;

/// The base tables a scan can read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseTable {
    /// The lineitem fact table (sharded by `l_orderkey`).
    Lineitem,
    /// The orders fact table (co-sharded by `o_orderkey`).
    Orders,
    /// Customer dimension (replicated to every node).
    Customer,
    /// Part dimension (replicated).
    Part,
    /// Supplier dimension (replicated).
    Supplier,
    /// Nation dimension (replicated).
    Nation,
}

impl BaseTable {
    /// Every base table the planner knows about.
    pub const ALL: [BaseTable; 6] = [
        BaseTable::Lineitem,
        BaseTable::Orders,
        BaseTable::Customer,
        BaseTable::Part,
        BaseTable::Supplier,
        BaseTable::Nation,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BaseTable::Lineitem => "lineitem",
            BaseTable::Orders => "orders",
            BaseTable::Customer => "customer",
            BaseTable::Part => "part",
            BaseTable::Supplier => "supplier",
            BaseTable::Nation => "nation",
        }
    }

    /// Resolves to the concrete table of `db`.
    pub fn of(self, db: &TpchDb) -> &Table {
        match self {
            BaseTable::Lineitem => &db.lineitem,
            BaseTable::Orders => &db.orders,
            BaseTable::Customer => &db.customer,
            BaseTable::Part => &db.part,
            BaseTable::Supplier => &db.supplier,
            BaseTable::Nation => &db.nation,
        }
    }

    /// Whether the table is sharded by orderkey (facts) rather than
    /// replicated to every node (dimensions). Replicated tables make
    /// their joins "replica-local": no fabric traffic to place them.
    pub fn is_sharded(self) -> bool {
        matches!(self, BaseTable::Lineitem | BaseTable::Orders)
    }
}

/// A single-column predicate, the unit of predicate pushdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColFilter {
    /// Column name.
    pub col: String,
    /// The comparison.
    pub op: CompareOp,
}

impl ColFilter {
    /// Builds a filter.
    pub fn new(col: &str, op: CompareOp) -> Self {
        ColFilter { col: col.into(), op }
    }

    fn apply(&self, t: &Table) -> BitVec {
        FilterSpec::new(&self.col, self.op).apply(t)
    }
}

/// The rows of `t` passing every filter of a non-empty conjunction.
fn conjunction(filters: &[ColFilter], t: &Table) -> BitVec {
    let mut sel = filters[0].apply(t);
    for f in &filters[1..] {
        sel = sel.and(&f.apply(t));
    }
    sel
}

/// What a scan node reads: a base table, or a grouped-and-filtered
/// derivation of one (Q18's big-orders subquery).
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A raw base table.
    Base(BaseTable),
    /// `SELECT keys, aggs FROM table GROUP BY keys HAVING pred` — valid
    /// per shard only when the group key is the sharding key.
    GroupHaving {
        /// Underlying base table.
        table: BaseTable,
        /// The grouping.
        spec: GroupBySpec,
        /// The HAVING predicate over the grouped output.
        having: ColFilter,
    },
}

impl Source {
    /// The base table underneath.
    pub fn table(&self) -> BaseTable {
        match self {
            Source::Base(t) => *t,
            Source::GroupHaving { table, .. } => *table,
        }
    }
}

/// One relation of a [`JoinGraph`] / leaf of a [`LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// What to read.
    pub source: Source,
    /// Conjunctive filters applied at (or pushed down to) the scan.
    pub filters: Vec<ColFilter>,
    /// Columns the scan streams from DRAM: the scan is costed on their
    /// resident bytes. The list must therefore cover every column the
    /// plan reads from this relation — its filters, join keys, carried
    /// columns and the finish's inputs — or the scan is priced below
    /// the bytes it moves. Joins and group-bys read the base table's
    /// columns through the scan's selection, so execution does not
    /// check this; the `touched_covers_every_column_a_plan_reads` test
    /// does, over every default plan and linearization.
    pub touched: Vec<String>,
}

impl Relation {
    /// A filtered base-table scan touching `cols`.
    pub fn scan(table: BaseTable, filters: Vec<ColFilter>, touched: &[&str]) -> Self {
        Relation {
            source: Source::Base(table),
            filters,
            touched: touched.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// An equi-join edge between two relations of a [`JoinGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Left relation index.
    pub a: usize,
    /// Join column on `a`.
    pub a_col: String,
    /// Right relation index.
    pub b: usize,
    /// Join column on `b`.
    pub b_col: String,
    /// Partition fanout the DPU's hash join would use: it labels the
    /// join in EXPLAIN and sizes the reported largest build partition;
    /// the host join builds one table whatever its value.
    pub fanout: usize,
}

/// One join step of a left-deep [`LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinNode {
    /// Index of the relation joined in at this step.
    pub scan: usize,
    /// If true the accumulated intermediate is the build side and
    /// `scan` probes; otherwise `scan` builds and the intermediate
    /// probes.
    pub build_acc: bool,
    /// Build-side key column.
    pub build_key: String,
    /// Probe-side key column.
    pub probe_key: String,
    /// Build-side columns carried into the output.
    pub build_cols: Vec<String>,
    /// Probe-side columns carried into the output.
    pub probe_cols: Vec<String>,
    /// Partition fanout, as on [`JoinEdge::fanout`]: the EXPLAIN label
    /// and the reported largest build partition, not the host's table.
    pub fanout: usize,
}

/// A scalar aggregate: `SUM(expr) [WHERE filter]` over the final
/// intermediate (Q6's revenue, Q14's promo/total pair).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarSum {
    /// Output name.
    pub name: String,
    /// The summed expression.
    pub expr: Expr,
    /// Optional row predicate.
    pub filter: Option<ColFilter>,
}

/// The finishing operator of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Finish {
    /// Group-by; output is key-sorted (canonical).
    Agg(GroupBySpec),
    /// Group-by followed by top-k on an aggregate column.
    AggTopK {
        /// The grouping.
        spec: GroupBySpec,
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
    },
    /// Top-k directly over the joined rows, optionally after a canonical
    /// sort on a key unique among them (Q18 sorts by orderkey so ties
    /// are content-based).
    TopK {
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Canonical pre-sort column.
        sort_by: Option<String>,
    },
    /// One or more scalar sums.
    ScalarSums(Vec<ScalarSum>),
}

/// Result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOutput {
    /// A result table.
    Table(Table),
    /// Scalar sums, in [`Finish::ScalarSums`] order.
    Scalars(Vec<i64>),
}

impl LogicalOutput {
    /// The table, panicking on scalars.
    pub fn table(&self) -> &Table {
        match self {
            LogicalOutput::Table(t) => t,
            LogicalOutput::Scalars(_) => panic!("scalar output"),
        }
    }
}

/// A declarative query: relations, equi-join edges, and the finish.
/// The optimizer enumerates linearizations of this graph; the default
/// plan (`q*_plan`) is one of them.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGraph {
    /// Query name (stable, used by EXPLAIN).
    pub name: &'static str,
    /// The relations.
    pub relations: Vec<Relation>,
    /// Equi-join edges (acyclic for all eight queries).
    pub edges: Vec<JoinEdge>,
    /// A residual equality filter between two carried columns, applied
    /// before the finish (Q5's same-nation predicate).
    pub col_eq: Option<(String, String)>,
    /// The finishing operator.
    pub finish: Finish,
}

/// A left-deep executable plan over the existing physical operators.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Query name.
    pub name: String,
    /// The relations (leaf scans).
    pub scans: Vec<Relation>,
    /// Index of the relation seeding the accumulator.
    pub first: usize,
    /// Join steps, applied in order.
    pub joins: Vec<JoinNode>,
    /// Residual column-equality filter.
    pub col_eq: Option<(String, String)>,
    /// Residual conjunctive predicates evaluated on the joined
    /// intermediate, before `col_eq` and the finish. The optimizer's
    /// pushdown pass empties this list by moving each predicate to its
    /// source scan; both forms are bit-identical (an inner equi-join
    /// commutes with a one-sided filter and the hash join preserves the
    /// relative order of surviving rows).
    pub post_filters: Vec<ColFilter>,
    /// The finishing operator.
    pub finish: Finish,
}

impl LogicalPlan {
    /// Executes the plan, ignoring cost.
    pub fn execute(&self, db: &TpchDb) -> LogicalOutput {
        self.execute_costed(db, &Xeon::new(), 1).0
    }

    /// Executes the plan functionally, records its actual per-operator
    /// rows, and prices them through the cost walk
    /// ([`LogicalPlan::cost`]) at `scale`× the data.
    pub fn execute_costed(
        &self,
        db: &TpchDb,
        xeon: &Xeon,
        scale: u64,
    ) -> (LogicalOutput, QueryCost, Trace<usize>) {
        let mut trace = Trace::default();
        // The accumulator: a table and the rows of it still selected.
        let (mut cur, mut kept) = self.eval_scan(self.first, db, &mut trace);
        for j in &self.joins {
            // Filtered scans reach the join as (table, selection): the
            // join gathers just the selected rows of the columns it reads.
            let (other, sel) = self.eval_scan(j.scan, db, &mut trace);
            let (acc, scan) = ((&*cur, kept.take()), (&*other, sel));
            let ((build, build_sel), (probe, probe_sel)) =
                if j.build_acc { (acc, scan) } else { (scan, acc) };
            let join = HashJoin {
                build_key: j.build_key.clone(),
                probe_key: j.probe_key.clone(),
                build_cols: j.build_cols.clone(),
                probe_cols: j.probe_cols.clone(),
            };
            let (out, _) = join.execute_selected(
                build,
                build_sel.as_ref(),
                probe,
                probe_sel.as_ref(),
                j.fanout as u64,
            );
            trace.rows.push(out.rows());
            cur = Cow::Owned(out);
        }
        // A join-free plan finishing in a group-by aggregates the scan's
        // selection in place; post-filters and the other finishes read
        // a materialized copy (Q6).
        let in_place = self.post_filters.is_empty()
            && matches!(self.finish, Finish::Agg(_) | Finish::AggTopK { .. });
        if let Some(sel) = kept.take_if(|_| !in_place) {
            cur = self.materialize(self.first, cur, sel);
        }
        if !self.post_filters.is_empty() {
            let keep = conjunction(&self.post_filters, &cur);
            cur = Cow::Owned(select_rows(&cur, &keep));
            trace.rows.push(cur.rows());
        }
        let eq = self.col_eq.as_ref().map(|(a, b)| {
            let ca = &cur.columns[cur.col_index(a)].data;
            let cb = &cur.columns[cur.col_index(b)].data;
            BitVec::from_fn(cur.rows(), |r| ca[r] == cb[r])
        });
        let sel = match (kept, eq) {
            (Some(a), Some(b)) => Some(a.and(&b)),
            (a, b) => a.or(b),
        };
        let out = match &self.finish {
            Finish::Agg(spec) => LogicalOutput::Table(spec.execute(&cur, sel.as_ref())),
            Finish::AggTopK { spec, value, k } => {
                let grouped = spec.execute(&cur, sel.as_ref());
                trace.rows.push(grouped.rows());
                let top = top_k(&grouped, value, (*k).min(grouped.rows().max(1)), 1);
                LogicalOutput::Table(project_rows(&grouped, &top))
            }
            Finish::TopK { value, k, sort_by } => {
                let mut jo = cur;
                if let Some(key) = sort_by {
                    let keys = &jo.columns[jo.col_index(key)].data;
                    let mut order: Vec<usize> = (0..jo.rows()).collect();
                    // Canonical only if the key is unique among the joined
                    // rows (Q18's `o_orderkey` is): tied rows would keep
                    // the join's emission order.
                    order.sort_by_key(|&r| keys[r]);
                    debug_assert!(
                        order.windows(2).all(|w| keys[w[0]] != keys[w[1]]),
                        "top-k pre-sort key {key} is not unique"
                    );
                    jo = Cow::Owned(project_rows(&jo, &order));
                }
                let top = top_k(&jo, value, (*k).min(jo.rows().max(1)), 1);
                LogicalOutput::Table(project_rows(&jo, &top))
            }
            Finish::ScalarSums(sums) => {
                let mut vals = Vec::with_capacity(sums.len());
                for s in sums {
                    let v = s.expr.eval(&cur);
                    let keep = s.filter.as_ref().map(|f| f.apply(&cur));
                    let total: i64 = v
                        .iter()
                        .enumerate()
                        .filter(|(r, _)| keep.as_ref().is_none_or(|b| b.get(*r)))
                        .map(|(_, &x)| x)
                        .sum();
                    vals.push(total);
                }
                LogicalOutput::Scalars(vals)
            }
        };
        trace.rows.push(match &out {
            LogicalOutput::Table(t) => t.rows(),
            LogicalOutput::Scalars(v) => v.len(),
        });
        let cost = self.cost(&trace, xeon, scale);
        (out, cost, trace)
    }

    /// Evaluates one leaf: records its inputs and evaluates its filters.
    /// Returns the staged table — a base table borrowed, a derived
    /// source computed — and the rows the filters (and a derived
    /// source's HAVING) keep (`None`: all).
    fn eval_scan<'a>(
        &self,
        i: usize,
        db: &'a TpchDb,
        trace: &mut Trace<usize>,
    ) -> (Cow<'a, Table>, Option<BitVec>) {
        let rel = &self.scans[i];
        let base = rel.source.table().of(db);
        // Scans stream *resident* bytes: packed columns move their
        // FOR/bit-packed words through the memory system, not the flat
        // width. Knob-independent (packing is unconditional at load).
        let touched: u64 = rel
            .touched
            .iter()
            .map(|n| base.column(n).expect("touched column").resident_bytes())
            .sum();
        trace.inputs.push((base.rows(), touched));
        let (staged, having) = match &rel.source {
            Source::Base(_) => (Cow::Borrowed(base), None),
            Source::GroupHaving { spec, having, .. } => {
                let grouped = spec.execute(base, None);
                trace.rows.push(grouped.rows());
                let keep = having.apply(&grouped);
                (Cow::Owned(grouped), Some(keep))
            }
        };
        let filtered = (!rel.filters.is_empty()).then(|| conjunction(&rel.filters, &staged));
        let sel = match (having, filtered) {
            (Some(a), Some(b)) => Some(a.and(&b)),
            (a, b) => a.or(b),
        };
        trace.rows.push(sel.as_ref().map_or(staged.rows(), BitVec::count));
        (staged, sel)
    }

    /// Materializes the rows `sel` keeps of scan `i`'s staged table:
    /// of the relation's touched columns for a base table, of every
    /// column for a derived source. Only a join-free plan that does not
    /// finish in a group-by copies its scan (Q6); joins and group-bys
    /// read the selection in place.
    fn materialize<'a>(&self, i: usize, staged: Cow<'a, Table>, sel: BitVec) -> Cow<'a, Table> {
        let rel = &self.scans[i];
        Cow::Owned(match &rel.source {
            Source::Base(_) => select_columns(
                rel.touched.iter().map(|n| staged.column(n).expect("touched column")),
                &sel,
            ),
            Source::GroupHaving { .. } => select_rows(&staged, &sel),
        })
    }
}

impl JoinGraph {
    /// The default linearization: relation 0 seeds the accumulator and
    /// edges fold in declaration order, with the build side chosen per
    /// edge by `build_rel_est` (estimated rows per relation; the smaller
    /// side builds, ties building the incoming relation). Passing the
    /// declaration-order estimates of the default plans reproduces
    /// them; the optimizer passes statistics-based estimates and
    /// permuted orders.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a connected permutation of the
    /// relations (every prefix must be joined to the next relation by
    /// some edge).
    pub fn linearize(&self, order: &[usize], est: &[f64]) -> LogicalPlan {
        assert_eq!(order.len(), self.relations.len(), "order must cover all relations");
        let mut joined: Vec<usize> = vec![order[0]];
        let mut joins = Vec::new();
        // Columns each relation must still provide downstream.
        let needed = self.needed_columns();
        // Running estimate of the accumulator's cardinality.
        let mut acc_est = est[order[0]];
        for &r in &order[1..] {
            let edge = self
                .edges
                .iter()
                .find(|e| {
                    (e.b == r && joined.contains(&e.a)) || (e.a == r && joined.contains(&e.b))
                })
                .unwrap_or_else(|| panic!("relation {r} not connected to prefix"));
            let (acc_col, scan_col) =
                if edge.b == r { (&edge.a_col, &edge.b_col) } else { (&edge.b_col, &edge.a_col) };
            // Columns the accumulated side must carry forward: needed by
            // the finish or by a later join against a not-yet-joined
            // relation.
            let carry_acc = self.carried_columns(&joined, r, &needed);
            let carry_scan = self.relation_columns(r, &needed);
            let build_acc = acc_est <= est[r];
            let (build_key, probe_key, build_cols, probe_cols) = if build_acc {
                (acc_col.clone(), scan_col.clone(), carry_acc, carry_scan)
            } else {
                (scan_col.clone(), acc_col.clone(), carry_scan, carry_acc)
            };
            joins.push(JoinNode {
                scan: r,
                build_acc,
                build_key,
                probe_key,
                build_cols,
                probe_cols,
                fanout: edge.fanout,
            });
            joined.push(r);
            // Textbook equi-join estimate: |A|·|B| / max(|A|, |B|) — the
            // optimizer refines this with NDV sketches before calling.
            acc_est = (acc_est * est[r] / acc_est.max(est[r]).max(1.0)).max(1.0);
        }
        LogicalPlan {
            name: self.name.to_string(),
            scans: self.relations.clone(),
            first: order[0],
            joins,
            col_eq: self.col_eq.clone(),
            post_filters: vec![],
            finish: self.finish.clone(),
        }
    }

    /// Columns the finish (and residual filter) consumes.
    pub fn needed_columns(&self) -> Vec<String> {
        finish_inputs(&self.finish, self.col_eq.as_ref())
    }

    /// Columns of relation `r` that are needed downstream: by the finish
    /// or as a key of a later edge.
    fn relation_columns(&self, r: usize, needed: &[String]) -> Vec<String> {
        let rel_cols = self.columns_of(r);
        let mut out: Vec<String> = Vec::new();
        for c in &rel_cols {
            let used_by_finish = needed.contains(c);
            let used_by_edge = self
                .edges
                .iter()
                .any(|e| (e.a == r && &e.a_col == c) || (e.b == r && &e.b_col == c));
            if (used_by_finish || used_by_edge) && !out.contains(c) {
                out.push(c.clone());
            }
        }
        out
    }

    /// Columns the accumulated prefix must carry into the next join:
    /// everything a member relation provides that the finish needs or a
    /// future edge (to a relation outside the prefix ∪ {incoming}) keys
    /// on.
    fn carried_columns(&self, joined: &[usize], incoming: usize, needed: &[String]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for &m in joined {
            for c in self.columns_of(m) {
                let by_finish = needed.contains(&c);
                let by_future = self.edges.iter().any(|e| {
                    let (mine, other) = if e.a == m {
                        (&e.a_col, e.b)
                    } else if e.b == m {
                        (&e.b_col, e.a)
                    } else {
                        return false;
                    };
                    mine == &c && other != incoming && !joined.contains(&other)
                });
                if (by_finish || by_future) && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// The column names relation `r` can provide (its touched set plus,
    /// for derived sources, the grouped outputs).
    fn columns_of(&self, r: usize) -> Vec<String> {
        let rel = &self.relations[r];
        match &rel.source {
            Source::Base(_) => rel.touched.clone(),
            Source::GroupHaving { spec, .. } => {
                let mut cols = spec.group_cols.clone();
                cols.extend(spec.aggs.iter().map(|(n, _)| n.clone()));
                cols
            }
        }
    }
}

/// Columns a finish (and a residual column-equality filter) consumes.
fn finish_inputs(finish: &Finish, col_eq: Option<&(String, String)>) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    let mut push = |c: &str| {
        if !cols.iter().any(|x| x == c) {
            cols.push(c.to_string());
        }
    };
    match finish {
        Finish::Agg(spec) | Finish::AggTopK { spec, .. } => {
            for c in &spec.group_cols {
                push(c);
            }
            for (_, f) in &spec.aggs {
                for c in agg_inputs(f) {
                    push(&c);
                }
            }
        }
        Finish::TopK { value, sort_by, .. } => {
            push(value);
            if let Some(s) = sort_by {
                push(s);
            }
        }
        Finish::ScalarSums(sums) => {
            for s in sums {
                for c in expr_columns(&s.expr) {
                    push(&c);
                }
                if let Some(f) = &s.filter {
                    push(&f.col);
                }
            }
        }
    }
    if let Some((a, b)) = col_eq {
        push(a);
        push(b);
    }
    cols
}

fn agg_inputs(f: &crate::agg::AggFunc) -> Vec<String> {
    use crate::agg::AggFunc;
    match f {
        AggFunc::Count => vec![],
        AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => vec![c.clone()],
        AggFunc::SumProduct(a, b) => vec![a.clone(), b.clone()],
    }
}

fn expr_columns(e: &Expr) -> Vec<String> {
    match e {
        Expr::Col(c) => vec![c.clone()],
        Expr::Lit(_) => vec![],
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            let mut v = expr_columns(a);
            v.extend(expr_columns(b));
            v
        }
        Expr::Clamp(a, _, _) => expr_columns(a),
    }
}

// ---------------------------------------------------------------------
// Default plans: the one definition of each Figure 16 query. The
// `tpch::q*` single-node entry points and the coordinator's default
// physical plans all run these.
// ---------------------------------------------------------------------

use crate::agg::AggFunc;

fn spec(group: &[&str], aggs: Vec<(&str, AggFunc)>) -> GroupBySpec {
    GroupBySpec {
        group_cols: group.iter().map(|s| s.to_string()).collect(),
        aggs: aggs.into_iter().map(|(n, f)| (n.to_string(), f)).collect(),
    }
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Q1: scan + 2-column group-by.
pub fn q1_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q1".into(),
        scans: vec![Relation::scan(
            BaseTable::Lineitem,
            vec![ColFilter::new("l_shipdate", CompareOp::Le(tpch::ORDER_DAYS - 90))],
            &[
                "l_shipdate",
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ],
        )],
        first: 0,
        joins: vec![],
        col_eq: None,
        post_filters: vec![],
        finish: Finish::Agg(spec(
            &["l_returnflag", "l_linestatus"],
            vec![
                ("sum_qty", AggFunc::Sum("l_quantity".into())),
                ("sum_base_price", AggFunc::Sum("l_extendedprice".into())),
                (
                    "sum_disc_price",
                    AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
                ),
                ("count_order", AggFunc::Count),
            ],
        )),
    }
}

/// Q3: customer ⋈ orders ⋈ lineitem, group, top-10.
pub fn q3_graph() -> JoinGraph {
    JoinGraph {
        name: "q3",
        relations: vec![
            Relation::scan(
                BaseTable::Customer,
                vec![ColFilter::new("c_mktsegment", CompareOp::Eq(1))],
                &["c_custkey", "c_mktsegment"],
            ),
            Relation::scan(
                BaseTable::Orders,
                vec![ColFilter::new("o_orderdate", CompareOp::Lt(tpch::D_1995))],
                &["o_orderkey", "o_custkey", "o_orderdate"],
            ),
            Relation::scan(
                BaseTable::Lineitem,
                vec![ColFilter::new("l_shipdate", CompareOp::Gt(tpch::D_1995))],
                &["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
            ),
        ],
        edges: vec![
            JoinEdge {
                a: 0,
                a_col: "c_custkey".into(),
                b: 1,
                b_col: "o_custkey".into(),
                fanout: 32,
            },
            JoinEdge {
                a: 1,
                a_col: "o_orderkey".into(),
                b: 2,
                b_col: "l_orderkey".into(),
                fanout: 32,
            },
        ],
        col_eq: None,
        finish: Finish::AggTopK {
            spec: spec(
                &["l_orderkey", "o_orderdate"],
                vec![(
                    "revenue",
                    AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
                )],
            ),
            value: "revenue".into(),
            k: 10,
        },
    }
}

/// Q3's default linearization.
pub fn q3_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q3".into(),
        scans: q3_graph().relations,
        first: 0,
        joins: vec![
            JoinNode {
                scan: 1,
                build_acc: true,
                build_key: "c_custkey".into(),
                probe_key: "o_custkey".into(),
                build_cols: vec![],
                probe_cols: strs(&["o_orderkey", "o_orderdate"]),
                fanout: 32,
            },
            JoinNode {
                scan: 2,
                build_acc: true,
                build_key: "o_orderkey".into(),
                probe_key: "l_orderkey".into(),
                build_cols: strs(&["o_orderdate"]),
                probe_cols: strs(&["l_orderkey", "l_extendedprice", "l_discount"]),
                fanout: 32,
            },
        ],
        col_eq: None,
        post_filters: vec![],
        finish: q3_graph().finish,
    }
}

/// Q5: nation ⋈ customer ⋈ orders ⋈ lineitem ⋈ supplier with the
/// same-nation residual.
pub fn q5_graph() -> JoinGraph {
    JoinGraph {
        name: "q5",
        relations: vec![
            Relation::scan(
                BaseTable::Nation,
                vec![ColFilter::new("n_regionkey", CompareOp::Eq(0))],
                &["n_nationkey", "n_regionkey"],
            ),
            Relation::scan(BaseTable::Customer, vec![], &["c_custkey", "c_nationkey"]),
            Relation::scan(
                BaseTable::Orders,
                vec![ColFilter::new(
                    "o_orderdate",
                    CompareOp::Between(tpch::D_1995, tpch::D_1995 + 365),
                )],
                &["o_orderkey", "o_custkey", "o_orderdate"],
            ),
            Relation::scan(
                BaseTable::Lineitem,
                vec![],
                &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
            ),
            Relation::scan(BaseTable::Supplier, vec![], &["s_suppkey", "s_nationkey"]),
        ],
        edges: vec![
            JoinEdge {
                a: 0,
                a_col: "n_nationkey".into(),
                b: 1,
                b_col: "c_nationkey".into(),
                fanout: 8,
            },
            JoinEdge {
                a: 1,
                a_col: "c_custkey".into(),
                b: 2,
                b_col: "o_custkey".into(),
                fanout: 32,
            },
            JoinEdge {
                a: 2,
                a_col: "o_orderkey".into(),
                b: 3,
                b_col: "l_orderkey".into(),
                fanout: 32,
            },
            JoinEdge {
                a: 3,
                a_col: "l_suppkey".into(),
                b: 4,
                b_col: "s_suppkey".into(),
                fanout: 8,
            },
        ],
        col_eq: Some(("s_nationkey".into(), "n_nationkey".into())),
        finish: Finish::Agg(spec(
            &["n_nationkey"],
            vec![("revenue", AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()))],
        )),
    }
}

/// Q5's default linearization.
pub fn q5_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q5".into(),
        scans: q5_graph().relations,
        first: 0,
        joins: vec![
            JoinNode {
                scan: 1,
                build_acc: true,
                build_key: "n_nationkey".into(),
                probe_key: "c_nationkey".into(),
                build_cols: strs(&["n_nationkey"]),
                probe_cols: strs(&["c_custkey"]),
                fanout: 8,
            },
            JoinNode {
                scan: 2,
                build_acc: true,
                build_key: "c_custkey".into(),
                probe_key: "o_custkey".into(),
                build_cols: strs(&["n_nationkey"]),
                probe_cols: strs(&["o_orderkey"]),
                fanout: 32,
            },
            JoinNode {
                scan: 3,
                build_acc: true,
                build_key: "o_orderkey".into(),
                probe_key: "l_orderkey".into(),
                build_cols: strs(&["n_nationkey"]),
                probe_cols: strs(&["l_suppkey", "l_extendedprice", "l_discount"]),
                fanout: 32,
            },
            JoinNode {
                scan: 4,
                build_acc: false,
                build_key: "s_suppkey".into(),
                probe_key: "l_suppkey".into(),
                build_cols: strs(&["s_nationkey"]),
                probe_cols: strs(&["n_nationkey", "l_extendedprice", "l_discount"]),
                fanout: 8,
            },
        ],
        col_eq: Some(("s_nationkey".into(), "n_nationkey".into())),
        post_filters: vec![],
        finish: q5_graph().finish,
    }
}

/// Q6: pure scan-filter-sum.
pub fn q6_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q6".into(),
        scans: vec![Relation::scan(
            BaseTable::Lineitem,
            vec![
                ColFilter::new("l_shipdate", CompareOp::Between(tpch::D_1995, tpch::D_1995 + 364)),
                ColFilter::new("l_discount", CompareOp::Between(5, 7)),
                ColFilter::new("l_quantity", CompareOp::Lt(24)),
            ],
            &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        )],
        first: 0,
        joins: vec![],
        col_eq: None,
        post_filters: vec![],
        finish: Finish::ScalarSums(vec![ScalarSum {
            name: "revenue".into(),
            expr: Expr::Mul(
                Box::new(Expr::col("l_extendedprice")),
                Box::new(Expr::col("l_discount")),
            ),
            filter: None,
        }]),
    }
}

/// Q10: orders ⋈ lineitem, group by custkey, top-20 — the query with a
/// genuine distributed placement choice (its group key is not the
/// sharding key).
pub fn q10_graph() -> JoinGraph {
    JoinGraph {
        name: "q10",
        relations: vec![
            Relation::scan(
                BaseTable::Orders,
                vec![ColFilter::new(
                    "o_orderdate",
                    CompareOp::Between(tpch::D_1995, tpch::D_1995 + 90),
                )],
                &["o_orderkey", "o_custkey", "o_orderdate"],
            ),
            Relation::scan(
                BaseTable::Lineitem,
                vec![ColFilter::new("l_returnflag", CompareOp::Eq(2))],
                &["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
            ),
        ],
        edges: vec![JoinEdge {
            a: 0,
            a_col: "o_orderkey".into(),
            b: 1,
            b_col: "l_orderkey".into(),
            fanout: 32,
        }],
        col_eq: None,
        finish: Finish::AggTopK {
            spec: spec(
                &["o_custkey"],
                vec![(
                    "revenue",
                    AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
                )],
            ),
            value: "revenue".into(),
            k: 20,
        },
    }
}

/// Q10's default linearization.
pub fn q10_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q10".into(),
        scans: q10_graph().relations,
        first: 0,
        joins: vec![JoinNode {
            scan: 1,
            build_acc: true,
            build_key: "o_orderkey".into(),
            probe_key: "l_orderkey".into(),
            build_cols: strs(&["o_custkey"]),
            probe_cols: strs(&["l_extendedprice", "l_discount"]),
            fanout: 32,
        }],
        col_eq: None,
        post_filters: vec![],
        finish: q10_graph().finish,
    }
}

/// Q10's local phase for shuffle plans: stop at the partial group-by.
pub fn q10_partial_plan() -> LogicalPlan {
    let mut p = q10_plan();
    let Finish::AggTopK { spec, .. } = p.finish else { unreachable!() };
    p.finish = Finish::Agg(spec);
    p
}

/// Q12: orders ⋈ lineitem, group by shipmode.
pub fn q12_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q12".into(),
        scans: vec![
            Relation::scan(
                BaseTable::Lineitem,
                vec![
                    ColFilter::new("l_shipmode", CompareOp::Between(2, 3)),
                    ColFilter::new(
                        "l_receiptdate",
                        CompareOp::Between(tpch::D_1995, tpch::D_1995 + 364),
                    ),
                ],
                &["l_orderkey", "l_shipmode", "l_receiptdate"],
            ),
            Relation::scan(BaseTable::Orders, vec![], &["o_orderkey"]),
        ],
        first: 0,
        joins: vec![JoinNode {
            scan: 1,
            build_acc: false,
            build_key: "o_orderkey".into(),
            probe_key: "l_orderkey".into(),
            build_cols: vec![],
            probe_cols: strs(&["l_shipmode"]),
            fanout: 32,
        }],
        col_eq: None,
        post_filters: vec![],
        finish: Finish::Agg(spec(&["l_shipmode"], vec![("line_count", AggFunc::Count)])),
    }
}

/// Q14: part ⋈ lineitem with the promo/total scalar pair.
pub fn q14_plan() -> LogicalPlan {
    let rev = Expr::Mul(
        Box::new(Expr::col("l_extendedprice")),
        Box::new(Expr::Sub(Box::new(Expr::lit(100)), Box::new(Expr::col("l_discount")))),
    );
    LogicalPlan {
        name: "q14".into(),
        scans: vec![
            Relation::scan(
                BaseTable::Lineitem,
                vec![ColFilter::new(
                    "l_shipdate",
                    CompareOp::Between(tpch::D_1995, tpch::D_1995 + 29),
                )],
                &["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
            ),
            Relation::scan(BaseTable::Part, vec![], &["p_partkey", "p_type"]),
        ],
        first: 0,
        joins: vec![JoinNode {
            scan: 1,
            build_acc: false,
            build_key: "p_partkey".into(),
            probe_key: "l_partkey".into(),
            build_cols: strs(&["p_type"]),
            probe_cols: strs(&["l_extendedprice", "l_discount"]),
            fanout: 32,
        }],
        col_eq: None,
        post_filters: vec![],
        finish: Finish::ScalarSums(vec![
            ScalarSum {
                name: "promo".into(),
                expr: rev.clone(),
                filter: Some(ColFilter::new("p_type", CompareOp::Lt(30))),
            },
            ScalarSum { name: "total".into(), expr: rev, filter: None },
        ]),
    }
}

/// Q18: big-orders (group-having) ⋈ orders, canonical sort, top-100.
pub fn q18_plan() -> LogicalPlan {
    LogicalPlan {
        name: "q18".into(),
        scans: vec![
            Relation {
                source: Source::GroupHaving {
                    table: BaseTable::Lineitem,
                    spec: spec(
                        &["l_orderkey"],
                        vec![("sum_qty", AggFunc::Sum("l_quantity".into()))],
                    ),
                    having: ColFilter::new("sum_qty", CompareOp::Gt(180)),
                },
                filters: vec![],
                touched: strs(&["l_orderkey", "l_quantity"]),
            },
            Relation::scan(BaseTable::Orders, vec![], &["o_orderkey", "o_custkey", "o_totalprice"]),
        ],
        first: 0,
        joins: vec![JoinNode {
            scan: 1,
            build_acc: true,
            build_key: "l_orderkey".into(),
            probe_key: "o_orderkey".into(),
            build_cols: strs(&["sum_qty"]),
            probe_cols: strs(&["o_orderkey", "o_custkey", "o_totalprice"]),
            fanout: 32,
        }],
        col_eq: None,
        post_filters: vec![],
        finish: Finish::TopK {
            value: "o_totalprice".into(),
            k: 100,
            sort_by: Some("o_orderkey".into()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::generate;

    fn db() -> TpchDb {
        generate(600, 11)
    }

    #[test]
    fn reordered_joins_change_nothing_after_canonicalization() {
        let db = db();
        // Q3 in every connected order, with build sides flipped by
        // estimates: output must be identical to the default plan.
        let g = q3_graph();
        let base = q3_plan().execute(&db);
        for order in [[0usize, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]] {
            for est in [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 1.0, 1.0]] {
                let p = g.linearize(&order, &est);
                assert_eq!(p.execute(&db), base, "order {order:?} est {est:?}");
            }
        }
        // Q5's five relations, a couple of hand-picked connected orders.
        let g5 = q5_graph();
        let base5 = q5_plan().execute(&db);
        for order in [[0usize, 1, 2, 3, 4], [2, 1, 0, 3, 4], [3, 2, 1, 0, 4], [4, 3, 2, 1, 0]] {
            let est: Vec<f64> = (0..5).map(|i| (i + 1) as f64).collect();
            let p = g5.linearize(&order, &est);
            assert_eq!(p.execute(&db), base5, "order {order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_order_is_rejected() {
        // Customer (0) and lineitem (2) share no edge.
        q3_graph().linearize(&[0, 2, 1], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn q10_partial_plus_merge_matches_full_plan() {
        let db = db();
        let partial = q10_partial_plan().execute(&db);
        let Finish::AggTopK { spec, value, k } = q10_plan().finish else { panic!() };
        let grouped = partial.table();
        let top = top_k(grouped, &value, k.min(grouped.rows().max(1)), 32);
        let finished = project_rows(grouped, &top);
        assert_eq!(&finished, q10_plan().execute(&db).table());
        let _ = spec;
    }

    /// Every connected order of `g`'s relations: each relation after
    /// the first shares an edge with one before it.
    fn connected_orders(g: &JoinGraph) -> Vec<Vec<usize>> {
        fn extend(g: &JoinGraph, order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if order.len() == g.relations.len() {
                out.push(order.clone());
                return;
            }
            for r in 0..g.relations.len() {
                let linked = |e: &JoinEdge| {
                    (e.a == r && order.contains(&e.b)) || (e.b == r && order.contains(&e.a))
                };
                if !order.contains(&r) && (order.is_empty() || g.edges.iter().any(linked)) {
                    order.push(r);
                    extend(g, order, out);
                    order.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(g, &mut Vec::new(), &mut out);
        out
    }

    /// Asserts that every column `p` reads from a relation is in that
    /// relation's `touched` list: its filters, a derived source's
    /// grouping inputs, the join keys and carried columns on its side
    /// of each join, and the post-filter and finish inputs it provides.
    /// Columns read from the accumulated side are traced to the one
    /// joined relation whose table provides them.
    fn assert_touched_covers_reads(p: &LogicalPlan, db: &TpchDb) {
        // Whether relation `i`'s staged table has column `c`.
        let provides = |i: usize, c: &str| match &p.scans[i].source {
            Source::Base(t) => t.of(db).column(c).is_some(),
            Source::GroupHaving { spec, .. } => {
                spec.group_cols.iter().chain(spec.aggs.iter().map(|(n, _)| n)).any(|x| x == c)
            }
        };
        // A base scan reads its touched columns; a derived source's
        // outputs are computed from touched inputs, checked below.
        let check = |i: usize, c: &str, what: &str| {
            let rel = &p.scans[i];
            let read = match &rel.source {
                Source::Base(_) => rel.touched.iter().any(|t| t == c),
                Source::GroupHaving { .. } => provides(i, c),
            };
            assert!(read, "{}: {what} column {c} of relation {i} is not touched", p.name);
        };
        let from = |members: &[usize], c: &str, what: &str| {
            let owners: Vec<usize> = members.iter().copied().filter(|&i| provides(i, c)).collect();
            assert_eq!(owners.len(), 1, "{}: {what} column {c} owned by {owners:?}", p.name);
            check(owners[0], c, what);
        };
        for (i, rel) in p.scans.iter().enumerate() {
            rel.filters.iter().for_each(|f| check(i, &f.col, "filter"));
            if let Source::GroupHaving { spec, .. } = &rel.source {
                let inputs = spec.aggs.iter().flat_map(|(_, f)| agg_inputs(f));
                for c in spec.group_cols.iter().cloned().chain(inputs) {
                    assert!(rel.touched.contains(&c), "{}: group input {c} not touched", p.name);
                }
            }
        }
        let mut joined = vec![p.first];
        for j in &p.joins {
            let (acc_key, scan_key, acc_cols, scan_cols) = if j.build_acc {
                (&j.build_key, &j.probe_key, &j.build_cols, &j.probe_cols)
            } else {
                (&j.probe_key, &j.build_key, &j.probe_cols, &j.build_cols)
            };
            check(j.scan, scan_key, "join key");
            scan_cols.iter().for_each(|c| check(j.scan, c, "carried"));
            from(&joined, acc_key, "join key");
            acc_cols.iter().for_each(|c| from(&joined, c, "carried"));
            joined.push(j.scan);
        }
        p.post_filters.iter().for_each(|f| from(&joined, &f.col, "post-filter"));
        for c in finish_inputs(&p.finish, p.col_eq.as_ref()) {
            from(&joined, &c, "finish");
        }
    }

    /// Joins and group-bys read base columns through the scans'
    /// selections, so no copy checks `Relation::touched` at run time:
    /// this pins, for every default plan and every linearization of
    /// the join graphs (both build-side choices), that each scan is
    /// priced on every column the plan reads from it.
    #[test]
    fn touched_covers_every_column_a_plan_reads() {
        let db = db();
        let mut plans = vec![
            q1_plan(),
            q3_plan(),
            q5_plan(),
            q6_plan(),
            q10_plan(),
            q10_partial_plan(),
            q12_plan(),
            q14_plan(),
            q18_plan(),
        ];
        let mut linearized = 0;
        for g in [q3_graph(), q5_graph(), q10_graph()] {
            let n = g.relations.len();
            let ests = [
                (1..=n).map(|i| i as f64).collect::<Vec<_>>(),
                (1..=n).rev().map(|i| i as f64).collect(),
                vec![1.0; n],
            ];
            for order in connected_orders(&g) {
                for est in &ests {
                    plans.push(g.linearize(&order, est));
                    linearized += 1;
                }
            }
        }
        assert!(linearized >= 3 * (4 + 2), "only {linearized} linearizations");
        for p in &plans {
            assert_touched_covers_reads(p, &db);
        }
    }

    /// The check above catches a touched list missing a join key.
    #[test]
    #[should_panic(expected = "join key column o_custkey of relation 1 is not touched")]
    fn touched_check_catches_a_missing_join_key() {
        let mut p = q3_plan();
        p.scans[1].touched.retain(|c| c != "o_custkey");
        assert_touched_covers_reads(&p, &db());
    }

    #[test]
    fn costed_execution_reports_positive_cost_and_trace() {
        let db = db();
        let xeon = Xeon::new();
        for plan in [
            q1_plan(),
            q3_plan(),
            q5_plan(),
            q6_plan(),
            q10_plan(),
            q12_plan(),
            q14_plan(),
            q18_plan(),
        ] {
            let (_, cost, trace) = plan.execute_costed(&db, &xeon, 10_000);
            assert!(cost.dpu.seconds > 0.0, "{}: zero dpu cost", plan.name);
            assert!(cost.xeon.seconds > 0.0, "{}: zero xeon cost", plan.name);
            assert!(!trace.rows.is_empty(), "{}: empty trace", plan.name);
            assert!(
                plan.ops(&trace).iter().any(|(op, _)| op.to_string().starts_with("scan")),
                "{}: no scan in trace",
                plan.name
            );
        }
    }
}
