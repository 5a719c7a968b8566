//! The cost walk: the one place a [`LogicalPlan`] is priced and its
//! operators are labelled. It visits the operators in execution order,
//! charging each one's roofline rule on the cardinalities of a
//! [`Trace`]: actual rows recorded by [`LogicalPlan::execute_costed`],
//! or the planner's catalog estimates. An estimate therefore differs
//! from a measurement only where a cardinality does.

use std::fmt;

use xeon_model::Xeon;

use crate::agg::{GroupByPlan, GroupBySpec};
use crate::logical::{BaseTable, Finish, JoinNode, LogicalPlan, Relation, Source};
use crate::plan::{CostAcc, QueryCost};
use crate::tpch::XEON_DB_EFFICIENCY;
use crate::tpch::{AGG_DPU, AGG_XEON, PROBE_DPU, PROBE_XEON, SCAN_DPU, SCAN_XEON};

/// A cardinality: actual rows (`usize`, charged exactly, so a zero
/// stays zero) or estimated rows (`f64`, charged as at least one).
pub trait Rows: Copy {
    /// The rows a per-row rule charges.
    fn charged(self) -> u64;
    /// The group count at `scale`× the executed data.
    fn full_scale(self, scale: u64) -> u64;
}

impl Rows for usize {
    fn charged(self) -> u64 {
        self as u64
    }
    fn full_scale(self, scale: u64) -> u64 {
        self as u64 * scale
    }
}

impl Rows for f64 {
    fn charged(self) -> u64 {
        self.max(1.0) as u64
    }
    fn full_scale(self, scale: u64) -> u64 {
        (self * scale as f64) as u64
    }
}

/// The cardinalities the walk reads for one plan on one shard, in walk
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace<C> {
    /// Per scan: base-table rows and resident bytes of touched columns.
    pub inputs: Vec<(C, u64)>,
    /// Rows out of each operator.
    pub rows: Vec<C>,
}

/// One operator of a plan; its `Display` is the EXPLAIN label.
#[derive(Debug, Clone, Copy)]
pub enum Op<'p> {
    /// A derived source's group-by (Q18's big-orders subquery).
    Derive(BaseTable, &'p GroupBySpec),
    /// A leaf scan with its filters.
    Scan(&'p Relation),
    /// A join step.
    Join(&'p JoinNode),
    /// The residual filter.
    Residual,
    /// A group-by finish.
    Agg(&'p GroupBySpec),
    /// A top-k on a column.
    TopK(&'p str, usize),
    /// A scalar-sums finish.
    ScalarSums,
}

impl fmt::Display for Op<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Derive(table, spec) => write!(f, "{} {}", table.name(), Op::Agg(spec)),
            Op::Scan(rel) => {
                let filtered = if rel.filters.is_empty() { "" } else { " filtered" };
                write!(f, "scan {}{filtered}", rel.source.table().name())
            }
            Op::Join(j) => write!(f, "join {}={} fanout={}", j.build_key, j.probe_key, j.fanout),
            Op::Residual => f.write_str("filter residual"),
            Op::Agg(spec) if spec.group_cols.is_empty() => f.write_str("agg"),
            Op::Agg(spec) => write!(f, "agg by {}", spec.group_cols.join(",")),
            Op::TopK(value, k) => write!(f, "topk {value} k={k}"),
            Op::ScalarSums => f.write_str("scalar sums"),
        }
    }
}

impl LogicalPlan {
    /// Prices the plan on `trace`'s cardinalities at `scale`× the data.
    pub fn cost<C: Rows>(&self, trace: &Trace<C>, xeon: &Xeon, scale: u64) -> QueryCost {
        let mut cost = self.walk(trace, scale, |_, _| {}).finish(xeon);
        cost.xeon.seconds /= XEON_DB_EFFICIENCY;
        cost
    }

    /// Each operator with its rows from `trace`, in walk order.
    pub fn ops<C: Rows>(&self, trace: &Trace<C>) -> Vec<(Op<'_>, C)> {
        let mut ops = Vec::with_capacity(trace.rows.len());
        self.walk(trace, 1, |op, rows| ops.push((op, rows)));
        ops
    }

    /// One rule per operator. A scan streams its touched columns'
    /// resident bytes plus one FILT pass over its base rows; a derived
    /// source adds its group-by's partition rounds (at the full-scale
    /// group count) and [`AGG_DPU`] per base row. A join streams 4 key
    /// bytes per probe row (the scan's base rows when a scan probes)
    /// through the partition rounds of its full-scale build side, plus
    /// [`PROBE_DPU`] per build and probe row. A residual filter is one
    /// pass. The finish pays on the rows entering it, before `col_eq`:
    /// [`AGG_DPU`] per row to group, 3 cycles per sum per row.
    fn walk<'p, C: Rows>(
        &'p self,
        trace: &Trace<C>,
        scale: u64,
        mut visit: impl FnMut(Op<'p>, C),
    ) -> CostAcc {
        let mut acc = CostAcc::with_scale(scale);
        let mut inputs = trace.inputs.iter();
        let mut rows = trace.rows.iter();
        let mut emit = |op: Op<'p>| {
            let r = *rows.next().expect("trace shorter than its plan");
            visit(op, r);
            r
        };
        let mut scan = |acc: &mut CostAcc, emit: &mut dyn FnMut(Op<'p>) -> C, i: usize| {
            let rel = &self.scans[i];
            let (base, touched) = *inputs.next().expect("trace shorter than its plan");
            acc.stream_both(touched);
            acc.compute(base.charged(), SCAN_DPU, SCAN_XEON);
            if let Source::GroupHaving { table, spec, .. } = &rel.source {
                let groups = emit(Op::Derive(*table, spec)).full_scale(scale);
                let plan = GroupByPlan::plan(groups.max(1), 16);
                acc.stream(
                    touched * (plan.dpu_bytes_factor() - 1),
                    touched * (plan.xeon_bytes_factor() - 1),
                );
                acc.compute(base.charged(), AGG_DPU, AGG_XEON);
            }
            (base, emit(Op::Scan(rel)))
        };
        let mut cur = scan(&mut acc, &mut emit, self.first).1;
        for j in &self.joins {
            let (other_base, other) = scan(&mut acc, &mut emit, j.scan);
            let (build, probe) = if j.build_acc { (cur, other) } else { (other, cur) };
            let probe_base = if j.build_acc { other_base } else { probe };
            let key_bytes = 4 * probe_base.charged();
            let plan = GroupByPlan::plan((build.charged() * scale).max(1), 16);
            acc.stream(key_bytes * plan.dpu_bytes_factor(), key_bytes * plan.xeon_bytes_factor());
            acc.compute(build.charged(), PROBE_DPU, PROBE_XEON);
            acc.compute(probe.charged(), PROBE_DPU, PROBE_XEON);
            cur = emit(Op::Join(j));
        }
        if !self.post_filters.is_empty() {
            acc.compute(cur.charged(), SCAN_DPU, SCAN_XEON);
            cur = emit(Op::Residual);
        }
        match &self.finish {
            Finish::Agg(spec) | Finish::AggTopK { spec, .. } => {
                acc.compute(cur.charged(), AGG_DPU, AGG_XEON);
                emit(Op::Agg(spec));
            }
            Finish::TopK { .. } => {}
            Finish::ScalarSums(sums) => {
                let n = sums.len() as f64;
                acc.compute(cur.charged(), 3.0 * n, 1.5 * n);
                emit(Op::ScalarSums);
            }
        }
        if let Finish::AggTopK { value, k, .. } | Finish::TopK { value, k, .. } = &self.finish {
            emit(Op::TopK(value, *k));
        }
        assert!(rows.next().is_none() && inputs.next().is_none(), "trace longer than its plan");
        acc
    }
}
