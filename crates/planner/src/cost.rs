//! Estimated costing of physical plans.
//!
//! The estimator walks a [`LogicalPlan`] exactly the way
//! `LogicalPlan::execute_costed` does — same [`CostAcc`] roofline, same
//! per-operator constants, same trace labels — but drives it with
//! *estimated* cardinalities from the [`Catalog`] instead of actual
//! rows. An EXPLAIN can therefore line estimated rows up against actual
//! rows operator by operator, and an estimate differs from a
//! measurement only where the statistics were wrong, never because the
//! models disagree.
//!
//! On top of the per-shard walk it costs the merge strategy over the
//! fabric model: a gather serializes every partial through the
//! coordinator's one RX NIC, a shuffle spreads the same bytes over all
//! `n` NICs and pays a second small candidate gather — the placement
//! asymmetry the optimizer exploits on Q10.

use dpu_cluster::{FabricConfig, MergeStrategy, PhysicalPlan, Topology};
use dpu_sql::agg::GroupByPlan;
use dpu_sql::logical::{Finish, LogicalPlan, Relation, Source};
use dpu_sql::tpch::{join_cost, AGG_DPU, AGG_XEON, SCAN_DPU, SCAN_XEON, XEON_DB_EFFICIENCY};
use dpu_sql::{CostAcc, GroupBySpec, QueryCost};
use xeon_model::Xeon;

use crate::stats::Catalog;

/// The planner's uninformed default for HAVING predicates over
/// aggregated columns (no base-column statistics exist for them).
pub const HAVING_SELECTIVITY: f64 = 0.05;

/// Estimated rows out of one operator, labelled identically to the
/// executor's `OpRows` trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EstRows {
    /// Stable operator label (matches the actual trace).
    pub label: String,
    /// Estimated output rows, summed across shards.
    pub rows: f64,
}

/// A costed estimate for one physical plan.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// Slowest shard's local phase, seconds (same roofline as execution).
    pub local_seconds: f64,
    /// Fabric transfer estimate for the merge strategy, seconds.
    pub fabric_seconds: f64,
    /// Coordinator/owner merge compute estimate, seconds.
    pub merge_seconds: f64,
    /// Estimated payload bytes crossing the fabric.
    pub fabric_bytes: u64,
    /// Estimated partial-result rows surrendered by all shards.
    pub partial_rows: f64,
    /// Per-operator estimated rows (cluster-wide), in trace order.
    pub ops: Vec<EstRows>,
}

impl PlanEstimate {
    /// The estimate's end-to-end seconds.
    pub fn total_seconds(&self) -> f64 {
        self.local_seconds + self.fabric_seconds + self.merge_seconds
    }
}

/// Catalog + fabric + roofline: everything needed to price a plan.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    /// The statistics.
    pub catalog: &'a Catalog,
    /// The rack fabric the merge is priced against.
    pub fabric: FabricConfig,
    /// The spine/leaf geometry: sources outside the coordinator's rack
    /// pay doubled hop latency and their bytes share the rack uplinks
    /// (see [`CostModel::merge_estimate`]). A single-rack topology
    /// prices exactly like the flat model.
    pub topo: Topology,
    /// Nodes in the rack.
    pub n_nodes: usize,
    /// Full-scale multiplier (`ClusterConfig::scale`).
    pub scale: u64,
}

impl CostModel<'_> {
    /// Prices a physical plan: per-shard estimated walk (max over shards
    /// for the local phase) plus the merge strategy over the fabric.
    pub fn estimate(&self, plan: &PhysicalPlan) -> PlanEstimate {
        let xeon = Xeon::new();
        let n = self.catalog.n_shards;
        let mut local_seconds = 0.0f64;
        let mut partial_rows = 0.0f64;
        let mut ops: Vec<EstRows> = Vec::new();
        for shard in 0..n {
            let (cost, out_rows, shard_ops) = self.walk(&plan.local, shard, &xeon);
            local_seconds = local_seconds.max(cost.dpu.seconds);
            partial_rows += out_rows;
            if ops.is_empty() {
                ops = shard_ops;
            } else {
                for (acc, o) in ops.iter_mut().zip(&shard_ops) {
                    acc.rows += o.rows;
                }
            }
        }
        let arity = out_arity(&plan.local);
        let (fabric_seconds, merge_seconds, fabric_bytes) =
            self.merge_estimate(&plan.merge, partial_rows, arity);
        PlanEstimate {
            local_seconds,
            fabric_seconds,
            merge_seconds,
            fabric_bytes,
            partial_rows,
            ops,
        }
    }

    /// Mirrors `execute_costed` with estimated cardinalities. Returns the
    /// estimated per-shard cost, output rows and the labelled op trace.
    fn walk(
        &self,
        plan: &LogicalPlan,
        shard: usize,
        xeon: &Xeon,
    ) -> (QueryCost, f64, Vec<EstRows>) {
        let mut acc = CostAcc::with_scale(self.scale);
        let mut ops = Vec::new();
        let mut rows = self.scan_estimate(&plan.scans[plan.first], shard, &mut acc, &mut ops);
        for j in &plan.joins {
            let other = self.scan_estimate(&plan.scans[j.scan], shard, &mut acc, &mut ops);
            let (build, probe) = if j.build_acc { (rows, other) } else { (other, rows) };
            let probe_base =
                if j.build_acc { self.base_rows(&plan.scans[j.scan], shard) } else { probe };
            join_cost(
                &mut acc,
                build.max(1.0) as u64,
                probe.max(1.0) as u64,
                4 * probe_base.max(1.0) as u64,
            );
            let d = self
                .catalog
                .shard_ndv(&j.build_key)
                .max(self.catalog.shard_ndv(&j.probe_key))
                .max(1.0);
            rows = build * probe / d;
            ops.push(EstRows {
                label: format!("join {}={} fanout={}", j.build_key, j.probe_key, j.fanout),
                rows,
            });
        }
        if !plan.post_filters.is_empty() {
            acc.compute(rows.max(1.0) as u64, SCAN_DPU, SCAN_XEON);
            // Residual filters reference columns from any base relation.
            for f in &plan.post_filters {
                let sel = self
                    .catalog
                    .column(&f.col)
                    .map_or(HAVING_SELECTIVITY, |(t, _)| self.catalog.table(t).selectivity(f));
                rows *= sel;
            }
            ops.push(EstRows { label: "filter residual".into(), rows });
        }
        if let Some((a, b)) = &plan.col_eq {
            rows /= self.catalog.ndv(a).max(self.catalog.ndv(b)).max(1.0);
        }
        let out = match &plan.finish {
            Finish::Agg(spec) => {
                acc.compute(rows.max(1.0) as u64, AGG_DPU, AGG_XEON);
                let g = self.group_estimate(spec, rows);
                ops.push(EstRows { label: agg_label(spec), rows: g });
                g
            }
            Finish::AggTopK { spec, value, k } => {
                acc.compute(rows.max(1.0) as u64, AGG_DPU, AGG_XEON);
                let g = self.group_estimate(spec, rows);
                ops.push(EstRows { label: agg_label(spec), rows: g });
                let t = g.min(*k as f64);
                ops.push(EstRows { label: format!("topk {value} k={k}"), rows: t });
                t
            }
            Finish::TopK { value, k, .. } => {
                let t = rows.min(*k as f64);
                ops.push(EstRows { label: format!("topk {value} k={k}"), rows: t });
                t
            }
            Finish::ScalarSums(sums) => {
                acc.compute(rows.max(1.0) as u64, 3.0 * sums.len() as f64, 1.5 * sums.len() as f64);
                ops.push(EstRows { label: "scalar sums".into(), rows: sums.len() as f64 });
                // The partial table is one row of scalar columns.
                1.0
            }
        };
        let mut cost = acc.finish(xeon);
        cost.xeon.seconds /= XEON_DB_EFFICIENCY;
        (cost, out, ops)
    }

    /// Rows of a relation's base table on this shard (pre-filter).
    fn base_rows(&self, rel: &Relation, shard: usize) -> f64 {
        self.catalog.table(rel.source.table()).per_shard_rows[shard] as f64
    }

    /// Estimated rows a leaf scan yields on one shard, costing the
    /// stream exactly like `eval_scan`.
    fn scan_estimate(
        &self,
        rel: &Relation,
        shard: usize,
        acc: &mut CostAcc,
        ops: &mut Vec<EstRows>,
    ) -> f64 {
        let table = rel.source.table();
        let stats = self.catalog.table(table);
        let base_rows = stats.per_shard_rows[shard] as f64;
        let frac = if stats.rows == 0 { 0.0 } else { base_rows / stats.rows as f64 };
        let touched: u64 = rel
            .touched
            .iter()
            .map(|c| {
                let bytes = stats.columns.get(c).map_or(0, |s| s.bytes);
                (bytes as f64 * frac) as u64
            })
            .sum();
        acc.stream_both(touched);
        acc.compute(base_rows.max(1.0) as u64, SCAN_DPU, SCAN_XEON);
        let staged = match &rel.source {
            Source::Base(_) => base_rows,
            Source::GroupHaving { spec, having, .. } => {
                let g = self.group_estimate(spec, base_rows);
                let plan = GroupByPlan::plan(((g * self.scale as f64) as u64).max(1), 16);
                acc.stream(
                    touched * (plan.dpu_bytes_factor() - 1),
                    touched * (plan.xeon_bytes_factor() - 1),
                );
                acc.compute(base_rows.max(1.0) as u64, AGG_DPU, AGG_XEON);
                ops.push(EstRows {
                    label: format!("{} {}", table.name(), agg_label(spec)),
                    rows: g,
                });
                let _ = having;
                g * HAVING_SELECTIVITY
            }
        };
        let out = staged * stats.conjunction(&rel.filters);
        ops.push(EstRows {
            label: format!(
                "scan {}{}",
                table.name(),
                if rel.filters.is_empty() { "" } else { " filtered" }
            ),
            rows: out,
        });
        out
    }

    /// Estimated groups a spec yields from `rows` input rows on one
    /// shard: the product of the group columns' per-shard NDVs (see
    /// [`Catalog::shard_ndv`]), capped by the input. The catalog has
    /// no correlation statistics, so after a selective filter or join
    /// the cap is all we have — the estimate behaves as if every
    /// surviving row carried a distinct group key. When keys repeat
    /// (Q10's repeat customers), actual partials land well below the
    /// cap, which is exactly the error the adaptive layer corrects.
    fn group_estimate(&self, spec: &GroupBySpec, rows: f64) -> f64 {
        let ndv: f64 = spec.group_cols.iter().map(|c| self.catalog.shard_ndv(c)).product();
        ndv.min(rows).max(1.0)
    }

    /// Fabric + merge estimate for a strategy, given total partial rows
    /// across shards and the partial row width in columns.
    /// Returns `(fabric_seconds, merge_seconds, fabric_bytes)`.
    ///
    /// Topology pricing: of the `n` sources, the `m = n/racks` sharing
    /// the coordinator's rack pay one hop of latency each; the other
    /// `n - m` pay two (leaf → spine → leaf), and their bytes — an
    /// `(n-m)/n` fraction under uniform placement — must also clear the
    /// rack uplinks (`switch / oversub` bytes per cycle), so an
    /// oversubscribed spine raises the bandwidth term to
    /// `max(NIC time, uplink time)`. With one rack the inter-rack
    /// fraction is zero and every expression reduces exactly to the
    /// flat single-switch model.
    fn merge_estimate(
        &self,
        merge: &MergeStrategy,
        partial_rows: f64,
        arity: u64,
    ) -> (f64, f64, u64) {
        let n = self.catalog.n_shards as f64;
        let m = self.topo.nodes_per_rack() as f64;
        let clock = self.fabric.clock.hz();
        let nic = self.fabric.nic_bytes_per_cycle as f64 * clock;
        let uplink = self.topo.uplink_bytes_per_cycle(&self.fabric) as f64 * clock;
        let per_row = AGG_DPU / (32.0 * clock);
        let hop = self.fabric.hop_cycles as f64;
        let msg = self.fabric.message_overhead_cycles as f64;
        let hops = (m * (hop + msg) + (n - m) * (2.0 * hop + msg)) / clock;
        let inter_frac = (n - m) / n;
        let row_bytes = (arity * 8) as f64;
        let bytes = partial_rows * row_bytes;
        match merge {
            MergeStrategy::Reagg(_)
            | MergeStrategy::TopKMerge { .. }
            | MergeStrategy::SumScalars { .. }
            | MergeStrategy::GatherTopK { .. } => {
                // Every partial lands on the coordinator's single RX
                // NIC; the cross-rack share also clears its downlink.
                let xfer = (bytes / nic).max(bytes * inter_frac / uplink);
                (xfer + hops, partial_rows * per_row, bytes as u64)
            }
            MergeStrategy::ShuffleTopK { k, .. } => {
                // All-to-all: each NIC carries ~1/n of the cross traffic
                // and each rack uplink ~1/racks of the inter-rack share;
                // owners reduce in parallel, then k candidates per owner
                // gather at the coordinator.
                let racks = self.topo.racks() as f64;
                let cross = bytes * (n - 1.0) / n;
                let inter_cross = bytes * inter_frac;
                let shuffle = (cross / n / nic).max(inter_cross / racks / uplink) + hops;
                let cand_bytes = n * *k as f64 * row_bytes;
                let gather = (cand_bytes / nic).max(cand_bytes * inter_frac / uplink) + hops;
                let merge = partial_rows / n * per_row + n * *k as f64 * per_row;
                (shuffle + gather, merge, (cross + cand_bytes) as u64)
            }
        }
    }
}

/// Column count of the local plan's partial output table.
fn out_arity(plan: &LogicalPlan) -> u64 {
    match &plan.finish {
        Finish::Agg(spec) | Finish::AggTopK { spec, .. } => {
            (spec.group_cols.len() + spec.aggs.len()) as u64
        }
        Finish::TopK { .. } => plan
            .joins
            .last()
            .map(|j| (j.build_cols.len() + j.probe_cols.len()) as u64)
            .unwrap_or_else(|| plan.scans[plan.first].touched.len() as u64),
        Finish::ScalarSums(sums) => sums.len() as u64,
    }
}

fn agg_label(spec: &GroupBySpec) -> String {
    if spec.group_cols.is_empty() {
        "agg".into()
    } else {
        format!("agg by {}", spec.group_cols.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Catalog;
    use dpu_cluster::{
        default_physical, q10_gather_physical, ClusterConfig, ClusterCore, QueryId, ShardPolicy,
    };
    use dpu_sql::tpch::generate;

    fn model_fixture() -> (std::sync::Arc<ClusterCore>, Catalog) {
        let cfg = ClusterConfig::prototype_slice(8, 10_000);
        let core = ClusterCore::new(generate(1200, 42), &ShardPolicy::hash(8), cfg);
        let catalog = Catalog::from_core(&core);
        (core, catalog)
    }

    #[test]
    fn every_query_gets_a_positive_finite_estimate() {
        let (core, catalog) = model_fixture();
        let model = CostModel {
            catalog: &catalog,
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            n_nodes: core.cfg().n_nodes,
            scale: core.cfg().scale,
        };
        for id in QueryId::ALL {
            let est = model.estimate(&default_physical(id));
            assert!(est.total_seconds().is_finite() && est.total_seconds() > 0.0, "{id:?}");
            assert!(!est.ops.is_empty(), "{id:?} has an op trace");
        }
    }

    #[test]
    fn gather_and_shuffle_price_the_fabric_differently() {
        let (core, catalog) = model_fixture();
        let model = CostModel {
            catalog: &catalog,
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            n_nodes: core.cfg().n_nodes,
            scale: core.cfg().scale,
        };
        let shuffle = model.estimate(&default_physical(QueryId::Q10));
        let gather = model.estimate(&q10_gather_physical());
        // Same local plan, same partial estimate — only the merge differs.
        assert_eq!(shuffle.ops, gather.ops);
        assert!((shuffle.local_seconds - gather.local_seconds).abs() < 1e-12);
        assert_ne!(shuffle.fabric_bytes, gather.fabric_bytes);
        assert!(shuffle.fabric_seconds != gather.fabric_seconds);
    }

    #[test]
    fn oversubscribed_topology_prices_cross_rack_merges_higher() {
        let (core, catalog) = model_fixture();
        let flat = CostModel {
            catalog: &catalog,
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            n_nodes: core.cfg().n_nodes,
            scale: core.cfg().scale,
        };
        let spine = CostModel { topo: Topology::new(8, 4, 32.0), ..flat.clone() };
        for id in QueryId::ALL {
            let a = flat.estimate(&default_physical(id));
            let b = spine.estimate(&default_physical(id));
            // 6 of 8 sources sit outside the coordinator's rack: every
            // query pays extra hop latency, and (at 32:1) bandwidth-
            // bound merges queue on the uplinks too.
            assert!(
                b.fabric_seconds > a.fabric_seconds,
                "{id:?}: spine {} vs flat {}",
                b.fabric_seconds,
                a.fabric_seconds
            );
            // Topology only reprices the fabric phase.
            assert_eq!(b.local_seconds, a.local_seconds, "{id:?}");
            assert_eq!(b.merge_seconds, a.merge_seconds, "{id:?}");
            assert_eq!(b.fabric_bytes, a.fabric_bytes, "{id:?}");
        }
    }

    #[test]
    fn estimated_trace_labels_match_actual_trace_labels() {
        let (core, catalog) = model_fixture();
        let model = CostModel {
            catalog: &catalog,
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            n_nodes: core.cfg().n_nodes,
            scale: core.cfg().scale,
        };
        let xeon = xeon_model::Xeon::new();
        for id in QueryId::ALL {
            let plan = default_physical(id);
            let est = model.estimate(&plan);
            let (_, _, trace) = plan.local.execute_costed(core.full(), &xeon, core.cfg().scale);
            let est_labels: Vec<&str> = est.ops.iter().map(|o| o.label.as_str()).collect();
            let actual_labels: Vec<&str> = trace.iter().map(|o| o.label.as_str()).collect();
            assert_eq!(est_labels, actual_labels, "{id:?}");
        }
    }
}
