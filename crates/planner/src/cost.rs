//! Estimated costing of physical plans.
//!
//! The estimator owns cardinalities, not costs. Per shard it estimates
//! the rows out of every operator of a [`LogicalPlan`] from the
//! [`Catalog`] — filter selectivities under independence, joins divided
//! by the larger key NDV, group counts capped by their input, a fixed
//! [`HAVING_SELECTIVITY`] — and hands that [`Trace`] to the cost walk
//! ([`LogicalPlan::cost`]), the same walk that prices executed plans on
//! their actual rows. An estimate therefore differs from a measurement
//! only where a cardinality does.
//!
//! On top of the per-shard walk it costs the merge strategy over the
//! fabric model: a gather serializes every partial through the
//! coordinator's one RX NIC, a shuffle spreads the same bytes over all
//! `n` NICs and pays a second small candidate gather — the placement
//! asymmetry the optimizer exploits on Q10.

use dpu_cluster::{merge_cpu_seconds, FabricConfig, MergeStrategy, PhysicalPlan, Topology};
use dpu_sql::logical::{Finish, LogicalPlan, Relation, Source};
use dpu_sql::{GroupBySpec, Trace};
use xeon_model::Xeon;

use crate::stats::Catalog;

/// The planner's uninformed default for HAVING predicates over
/// aggregated columns (no base-column statistics exist for them).
pub const HAVING_SELECTIVITY: f64 = 0.05;

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
    /// Per-shard estimated traces, in shard order.
    pub shard_traces: Vec<Trace<f64>>,
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
    /// (see `CostModel::merge_estimate`). A single-rack topology
    /// prices exactly like the flat model.
    pub topo: Topology,
    /// Full-scale multiplier (`ClusterConfig::scale`).
    pub scale: u64,
}

impl CostModel<'_> {
    /// Prices a physical plan: the cost walk over each shard's estimated
    /// trace (max over shards for the local phase) plus the merge
    /// strategy over the fabric.
    pub fn estimate(&self, plan: &PhysicalPlan) -> PlanEstimate {
        let xeon = Xeon::new();
        let traces: Vec<Trace<f64>> =
            (0..self.catalog.n_shards).map(|s| self.trace(&plan.local, s)).collect();
        let local_seconds = traces
            .iter()
            .map(|t| plan.local.cost(t, &xeon, self.scale).dpu.seconds)
            .fold(0.0, f64::max);
        // The partial table is the finish's output — one row of scalar
        // columns for scalar sums.
        let partial_rows: f64 = match plan.local.finish {
            Finish::ScalarSums(_) => traces.len() as f64,
            _ => traces.iter().filter_map(|t| t.rows.last()).sum(),
        };
        let arity = out_arity(&plan.local);
        let (fabric_seconds, merge_seconds, fabric_bytes) =
            self.merge_estimate(&plan.merge, partial_rows, arity);
        PlanEstimate {
            local_seconds,
            fabric_seconds,
            merge_seconds,
            fabric_bytes,
            partial_rows,
            shard_traces: traces,
        }
    }

    /// Estimated per-operator rows of `plan` on one shard, in walk order.
    fn trace(&self, plan: &LogicalPlan, shard: usize) -> Trace<f64> {
        let mut t = Trace::default();
        let mut rows = self.scan_estimate(&plan.scans[plan.first], shard, &mut t);
        for j in &plan.joins {
            let other = self.scan_estimate(&plan.scans[j.scan], shard, &mut t);
            let d = self
                .catalog
                .shard_ndv(&j.build_key)
                .max(self.catalog.shard_ndv(&j.probe_key))
                .max(1.0);
            rows = rows * other / d;
            t.rows.push(rows);
        }
        if !plan.post_filters.is_empty() {
            // Residual filters reference columns from any base relation.
            for f in &plan.post_filters {
                rows *= self
                    .catalog
                    .column(&f.col)
                    .map_or(HAVING_SELECTIVITY, |(t, _)| self.catalog.table(t).selectivity(f));
            }
            t.rows.push(rows);
        }
        if let Some((a, b)) = &plan.col_eq {
            rows /= self.catalog.ndv(a).max(self.catalog.ndv(b)).max(1.0);
        }
        match &plan.finish {
            Finish::Agg(spec) => t.rows.push(self.group_estimate(spec, rows)),
            Finish::AggTopK { spec, k, .. } => {
                let g = self.group_estimate(spec, rows);
                t.rows.extend([g, g.min(*k as f64)]);
            }
            Finish::TopK { k, .. } => t.rows.push(rows.min(*k as f64)),
            Finish::ScalarSums(sums) => t.rows.push(sums.len() as f64),
        }
        t
    }

    /// Estimated rows a leaf scan yields on one shard; records the
    /// scan's inputs (base rows, resident touched bytes) in `t`.
    fn scan_estimate(&self, rel: &Relation, shard: usize, t: &mut Trace<f64>) -> f64 {
        let stats = self.catalog.table(rel.source.table());
        let base_rows = stats.per_shard_rows[shard] as f64;
        let frac = if stats.rows == 0 { 0.0 } else { base_rows / stats.rows as f64 };
        let bytes = |c: &String| stats.columns.get(c).map_or(0, |s| s.bytes) as f64;
        let touched: u64 = rel.touched.iter().map(|c| (bytes(c) * frac) as u64).sum();
        t.inputs.push((base_rows, touched));
        let staged = match &rel.source {
            Source::Base(_) => base_rows,
            Source::GroupHaving { spec, .. } => {
                let g = self.group_estimate(spec, base_rows);
                t.rows.push(g);
                g * HAVING_SELECTIVITY
            }
        };
        let out = staged * stats.conjunction(&rel.filters);
        t.rows.push(out);
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
                (xfer + hops, merge_cpu_seconds(partial_rows), bytes as u64)
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
                let merge = merge_cpu_seconds(partial_rows / n) + merge_cpu_seconds(n * *k as f64);
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
            scale: core.cfg().scale,
        };
        for id in QueryId::ALL {
            let est = model.estimate(&default_physical(id));
            assert!(est.total_seconds().is_finite() && est.total_seconds() > 0.0, "{id:?}");
            assert!(!est.shard_traces[0].rows.is_empty(), "{id:?} has an op trace");
        }
    }

    #[test]
    fn gather_and_shuffle_price_the_fabric_differently() {
        let (core, catalog) = model_fixture();
        let model = CostModel {
            catalog: &catalog,
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            scale: core.cfg().scale,
        };
        let shuffle = model.estimate(&default_physical(QueryId::Q10));
        let gather = model.estimate(&q10_gather_physical());
        // Same local plan, same partial estimate — only the merge differs.
        assert_eq!(shuffle.shard_traces, gather.shard_traces);
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
            scale: core.cfg().scale,
        };
        let xeon = xeon_model::Xeon::new();
        for id in QueryId::ALL {
            let plan = default_physical(id);
            let est = model.estimate(&plan);
            let (_, _, trace) = plan.local.execute_costed(core.full(), &xeon, core.cfg().scale);
            let labels = |t: &Trace<f64>| -> Vec<String> {
                plan.local.ops(t).iter().map(|(op, _)| op.to_string()).collect()
            };
            assert_eq!(labels(&est.shard_traces[0]), labels(&as_estimate(&trace)), "{id:?}");
        }
    }

    /// An executed trace as the estimate side of the walk sees it.
    fn as_estimate(t: &Trace<usize>) -> Trace<f64> {
        Trace {
            inputs: t.inputs.iter().map(|&(rows, bytes)| (rows as f64, bytes)).collect(),
            rows: t.rows.iter().map(|&r| r as f64).collect(),
        }
    }

    #[test]
    fn estimates_and_actuals_price_alike() {
        let (core, _) = model_fixture();
        let xeon = xeon_model::Xeon::new();
        let scale = core.cfg().scale;
        for id in QueryId::ALL {
            let plan = default_physical(id).local;
            let mut checked = 0;
            for db in &core.sharded().shards {
                let (_, cost, trace) = plan.execute_costed(db, &xeon, scale);
                // An estimate charges at least one row where an actual
                // zero charges none.
                if trace.rows.iter().chain(trace.inputs.iter().map(|(r, _)| r)).any(|&r| r == 0) {
                    continue;
                }
                assert_eq!(plan.cost(&as_estimate(&trace), &xeon, scale), cost, "{id:?}");
                checked += 1;
            }
            assert!(checked > 0, "{id:?}: every shard trace has a zero");
        }
    }
}
