//! The optimizer: predicate pushdown, dynamic-programming join-order
//! search over a [`JoinGraph`], and merge-strategy placement costed
//! against the fabric model.
//!
//! Search space: left-deep linearizations (what the executor runs) of
//! the query's join graph, enumerated by the classic DP-over-subsets
//! with the C_out objective (sum of intermediate cardinalities), ×
//! candidate merge strategies where the query has a genuine placement
//! choice (Q10: shuffle-by-group-key vs gather-at-coordinator). Any
//! candidate is safe to pick: every finishing operator canonicalizes
//! its output, so plan choice can never change a result, only its cost
//! (property-tested in `tests/planner_properties.rs`).

use dpu_cluster::{
    default_physical, q10_gather_physical, ClusterCore, FabricConfig, PhysicalPlan, QueryId,
    Topology,
};
use dpu_sql::logical::{q10_graph, q3_graph, q5_graph, Finish, JoinGraph, LogicalPlan, Source};

use crate::cost::{CostModel, PlanEstimate, HAVING_SELECTIVITY};
use crate::stats::Catalog;

/// The planner: statistics + fabric shape, with plan search on top.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Merged per-shard statistics.
    pub catalog: Catalog,
    /// Fabric the merge phase is priced against.
    pub fabric: FabricConfig,
    /// Spine/leaf geometry the merge phase is priced over (single-rack
    /// reproduces the flat pricing exactly).
    pub topo: Topology,
    /// Full-scale multiplier.
    pub scale: u64,
}

/// The chosen plan plus the alternatives the search rejected (kept for
/// EXPLAIN and for the adaptive layer to fall back on).
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The cheapest plan by estimate.
    pub plan: PhysicalPlan,
    /// Its estimate.
    pub estimate: PlanEstimate,
    /// Rejected candidates, cheapest first.
    pub alternatives: Vec<(PhysicalPlan, PlanEstimate)>,
}

impl Planner {
    /// Builds a planner from a cluster core: collects the catalog and
    /// copies the fabric shape.
    pub fn new(core: &ClusterCore) -> Planner {
        Planner {
            catalog: Catalog::from_core(core),
            fabric: core.cfg().fabric.clone(),
            topo: core.cfg().topology(),
            scale: core.cfg().scale,
        }
    }

    /// The cost model over this planner's statistics.
    pub fn model(&self) -> CostModel<'_> {
        CostModel {
            catalog: &self.catalog,
            fabric: self.fabric.clone(),
            topo: self.topo.clone(),
            scale: self.scale,
        }
    }

    /// Chooses the cheapest candidate for a query by estimated cost.
    pub fn plan(&self, id: QueryId) -> PlanChoice {
        let mut cands = self.candidates(id);
        cands.sort_by(|a, b| a.1.total_seconds().total_cmp(&b.1.total_seconds()));
        let (plan, estimate) = cands.remove(0);
        PlanChoice { plan, estimate, alternatives: cands }
    }

    /// All costed candidates for a query. Queries with a join graph get
    /// a DP-ordered local plan; Q10 additionally gets both merge
    /// placements.
    pub fn candidates(&self, id: QueryId) -> Vec<(PhysicalPlan, PlanEstimate)> {
        let default = default_physical(id);
        let plans: Vec<PhysicalPlan> = match id {
            QueryId::Q3 => {
                vec![PhysicalPlan { id, local: self.linearized(&q3_graph()), merge: default.merge }]
            }
            QueryId::Q5 => {
                vec![PhysicalPlan { id, local: self.linearized(&q5_graph()), merge: default.merge }]
            }
            QueryId::Q10 => {
                let mut local = self.linearized(&q10_graph());
                let Finish::AggTopK { spec, .. } = local.finish.clone() else {
                    unreachable!("q10 finishes with AggTopK")
                };
                local.finish = Finish::Agg(spec);
                vec![
                    PhysicalPlan { id, local: local.clone(), merge: q10_gather_physical().merge },
                    PhysicalPlan { id, local, merge: default.merge },
                ]
            }
            _ => vec![default],
        };
        let model = self.model();
        plans
            .into_iter()
            .map(|p| {
                let e = model.estimate(&p);
                (p, e)
            })
            .collect()
    }

    /// Linearizes a join graph along the DP-chosen order.
    pub fn linearized(&self, g: &JoinGraph) -> LogicalPlan {
        let (order, est) = self.join_order(g);
        g.linearize(&order, &est)
    }

    /// Left-deep DP join-order search (C_out objective): `dp[S]` is the
    /// cheapest left-deep order covering relation subset `S`, extended
    /// only along join edges (no cross products). Returns the best
    /// order and the per-relation filtered-cardinality estimates fed to
    /// `linearize` for build-side selection.
    pub fn join_order(&self, g: &JoinGraph) -> (Vec<usize>, Vec<f64>) {
        let n = g.relations.len();
        assert!((1..=16).contains(&n), "join graph size");
        let base: Vec<f64> = (0..n).map(|r| self.relation_estimate(g, r)).collect();
        if n == 1 {
            return (vec![0], base);
        }
        let sel: Vec<f64> = g
            .edges
            .iter()
            .map(|e| {
                1.0 / self
                    .catalog
                    .shard_ndv(&e.a_col)
                    .max(self.catalog.shard_ndv(&e.b_col))
                    .max(1.0)
            })
            .collect();
        let full = (1usize << n) - 1;
        // Estimated cardinality of the joined subset: product of bases ×
        // product of internal edge selectivities.
        let card = |s: usize| -> f64 {
            let mut c: f64 = (0..n).filter(|r| s & (1 << r) != 0).map(|r| base[r]).product();
            for (e, &es) in g.edges.iter().zip(&sel) {
                if s & (1 << e.a) != 0 && s & (1 << e.b) != 0 {
                    c *= es;
                }
            }
            c.max(1.0)
        };
        let connected = |r: usize, s: usize| {
            g.edges
                .iter()
                .any(|e| (e.a == r && s & (1 << e.b) != 0) || (e.b == r && s & (1 << e.a) != 0))
        };
        let mut cost = vec![f64::INFINITY; full + 1];
        let mut last = vec![usize::MAX; full + 1];
        for r in 0..n {
            cost[1 << r] = 0.0;
        }
        for s in 1..=full {
            if cost[s].is_finite() || s.count_ones() < 2 {
                continue;
            }
            for r in 0..n {
                if s & (1 << r) == 0 {
                    continue;
                }
                let t = s & !(1 << r);
                if !cost[t].is_finite() || !connected(r, t) {
                    continue;
                }
                let c = cost[t] + card(s);
                if c < cost[s] {
                    cost[s] = c;
                    last[s] = r;
                }
            }
        }
        assert!(cost[full].is_finite(), "join graph is connected");
        let mut order = Vec::with_capacity(n);
        let mut s = full;
        while s.count_ones() > 1 {
            let r = last[s];
            order.push(r);
            s &= !(1 << r);
        }
        order.push(s.trailing_zeros() as usize);
        order.reverse();
        (order, base)
    }

    /// Estimated per-shard rows a relation contributes after its
    /// filters (mean over shards; replicated tables see all rows).
    fn relation_estimate(&self, g: &JoinGraph, r: usize) -> f64 {
        let rel = &g.relations[r];
        let stats = self.catalog.table(rel.source.table());
        let mean = stats.per_shard_rows.iter().sum::<usize>() as f64
            / stats.per_shard_rows.len().max(1) as f64;
        let staged = match &rel.source {
            Source::Base(_) => mean,
            Source::GroupHaving { spec, .. } => {
                let ndv: f64 = spec.group_cols.iter().map(|c| self.catalog.shard_ndv(c)).product();
                ndv.min(mean).max(1.0) * HAVING_SELECTIVITY
            }
        };
        (staged * stats.conjunction(&rel.filters)).max(1.0)
    }
}

/// Predicate pushdown: moves every residual post-join filter whose
/// column a leaf relation provides down into that relation's scan.
/// Bit-identical to the unpushed plan — an inner equi-join commutes
/// with a one-sided filter, and the hash join preserves the relative
/// order of surviving rows.
pub fn pushdown(plan: &LogicalPlan) -> LogicalPlan {
    let mut p = plan.clone();
    let residual: Vec<_> = std::mem::take(&mut p.post_filters);
    for f in residual {
        match provider(&p, &f.col) {
            Some(r) => p.scans[r].filters.push(f),
            None => p.post_filters.push(f),
        }
    }
    p
}

/// The inverse rewrite, used to *construct* unpushed plans for the
/// pushdown-invariance property test: hoists every scan filter up to a
/// residual post-join filter, extending the join nodes' carried-column
/// lists so the filter columns survive to the joined intermediate.
/// Only meaningful for plans whose finish projects explicitly (group-by
/// or scalar sums); a bare `TopK` finish would leak the extra carried
/// columns into the output.
pub fn hoist_filters(plan: &LogicalPlan) -> LogicalPlan {
    let mut p = plan.clone();
    let mut hoisted = Vec::new();
    for r in 0..p.scans.len() {
        let filters = std::mem::take(&mut p.scans[r].filters);
        for f in filters {
            carry_through(&mut p, r, &f.col);
            hoisted.push(f);
        }
    }
    p.post_filters.extend(hoisted);
    p
}

/// Ensures `col`, provided by relation `r`, is carried from its entry
/// point through every later join.
fn carry_through(p: &mut LogicalPlan, r: usize, col: &str) {
    let entry = if r == p.first {
        0
    } else {
        let i = p.joins.iter().position(|j| j.scan == r).expect("relation joined somewhere");
        // The incoming scan side of its own join step.
        let j = &mut p.joins[i];
        let list = if j.build_acc { &mut j.probe_cols } else { &mut j.build_cols };
        if !list.iter().any(|c| c == col) {
            list.push(col.to_string());
        }
        i + 1
    };
    for j in &mut p.joins[entry..] {
        let list = if j.build_acc { &mut j.build_cols } else { &mut j.probe_cols };
        if !list.iter().any(|c| c == col) {
            list.push(col.to_string());
        }
    }
}

/// The leaf relation providing a column, if any.
fn provider(p: &LogicalPlan, col: &str) -> Option<usize> {
    p.scans.iter().position(|rel| match &rel.source {
        Source::Base(_) => rel.touched.iter().any(|c| c == col),
        Source::GroupHaving { spec, .. } => {
            spec.group_cols.iter().any(|c| c == col) || spec.aggs.iter().any(|(n, _)| n == col)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_cluster::{ClusterConfig, ShardPolicy};
    use dpu_sql::logical::{q12_plan, q14_plan, q1_plan, q3_plan, q5_plan, q6_plan};
    use dpu_sql::tpch::generate;

    fn planner() -> (Planner, dpu_sql::tpch::TpchDb) {
        let db = generate(1000, 13);
        let core = ClusterCore::new(
            db.clone(),
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000),
        );
        (Planner::new(&core), db)
    }

    #[test]
    fn dp_orders_execute_bit_identically_to_default_plans() {
        let (planner, db) = planner();
        for (g, default) in [(q3_graph(), q3_plan()), (q5_graph(), q5_plan())] {
            let (order, _) = planner.join_order(&g);
            assert_eq!(order.len(), g.relations.len());
            let chosen = planner.linearized(&g);
            assert_eq!(chosen.execute(&db), default.execute(&db), "{}", g.name);
        }
    }

    #[test]
    fn every_query_gets_a_costed_choice_with_q10_offering_both_placements() {
        let (planner, _) = planner();
        for id in dpu_cluster::QueryId::ALL {
            let choice = planner.plan(id);
            assert!(choice.estimate.total_seconds() > 0.0);
            if id == dpu_cluster::QueryId::Q10 {
                assert_eq!(choice.alternatives.len(), 1);
                let names = [choice.plan.merge.name(), choice.alternatives[0].0.merge.name()];
                assert!(names.contains(&"gather-topk") && names.contains(&"shuffle-topk"));
            }
        }
    }

    #[test]
    fn hoisted_filters_then_pushdown_change_nothing() {
        let (_, db) = planner();
        for plan in [q1_plan(), q3_plan(), q5_plan(), q6_plan(), q12_plan(), q14_plan()] {
            let total_filters: usize = plan.scans.iter().map(|s| s.filters.len()).sum();
            let hoisted = hoist_filters(&plan);
            assert_eq!(hoisted.post_filters.len(), total_filters, "{}", plan.name);
            let pushed = pushdown(&hoisted);
            assert!(pushed.post_filters.is_empty(), "{}", plan.name);
            let reference = plan.execute(&db);
            assert_eq!(hoisted.execute(&db), reference, "{} hoisted", plan.name);
            assert_eq!(pushed.execute(&db), reference, "{} pushed back", plan.name);
        }
    }
}
