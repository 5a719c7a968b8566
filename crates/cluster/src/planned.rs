//! Plan-driven distributed execution: the one path every distributed
//! query takes.
//!
//! A [`PhysicalPlan`] pairs a per-shard [`LogicalPlan`] with a
//! [`MergeStrategy`], and [`Cluster::run_planned`] executes it through
//! the coordinator's scheduling, failover, and fabric machinery — so
//! every plan inherits the coordinator's fault-tolerance properties and
//! its results stay bit-identical to the single-node engine under any
//! survivable fault pattern. [`default_physical`] is each query's
//! default plan ([`Cluster::try_run_at`] runs it); the planner weighs
//! alternatives such as [`q10_gather_physical`] against it.
//!
//! The merge strategies mirror the placement options the paper's rack
//! design exposes: gather-and-merge at one coordinator (cheap for small
//! partials), or an all-to-all hash shuffle to owner nodes (cheap when
//! partial groups are large and the group key is not the sharding key).
//! Q10 genuinely has both options; the planner costs them against the
//! fabric model and picks.

use dpu_pool::Pool;
use dpu_sim::Time;
use dpu_sql::logical::{Finish, LogicalOutput, LogicalPlan};
use dpu_sql::tpch::project_rows;
use dpu_sql::{top_k, Column, GroupBySpec, QueryCost, Table, Trace};

use crate::coordinator::{
    merge_cpu_seconds, Cluster, ClusterQueryCost, DistributedQuery, NodeCost, QueryError, QueryId,
    QueryOutput,
};
use crate::shard::{shard_table, ShardPolicy};
use crate::CLOCK;

/// How per-shard partials combine into the final answer.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeStrategy {
    /// Gather partial aggregates to a coordinator and re-aggregate
    /// (valid whenever the local plan ends in the same group-by).
    Reagg(GroupBySpec),
    /// Gather per-shard top-k candidate lists and merge them under the
    /// engine's total order (valid when the ranked entity lives on
    /// exactly one shard, i.e. its key is co-sharded).
    TopKMerge {
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Tie-break columns, ascending.
        ties: Vec<String>,
    },
    /// Sum per-shard scalar vectors elementwise (Q6's single revenue,
    /// Q14's promo/total pair). `names` label the shipped partials.
    SumScalars {
        /// Column names of the shipped one-row partial tables.
        names: Vec<String>,
    },
    /// Gather *partial groups* to one coordinator, re-aggregate there,
    /// then take the top-k centrally. Correct for re-keyed aggregations
    /// at any key; cheap only while the partials stay small, since every
    /// byte lands on one RX port.
    GatherTopK {
        /// The grouping the partials carry.
        spec: GroupBySpec,
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Tie-break columns, ascending.
        ties: Vec<String>,
    },
    /// All-to-all hash shuffle of partial groups to owner nodes, owner
    /// re-aggregation + local top-k, then a candidate gather — Q10's
    /// default placement.
    ShuffleTopK {
        /// The column partials are hashed on (the re-keyed group key).
        key: String,
        /// The grouping the partials carry.
        spec: GroupBySpec,
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Tie-break columns, ascending.
        ties: Vec<String>,
    },
}

impl MergeStrategy {
    /// Stable display name for EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            MergeStrategy::Reagg(_) => "reagg",
            MergeStrategy::TopKMerge { .. } => "topk-merge",
            MergeStrategy::SumScalars { .. } => "sum-scalars",
            MergeStrategy::GatherTopK { .. } => "gather-topk",
            MergeStrategy::ShuffleTopK { .. } => "shuffle-topk",
        }
    }
}

/// A fully decided distributed plan: what each shard runs locally and
/// how the partials combine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Which query this plan answers (keys the single-node reference).
    pub id: QueryId,
    /// The per-shard local phase.
    pub local: LogicalPlan,
    /// The merge.
    pub merge: MergeStrategy,
}

/// The result of a planned run, with the per-shard operator traces the
/// adaptive planner feeds back into its cost model.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// The distributed result + cost.
    pub query: DistributedQuery,
    /// Per-shard per-operator actual row counts, in shard order.
    pub shard_traces: Vec<Trace<usize>>,
    /// Per-shard local-phase costs, in shard order.
    pub local_costs: Vec<QueryCost>,
}

impl Cluster {
    /// Executes `plan` at absolute time `start_seconds` with failover-aware
    /// scheduling: every shard runs `plan.local`, the partials combine
    /// under `plan.merge`, and the result carries the single-node
    /// reference for `plan.id`.
    ///
    /// # Errors
    ///
    /// Shard loss and coordinator loss surface as
    /// [`QueryError::ShardUnavailable`] / [`QueryError::NoLiveNodes`],
    /// never as wrong results; a local phase whose output shape its
    /// merge cannot combine (e.g. scalar sums under a table merge) is
    /// [`QueryError::PlanMismatch`].
    pub fn run_planned(
        &mut self,
        plan: &PhysicalPlan,
        start_seconds: f64,
    ) -> Result<PlannedRun, QueryError> {
        let start = Time::from_secs(start_seconds, CLOCK);
        let core = self.core().clone();
        let (single_output, single_cost) = core.single_ref(plan.id);
        let scale = core.cfg().scale;
        let locals: Vec<(LogicalOutput, QueryCost, Trace<usize>)> = Pool::global()
            .par_map(core.sharded().shards.iter().collect(), |db| {
                plan.local.execute_costed(db, core.xeon(), scale)
            });
        let mut outputs = Vec::with_capacity(locals.len());
        let mut local_costs = Vec::with_capacity(locals.len());
        let mut shard_traces = Vec::with_capacity(locals.len());
        for (o, c, t) in locals {
            outputs.push(o);
            local_costs.push(c);
            shard_traces.push(t);
        }
        let per_shard: Vec<NodeCost> =
            local_costs.iter().map(|c: &QueryCost| NodeCost::from_dpu(&c.dpu)).collect();

        let merge = &plan.merge;
        let (output, cost) = match merge {
            MergeStrategy::Reagg(spec) => {
                let partials = tables(outputs, merge)?;
                let merged = spec.merge_partials(&partials);
                let cost = self.scatter_gather_cost(per_shard, &partials, start)?;
                (QueryOutput::Table(merged), cost)
            }
            MergeStrategy::TopKMerge { value, k, ties } => {
                let partials = tables(outputs, merge)?;
                let merged = merge_topk(&partials, value, *k, ties);
                let cost = self.scatter_gather_cost(per_shard, &partials, start)?;
                (QueryOutput::Table(merged), cost)
            }
            MergeStrategy::SumScalars { names } => {
                let shards = outputs
                    .into_iter()
                    .map(|o| match o {
                        LogicalOutput::Scalars(v) if v.len() == names.len() => Ok(v),
                        other => Err(mismatch(merge, &other)),
                    })
                    .collect::<Result<Vec<Vec<i64>>, _>>()?;
                let totals: Vec<i64> =
                    (0..names.len()).map(|i| shards.iter().map(|v| v[i]).sum()).collect();
                let out = QueryOutput::from_scalars(&totals)
                    .ok_or_else(|| mismatch(merge, &LogicalOutput::Scalars(totals)))?;
                let partials: Vec<Table> = shards
                    .iter()
                    .map(|vals| {
                        Table::new(
                            names.iter().zip(vals).map(|(n, &v)| Column::i64(n, vec![v])).collect(),
                        )
                    })
                    .collect();
                let cost = self.scatter_gather_cost(per_shard, &partials, start)?;
                (out, cost)
            }
            MergeStrategy::GatherTopK { spec, value, k, .. } => {
                // The central top_k already imposes the engine's total
                // order, so the tie columns are not needed here.
                let partials = tables(outputs, merge)?;
                let complete = spec.merge_partials(&partials);
                let top = top_k(&complete, value, (*k).min(complete.rows().max(1)), 1);
                let merged = project_rows(&complete, &top);
                let cost = self.scatter_gather_cost(per_shard, &partials, start)?;
                (QueryOutput::Table(merged), cost)
            }
            MergeStrategy::ShuffleTopK { key, spec, value, k, ties } => {
                let partials = tables(outputs, merge)?;
                let (merged, cost) =
                    self.shuffle_topk(&partials, &per_shard, key, spec, value, *k, ties, start)?;
                (QueryOutput::Table(merged), cost)
            }
        };
        Ok(PlannedRun {
            query: DistributedQuery { id: plan.id, output, single_output, cost, single_cost },
            shard_traces,
            local_costs,
        })
    }

    /// The two-phase re-keyed aggregation: phase 1 schedules the
    /// per-shard partial group-bys (failover-routed like every local
    /// phase); phase 2 reshuffles partials all-to-all by `key` hash to
    /// owner nodes chosen among the nodes live when the shuffle begins;
    /// phase 3 re-aggregates at owners (an owner that dies mid-merge
    /// fails over to the next live node, with dead senders' chunks
    /// re-derived from shard replicas) and picks local top-`k`
    /// candidates; phase 4 gathers candidates to the coordinator for the
    /// final top-`k`.
    #[allow(clippy::too_many_arguments)]
    fn shuffle_topk(
        &mut self,
        partials: &[Table],
        per_shard: &[NodeCost],
        key: &str,
        spec: &GroupBySpec,
        value: &str,
        k: usize,
        ties: &[String],
        start: Time,
    ) -> Result<(Table, ClusterQueryCost), QueryError> {
        let n = self.core().sharded().n_nodes();
        let timeout = self.fabric.failover_timeout();
        // An owner's merge on the timeline at `node`'s speed at `t`.
        let merge_span = |c: &Cluster, rows: usize, node: usize, t: Time| {
            let slow = c.faults().compute_factor(node, t);
            Time::from_secs(merge_cpu_seconds(rows as f64) / slow, CLOCK)
        };

        // Phase 1: schedule the already-computed local phases.
        self.fabric.reset();
        let (runs, per_node, mut failovers, speculations) =
            self.schedule_local(per_shard, start)?;
        let local_end = runs.iter().map(|r| r.done).fold(start, Time::max);

        // Phase 2: all-to-all reshuffle to owners live at shuffle time.
        let live = self.faults().live_nodes(n, local_end);
        if live.is_empty() {
            return Err(QueryError::NoLiveNodes);
        }
        let owner_policy = ShardPolicy::hash(live.len());
        let chunks: Vec<Vec<Table>> = Pool::global()
            .par_map(partials.iter().collect(), |p| shard_table(p, key, &owner_policy));
        let mut matrix = vec![vec![0u64; n]; n];
        let mut ready = vec![local_end; n];
        for run in &runs {
            ready[run.node] = run.done;
        }
        for (s, row) in chunks.iter().enumerate() {
            for (j, chunk) in row.iter().enumerate() {
                matrix[runs[s].node][live[j]] += chunk.bytes();
            }
        }
        let shuffled = self.fabric.all_to_all(&ready, &matrix);

        // Phase 3: owners re-aggregate their complete groups and pick
        // local top-k candidates, failing over ring-wise on crashes. The
        // per-owner merges are independent of the fabric clock, so they
        // fan out on the host pool; the failover walk stays sequential
        // because it threads fabric state owner by owner.
        let owner_cands: Vec<(usize, Table)> =
            Pool::global().par_map((0..live.len()).collect(), |j| {
                let received: Vec<Table> = chunks.iter().map(|row| row[j].clone()).collect();
                let rows_in: usize = received.iter().map(Table::rows).sum();
                let complete = spec.merge_partials(&received);
                let top = top_k(&complete, value, k.min(complete.rows().max(1)), 1);
                (rows_in, project_rows(&complete, &top))
            });
        let mut candidates = Vec::with_capacity(live.len());
        let mut cand_parts = Vec::with_capacity(live.len());
        for ((j, &owner), (rows_in, cand)) in live.iter().enumerate().zip(owner_cands) {
            let mut host = owner;
            let mut done = shuffled[owner] + merge_span(self, rows_in, owner, local_end);
            for _ in 0..=n {
                match self.faults().crash_time(host) {
                    Some(tc) if tc < done => {
                        failovers += 1;
                        let t_retry = tc + timeout;
                        let Some(next) = (0..n)
                            .map(|d| (host + 1 + d) % n)
                            .find(|&v| !self.faults().is_down(v, t_retry))
                        else {
                            return Err(QueryError::NoLiveNodes);
                        };
                        let mut landed = t_retry;
                        for (s, row) in chunks.iter().enumerate() {
                            if row[j].bytes() == 0 {
                                continue;
                            }
                            let (src, src_ready) =
                                self.partial_source(s, t_retry, &runs, per_shard, next)?;
                            landed = landed.max(self.fabric.transfer(
                                src_ready,
                                src,
                                next,
                                row[j].bytes(),
                            ));
                        }
                        host = next;
                        done = landed + merge_span(self, rows_in, next, t_retry);
                    }
                    _ => break,
                }
            }
            cand_parts.push((host, done, cand.bytes()));
            candidates.push(cand);
        }

        // Phase 4: gather candidates; final merge at the coordinator
        // (the live node with the cheapest hop-weighted inbound — the
        // lowest live id with one rack).
        let cand_sources: Vec<(usize, u64)> =
            cand_parts.iter().map(|&(host, _, b)| (host, b)).collect();
        let Some(dst) = self.gather_destination(&cand_sources, local_end) else {
            return Err(QueryError::NoLiveNodes);
        };
        let done = self.fabric.gather(&cand_parts, dst);
        let merged = merge_topk(&candidates, value, k, ties);
        let cand_rows: usize = candidates.iter().map(Table::rows).sum();
        let cost = ClusterQueryCost {
            per_node,
            local_seconds: (local_end - start).as_secs(CLOCK),
            fabric_seconds: (done.max(local_end) - local_end).as_secs(CLOCK),
            merge_seconds: merge_cpu_seconds(cand_rows as f64),
            fabric_bytes: self.fabric.payload_bytes(),
            failovers,
            speculations,
        };
        Ok((merged, cost))
    }
}

/// The error for a local-phase output `merge` cannot combine.
fn mismatch(merge: &MergeStrategy, output: &LogicalOutput) -> QueryError {
    let output = match output {
        LogicalOutput::Table(_) => "a table".to_string(),
        LogicalOutput::Scalars(v) if v.len() == 1 => "1 scalar sum".to_string(),
        LogicalOutput::Scalars(v) => format!("{} scalar sums", v.len()),
    };
    QueryError::PlanMismatch { merge: merge.name(), output }
}

/// The per-shard tables, for the table-valued merges.
fn tables(outputs: Vec<LogicalOutput>, merge: &MergeStrategy) -> Result<Vec<Table>, QueryError> {
    outputs
        .into_iter()
        .map(|o| match o {
            LogicalOutput::Table(t) => Ok(t),
            other => Err(mismatch(merge, &other)),
        })
        .collect()
}

/// Merges per-shard top-k candidate tables: sort by value descending,
/// break ties by `tie_cols` ascending (the single-node engine's order),
/// keep `k`.
fn merge_topk(partials: &[Table], value_col: &str, k: usize, tie_cols: &[String]) -> Table {
    let all = Table::concat(partials);
    let v = all.col_index(value_col);
    let ties: Vec<usize> = tie_cols.iter().map(|c| all.col_index(c)).collect();
    let mut idx: Vec<usize> = (0..all.rows()).collect();
    idx.sort_by(|&a, &b| {
        all.columns[v].data[b].cmp(&all.columns[v].data[a]).then_with(|| {
            ties.iter()
                .map(|&t| all.columns[t].data[a].cmp(&all.columns[t].data[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    idx.truncate(k);
    project_rows(&all, &idx)
}

/// Each query's complete single-node plan — the reference every
/// distributed result is checked against.
pub(crate) fn single_plan(id: QueryId) -> LogicalPlan {
    use dpu_sql::logical::{
        q10_plan, q12_plan, q14_plan, q18_plan, q1_plan, q3_plan, q5_plan, q6_plan,
    };
    match id {
        QueryId::Q1 => q1_plan(),
        QueryId::Q3 => q3_plan(),
        QueryId::Q5 => q5_plan(),
        QueryId::Q6 => q6_plan(),
        QueryId::Q10 => q10_plan(),
        QueryId::Q12 => q12_plan(),
        QueryId::Q14 => q14_plan(),
        QueryId::Q18 => q18_plan(),
    }
}

/// Each query's default distributed plan: the local phase is the
/// query's complete logical plan (Q10's stops at the partial group-by,
/// since its group key is not the sharding key), merged by
/// re-aggregation, top-k candidate merge, scalar sums, or — for Q10 — a
/// shuffle.
pub fn default_physical(id: QueryId) -> PhysicalPlan {
    let local = match id {
        QueryId::Q10 => dpu_sql::logical::q10_partial_plan(),
        _ => single_plan(id),
    };
    let merge = match id {
        QueryId::Q1 | QueryId::Q5 | QueryId::Q12 => {
            let Finish::Agg(spec) = local.finish.clone() else { unreachable!() };
            MergeStrategy::Reagg(spec)
        }
        QueryId::Q3 => MergeStrategy::TopKMerge {
            value: "revenue".into(),
            k: 10,
            ties: vec!["l_orderkey".into(), "o_orderdate".into()],
        },
        QueryId::Q6 => MergeStrategy::SumScalars { names: vec!["revenue".into()] },
        QueryId::Q10 => {
            let Finish::Agg(spec) = local.finish.clone() else { unreachable!() };
            MergeStrategy::ShuffleTopK {
                key: "o_custkey".into(),
                spec,
                value: "revenue".into(),
                k: 20,
                ties: vec!["o_custkey".into()],
            }
        }
        QueryId::Q14 => MergeStrategy::SumScalars { names: vec!["promo".into(), "total".into()] },
        QueryId::Q18 => MergeStrategy::TopKMerge {
            value: "o_totalprice".into(),
            k: 100,
            ties: vec!["o_orderkey".into()],
        },
    };
    PhysicalPlan { id, local, merge }
}

/// Q10 with the gather-everything placement — the alternative the
/// planner weighs against [`default_physical`]'s shuffle.
pub fn q10_gather_physical() -> PhysicalPlan {
    let p = dpu_sql::logical::q10_partial_plan();
    let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
    PhysicalPlan {
        id: QueryId::Q10,
        local: p,
        merge: MergeStrategy::GatherTopK {
            spec,
            value: "revenue".into(),
            k: 20,
            ties: vec!["o_custkey".into()],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ClusterConfig;
    use crate::fault::FaultPlan;
    use dpu_sql::tpch::generate;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            generate(1200, 42),
            &ShardPolicy::hash(n),
            ClusterConfig::prototype_slice(n, 10_000),
        )
    }

    #[test]
    fn default_plans_match_single_node_and_back_try_run_at() {
        let mut c = cluster(8);
        for id in QueryId::ALL {
            let planned = c.run_planned(&default_physical(id), 0.0).unwrap();
            assert!(planned.query.matches_single(), "{id:?} planned ≠ single-node");
            assert!(!planned.shard_traces.is_empty());
            assert_eq!(planned.local_costs.len(), 8);
            let run = c.run(id);
            assert_eq!(run.output, planned.query.output, "{id:?} run ≠ default plan");
            assert_eq!(run.cost, planned.query.cost, "{id:?} run cost ≠ default plan");
        }
    }

    #[test]
    fn mismatched_plans_are_typed_errors() {
        let mut c = cluster(4);
        let with = |id, local: LogicalPlan, merge| PhysicalPlan { id, local, merge };
        let err = |c: &mut Cluster, plan: &PhysicalPlan| match c.run_planned(plan, 0.0) {
            Err(QueryError::PlanMismatch { merge, output }) => (merge, output),
            other => panic!("expected PlanMismatch, got {:?}", other.map(|r| r.query.output)),
        };
        // Scalar sums under a table merge.
        let q1_merge = default_physical(QueryId::Q1).merge;
        let plan = with(QueryId::Q6, single_plan(QueryId::Q6), q1_merge);
        assert_eq!(err(&mut c, &plan), ("reagg", "1 scalar sum".to_string()));
        // A table under the scalar merge.
        let q6_merge = default_physical(QueryId::Q6).merge;
        let plan = with(QueryId::Q1, single_plan(QueryId::Q1), q6_merge.clone());
        assert_eq!(err(&mut c, &plan), ("sum-scalars", "a table".to_string()));
        // More sums than the merge names.
        let plan = with(QueryId::Q14, single_plan(QueryId::Q14), q6_merge);
        assert_eq!(err(&mut c, &plan), ("sum-scalars", "2 scalar sums".to_string()));
        // Three sums: no output shape holds them.
        let mut three = single_plan(QueryId::Q14);
        let Finish::ScalarSums(sums) = &mut three.finish else { unreachable!() };
        sums.push(sums[1].clone());
        let names = vec!["promo".into(), "total".into(), "again".into()];
        let plan = with(QueryId::Q14, three, MergeStrategy::SumScalars { names });
        assert_eq!(err(&mut c, &plan), ("sum-scalars", "3 scalar sums".to_string()));
        // Every table-valued merge rejects scalars the same way.
        let q10_merge = default_physical(QueryId::Q10).merge;
        let plan = with(QueryId::Q10, single_plan(QueryId::Q6), q10_merge);
        assert_eq!(err(&mut c, &plan), ("shuffle-topk", "1 scalar sum".to_string()));
        // The error names the mismatch.
        let e = QueryError::PlanMismatch { merge: "reagg", output: "1 scalar sum".into() };
        assert_eq!(e.to_string(), "plan mismatch: the reagg merge cannot combine 1 scalar sum");
    }

    #[test]
    fn merge_topk_breaks_value_ties_by_tie_columns() {
        let part = |v: Vec<i64>, a: Vec<i64>, b: Vec<i64>| {
            Table::new(vec![Column::i64("v", v), Column::i64("a", a), Column::i64("b", b)])
        };
        // Five rows tie on v = 10 across the k = 3 boundary; concatenated
        // order would keep (10,4,0) and (10,2,7). Only the tie columns pick
        // (10,1,9) then (10,2,3): `a` ascending, then `b` for the equal `a`.
        let partials = [
            part(vec![10, 10, 30], vec![4, 2, 8], vec![0, 7, 5]),
            part(vec![10, 10, 10], vec![2, 1, 6], vec![3, 9, 1]),
        ];
        let ties = ["a".to_string(), "b".to_string()];
        let got = merge_topk(&partials, "v", 3, &ties);
        assert_eq!(got, part(vec![30, 10, 10], vec![8, 1, 2], vec![5, 9, 3]));
        // One tie column leaves (2,7) and (2,3) tied: the stable sort keeps
        // their concatenated order.
        let got = merge_topk(&partials, "v", 4, &ties[..1]);
        assert_eq!(got, part(vec![30, 10, 10, 10], vec![8, 1, 2, 2], vec![5, 9, 7, 3]));
    }

    #[test]
    fn q10_gather_placement_is_bit_identical_to_shuffle() {
        let mut c = cluster(8);
        let shuffle = c.run_planned(&default_physical(QueryId::Q10), 0.0).unwrap();
        let gather = c.run_planned(&q10_gather_physical(), 0.0).unwrap();
        assert_eq!(shuffle.query.output, gather.query.output);
        assert!(gather.query.matches_single());
        // The placements cost differently — that is the planner's choice.
        assert_ne!(
            shuffle.query.cost.fabric_bytes, gather.query.cost.fabric_bytes,
            "shuffle and gather should move different byte volumes"
        );
    }

    #[test]
    fn planned_runs_survive_faults_bit_identically() {
        let mut healthy = cluster(8);
        let mut faulty = Cluster::new(
            generate(1200, 42),
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000).with_replicas(2),
        );
        faulty.set_faults(FaultPlan::none().crash(3, 1e-7).straggle(5, 0.0, 1e9, 0.5));
        for id in QueryId::ALL {
            for plan in [default_physical(id)]
                .into_iter()
                .chain((id == QueryId::Q10).then(q10_gather_physical))
            {
                let h = healthy.run_planned(&plan, 0.0).unwrap();
                let f = faulty.run_planned(&plan, 0.0).unwrap();
                assert_eq!(h.query.output, f.query.output, "{id:?} diverged under faults");
                assert!(f.query.matches_single());
            }
        }
    }
}
