//! EXPLAIN: a stable, machine-independent text rendering of a physical
//! plan with estimated rows, optionally lined up against actual rows
//! and measured cost from an instrumented run.
//!
//! The format is snapshot-tested (`tests/explain_snapshot.rs`), so keep
//! it boring: fixed indentation, lowercase labels from the plan's cost
//! walk (`dpu_sql::Op`), scientific notation with three significant
//! digits for seconds (simulated, hence deterministic).

use dpu_cluster::{MergeStrategy, PhysicalPlan, PlannedRun};

use crate::cost::PlanEstimate;

/// Renders a plan. Pass the `PlannedRun` of an instrumented execution
/// to add `actual=` columns; estimates alone render `est=` only.
pub fn explain(plan: &PhysicalPlan, est: &PlanEstimate, actual: Option<&PlannedRun>) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} plan (merge: {})\n", plan.id.name(), plan.merge.name()));
    out.push_str(&format!("  merge: {}\n", merge_detail(&plan.merge)));
    out.push_str(&format!(
        "  est:    local {} fabric {} merge {} bytes {}\n",
        secs(est.local_seconds),
        secs(est.fabric_seconds),
        secs(est.merge_seconds),
        est.fabric_bytes,
    ));
    if let Some(run) = actual {
        let c = &run.query.cost;
        out.push_str(&format!(
            "  actual: local {} fabric {} merge {} bytes {}\n",
            secs(c.local_seconds),
            secs(c.fabric_seconds),
            secs(c.merge_seconds),
            c.fabric_bytes,
        ));
    }
    out.push_str("  ops:\n");
    // Labels come from the plan's cost walk; rows sum across shards.
    for (i, (op, _)) in plan.local.ops(&est.shard_traces[0]).into_iter().enumerate() {
        let label = op.to_string();
        let est_rows: f64 = est.shard_traces.iter().map(|t| t.rows[i]).sum();
        out.push_str(&format!("    {label:<44} est={}", est_rows.round() as u64));
        if let Some(run) = actual {
            let a: usize = run.shard_traces.iter().map(|t| t.rows[i]).sum();
            out.push_str(&format!(" actual={a}"));
        }
        out.push('\n');
    }
    out
}

fn merge_detail(m: &MergeStrategy) -> String {
    match m {
        MergeStrategy::Reagg(spec) => {
            format!("re-aggregate by [{}] at coordinator", spec.group_cols.join(","))
        }
        MergeStrategy::TopKMerge { value, k, .. } => {
            format!("gather partial top-k, re-rank {value} k={k}")
        }
        MergeStrategy::SumScalars { names } => {
            format!("sum scalar partials [{}]", names.join(","))
        }
        MergeStrategy::GatherTopK { value, k, .. } => {
            format!("gather all partials at coordinator, re-group, top {value} k={k}")
        }
        MergeStrategy::ShuffleTopK { key, value, k, .. } => {
            format!("shuffle partials by {key}, owners reduce, top {value} k={k}")
        }
    }
}

fn secs(s: f64) -> String {
    format!("{s:.3e}s")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Planner;
    use dpu_cluster::{ClusterConfig, ClusterCore, QueryId, ShardPolicy};
    use dpu_sql::tpch::generate;

    #[test]
    fn explain_lines_up_estimates_with_trace_labels() {
        let core = ClusterCore::new(
            generate(1000, 5),
            &ShardPolicy::hash(4),
            ClusterConfig::prototype_slice(4, 10_000),
        );
        let planner = Planner::new(&core);
        let choice = planner.plan(QueryId::Q3);
        let text = explain(&choice.plan, &choice.estimate, None);
        assert!(text.starts_with("Q3 plan (merge: topk-merge)\n"), "{text}");
        assert!(text.contains("scan customer filtered"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(!text.contains("actual="), "{text}");
    }
}
