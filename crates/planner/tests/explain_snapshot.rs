//! Snapshot tests for the EXPLAIN rendering: the planner-chosen plan of
//! every TPC-H query on a fixed 4-shard fixture, byte-compared against
//! the committed `tests/snapshots/explain.txt` (estimates only) and
//! `tests/snapshots/explain_actual.txt` (estimates against the actual
//! rows and cost of a `run_planned` execution).
//!
//! The fixture and every estimate and measurement in it are
//! deterministic (seeded generator, integer statistics, simulated
//! costs), so the snapshots are machine-independent. If an intentional
//! change to the planner or the rendering shifts the output, regenerate
//! with `UPDATE_SNAPSHOT=1 cargo test -p dpu-planner --test explain_snapshot`
//! and commit the diff.

use std::sync::Arc;

use dpu_cluster::{Cluster, ClusterConfig, ClusterCore, QueryId, ShardPolicy};
use dpu_planner::{explain, Planner};
use dpu_sql::tpch::generate;

fn fixture() -> Arc<ClusterCore> {
    ClusterCore::new(
        generate(1000, 5),
        &ShardPolicy::hash(4),
        ClusterConfig::prototype_slice(4, 10_000),
    )
}

fn assert_snapshot(name: &str, rendered: &str) {
    let path = format!("{}/tests/snapshots/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_SNAPSHOT").is_some() {
        std::fs::write(&path, rendered).expect("write snapshot");
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("committed {name} missing — regenerate with UPDATE_SNAPSHOT=1"));
    assert!(
        rendered == committed,
        "EXPLAIN output drifted from tests/snapshots/{name}; if the change is \
         intentional, regenerate with UPDATE_SNAPSHOT=1 and commit.\n--- got ---\n{rendered}"
    );
}

#[test]
fn explain_snapshot_covers_all_eight_queries() {
    let planner = Planner::new(&fixture());
    let mut rendered = String::new();
    for id in QueryId::ALL {
        let choice = planner.plan(id);
        rendered.push_str(&explain(&choice.plan, &choice.estimate, None));
        rendered.push('\n');
    }
    assert_snapshot("explain.txt", &rendered);
}

#[test]
fn explain_with_actuals_snapshot_covers_all_eight_queries() {
    let core = fixture();
    let planner = Planner::new(&core);
    let mut cluster = Cluster::from_core(core);
    let mut rendered = String::new();
    for id in QueryId::ALL {
        let choice = planner.plan(id);
        let run = cluster.run_planned(&choice.plan, 0.0).expect("fault-free run");
        rendered.push_str(&explain(&choice.plan, &choice.estimate, Some(&run)));
        rendered.push('\n');
    }
    assert_snapshot("explain_actual.txt", &rendered);
}
