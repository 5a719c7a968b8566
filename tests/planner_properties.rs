//! Property tests for the cost-based planner (`dpu-planner`): whatever
//! plan the optimizer picks — any join order, any merge placement, any
//! pushdown state — must execute bit-identically to the default plan
//! `try_run_at` runs and to single-node execution, on random databases, under
//! random sharding policies and replication factors, and under node
//! faults; and the statistics it plans from must stay inside their
//! sketches' error bounds.

use std::collections::HashSet;

use proptest::prelude::*;

use dpu_repro::cluster::{Cluster, ClusterConfig, ClusterCore, FaultPlan, QueryId, ShardPolicy};
use dpu_repro::planner::{hoist_filters, pushdown, Catalog, Planner};
use dpu_repro::sql::logical::{q12_plan, q14_plan, q1_plan, q3_plan, q5_plan, q6_plan};
use dpu_repro::sql::tpch;
use dpu_repro::sql::Table;

fn arb_policy(keys: &[i64], shards: usize, use_range: bool) -> ShardPolicy {
    if use_range {
        ShardPolicy::range_over(keys, shards)
    } else {
        ShardPolicy::hash(shards)
    }
}

fn distinct(table: &Table, col: &str) -> usize {
    table.columns[table.col_index(col)].data.iter().collect::<HashSet<_>>().len()
}

proptest! {
    /// The planner's correctness bar: on a random database, sharding
    /// policy, and replication factor, the chosen plan AND every
    /// rejected alternative are bit-identical to the default plan and
    /// to single-node execution. (One random query per
    /// case; the fixed fixture below covers all eight at once.)
    #[test]
    fn planner_plans_match_default_plan_on_random_clusters(
        orders_n in 40usize..160,
        seed in 0u64..32,
        shards in 2usize..7,
        use_range in any::<bool>(),
        replicas in 1usize..4,
        pick in 0usize..8,
    ) {
        let db = tpch::generate(orders_n, seed);
        let okeys = &db.orders.columns[db.orders.col_index("o_orderkey")].data;
        let policy = arb_policy(okeys, shards, use_range);
        let cfg = ClusterConfig::prototype_slice(policy.shards(), 10_000)
            .with_replicas(replicas.min(shards));
        let core = ClusterCore::new(db, &policy, cfg);
        let planner = Planner::new(&core);
        let mut cluster = Cluster::from_core(core);
        let id = QueryId::ALL[pick];
        let reference = cluster.try_run_at(id, 0.0).expect("healthy cluster");
        prop_assert!(reference.matches_single(), "{} default plan diverged", id.name());
        let choice = planner.plan(id);
        prop_assert!(choice.estimate.total_seconds() > 0.0);
        for plan in
            std::iter::once(&choice.plan).chain(choice.alternatives.iter().map(|(p, _)| p))
        {
            let run = cluster.run_planned(plan, 0.0).expect("healthy cluster");
            prop_assert!(
                run.query.matches_single(),
                "{} planner plan ({}) diverged from single-node", id.name(), plan.merge.name()
            );
            prop_assert_eq!(
                &run.query.output, &reference.output,
                "{} planner plan ({}) diverged from the default plan", id.name(), plan.merge.name()
            );
        }
    }

    /// Planner-chosen plans inherit the cluster's fault tolerance: with
    /// a live replica per shard, a node crash changes the cost but
    /// never the result.
    #[test]
    fn planner_plans_survive_crashes_bit_identically(
        orders_n in 40usize..120,
        seed in 0u64..16,
        victim in 0usize..4,
        at in 0.0f64..0.2,
        pick in 0usize..8,
    ) {
        let db = tpch::generate(orders_n, seed);
        let core = ClusterCore::new(
            db,
            &ShardPolicy::hash(4),
            ClusterConfig::prototype_slice(4, 10_000).with_replicas(2),
        );
        let planner = Planner::new(&core);
        let mut cluster = Cluster::from_core(core);
        let id = QueryId::ALL[pick];
        let choice = planner.plan(id);
        let clean = cluster.run_planned(&choice.plan, 0.0).expect("healthy cluster");
        cluster.set_faults(FaultPlan::none().crash(victim, at));
        let faulted = cluster.run_planned(&choice.plan, 0.0).expect("k=2 survives one crash");
        prop_assert!(faulted.query.matches_single(), "{} diverged under fault", id.name());
        prop_assert_eq!(&faulted.query.output, &clean.query.output);
    }

    /// The catalog's merged HyperLogLog NDV estimates stay inside the
    /// sketch's error bounds against true distinct counts (precision 12
    /// → ~1.6% standard error; 6.5% here is ≈4σ, plus slack for tiny
    /// columns).
    #[test]
    fn catalog_ndv_estimates_stay_within_hll_bounds(
        orders_n in 100usize..400,
        seed in 0u64..32,
        shards in 2usize..7,
    ) {
        let db = tpch::generate(orders_n, seed);
        let core = ClusterCore::new(
            db.clone(),
            &ShardPolicy::hash(shards),
            ClusterConfig::prototype_slice(shards, 10_000),
        );
        let catalog = Catalog::from_core(&core);
        for (table, col) in [
            (&db.orders, "o_orderkey"),
            (&db.orders, "o_custkey"),
            (&db.lineitem, "l_partkey"),
            (&db.customer, "c_custkey"),
        ] {
            let truth = distinct(table, col) as f64;
            let est = catalog.ndv(col);
            let tol = 0.065 * truth + 2.0;
            prop_assert!(
                (est - truth).abs() <= tol,
                "{}: estimated {est:.1} vs true {truth} (tolerance {tol:.1})", col
            );
        }
    }

    /// Predicate placement is invisible in results: hoisting every scan
    /// filter up to a residual post-join filter changes nothing, and
    /// pushing them all back down restores the original plan's behavior.
    #[test]
    fn pushdown_never_changes_results(
        orders_n in 40usize..200,
        seed in 0u64..64,
        pick in 0usize..6,
    ) {
        let db = tpch::generate(orders_n, seed);
        let mut plans = vec![q1_plan(), q3_plan(), q5_plan(), q6_plan(), q12_plan(), q14_plan()];
        let plan = plans.swap_remove(pick);
        let reference = plan.execute(&db);
        let hoisted = hoist_filters(&plan);
        let scans_left: usize = hoisted.scans.iter().map(|s| s.filters.len()).sum();
        prop_assert_eq!(scans_left, 0, "{} kept scan filters after hoisting", plan.name);
        prop_assert_eq!(&hoisted.execute(&db), &reference, "{} hoisted diverged", &plan.name);
        let pushed = pushdown(&hoisted);
        prop_assert!(pushed.post_filters.is_empty(), "{} kept residuals", plan.name);
        prop_assert_eq!(&pushed.execute(&db), &reference, "{} pushed diverged", &plan.name);
    }
}

/// The fixed-fixture exactness sweep: all eight queries, chosen plan
/// plus every rejected alternative, bit-identical to the default plan
/// and single-node. CI runs this (with the whole suite) at `DPU_THREADS`
/// 1 and 4 — the results must not depend on host parallelism.
#[test]
fn full_suite_planner_matches_default_plan_and_single_node() {
    let db = tpch::generate(600, 7);
    let core =
        ClusterCore::new(db, &ShardPolicy::hash(8), ClusterConfig::prototype_slice(8, 10_000));
    let planner = Planner::new(&core);
    let mut cluster = Cluster::from_core(core);
    for id in QueryId::ALL {
        let reference = cluster.try_run_at(id, 0.0).expect("healthy cluster");
        assert!(reference.matches_single(), "{} default plan diverged", id.name());
        let choice = planner.plan(id);
        for plan in std::iter::once(&choice.plan).chain(choice.alternatives.iter().map(|(p, _)| p))
        {
            let run = cluster.run_planned(plan, 0.0).expect("healthy cluster");
            assert!(run.query.matches_single(), "{} planner plan diverged", id.name());
            assert_eq!(run.query.output, reference.output, "{} vs default plan", id.name());
        }
    }
}
