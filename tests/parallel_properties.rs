//! Property tests for the work-stealing host pool and every parallel
//! code path built on it: the shard, query and sweep-cell fan-out of
//! the cluster, and the pool's own ordering and exactly-once
//! guarantees. The pool is the host's only level of parallelism; every
//! SQL operator below it, and the TPC-H generator, runs one sequential
//! path. The engine's contract is that host thread count is *pure
//! performance*: any worker count must be bit-identical to the
//! sequential path.
//!
//! Since PR 5 the same contract extends to cluster forking: a
//! [`Cluster::fork`] must be indistinguishable from a fresh
//! `Cluster::new` over the same database — for plain runs, full suites,
//! serving, and faulty serving — and a pool-parallel failover sweep
//! must be bit-identical at any `DPU_THREADS`.
//!
//! The property tests build explicit `Pool`s instead of touching the
//! process global, so they can run concurrently with the rest of the
//! suite; the one test that *does* flip the global thread count is safe
//! here because cluster results are width-invariant by construction.

use std::sync::Arc;

use proptest::prelude::*;

use dpu_repro::cluster::{
    serve_pipeline_hooked, Cluster, ClusterConfig, ClusterCore, ClusterQueryCost, DegradedWindow,
    FaultPlan, QueryId, QueryOutput, ServeConfig, ShardPolicy, Speculation, Template,
};
use dpu_repro::pool::{set_global_threads, Pool};
use dpu_repro::sql::tpch::{self, TpchDb};
use dpu_repro::xeon::XeonRack;

const NODES: usize = 8;

proptest! {
    #[test]
    fn par_map_preserves_order_and_runs_each_item_exactly_once(
        n in 0usize..300,
        workers in 1usize..9,
    ) {
        let items: Vec<usize> = (0..n).collect();
        let out = Pool::new(workers).par_map(items, |i| i * 3 + 1);
        // Order and exactly-once in one shot: any duplicate, drop, or
        // reorder breaks the expected sequence.
        prop_assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn fork_matches_fresh_cluster_for_run_and_run_all(
        orders_n in 20usize..90,
        seed in any::<u64>(),
        k in 1usize..4,
        qi in 0usize..8,
        node in 0usize..8,
    ) {
        let db = tpch::generate(orders_n, seed);
        let policy = ShardPolicy::hash(NODES);
        let cfg = ClusterConfig::prototype_slice(NODES, 5_000).with_replicas(k);

        // Dirty a parent as hard as the API allows — a straggler plan,
        // a speculation policy, and a completed run — then fork it. The
        // fork must be indistinguishable from a scratch cluster.
        let mut parent = Cluster::new(db.clone(), &policy, cfg.clone());
        parent.set_faults(FaultPlan::none().straggle(node, 0.0, 1e9, 0.5));
        parent.set_speculation(Some(Speculation::default()));
        parent.run(QueryId::ALL[qi]);

        let mut fork = parent.fork();
        let mut fresh = Cluster::new(db.clone(), &policy, cfg.clone());
        for (a, b) in fork.run_all().iter().zip(&fresh.run_all()) {
            prop_assert_eq!(&a.output, &b.output);
            prop_assert_eq!(&a.cost, &b.cost);
        }

        // And under a fresh fault plan: with a replica to fail over to,
        // fork and scratch must tell the same crash story.
        if k >= 2 {
            let mut fork = parent.fork();
            let mut fresh = Cluster::new(db, &policy, cfg);
            let plan = FaultPlan::none().crash(node, 0.0);
            fork.set_faults(plan.clone());
            fresh.set_faults(plan);
            let id = QueryId::ALL[qi];
            let a = fork.try_run_at(id, 0.0).expect("replica must cover the crash");
            let b = fresh.try_run_at(id, 0.0).expect("replica must cover the crash");
            prop_assert_eq!(&a.output, &b.output);
            prop_assert_eq!(&a.cost, &b.cost);
        }
    }

    #[test]
    fn fork_matches_fresh_cluster_for_serving(
        orders_n in 20usize..70,
        seed in any::<u64>(),
        k in 1usize..3,
        clients in 2usize..12,
    ) {
        let db = tpch::generate(orders_n, seed);
        let policy = ShardPolicy::hash(NODES);
        let cfg = ClusterConfig::prototype_slice(NODES, 5_000).with_replicas(k);

        let mut parent = Cluster::new(db.clone(), &policy, cfg.clone());
        parent.set_faults(FaultPlan::none().straggle(0, 0.0, 1e9, 0.5));
        parent.run(QueryId::Q10);
        let mut fork = parent.fork();
        let mut fresh = Cluster::new(db, &policy, cfg);

        fn templates(c: &mut Cluster) -> Vec<Template> {
            [QueryId::Q1, QueryId::Q6, QueryId::Q10]
                .iter()
                .map(|&id| {
                    let q = c.try_run_at(id, 0.0).expect("healthy run");
                    Template {
                        name: q.id.name(),
                        cost: q.cost.clone(),
                        xeon_seconds: q.single_cost.xeon.seconds,
                    }
                })
                .collect()
        }
        let t_fork = templates(&mut fork);
        let t_fresh = templates(&mut fresh);

        let rack = XeonRack::rack_42u();
        let scfg = ServeConfig {
            clients,
            duration_seconds: 5.0,
            concurrency: 2,
            ..ServeConfig::default()
        };
        let fabric = fork.cfg().fabric.clone();
        let a = serve_pipeline_hooked(&t_fork, fork.watts(), &rack, &scfg, None, Some((&fabric, NODES)), None);
        let b = serve_pipeline_hooked(&t_fresh, fresh.watts(), &rack, &scfg, None, Some((&fabric, NODES)), None);
        prop_assert_eq!(a, b);

        let window =
            DegradedWindow { from_seconds: 1.0, until_seconds: 2.0, cost_factor: 1.5 };
        let a = serve_pipeline_hooked(&t_fork, fork.watts(), &rack, &scfg, Some(&window), None, None);
        let b = serve_pipeline_hooked(&t_fresh, fresh.watts(), &rack, &scfg, Some(&window), None, None);
        prop_assert_eq!(a, b);
    }
}

/// One compact failover matrix — every query × every victim at k = 2 —
/// fanned out on the *global* pool, each cell an O(1) fork of `core`.
fn failover_matrix(core: &Arc<ClusterCore>) -> Vec<(&'static str, usize, usize, String)> {
    let mut cells = Vec::new();
    for id in QueryId::ALL {
        for victim in 0..NODES {
            cells.push((id, victim));
        }
    }
    Pool::global().par_map(cells, |(id, victim)| {
        let mut c = Cluster::from_core(core.clone());
        c.set_faults(FaultPlan::none().crash(victim, 0.0));
        let q = c.try_run_at(id, 0.0).expect("replica must cover the crash");
        (id.name(), victim, q.cost.failovers, format!("{:?}", q.output))
    })
}

/// The whole suite on a 1-node cluster: one shard, so the pool fans
/// out only the single-node references and every operator runs over the
/// full tables.
fn one_node_suite(db: &TpchDb) -> Vec<(QueryOutput, ClusterQueryCost)> {
    let cfg = ClusterConfig::prototype_slice(1, 10_000);
    let mut c = Cluster::new(db.clone(), &ShardPolicy::hash(1), cfg);
    c.run_all().into_iter().map(|q| (q.output, q.cost)).collect()
}

#[test]
fn failover_matrix_is_identical_at_any_thread_count() {
    // The rack_tpch sweeps and CI byte-diff their committed baselines at
    // DPU_THREADS ∈ {1, 4}; this is the same claim in-process — the
    // host-parallel sweep is pure performance, never semantics. The
    // 1-node suite runs every operator over the whole database, sized
    // past a few thousand lineitem rows so that any operator-level
    // parallelism would take part.
    let core = ClusterCore::new(
        tpch::generate(300, 7),
        &ShardPolicy::hash(NODES),
        ClusterConfig::prototype_slice(NODES, 10_000).with_replicas(2),
    );
    let db = tpch::generate(1500, 7);
    set_global_threads(1);
    let one = (failover_matrix(&core), one_node_suite(&db));
    set_global_threads(4);
    let four = (failover_matrix(&core), one_node_suite(&db));
    assert_eq!(one.0, four.0, "failover matrix must not depend on host thread count");
    assert_eq!(one.1, four.1, "1-node suite must not depend on host thread count");
}
