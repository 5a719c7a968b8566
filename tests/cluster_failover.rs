//! Cluster fault-injection suite: every TPC-H query must survive node
//! crashes with **bit-identical** results as long as each shard keeps a
//! live replica, fail cleanly (never wrongly) when one does not, and
//! behave deterministically under any fault plan.
//!
//! The database is generated once and sharded once per replication
//! factor into shared [`ClusterCore`]s; every test case is an O(1)
//! [`Cluster::fork`], and the big every-node / every-pair matrices fan
//! their cells out on the host pool (results are pure per cell, so the
//! fan-out affects wall-clock only).

use std::sync::{Arc, OnceLock};

use dpu_repro::cluster::{
    Cluster, ClusterConfig, ClusterCore, FaultPlan, QueryError, QueryId, ShardPolicy,
    SingleRefCache, Speculation,
};
use dpu_repro::pool::Pool;
use dpu_repro::sim::{Frequency, Time};
use dpu_repro::sql::tpch;

const NODES: usize = 8;

/// One shared core per replication factor, over one shared database and
/// one shared single-node reference cache.
fn core(k: usize) -> Arc<ClusterCore> {
    static CORES: OnceLock<[Arc<ClusterCore>; 3]> = OnceLock::new();
    CORES.get_or_init(|| {
        let db = Arc::new(tpch::generate(500, 13));
        let single = Arc::new(SingleRefCache::new());
        let policy = ShardPolicy::hash(NODES);
        [1, 2, 3].map(|k| {
            ClusterCore::with_shared(
                db.clone(),
                &policy,
                ClusterConfig::prototype_slice(NODES, 10_000).with_replicas(k),
                single.clone(),
            )
        })
    })[k - 1]
        .clone()
}

fn cluster(k: usize) -> Cluster {
    Cluster::from_core(core(k))
}

/// The healthy local-phase duration of `id`, for aiming crashes mid-query.
fn healthy_local_seconds(id: QueryId, k: usize) -> f64 {
    cluster(k).run(id).cost.local_seconds
}

/// The healthy local-phase duration of all eight queries, computed on
/// the host pool.
fn healthy_mids(k: usize) -> Vec<f64> {
    Pool::global().par_map(QueryId::ALL.to_vec(), |id| healthy_local_seconds(id, k))
}

#[test]
fn every_query_survives_every_single_node_crash_at_k2() {
    let mids = healthy_mids(2);
    let mut cells: Vec<(QueryId, usize, f64)> = Vec::new();
    for (qi, id) in QueryId::ALL.into_iter().enumerate() {
        for victim in 0..NODES {
            cells.push((id, victim, mids[qi] * 0.5));
        }
    }
    Pool::global().par_map(cells, |(id, victim, mid)| {
        let mut c = cluster(2);
        c.set_faults(FaultPlan::none().crash(victim, mid));
        let q = c
            .try_run_at(id, 0.0)
            .unwrap_or_else(|e| panic!("{} with node {victim} down: {e}", id.name()));
        assert!(
            q.matches_single(),
            "{} diverged from single-node after node {victim} crashed mid-query",
            id.name()
        );
    });
}

#[test]
fn every_query_survives_crashes_at_query_start_at_k2() {
    // Crash at t = 0: the scheduler must route around the dead node from
    // the first placement decision, not just on failover.
    let mut cells: Vec<(QueryId, usize)> = Vec::new();
    for id in QueryId::ALL {
        for victim in 0..NODES {
            cells.push((id, victim));
        }
    }
    Pool::global().par_map(cells, |(id, victim)| {
        let mut c = cluster(2);
        c.set_faults(FaultPlan::none().crash(victim, 0.0));
        let q = c
            .try_run_at(id, 0.0)
            .unwrap_or_else(|e| panic!("{} with node {victim} down: {e}", id.name()));
        assert!(q.matches_single(), "{} diverged (node {victim} down from start)", id.name());
    });
}

#[test]
fn every_query_survives_every_node_pair_crash_at_k3() {
    // k = 3 tolerates any two failures: all node pairs, crashing at two
    // different instants so one failover is already in flight when the
    // second node dies. 8 queries × 28 pairs = 224 cells on the pool.
    let mids = healthy_mids(3);
    let mut cells: Vec<(QueryId, usize, usize, f64)> = Vec::new();
    for (qi, id) in QueryId::ALL.into_iter().enumerate() {
        for a in 0..NODES {
            for b in (a + 1)..NODES {
                cells.push((id, a, b, mids[qi] * 0.5));
            }
        }
    }
    Pool::global().par_map(cells, |(id, a, b, mid)| {
        let mut c = cluster(3);
        c.set_faults(FaultPlan::none().crash(a, mid * 0.6).crash(b, mid));
        let q = c
            .try_run_at(id, 0.0)
            .unwrap_or_else(|e| panic!("{} with nodes {a},{b} down: {e}", id.name()));
        assert!(q.matches_single(), "{} diverged after nodes {a} and {b} crashed", id.name());
    });
}

#[test]
fn k1_crash_makes_its_shard_unavailable_for_all_queries() {
    // Unreplicated, any crash strands exactly the victim's shard.
    for id in QueryId::ALL {
        let mut c = cluster(1);
        c.set_faults(FaultPlan::none().crash(3, 0.0));
        match c.try_run_at(id, 0.0) {
            Err(QueryError::ShardUnavailable { shard: 3 }) => {}
            other => panic!("{}: expected ShardUnavailable(3), got {other:?}", id.name()),
        }
    }
}

#[test]
fn losing_every_replica_is_a_clean_error_for_all_queries() {
    // k = 2: shard s lives on nodes {s, s+1}. Killing both strands the
    // shard — every query must report ShardUnavailable, never panic or
    // return a partial answer.
    let shard = 2usize;
    for id in QueryId::ALL {
        let mut c = cluster(2);
        c.set_faults(FaultPlan::none().crash(shard, 0.0).crash((shard + 1) % NODES, 0.0));
        match c.try_run_at(id, 0.0) {
            Err(QueryError::ShardUnavailable { shard: s }) => {
                assert_eq!(s, shard, "{}: wrong shard blamed", id.name())
            }
            Ok(_) => panic!("{} answered with shard {shard} fully dead", id.name()),
            Err(other) => panic!("{}: expected ShardUnavailable, got {other}", id.name()),
        }
    }
}

#[test]
fn late_total_shard_loss_is_still_an_error() {
    // Both replicas die mid-query, after the local phase may have begun:
    // the re-issue path must also conclude ShardUnavailable.
    let mid = healthy_local_seconds(QueryId::Q1, 2) * 0.5;
    let mut c = cluster(2);
    c.set_faults(FaultPlan::none().crash(1, mid * 0.9).crash(2, mid));
    match c.try_run_at(QueryId::Q1, 0.0) {
        Err(QueryError::ShardUnavailable { shard }) => {
            assert!(shard == 1 || shard == 2, "blamed shard {shard} is not one of the dead")
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
}

#[test]
fn fault_runs_are_deterministic() {
    // Same fault plan, two independently built clusters: identical
    // outputs AND identical cost breakdowns, bit for bit.
    let plan = FaultPlan::none()
        .crash(4, 0.001)
        .degrade_nic(0, 0.0, 10.0, 0.5)
        .straggle(3, 0.0, 10.0, 0.5);
    for id in QueryId::ALL {
        let mut a = cluster(2);
        a.set_faults(plan.clone());
        let mut b = cluster(2);
        b.set_faults(plan.clone());
        let ra = a.try_run_at(id, 0.0).expect("replicas cover one crash");
        let rb = b.try_run_at(id, 0.0).expect("replicas cover one crash");
        assert_eq!(ra.output, rb.output, "{} output nondeterministic", id.name());
        assert_eq!(ra.cost, rb.cost, "{} cost nondeterministic under faults", id.name());
    }
}

#[test]
fn seeded_random_plans_yield_reproducible_runs() {
    // A drawn-from-seed plan exercises the same determinism end to end:
    // same seed ⇒ same faults ⇒ same routing ⇒ same report.
    let horizon = 1.0;
    let plan = FaultPlan::random(2026, NODES, horizon, 0.3);
    assert_eq!(plan, FaultPlan::random(2026, NODES, horizon, 0.3));
    let run = |p: &FaultPlan| {
        let mut c = cluster(3);
        c.set_faults(p.clone());
        QueryId::ALL.map(|id| c.try_run_at(id, 0.0).map(|q| (q.output, q.cost)))
    };
    let a = run(&plan);
    let b = run(&plan);
    assert_eq!(a, b, "seeded fault runs must be byte-identical");
}

#[test]
fn failover_is_reported_and_priced() {
    let id = QueryId::Q5;
    let mid = healthy_local_seconds(id, 2) * 0.5;
    let mut healthy = cluster(2);
    let base = healthy.run(id);
    let mut faulty = cluster(2);
    faulty.set_faults(FaultPlan::none().crash(0, mid));
    let q = faulty.try_run_at(id, 0.0).expect("one replica survives");
    assert!(q.cost.failovers >= 1, "a mid-query crash must surface as a failover");
    assert!(
        q.cost.total_seconds() > base.cost.total_seconds(),
        "failover must cost wall-clock time"
    );
    assert_eq!(base.cost.failovers, 0);
}

#[test]
fn reported_spans_are_whole_cycles_healthy_and_under_a_mid_query_crash() {
    // The coordinator schedules on the dpCore clock, so a span between
    // two of its instants is a whole number of cycles: its seconds come
    // back bit for bit from a trip through the cycle count.
    let clock = Frequency::DPU_CORE;
    let whole = |x: f64| Time::from_secs(x, clock).as_secs(clock) == x;
    let mids = healthy_mids(2);
    let mut failovers = 0;
    for (qi, id) in QueryId::ALL.into_iter().enumerate() {
        let mut crashed = cluster(2);
        crashed.set_faults(FaultPlan::none().crash(3, mids[qi] * 0.5));
        for (case, mut c) in [("healthy", cluster(2)), ("node 3 crashed mid-query", crashed)] {
            let cost = c.try_run_at(id, 0.0).expect("one replica survives").cost;
            failovers += cost.failovers;
            for (name, x) in [("local", cost.local_seconds), ("fabric", cost.fabric_seconds)] {
                assert!(whole(x), "{} {case}: {name}_seconds {x:e} is not whole cycles", id.name());
            }
        }
    }
    assert!(failovers > 0, "the crash cases must exercise failover");
}

#[test]
fn speculation_keeps_results_bit_identical_under_stragglers() {
    // A 4× straggler at k ∈ {2, 3}: the backup replica races the slow
    // node and whichever finishes first ships its partial — the output
    // must stay bit-identical to single-node execution for every query.
    for k in [2usize, 3] {
        let plan = FaultPlan::none().straggle(3, 0.0, 1e9, 0.25);
        for id in QueryId::ALL {
            let mut c = cluster(k);
            c.set_faults(plan.clone());
            c.set_speculation(Some(Speculation::default()));
            let q = c.try_run_at(id, 0.0).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert!(q.matches_single(), "{} diverged under speculation at k={k}", id.name());
            assert!(
                q.cost.speculations > 0,
                "{} at k={k}: a 4× straggler must trip the deadline",
                id.name()
            );
        }
    }
}

#[test]
fn first_finisher_wins_and_cuts_the_straggler_tail() {
    // Same straggle plan with and without speculation: taking the first
    // finisher must strictly shorten the local phase (the backup beats
    // the 4× straggler), and never ship a partial twice — the fabric
    // byte accounting matches the unspeculated run exactly.
    for k in [2usize, 3] {
        let plan = FaultPlan::none().straggle(3, 0.0, 1e9, 0.25);
        for id in QueryId::ALL {
            let mut plain = cluster(k);
            plain.set_faults(plan.clone());
            let base = plain.try_run_at(id, 0.0).expect("stragglers never strand shards");
            let mut spec = cluster(k);
            spec.set_faults(plan.clone());
            spec.set_speculation(Some(Speculation::default()));
            let fast = spec.try_run_at(id, 0.0).expect("stragglers never strand shards");
            assert_eq!(fast.output, base.output, "{} output changed", id.name());
            assert!(
                fast.cost.local_seconds < base.cost.local_seconds,
                "{} at k={k}: the backup must finish first ({} vs {})",
                id.name(),
                fast.cost.local_seconds,
                base.cost.local_seconds
            );
            // Only the winner ships its partial, so speculation never
            // duplicates fabric traffic. Single-gather plans can only
            // shed bytes (a backup that wins on the gather
            // coordinator's own node makes that partial local); Q10's
            // all-to-all locality shifts by at most a chunk's worth in
            // either direction when a shard moves nodes — far below the
            // full-partial delta a double-ship would cost.
            if id == QueryId::Q10 {
                let delta = fast.cost.fabric_bytes.abs_diff(base.cost.fabric_bytes);
                assert!(
                    delta * 10 < base.cost.fabric_bytes,
                    "Q10 at k={k}: shuffle bytes moved by {delta} of {} — speculation must \
                     re-route chunks, not duplicate them",
                    base.cost.fabric_bytes
                );
            } else {
                assert!(
                    fast.cost.fabric_bytes <= base.cost.fabric_bytes,
                    "{} at k={k}: speculation duplicated fabric traffic ({} vs {})",
                    id.name(),
                    fast.cost.fabric_bytes,
                    base.cost.fabric_bytes
                );
            }
        }
    }
}

#[test]
fn speculation_is_a_no_op_without_replicas() {
    // k = 1: no shard has a second replica, so the deadline has nowhere
    // to launch a backup — the full cost breakdown must be unchanged.
    let plan = FaultPlan::none().straggle(3, 0.0, 1e9, 0.25);
    for id in QueryId::ALL {
        let mut plain = cluster(1);
        plain.set_faults(plan.clone());
        let base = plain.try_run_at(id, 0.0).expect("a straggler is not a crash");
        let mut spec = cluster(1);
        spec.set_faults(plan.clone());
        spec.set_speculation(Some(Speculation::default()));
        let same = spec.try_run_at(id, 0.0).expect("a straggler is not a crash");
        assert_eq!(same.output, base.output, "{} output changed", id.name());
        assert_eq!(same.cost, base.cost, "{} cost changed at k=1", id.name());
        assert_eq!(same.cost.speculations, 0, "{} speculated without a replica", id.name());
    }
}

#[test]
fn speculation_leaves_healthy_runs_untouched() {
    // The deadline is the median healthy shard time × slack. On a healthy
    // run it fires only for a shard whose own cost lies past it (a shard
    // with more resident bytes than its peers): a query with no such
    // shard must equal the plain run bit for bit, and one with such a
    // shard must race a backup without changing its answer.
    let mut on_time = 0;
    for id in QueryId::ALL {
        let mut plain = cluster(2);
        let base = plain.run(id);
        // Healthy k = 2 routing runs every shard on its primary, one
        // shard per node, so `per_node` is the per-shard cost list the
        // deadline is derived from.
        assert_eq!(base.cost.per_node.len(), NODES);
        assert!(base.cost.per_node.iter().all(|c| c.seconds() > 0.0), "{}", id.name());
        let deadline = Speculation::default().deadline_seconds(&base.cost.per_node);
        let late = base.cost.per_node.iter().filter(|c| c.seconds() > deadline).count();
        let mut spec = cluster(2);
        spec.set_speculation(Some(Speculation::default()));
        let same = spec.run(id);
        assert_eq!(same.output, base.output, "{} output changed", id.name());
        if late == 0 {
            on_time += 1;
            assert_eq!(same.cost, base.cost, "{} healthy cost changed", id.name());
            assert_eq!(same.cost.speculations, 0, "{} speculated while healthy", id.name());
        } else {
            assert!(
                same.cost.speculations > 0,
                "{}: {late} shard(s) past the deadline but no backup raced",
                id.name()
            );
        }
    }
    assert!(on_time > 0, "every query had a shard past the deadline");
}

#[test]
fn recovery_restores_failover_free_routing() {
    let mut c = cluster(2);
    c.set_faults(FaultPlan::none().crash(5, 0.0));
    let degraded = c.try_run_at(QueryId::Q6, 0.0).expect("replicas cover the crash");
    assert!(degraded.matches_single());
    let report = c.recover(5, 1.0);
    assert_eq!(report.node, 5);
    assert!(report.rebuild_seconds > 0.0);
    assert!(report.bytes_moved > 0);
    let after = c.run(QueryId::Q6);
    assert_eq!(after.cost.failovers, 0, "recovered node must serve its shards again");
    assert!(after.matches_single());
}
