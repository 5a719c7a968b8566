//! Whole-rack failure suite for the spine/leaf topology: with
//! rack-aware `k = 2` placement every TPC-H query must survive the
//! simultaneous death of an entire rack **bit-identically** (every
//! shard keeps a live cross-rack replica), fail cleanly — never
//! wrongly — without replicas, and re-replicate the dead rack from
//! cross-rack survivors.

use std::sync::{Arc, OnceLock};

use dpu_repro::cluster::{
    Cluster, ClusterConfig, ClusterCore, FaultPlan, Placement, QueryError, QueryId, ShardPolicy,
    SingleRefCache,
};
use dpu_repro::pool::Pool;
use dpu_repro::sql::tpch;

const NODES: usize = 8;

/// Shared cores keyed by their (racks, k) topology.
type CoreCache = Vec<((usize, usize), Arc<ClusterCore>)>;

/// One shared core per (racks, k) topology, over one shared database
/// and one shared single-node reference cache.
fn core(racks: usize, k: usize) -> Arc<ClusterCore> {
    static CORES: OnceLock<CoreCache> = OnceLock::new();
    CORES
        .get_or_init(|| {
            let db = Arc::new(tpch::generate(400, 17));
            let single = Arc::new(SingleRefCache::new());
            let policy = ShardPolicy::hash(NODES);
            [(2, 2), (4, 2), (2, 1), (4, 1)]
                .into_iter()
                .map(|(r, k)| {
                    let core = ClusterCore::with_shared(
                        db.clone(),
                        &policy,
                        ClusterConfig::prototype_slice(NODES, 10_000)
                            .with_replicas(k)
                            .with_topology(r, 2.0),
                        single.clone(),
                    );
                    ((r, k), core)
                })
                .collect()
        })
        .iter()
        .find(|((r, kk), _)| *r == racks && *kk == k)
        .expect("topology not prebuilt")
        .1
        .clone()
}

/// All nodes of rack 1 (the failure domain we kill in every test).
fn rack1(racks: usize) -> Vec<usize> {
    let m = NODES / racks;
    (m..2 * m).collect()
}

fn kill_rack(racks: usize, at: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for node in rack1(racks) {
        plan = plan.crash(node, at);
    }
    plan
}

#[test]
fn whole_rack_death_mid_query_is_bit_identical_at_k2() {
    // Crash the whole rack mid-execution: the already-dispatched
    // primaries die, so every query pays timeout failovers before
    // re-issuing to the cross-rack copies — and still matches
    // single-node bit for bit.
    let mut cells: Vec<(usize, QueryId)> = Vec::new();
    for racks in [2, 4] {
        for id in QueryId::ALL {
            cells.push((racks, id));
        }
    }
    Pool::global().par_map(cells, |(racks, id)| {
        let healthy_mid = Cluster::from_core(core(racks, 2)).run(id).cost.local_seconds * 0.5;
        let mut c = Cluster::from_core(core(racks, 2));
        c.set_faults(kill_rack(racks, healthy_mid));
        let q = c
            .try_run_at(id, 0.0)
            .unwrap_or_else(|e| panic!("{} with rack 1 of {racks} down: {e}", id.name()));
        assert!(
            q.matches_single(),
            "{} diverged from single-node after rack 1 of {racks} died mid-query",
            id.name()
        );
        assert!(
            q.cost.failovers > 0,
            "{} lost its dispatched primaries and must record failovers",
            id.name()
        );
    });
}

#[test]
fn whole_rack_death_at_query_start_routes_around_silently() {
    // Rack already dead at dispatch: the scheduler skips the dead
    // primaries from the first placement decision — no timeout is paid,
    // so no failover is recorded, and results still match.
    let mut cells: Vec<(usize, QueryId)> = Vec::new();
    for racks in [2, 4] {
        for id in QueryId::ALL {
            cells.push((racks, id));
        }
    }
    Pool::global().par_map(cells, |(racks, id)| {
        let mut c = Cluster::from_core(core(racks, 2));
        c.set_faults(kill_rack(racks, 0.0));
        let q = c
            .try_run_at(id, 0.0)
            .unwrap_or_else(|e| panic!("{} with rack 1 of {racks} down: {e}", id.name()));
        assert!(q.matches_single(), "{} diverged (rack 1 of {racks} down from start)", id.name());
        assert_eq!(
            q.cost.failovers, 0,
            "a pre-dispatch death must be routed around, not timed out"
        );
    });
}

#[test]
fn whole_rack_death_without_replicas_fails_cleanly() {
    // k = 1: the dead rack's shards have nowhere to hide. Every query
    // touching them must return ShardUnavailable — a clean refusal,
    // never a silently wrong answer.
    for racks in [2, 4] {
        let mut c = Cluster::from_core(core(racks, 1));
        c.set_faults(kill_rack(racks, 0.0));
        let dead = rack1(racks);
        for id in QueryId::ALL {
            match c.try_run_at(id, 0.0) {
                Err(QueryError::ShardUnavailable { shard }) => assert!(
                    dead.contains(&shard),
                    "{} reported shard {shard} unavailable, but that shard's rack is alive",
                    id.name()
                ),
                Ok(_) => panic!("{} ran without any replica of rack 1's shards", id.name()),
                Err(e) => panic!("{} failed with the wrong error: {e}", id.name()),
            }
        }
    }
}

#[test]
fn dead_rack_recovers_every_shard_from_cross_rack_survivors() {
    for racks in [2, 4] {
        let mut c = Cluster::from_core(core(racks, 2));
        c.set_faults(kill_rack(racks, 1e-6));
        let placement = Placement::rack_aware(NODES, racks, 2);
        for node in rack1(racks) {
            let r = c.recover(node, 1.0);
            assert_eq!(r.node, node);
            let mut expect = placement.shards_on(node);
            let mut got = r.shards.clone();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "recovery must re-stream exactly node {node}'s shards");
            assert!(r.bytes_moved > 0, "re-replication moves the shards' bytes");
            assert!(r.rebuild_seconds > 0.0, "re-streaming over the fabric takes time");
        }
    }
}

#[test]
fn multirack_fault_runs_are_deterministic() {
    // The same fault plan on the same topology must produce the same
    // costs to the last bit — the property the committed
    // BENCH_multirack.json baseline (and its CI byte-diff) stands on.
    let run = || -> Vec<(f64, usize)> {
        let mut c = Cluster::from_core(core(4, 2));
        c.set_faults(kill_rack(4, 1e-6));
        QueryId::ALL
            .iter()
            .map(|&id| {
                let q = c.try_run_at(id, 0.0).expect("k=2 survives a rack death");
                (q.cost.total_seconds(), q.cost.failovers)
            })
            .collect()
    };
    let (a, b) = (run(), run());
    for (id, (x, y)) in QueryId::ALL.iter().zip(a.iter().zip(&b)) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{} cost drifted between runs", id.name());
        assert_eq!(x.1, y.1, "{} failover count drifted between runs", id.name());
    }
}
