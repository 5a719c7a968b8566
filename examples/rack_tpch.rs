//! Rack-scale TPC-H: shard the database across 8 simulated DPU nodes
//! with 2-way replication, run the full 8-query suite scatter/gather,
//! crash a node mid-run to show failover, rebuild it from surviving
//! replicas, and serve the suite to a closed-loop client population.
//!
//! Demonstrates the `cluster` crate end to end: hash sharding (orders
//! and lineitem co-located by order key, dimensions replicated),
//! chained-declustering replica placement, the shared-Infiniband fabric
//! model, deterministic fault injection with failover routing whose
//! results stay bit-identical to single-node execution, the recovery
//! model, the serving front-end's QPS / latency / performance-per-watt
//! report against a 42U Xeon rack, the concurrent pipeline with
//! SLO-adaptive batching over the shared fabric, and speculative
//! re-execution racing a straggler against its backup replica.
//!
//! Run with: `cargo run --release --example rack_tpch`

use dpu_repro::cluster::{
    serve, serve_pipeline_hooked, Cluster, ClusterConfig, FaultPlan, QueryId, ServeConfig,
    ShardPolicy, Speculation, Template,
};
use dpu_repro::sql::tpch;
use dpu_repro::xeon::XeonRack;

fn main() {
    let nodes = 8;
    let db = tpch::generate(2000, 2026);
    println!(
        "Sharding TPC-H ({} orders, {} lineitem rows) across {nodes} DPU nodes, k=2…",
        db.orders.rows(),
        db.lineitem.rows()
    );

    let policy = ShardPolicy::hash(nodes);
    let cfg = ClusterConfig::prototype_slice(nodes, 30_000).with_replicas(2);
    let mut cluster = Cluster::new(db, &policy, cfg);
    println!(
        "Load: {:.3} ms (fact scatter ×2 replicas + dimension broadcast over the fabric)\n",
        cluster.load_seconds() * 1e3
    );

    let mut templates = Vec::new();
    for r in cluster.run_all() {
        assert!(r.matches_single(), "distributed result must equal single-node");
        println!(
            "{:>4}: {:7.2} ms  (local {:6.2} + fabric {:5.3} + merge {:5.3}), exact ✓",
            r.id.name(),
            r.cost.total_seconds() * 1e3,
            r.cost.local_seconds * 1e3,
            r.cost.fabric_seconds * 1e3,
            r.cost.merge_seconds * 1e3,
        );
        templates.push(Template {
            name: r.id.name(),
            cost: r.cost.clone(),
            xeon_seconds: r.single_cost.xeon.seconds,
        });
    }

    // Crash node 3 halfway through Q1's local phase: the query fails
    // over to the surviving replicas and still matches single-node.
    let healthy = templates[0].cost.clone();
    cluster.set_faults(FaultPlan::none().crash(3, healthy.local_seconds * 0.5));
    let under_fault = cluster.try_run_at(QueryId::Q1, 0.0).expect("replicas cover the crash");
    assert!(under_fault.matches_single(), "failover must not change the answer");
    println!(
        "\nCrash node 3 mid-Q1: {} failover(s), {:.2} ms → {:.2} ms, result still exact ✓",
        under_fault.cost.failovers,
        healthy.total_seconds() * 1e3,
        under_fault.cost.total_seconds() * 1e3
    );

    // Rebuild the dead node from surviving replicas and rejoin it.
    let recovery = cluster.recover(3, under_fault.cost.total_seconds());
    println!(
        "Recovery: {} shard(s), {:.1} KiB re-replicated in {:.3} ms; node 3 back in the ring",
        recovery.shards.len(),
        recovery.bytes_moved as f64 / 1024.0,
        recovery.rebuild_seconds * 1e3
    );
    let after = cluster.run(QueryId::Q1);
    assert_eq!(after.cost.failovers, 0, "a recovered cluster routes normally");

    let rack = XeonRack::rack_42u();
    let report = serve(&templates, cluster.watts(), &rack, &ServeConfig::default());
    println!(
        "\nServing: {:.1} QPS at {:.0} W (p50 {:.0} ms, p99 {:.0} ms, mean batch {:.1})",
        report.qps,
        report.cluster_watts,
        report.p50 * 1e3,
        report.p99 * 1e3,
        report.mean_batch
    );
    println!(
        "Xeon 42U rack: {:.1} QPS at {:.0} W → rack performance/watt gain {:.1}×",
        report.xeon_qps, report.xeon_watts, report.perf_per_watt_gain
    );

    // Concurrent pipeline: four batches in flight sharing the NICs and
    // switch, with the adaptive controller batching against a 1.5 s SLO.
    let pipe_cfg = ServeConfig {
        clients: 64,
        concurrency: 4,
        max_batch: 16,
        adaptive: true,
        slo_seconds: Some(1.5),
        ..ServeConfig::default()
    };
    let fabric = cluster.cfg().fabric.clone();
    let pipe = serve_pipeline_hooked(
        &templates,
        cluster.watts(),
        &rack,
        &pipe_cfg,
        None,
        Some((&fabric, nodes)),
        None,
    );
    println!(
        "\nConcurrent pipeline (4 in flight, adaptive, SLO 1.5 s): {:.1} QPS, \
         SLO attainment {:.3}, mean batch {:.1}",
        pipe.qps, pipe.slo_attainment, pipe.mean_batch
    );
    println!(
        "Fabric per batch: {:.3} µs shared vs {:.3} µs isolated (concurrent shuffles queue)",
        pipe.mean_fabric_seconds * 1e6,
        pipe.mean_fabric_isolated_seconds * 1e6
    );

    // Speculative re-execution: node 5 computes at quarter speed; the
    // deadline (p50 shard time × 1.25) trips and the backup replica
    // races it — first finisher wins, result still bit-identical.
    cluster.set_faults(FaultPlan::none().straggle(5, 0.0, 1e9, 0.25));
    let straggled = cluster.run(QueryId::Q5);
    cluster.set_speculation(Some(Speculation::default()));
    let hedged = cluster.run(QueryId::Q5);
    assert!(hedged.matches_single(), "speculation must not change the answer");
    println!(
        "\nNode 5 straggles at 0.25× compute: Q5 {:.2} ms unmitigated → {:.2} ms with \
         {} speculative backup(s), result still exact ✓",
        straggled.cost.total_seconds() * 1e3,
        hedged.cost.total_seconds() * 1e3,
        hedged.cost.speculations
    );
}
