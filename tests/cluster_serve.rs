//! Concurrent serving pipeline suite: the event-driven engine must
//! reproduce the PR 2 scalar serve loop bit for bit at `concurrency=1`,
//! show real fabric interference between concurrent shuffle-heavy
//! queries, and recover most of the straggler-free QPS via speculative
//! re-execution — all deterministically.

use dpu_repro::cluster::{
    serve, serve_pipeline_hooked, Cluster, ClusterConfig, ClusterQueryCost, FaultPlan, NodeCost,
    QueryId, ServeConfig, ShardPolicy, Speculation, Template,
};
use dpu_repro::sql::tpch;
use dpu_repro::xeon::XeonRack;

const NODES: usize = 8;

fn cluster(k: usize) -> Cluster {
    let db = tpch::generate(500, 13);
    let cfg = ClusterConfig::prototype_slice(NODES, 10_000).with_replicas(k);
    Cluster::new(db, &ShardPolicy::hash(NODES), cfg)
}

/// Serve templates from running the full suite on `c`, asserting every
/// distributed result stays bit-identical to single-node execution.
fn templates_for(c: &mut Cluster) -> Vec<Template> {
    QueryId::ALL
        .iter()
        .map(|&id| {
            let q = c.try_run_at(id, 0.0).expect("suite must run");
            assert!(q.matches_single(), "{} diverged from single-node", id.name());
            Template {
                name: q.id.name(),
                cost: q.cost.clone(),
                xeon_seconds: q.single_cost.xeon.seconds,
            }
        })
        .collect()
}

/// The synthetic template the PR 2 serve unit tests used, reproduced
/// here verbatim so the pinned numbers below mean the same thing.
fn template(name: &'static str, local: f64, xeon: f64) -> Template {
    Template {
        name,
        cost: ClusterQueryCost {
            per_node: vec![NodeCost { mem_seconds: local, cpu_seconds: local / 4.0 }; 8],
            local_seconds: local,
            fabric_seconds: local / 10.0,
            merge_seconds: local / 100.0,
            fabric_bytes: 1 << 20,
            failovers: 0,
            speculations: 0,
        },
        xeon_seconds: xeon,
    }
}

#[test]
fn concurrency_one_reproduces_the_scalar_serve_loop_bitwise() {
    // Numbers pinned from the PR 2 scalar `server_free_at` loop. The
    // default config is concurrency=1 / adaptive off / no SLO, so the
    // event-driven engine must reproduce them exactly — RNG draw order,
    // event ordering, and admission retry semantics included. The
    // percentiles are latencies on the dpCore clock, so whole cycles.
    let rack = XeonRack::rack_42u();

    // Light load: two fast templates, no saturation.
    let light = vec![template("Q1", 0.010, 0.5), template("Q6", 0.005, 0.3)];
    let cfg = ServeConfig { duration_seconds: 30.0, ..ServeConfig::default() };
    let r = serve(&light, 88.0, &rack, &cfg);
    assert_eq!(r.completed, 4507);
    assert_eq!(r.rejected, 0);
    assert_eq!(r.qps, 150.233_333_333_333_32);
    assert_eq!(r.p50, 0.015_279_448_75);
    assert_eq!(r.p99, 0.028_998_516_25);
    assert_eq!(r.mean_batch, 1.493_373_094_764_744_8);

    // Saturation: one slow template, tiny admission queue, rejections.
    let heavy = vec![template("Q5", 0.5, 2.0)];
    let cfg = ServeConfig {
        clients: 128,
        think_seconds: 0.0,
        admit_cap: 8,
        duration_seconds: 20.0,
        ..ServeConfig::default()
    };
    let r = serve(&heavy, 88.0, &rack, &cfg);
    assert_eq!(r.completed, 113);
    assert_eq!(r.rejected, 1792);
    assert_eq!(r.qps, 5.65);
    assert_eq!(r.p50, 2.88);
    assert_eq!(r.p99, 2.88);
    assert_eq!(r.mean_batch, 7.533_333_333_333_333);
}

#[test]
fn concurrent_q10_mix_pays_for_fabric_contention() {
    // A Q10-only mix with zero think time at concurrency 8: the initial
    // arrivals dispatch together, so the in-flight batches reach their
    // shuffle phases simultaneously and must queue on the shared
    // switch — per-query fabric time strictly above the isolated cost.
    let mut c = cluster(1);
    let q10 = c.try_run_at(QueryId::Q10, 0.0).expect("healthy run");
    assert!(q10.matches_single());
    let t = Template {
        name: "Q10",
        cost: q10.cost.clone(),
        xeon_seconds: q10.single_cost.xeon.seconds,
    };
    let rack = XeonRack::rack_42u();
    let cfg = ServeConfig {
        clients: 32,
        think_seconds: 0.0,
        max_batch: 4,
        duration_seconds: 20.0,
        concurrency: 8,
        ..ServeConfig::default()
    };
    let fabric = c.cfg().fabric.clone();
    let shared = serve_pipeline_hooked(
        std::slice::from_ref(&t),
        c.watts(),
        &rack,
        &cfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    assert!(
        shared.mean_fabric_seconds > shared.mean_fabric_isolated_seconds,
        "8 concurrent Q10 shuffles must contend on the switch: shared {} vs isolated {}",
        shared.mean_fabric_seconds,
        shared.mean_fabric_isolated_seconds
    );

    // The same mix with one slot uncontended charges exactly isolated.
    let solo_cfg = ServeConfig { clients: 1, max_batch: 1, concurrency: 1, ..cfg };
    let solo = serve_pipeline_hooked(
        &[t],
        c.watts(),
        &rack,
        &solo_cfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    assert!(
        (solo.mean_fabric_seconds - solo.mean_fabric_isolated_seconds).abs() < 1e-12,
        "uncontended shuffles must cost exactly the isolated time"
    );
}

#[test]
fn speculation_recovers_most_straggler_free_qps() {
    // One node computing at quarter speed for the whole horizon. Without
    // mitigation its shard gates every query (4× the local phase); with
    // deadline-based speculation the backup replica caps the damage.
    let rack = XeonRack::rack_42u();
    let scfg = ServeConfig {
        clients: 32,
        think_seconds: 0.2,
        max_batch: 16,
        duration_seconds: 30.0,
        ..ServeConfig::default()
    };
    let straggle = FaultPlan::none().straggle(3, 0.0, 1e9, 0.25);

    let mut healthy = cluster(2);
    let healthy_qps = serve(&templates_for(&mut healthy), healthy.watts(), &rack, &scfg).qps;

    let mut slow = cluster(2);
    slow.set_faults(straggle.clone());
    let straggled_qps = serve(&templates_for(&mut slow), slow.watts(), &rack, &scfg).qps;

    let mut spec = cluster(2);
    spec.set_faults(straggle);
    spec.set_speculation(Some(Speculation::default()));
    // templates_for asserts bit-identical results under speculation.
    let spec_templates = templates_for(&mut spec);
    assert!(
        spec_templates.iter().any(|t| t.cost.speculations > 0),
        "the 4× straggler must trip the deadline"
    );
    let spec_qps = serve(&spec_templates, spec.watts(), &rack, &scfg).qps;

    assert!(
        spec_qps > straggled_qps,
        "speculation must beat the unmitigated straggler: {spec_qps} vs {straggled_qps}"
    );
    assert!(
        spec_qps >= 0.70 * healthy_qps,
        "speculation must recover ≥70% of straggler-free QPS: {spec_qps} vs healthy {healthy_qps} \
         (unmitigated {straggled_qps})"
    );
}

#[test]
fn adaptive_batching_weakly_dominates_fixed_depths_at_high_load() {
    // At the two highest offered loads the admission queue stays past
    // the pressure threshold, so the controller batches at the full cap
    // and must match or beat every fixed depth on SLO attainment. (The
    // committed BENCH_rack_serve.json pins the same property at bench
    // scale; this guards it at test scale.)
    let mut c = cluster(1);
    let templates = templates_for(&mut c);
    let rack = XeonRack::rack_42u();
    for clients in [64usize, 128] {
        let mut best_fixed = 0.0f64;
        for mb in [1usize, 4, 8, 16] {
            let cfg = ServeConfig {
                clients,
                max_batch: mb,
                slo_seconds: Some(1.5),
                ..ServeConfig::default()
            };
            best_fixed = best_fixed.max(serve(&templates, c.watts(), &rack, &cfg).slo_attainment);
        }
        let cfg = ServeConfig {
            clients,
            max_batch: 16,
            adaptive: true,
            slo_seconds: Some(1.5),
            ..ServeConfig::default()
        };
        let adaptive = serve(&templates, c.watts(), &rack, &cfg).slo_attainment;
        assert!(
            adaptive >= best_fixed,
            "adaptive must weakly dominate fixed batching at {clients} clients: \
             {adaptive} vs {best_fixed}"
        );
    }
}

#[test]
fn pipeline_is_deterministic_across_all_features() {
    // Concurrency + adaptive + SLO + shared fabric together: two
    // identical invocations must agree on every reported number.
    let mut c = cluster(2);
    let templates = templates_for(&mut c);
    let rack = XeonRack::rack_42u();
    let cfg = ServeConfig {
        clients: 48,
        think_seconds: 0.05,
        max_batch: 16,
        duration_seconds: 20.0,
        concurrency: 3,
        adaptive: true,
        slo_seconds: Some(1.5),
        ..ServeConfig::default()
    };
    let fabric = c.cfg().fabric.clone();
    let a = serve_pipeline_hooked(
        &templates,
        c.watts(),
        &rack,
        &cfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    let b = serve_pipeline_hooked(
        &templates,
        c.watts(),
        &rack,
        &cfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.qps, b.qps);
    assert_eq!(a.p99, b.p99);
    assert_eq!(a.slo_attainment, b.slo_attainment);
    assert_eq!(a.mean_fabric_seconds, b.mean_fabric_seconds);
    assert_eq!(a.admitted, a.completed + a.backlog);
}

#[test]
fn thread_count_never_changes_bench_relevant_output() {
    // The full rack_tpch flow — datagen, distributed suite, closed-loop
    // serving — run with the work-stealing pool pinned to
    // one worker and then to four. Every number a BENCH file is derived
    // from must be bit-identical: host threads may only change how fast
    // the simulator runs, never what it computes. This is the only test
    // allowed to touch the process-global thread count; everything else
    // builds explicit `Pool`s so this global stays race-free.
    use dpu_repro::cluster::QueryOutput;
    use dpu_repro::pool::{global_threads, set_global_threads};

    #[allow(clippy::type_complexity)]
    fn flow() -> (Vec<(QueryOutput, ClusterQueryCost)>, Vec<f64>) {
        let db = tpch::generate(500, 13);
        let cfg = ClusterConfig::prototype_slice(NODES, 10_000).with_replicas(2);
        let mut c = Cluster::new(db, &ShardPolicy::hash(NODES), cfg);
        let runs = c.run_all();
        let templates: Vec<Template> = runs
            .iter()
            .map(|q| {
                assert!(q.matches_single(), "{} diverged from single-node", q.id.name());
                Template {
                    name: q.id.name(),
                    cost: q.cost.clone(),
                    xeon_seconds: q.single_cost.xeon.seconds,
                }
            })
            .collect();
        let r = serve(&templates, c.watts(), &XeonRack::rack_42u(), &ServeConfig::default());
        (
            runs.into_iter().map(|q| (q.output, q.cost)).collect(),
            vec![r.qps, r.p50, r.p95, r.p99, r.mean_latency, r.mean_batch, r.completed as f64],
        )
    }

    let prior = global_threads();
    set_global_threads(1);
    let sequential = flow();
    set_global_threads(4);
    let parallel = flow();
    set_global_threads(prior);
    assert_eq!(sequential, parallel, "pool width changed a bench-relevant number");
}
