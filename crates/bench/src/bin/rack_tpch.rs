//! Rack-scale TPC-H: the 8-query suite sharded across 8 simulated DPU
//! nodes, checked bit-identical against single-node execution, then
//! served to a closed-loop client population and compared against a
//! 42U multi-socket Xeon rack on QPS, latency, and performance/watt.
//!
//! Flags:
//!
//! - `--replicas <k>` — store each fact shard on `k` nodes under chained
//!   declustering (default 1).
//! - `--kill <node>@<seconds>` — crash `node` at the given query-relative
//!   time (repeatable). Queries fail over to surviving replicas and the
//!   results must stay bit-identical; with `k = 1` a kill makes its
//!   shard unavailable and the run aborts with the error.
//! - `--concurrency <n>` — in-flight batches for an extra serving run
//!   printed alongside the default one (shares the fabric model).
//! - `--slo-ms <ms>` — latency SLO for that run; turns the adaptive
//!   batch controller on and reports SLO attainment.
//! - `--speculate` — race deadline-missing shard sub-plans against a
//!   backup replica (visible under `--kill`/straggler fault plans; a
//!   healthy cluster never trips the deadline).
//! - `--explain` — print the cost-based planner's chosen plan for every
//!   query, with estimated vs actual rows per operator (the rendering
//!   snapshot-tested in `dpu-planner`).
//! - `--planner <off|static|adaptive>` — re-serve the suite through
//!   planner-selected plans: `static` trusts the estimates for the whole
//!   run, `adaptive` re-ranks candidates from observed traffic and
//!   prints any plan switches (`off`, the default, skips the section).
//! - `--racks <r>` — spread the 8 nodes over `r` racks behind a
//!   spine/leaf fabric (default 1, the flat committed baseline).
//! - `--oversub <x>` — leaf-uplink oversubscription ratio ≥ 1 (default
//!   1, a non-blocking spine). Only meaningful with `--racks > 1`.
//! - `--tenants <t>` — serve the suite to `t` open-loop tenants
//!   (weighted-fair shares, priority preemption) and print the
//!   per-tenant breakdown (default 1: section skipped unless the trace
//!   is open-loop).
//! - `--trace <closed|diurnal|burst>` — arrival shape for the tenant
//!   section: `closed` keeps the default closed-loop serving only,
//!   `diurnal`/`burst` run the open-loop multi-tenant loop under the
//!   corresponding trace.
//!
//! Regardless of flags, the binary also sweeps k ∈ {1, 2, 3} ×
//! {0, 1, 2} failed nodes and emits `BENCH_rack_failover.json`, plus the
//! serving-pipeline baseline `BENCH_rack_serve.json`: the SLO-attainment
//! curve of adaptive vs fixed batching across offered loads, Q10 fabric
//! interference under concurrency, and speculative straggler recovery.
//! The emitted JSON never depends on flags: the suite baseline
//! `BENCH_rack_tpch.json` (per-query costs + QPS/latency regression
//! notes, byte-diffed by the nightly tpch-scale CI job) is only written
//! by a default-config run — flags that reshape the cluster (replicas,
//! kills, speculation) print their sections but leave the committed
//! baseline untouched.
//!
//! Every sweep is host-parallel: the database is generated once, each
//! (policy, k) combination is sharded once into a shared
//! [`ClusterCore`], and every sweep cell is an O(1) [`Cluster::fork`]
//! dispatched through `Pool::par_map`. Cell results are collected and
//! printed in input order, so the same build produces byte-identical
//! reports on every run, at any `DPU_THREADS`.

use std::sync::Arc;

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_cluster::{
    serve, serve_pipeline_hooked, serve_tenants, Cluster, ClusterConfig, ClusterCore, FaultPlan,
    QueryId, ServeConfig, ShardPolicy, SingleRefCache, Speculation, Template, Tenant,
    TenantServeConfig, TraceShape,
};
use dpu_planner::{explain, AdaptiveServer, CandidatePlan, Planner, PlannerMode};
use dpu_pool::Pool;
use dpu_sim::Frequency;
use dpu_sql::tpch;
use xeon_model::XeonRack;

struct Args {
    replicas: usize,
    kills: Vec<(usize, f64)>,
    concurrency: usize,
    slo_ms: Option<f64>,
    speculate: bool,
    explain: bool,
    planner: Option<PlannerMode>,
    racks: usize,
    oversub: f64,
    tenants: usize,
    trace: Option<TraceShape>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        replicas: 1,
        kills: Vec::new(),
        concurrency: 1,
        slo_ms: None,
        speculate: false,
        explain: false,
        planner: None,
        racks: 1,
        oversub: 1.0,
        tenants: 1,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--replicas" => {
                let v = args.next().expect("--replicas needs a value");
                parsed.replicas = v.parse().expect("--replicas takes an integer");
            }
            "--kill" => {
                let v = args.next().expect("--kill needs <node>@<seconds>");
                let (n, t) = v.split_once('@').expect("--kill format is <node>@<seconds>");
                parsed.kills.push((
                    n.parse().expect("--kill node must be an integer"),
                    t.parse().expect("--kill time must be seconds"),
                ));
            }
            "--concurrency" => {
                let v = args.next().expect("--concurrency needs a value");
                parsed.concurrency = v.parse().expect("--concurrency takes an integer");
            }
            "--slo-ms" => {
                let v = args.next().expect("--slo-ms needs a value");
                parsed.slo_ms = Some(v.parse().expect("--slo-ms takes milliseconds"));
            }
            "--speculate" => parsed.speculate = true,
            "--explain" => parsed.explain = true,
            "--planner" => {
                let v = args.next().expect("--planner needs off|static|adaptive");
                parsed.planner = match v.as_str() {
                    "off" => None,
                    "static" => Some(PlannerMode::Static),
                    "adaptive" => Some(PlannerMode::Adaptive),
                    other => panic!("--planner takes off|static|adaptive, got {other}"),
                };
            }
            "--racks" => {
                let v = args.next().expect("--racks needs a value");
                parsed.racks = v.parse().expect("--racks takes an integer");
            }
            "--oversub" => {
                let v = args.next().expect("--oversub needs a value");
                parsed.oversub = v.parse().expect("--oversub takes a ratio");
            }
            "--tenants" => {
                let v = args.next().expect("--tenants needs a value");
                parsed.tenants = v.parse().expect("--tenants takes an integer");
            }
            "--trace" => {
                let v = args.next().expect("--trace needs closed|diurnal|burst");
                parsed.trace = match v.as_str() {
                    "closed" => None,
                    "diurnal" => Some(TraceShape::Diurnal { period_seconds: 20.0, amplitude: 0.8 }),
                    "burst" => Some(TraceShape::Burst {
                        period_seconds: 10.0,
                        burst_seconds: 2.0,
                        multiplier: 4.0,
                    }),
                    other => panic!("--trace takes closed|diurnal|burst, got {other}"),
                };
            }
            other => panic!(
                "unknown flag {other} (use --replicas <k> / --kill <node>@<seconds> / \
                 --concurrency <n> / --slo-ms <ms> / --speculate / --explain / \
                 --planner <off|static|adaptive> / --racks <r> / --oversub <x> / \
                 --tenants <t> / --trace <closed|diurnal|burst>)"
            ),
        }
    }
    parsed
}

/// Runs the 8-query suite on `c`, asserting bit-identical distributed
/// results, and returns serving templates for the pipeline.
fn suite_templates(c: &mut Cluster) -> Vec<Template> {
    QueryId::ALL
        .iter()
        .map(|&id| {
            let q = c.try_run_at(id, 0.0).expect("suite must run on a healthy/replicated cluster");
            assert!(q.matches_single(), "{} diverged from single-node", id.name());
            Template {
                name: q.id.name(),
                cost: q.cost.clone(),
                xeon_seconds: q.single_cost.xeon.seconds,
            }
        })
        .collect()
}

/// The `--planner` serving re-run: every suite query is served through
/// its planner-selected plan (profiled by an instrumented execution);
/// `adaptive` mode may re-rank candidates from observed traffic.
/// Print-only — the committed JSON baselines never depend on it.
fn planner_serve(mode: PlannerMode, planner: &Planner, cluster: &mut Cluster, suite: &[Template]) {
    let candidate_sets: Vec<Vec<CandidatePlan>> = QueryId::ALL
        .iter()
        .map(|&id| {
            planner
                .candidates(id)
                .into_iter()
                .map(|(plan, est)| {
                    let run = cluster.run_planned(&plan, 0.0).expect("healthy cluster");
                    assert!(run.query.matches_single(), "{} planner plan diverged", id.name());
                    CandidatePlan {
                        name: plan.merge.name().into(),
                        plan,
                        est_seconds: est.total_seconds(),
                        profiled: run.query.cost.clone(),
                    }
                })
                .collect()
        })
        .collect();
    let rack = XeonRack::rack_42u();
    let cfg = ServeConfig::default();
    let fabric = cluster.cfg().fabric.clone();
    let n = cluster.cfg().n_nodes;
    let mut hook = AdaptiveServer::new(mode, 8, candidate_sets);
    let report = serve_pipeline_hooked(
        suite,
        cluster.watts(),
        &rack,
        &cfg,
        None,
        Some((&fabric, n)),
        Some(&mut hook),
    );
    let mode_name = match mode {
        PlannerMode::Static => "static",
        PlannerMode::Adaptive => "adaptive",
    };
    println!("\n## Serving through the {mode_name} planner\n");
    println!(
        "QPS {:.1}, mean latency {:.2} ms, p99 {:.2} ms, plan switches {}.",
        report.qps,
        report.mean_latency * 1e3,
        report.p99 * 1e3,
        hook.switches.len()
    );
    for s in &hook.switches {
        println!(
            "Plan switch: {} {} → {} at t={:.3} s",
            suite[s.template].name, s.from, s.to, s.at_seconds
        );
    }
}

fn main() {
    const NODES: usize = 8;
    let args = parse_args();
    let replicas = args.replicas;
    let scale = 30_000u64; // cost queries at SF≈100 cardinalities
    let db = Arc::new(tpch::generate(5000, 2026));
    let policy = ShardPolicy::hash(NODES);
    // One shared single-node reference cache for every core below: the
    // reference is a function of the (shared) full database alone, so no
    // sweep cell ever recomputes it.
    let single = Arc::new(SingleRefCache::new());
    let core_for = |k: usize| {
        ClusterCore::with_shared(
            db.clone(),
            &policy,
            ClusterConfig::prototype_slice(NODES, scale).with_replicas(k),
            single.clone(),
        )
    };
    // One core per sweep replication factor — each (policy, k) sharded
    // exactly once. Every sweep cell below is an O(1) fork of its core.
    let cores: Vec<Arc<ClusterCore>> = (1..=3).map(core_for).collect();
    let default_topology = args.racks == 1 && args.oversub == 1.0;
    let main_core = if (1..=3).contains(&replicas) && default_topology {
        cores[replicas - 1].clone()
    } else {
        ClusterCore::with_shared(
            db.clone(),
            &policy,
            ClusterConfig::prototype_slice(NODES, scale)
                .with_replicas(replicas)
                .with_topology(args.racks, args.oversub),
            single.clone(),
        )
    };
    // Warm the shared cache once (no-op at one thread; values identical
    // either way) so parallel sweep cells start fully warm.
    main_core.warm_single_refs();
    let mut cluster = Cluster::from_core(main_core);
    let mut plan = FaultPlan::none();
    for &(node, at) in &args.kills {
        plan = plan.crash(node, at);
    }
    cluster.set_faults(plan);
    if args.speculate {
        cluster.set_speculation(Some(Speculation::default()));
    }

    println!(
        "# Rack-scale TPC-H: {NODES} DPU nodes, hash-sharded on orderkey, k={replicas} \
         ({} lineitem rows)\n",
        cluster.full().lineitem.rows()
    );
    if !default_topology {
        println!(
            "Topology: {} racks of {} nodes, spine/leaf, {}:1 oversubscription \
             (failover timeout {:.1} µs)\n",
            args.racks,
            NODES / args.racks,
            args.oversub,
            cluster.fabric.failover_timeout().as_secs(Frequency::DPU_CORE) * 1e6
        );
    }
    if !args.kills.is_empty() {
        for &(node, at) in &args.kills {
            println!("Injected fault: node {node} crashes at t={at:.3} s");
        }
        println!();
    }
    if args.speculate {
        println!("Speculative re-execution armed (deadline = p50 shard time × 1.25).\n");
    }
    let load = cluster.load_seconds();
    println!("Initial shard load (scatter + dimension broadcast): {:.3} ms", load * 1e3);
    let skew = cluster.sharded().skew_report();
    println!(
        "Shard balance: max {} rows vs mean {:.1} (imbalance {:.3}×, CV {:.4}, Gini {:.4})\n",
        skew.max_rows, skew.mean_rows, skew.imbalance, skew.cv, skew.gini
    );

    // Resident footprint of the FOR/bit-packed columns, merged across
    // every shard (dimensions really are replicated per shard, so the
    // sums are the rack's resident bytes). Indented lines break each
    // table down per column with its average stored bits per value.
    println!("## Columnar compression (FOR/bit-packed, per shard column)\n");
    header(&["Table / column", "rows", "flat (KiB)", "resident (KiB)", "ratio", "bits/value"]);
    let comp = cluster.sharded().compression_report();
    for t in &comp {
        let (flat, packed) = (t.flat_bytes(), t.packed_bytes());
        row(&[
            t.table.clone(),
            format!("{}", t.rows),
            format!("{:.1}", flat as f64 / 1024.0),
            format!("{:.1}", packed as f64 / 1024.0),
            format!("{:.2}x", t.ratio()),
            format!("{:.1}", if t.rows == 0 { 0.0 } else { packed as f64 * 8.0 / t.rows as f64 }),
        ]);
        for c in &t.columns {
            row(&[
                format!("  {}", c.name),
                format!("{}", c.rows),
                format!("{:.1}", c.flat_bytes as f64 / 1024.0),
                format!("{:.1}", c.packed_bytes as f64 / 1024.0),
                format!(
                    "{:.2}x",
                    if c.packed_bytes == 0 {
                        1.0
                    } else {
                        c.flat_bytes as f64 / c.packed_bytes as f64
                    }
                ),
                format!("{:.1}", c.bits_per_value()),
            ]);
        }
    }
    let flat_total: u64 = comp.iter().map(|t| t.flat_bytes()).sum();
    let packed_total: u64 = comp.iter().map(|t| t.packed_bytes()).sum();
    println!(
        "\nResident total: {:.2} MiB packed vs {:.2} MiB flat ({:.2}x compression).\n",
        packed_total as f64 / (1024.0 * 1024.0),
        flat_total as f64 / (1024.0 * 1024.0),
        flat_total as f64 / packed_total.max(1) as f64
    );

    header(&[
        "Query",
        "local (ms)",
        "fabric (ms)",
        "merge (ms)",
        "total (ms)",
        "failovers",
        "== single-node",
    ]);
    let mut queries: Vec<Json> = Vec::new();
    let mut templates: Vec<Template> = Vec::new();
    for id in QueryId::ALL {
        let r = match cluster.try_run_at(id, 0.0) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e} — raise --replicas to survive these kills", id.name());
                std::process::exit(1);
            }
        };
        assert!(r.matches_single(), "{} distributed result diverged from single-node", r.id.name());
        row(&[
            r.id.name().to_string(),
            format!("{:.3}", r.cost.local_seconds * 1e3),
            format!("{:.3}", r.cost.fabric_seconds * 1e3),
            format!("{:.3}", r.cost.merge_seconds * 1e3),
            format!("{:.3}", r.cost.total_seconds() * 1e3),
            format!("{}", r.cost.failovers),
            "yes".into(),
        ]);
        queries.push(Json::obj([
            ("query", Json::str(r.id.name())),
            ("local_seconds", Json::num(r.cost.local_seconds)),
            ("fabric_seconds", Json::num(r.cost.fabric_seconds)),
            ("merge_seconds", Json::num(r.cost.merge_seconds)),
            ("total_seconds", Json::num(r.cost.total_seconds())),
            ("fabric_bytes", Json::num(r.cost.fabric_bytes as f64)),
            ("failovers", Json::num(r.cost.failovers as f64)),
            ("matches_single_node", Json::Bool(true)),
        ]));
        templates.push(Template {
            name: r.id.name(),
            cost: r.cost.clone(),
            xeon_seconds: r.single_cost.xeon.seconds,
        });
    }
    println!("\nAll {} distributed query results are bit-identical to single-node.", queries.len());
    if args.speculate {
        let specs: usize = templates.iter().map(|t| t.cost.speculations).sum();
        println!("Speculative backups launched across the suite: {specs}.");
    }

    // Print-only planner sections: EXPLAIN and/or a planner-driven
    // serving re-run. Neither touches the emitted JSON.
    if args.explain || args.planner.is_some() {
        let planner = Planner::new(cluster.core());
        if args.explain {
            println!("\n## EXPLAIN (planner-chosen plans, est vs actual)\n");
            for id in QueryId::ALL {
                let choice = planner.plan(id);
                let run = cluster
                    .run_planned(&choice.plan, 0.0)
                    .expect("planner plans run on the same cluster as the suite");
                assert!(run.query.matches_single(), "{} planner plan diverged", id.name());
                println!("{}", explain(&choice.plan, &choice.estimate, Some(&run)));
            }
        }
        if let Some(mode) = args.planner {
            planner_serve(mode, &planner, &mut cluster, &templates);
        }
    }

    // Serve the suite to a closed-loop client population.
    let rack = XeonRack::rack_42u();
    let serve_cfg = ServeConfig::default();
    let report = serve(&templates, cluster.watts(), &rack, &serve_cfg);

    println!(
        "\n## Serving ({} clients, {:.0} s horizon, batch ≤ {})\n",
        serve_cfg.clients, serve_cfg.duration_seconds, serve_cfg.max_batch
    );
    header(&["Metric", "DPU rack slice", "Xeon rack (42U)"]);
    row(&["QPS".into(), format!("{:.1}", report.qps), format!("{:.1}", report.xeon_qps)]);
    row(&[
        "Watts".into(),
        format!("{:.0}", report.cluster_watts),
        format!("{:.0}", report.xeon_watts),
    ]);
    row(&[
        "QPS/W".into(),
        format!("{:.3}", report.qps / report.cluster_watts),
        format!("{:.3}", report.xeon_qps / report.xeon_watts),
    ]);
    println!(
        "\nLatency: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, mean {:.1} ms (mean batch {:.1})",
        report.p50 * 1e3,
        report.p95 * 1e3,
        report.p99 * 1e3,
        report.mean_latency * 1e3,
        report.mean_batch
    );
    println!("Admission: {} completed, {} rejected.", report.completed, report.rejected);
    println!(
        "\nPerformance/watt vs Xeon rack: {:.1}× (paper's single-node TPC-H geomean: 15×)",
        report.perf_per_watt_gain
    );

    // Extra flag-driven serving run: concurrency and/or SLO-adaptive
    // batching over the shared fabric. Printed only — the emitted JSON
    // below never depends on flags.
    if args.concurrency > 1 || args.slo_ms.is_some() {
        let flagged = ServeConfig {
            concurrency: args.concurrency.max(1),
            adaptive: args.slo_ms.is_some(),
            slo_seconds: args.slo_ms.map(|ms| ms / 1e3),
            ..serve_cfg.clone()
        };
        let fabric = cluster.cfg().fabric.clone();
        let r = serve_pipeline_hooked(
            &templates,
            cluster.watts(),
            &rack,
            &flagged,
            None,
            Some((&fabric, NODES)),
            None,
        );
        println!(
            "\n## Serving with flags (concurrency {}, adaptive {}, SLO {})\n",
            flagged.concurrency,
            if flagged.adaptive { "on" } else { "off" },
            flagged.slo_seconds.map_or("none".to_string(), |s| format!("{:.0} ms", s * 1e3)),
        );
        println!(
            "QPS {:.1}, p99 {:.1} ms, SLO attainment {:.4}, mean batch {:.2}",
            r.qps,
            r.p99 * 1e3,
            r.slo_attainment,
            r.mean_batch
        );
        println!(
            "Fabric per batch: {:.3} ms shared vs {:.3} ms isolated",
            r.mean_fabric_seconds * 1e3,
            r.mean_fabric_isolated_seconds * 1e3
        );
    }

    // Open-loop multi-tenant serving: weighted-fair shares, priority
    // preemption, and the flagged arrival trace over this cluster's
    // topology. Printed only — the emitted JSON never depends on it.
    if args.tenants > 1 || args.trace.is_some() {
        const TENANT_NAMES: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
        let t = args.tenants.clamp(1, TENANT_NAMES.len());
        // Tenant 0 is the latency class (highest priority, tightest
        // share); the rest split the remaining weight evenly.
        let tenants: Vec<Tenant> = (0..t)
            .map(|i| Tenant {
                name: TENANT_NAMES[i],
                weight: if i == 0 { 2.0 } else { 1.0 },
                priority: u8::from(i == 0),
                slo_seconds: 1.0,
                rate_qps: 24.0 / t as f64,
            })
            .collect();
        let tcfg = TenantServeConfig {
            trace: args.trace.unwrap_or(TraceShape::Steady),
            ..TenantServeConfig::default()
        };
        let fabric = cluster.cfg().fabric.clone();
        let topo = cluster.cfg().topology();
        let mt = serve_tenants(&templates, &tenants, &tcfg, Some((&fabric, &topo)), None);
        println!(
            "\n## Multi-tenant serving ({} tenants, {:?} trace, preemption {})\n",
            t,
            tcfg.trace,
            if tcfg.preemption { "on" } else { "off" }
        );
        header(&["tenant", "arrived", "rejected", "QPS", "p50 (ms)", "p99 (ms)", "SLO att"]);
        for r in &mt.tenants {
            row(&[
                r.name.into(),
                format!("{}", r.arrived),
                format!("{}", r.rejected),
                format!("{:.2}", r.qps),
                format!("{:.1}", r.p50 * 1e3),
                format!("{:.1}", r.p99 * 1e3),
                format!("{:.4}", r.slo_attainment),
            ]);
        }
        println!(
            "\nAggregate: {:.1} QPS, {} preemptions ({:.3} s wasted), fabric {:.3} ms \
             shared vs {:.3} ms isolated.",
            mt.qps,
            mt.preemptions,
            mt.wasted_seconds,
            mt.mean_fabric_seconds * 1e3,
            mt.mean_fabric_isolated_seconds * 1e3
        );
    }

    // The suite baseline is a committed, nightly-byte-diffed file, so a
    // run whose flags reshape the cluster (and hence costs, failovers,
    // or load) must not rewrite it. Serving flags don't matter: the
    // flagged serving run above is print-only.
    let default_cluster =
        replicas == 1 && args.kills.is_empty() && !args.speculate && default_topology;
    if !default_cluster {
        println!(
            "\n(BENCH_rack_tpch.json not rewritten: cluster flags are set; the \
             committed baseline is the default-config run.)"
        );
    }
    if default_cluster {
        emit(
            "rack_tpch",
            &Json::obj([
                ("figure", Json::str("rack_tpch")),
                ("nodes", Json::num(NODES as f64)),
                ("replicas", Json::num(replicas as f64)),
                ("scale", Json::num(scale as f64)),
                ("load_seconds", Json::num(load)),
                ("queries", Json::Arr(queries)),
                // Per-query regression notes: simulated single-query QPS and
                // latency, byte-diffed in the nightly tpch-scale job so a
                // kernel or coordinator change that moves simulated cost
                // shows up as a baseline diff.
                (
                    "regression",
                    Json::Arr(
                        templates
                            .iter()
                            .map(|t| {
                                Json::obj([
                                    ("query", Json::str(t.name)),
                                    ("qps", Json::num(1.0 / t.cost.total_seconds())),
                                    ("latency_seconds", Json::num(t.cost.total_seconds())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("qps", Json::num(report.qps)),
                ("p50_seconds", Json::num(report.p50)),
                ("p95_seconds", Json::num(report.p95)),
                ("p99_seconds", Json::num(report.p99)),
                ("mean_batch", Json::num(report.mean_batch)),
                ("completed", Json::num(report.completed as f64)),
                ("rejected", Json::num(report.rejected as f64)),
                ("cluster_watts", Json::num(report.cluster_watts)),
                ("xeon_qps", Json::num(report.xeon_qps)),
                ("xeon_watts", Json::num(report.xeon_watts)),
                ("perf_per_watt_gain", Json::num(report.perf_per_watt_gain)),
            ]),
        );
    }

    // Failover sweep: QPS and p99 vs number of failed nodes at each
    // replication factor. Failed sets are non-adjacent ({1}, {1, 4}) so
    // chained declustering at k = 2 still covers every shard with two
    // failures; k = 1 loses shards to any failure and reports QPS 0.
    //
    // Each of the nine cells forks its (policy, k) core — no database
    // clone, no re-shard — and runs on the host pool. Results come back
    // in input order and all printing/JSON assembly happens after the
    // fan-out, so the report is byte-identical at any DPU_THREADS.
    println!("\n## Failover sweep (8 nodes, crash at t=0)\n");
    header(&["k", "failed nodes", "available", "QPS", "p99 (ms)", "failovers"]);
    let fail_sets: [&[usize]; 3] = [&[], &[1], &[1, 4]];
    let mut cells: Vec<(usize, &[usize])> = Vec::new();
    for k in 1..=3usize {
        for fails in fail_sets {
            cells.push((k, fails));
        }
    }
    let cell_results = Pool::global().par_map(cells, |(k, fails)| {
        let mut c = Cluster::from_core(cores[k - 1].clone());
        let mut plan = FaultPlan::none();
        for &f in fails {
            plan = plan.crash(f, 0.0);
        }
        c.set_faults(plan);
        let mut available = true;
        let mut failovers = 0usize;
        let mut tmpls: Vec<Template> = Vec::new();
        for id in QueryId::ALL {
            match c.try_run_at(id, 0.0) {
                Ok(q) => {
                    assert!(q.matches_single(), "{} diverged under faults", id.name());
                    failovers += q.cost.failovers;
                    tmpls.push(Template {
                        name: q.id.name(),
                        cost: q.cost.clone(),
                        xeon_seconds: q.single_cost.xeon.seconds,
                    });
                }
                Err(_) => {
                    available = false;
                    break;
                }
            }
        }
        let (qps, p99) = if available {
            let r = serve(&tmpls, c.watts(), &rack, &serve_cfg);
            (r.qps, r.p99)
        } else {
            (0.0, 0.0)
        };
        (k, fails, available, qps, p99, failovers)
    });
    let mut sweep: Vec<Json> = Vec::new();
    for (k, fails, available, qps, p99, failovers) in cell_results {
        row(&[
            format!("{k}"),
            format!("{fails:?}"),
            if available { "yes".into() } else { "no".into() },
            format!("{qps:.1}"),
            format!("{:.1}", p99 * 1e3),
            format!("{failovers}"),
        ]);
        sweep.push(Json::obj([
            ("replicas", Json::num(k as f64)),
            ("failed_nodes", Json::num(fails.len() as f64)),
            ("available", Json::Bool(available)),
            ("qps", Json::num(qps)),
            ("p99_seconds", Json::num(p99)),
            ("failovers", Json::num(failovers as f64)),
        ]));
    }
    emit(
        "rack_failover",
        &Json::obj([
            ("figure", Json::str("rack_failover")),
            ("nodes", Json::num(NODES as f64)),
            ("scale", Json::num(scale as f64)),
            ("serve_seed", Json::num(serve_cfg.seed as f64)),
            ("sweep", Json::Arr(sweep)),
        ]),
    );

    // ── Serving-pipeline baseline ─────────────────────────────────────
    // Everything below runs on dedicated forks so the emitted
    // BENCH_rack_serve.json is byte-identical regardless of flags.
    let slo = 1.5f64;
    let mut base = Cluster::from_core(cores[0].clone());
    let base_templates = suite_templates(&mut base);
    let base_watts = base.watts();

    // Batching-policy sweep: SLO attainment of the adaptive controller
    // vs every fixed depth across offered loads. The acceptance bar is
    // weak dominance at the two highest loads — the deep-overload regime
    // where the queue-pressure override batches at the cap — asserted
    // here so CI fails if a controller change regresses it. The grid sits
    // one octave higher than the pre-compression sweep: FOR/bit-packing
    // cut scan bytes ~2×, so the crossover where mid depths briefly edge
    // the cap moved from ~32 to ~64 clients and the top two loads must
    // stay past it. Each (load, policy) cell is an independent serve over
    // the shared templates — the whole grid fans out on the host pool,
    // then prints in input order.
    println!("\n## Batching policy sweep (SLO {slo:.1} s, concurrency 1)\n");
    header(&["clients", "policy", "QPS", "p99 (ms)", "SLO att", "mean batch"]);
    let policies: [(&str, usize, bool); 5] = [
        ("fixed-1", 1, false),
        ("fixed-4", 4, false),
        ("fixed-8", 8, false),
        ("fixed-16", 16, false),
        ("adaptive", 16, true),
    ];
    let load_points = [16usize, 32, 64, 128, 256];
    let mut grid_cells: Vec<(usize, (&str, usize, bool))> = Vec::new();
    for &clients in &load_points {
        for p in policies {
            grid_cells.push((clients, p));
        }
    }
    let grid = Pool::global().par_map(grid_cells, |(clients, (label, mb, adaptive))| {
        let cfg = ServeConfig {
            clients,
            max_batch: mb,
            adaptive,
            slo_seconds: Some(slo),
            ..ServeConfig::default()
        };
        let r = serve(&base_templates, base_watts, &rack, &cfg);
        (clients, label, adaptive, r)
    });
    let mut loads_json: Vec<Json> = Vec::new();
    for (li, load_cells) in grid.chunks(policies.len()).enumerate() {
        let mut best_fixed = 0.0f64;
        let mut adaptive_att = 0.0f64;
        let clients = load_points[li];
        for (clients, label, adaptive, r) in load_cells {
            row(&[
                format!("{clients}"),
                (*label).into(),
                format!("{:.1}", r.qps),
                format!("{:.1}", r.p99 * 1e3),
                format!("{:.4}", r.slo_attainment),
                format!("{:.2}", r.mean_batch),
            ]);
            if *adaptive {
                adaptive_att = r.slo_attainment;
            } else {
                best_fixed = best_fixed.max(r.slo_attainment);
            }
            loads_json.push(Json::obj([
                ("clients", Json::num(*clients as f64)),
                ("policy", Json::str(*label)),
                ("qps", Json::num(r.qps)),
                ("p99_seconds", Json::num(r.p99)),
                ("slo_attainment", Json::num(r.slo_attainment)),
                ("mean_batch", Json::num(r.mean_batch)),
            ]));
        }
        if li >= load_points.len() - 2 {
            assert!(
                adaptive_att >= best_fixed,
                "adaptive batching must weakly dominate every fixed depth at {clients} clients: \
                 {adaptive_att} vs best fixed {best_fixed}"
            );
        }
    }

    // Q10 fabric interference: eight concurrent all-to-all shuffles
    // queue on the shared switch, so the per-batch fabric time must sit
    // strictly above the isolated cost; a lone slot pays exactly it.
    let q10 = base_templates.iter().find(|t| t.name == "Q10").expect("Q10 in suite").clone();
    let fabric = base.cfg().fabric.clone();
    let icfg = ServeConfig {
        clients: 32,
        think_seconds: 0.0,
        max_batch: 4,
        duration_seconds: 20.0,
        concurrency: 8,
        ..ServeConfig::default()
    };
    let shared = serve_pipeline_hooked(
        std::slice::from_ref(&q10),
        base.watts(),
        &rack,
        &icfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    let solo_cfg = ServeConfig { clients: 1, max_batch: 1, concurrency: 1, ..icfg.clone() };
    let solo = serve_pipeline_hooked(
        &[q10],
        base.watts(),
        &rack,
        &solo_cfg,
        None,
        Some((&fabric, NODES)),
        None,
    );
    assert!(
        shared.mean_fabric_seconds > shared.mean_fabric_isolated_seconds,
        "concurrent Q10 shuffles must contend on the shared switch"
    );
    assert!(
        (solo.mean_fabric_seconds - solo.mean_fabric_isolated_seconds).abs() < 1e-12,
        "an uncontended shuffle must cost exactly the isolated time"
    );
    println!("\n## Q10 fabric interference (concurrency {}, zero think time)\n", icfg.concurrency);
    println!(
        "Shared fabric per batch: {:.3} µs vs isolated {:.3} µs ({:.4}× inflation); \
         solo slot: {:.3} µs (exactly isolated).",
        shared.mean_fabric_seconds * 1e6,
        shared.mean_fabric_isolated_seconds * 1e6,
        shared.mean_fabric_seconds / shared.mean_fabric_isolated_seconds,
        solo.mean_fabric_seconds * 1e6
    );

    // Speculative straggler re-execution: one node computing at quarter
    // speed for the whole horizon. The backup replica must recover most
    // of the straggler-free QPS, bit-identically (suite_templates
    // asserts every result against single-node execution).
    // Offered load sits between the unmitigated straggler's capacity and
    // the speculative one: the straggler saturates and sheds throughput,
    // speculation keeps the rack close to the healthy closed-loop rate.
    // The three configurations fork the shared k=2 core and run
    // concurrently on the host pool.
    let straggle = FaultPlan::none().straggle(3, 0.0, 1e9, 0.25);
    let spec_serve = ServeConfig {
        clients: 96,
        think_seconds: 6.0,
        max_batch: 16,
        duration_seconds: 30.0,
        ..ServeConfig::default()
    };
    let spec_cells: Vec<(bool, bool)> = vec![(false, false), (true, false), (true, true)];
    let spec_results = Pool::global().par_map(spec_cells, |(straggled, speculate)| {
        let mut c = Cluster::from_core(cores[1].clone()); // k = 2
        if straggled {
            c.set_faults(straggle.clone());
        }
        if speculate {
            c.set_speculation(Some(Speculation::default()));
        }
        let tmpls = suite_templates(&mut c);
        let speculations: usize = tmpls.iter().map(|t| t.cost.speculations).sum();
        let qps = serve(&tmpls, c.watts(), &rack, &spec_serve).qps;
        (qps, speculations)
    });
    let (healthy_qps, _) = spec_results[0];
    let (straggled_qps, _) = spec_results[1];
    let (spec_qps, speculations) = spec_results[2];
    assert!(speculations > 0, "the 4× straggler must trip the speculation deadline");
    let recovery = spec_qps / healthy_qps;
    assert!(
        recovery >= 0.70,
        "speculation must recover ≥70% of straggler-free QPS: {spec_qps} vs {healthy_qps}"
    );
    println!("\n## Speculative straggler re-execution (node 3 at 0.25× compute, k=2)\n");
    header(&["configuration", "QPS", "vs healthy"]);
    row(&["healthy".into(), format!("{healthy_qps:.1}"), "1.000".into()]);
    row(&[
        "straggler, no mitigation".into(),
        format!("{straggled_qps:.1}"),
        format!("{:.3}", straggled_qps / healthy_qps),
    ]);
    row(&[
        format!("straggler + speculation ({speculations} backups)"),
        format!("{spec_qps:.1}"),
        format!("{recovery:.3}"),
    ]);

    emit(
        "rack_serve",
        &Json::obj([
            ("figure", Json::str("rack_serve")),
            ("nodes", Json::num(NODES as f64)),
            ("scale", Json::num(scale as f64)),
            ("slo_seconds", Json::num(slo)),
            ("loads", Json::Arr(loads_json)),
            (
                "q10_interference",
                Json::obj([
                    ("concurrency", Json::num(icfg.concurrency as f64)),
                    ("shared_fabric_seconds", Json::num(shared.mean_fabric_seconds)),
                    ("isolated_fabric_seconds", Json::num(shared.mean_fabric_isolated_seconds)),
                    ("solo_fabric_seconds", Json::num(solo.mean_fabric_seconds)),
                ]),
            ),
            (
                "speculation",
                Json::obj([
                    ("healthy_qps", Json::num(healthy_qps)),
                    ("straggled_qps", Json::num(straggled_qps)),
                    ("speculative_qps", Json::num(spec_qps)),
                    ("recovery", Json::num(recovery)),
                    ("speculations", Json::num(speculations as f64)),
                ]),
            ),
        ]),
    );
}
