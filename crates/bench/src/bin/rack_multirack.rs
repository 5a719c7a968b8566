//! Spine/leaf multi-rack study: the TPC-H suite and the open-loop
//! multi-tenant serving loop swept across rack counts, uplink
//! oversubscription ratios, tenant mixes and offered loads, plus a
//! whole-rack-failure drill.
//!
//! Four sections, each asserting its headline property:
//!
//! 1. **Rack-count sweep** — the suite over 1/2/4 racks (non-blocking
//!    spine): every distributed result stays bit-identical to
//!    single-node execution at every rack count, and the
//!    topology-derived failover timeout grows from the flat round trip.
//! 2. **Oversubscription sweep** — Q10's all-to-all shuffle at the full
//!    rack count as the uplinks thin from 1:1 to 8:1: cross-rack bytes
//!    are invariant, fabric seconds must not decrease, and the 8:1
//!    spine must be strictly slower than 1:1 (spine saturation).
//! 3. **Tenant × load sweep** — open-loop diurnal serving with 1/2/4
//!    weighted-fair tenants at 0.5/1/2× the suite's serial capacity,
//!    reporting per-tenant QPS, p99 and SLO attainment.
//! 4. **Whole-rack failure** — all nodes of one rack crash at once.
//!    With k = 2 rack-aware placement every shard keeps a live replica
//!    in another rack, so the suite still runs bit-identically (with
//!    failovers); with k = 1 the same kill is a clean unavailability
//!    error, never a wrong answer. The dead rack is then re-replicated
//!    from cross-rack survivors and the serving loop is driven through
//!    the degraded window, showing the QPS dip and recovery.
//!
//! Flags (`--racks <r>`, `--oversub <x>`, `--tenants <t>`,
//! `--trace <closed|diurnal|burst>`) pin a sweep axis to one value for
//! exploration. The committed `BENCH_multirack.json` is only written by
//! a default (flagless) run, and every number in it derives from the
//! deterministic simulation — byte-identical at any `DPU_THREADS`.

use std::sync::Arc;

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_cluster::{
    serve_tenants, Cluster, ClusterConfig, ClusterCore, DegradedWindow, Fabric, FaultPlan, QueryId,
    ShardPolicy, SingleRefCache, Template, Tenant, TenantServeConfig, Topology, TraceShape,
};
use dpu_pool::Pool;
use dpu_sim::{Frequency, Time};
use dpu_sql::tpch;

const NODES: usize = 16;
const REPLICAS: usize = 2;

struct Args {
    racks: Option<usize>,
    oversub: Option<f64>,
    tenants: Option<usize>,
    trace: Option<TraceShape>,
}

fn parse_args() -> Args {
    let mut parsed = Args { racks: None, oversub: None, tenants: None, trace: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--racks" => {
                let v = args.next().expect("--racks needs a value");
                parsed.racks = Some(v.parse().expect("--racks takes an integer"));
            }
            "--oversub" => {
                let v = args.next().expect("--oversub needs a value");
                parsed.oversub = Some(v.parse().expect("--oversub takes a ratio"));
            }
            "--tenants" => {
                let v = args.next().expect("--tenants needs a value");
                parsed.tenants = Some(v.parse().expect("--tenants takes an integer"));
            }
            "--trace" => {
                let v = args.next().expect("--trace needs closed|diurnal|burst");
                parsed.trace = Some(match v.as_str() {
                    "closed" => TraceShape::Steady,
                    "diurnal" => TraceShape::Diurnal { period_seconds: 20.0, amplitude: 0.8 },
                    "burst" => TraceShape::Burst {
                        period_seconds: 10.0,
                        burst_seconds: 2.0,
                        multiplier: 4.0,
                    },
                    other => panic!("--trace takes closed|diurnal|burst, got {other}"),
                });
            }
            other => panic!(
                "unknown flag {other} (use --racks <r> / --oversub <x> / --tenants <t> / \
                 --trace <closed|diurnal|burst>)"
            ),
        }
    }
    parsed
}

/// Runs the 8-query suite, asserting bit-identity against single-node
/// execution; returns serving templates and the total failover count.
fn suite_templates(c: &mut Cluster) -> (Vec<Template>, usize) {
    let mut failovers = 0usize;
    let templates = QueryId::ALL
        .iter()
        .map(|&id| {
            let q = c.try_run_at(id, 0.0).expect("every shard must have a live replica");
            assert!(q.matches_single(), "{} diverged from single-node", id.name());
            failovers += q.cost.failovers;
            Template {
                name: q.id.name(),
                cost: q.cost.clone(),
                xeon_seconds: q.single_cost.xeon.seconds,
            }
        })
        .collect();
    (templates, failovers)
}

/// The sweep's tenant mix: tenant 0 is the latency class (double
/// weight, higher priority); the rest split the remainder evenly.
fn tenant_mix(t: usize, total_rate: f64) -> Vec<Tenant> {
    const NAMES: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
    assert!(t >= 1 && t <= NAMES.len(), "tenant count must be 1..=8");
    (0..t)
        .map(|i| Tenant {
            name: NAMES[i],
            weight: if i == 0 { 2.0 } else { 1.0 },
            priority: u8::from(i == 0),
            slo_seconds: 1.0,
            rate_qps: total_rate / t as f64,
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let default_run = args.racks.is_none()
        && args.oversub.is_none()
        && args.tenants.is_none()
        && args.trace.is_none();
    let rack_list: Vec<usize> = args.racks.map_or_else(|| vec![1, 2, 4], |r| vec![r]);
    let oversub_list: Vec<f64> = args.oversub.map_or_else(|| vec![1.0, 2.0, 4.0, 8.0], |o| vec![o]);
    let tenant_list: Vec<usize> = args.tenants.map_or_else(|| vec![1, 2, 4], |t| vec![t]);
    let trace = args.trace.unwrap_or(TraceShape::Diurnal { period_seconds: 20.0, amplitude: 0.8 });
    // The deep-sweep rack count / oversubscription (sections 2–4).
    let spine_racks = *rack_list.last().expect("rack list is non-empty");
    let spine_oversub = args.oversub.unwrap_or(4.0);

    let scale = 30_000u64; // cost queries at SF≈100 cardinalities
    let db = Arc::new(tpch::generate(3000, 2026));
    let policy = ShardPolicy::hash(NODES);
    let single = Arc::new(SingleRefCache::new());
    let core_for = |racks: usize, oversub: f64, k: usize| {
        ClusterCore::with_shared(
            db.clone(),
            &policy,
            ClusterConfig::prototype_slice(NODES, scale)
                .with_replicas(k)
                .with_topology(racks, oversub),
            single.clone(),
        )
    };

    println!(
        "# Spine/leaf multi-rack: {NODES} DPU nodes, k={REPLICAS} rack-aware chained \
         declustering ({} lineitem rows)\n",
        db.lineitem.rows()
    );

    // ── 1. Rack-count sweep ──────────────────────────────────────────
    println!("## Rack-count sweep (non-blocking spine, suite bit-identity)\n");
    header(&["racks", "nodes/rack", "timeout (µs)", "load (ms)", "suite total (ms)", "== single"]);
    let rack_cells = Pool::global().par_map(rack_list.clone(), |racks| {
        let core = core_for(racks, 1.0, REPLICAS);
        core.warm_single_refs();
        let mut c = Cluster::from_core(core);
        let timeout = c.fabric.failover_timeout().as_secs(Frequency::DPU_CORE);
        let load = c.load_seconds();
        let (templates, failovers) = suite_templates(&mut c);
        assert_eq!(failovers, 0, "a healthy cluster never fails over");
        (racks, timeout, load, templates)
    });
    let flat_timeout = rack_cells.iter().find(|(r, ..)| *r == 1).map(|(_, t, ..)| *t);
    let mut rack_json: Vec<Json> = Vec::new();
    for (racks, timeout, load, templates) in &rack_cells {
        let suite_total: f64 = templates.iter().map(|t| t.cost.total_seconds()).sum();
        if let (true, Some(flat)) = (*racks > 1, flat_timeout) {
            assert!(*timeout > flat, "spine probes cross two extra hops, so the timeout must grow");
        }
        row(&[
            format!("{racks}"),
            format!("{}", NODES / racks),
            format!("{:.1}", timeout * 1e6),
            format!("{:.3}", load * 1e3),
            format!("{:.3}", suite_total * 1e3),
            "yes".into(),
        ]);
        rack_json.push(Json::obj([
            ("racks", Json::num(*racks as f64)),
            ("failover_timeout_seconds", Json::num(*timeout)),
            ("load_seconds", Json::num(*load)),
            (
                "suite",
                Json::Arr(
                    templates
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("query", Json::str(t.name)),
                                ("total_seconds", Json::num(t.cost.total_seconds())),
                                ("fabric_seconds", Json::num(t.cost.fabric_seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    println!("\nAll suite results bit-identical to single-node at every rack count.");

    // Serial capacity (1 / mean suite query time) at the deep-sweep
    // topology — the tenant sweeps express offered load against it.
    let spine_templates = rack_cells
        .iter()
        .find(|(r, ..)| *r == spine_racks)
        .map(|(_, _, _, t)| t.clone())
        .unwrap_or_else(|| {
            let core = core_for(spine_racks, 1.0, REPLICAS);
            core.warm_single_refs();
            suite_templates(&mut Cluster::from_core(core)).0
        });
    let mean_total: f64 = spine_templates.iter().map(|t| t.cost.total_seconds()).sum::<f64>()
        / spine_templates.len() as f64;
    let capacity = 1.0 / mean_total;

    // ── 2. Oversubscription sweep ────────────────────────────────────
    println!(
        "\n## Oversubscription sweep ({spine_racks} racks, Q10 shuffle + bulk cross-rack \
         all-to-all)\n"
    );
    header(&[
        "oversub",
        "uplink (B/cyc)",
        "Q10 fabric (ms)",
        "spine bytes",
        "x-rack 16 MiB (µs)",
        "agg GB/s",
    ]);
    const BULK: u64 = 1 << 20; // 1 MiB per node, cross-rack
    let oversub_cells = Pool::global().par_map(oversub_list.clone(), |oversub| {
        let core = core_for(spine_racks, oversub, REPLICAS);
        core.warm_single_refs();
        let mut c = Cluster::from_core(core);
        let q10 = c.try_run_at(QueryId::Q10, 0.0).expect("healthy cluster");
        assert!(q10.matches_single(), "Q10 diverged at oversub {oversub}");
        let spine_bytes = c.fabric.spine_bytes();
        let fabric_cfg = c.cfg().fabric.clone();
        let topo = c.cfg().topology();
        let uplink = topo.uplink_bytes_per_cycle(&fabric_cfg);
        // Bulk stress: every node streams 1 MiB to its cross-rack
        // partner at t = 0, loading every uplink at once. This is where
        // oversubscription bites — the suite's shuffles are latency-
        // dominated, but bulk re-replication and spills are not.
        let m = NODES / spine_racks;
        let mut f =
            Fabric::with_topology(Topology::new(NODES, spine_racks, oversub), fabric_cfg.clone());
        let mut done = Time::ZERO;
        for src in 0..NODES {
            let dst = if spine_racks > 1 { (src + m) % NODES } else { (src + 1) % NODES };
            done = done.max(f.transfer(Time::ZERO, src, dst, BULK));
        }
        let bulk_seconds = done.as_secs(Frequency::DPU_CORE);
        (oversub, uplink, q10.cost.fabric_seconds, spine_bytes, bulk_seconds)
    });
    let mut oversub_json: Vec<Json> = Vec::new();
    for (i, (oversub, uplink, q10_fabric, spine_bytes, bulk_seconds)) in
        oversub_cells.iter().enumerate()
    {
        if spine_racks > 1 {
            assert!(*spine_bytes > 0, "Q10's shuffle must cross the spine");
            assert_eq!(
                *spine_bytes, oversub_cells[0].3,
                "routing is topology-determined: oversub changes rates, not bytes"
            );
            if i > 0 {
                assert!(
                    *q10_fabric >= oversub_cells[i - 1].2,
                    "thinner uplinks cannot speed the shuffle up"
                );
                assert!(
                    *bulk_seconds >= oversub_cells[i - 1].4,
                    "thinner uplinks cannot speed bulk cross-rack traffic up"
                );
            }
        }
        let gbps = (NODES as u64 * BULK) as f64 / bulk_seconds / 1e9;
        row(&[
            format!("{oversub}"),
            format!("{uplink}"),
            format!("{:.3}", q10_fabric * 1e3),
            format!("{spine_bytes}"),
            format!("{:.1}", bulk_seconds * 1e6),
            format!("{gbps:.2}"),
        ]);
        oversub_json.push(Json::obj([
            ("oversub", Json::num(*oversub)),
            ("uplink_bytes_per_cycle", Json::num(*uplink as f64)),
            ("q10_fabric_seconds", Json::num(*q10_fabric)),
            ("spine_bytes", Json::num(*spine_bytes as f64)),
            ("bulk_crossrack_seconds", Json::num(*bulk_seconds)),
            ("bulk_aggregate_gbps", Json::num(gbps)),
        ]));
    }
    if spine_racks > 1 && oversub_cells.len() > 1 {
        let (first, last) = (oversub_cells.first().unwrap(), oversub_cells.last().unwrap());
        assert!(
            last.4 > first.4,
            "spine saturation must be visible in bulk traffic: {}:1 took {} s vs {}:1 {} s",
            last.0,
            last.4,
            first.0,
            first.4
        );
        println!(
            "\nSpine saturation: 16 MiB cross-rack all-to-all takes {:.1} µs at {}:1 vs \
             {:.1} µs at {}:1 ({:.2}× slower on thin uplinks).",
            last.4 * 1e6,
            last.0,
            first.4 * 1e6,
            first.0,
            last.4 / first.4
        );
    }

    // ── 3. Tenant × load sweep ───────────────────────────────────────
    let spine_core = core_for(spine_racks, spine_oversub, REPLICAS);
    spine_core.warm_single_refs();
    let mut spine_cluster = Cluster::from_core(spine_core.clone());
    let (serve_templates, _) = suite_templates(&mut spine_cluster);
    let serve_fabric = spine_cluster.cfg().fabric.clone();
    let serve_topo = spine_cluster.cfg().topology();
    println!(
        "\n## Tenant × load sweep ({spine_racks} racks, {spine_oversub}:1, {trace:?} trace)\n"
    );
    header(&["tenants", "load", "QPS", "rejected", "preempt", "t0 p99 (ms)", "t0 SLO att"]);
    let loads = [0.5f64, 1.0, 2.0];
    let mut sweep_cells: Vec<(usize, f64)> = Vec::new();
    for &t in &tenant_list {
        for &load in &loads {
            sweep_cells.push((t, load));
        }
    }
    let tenant_cells = Pool::global().par_map(sweep_cells, |(t, load)| {
        let cfg = TenantServeConfig { trace, ..TenantServeConfig::default() };
        let mt = serve_tenants(
            &serve_templates,
            &tenant_mix(t, load * capacity),
            &cfg,
            Some((&serve_fabric, &serve_topo)),
            None,
        );
        (t, load, mt)
    });
    let mut tenant_json: Vec<Json> = Vec::new();
    for (t, load, mt) in &tenant_cells {
        let rejected: u64 = mt.tenants.iter().map(|r| r.rejected).sum();
        row(&[
            format!("{t}"),
            format!("{load}"),
            format!("{:.1}", mt.qps),
            format!("{rejected}"),
            format!("{}", mt.preemptions),
            format!("{:.1}", mt.tenants[0].p99 * 1e3),
            format!("{:.4}", mt.tenants[0].slo_attainment),
        ]);
        tenant_json.push(Json::obj([
            ("tenants", Json::num(*t as f64)),
            ("load", Json::num(*load)),
            ("qps", Json::num(mt.qps)),
            ("rejected", Json::num(rejected as f64)),
            ("preemptions", Json::num(mt.preemptions as f64)),
            ("wasted_seconds", Json::num(mt.wasted_seconds)),
            (
                "per_tenant",
                Json::Arr(
                    mt.tenants
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::str(r.name)),
                                ("qps", Json::num(r.qps)),
                                ("p50_seconds", Json::num(r.p50)),
                                ("p99_seconds", Json::num(r.p99)),
                                ("slo_attainment", Json::num(r.slo_attainment)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    // ── 4. Whole-rack failure ────────────────────────────────────────
    let mut failure_json = Json::obj([("skipped", Json::Bool(true))]);
    if spine_racks > 1 {
        let m = NODES / spine_racks;
        let dead: Vec<usize> = (m..2 * m).collect(); // all of rack 1
                                                     // Crash 1 µs into execution: the dead primaries are already
                                                     // dispatched, so every query pays the timeout-based failover
                                                     // before re-issuing to a cross-rack replica.
        let crash_at = 1e-6;
        println!(
            "\n## Whole-rack failure (rack 1 = nodes {:?} crash at t=1 µs, k={REPLICAS})\n",
            dead
        );
        let mut c = Cluster::from_core(spine_core.clone());
        let mut plan = FaultPlan::none();
        for &node in &dead {
            plan = plan.crash(node, crash_at);
        }
        c.set_faults(plan.clone());
        let (_, failovers) = suite_templates(&mut c);
        assert!(failovers > 0, "a dead rack must force failovers");
        println!(
            "Suite survived the rack loss bit-identically ({failovers} failovers: every \
             shard kept a cross-rack replica)."
        );

        // k = 1 control: the same kill has no replicas to hide behind —
        // a clean unavailability error, never a wrong answer.
        let k1 = core_for(spine_racks, spine_oversub, 1);
        let mut c1 = Cluster::from_core(k1);
        c1.set_faults(plan);
        assert!(
            c1.try_run_at(QueryId::Q1, 0.0).is_err(),
            "k=1 must report the dead rack's shards as unavailable"
        );
        println!("k=1 control: the same kill is a clean ShardUnavailable error.");

        // Re-replicate the dead rack from cross-rack survivors.
        let mut rebuild_seconds = 0.0f64;
        let mut bytes_moved = 0u64;
        for &node in &dead {
            let r = c.recover(node, 1.0); // well after the crash: only cross-rack sources are live
            rebuild_seconds += r.rebuild_seconds;
            bytes_moved += r.bytes_moved;
        }
        println!(
            "Recovery: {} B re-streamed, {:.3} ms prototype rebuild ({:.1} s at SF≈100).",
            bytes_moved,
            rebuild_seconds * 1e3,
            rebuild_seconds * scale as f64
        );

        // Serve through the outage: survivors carry racks/(racks-1)× load
        // from the crash until re-replication completes (rebuild scaled
        // to SF≈100 cardinalities, clamped inside the horizon).
        let factor = spine_racks as f64 / (spine_racks - 1) as f64;
        let window = DegradedWindow {
            from_seconds: 10.0,
            until_seconds: (10.0 + rebuild_seconds * scale as f64).min(45.0),
            cost_factor: factor,
        };
        let cfg = TenantServeConfig { trace, ..TenantServeConfig::default() };
        let mt = serve_tenants(
            &serve_templates,
            &tenant_mix(2, 10.0 * capacity),
            &cfg,
            Some((&serve_fabric, &serve_topo)),
            Some(&window),
        );
        assert!(
            mt.qps_during_fault < mt.qps_pre_fault,
            "the degraded window must dip saturated QPS: {} vs {}",
            mt.qps_during_fault,
            mt.qps_pre_fault
        );
        println!(
            "Serving through the outage (saturated, {:.2}× degraded {:.1}–{:.1} s): \
             QPS {:.1} → {:.1} → {:.1} (pre/during/post).",
            factor,
            window.from_seconds,
            window.until_seconds,
            mt.qps_pre_fault,
            mt.qps_during_fault,
            mt.qps_post_fault
        );
        failure_json = Json::obj([
            ("skipped", Json::Bool(false)),
            ("dead_nodes", Json::num(dead.len() as f64)),
            ("failovers", Json::num(failovers as f64)),
            ("bytes_moved", Json::num(bytes_moved as f64)),
            ("rebuild_seconds", Json::num(rebuild_seconds)),
            ("degraded_factor", Json::num(factor)),
            ("qps_pre_fault", Json::num(mt.qps_pre_fault)),
            ("qps_during_fault", Json::num(mt.qps_during_fault)),
            ("qps_post_fault", Json::num(mt.qps_post_fault)),
        ]);
    } else {
        println!("\n(Whole-rack failure drill skipped: one rack has no failure domain to lose.)");
    }

    if default_run {
        emit(
            "multirack",
            &Json::obj([
                ("figure", Json::str("rack_multirack")),
                ("nodes", Json::num(NODES as f64)),
                ("replicas", Json::num(REPLICAS as f64)),
                ("scale", Json::num(scale as f64)),
                ("capacity_qps", Json::num(capacity)),
                ("rack_sweep", Json::Arr(rack_json)),
                ("oversub_sweep", Json::Arr(oversub_json)),
                ("tenant_sweep", Json::Arr(tenant_json)),
                ("rack_failure", failure_json),
            ]),
        );
    } else {
        println!(
            "\n(BENCH_multirack.json not rewritten: sweep flags are set; the committed \
             baseline is the default run.)"
        );
    }
}
