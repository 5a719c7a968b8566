//! The traced run's layer replay and the per-layer metrics.
//!
//! After the op window, the traced run replays every layer the
//! benchmark measures on the workload's own cluster: five times the
//! suite through `try_run_at` followed by each query's shard-local work
//! on the pool, then once the planner, the SQL kernels on shard 0, the serving engines and two
//! serving-layer hot calls. Per-layer metrics aggregate spans by name
//! over the set-up, the op window and the replay, so a layer the ops
//! exercise is measured mostly on the op path, and every traced run
//! reports every metric.

use std::hint::black_box;
use std::sync::Arc;

use dpu_cluster::{
    AdaptiveBatch, Cluster, ClusterCore, QueryId, ServeFabric, ServeReport, Template,
};
use dpu_planner::Planner;
use dpu_pool::Pool;
use dpu_sim::SplitMix64;
use dpu_sql::logical::q10_partial_plan;
use dpu_sql::tpch::{self, TpchDb, ORDER_DAYS};
use dpu_sql::{
    sort_indices, top_k, AggFunc, CompareOp, Expr, FilterSpec, GroupBySpec, HashJoin, Pack, Table,
};

use crate::serving::{
    check_closed, check_open, closed_config, closed_sim, open_config, open_sim, plan_candidates,
    serve_closed_once, serve_open_once, suite_templates,
};
use crate::stats::median;
use crate::tpch::add_suite_sim;
use crate::trace::{layer_times, Ctx, Span, Tracer};
use crate::{RUN_SPANS, TRY_RUN};

/// The per-query per-layer metrics, in `QueryId::ALL` order.
const RUN_METRICS: [&str; 8] = [
    "cluster.run.Q1_ms",
    "cluster.run.Q3_ms",
    "cluster.run.Q5_ms",
    "cluster.run.Q6_ms",
    "cluster.run.Q10_ms",
    "cluster.run.Q12_ms",
    "cluster.run.Q14_ms",
    "cluster.run.Q18_ms",
];

/// Times the replay runs the suite and, right after it, the suite's
/// shard-local work.
const SUITE_PAIRS: usize = 5;

/// Serving runs the replay makes per engine (the serving workloads' own
/// simulated-statistics prefix, so the definitions agree).
const SERVE_RUNS: u64 = 8;

/// Columns Q1 reads from lineitem (the decode replay's input).
const Q1_COLS: [&str; 6] =
    ["l_shipdate", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"];

/// What the replay leaves behind besides its spans.
pub struct Replay {
    /// Simulated statistics it computed.
    pub sim: Vec<(&'static str, f64)>,
    /// Failed checks.
    pub errors: Vec<String>,
}

/// Replays every layer on `core` (see the module docs).
pub fn replay(
    core: &Arc<ClusterCore>,
    planner: Option<&Planner>,
    seed: u64,
    tr: &Tracer,
) -> Replay {
    tr.span("replay", Ctx::default(), |c| {
        let mut errors = Vec::new();
        let mut sim = Vec::new();
        for _ in 0..64 {
            black_box(tr.span("cluster.fork", c, |_| Cluster::from_core(core.clone())));
        }
        let mut cluster = Cluster::from_core(core.clone());

        // The suite and its shard-local work alternate, so the
        // coordinator's share (their difference) compares like with like.
        let mut templates = Vec::new();
        for _ in 0..SUITE_PAIRS {
            let (t, errs) = tr.span("cluster.suite", c, |sc| suite_templates(&mut cluster, tr, sc));
            errors.extend(errs);
            templates = t;
            shard_local(core, tr, c);
        }
        for t in &templates {
            add_suite_sim(&mut sim, &t.cost);
        }
        sim.extend([
            ("sim.faults.failovers", templates.iter().map(|t| t.cost.failovers as f64).sum()),
            ("sim.faults.speculations", templates.iter().map(|t| t.cost.speculations as f64).sum()),
            ("sim.faults.unavailable", (QueryId::ALL.len() - templates.len()) as f64),
        ]);

        let built;
        let planner = match planner {
            Some(p) => p,
            None => {
                built = tr.span("planner.catalog", c, |_| Planner::new(core));
                &built
            }
        };
        tr.span("planner.run_planned", c, |_| {
            for &id in &QueryId::ALL {
                match cluster.run_planned(&planner.plan(id).plan, 0.0) {
                    Ok(run) if run.query.matches_single() => {}
                    Ok(_) => errors.push(format!("{} chosen plan diverged", id.name())),
                    Err(e) => errors.push(format!("{} chosen plan failed: {e}", id.name())),
                }
            }
        });
        let (planned, errs) = plan_candidates(planner, &mut cluster, tr, c);
        errors.extend(errs);

        kernels(&core.sharded().shards[0], tr, c);

        let closed: Vec<_> = (0..SERVE_RUNS)
            .map(|i| serve_closed_once(&planned, &cluster, &closed_config(seed, i), tr, c))
            .collect();
        errors.extend(closed.iter().filter_map(|(r, _)| check_closed(r).err()));
        sim.extend(closed_sim(&closed));
        if let Some((first, _)) = closed.first() {
            hot_calls(&cluster, first, &planned.templates, seed, tr, c);
        }

        let open: Vec<_> = (0..SERVE_RUNS)
            .map(|i| serve_open_once(&templates, &cluster, &open_config(seed, i), tr, c))
            .collect();
        errors.extend(open.iter().filter_map(|r| check_open(r).err()));
        sim.extend(open_sim(&open));
        Replay { sim, errors }
    })
}

/// Each query's shard-local work over all shards on the pool, as the
/// coordinator fans it out (Q10 through its partial-aggregate plan).
fn shard_local(core: &ClusterCore, tr: &Tracer, ctx: Ctx) {
    let (xeon, scale) = (core.xeon(), core.cfg().scale);
    let shards: &[TpchDb] = &core.sharded().shards;
    tr.span("sql.shard_local", ctx, |c| {
        for &id in &QueryId::ALL {
            tr.span_work("pool.par_map", id.name(), c, |pc| {
                Pool::global().par_map(shards.iter().collect(), |db| {
                    tr.span("sql.shard_local.shard", pc, |_| match id {
                        QueryId::Q1 => black_box(tpch::q1(db, xeon, scale)).1,
                        QueryId::Q3 => black_box(tpch::q3(db, xeon, scale)).1,
                        QueryId::Q5 => black_box(tpch::q5(db, xeon, scale)).1,
                        QueryId::Q6 => black_box(tpch::q6(db, xeon, scale)).1,
                        QueryId::Q10 => {
                            black_box(q10_partial_plan().execute_costed(db, xeon, scale)).1
                        }
                        QueryId::Q12 => black_box(tpch::q12(db, xeon, scale)).1,
                        QueryId::Q14 => black_box(tpch::q14(db, xeon, scale)).1,
                        QueryId::Q18 => black_box(tpch::q18(db, xeon, scale)).1,
                    })
                });
                ((), 0)
            });
        }
    });
}

/// Times `f` (which does `work` units) in three spans, each repeating it
/// for at least ~5 ms.
fn bench<R>(tr: &Tracer, ctx: Ctx, name: &'static str, work: u64, f: impl Fn() -> R) {
    let t = std::time::Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = (5e-3 / once).ceil().max(1.0) as u64;
    for _ in 0..3 {
        tr.span_work(name, "", ctx, |_| {
            for _ in 0..reps {
                black_box(f());
            }
            ((), reps * work)
        });
    }
}

/// The SQL kernels on one shard, shaped after Q1 (filter, group-by,
/// decode), Q6 (expression), Q12/Q18 (join, top-k) and a sort.
fn kernels(db: &TpchDb, tr: &Tracer, ctx: Ctx) {
    let li = &db.lineitem;
    let rows = li.rows() as u64;
    let filter = FilterSpec::new("l_shipdate", CompareOp::Le(ORDER_DAYS - 90));
    bench(tr, ctx, "sql.filter", rows, || filter.apply(li));
    let sel = filter.apply(li);
    let q1 = GroupBySpec {
        group_cols: vec!["l_returnflag".into(), "l_linestatus".into()],
        aggs: vec![
            ("sum_qty".into(), AggFunc::Sum("l_quantity".into())),
            ("sum_base_price".into(), AggFunc::Sum("l_extendedprice".into())),
            (
                "sum_disc_price".into(),
                AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
            ),
            ("count_order".into(), AggFunc::Count),
        ],
    };
    bench(tr, ctx, "sql.groupby", rows, || q1.execute(li, Some(&sel)));
    let join = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec!["o_totalprice".into()],
        probe_cols: vec!["l_quantity".into()],
    };
    let join_rows = (db.orders.rows() + li.rows()) as u64;
    bench(tr, ctx, "sql.join", join_rows, || join.execute(&db.orders, li, 32));
    let k = 100.min(db.orders.rows().max(1));
    bench(tr, ctx, "sql.topk", db.orders.rows() as u64, || {
        top_k(&db.orders, "o_totalprice", k, 32)
    });
    bench(tr, ctx, "sql.sort", rows, || sort_indices(li, "l_shipdate", 32));
    let revenue = Expr::Mul(
        Box::new(Expr::col("l_extendedprice")),
        Box::new(Expr::Sub(Box::new(Expr::lit(100)), Box::new(Expr::col("l_discount")))),
    );
    bench(tr, ctx, "sql.expr", rows, || revenue.eval(li));
    let decoded = li.decode_for(&Q1_COLS, Pack::On).map_or(0, |t: Table| t.columns.len() as u64);
    bench(tr, ctx, "sql.decode", rows * decoded * 8, || li.decode_for(&Q1_COLS, Pack::On));
}

/// Replays the serving layer's two per-event calls as many times as one
/// closed-loop run completes queries: the adaptive controller's
/// `observe` (fed exponential latencies around the run's mean) and the
/// shared fabric's `charge` (the templates' fabric phases, back to back).
fn hot_calls(
    cluster: &Cluster,
    run: &ServeReport,
    templates: &[Template],
    seed: u64,
    tr: &Tracer,
    ctx: Ctx,
) {
    let calls = run.completed;
    let mut rng = SplitMix64::new(seed);
    let lat: Vec<(f64, usize)> = (0..calls)
        .map(|_| (-(1.0 - rng.next_f64()).ln() * run.mean_latency, rng.next_below(64) as usize))
        .collect();
    let mut ctl = AdaptiveBatch::new(16, Some(2.0));
    tr.span_work("serve.adaptive_observe", "", ctx, |_| {
        for &(l, q) in &lat {
            ctl.observe(l, q);
        }
        ((), calls)
    });
    black_box(ctl.allowed());

    let mut fabric =
        ServeFabric::with_topology(cluster.cfg().topology(), cluster.cfg().fabric.clone());
    let mut now = 0.0;
    tr.span_work("serve.fabric_charge", "", ctx, |_| {
        for i in 0..calls as usize {
            let c = &templates[i % templates.len()].cost;
            now += fabric.charge(now, c.fabric_bytes, c.fabric_seconds);
        }
        ((), calls)
    });
    black_box(now);
}

/// Durations (seconds) of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
}

/// Median duration of spans named `name` (0 when none ran).
fn p50(spans: &[Span], name: &str) -> f64 {
    let d = durations(spans, name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Summed work per second over spans named `name`.
fn rate(spans: &[Span], name: &str) -> f64 {
    let (work, secs) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0.0), |(w, t), s| (w + s.work, t + s.secs()));
    if secs > 0.0 {
        work as f64 / secs
    } else {
        0.0
    }
}

/// Σ busy time of the items of every `pool.par_map` span over the pool
/// width times the par_map spans' wall time.
fn pool_efficiency(spans: &[Span], width: usize) -> f64 {
    let maps: std::collections::HashSet<u64> =
        spans.iter().filter(|s| s.name == "pool.par_map").map(|s| s.id).collect();
    let wall: f64 = spans.iter().filter(|s| maps.contains(&s.id)).map(Span::secs).sum();
    let busy: f64 =
        spans.iter().filter(|s| s.parent.is_some_and(|p| maps.contains(&p))).map(Span::secs).sum();
    if wall > 0.0 {
        busy / (width as f64 * wall)
    } else {
        0.0
    }
}

/// The host-side inputs of the per-layer metrics besides the spans.
pub struct LayerInputs<'a> {
    /// Every recorded span.
    pub spans: &'a [Span],
    /// Resolved pool width.
    pub width: usize,
    /// The workload's cluster core (for its resident sizes).
    pub core: &'a ClusterCore,
    /// Median op latency of traced ops, seconds.
    pub traced_p50: f64,
    /// Median op latency of untraced ops in the same run, seconds.
    pub untraced_p50: f64,
    /// The same ops' median in raw host time, seconds.
    pub untraced_raw_p50: f64,
    /// Median host slowness over the run's window.
    pub slowness: f64,
}

/// Every per-layer metric (name, value, unit) in report order, the
/// order `BENCHMARK.json` lists them in.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let s = x.spans;
    let total = |name: &str| durations(s, name).iter().sum::<f64>();
    let comp = x.core.sharded().compression_report();
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let locals = durations(s, "sql.shard_local");
    let coordinator: Vec<f64> = durations(s, "cluster.suite")
        .iter()
        .zip(&locals)
        .map(|(suite, local)| suite - local)
        .collect();
    let try_runs: Vec<f64> = s
        .iter()
        .filter(|sp| sp.detail == TRY_RUN && RUN_SPANS.contains(&sp.name))
        .map(Span::secs)
        .collect();
    let mut m = vec![
        ("sql.tpch.generate_s", total("sql.tpch.generate"), "s"),
        ("cluster.shard_s", total("cluster.shard"), "s"),
        ("cluster.warm_refs_s", total("cluster.warm_refs"), "s"),
        ("planner.catalog_s", total("planner.catalog"), "s"),
        ("sql.resident_mb", mib(comp.iter().map(|t| t.packed_bytes()).sum()), "MiB"),
        ("sql.flat_mb", mib(comp.iter().map(|t| t.flat_bytes()).sum()), "MiB"),
    ];
    m.extend(RUN_METRICS.iter().zip(RUN_SPANS).map(|(&n, span)| (n, p50(s, span) * 1e3, "ms")));
    m.extend([
        ("sql.shard_local_ms", median(&locals) * 1e3, "ms"),
        ("cluster.coordinator_self_ms", median(&coordinator) * 1e3, "ms"),
        ("planner.run_planned_ms", p50(s, "planner.run_planned") * 1e3, "ms"),
        ("cluster.fork_us", p50(s, "cluster.fork") * 1e6, "us"),
        ("cluster.try_run_ms", median(&try_runs) * 1e3, "ms"),
        ("pool.efficiency", pool_efficiency(s, x.width), "ratio"),
        ("sql.filter_mrows_s", rate(s, "sql.filter") * 1e-6, "Mrows/s"),
        ("sql.groupby_mrows_s", rate(s, "sql.groupby") * 1e-6, "Mrows/s"),
        ("sql.join_mrows_s", rate(s, "sql.join") * 1e-6, "Mrows/s"),
        ("sql.topk_mrows_s", rate(s, "sql.topk") * 1e-6, "Mrows/s"),
        ("sql.sort_mrows_s", rate(s, "sql.sort") * 1e-6, "Mrows/s"),
        ("sql.expr_mrows_s", rate(s, "sql.expr") * 1e-6, "Mrows/s"),
        ("sql.decode_mb_s", rate(s, "sql.decode") / (1024.0 * 1024.0), "MiB/s"),
        ("serve.completions_per_s", rate(s, "serve.pipeline"), "1/s"),
        ("serve.adaptive_observe_ns", 1e9 / rate(s, "serve.adaptive_observe"), "ns"),
        ("serve.fabric_charge_ns", 1e9 / rate(s, "serve.fabric_charge"), "ns"),
        ("tenant.completions_per_s", rate(s, "tenant.serve"), "1/s"),
        ("trace.op_p50_ms", x.traced_p50 * 1e3, "ms"),
        ("trace.overhead_pct", (x.traced_p50 / x.untraced_p50 - 1.0) * 100.0, "%"),
        ("host.slowness", x.slowness, "ratio"),
        ("host.raw_op_p50_ms", x.untraced_raw_p50 * 1e3, "ms"),
    ]);
    m
}

/// The per-layer self-time table printed after a traced run.
pub fn print_layer_table(spans: &[Span]) {
    println!("\n{:<28} {:>8} {:>12} {:>12}", "span", "count", "total (ms)", "self (ms)");
    for (name, t) in layer_times(spans) {
        println!("{name:<28} {:>8} {:>12.3} {:>12.3}", t.count, t.total_s * 1e3, t.self_s * 1e3);
    }
}
