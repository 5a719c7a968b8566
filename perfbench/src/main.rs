//! `perf`: the repository benchmark on the host clock.
//!
//! One run measures one workload in one process: a closed loop with a
//! single client (the next op starts when the previous one returns)
//! whose ops run on the `dpu_pool` workers alone; the host-speed
//! reference in `host.rs` runs its own threads between ops. Set-up runs
//! first, then a timed window of ops; every op's output is checked.
//!
//! ```text
//! perf --workload <tpch_large|tpch_sweep|serve_closed|serve_open>
//!      --seconds <n> [--seed <u64>] [--trace <0|1>]
//! ```
//!
//! `--seconds` is the timed window. It has no default: the window is
//! `run_seconds` in the repository's `BENCHMARK.json`, which whoever
//! runs the benchmark passes in.
//!
//! Untraced (`--trace 0`), the last stdout line is a JSON object with
//! the end-to-end metrics, and `BENCH_perf_<workload>.json` records
//! them with the host fingerprint and the simulated statistics. Traced
//! (`--trace 1`), the same workload runs with spans around every call
//! the benchmark makes into the system, then replays each layer once;
//! the last line carries the per-layer metrics and
//! `BENCH_perf_<workload>_trace.json` holds the spans in Chrome
//! trace-event format. See `README.md` beside this file.

mod host;
mod layers;
mod serving;
mod stats;
mod tpch;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpu_bench::json::{emit, Json};
use dpu_cluster::{ClusterConfig, ClusterCore, ShardPolicy, SingleRefCache};
use dpu_planner::Planner;
use dpu_pool::Pool;
use dpu_sim::SplitMix64;
use dpu_sql::tpch::{self as sql_tpch, TpchDb};

use crate::host::{Threads, Timing};
use crate::layers::{per_layer, print_layer_table, replay, LayerInputs};
use crate::serving::{ServeClosed, ServeOpen};
use crate::stats::{beyond, highest_supported, median, more_setups, percentile, MIN_BEYOND, TAIL};
use crate::tpch::{TpchLarge, TpchSweep};
use crate::trace::{chrome_trace, Ctx, Span, Tracer};

/// Nodes in every simulated cluster.
pub const NODES: usize = 8;

/// Orders × cost scale: every workload costs its queries at the
/// cardinalities `rack_tpch` uses (5000 orders × 30 000).
const FULL_SCALE_ORDERS: u64 = 150_000_000;

/// Span names of one distributed query execution, in `QueryId::ALL`
/// order.
pub const RUN_SPANS: [&str; 8] = [
    "cluster.run.Q1",
    "cluster.run.Q3",
    "cluster.run.Q5",
    "cluster.run.Q6",
    "cluster.run.Q10",
    "cluster.run.Q12",
    "cluster.run.Q14",
    "cluster.run.Q18",
];

/// The `detail` of the query spans that time a `try_run_at` call.
pub const TRY_RUN: &str = "try_run_at";

/// Runs `f`, a `try_run_at` of query `qi`, in that query's span.
pub fn try_run_span<R>(tr: &Tracer, ctx: Ctx, qi: usize, f: impl FnOnce() -> R) -> R {
    tr.span_work(RUN_SPANS[qi], TRY_RUN, ctx, |_| (f(), 0))
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["tpch_large", "tpch_sweep", "serve_closed", "serve_open"];

/// The end-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Knobs that would make the two commits of a comparison run different
/// kernel, packing or thread arms.
const KNOBS: [&str; 3] = ["DPU_VECTOR", "DPU_PACK", "DPU_THREADS"];

/// Fresh set-ups an untraced run makes at the least, and the time it
/// keeps making more for.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Measured data sizes, or the small ones the unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small enough for a unit test.
    Tiny,
}

impl Size {
    /// Order count for this size.
    pub fn orders(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One op's host time and, if its check failed, why.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Host seconds the op's calls took (checks excluded).
    pub secs: f64,
    /// The failed check or panic, if any.
    pub error: Option<String>,
}

/// A workload: its set-up, its op, and the simulated statistics of its
/// first cycle of ops.
pub trait Workload: Sized {
    /// Ops in one cycle of the op mix: the prefix the simulated
    /// statistics cover, and how many ops a traced run traces before it
    /// runs as many untraced.
    const CYCLE: u64;
    /// The threads its ops keep busy.
    const THREADS: Threads;
    /// Builds the state from the seed, recording set-up spans under
    /// `ctx`; returns it with any failed set-up checks.
    fn setup(seed: u64, size: Size, tr: &Tracer, ctx: Ctx) -> (Self, Vec<String>);
    /// Runs op `i` (`tpch_sweep`: a whole sweep of ops from `i`) and
    /// returns one outcome per op.
    fn run(&mut self, i: u64, tr: &Tracer) -> Vec<Outcome>;
    /// Simulated statistics of the first cycle of ops.
    fn sim(&self) -> Vec<(&'static str, f64)>;
    /// The cluster core the layer replay runs on.
    fn core(&self) -> &Arc<ClusterCore>;
    /// The planner set-up built, if it built one.
    fn planner(&self) -> Option<&Planner>;
}

/// The seed of op `i`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i).next_u64()
}

/// Runs `f`, turning a panic into an error.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// The TPC-H database for `orders` orders.
pub fn generate(orders: usize, seed: u64, tr: &Tracer, ctx: Ctx) -> Arc<TpchDb> {
    Arc::new(tr.span("sql.tpch.generate", ctx, |_| sql_tpch::generate_parallel(orders, seed)))
}

/// `db` hash-sharded over [`NODES`] nodes with `k` replicas on `racks`
/// racks at `oversub`:1.
pub fn shard(
    db: &Arc<TpchDb>,
    k: usize,
    (racks, oversub): (usize, f64),
    single: &Arc<SingleRefCache>,
    tr: &Tracer,
    ctx: Ctx,
) -> Arc<ClusterCore> {
    let scale = FULL_SCALE_ORDERS / db.orders.rows() as u64;
    let cfg =
        ClusterConfig::prototype_slice(NODES, scale).with_replicas(k).with_topology(racks, oversub);
    tr.span("cluster.shard", ctx, |_| {
        ClusterCore::with_shared(db.clone(), &ShardPolicy::hash(NODES), cfg, single.clone())
    })
}

/// Generates, shards with one replica, and warms the single-node
/// references.
pub fn build_core(
    orders: usize,
    seed: u64,
    topo: (usize, f64),
    tr: &Tracer,
    ctx: Ctx,
) -> Arc<ClusterCore> {
    let db = generate(orders, seed, tr, ctx);
    let core = shard(&db, 1, topo, &Arc::new(SingleRefCache::new()), tr, ctx);
    tr.span("cluster.warm_refs", ctx, |_| core.warm_single_refs());
    core
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run.
    pub trace: bool,
    /// Data sizes.
    pub size: Size,
    /// Set-up time an untraced run's fresh set-ups add up to at least.
    pub setup_budget: Duration,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Every check passed, set-up and replay included.
    pub correct: bool,
    /// The result line's metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The untraced run's timing metrics in raw host time, before
    /// normalisation by the host-speed reference.
    pub raw: Vec<(&'static str, f64, &'static str)>,
    /// Median host slowness over the window (see [`host::slowness`]).
    pub slowness: f64,
    /// Each fresh set-up.
    pub setups: Vec<Timing>,
    /// Simulated statistics.
    pub sim: Vec<(&'static str, f64)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

/// Runs `f` between two measurements of the host's slowness on
/// `threads`.
pub fn timed<R>(threads: Threads, f: impl FnOnce() -> R) -> (R, Timing) {
    let before = host::slowness(threads);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    (r, Timing::new(secs, before, host::slowness(threads)))
}

/// Reports a failed check on stderr, the first few in full.
fn report_error(count: u64, what: &str) {
    if count <= 10 {
        eprintln!("check failed: {what}");
    } else if count == 11 {
        eprintln!("check failed: (further failures not shown)");
    }
}

/// Runs workload `W` under `cfg`.
pub fn run<W: Workload>(cfg: &RunConfig) -> Report {
    let off = Tracer::off();
    let tracer = if cfg.trace { Tracer::new() } else { Tracer::off() };
    let ((mut w, mut errors), first) = timed(W::THREADS, || {
        tracer.span("setup", Ctx::default(), |c| W::setup(cfg.seed, cfg.size, &tracer, c))
    });
    let mut setups = vec![first];

    // A traced run alternates traced and untraced cycles so the tracing
    // overhead is measured on the same op mix, under the same host load.
    let min_ops = if cfg.trace { 2 * W::CYCLE } else { W::CYCLE };
    let mut ops: Vec<Timing> = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut calls: Vec<Timing> = Vec::new();
    let mut failed = 0u64;
    let mut i = 0u64;
    let mut before = host::slowness(W::THREADS);
    let start = Instant::now();
    while i < min_ops || start.elapsed() < cfg.window {
        let on = cfg.trace && (i / W::CYCLE).is_multiple_of(2);
        let t = Instant::now();
        let outs = w.run(i, if on { &tracer } else { &off });
        let secs = t.elapsed().as_secs_f64();
        let after = host::slowness(W::THREADS);
        calls.push(Timing::new(secs, before, after));
        for o in outs {
            if let Some(e) = &o.error {
                failed += 1;
                report_error(failed, &format!("op {i}: {e}"));
            }
            let t = Timing::new(o.secs, before, after);
            ops.push(t);
            if on { &mut traced } else { &mut untraced }.push(t);
            i += 1;
        }
        before = after;
    }
    let slowness: Vec<f64> = calls.iter().map(|t| t.slowness).collect();
    let slowness = median(&slowness);

    let (metrics, raw, sim, spans) = if cfg.trace {
        let r = replay(w.core(), w.planner(), cfg.seed, &tracer);
        errors.extend(r.errors);
        // The op prefix defines a statistic where the workload's ops
        // produce it; the replay supplies the rest.
        let mut sim = r.sim;
        for (name, v) in w.sim() {
            match sim.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 = v,
                None => sim.push((name, v)),
            }
        }
        let spans = tracer.spans();
        let p50 = |ops: &[Timing], scale: fn(&Timing) -> f64| {
            median(&ops.iter().map(scale).collect::<Vec<_>>())
        };
        let metrics = per_layer(&LayerInputs {
            spans: &spans,
            width: Pool::global().threads(),
            core: w.core(),
            traced_p50: p50(&traced, Timing::nominal),
            untraced_p50: p50(&untraced, Timing::nominal),
            untraced_raw_p50: p50(&untraced, |t| t.secs),
            slowness,
        });
        (metrics, Vec::new(), sim, spans)
    } else {
        // Peak memory is read before any further set-up: rebuilding in a
        // process that already freed one database leaves the allocator
        // holding 15–25% more, by an amount that varies run to run.
        let peak = peak_rss_mb().unwrap_or_else(|| {
            eprintln!("perf: VmHWM missing from /proc/self/status; peak RSS needs Linux");
            std::process::exit(1)
        });
        let sim = w.sim();
        drop(w);
        more_setups(&mut setups, MIN_SETUPS, cfg.setup_budget, || {
            timed(W::THREADS, || W::setup(cfg.seed, cfg.size, &off, Ctx::default())).1
        });
        let timings = |scale: fn(&Timing) -> f64| {
            let mut lat: Vec<f64> = ops.iter().map(scale).collect();
            lat.sort_by(f64::total_cmp);
            let busy: f64 = calls.iter().map(scale).sum();
            let setup: Vec<f64> = setups.iter().map(scale).collect();
            [i as f64 / busy, median(&lat) * 1e3, percentile(&lat, TAIL) * 1e3, median(&setup)]
        };
        let name = |v: [f64; 4]| -> Vec<(&'static str, f64, &'static str)> {
            v.into_iter().zip(END_TO_END).map(|(v, (n, u))| (n, v, u)).collect()
        };
        let mut metrics = name(timings(Timing::nominal));
        metrics.push((END_TO_END[4].0, peak, END_TO_END[4].1));
        (metrics, name(timings(|t| t.secs)), sim, Vec::new())
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    Report {
        attempted: i,
        failed,
        correct: failed == 0 && errors.is_empty(),
        metrics,
        raw,
        slowness,
        setups,
        sim,
        spans,
    }
}

/// Runs the workload called `name`, if there is one.
pub fn run_named(name: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match name {
        "tpch_large" => run::<TpchLarge>(cfg),
        "tpch_sweep" => run::<TpchSweep>(cfg),
        "serve_closed" => run::<ServeClosed>(cfg),
        "serve_open" => run::<ServeOpen>(cfg),
        _ => return None,
    })
}

/// Peak resident set size, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and the arms the run resolved.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("pool_width", Json::Num(Pool::global().threads() as f64)),
        ("kernel", Json::str(format!("{:?}", dpu_sql::vector_kernel()))),
        ("pack", Json::str(format!("{:?}", dpu_sql::pack()))),
        ("hw_crc_available", Json::Bool(dpu_isa::hash::hw_crc_available())),
        ("cpu", Json::str(cpu)),
    ])
}

/// `{name: {"value": v, "unit": u}}`.
fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|&(n, v, u)| (n, Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]))),
    )
}

fn sim_json(sim: &[(&'static str, f64)]) -> Json {
    Json::obj(sim.iter().map(|&(n, v)| (n, Json::Num(v))))
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perf: {msg}\nusage: perf --workload <{}> --seconds <n> [--seed <u64>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (String::new(), 2026, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = v,
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage("--seed takes a u64")),
            "--seconds" => {
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a non-negative number")),
                )
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        usage("--workload names one of the workloads");
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    Args { workload, seed, seconds, trace }
}

fn main() {
    if let Some(k) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perf: {k} is set; unset it so each commit runs its own default arms");
        std::process::exit(2);
    }
    let args = parse_args();
    let cfg = RunConfig {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        size: Size::Full,
        setup_budget: SETUP_BUDGET,
    };
    let host = fingerprint();
    println!(
        "# perf {} (seed {}, {} s window, {})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("host: {}", host.render());
    let r = run_named(&args.workload, &cfg).expect("workload name was validated");

    let n = r.attempted as usize;
    let raw_setup: Vec<f64> = r.setups.iter().map(|t| t.secs).collect();
    println!(
        "set-up: {} fresh set-up(s), median {:.4} s raw; ops: {} attempted, {} failed (fail_rate {})",
        r.setups.len(),
        median(&raw_setup),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64
    );
    let supported = highest_supported(n, &[0.5, 0.9, 0.95, 0.99, 0.999]);
    println!(
        "p95 leaves {} of {n} ops beyond it; highest percentile with {MIN_BEYOND} beyond: {}",
        beyond(n, TAIL),
        supported.map_or("none".into(), |p| format!("p{}", p * 100.0))
    );
    if beyond(n, TAIL) < MIN_BEYOND {
        eprintln!("warning: {n} ops leave fewer than {MIN_BEYOND} samples beyond p95");
    }
    if args.trace {
        print_layer_table(&r.spans);
    }
    println!();
    println!("host slowness: median {:.3} (1 = the tuning host's normal speed)", r.slowness);
    for &(name, v, unit) in &r.metrics {
        println!("{name:<32} {v:>24} {unit}");
    }
    for &(name, v, unit) in &r.raw {
        println!("{name:<32} {v:>24} {unit} (raw host time)");
    }
    for &(name, v) in &r.sim {
        println!("{name:<32} {v:>24} (simulated, first cycle of ops)");
    }
    let summary = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("window_s", Json::Num(args.seconds)),
        ("host", host),
        ("setup_seconds", Json::Arr(raw_setup.into_iter().map(Json::Num).collect())),
        ("setup_slowness", Json::Arr(r.setups.iter().map(|t| Json::Num(t.slowness)).collect())),
        ("host_slowness", Json::Num(r.slowness)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("fail_rate", Json::Num(r.failed as f64 / r.attempted as f64)),
        ("correct", Json::Bool(r.correct)),
        ("metrics", metrics_json(&r.metrics)),
        ("raw_metrics", metrics_json(&r.raw)),
        ("sim", sim_json(&r.sim)),
    ]);
    if args.trace {
        emit(&format!("perf_{}_trace", args.workload), &chrome_trace(&r.spans, summary));
    } else {
        emit(&format!("perf_{}", args.workload), &summary);
    }
    let result = Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(&r.metrics)),
    ]);
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` in BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc.find(&format!("\"{section}\"")).expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap().to_string())
            .collect()
    }

    fn smoke(name: &str) {
        let cfg = RunConfig {
            seed: 11,
            window: Duration::ZERO,
            trace: false,
            size: Size::Tiny,
            setup_budget: Duration::ZERO,
        };
        let plain = run_named(name, &cfg).expect("known workload");
        assert!(plain.correct && plain.failed == 0, "{name}: {plain:?}");
        assert_eq!(plain.setups.len(), MIN_SETUPS);
        let got: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        assert_eq!(got, declared("end_to_end"), "{name}");
        assert!(plain.metrics.iter().all(|m| m.1 > 0.0), "{name}: {:?}", plain.metrics);
        assert_eq!(plain.raw.len(), 4, "{name}: raw timing metrics");

        let traced = run_named(name, &RunConfig { trace: true, ..cfg }).expect("known workload");
        assert!(traced.correct && traced.failed == 0, "{name}: traced run failed");
        let got: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(got, declared("per_layer"), "{name}");
        assert!(traced.metrics.iter().all(|m| m.1.is_finite()), "{name}: {:?}", traced.metrics);
        // The simulated statistics of the op prefix repeat exactly in
        // the traced run.
        for (n, v) in plain.sim {
            let t = traced.sim.iter().find(|s| s.0 == n).expect("sim stat reported");
            assert_eq!(t.1, v, "{name}: {n} differs between untraced and traced runs");
        }
    }

    #[test]
    fn smoke_tpch_large() {
        smoke("tpch_large");
    }

    #[test]
    fn smoke_tpch_sweep() {
        smoke("tpch_sweep");
    }

    #[test]
    fn smoke_serve_closed() {
        smoke("serve_closed");
    }

    #[test]
    fn smoke_serve_open() {
        smoke("serve_open");
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn op_seeds_differ_per_op_and_repeat_per_seed() {
        assert_eq!(op_seed(2026, 3), op_seed(2026, 3));
        assert_ne!(op_seed(2026, 3), op_seed(2026, 4));
        assert_ne!(op_seed(2026, 3), op_seed(4242, 3));
    }
}
