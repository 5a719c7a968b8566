//! The serving workloads: `serve_closed` (one `serve_pipeline_hooked`
//! call per op) and `serve_open` (one `serve_tenants` call per op), plus
//! the template, planner and serving-config helpers the layer replay
//! shares with them.

use std::sync::Arc;
use std::time::Instant;

use dpu_cluster::{
    serve_pipeline_hooked, serve_tenants, Cluster, ClusterCore, DegradedWindow, MultiTenantReport,
    QueryId, ServeConfig, ServeReport, Template, Tenant, TenantServeConfig, TraceShape,
};
use dpu_planner::{AdaptiveServer, CandidatePlan, Planner, PlannerMode};
use xeon_model::XeonRack;

use crate::host::Threads;
use crate::trace::{Ctx, Tracer};
use crate::{build_core, catch, op_seed, try_run_span, Outcome, Size, Workload};

/// Ops whose simulated statistics are pinned (and the traced run's
/// alternation period).
const SERVE_CYCLE: u64 = 8;

/// The suite on a healthy cluster, checked against single-node
/// execution, as serving templates. Errors name the diverging queries.
pub fn suite_templates(
    cluster: &mut Cluster,
    tr: &Tracer,
    ctx: Ctx,
) -> (Vec<Template>, Vec<String>) {
    let mut errors = Vec::new();
    let mut templates = Vec::new();
    for (qi, &id) in QueryId::ALL.iter().enumerate() {
        match try_run_span(tr, ctx, qi, || cluster.try_run_at(id, 0.0)) {
            Ok(q) if q.matches_single() => templates.push(Template {
                name: id.name(),
                cost: q.cost.clone(),
                xeon_seconds: q.single_cost.xeon.seconds,
            }),
            Ok(_) => errors.push(format!("{} diverged from single-node", id.name())),
            Err(e) => errors.push(format!("{} failed on a healthy cluster: {e}", id.name())),
        }
    }
    (templates, errors)
}

/// The planner's candidate plans for every query, each executed through
/// `Cluster::run_planned` for its profiled cost, and the serving
/// templates (each query served at its estimate-cheapest candidate's
/// cost, where `AdaptiveServer` starts).
#[derive(Debug, Clone)]
pub struct Planned {
    /// Candidates per query, in `QueryId::ALL` order.
    pub sets: Vec<Vec<CandidatePlan>>,
    /// One template per query.
    pub templates: Vec<Template>,
}

/// Builds [`Planned`]; a candidate that errors or diverges from
/// single-node execution is reported and left out.
pub fn plan_candidates(
    planner: &Planner,
    cluster: &mut Cluster,
    tr: &Tracer,
    ctx: Ctx,
) -> (Planned, Vec<String>) {
    let mut errors = Vec::new();
    let mut sets = Vec::new();
    let mut templates = Vec::new();
    for &id in &QueryId::ALL {
        let mut set: Vec<CandidatePlan> = Vec::new();
        let mut xeon_seconds = 0.0;
        for (plan, est) in planner.candidates(id) {
            match tr.span("planner.candidate", ctx, |_| cluster.run_planned(&plan, 0.0)) {
                Ok(run) if run.query.matches_single() => {
                    xeon_seconds = run.query.single_cost.xeon.seconds;
                    set.push(CandidatePlan {
                        name: plan.merge.name().into(),
                        plan,
                        est_seconds: est.total_seconds(),
                        profiled: run.query.cost,
                    });
                }
                Ok(_) => errors.push(format!("{} planned run diverged", id.name())),
                Err(e) => errors.push(format!("{} planned run failed: {e}", id.name())),
            }
        }
        if let Some(first) =
            set.iter().min_by(|a, b| a.est_seconds.total_cmp(&b.est_seconds)).cloned()
        {
            templates.push(Template { name: id.name(), cost: first.profiled, xeon_seconds });
        }
        sets.push(set);
    }
    (Planned { sets, templates }, errors)
}

/// The closed-loop config of op `i`: 256 clients thinking 0.2 s, four
/// batches in flight, adaptive batching against a 2 s SLO.
pub fn closed_config(seed: u64, i: u64) -> ServeConfig {
    ServeConfig {
        clients: 256,
        think_seconds: 0.2,
        max_batch: 16,
        admit_cap: 512,
        duration_seconds: 120.0,
        seed: op_seed(seed, i),
        concurrency: 4,
        adaptive: true,
        slo_seconds: Some(2.0),
    }
}

/// One closed-loop serving run with the adaptive planner hook, in a
/// `serve.pipeline` span counting completions; returns the report and
/// the plan switches taken.
pub fn serve_closed_once(
    planned: &Planned,
    cluster: &Cluster,
    cfg: &ServeConfig,
    tr: &Tracer,
    ctx: Ctx,
) -> (ServeReport, usize) {
    let mut hook = AdaptiveServer::new(PlannerMode::Adaptive, 8, planned.sets.clone());
    let fabric = cluster.cfg().fabric.clone();
    let report = tr.span_work("serve.pipeline", "", ctx, |_| {
        let r = serve_pipeline_hooked(
            &planned.templates,
            cluster.watts(),
            &XeonRack::rack_42u(),
            cfg,
            None,
            Some((&fabric, cluster.cfg().n_nodes)),
            Some(&mut hook),
        );
        let n = r.completed;
        (r, n)
    });
    (report, hook.switches.len())
}

/// Admission conserves queries, and the latency percentiles are ordered.
pub fn check_closed(r: &ServeReport) -> Result<(), String> {
    if r.admitted != r.completed + r.backlog {
        return Err(format!(
            "admitted {} != completed {} + backlog {}",
            r.admitted, r.completed, r.backlog
        ));
    }
    if !(r.p50 <= r.p95 && r.p95 <= r.p99) {
        return Err(format!("percentiles out of order: {} {} {}", r.p50, r.p95, r.p99));
    }
    Ok(())
}

/// Four tenants: t0 the latency class (weight 2, priority 1), the rest
/// weight 1, 24 q/s in total, 1 s SLOs.
pub fn tenants() -> Vec<Tenant> {
    ["t0", "t1", "t2", "t3"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| Tenant {
            name,
            weight: if i == 0 { 2.0 } else { 1.0 },
            priority: u8::from(i == 0),
            slo_seconds: 1.0,
            rate_qps: 6.0,
        })
        .collect()
}

/// The open-loop config of op `i`: 600 s of a diurnal trace, preemption
/// on.
pub fn open_config(seed: u64, i: u64) -> TenantServeConfig {
    TenantServeConfig {
        duration_seconds: 600.0,
        seed: op_seed(seed, i),
        max_batch: 8,
        admit_cap: 128,
        concurrency: 4,
        trace: TraceShape::Diurnal { period_seconds: 120.0, amplitude: 0.8 },
        preemption: true,
    }
}

/// The degraded window every open-loop run serves through.
pub const OUTAGE: DegradedWindow =
    DegradedWindow { from_seconds: 240.0, until_seconds: 360.0, cost_factor: 2.0 };

/// One open-loop multi-tenant run over `cluster`'s fabric and topology,
/// in a `tenant.serve` span counting completions.
pub fn serve_open_once(
    templates: &[Template],
    cluster: &Cluster,
    cfg: &TenantServeConfig,
    tr: &Tracer,
    ctx: Ctx,
) -> MultiTenantReport {
    let fabric = cluster.cfg().fabric.clone();
    let topo = cluster.cfg().topology();
    tr.span_work("tenant.serve", "", ctx, |_| {
        let r = serve_tenants(templates, &tenants(), cfg, Some((&fabric, &topo)), Some(&OUTAGE));
        let n = r.completed;
        (r, n)
    })
}

/// Per tenant, every arrival is admitted or rejected and no more
/// complete than were admitted; the tenant completions sum to the total.
pub fn check_open(r: &MultiTenantReport) -> Result<(), String> {
    for t in &r.tenants {
        if t.arrived != t.admitted + t.rejected {
            return Err(format!(
                "{}: arrived {} != admitted {} + rejected {}",
                t.name, t.arrived, t.admitted, t.rejected
            ));
        }
        if t.completed > t.admitted {
            return Err(format!("{}: completed {} > admitted {}", t.name, t.completed, t.admitted));
        }
    }
    let sum: u64 = r.tenants.iter().map(|t| t.completed).sum();
    if sum != r.completed {
        return Err(format!("tenant completions {sum} != total {}", r.completed));
    }
    Ok(())
}

/// Simulated statistics of the closed-loop runs: means over the runs,
/// plan switches summed.
pub fn closed_sim(runs: &[(ServeReport, usize)]) -> Vec<(&'static str, f64)> {
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&ServeReport) -> f64| runs.iter().map(|(r, _)| f(r)).sum::<f64>() / n;
    vec![
        ("sim.serve.qps", mean(&|r| r.qps)),
        ("sim.serve.p99_ms", mean(&|r| r.p99 * 1e3)),
        ("sim.serve.mean_batch", mean(&|r| r.mean_batch)),
        ("sim.serve.slo_attainment", mean(&|r| r.slo_attainment)),
        ("sim.serve.plan_switches", runs.iter().map(|&(_, s)| s as f64).sum()),
    ]
}

/// Simulated statistics of the open-loop runs: means over the runs,
/// preemptions summed.
pub fn open_sim(runs: &[MultiTenantReport]) -> Vec<(&'static str, f64)> {
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&MultiTenantReport) -> f64| runs.iter().map(f).sum::<f64>() / n;
    vec![
        ("sim.tenant.qps", mean(&|r| r.qps)),
        ("sim.tenant.t0_p99_ms", mean(&|r| r.tenants[0].p99 * 1e3)),
        ("sim.tenant.preemptions", runs.iter().map(|r| r.preemptions as f64).sum()),
        ("sim.tenant.wasted_s", mean(&|r| r.wasted_seconds)),
        ("sim.tenant.qps_during_fault", mean(&|r| r.qps_during_fault)),
    ]
}

/// `serve_closed`: the 5k-order, 8-node cluster `rack_tpch` serves,
/// driven through the adaptive batch controller and planner hook.
pub struct ServeClosed {
    cluster: Cluster,
    planner: Planner,
    planned: Planned,
    seed: u64,
    prefix: Vec<(ServeReport, usize)>,
}

impl Workload for ServeClosed {
    const CYCLE: u64 = SERVE_CYCLE;
    const THREADS: Threads = Threads::Caller;

    fn setup(seed: u64, size: Size, tr: &Tracer, ctx: Ctx) -> (Self, Vec<String>) {
        let core = build_core(size.orders(5_000, 1_000), seed, (1, 1.0), tr, ctx);
        let planner = tr.span("planner.catalog", ctx, |_| Planner::new(&core));
        let mut cluster = Cluster::from_core(core);
        let (planned, errors) = plan_candidates(&planner, &mut cluster, tr, ctx);
        (ServeClosed { cluster, planner, planned, seed, prefix: Vec::new() }, errors)
    }

    fn run(&mut self, i: u64, tr: &Tracer) -> Vec<Outcome> {
        let cfg = closed_config(self.seed, i);
        let t = Instant::now();
        let r = catch(|| serve_closed_once(&self.planned, &self.cluster, &cfg, tr, Ctx::op(i)));
        let secs = t.elapsed().as_secs_f64();
        let error = r.and_then(|r| {
            check_closed(&r.0)?;
            if i < Self::CYCLE {
                self.prefix.push(r);
            }
            Ok(())
        });
        vec![Outcome { secs, error: error.err() }]
    }

    fn sim(&self) -> Vec<(&'static str, f64)> {
        closed_sim(&self.prefix)
    }

    fn core(&self) -> &Arc<ClusterCore> {
        self.cluster.core()
    }

    fn planner(&self) -> Option<&Planner> {
        Some(&self.planner)
    }
}

/// `serve_open`: the same database on 2 racks × 4 nodes at 4:1
/// oversubscription, served open-loop to four weighted tenants.
pub struct ServeOpen {
    cluster: Cluster,
    templates: Vec<Template>,
    seed: u64,
    prefix: Vec<MultiTenantReport>,
}

impl Workload for ServeOpen {
    const CYCLE: u64 = SERVE_CYCLE;
    const THREADS: Threads = Threads::Caller;

    fn setup(seed: u64, size: Size, tr: &Tracer, ctx: Ctx) -> (Self, Vec<String>) {
        let core = build_core(size.orders(5_000, 1_000), seed, (2, 4.0), tr, ctx);
        let mut cluster = Cluster::from_core(core);
        let (templates, errors) = suite_templates(&mut cluster, tr, ctx);
        (ServeOpen { cluster, templates, seed, prefix: Vec::new() }, errors)
    }

    fn run(&mut self, i: u64, tr: &Tracer) -> Vec<Outcome> {
        let cfg = open_config(self.seed, i);
        let t = Instant::now();
        let r = catch(|| serve_open_once(&self.templates, &self.cluster, &cfg, tr, Ctx::op(i)));
        let secs = t.elapsed().as_secs_f64();
        let error = r.and_then(|r| {
            check_open(&r)?;
            if i < Self::CYCLE {
                self.prefix.push(r);
            }
            Ok(())
        });
        vec![Outcome { secs, error: error.err() }]
    }

    fn sim(&self) -> Vec<(&'static str, f64)> {
        open_sim(&self.prefix)
    }

    fn core(&self) -> &Arc<ClusterCore> {
        self.cluster.core()
    }

    fn planner(&self) -> Option<&Planner> {
        None
    }
}
