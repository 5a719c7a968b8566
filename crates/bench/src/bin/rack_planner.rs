//! Cost-based planner baseline: estimated vs actual cost for every
//! planner-chosen TPC-H plan, the Q10 placement decision (gather vs
//! shuffle) in detail, and a static-vs-adaptive serving comparison
//! under a Q10-skewed traffic trace.
//!
//! Everything here is simulated and deterministic: costs come from the
//! roofline + fabric models, the serve loop is seeded, and the
//! host-pool fan-outs do not affect simulated results — so the emitted
//! `BENCH_rack_planner.json` is byte-identical on every machine at any
//! `DPU_THREADS`, and CI byte-diffs it (the `cluster-planner` job).
//!
//! The interesting object is the estimate's *systematic* error: the
//! catalog has no correlation statistics, so it caps Q10's group count
//! (`o_custkey`) at the estimated join cardinality — as if every
//! order in the date band belonged to a distinct customer. Repeat
//! buyers actually collapse the partials to roughly half that, which
//! puts the estimate and the truth on *opposite sides* of the
//! gather/shuffle crossover: the planner expects partials big enough
//! that shuffling them across all NICs beats funnelling them through
//! the coordinator's one RX NIC, while the real partials are small
//! enough that the gather's single serialized hop is cheaper than the
//! shuffle's two message barriers. Serving traffic exposes the error,
//! and the adaptive planner must switch Q10 from shuffle to gather
//! mid-run without hurting mean latency. Both facts are asserted below
//! and pinned in the JSON.

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_cluster::{
    serve_pipeline_hooked, Cluster, ClusterConfig, ClusterCore, PlannedRun, QueryId, ServeConfig,
    ShardPolicy, Template,
};
use dpu_planner::{explain, AdaptiveServer, CandidatePlan, PlanChoice, Planner, PlannerMode};
use dpu_sql::tpch;
use xeon_model::XeonRack;

/// Completed queries of a template before the adaptive planner may
/// re-rank its candidates.
const REOPT_THRESHOLD: usize = 8;

/// One query's planner verdict plus the executed runs of its chosen
/// plan and every rejected alternative (chosen first).
type ProfiledQuery = (QueryId, PlanChoice, Vec<(CandidatePlan, PlannedRun)>);

fn main() {
    const NODES: usize = 8;
    // A larger base than rack_tpch's (and a proportionally smaller scale
    // multiplier, so the simulated full-scale work is the same): the
    // planner's cardinality errors only become decision-relevant once
    // Q10's partial aggregates reach the gather/shuffle crossover. The
    // datagen seed was re-picked after FOR/bit-packing cut the resident
    // bytes every scan streams (shifting each shard's local finish time
    // and with it the overlap the gather's serialized hop hides in): at
    // this seed the estimate's over-capped partials still price shuffle
    // ahead by ~1 µs while the real, repeat-buyer-collapsed partials
    // make gather ~6 µs cheaper in the profile.
    let scale = 3_750u64;
    let db = tpch::generate(40_000, 2028);
    let core = ClusterCore::new(
        db,
        &ShardPolicy::hash(NODES),
        ClusterConfig::prototype_slice(NODES, scale),
    );
    let mut cluster = Cluster::from_core(core.clone());
    let planner = Planner::new(&core);

    println!(
        "# Cost-based planner on the {NODES}-node rack ({} lineitem rows, scale {scale}×)\n",
        cluster.full().lineitem.rows()
    );

    // ── Estimated vs actual, every query through the planner path ────
    header(&["Query", "merge", "est (ms)", "actual (ms)", "est/actual", "== default"]);
    let mut queries_json: Vec<Json> = Vec::new();
    let mut profiled: Vec<ProfiledQuery> = Vec::new();
    for id in QueryId::ALL {
        let choice = planner.plan(id);
        let reference = cluster.try_run_at(id, 0.0).expect("healthy cluster");
        assert!(reference.matches_single(), "{} default plan diverged", id.name());
        // Execute the chosen plan and every rejected alternative: all of
        // them must be bit-identical to the default plan.
        let mut runs: Vec<(CandidatePlan, PlannedRun)> = Vec::new();
        for (plan, est) in std::iter::once((choice.plan.clone(), choice.estimate.clone()))
            .chain(choice.alternatives.iter().cloned())
        {
            let run = cluster.run_planned(&plan, 0.0).expect("healthy cluster");
            assert!(
                run.query.matches_single(),
                "{} planner plan diverged from single-node",
                id.name()
            );
            assert_eq!(
                run.query.output,
                reference.output,
                "{} planner plan diverged from the default plan",
                id.name()
            );
            runs.push((
                CandidatePlan {
                    name: plan.merge.name().into(),
                    plan,
                    est_seconds: est.total_seconds(),
                    profiled: run.query.cost.clone(),
                },
                run,
            ));
        }
        let est_s = choice.estimate.total_seconds();
        let act_s = runs[0].1.query.cost.total_seconds();
        row(&[
            id.name().to_string(),
            choice.plan.merge.name().to_string(),
            format!("{:.3}", est_s * 1e3),
            format!("{:.3}", act_s * 1e3),
            format!("{:.2}", est_s / act_s),
            "yes".into(),
        ]);
        queries_json.push(Json::obj([
            ("query", Json::str(id.name())),
            ("merge", Json::str(choice.plan.merge.name())),
            ("est_seconds", Json::num(est_s)),
            ("actual_seconds", Json::num(act_s)),
            ("est_fabric_bytes", Json::num(choice.estimate.fabric_bytes as f64)),
            ("actual_fabric_bytes", Json::num(runs[0].1.query.cost.fabric_bytes as f64)),
            ("matches_default_plan", Json::Bool(true)),
        ]));
        profiled.push((id, choice, runs));
    }
    println!(
        "\nAll planner-chosen plans (and every rejected alternative) are bit-identical \
         to the default plans and to single-node execution.\n"
    );

    // ── EXPLAIN for each chosen plan (estimates vs actuals) ──────────
    println!("## EXPLAIN (chosen plans, est vs actual)\n");
    for (_, choice, runs) in &profiled {
        println!("{}", explain(&choice.plan, &choice.estimate, Some(&runs[0].1)));
    }

    // ── The Q10 placement decision in detail ─────────────────────────
    let (_, q10_choice, q10_runs) =
        profiled.iter().find(|(id, _, _)| *id == QueryId::Q10).expect("Q10 profiled");
    println!("## Q10 placement: estimate vs profile\n");
    header(&["placement", "est (ms)", "profiled (ms)", "est partials", "actual partials"]);
    let mut placements_json: Vec<Json> = Vec::new();
    let q10_ests: Vec<&dpu_planner::PlanEstimate> = std::iter::once(&q10_choice.estimate)
        .chain(q10_choice.alternatives.iter().map(|(_, e)| e))
        .collect();
    for ((cand, run), est) in q10_runs.iter().zip(q10_ests) {
        let actual_partials: usize = run.shard_traces.iter().filter_map(|t| t.rows.last()).sum();
        row(&[
            cand.name.clone(),
            format!("{:.3}", cand.est_seconds * 1e3),
            format!("{:.3}", cand.profiled.total_seconds() * 1e3),
            format!("{:.0}", est.partial_rows),
            format!("{actual_partials}"),
        ]);
        placements_json.push(Json::obj([
            ("merge", Json::str(&cand.name)),
            ("est_seconds", Json::num(cand.est_seconds)),
            ("profiled_seconds", Json::num(cand.profiled.total_seconds())),
            ("est_partial_rows", Json::num(est.partial_rows)),
            ("actual_partial_rows", Json::num(actual_partials as f64)),
        ]));
    }

    // The no-correlation assumption must over-estimate the Q10 partials
    // (repeat customers collapse the o_custkey groups well below the
    // join cardinality the estimate caps at), and that error must be
    // decision-relevant: the estimate picks shuffle, the profile shows
    // gather is cheaper. That is the gap the adaptive layer closes.
    let q10_est_partials = q10_choice.estimate.partial_rows;
    let q10_actual_partials: usize =
        q10_runs[0].1.shard_traces.iter().filter_map(|t| t.rows.last()).sum();
    assert!(
        q10_est_partials > 1.5 * q10_actual_partials as f64,
        "Q10 partials must be over-estimated: est {q10_est_partials:.0} vs actual {q10_actual_partials}"
    );
    assert_eq!(q10_choice.plan.merge.name(), "shuffle-topk", "estimate must pick shuffle");
    let q10_profiled_best = q10_runs
        .iter()
        .min_by(|a, b| a.0.profiled.total_seconds().total_cmp(&b.0.profiled.total_seconds()))
        .expect("candidates");
    assert_eq!(q10_profiled_best.0.name, "gather-topk", "profile must prefer gather");

    // ── Static vs adaptive serving under a Q10-skewed trace ──────────
    // Half the offered traffic is Q10 (four template slots of eight),
    // so the mis-planned placement dominates the mix and re-planning
    // has something to win.
    let serve_ids = [
        QueryId::Q10,
        QueryId::Q10,
        QueryId::Q10,
        QueryId::Q10,
        QueryId::Q1,
        QueryId::Q3,
        QueryId::Q6,
        QueryId::Q12,
    ];
    let mut templates: Vec<Template> = Vec::new();
    let mut candidate_sets: Vec<Vec<CandidatePlan>> = Vec::new();
    for id in serve_ids {
        let (_, _, runs) = profiled.iter().find(|(pid, _, _)| *pid == id).expect("profiled");
        templates.push(Template {
            name: id.name(),
            cost: runs[0].0.profiled.clone(),
            xeon_seconds: runs[0].1.query.single_cost.xeon.seconds,
        });
        candidate_sets.push(runs.iter().map(|(c, _)| c.clone()).collect());
    }
    let rack = XeonRack::rack_42u();
    let serve_cfg = ServeConfig { duration_seconds: 30.0, ..ServeConfig::default() };
    let fabric = cluster.cfg().fabric.clone();

    let mut static_hook =
        AdaptiveServer::new(PlannerMode::Static, REOPT_THRESHOLD, candidate_sets.clone());
    let static_report = serve_pipeline_hooked(
        &templates,
        cluster.watts(),
        &rack,
        &serve_cfg,
        None,
        Some((&fabric, NODES)),
        Some(&mut static_hook),
    );
    let mut adaptive_hook =
        AdaptiveServer::new(PlannerMode::Adaptive, REOPT_THRESHOLD, candidate_sets);
    let adaptive_report = serve_pipeline_hooked(
        &templates,
        cluster.watts(),
        &rack,
        &serve_cfg,
        None,
        Some((&fabric, NODES)),
        Some(&mut adaptive_hook),
    );

    assert!(static_hook.switches.is_empty(), "static mode must never switch plans");
    assert!(
        !adaptive_hook.switches.is_empty(),
        "the adaptive planner must switch at least one Q10 plan mid-run"
    );
    assert!(
        adaptive_report.mean_latency <= static_report.mean_latency,
        "adaptive serving must not be slower than static: {} vs {}",
        adaptive_report.mean_latency,
        static_report.mean_latency
    );

    println!(
        "\n## Serving: static vs adaptive planner (Q10-skewed trace, {} clients)\n",
        serve_cfg.clients
    );
    header(&["mode", "QPS", "mean latency (ms)", "p99 (ms)", "plan switches"]);
    row(&[
        "static".into(),
        format!("{:.1}", static_report.qps),
        format!("{:.2}", static_report.mean_latency * 1e3),
        format!("{:.2}", static_report.p99 * 1e3),
        "0".into(),
    ]);
    row(&[
        "adaptive".into(),
        format!("{:.1}", adaptive_report.qps),
        format!("{:.2}", adaptive_report.mean_latency * 1e3),
        format!("{:.2}", adaptive_report.p99 * 1e3),
        format!("{}", adaptive_hook.switches.len()),
    ]);
    println!();
    for s in &adaptive_hook.switches {
        println!(
            "Plan switch: template {} ({}) {} → {} at t={:.3} s (estimate said {:.3} ms, profile says {:.3} ms)",
            s.template,
            templates[s.template].name,
            s.from,
            s.to,
            s.at_seconds,
            s.from_est_seconds * 1e3,
            s.to_profiled_seconds * 1e3,
        );
    }

    emit(
        "rack_planner",
        &Json::obj([
            ("figure", Json::str("rack_planner")),
            ("nodes", Json::num(NODES as f64)),
            ("scale", Json::num(scale as f64)),
            ("queries", Json::Arr(queries_json)),
            ("q10_placements", Json::Arr(placements_json)),
            (
                "serving",
                Json::obj([
                    ("trace", Json::str("q10-skewed")),
                    ("reopt_threshold", Json::num(REOPT_THRESHOLD as f64)),
                    (
                        "static",
                        Json::obj([
                            ("qps", Json::num(static_report.qps)),
                            ("mean_latency_seconds", Json::num(static_report.mean_latency)),
                            ("p99_seconds", Json::num(static_report.p99)),
                            ("switches", Json::num(0.0)),
                        ]),
                    ),
                    (
                        "adaptive",
                        Json::obj([
                            ("qps", Json::num(adaptive_report.qps)),
                            ("mean_latency_seconds", Json::num(adaptive_report.mean_latency)),
                            ("p99_seconds", Json::num(adaptive_report.p99)),
                            ("switches", Json::num(adaptive_hook.switches.len() as f64)),
                        ]),
                    ),
                    (
                        "switch_events",
                        Json::Arr(
                            adaptive_hook
                                .switches
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("template", Json::str(templates[s.template].name)),
                                        ("at_seconds", Json::num(s.at_seconds)),
                                        ("from", Json::str(&s.from)),
                                        ("to", Json::str(&s.to)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]),
    );
}
