//! Adaptive re-optimization from serve traffic.
//!
//! The serving pipeline reports every completed batch to a
//! [`ServeHook`]; [`AdaptiveServer`] implements that hook with a
//! per-template runtime profile. Each template carries the planner's
//! candidate plans twice-costed: the sketch-based *estimate* that chose
//! the initial plan, and the *profiled* cost measured by the
//! instrumented executor (`Cluster::run_planned`) — what the optimizer
//! re-costs against once real traffic has exposed the estimate's
//! cardinality errors (optd-style: plans are re-ranked mid-run, not
//! just at submission).
//!
//! - `Static` mode trusts the estimates forever: the plan picked at
//!   submission serves the whole run.
//! - `Adaptive` mode waits for [`AdaptiveServer::threshold`] completed
//!   queries of a template, then re-ranks that template's candidates by
//!   profiled cost; if the ranking flipped, it switches plans and logs
//!   a [`PlanSwitch`].
//!
//! Results never change across a switch — every candidate is
//! bit-identical by the planner's correctness invariant — only the
//! cost charged for later batches does.

use dpu_cluster::{ClusterQueryCost, PhysicalPlan, ServeHook};

/// How the serving layer uses the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Estimate-chosen plan, never revisited.
    Static,
    /// Re-rank by runtime profile after `threshold` completions.
    Adaptive,
}

/// One candidate plan for a template, costed both ways.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// Display name (`"gather-topk"`, …).
    pub name: String,
    /// The plan itself.
    pub plan: PhysicalPlan,
    /// The sketch-based estimate's total seconds (what static mode
    /// ranks by).
    pub est_seconds: f64,
    /// The profiled cluster cost from the instrumented executor (what
    /// adaptive mode re-ranks by, and what serving batches are charged).
    pub profiled: ClusterQueryCost,
}

/// A recorded mid-run plan change.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSwitch {
    /// Template index.
    pub template: usize,
    /// Simulated time of the switch, seconds.
    pub at_seconds: f64,
    /// Plan served before.
    pub from: String,
    /// Plan served after.
    pub to: String,
    /// Estimated seconds of the abandoned plan.
    pub from_est_seconds: f64,
    /// Profiled seconds of the adopted plan.
    pub to_profiled_seconds: f64,
}

/// Per-template runtime state.
#[derive(Debug, Clone)]
pub struct TemplateProfile {
    /// The candidates, as produced by the planner.
    pub candidates: Vec<CandidatePlan>,
    /// Index of the currently served candidate.
    pub selected: usize,
    /// Completed queries so far.
    pub completions: usize,
    /// Mean observed batch-execution seconds (the runtime profile).
    pub observed_mean: f64,
    batches: usize,
    reoptimized: bool,
}

impl TemplateProfile {
    fn new(candidates: Vec<CandidatePlan>) -> TemplateProfile {
        assert!(!candidates.is_empty(), "template needs at least one candidate");
        let selected = argmin(&candidates, |c| c.est_seconds);
        TemplateProfile {
            candidates,
            selected,
            completions: 0,
            observed_mean: 0.0,
            batches: 0,
            reoptimized: false,
        }
    }

    /// The candidate currently being served.
    pub fn current(&self) -> &CandidatePlan {
        &self.candidates[self.selected]
    }
}

/// The planner's serve-side hook: charges batches the profiled cost of
/// each template's selected plan and (in adaptive mode) re-ranks
/// mid-run.
#[derive(Debug, Clone)]
pub struct AdaptiveServer {
    /// Static or adaptive.
    pub mode: PlannerMode,
    /// Completed queries of a template before it may re-optimize.
    pub threshold: usize,
    /// Per-template state, indexed like the serve templates.
    pub templates: Vec<TemplateProfile>,
    /// Every switch taken, in time order.
    pub switches: Vec<PlanSwitch>,
}

impl AdaptiveServer {
    /// Builds the hook; each template starts on its estimate-cheapest
    /// candidate.
    pub fn new(mode: PlannerMode, threshold: usize, templates: Vec<Vec<CandidatePlan>>) -> Self {
        AdaptiveServer {
            mode,
            threshold: threshold.max(1),
            templates: templates.into_iter().map(TemplateProfile::new).collect(),
            switches: Vec::new(),
        }
    }
}

impl ServeHook for AdaptiveServer {
    fn template_cost(&mut self, tmpl: usize, _now: f64) -> Option<ClusterQueryCost> {
        Some(self.templates[tmpl].current().profiled.clone())
    }

    fn on_batch(&mut self, tmpl: usize, k: usize, exec_seconds: f64, done: f64) {
        let t = &mut self.templates[tmpl];
        t.completions += k;
        t.batches += 1;
        t.observed_mean += (exec_seconds - t.observed_mean) / t.batches as f64;
        if self.mode != PlannerMode::Adaptive || t.reoptimized || t.completions < self.threshold {
            return;
        }
        t.reoptimized = true;
        let best = argmin(&t.candidates, |c| c.profiled.total_seconds());
        if best != t.selected {
            self.switches.push(PlanSwitch {
                template: tmpl,
                at_seconds: done,
                from: t.candidates[t.selected].name.clone(),
                to: t.candidates[best].name.clone(),
                from_est_seconds: t.candidates[t.selected].est_seconds,
                to_profiled_seconds: t.candidates[best].profiled.total_seconds(),
            });
            t.selected = best;
        }
    }
}

fn argmin<T>(items: &[T], key: impl Fn(&T) -> f64) -> usize {
    let mut best = 0;
    for i in 1..items.len() {
        if key(&items[i]) < key(&items[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_cluster::{default_physical, NodeCost, QueryId};

    fn cost(local: f64, fabric: f64) -> ClusterQueryCost {
        ClusterQueryCost {
            per_node: vec![NodeCost { mem_seconds: local / 2.0, cpu_seconds: local / 2.0 }],
            local_seconds: local,
            fabric_seconds: fabric,
            merge_seconds: 0.0,
            fabric_bytes: 1000,
            failovers: 0,
            speculations: 0,
        }
    }

    fn two_candidates() -> Vec<CandidatePlan> {
        // Estimate prefers "gather" (1 ms), but the profile shows it
        // actually takes 10 ms while "shuffle" takes 2 ms.
        vec![
            CandidatePlan {
                name: "gather-topk".into(),
                plan: default_physical(QueryId::Q10),
                est_seconds: 1e-3,
                profiled: cost(5e-3, 5e-3),
            },
            CandidatePlan {
                name: "shuffle-topk".into(),
                plan: default_physical(QueryId::Q10),
                est_seconds: 3e-3,
                profiled: cost(1e-3, 1e-3),
            },
        ]
    }

    #[test]
    fn static_mode_never_switches() {
        let mut hook = AdaptiveServer::new(PlannerMode::Static, 4, vec![two_candidates()]);
        assert_eq!(hook.templates[0].selected, 0, "estimate picks gather");
        for i in 0..20 {
            hook.on_batch(0, 2, 1e-2, i as f64);
        }
        assert!(hook.switches.is_empty());
        assert_eq!(hook.templates[0].selected, 0);
    }

    #[test]
    fn adaptive_mode_switches_once_the_profile_contradicts_the_estimate() {
        let mut hook = AdaptiveServer::new(PlannerMode::Adaptive, 4, vec![two_candidates()]);
        hook.on_batch(0, 2, 1e-2, 0.5);
        assert!(hook.switches.is_empty(), "below threshold");
        hook.on_batch(0, 2, 1e-2, 0.9);
        assert_eq!(hook.switches.len(), 1);
        let s = &hook.switches[0];
        assert_eq!((s.from.as_str(), s.to.as_str()), ("gather-topk", "shuffle-topk"));
        assert_eq!(s.at_seconds, 0.9);
        assert_eq!(hook.templates[0].selected, 1);
        // The override now charges the adopted plan's profiled cost.
        let c = hook.template_cost(0, 1.0).unwrap();
        assert!((c.total_seconds() - 2e-3).abs() < 1e-12);
        // And it never switches twice.
        for i in 0..10 {
            hook.on_batch(0, 2, 2e-3, 1.0 + i as f64);
        }
        assert_eq!(hook.switches.len(), 1);
    }
}
