//! Closed-loop serving front-end for the cluster.
//!
//! The rack is a serving system, not a batch machine: many clients
//! submit TPC-H queries concurrently, the coordinator batches
//! same-template queries (a batch shares each node's shard scan — see
//! [`ClusterQueryCost::batch_seconds`]), and an admission queue bounds
//! in-flight work. Up to [`ServeConfig::concurrency`] batches run at
//! once, each charged for fabric use against shared per-NIC/switch
//! bandwidth servers ([`ServeFabric`]) so shuffle-heavy plans interfere,
//! and an optional [`AdaptiveBatch`] controller deepens batches as the
//! admission queue grows and sheds depth when the observed p99
//! approaches a latency SLO. A [`DegradedWindow`] (a crash until its
//! recovery completes, every batch slower) splits QPS into before,
//! during and after, so the dip and the return to steady state are
//! measurable. The clients are one arrival source of the serving engine
//! shared with [`crate::tenant`].

use std::collections::VecDeque;

use xeon_model::XeonRack;

use crate::coordinator::ClusterQueryCost;
use crate::engine::{self, Latency, Source, Spec};
use crate::fabric::{FabricConfig, ServeFabric};

/// One query template the clients draw from.
#[derive(Debug, Clone)]
pub struct Template {
    /// Display name ("Q1", …).
    pub name: &'static str,
    /// The cluster cost of one execution (batching derives from it).
    pub cost: ClusterQueryCost,
    /// The per-socket Xeon time for the same query, seconds.
    pub xeon_seconds: f64,
}

/// A period of degraded service: from a node's crash until its recovery
/// completes, every batch dispatched inside the window runs slower by
/// `cost_factor` (survivors serve the dead node's shards on top of their
/// own, and re-replication traffic competes for the fabric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedWindow {
    /// Window start (the crash), seconds.
    pub from_seconds: f64,
    /// Window end (recovery complete), seconds.
    pub until_seconds: f64,
    /// Batch-time multiplier inside the window (≥ 1).
    pub cost_factor: f64,
}

/// Serving-loop parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Mean exponential think time between a client's queries, seconds.
    pub think_seconds: f64,
    /// Maximum same-template queries merged into one batch (the hard cap
    /// when the adaptive controller is on).
    pub max_batch: usize,
    /// Admission-queue capacity; arrivals beyond it are rejected and the
    /// client backs off one think time.
    pub admit_cap: usize,
    /// Simulated horizon, seconds.
    pub duration_seconds: f64,
    /// RNG seed (the loop is fully deterministic given the seed).
    pub seed: u64,
    /// Batches in flight at once (independent coordinators sharing the
    /// fabric). 1 reproduces the original scalar serving loop.
    pub concurrency: usize,
    /// Replace the fixed `max_batch` with the [`AdaptiveBatch`]
    /// controller (capped by `max_batch`).
    pub adaptive: bool,
    /// Latency SLO, seconds: completions at or under it count toward
    /// [`ServeReport::slo_attainment`], and the adaptive controller sheds
    /// batch depth as observed p99 approaches it.
    pub slo_seconds: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 32,
            think_seconds: 0.2,
            max_batch: 8,
            admit_cap: 64,
            duration_seconds: 60.0,
            seed: 2026,
            concurrency: 1,
            adaptive: false,
            slo_seconds: None,
        }
    }
}

/// What the serving loop measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Queries completed inside the horizon.
    pub completed: u64,
    /// Arrival events admitted into the queue.
    pub admitted: u64,
    /// Arrival events rejected by admission control.
    pub rejected: u64,
    /// Admitted queries still queued or in flight when the horizon
    /// closed (`admitted = completed + backlog`).
    pub backlog: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Mean end-to-end latency (queueing + batch execution), seconds.
    pub mean_latency: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// Mean executed batch size.
    pub mean_batch: f64,
    /// Fraction of completed queries at or under the SLO (1.0 when no
    /// SLO was configured).
    pub slo_attainment: f64,
    /// Mean per-query fabric phase under sharing, seconds (equals the
    /// isolated mean when no shared fabric was attached).
    pub mean_fabric_seconds: f64,
    /// Mean per-query fabric phase each template would cost in
    /// isolation, seconds.
    pub mean_fabric_isolated_seconds: f64,
    /// QPS over completions before the degraded window (equals `qps`
    /// when no window was applied).
    pub qps_pre_fault: f64,
    /// QPS inside the degraded window (0 when no window was applied).
    pub qps_during_fault: f64,
    /// QPS after the degraded window closes (0 when no window was
    /// applied or the window reaches the horizon).
    pub qps_post_fault: f64,
    /// Provisioned cluster power, watts.
    pub cluster_watts: f64,
    /// The Xeon rack's QPS on the same template mix.
    pub xeon_qps: f64,
    /// The Xeon rack's provisioned power, watts.
    pub xeon_watts: f64,
    /// (cluster QPS/W) / (Xeon rack QPS/W).
    pub perf_per_watt_gain: f64,
}

/// The adaptive batch-depth controller: deepen while the SLO has
/// headroom or the admission queue is growing, shed multiplicatively
/// when the observed p99 approaches the SLO.
///
/// The law, applied on every batch completion:
///
/// - with an SLO `S`: estimate p99 over a sliding window of recent
///   latencies; if `p99 > SHED_HEADROOM × S` **and** the admission
///   queue is no longer than the allowed depth (so the batch's own
///   execution, not queueing, is what drives latency), multiply the
///   allowed depth by [`SHED_FACTOR`] (floor 1); otherwise add
///   [`DEEPEN_STEP`] (cap `max_batch`). Shedding while a queue has
///   formed would cut service capacity exactly when it is short —
///   growing the queue is deepening's job;
/// - with no SLO: the allowed depth is simply the cap (pure elastic
///   batching — as deep as the backlog allows).
///
/// At dispatch, the batch takes `min(allowed, queue length, cap)`, with
/// one override: when the queue has grown past
/// [`QUEUE_PRESSURE`]` × cap`, latency is dominated by queueing, not by
/// batch execution, so the controller deepens straight to the cap —
/// shallow batches at that point would only starve throughput and grow
/// the queue further. Either way the depth can never exceed the
/// admission queue's current length or the configured cap
/// (property-tested).
///
/// The windowed p99 is the nearest-rank p99 of the last [`WINDOW_LEN`]
/// latencies. With fewer than 100 samples the nearest rank
/// `ceil(0.99 n)` is `n`, so it is exactly the window maximum, kept in a
/// monotonic deque: O(1) amortized per completion, no sort.
#[derive(Debug, Clone)]
pub struct AdaptiveBatch {
    cap: usize,
    slo: Option<f64>,
    allowed: f64,
    /// Completions observed so far (the index of the next sample).
    observed: u64,
    /// `(completion index, latency)` of the samples in the window that
    /// no later sample is at least as large as: latencies strictly
    /// decreasing (by `total_cmp`) front to back, so the front is the
    /// window maximum.
    window_max: VecDeque<(u64, f64)>,
}

/// Shed when the windowed p99 exceeds this fraction of the SLO.
pub const SHED_HEADROOM: f64 = 0.9;
/// Multiplicative decrease applied to the allowed depth on a shed.
pub const SHED_FACTOR: f64 = 0.7;
/// Additive increase applied to the allowed depth per completion with
/// SLO headroom.
pub const DEEPEN_STEP: f64 = 0.5;
/// Latency samples kept for the windowed p99 estimate.
pub const WINDOW_LEN: usize = 64;
// The nearest-rank p99 of fewer than 100 samples is their maximum; the
// controller's sliding-window maximum relies on it.
const _: () =
    assert!(WINDOW_LEN < 100, "windowed p99 is the window maximum only below 100 samples");
/// Queue length, in multiples of the cap, past which the controller
/// batches at full depth regardless of the SLO estimate.
pub const QUEUE_PRESSURE: usize = 2;

impl AdaptiveBatch {
    /// A controller capped at `cap`, shedding against `slo` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or the SLO is not positive.
    pub fn new(cap: usize, slo: Option<f64>) -> Self {
        assert!(cap > 0, "batch cap must be positive");
        if let Some(s) = slo {
            assert!(s > 0.0, "SLO must be positive");
        }
        AdaptiveBatch { cap, slo, allowed: 1.0, observed: 0, window_max: VecDeque::new() }
    }

    /// The depth the next batch may take given the admission queue's
    /// current length: never more than `queue_len`, never more than the
    /// cap, never less than 1.
    pub fn depth(&self, queue_len: usize) -> usize {
        let allowed = match self.slo {
            _ if queue_len >= QUEUE_PRESSURE * self.cap => self.cap,
            Some(_) => self.allowed as usize,
            None => self.cap,
        };
        allowed.min(queue_len).min(self.cap).max(1)
    }

    /// Feeds one completed query's latency back into the control law,
    /// along with the admission queue's length at completion time.
    pub fn observe(&mut self, latency_seconds: f64, queue_len: usize) {
        // Without an SLO the window is never read.
        let Some(slo) = self.slo else { return };
        let i = self.observed;
        self.observed += 1;
        while self.window_max.back().is_some_and(|&(_, l)| l.total_cmp(&latency_seconds).is_le()) {
            self.window_max.pop_back();
        }
        self.window_max.push_back((i, latency_seconds));
        while self.window_max.front().is_some_and(|&(j, _)| j + WINDOW_LEN as u64 <= i) {
            self.window_max.pop_front();
        }
        let p99 = self.window_max.front().expect("the newest sample is in the window").1;
        if p99 > SHED_HEADROOM * slo && queue_len as f64 <= self.allowed {
            self.allowed = (self.allowed * SHED_FACTOR).max(1.0);
        } else {
            self.allowed = (self.allowed + DEEPEN_STEP).min(self.cap as f64);
        }
    }

    /// The current allowed depth (before queue/cap clamping).
    pub fn allowed(&self) -> f64 {
        self.allowed
    }
}

/// Runs the closed-loop serving simulation over `templates` (uniform
/// template mix) on a healthy cluster drawing `cluster_watts`, comparing
/// against `xeon_rack` serving the same mix one query per socket.
///
/// # Panics
///
/// Panics if `templates` is empty or the config is degenerate: zero
/// clients, batch cap, admission slots or concurrency, an infinite or
/// empty horizon, a negative or NaN think time, or a non-positive SLO.
pub fn serve(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_pipeline_hooked(templates, cluster_watts, xeon_rack, cfg, None, None, None)
}

/// A dispatcher-side observer that can substitute the cost a template is
/// served with — the planner's insertion point for adaptive
/// re-optimization. The serving loop consults it at every dispatch and
/// then tells it the batch's decided execution time, so an
/// implementation can start from the plan its estimates favored, watch
/// actual runtimes, and swap in a cheaper plan mid-run (optd-style).
/// Returning `None` from [`template_cost`](Self::template_cost) leaves
/// the static [`Template::cost`] in force, reproducing the unhooked
/// pipeline event for event.
pub trait ServeHook {
    /// The cost to serve template `tmpl` with for a batch dispatched at
    /// `now` (`None` = the template's static cost).
    fn template_cost(&mut self, tmpl: usize, now: f64) -> Option<ClusterQueryCost>;

    /// A batch of `k` queries of `tmpl` was just dispatched, right after
    /// [`template_cost`](Self::template_cost) for it. It fires at
    /// dispatch, not at completion: `exec_seconds` is the batch's
    /// already-decided dispatch-to-completion time and `done` its
    /// absolute finish time, which simulated time has not reached yet.
    fn on_batch(&mut self, tmpl: usize, k: usize, exec_seconds: f64, done: f64);
}

/// The full concurrent pipeline: [`serve`] with batches dispatched
/// inside `window` slowed by its `cost_factor`, an optional shared
/// fabric `(rates, node count)` charging every in-flight batch's fabric
/// phase, and an optional [`ServeHook`] consulted at every dispatch
/// (`None`, or a hook that always returns `None`, changes nothing).
///
/// # Panics
///
/// Panics like [`serve`], or if the window is inverted or its factor is
/// below 1.
#[allow(clippy::too_many_arguments)]
pub fn serve_pipeline_hooked(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
    window: Option<&DegradedWindow>,
    fabric: Option<(&FabricConfig, usize)>,
    hook: Option<&mut dyn ServeHook>,
) -> ServeReport {
    let spec = Spec {
        templates,
        source: Source::Closed { clients: cfg.clients, think_seconds: cfg.think_seconds },
        duration_seconds: cfg.duration_seconds,
        seed: cfg.seed,
        max_batch: cfg.max_batch,
        admit_cap: cfg.admit_cap,
        concurrency: cfg.concurrency,
        adaptive: cfg.adaptive,
        slo_seconds: cfg.slo_seconds,
        preemption: false,
        window,
        fabric: fabric.map(|(fc, n)| ServeFabric::new(n, fc.clone())),
    };
    let mut run = engine::run(spec, hook);
    let [qps_pre_fault, qps_during_fault, qps_post_fault] =
        run.window_qps(window, cfg.duration_seconds);
    let lat = Latency::of(std::mem::take(&mut run.tenants[0].latencies), cfg.slo_seconds);
    let completed = lat.completed;
    let (mean_fabric_seconds, mean_fabric_isolated_seconds) = run.fabric_means(completed);

    let mean_xeon = templates.iter().map(|t| t.xeon_seconds).sum::<f64>() / templates.len() as f64;
    let xeon_qps = xeon_rack.qps(mean_xeon);
    let xeon_watts = xeon_rack.rack_watts();
    let qps = completed as f64 / cfg.duration_seconds;
    let perf_per_watt_gain =
        if qps > 0.0 { (qps / cluster_watts) / (xeon_qps / xeon_watts) } else { 0.0 };

    ServeReport {
        completed,
        admitted: run.tenants[0].admitted,
        rejected: run.tenants[0].rejected,
        // Queries count at dispatch, so the backlog is exactly what
        // was admitted but still queued at the horizon.
        backlog: run.backlog,
        qps,
        mean_latency: lat.mean,
        p50: lat.p50,
        p95: lat.p95,
        p99: lat.p99,
        mean_batch: if run.batches > 0 { completed as f64 / run.batches as f64 } else { 0.0 },
        slo_attainment: lat.slo_attainment,
        mean_fabric_seconds,
        mean_fabric_isolated_seconds,
        qps_pre_fault,
        qps_during_fault,
        qps_post_fault,
        cluster_watts,
        xeon_qps,
        xeon_watts,
        perf_per_watt_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::NodeCost;

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
    fn serving_completes_queries_deterministically() {
        let templates = vec![template("Q1", 0.010, 0.5), template("Q6", 0.005, 0.3)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig { duration_seconds: 10.0, ..ServeConfig::default() };
        let a = serve(&templates, 8.0 * 11.0, &rack, &cfg);
        let b = serve(&templates, 8.0 * 11.0, &rack, &cfg);
        assert!(a.completed > 0);
        assert_eq!(a.completed, b.completed, "same seed ⇒ same run");
        assert_eq!(a.p99, b.p99);
        assert!(a.p50 <= a.p95 && a.p95 <= a.p99);
        assert!(a.mean_latency > 0.0);
        assert!(a.qps > 0.0);
        // No window: everything lands in the "pre" bucket.
        assert!(a.qps_pre_fault > 0.0);
        assert_eq!(a.qps_during_fault, 0.0);
        assert_eq!(a.qps_post_fault, 0.0);
    }

    #[test]
    fn saturation_triggers_admission_control() {
        // Slow queries + no think time: the queue fills and rejects.
        let templates = vec![template("Q5", 0.5, 2.0)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig {
            clients: 128,
            think_seconds: 0.0,
            admit_cap: 8,
            duration_seconds: 20.0,
            ..ServeConfig::default()
        };
        let r = serve(&templates, 88.0, &rack, &cfg);
        assert!(r.rejected > 0, "an overloaded queue must reject");
        assert!(r.mean_batch > 1.0, "saturation should form batches");
    }

    #[test]
    fn batching_raises_throughput_under_load() {
        let templates = vec![template("Q1", 0.05, 0.5)];
        let rack = XeonRack::rack_42u();
        let base = ServeConfig {
            clients: 64,
            think_seconds: 0.0,
            duration_seconds: 20.0,
            ..ServeConfig::default()
        };
        let unbatched =
            serve(&templates, 88.0, &rack, &ServeConfig { max_batch: 1, ..base.clone() });
        let batched = serve(&templates, 88.0, &rack, &ServeConfig { max_batch: 8, ..base });
        assert!(
            batched.qps > 1.5 * unbatched.qps,
            "batched {} vs unbatched {}",
            batched.qps,
            unbatched.qps
        );
    }

    #[test]
    fn degraded_window_dips_qps_then_recovers_within_5_percent() {
        // Saturated loop so QPS tracks service rate directly: the window
        // must dip throughput while it is open and leave no residue once
        // recovery completes.
        let templates = vec![template("Q1", 0.05, 0.5)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig {
            clients: 64,
            think_seconds: 0.0,
            duration_seconds: 60.0,
            ..ServeConfig::default()
        };
        let window = DegradedWindow { from_seconds: 20.0, until_seconds: 40.0, cost_factor: 3.0 };
        let r = serve_pipeline_hooked(&templates, 88.0, &rack, &cfg, Some(&window), None, None);
        assert!(
            r.qps_during_fault < 0.6 * r.qps_pre_fault,
            "a 3× slowdown must dip QPS: {} vs {}",
            r.qps_during_fault,
            r.qps_pre_fault
        );
        let ratio = r.qps_post_fault / r.qps_pre_fault;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "post-recovery QPS must return to within 5% of steady state (ratio {ratio})"
        );
    }

    #[test]
    fn degraded_serving_stays_deterministic() {
        let templates = vec![template("Q1", 0.02, 0.5), template("Q6", 0.01, 0.3)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig { duration_seconds: 15.0, ..ServeConfig::default() };
        let w = DegradedWindow { from_seconds: 5.0, until_seconds: 9.0, cost_factor: 2.0 };
        let a = serve_pipeline_hooked(&templates, 88.0, &rack, &cfg, Some(&w), None, None);
        let b = serve_pipeline_hooked(&templates, 88.0, &rack, &cfg, Some(&w), None, None);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.qps_during_fault, b.qps_during_fault);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn concurrency_raises_throughput_of_mixed_saturated_load() {
        // Two templates that cannot share batches: with one in-flight
        // slot, they serialize; with two, they overlap.
        let templates = vec![template("Q1", 0.05, 0.5), template("Q5", 0.04, 0.6)];
        let rack = XeonRack::rack_42u();
        let base = ServeConfig {
            clients: 64,
            think_seconds: 0.0,
            duration_seconds: 20.0,
            max_batch: 4,
            ..ServeConfig::default()
        };
        let serial = serve(&templates, 88.0, &rack, &base);
        let two = serve(&templates, 88.0, &rack, &ServeConfig { concurrency: 2, ..base });
        assert!(
            two.qps > 1.3 * serial.qps,
            "2 in-flight batches should overlap: {} vs {}",
            two.qps,
            serial.qps
        );
    }

    #[test]
    fn admission_counters_conserve_arrivals() {
        let templates = vec![template("Q1", 0.03, 0.5), template("Q6", 0.01, 0.3)];
        let rack = XeonRack::rack_42u();
        for concurrency in [1usize, 3] {
            let cfg = ServeConfig {
                clients: 48,
                think_seconds: 0.05,
                duration_seconds: 10.0,
                concurrency,
                ..ServeConfig::default()
            };
            let r = serve(&templates, 88.0, &rack, &cfg);
            assert_eq!(
                r.admitted,
                r.completed + r.backlog,
                "admitted must split into completed + backlog"
            );
        }
    }

    #[test]
    fn adaptive_controller_sheds_under_slo_pressure() {
        let mut ctl = AdaptiveBatch::new(16, Some(1.0));
        for _ in 0..32 {
            ctl.observe(0.1, 0); // far under SLO: deepen
        }
        let deep = ctl.allowed();
        assert!(deep > 8.0, "headroom must deepen the batch (got {deep})");
        for _ in 0..8 {
            ctl.observe(2.0, 0); // p99 blows the SLO, empty queue: shed
        }
        assert!(ctl.allowed() < deep, "SLO pressure must shed depth");
        assert!(ctl.depth(1000) >= 1, "depth never drops below 1");
        // The same pressure with a standing queue must deepen instead:
        // the latency comes from queueing, and shallow batches feed it.
        let shallow = ctl.allowed();
        ctl.observe(2.0, 100);
        assert!(ctl.allowed() > shallow, "queue-dominated latency must deepen");
    }

    #[test]
    fn adaptive_depth_respects_queue_and_cap() {
        let ctl = AdaptiveBatch::new(8, None);
        assert_eq!(ctl.depth(0), 1);
        assert_eq!(ctl.depth(3), 3);
        assert_eq!(ctl.depth(100), 8);
    }

    #[test]
    fn noop_hook_reproduces_the_unhooked_pipeline() {
        struct Spy {
            batches: usize,
        }
        impl ServeHook for Spy {
            fn template_cost(&mut self, _: usize, _: f64) -> Option<ClusterQueryCost> {
                None
            }
            fn on_batch(&mut self, _: usize, _: usize, _: f64, _: f64) {
                self.batches += 1;
            }
        }
        let templates = vec![template("Q1", 0.02, 0.5), template("Q6", 0.01, 0.3)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig { duration_seconds: 10.0, ..ServeConfig::default() };
        let plain = serve(&templates, 88.0, &rack, &cfg);
        let mut spy = Spy { batches: 0 };
        let hooked =
            serve_pipeline_hooked(&templates, 88.0, &rack, &cfg, None, None, Some(&mut spy));
        assert_eq!(plain, hooked, "a pass-through hook must not perturb the run");
        assert!(spy.batches > 0, "the hook must see every completion");
    }

    #[test]
    fn cost_overriding_hook_changes_latency() {
        struct Slow;
        impl ServeHook for Slow {
            fn template_cost(&mut self, _: usize, _: f64) -> Option<ClusterQueryCost> {
                let mut c = template("x", 0.2, 0.5).cost;
                c.merge_seconds = 0.5;
                Some(c)
            }
            fn on_batch(&mut self, _: usize, _: usize, _: f64, _: f64) {}
        }
        let templates = vec![template("Q1", 0.02, 0.5)];
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig { duration_seconds: 10.0, ..ServeConfig::default() };
        let plain = serve(&templates, 88.0, &rack, &cfg);
        let mut slow = Slow;
        let hooked =
            serve_pipeline_hooked(&templates, 88.0, &rack, &cfg, None, None, Some(&mut slow));
        assert!(
            hooked.mean_latency > plain.mean_latency,
            "serving with a costlier plan must raise latency ({} vs {})",
            hooked.mean_latency,
            plain.mean_latency
        );
    }

    #[test]
    fn shared_fabric_inflates_concurrent_shuffles() {
        // A fabric-heavy template: at concurrency 4 with zero think time
        // the four in-flight batches hit the switch together, so the
        // mean per-query fabric phase must exceed the isolated cost.
        let mut t = template("Q10", 0.02, 0.5);
        t.cost.fabric_bytes = 64 << 20;
        t.cost.fabric_seconds = 0.05;
        let rack = XeonRack::rack_42u();
        let cfg = ServeConfig {
            clients: 32,
            think_seconds: 0.0,
            duration_seconds: 10.0,
            max_batch: 4,
            concurrency: 4,
            ..ServeConfig::default()
        };
        let fc = FabricConfig::infiniband();
        let shared =
            serve_pipeline_hooked(&[t.clone()], 88.0, &rack, &cfg, None, Some((&fc, 8)), None);
        assert!(
            shared.mean_fabric_seconds > shared.mean_fabric_isolated_seconds,
            "concurrent shuffles must contend: shared {} vs isolated {}",
            shared.mean_fabric_seconds,
            shared.mean_fabric_isolated_seconds
        );
        let alone = serve_pipeline_hooked(
            &[t],
            88.0,
            &rack,
            &ServeConfig { concurrency: 1, clients: 1, max_batch: 1, ..cfg },
            None,
            Some((&fc, 8)),
            None,
        );
        assert!(
            (alone.mean_fabric_seconds - alone.mean_fabric_isolated_seconds).abs() < 1e-12,
            "an uncontended fabric must charge exactly the isolated cost: {} vs {}",
            alone.mean_fabric_seconds,
            alone.mean_fabric_isolated_seconds
        );
    }

    fn serve_with(cfg: ServeConfig) -> ServeReport {
        serve(&[template("Q1", 0.01, 0.5)], 88.0, &XeonRack::rack_42u(), &cfg)
    }

    #[test]
    #[should_panic(expected = "horizon must be positive and finite")]
    fn infinite_horizon_is_rejected() {
        serve_with(ServeConfig { duration_seconds: f64::INFINITY, ..ServeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "think time must be non-negative")]
    fn negative_think_time_is_rejected() {
        serve_with(ServeConfig { think_seconds: -0.1, ..ServeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "think time must be non-negative")]
    fn nan_think_time_is_rejected() {
        serve_with(ServeConfig { think_seconds: f64::NAN, ..ServeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn zero_slo_is_rejected_without_the_controller() {
        serve_with(ServeConfig {
            slo_seconds: Some(0.0),
            adaptive: false,
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn negative_slo_is_rejected_without_the_controller() {
        serve_with(ServeConfig {
            slo_seconds: Some(-1.0),
            adaptive: false,
            ..ServeConfig::default()
        });
    }
}
