//! Concurrent serving pipeline for the cluster.
//!
//! The rack is a serving system, not a batch machine: many clients
//! submit TPC-H queries concurrently, the coordinator batches
//! same-template queries (a batch shares each node's shard scan — see
//! [`ClusterQueryCost::batch_seconds`]), and an admission queue bounds
//! in-flight work. Since PR 3 the loop is an event-driven pipeline with
//! up to [`ServeConfig::concurrency`] queries in flight at once, each
//! charged for fabric use against shared per-NIC/switch bandwidth
//! servers ([`ServeFabric`]) so shuffle-heavy plans interfere
//! realistically, and an optional [`AdaptiveBatch`] controller that
//! deepens batches as the admission queue grows and sheds depth when the
//! observed p99 approaches a latency SLO. With `concurrency = 1`, no
//! SLO and the controller off, the pipeline reproduces the original
//! scalar serving loop event for event (pinned by a regression test).
//!
//! [`serve_with_faults`] additionally applies a [`DegradedWindow`] — the
//! period between a node crash and the end of its recovery, during which
//! surviving replicas absorb the dead node's shards and every batch runs
//! slower — and reports QPS before, during, and after the window so the
//! dip and the post-recovery return to steady state are measurable.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use dpu_sim::SplitMix64;
use xeon_model::XeonRack;

use crate::coordinator::ClusterQueryCost;
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

/// f64 with a total order, for the event heap (shared with the
/// open-loop multi-tenant loop in [`crate::tenant`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The closed loop's admission queue, held as one FIFO per template with
/// every entry tagged by its admission sequence number. It behaves as a
/// single FIFO from which each dispatch pulls the first `k` entries of
/// the head's template, leaving the rest in order, but a dispatch costs
/// O(k + templates) instead of a scan and rebuild of the whole queue.
struct DispatchQueue {
    /// Per template: `(admission sequence, arrival time)`, oldest first.
    fifos: Vec<VecDeque<(u64, f64)>>,
    /// Entries across every FIFO.
    queued: usize,
    /// Sequence number of the next admission.
    next_seq: u64,
}

impl DispatchQueue {
    fn new(templates: usize) -> Self {
        DispatchQueue { fifos: vec![VecDeque::new(); templates], queued: 0, next_seq: 0 }
    }

    fn len(&self) -> usize {
        self.queued
    }

    fn push(&mut self, arrival: f64, tmpl: usize) {
        self.fifos[tmpl].push_back((self.next_seq, arrival));
        self.next_seq += 1;
        self.queued += 1;
    }

    /// The template of the oldest queued entry (`None` when empty).
    fn front_template(&self) -> Option<usize> {
        self.fifos
            .iter()
            .enumerate()
            .filter_map(|(t, f)| f.front().map(|&(s, _)| (s, t)))
            .min()
            .map(|(_, t)| t)
    }

    /// Removes the oldest `min(k, queued of tmpl)` entries of `tmpl`,
    /// yielding their arrival times oldest first.
    fn take(&mut self, tmpl: usize, k: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let fifo = &mut self.fifos[tmpl];
        let k = k.min(fifo.len());
        self.queued -= k;
        fifo.drain(..k).map(|(_, arrival)| arrival)
    }
}

/// Runs the closed-loop serving simulation over `templates` (uniform
/// template mix) on a healthy cluster drawing `cluster_watts`, comparing
/// against `xeon_rack` serving the same mix one query per socket.
///
/// # Panics
///
/// Panics if `templates` is empty or the config is degenerate (zero
/// clients, zero duration, zero concurrency).
pub fn serve(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_pipeline(templates, cluster_watts, xeon_rack, cfg, None, None)
}

/// [`serve`], with batches dispatched inside `window` slowed by its
/// `cost_factor` — the coarse serving-level view of a crash + recovery.
///
/// # Panics
///
/// Panics like [`serve`], or if the window is inverted or its factor is
/// below 1.
pub fn serve_with_faults(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
    window: Option<&DegradedWindow>,
) -> ServeReport {
    serve_pipeline(templates, cluster_watts, xeon_rack, cfg, window, None)
}

/// Event kinds: client arrivals carry small ids; a batch completion on
/// server `i` is encoded as `COMPLETE_BASE + i`.
const COMPLETE_BASE: usize = usize::MAX / 2;

/// A dispatcher-side observer that can substitute the cost a template is
/// served with — the planner's insertion point for adaptive
/// re-optimization. The serving loop consults it at every dispatch and
/// reports every batch completion back, so an implementation can start
/// from the plan its estimates favored, watch actual runtimes, and swap
/// in a cheaper plan mid-run (optd-style). Returning `None` from
/// [`template_cost`](Self::template_cost) leaves the static
/// [`Template::cost`] in force, reproducing the unhooked pipeline
/// event for event.
pub trait ServeHook {
    /// The cost to serve template `tmpl` with for a batch dispatched at
    /// `now` (`None` = the template's static cost).
    fn template_cost(&mut self, tmpl: usize, now: f64) -> Option<ClusterQueryCost>;

    /// One batch of `k` queries of `tmpl` finished; `exec_seconds` is its
    /// dispatch-to-completion time and `done` the absolute finish time.
    fn on_batch(&mut self, tmpl: usize, k: usize, exec_seconds: f64, done: f64);
}

/// The full concurrent pipeline: [`serve_with_faults`] plus an optional
/// shared fabric `(rates, node count)` against which every in-flight
/// batch's fabric phase is charged, so concurrent shuffle-heavy queries
/// interfere instead of being costed in isolation.
///
/// # Panics
///
/// Panics like [`serve_with_faults`].
pub fn serve_pipeline(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
    window: Option<&DegradedWindow>,
    fabric: Option<(&FabricConfig, usize)>,
) -> ServeReport {
    serve_pipeline_hooked(templates, cluster_watts, xeon_rack, cfg, window, fabric, None)
}

/// [`serve_pipeline`] with an optional [`ServeHook`] consulted at every
/// dispatch and notified of every completion. With `hook = None` (or a
/// hook that always returns `None`) the run is event-for-event identical
/// to the unhooked pipeline.
///
/// # Panics
///
/// Panics like [`serve_with_faults`].
#[allow(clippy::too_many_arguments)]
pub fn serve_pipeline_hooked(
    templates: &[Template],
    cluster_watts: f64,
    xeon_rack: &XeonRack,
    cfg: &ServeConfig,
    window: Option<&DegradedWindow>,
    fabric: Option<(&FabricConfig, usize)>,
    mut hook: Option<&mut dyn ServeHook>,
) -> ServeReport {
    assert!(!templates.is_empty(), "need at least one template");
    assert!(cfg.clients > 0 && cfg.duration_seconds > 0.0, "degenerate config");
    assert!(cfg.max_batch > 0 && cfg.admit_cap > 0, "degenerate config");
    assert!(cfg.concurrency > 0, "need at least one server");
    if let Some(w) = window {
        assert!(w.from_seconds <= w.until_seconds, "inverted degraded window");
        assert!(w.cost_factor >= 1.0, "a degraded window cannot speed the cluster up");
    }

    let mut rng = SplitMix64::new(cfg.seed);
    let mut uniform = move || rng.next_f64();
    let think = {
        let mean = cfg.think_seconds;
        move |u: f64| if mean > 0.0 { -(1.0 - u).ln() * mean } else { 0.0 }
    };

    // Event heap: (time, seq, kind). seq keeps ordering deterministic for
    // simultaneous events.
    let mut events: BinaryHeap<Reverse<(OrdF64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for c in 0..cfg.clients {
        let u = uniform();
        events.push(Reverse((OrdF64(think(u)), seq, c)));
        seq += 1;
    }

    let n_srv = cfg.concurrency;
    let mut queue = DispatchQueue::new(templates.len());
    let mut server_free_at = vec![0.0f64; n_srv];
    let mut server_busy = vec![false; n_srv];
    // Latencies of each server's in-flight batch, fed to the controller
    // when its completion event fires (the controller only ever sees
    // completions from its past).
    let mut server_pending: Vec<Vec<f64>> = vec![Vec::new(); n_srv];
    let mut controller = cfg.adaptive.then(|| AdaptiveBatch::new(cfg.max_batch, cfg.slo_seconds));
    let mut shared = fabric.map(|(fc, n)| ServeFabric::new(n, fc.clone()));

    let mut latencies: Vec<f64> = Vec::new();
    let mut done_times: Vec<f64> = Vec::new();
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut batches = 0u64;
    let mut fabric_sum = 0.0f64; // per-query fabric seconds, shared
    let mut fabric_iso_sum = 0.0f64; // per-query fabric seconds, isolated
    let mut last_now = f64::NEG_INFINITY;

    while let Some(Reverse((OrdF64(now), _, kind))) = events.pop() {
        debug_assert!(now >= last_now, "simulated clock ran backwards: {now} < {last_now}");
        last_now = now;
        if now > cfg.duration_seconds {
            break;
        }
        if kind < COMPLETE_BASE {
            // A client arrival: pick a template, try to enter the queue.
            let t = (uniform() * templates.len() as f64) as usize % templates.len();
            if queue.len() >= cfg.admit_cap {
                rejected += 1;
                let u = uniform();
                // A full queue implies every server is busy (dispatch
                // drains whenever one is idle), so retrying no earlier
                // than the next completion event keeps the clock
                // advancing even with zero think time.
                let next_done = server_free_at
                    .iter()
                    .zip(&server_busy)
                    .filter(|&(_, &b)| b)
                    .map(|(&f, _)| f)
                    .fold(f64::INFINITY, f64::min);
                let floor = if next_done.is_finite() { next_done } else { now };
                let retry = (now + think(u)).max(floor);
                events.push(Reverse((OrdF64(retry), seq, kind)));
                seq += 1;
                continue;
            }
            // The client now waits for completion (closed loop); its next
            // arrival is scheduled at dispatch below.
            admitted += 1;
            queue.push(now, t);
        } else {
            let s = kind - COMPLETE_BASE;
            server_busy[s] = false;
            if let Some(ctl) = &mut controller {
                for &l in &server_pending[s] {
                    ctl.observe(l, queue.len());
                }
            }
            server_pending[s].clear();
        }

        // Dispatch while a server is idle and work is queued.
        while let Some(srv) = (0..n_srv).find(|&i| !server_busy[i]) {
            let Some(tmpl) = queue.front_template() else { break };
            let cap = controller.as_ref().map_or(cfg.max_batch, |c| c.depth(queue.len()));
            // Up to `cap` same-template queries, oldest first.
            let batch = queue.take(tmpl, cap);
            let k = batch.len();
            let start = server_free_at[srv].max(now);
            let factor = match window {
                Some(w) if start >= w.from_seconds && start < w.until_seconds => w.cost_factor,
                _ => 1.0,
            };
            let hooked_cost = hook.as_deref_mut().and_then(|h| h.template_cost(tmpl, now));
            let cost = hooked_cost.as_ref().unwrap_or(&templates[tmpl].cost);
            let iso_fabric = cost.fabric_seconds;
            let done = match &mut shared {
                Some(sf) => {
                    // Decomposed path: local phase, then the fabric phase
                    // charged against the shared servers (a batch repeats
                    // its per-query fabric k times), then the merges. The
                    // degraded-window factor covers the compute phases;
                    // the fabric runs at its own (shared) rate.
                    let local_end = start + factor * cost.batch_local_seconds(k);
                    let fab =
                        sf.charge(local_end, k as u64 * cost.fabric_bytes, k as f64 * iso_fabric);
                    fabric_sum += fab;
                    local_end + fab + factor * k as f64 * cost.merge_seconds
                }
                None => {
                    fabric_sum += k as f64 * iso_fabric;
                    start + factor * cost.batch_seconds(k)
                }
            };
            fabric_iso_sum += k as f64 * iso_fabric;
            if let Some(h) = hook.as_deref_mut() {
                h.on_batch(tmpl, k, done - start, done);
            }
            server_free_at[srv] = done;
            server_busy[srv] = true;
            batches += 1;
            for arr in batch {
                latencies.push(done - arr);
                done_times.push(done);
                server_pending[srv].push(done - arr);
                // The issuing client thinks, then comes back.
                let u = uniform();
                events.push(Reverse((OrdF64(done + think(u)), seq, 0)));
                seq += 1;
            }
            events.push(Reverse((OrdF64(done), seq, COMPLETE_BASE + srv)));
            seq += 1;
        }
    }

    let completed = latencies.len() as u64;
    // A dispatched query's completion is recorded at dispatch (its
    // finish time is already decided), so the backlog is exactly what
    // was admitted but still sat in the queue at the horizon.
    let backlog = queue.len() as u64;
    debug_assert_eq!(admitted, completed + backlog, "admission counters must conserve");
    let slo_attainment = match cfg.slo_seconds {
        Some(slo) if completed > 0 => {
            latencies.iter().filter(|&&l| l <= slo).count() as f64 / completed as f64
        }
        _ => 1.0,
    };
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let i = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[i - 1]
    };
    let mean_latency = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };

    // Bucket completions around the degraded window (whole horizon =
    // "pre" when no window was applied).
    let (w_from, w_until) = window
        .map(|w| {
            (w.from_seconds.min(cfg.duration_seconds), w.until_seconds.min(cfg.duration_seconds))
        })
        .unwrap_or((cfg.duration_seconds, cfg.duration_seconds));
    let bucket_qps = |lo: f64, hi: f64| -> f64 {
        if hi <= lo {
            return 0.0;
        }
        done_times.iter().filter(|&&d| d >= lo && d < hi).count() as f64 / (hi - lo)
    };
    let qps_pre_fault = bucket_qps(0.0, w_from);
    let qps_during_fault = bucket_qps(w_from, w_until);
    let qps_post_fault = bucket_qps(w_until, cfg.duration_seconds);

    let mean_xeon = templates.iter().map(|t| t.xeon_seconds).sum::<f64>() / templates.len() as f64;
    let xeon_qps = xeon_rack.qps(mean_xeon);
    let xeon_watts = xeon_rack.rack_watts();
    let qps = completed as f64 / cfg.duration_seconds;
    let perf_per_watt_gain =
        if qps > 0.0 { (qps / cluster_watts) / (xeon_qps / xeon_watts) } else { 0.0 };

    ServeReport {
        completed,
        admitted,
        rejected,
        backlog,
        qps,
        mean_latency,
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        mean_batch: if batches > 0 { completed as f64 / batches as f64 } else { 0.0 },
        slo_attainment,
        mean_fabric_seconds: if completed > 0 { fabric_sum / completed as f64 } else { 0.0 },
        mean_fabric_isolated_seconds: if completed > 0 {
            fabric_iso_sum / completed as f64
        } else {
            0.0
        },
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
        let r = serve_with_faults(&templates, 88.0, &rack, &cfg, Some(&window));
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
        let a = serve_with_faults(&templates, 88.0, &rack, &cfg, Some(&w));
        let b = serve_with_faults(&templates, 88.0, &rack, &cfg, Some(&w));
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
    fn dispatch_queue_matches_single_fifo_scan_and_rebuild() {
        // Oracle: one FIFO of (arrival, template); a dispatch takes up to
        // `cap` entries of the head's template in a full scan and
        // rebuilds the queue from the rest.
        fn oracle_take(
            queue: &mut VecDeque<(f64, usize)>,
            cap: usize,
        ) -> Option<(usize, Vec<f64>)> {
            let tmpl = queue.front()?.1;
            let mut batch = Vec::new();
            let mut rest = VecDeque::new();
            while let Some((arr, t)) = queue.pop_front() {
                if t == tmpl && batch.len() < cap {
                    batch.push(arr);
                } else {
                    rest.push_back((arr, t));
                }
            }
            *queue = rest;
            Some((tmpl, batch))
        }
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let n_tmpl = 1 + rng.next_below(8) as usize;
            let mut oracle: VecDeque<(f64, usize)> = VecDeque::new();
            let mut queue = DispatchQueue::new(n_tmpl);
            for step in 0..400 {
                if rng.next_below(3) > 0 {
                    let t = rng.next_below(n_tmpl as u64) as usize;
                    oracle.push_back((step as f64, t));
                    queue.push(step as f64, t);
                } else {
                    let cap = 1 + rng.next_below(16) as usize;
                    let want = oracle_take(&mut oracle, cap);
                    let got = queue.front_template().map(|t| (t, queue.take(t, cap).collect()));
                    assert_eq!(got, want, "seed {seed} step {step}");
                }
                assert_eq!(queue.len(), oracle.len(), "seed {seed} step {step}");
            }
        }
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
        let shared = serve_pipeline(&[t.clone()], 88.0, &rack, &cfg, None, Some((&fc, 8)));
        assert!(
            shared.mean_fabric_seconds > shared.mean_fabric_isolated_seconds,
            "concurrent shuffles must contend: shared {} vs isolated {}",
            shared.mean_fabric_seconds,
            shared.mean_fabric_isolated_seconds
        );
        let alone = serve_pipeline(
            &[t],
            88.0,
            &rack,
            &ServeConfig { concurrency: 1, clients: 1, max_batch: 1, ..cfg },
            None,
            Some((&fc, 8)),
        );
        assert!(
            (alone.mean_fabric_seconds - alone.mean_fabric_isolated_seconds).abs() < 1e-12,
            "an uncontended fabric must charge exactly the isolated cost: {} vs {}",
            alone.mean_fabric_seconds,
            alone.mean_fabric_isolated_seconds
        );
    }
}
