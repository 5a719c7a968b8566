//! The one serving engine behind [`serve`](mod@crate::serve)
//! (closed-loop clients) and [`crate::tenant`] (open-loop tenants): a
//! discrete-event loop on [`dpu_sim::EventQueue`] with a pluggable
//! arrival [`Source`], per-tenant admission slots (the closed loop is
//! one implicit tenant owning all of them), a [`DispatchQueue`] served
//! by priority, then start-time fair-queuing tag, then tenant index, and
//! optional adaptive batching, preemption, [`ServeHook`], shared fabric
//! and degraded window. [`Run`] and [`Latency`] are the report core both
//! front-ends share.
//!
//! A closed-loop query counts as completed at dispatch, when its finish
//! time is decided and its client's next arrival is scheduled; an
//! open-loop query counts at its completion event, because preemption
//! can still kill its batch.
//!
//! The loop keeps time in [`Time`] cycles of the rack's one clock: each
//! seconds value (think time, arrival, batch phase, horizon, window, SLO)
//! enters once through [`Time::from_secs`], each reported span leaves
//! once through [`Time::as_secs`]. Fair-queuing tags weigh service: `f64`.

use std::collections::VecDeque;

use dpu_sim::{EventQueue, SplitMix64, Time};

use crate::fabric::ServeFabric;
use crate::serve::{AdaptiveBatch, DegradedWindow, ServeHook, Template};
use crate::tenant::{Tenant, TraceShape};
use crate::CLOCK;

fn cycles(seconds: f64) -> Time {
    Time::from_secs(seconds, CLOCK)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A closed-loop client arrives and picks its template.
    Client,
    /// A pre-generated open-loop arrival.
    Query { tenant: usize, tmpl: usize },
    /// The batch dispatched on `server` in `epoch` finishes; a preemption
    /// bumps the epoch, so the killed batch's event arrives stale.
    Complete { server: usize, epoch: u64 },
}

/// Where queries come from.
pub(crate) enum Source<'a> {
    /// Clients that think (exponential with this mean), submit, and wait
    /// for their query before thinking again.
    Closed { clients: usize, think_seconds: f64 },
    /// Open-loop tenants whose arrival rates follow `trace`.
    Open { tenants: &'a [Tenant], trace: TraceShape },
}

/// One engine run; the fields mirror [`crate::ServeConfig`] and
/// [`crate::TenantServeConfig`].
pub(crate) struct Spec<'a> {
    pub templates: &'a [Template],
    pub source: Source<'a>,
    pub duration_seconds: f64,
    pub seed: u64,
    pub max_batch: usize,
    pub admit_cap: usize,
    pub concurrency: usize,
    /// Size batches with an [`AdaptiveBatch`] against `slo_seconds`.
    pub adaptive: bool,
    /// The closed loop's SLO (open-loop tenants carry their own).
    pub slo_seconds: Option<f64>,
    pub preemption: bool,
    pub window: Option<&'a DegradedWindow>,
    pub fabric: Option<ServeFabric>,
}

impl Spec<'_> {
    /// The one validator for both front-ends: it rejects a config that
    /// would never reach its horizon or could only report nonsense.
    fn validate(&self) {
        assert!(!self.templates.is_empty(), "need at least one template");
        let horizon = self.duration_seconds;
        assert!(horizon > 0.0 && horizon.is_finite(), "horizon must be positive and finite");
        let sizes = [self.max_batch, self.admit_cap, self.concurrency];
        assert!(sizes.iter().all(|&n| n > 0), "degenerate config: zero batch, slots or servers");
        assert!(self.slo_seconds.is_none_or(|s| s > 0.0), "SLO must be positive");
        if let Some(w) = self.window {
            assert!(w.from_seconds <= w.until_seconds, "inverted degraded window");
            assert!(w.cost_factor >= 1.0, "a degraded window cannot speed the cluster up");
        }
        match self.source {
            Source::Closed { clients, think_seconds } => {
                assert!(clients > 0, "need at least one client");
                assert!(think_seconds >= 0.0, "think time must be non-negative");
            }
            Source::Open { tenants, trace } => {
                assert!(!tenants.is_empty(), "need at least one tenant");
                trace.validate();
                for t in tenants {
                    assert!(t.weight > 0.0, "tenant {} needs a positive weight", t.name);
                    assert!(t.slo_seconds > 0.0, "tenant {} needs a positive SLO", t.name);
                    let rate_ok = t.rate_qps >= 0.0 && t.rate_qps.is_finite();
                    assert!(rate_ok, "tenant {} rate must be finite and non-negative", t.name);
                }
            }
        }
    }
}

/// One tenant's tallies.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub arrived: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// Queries killed in flight (a query preempted twice counts twice).
    pub preempted: u64,
    /// Latency of each counted completion.
    pub latencies: Vec<Time>,
}

/// What one engine run measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Run {
    /// Per tenant, in input order (one for the closed loop).
    pub tenants: Vec<Tally>,
    /// Finish time of each counted completion.
    done_times: Vec<Time>,
    pub batches: u64,
    pub preemptions: u64,
    /// Service thrown away by preemptions.
    pub wasted: Time,
    /// Per-query fabric phases, shared and isolated, summed at dispatch.
    fabric: Time,
    fabric_isolated: Time,
    /// Admitted queries still queued at the horizon.
    pub backlog: u64,
}

impl Run {
    /// Completions per second before, inside and after `window`, clipped
    /// to the horizon (all of it is "before" without a window).
    pub(crate) fn window_qps(&self, window: Option<&DegradedWindow>, horizon: f64) -> [f64; 3] {
        let horizon = cycles(horizon);
        let (from, until) = window
            .map(|w| (cycles(w.from_seconds).min(horizon), cycles(w.until_seconds).min(horizon)))
            .unwrap_or((horizon, horizon));
        let bucket = |lo: Time, hi: Time| -> f64 {
            if hi <= lo {
                return 0.0;
            }
            let n = self.done_times.iter().filter(|&&d| d >= lo && d < hi).count();
            n as f64 / (hi - lo).as_secs(CLOCK)
        };
        [bucket(Time::ZERO, from), bucket(from, until), bucket(until, horizon)]
    }

    /// Mean per-query fabric seconds `(shared, isolated)` over `completed`.
    pub(crate) fn fabric_means(&self, completed: u64) -> (f64, f64) {
        if completed == 0 {
            return (0.0, 0.0);
        }
        let mean = |t: Time| t.as_secs(CLOCK) / completed as f64;
        (mean(self.fabric), mean(self.fabric_isolated))
    }
}

/// Nearest-rank latency statistics of one set of completions.
pub(crate) struct Latency {
    pub completed: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Fraction at or under the SLO (1.0 with no SLO or no completion).
    pub slo_attainment: f64,
}

impl Latency {
    pub(crate) fn of(mut lat: Vec<Time>, slo: Option<f64>) -> Latency {
        let completed = lat.len() as u64;
        let slo_attainment = match slo {
            Some(s) if completed > 0 => {
                let s = cycles(s);
                lat.iter().filter(|&&l| l <= s).count() as f64 / completed as f64
            }
            _ => 1.0,
        };
        lat.sort_unstable();
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                return 0.0;
            }
            lat[((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1].as_secs(CLOCK)
        };
        let total: u128 = lat.iter().map(|l| u128::from(l.cycles())).sum();
        let mean = if completed > 0 { total as f64 / CLOCK.hz() / completed as f64 } else { 0.0 };
        Latency { completed, mean, p50: pct(0.50), p95: pct(0.95), p99: pct(0.99), slo_attainment }
    }
}

/// One server (an independent coordinator slot) and its batch.
#[derive(Default)]
struct Server {
    busy: bool,
    epoch: u64,
    tenant: usize,
    tmpl: usize,
    start: Time,
    done: Time,
    /// Arrival time of each query in the batch, oldest first.
    arrivals: Vec<Time>,
}

/// Every tenant's arrivals `(time, tenant, template)` in time order,
/// thinned from a Poisson process at the trace's peak rate. Each tenant
/// has its own `SplitMix64` stream, so adding a tenant never perturbs
/// another's arrivals.
fn open_arrivals(spec: &Spec, tenants: &[Tenant], trace: TraceShape) -> Vec<(Time, usize, usize)> {
    let (mut arrivals, peak, n_tmpl) = (Vec::new(), trace.peak(), spec.templates.len());
    for (i, t) in tenants.iter().enumerate() {
        let lam = t.rate_qps * peak;
        if lam <= 0.0 {
            continue;
        }
        let mut rng =
            SplitMix64::new(spec.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut now = 0.0f64;
        loop {
            now += -(1.0 - rng.next_f64()).ln() / lam;
            if now >= spec.duration_seconds {
                break;
            }
            let keep = rng.next_f64() < trace.intensity(now) / peak;
            let tmpl = (rng.next_f64() * n_tmpl as f64) as usize % n_tmpl;
            if keep {
                arrivals.push((cycles(now), i, tmpl));
            }
        }
    }
    arrivals.sort_by_key(|&(at, tenant, _)| (at, tenant));
    arrivals
}

/// Runs the serving loop `spec` describes, consulting `hook` at every
/// dispatch. Panics if the spec is degenerate (see [`Spec::validate`]).
pub(crate) fn run(spec: Spec<'_>, mut hook: Option<&mut dyn ServeHook>) -> Run {
    spec.validate();
    let n_tmpl = spec.templates.len();
    let mut events = EventQueue::new();
    let horizon = cycles(spec.duration_seconds);
    let window =
        spec.window.map(|w| (cycles(w.from_seconds), cycles(w.until_seconds), w.cost_factor));
    // The closed loop's one stream: initial think times, then template
    // picks, retry backoffs and next-query think times as they happen.
    let mut rng = SplitMix64::new(spec.seed);
    let clients =
        [Tenant { name: "clients", weight: 1.0, priority: 0, slo_seconds: 0.0, rate_qps: 0.0 }];
    let (tenants, think_mean) = match spec.source {
        Source::Closed { think_seconds, .. } => (&clients[..], think_seconds),
        Source::Open { tenants, .. } => (tenants, 0.0),
    };
    // An exponential think time from the uniform draw `u`.
    let think = |u: f64| cycles(if think_mean > 0.0 { -(1.0 - u).ln() * think_mean } else { 0.0 });
    match spec.source {
        Source::Closed { clients, .. } => {
            for _ in 0..clients {
                events.push(think(rng.next_f64()), Event::Client);
            }
        }
        Source::Open { tenants, trace } => {
            for (at, tenant, tmpl) in open_arrivals(&spec, tenants, trace) {
                events.push(at, Event::Query { tenant, tmpl });
            }
        }
    }
    let count_at_dispatch = matches!(spec.source, Source::Closed { .. });
    // A weight-proportional share of the cap, floored at one so a light
    // tenant is never locked out (the closed loop's one tenant owns all).
    let total_weight: f64 = tenants.iter().map(|t| t.weight).sum();
    let slots: Vec<usize> = tenants
        .iter()
        .map(|t| ((t.weight / total_weight * spec.admit_cap as f64).ceil() as usize).max(1))
        .collect();

    let n = tenants.len();
    let mut queue = DispatchQueue::new(n, n_tmpl);
    let mut servers: Vec<Server> = (0..spec.concurrency).map(|_| Server::default()).collect();
    let mut controller =
        spec.adaptive.then(|| AdaptiveBatch::new(spec.max_batch, spec.slo_seconds));
    let mut fabric = spec.fabric;
    // Start-time fair queuing: a batch's start tag is `max(tenant tag,
    // vnow)`, the tenant's tag moves to start tag + service / weight and
    // vnow to the start tag, so idleness never erases a tenant's lag.
    let mut vtime = vec![0.0f64; n];
    let mut vnow = 0.0f64;
    let mut run = Run { tenants: vec![Tally::default(); n], ..Run::default() };

    // `EventQueue` refuses an event in its past, so `now` never decreases.
    while let Some((now, event)) = events.pop() {
        if now > horizon {
            break;
        }
        let arrival = match event {
            Event::Client => Some((0, (rng.next_f64() * n_tmpl as f64) as usize % n_tmpl)),
            Event::Query { tenant, tmpl } => Some((tenant, tmpl)),
            Event::Complete { server, epoch } => {
                let s = &mut servers[server];
                if epoch != s.epoch {
                    continue; // a preempted batch's stale completion
                }
                s.busy = false;
                // The controller only ever sees completions from its past.
                if let Some(ctl) = &mut controller {
                    for &a in &s.arrivals {
                        ctl.observe((s.done - a).as_secs(CLOCK), queue.total);
                    }
                }
                if !count_at_dispatch {
                    for &a in &s.arrivals {
                        run.tenants[s.tenant].latencies.push(s.done - a);
                        run.done_times.push(s.done);
                    }
                }
                None
            }
        };
        if let Some((ten, tmpl)) = arrival {
            let tally = &mut run.tenants[ten];
            tally.arrived += 1;
            if queue.queued[ten] >= slots[ten] || queue.total >= spec.admit_cap {
                tally.rejected += 1;
                if event == Event::Client {
                    // A full queue implies every server is busy, so
                    // retrying no earlier than the next completion keeps
                    // the clock advancing even with zero think time.
                    let u = rng.next_f64();
                    let busy = servers.iter().filter(|s| s.busy);
                    let floor = busy.map(|s| s.done).min().unwrap_or(now);
                    events.push((now + think(u)).max(floor), event);
                }
                continue;
            }
            tally.admitted += 1;
            queue.push(ten, tmpl, now);
            // Preemption with every server busy: the victim is the lowest
            // priority below the arrival's, then the latest finisher (least
            // sunk work), then the lowest index. Its queries go back ahead
            // of their tenant's queue, arrival times kept.
            if spec.preemption && servers.iter().all(|s| s.busy) {
                let victim = (0..servers.len())
                    .filter(|&s| tenants[servers[s].tenant].priority < tenants[ten].priority)
                    .min_by(|&a, &b| {
                        let (x, y) = (&servers[a], &servers[b]);
                        (tenants[x.tenant].priority.cmp(&tenants[y.tenant].priority))
                            .then(y.done.cmp(&x.done))
                    });
                if let Some(v) = victim {
                    let s = &mut servers[v];
                    (s.busy, s.epoch) = (false, s.epoch + 1);
                    run.preemptions += 1;
                    run.tenants[s.tenant].preempted += s.arrivals.len() as u64;
                    run.wasted += now - s.start;
                    queue.push_front(s.tenant, s.tmpl, &s.arrivals);
                }
            }
        }

        // Dispatch while a server is idle and work is queued.
        while let Some(srv) = servers.iter().position(|s| !s.busy) {
            let Some(ten) = (0..n).filter(|&t| queue.queued[t] > 0).min_by(|&a, &b| {
                (tenants[b].priority.cmp(&tenants[a].priority)).then(vtime[a].total_cmp(&vtime[b]))
            }) else {
                break;
            };
            let tmpl = queue.front_template(ten).expect("the chosen tenant has work");
            let cap = controller.as_ref().map_or(spec.max_batch, |c| c.depth(queue.total));
            let s = &mut servers[srv];
            s.arrivals.clear();
            s.arrivals.extend(queue.take(ten, tmpl, cap));
            let k = s.arrivals.len();
            let factor = match window {
                Some((from, until, f)) if now >= from && now < until => f,
                _ => 1.0,
            };
            let hooked =
                hook.as_deref_mut().and_then(|h| h.template_cost(tmpl, now.as_secs(CLOCK)));
            let cost = hooked.as_ref().unwrap_or(&spec.templates[tmpl].cost);
            let iso = cycles(k as f64 * cost.fabric_seconds);
            let done = match &mut fabric {
                Some(sf) => {
                    // Local phase, then the fabric phase charged against
                    // the shared servers (k repeats of the per-query
                    // fabric), then the merges. The window factor covers
                    // the compute phases only.
                    let local_end = now + cycles(factor * cost.batch_local_seconds(k));
                    let fab = sf.charge_at(local_end, k as u64 * cost.fabric_bytes, iso);
                    run.fabric += fab;
                    local_end + fab + cycles(factor * k as f64 * cost.merge_seconds)
                }
                None => {
                    run.fabric += iso;
                    now + cycles(factor * cost.batch_seconds(k))
                }
            };
            run.fabric_isolated += iso;
            let exec = (done - now).as_secs(CLOCK);
            if let Some(h) = hook.as_deref_mut() {
                h.on_batch(tmpl, k, exec, done.as_secs(CLOCK));
            }
            let start_tag = vtime[ten].max(vnow);
            vtime[ten] = start_tag + exec / tenants[ten].weight;
            vnow = start_tag;
            run.batches += 1;
            (s.busy, s.tenant, s.tmpl, s.start, s.done) = (true, ten, tmpl, now, done);
            if count_at_dispatch {
                for &a in &s.arrivals {
                    run.tenants[ten].latencies.push(done - a);
                    run.done_times.push(done);
                    // The issuing client thinks, then comes back.
                    events.push(done + think(rng.next_f64()), Event::Client);
                }
            }
            events.push(done, Event::Complete { server: srv, epoch: s.epoch });
        }
    }

    run.backlog = queue.total as u64;
    let in_flight = servers.iter().filter(|s| s.busy && !count_at_dispatch);
    let uncounted: usize = in_flight.map(|s| s.arrivals.len()).sum();
    debug_assert_eq!(
        run.tenants.iter().map(|t| t.admitted).sum::<u64>(),
        (run.done_times.len() + queue.total + uncounted) as u64,
        "admitted must split into counted + queued + in flight"
    );
    run
}

/// The admission queue: one FIFO per (tenant, template), every entry
/// tagged with a sequence number. Within a tenant it acts as one FIFO
/// from which a dispatch pulls the first `k` entries of the head's
/// template and leaves the rest in order, at O(k + templates) instead of
/// a scan of the tenant's queue. Admissions count up from 0 and requeued
/// entries down from -1, so a preempted batch goes back ahead of
/// everything queued, the latest victim first.
struct DispatchQueue {
    /// `[tenant][template]`: `(sequence, arrival time)`, oldest first.
    fifos: Vec<Vec<VecDeque<(i64, Time)>>>,
    /// Entries per tenant, and in total.
    queued: Vec<usize>,
    total: usize,
    next_back: i64,
    next_front: i64,
}

impl DispatchQueue {
    fn new(tenants: usize, templates: usize) -> Self {
        DispatchQueue {
            fifos: vec![vec![VecDeque::new(); templates]; tenants],
            queued: vec![0; tenants],
            total: 0,
            next_back: 0,
            next_front: -1,
        }
    }

    fn push(&mut self, tenant: usize, tmpl: usize, arrival: Time) {
        self.fifos[tenant][tmpl].push_back((self.next_back, arrival));
        self.next_back += 1;
        self.queued[tenant] += 1;
        self.total += 1;
    }

    /// Puts one template's batch `arrivals` (oldest first) back at the
    /// front of `tenant`'s queue, in order.
    fn push_front(&mut self, tenant: usize, tmpl: usize, arrivals: &[Time]) {
        for &a in arrivals.iter().rev() {
            self.fifos[tenant][tmpl].push_front((self.next_front, a));
            self.next_front -= 1;
        }
        self.queued[tenant] += arrivals.len();
        self.total += arrivals.len();
    }

    /// The template of `tenant`'s oldest entry (`None` when it has none).
    fn front_template(&self, tenant: usize) -> Option<usize> {
        let fronts = self.fifos[tenant].iter().enumerate();
        fronts.filter_map(|(t, f)| f.front().map(|&(s, _)| (s, t))).min().map(|(_, t)| t)
    }

    /// Removes `tenant`'s oldest `min(k, queued)` entries of `tmpl`,
    /// yielding their arrival times oldest first.
    fn take(&mut self, tenant: usize, tmpl: usize, k: usize) -> impl Iterator<Item = Time> + '_ {
        let fifo = &mut self.fifos[tenant][tmpl];
        let k = k.min(fifo.len());
        self.queued[tenant] -= k;
        self.total -= k;
        fifo.drain(..k).map(|(_, arrival)| arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycles: &[u64]) -> Vec<Time> {
        cycles.iter().copied().map(Time::from_cycles).collect()
    }

    /// The open loop's original per-tenant queue: a dispatch takes up to
    /// `cap` entries of the head's template with `retain`, leaving the
    /// rest in order.
    fn oracle_take(queue: &mut VecDeque<(Time, usize)>, cap: usize) -> Option<(usize, Vec<Time>)> {
        let tmpl = queue.front()?.1;
        let mut batch = Vec::new();
        queue.retain(|&(arr, t)| {
            let take = t == tmpl && batch.len() < cap;
            if take {
                batch.push(arr);
            }
            !take
        });
        Some((tmpl, batch))
    }

    /// The open loop's original requeue: the victim's queries go back
    /// with `push_front`, last first, so the batch leads in order.
    fn oracle_requeue(queue: &mut VecDeque<(Time, usize)>, tmpl: usize, batch: &[Time]) {
        for &arr in batch.iter().rev() {
            queue.push_front((arr, tmpl));
        }
    }

    fn assert_same(oracle: &[VecDeque<(Time, usize)>], queue: &DispatchQueue, at: &str) {
        for (t, o) in oracle.iter().enumerate() {
            assert_eq!(queue.queued[t], o.len(), "{at}: tenant {t} length");
            assert_eq!(queue.front_template(t), o.front().map(|e| e.1), "{at}: tenant {t} head");
        }
        assert_eq!(queue.total, oracle.iter().map(VecDeque::len).sum::<usize>(), "{at}: total");
    }

    #[test]
    fn dispatch_queue_matches_single_fifo_scan_and_rebuild() {
        // Random pushes, takes and front-requeues over 1-4 tenants and
        // 1-8 templates, each checked against the per-tenant `VecDeque`
        // oracle. A requeue puts back any earlier batch, in any order,
        // so one tenant often gets several requeues before any of them
        // is dispatched again.
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let n_ten = 1 + rng.next_below(4) as usize;
            let n_tmpl = 1 + rng.next_below(8) as usize;
            let mut oracle = vec![VecDeque::new(); n_ten];
            let mut queue = DispatchQueue::new(n_ten, n_tmpl);
            let mut taken: Vec<(usize, usize, Vec<Time>)> = Vec::new();
            for step in 0..400 {
                let ten = rng.next_below(n_ten as u64) as usize;
                match rng.next_below(6) {
                    0..=2 => {
                        let t = rng.next_below(n_tmpl as u64) as usize;
                        oracle[ten].push_back((Time::from_cycles(step), t));
                        queue.push(ten, t, Time::from_cycles(step));
                    }
                    3 | 4 => {
                        let cap = 1 + rng.next_below(16) as usize;
                        let want = oracle_take(&mut oracle[ten], cap);
                        let got = queue
                            .front_template(ten)
                            .map(|t| (t, queue.take(ten, t, cap).collect::<Vec<_>>()));
                        assert_eq!(got, want, "seed {seed} step {step}");
                        taken.extend(got.map(|(t, batch)| (ten, t, batch)));
                    }
                    _ if !taken.is_empty() => {
                        let i = rng.next_below(taken.len() as u64) as usize;
                        let (ten, t, batch) = taken.swap_remove(i);
                        oracle_requeue(&mut oracle[ten], t, &batch);
                        queue.push_front(ten, t, &batch);
                    }
                    _ => {}
                }
                assert_same(&oracle, &queue, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn two_requeues_of_one_tenant_put_the_latest_victim_first() {
        // Tenant 0 queues templates [0, 1, 0, 1, 0] at times 0..5; two
        // batches are dispatched, then both are preempted, the template-0
        // batch first. Re-sorting by original admission would put the
        // template-0 batch (admitted first) ahead; the open loop's
        // `push_front` puts the later victim ahead.
        let mut oracle = vec![VecDeque::new()];
        let mut queue = DispatchQueue::new(1, 2);
        for (i, t) in [0, 1, 0, 1, 0].into_iter().enumerate() {
            oracle[0].push_back((Time::from_cycles(i as u64), t));
            queue.push(0, t, Time::from_cycles(i as u64));
        }
        let a: Vec<Time> = queue.take(0, 0, 2).collect();
        let b: Vec<Time> = queue.take(0, 1, 2).collect();
        assert_eq!(oracle_take(&mut oracle[0], 2), Some((0, a.clone())));
        assert_eq!(oracle_take(&mut oracle[0], 2), Some((1, b.clone())));
        for (t, batch) in [(0, &a), (1, &b)] {
            queue.push_front(0, t, batch);
            oracle_requeue(&mut oracle[0], t, batch);
        }
        assert_same(&oracle, &queue, "after both requeues");
        assert_eq!(queue.front_template(0), Some(1), "the later victim leads");
        assert_eq!(queue.take(0, 1, 8).collect::<Vec<_>>(), at(&[1, 3]));
        assert_eq!(queue.take(0, 0, 8).collect::<Vec<_>>(), at(&[0, 2, 4]));

        // Two single-query victims of one template: the later one first.
        let mut queue = DispatchQueue::new(1, 1);
        for i in 0..3 {
            queue.push(0, 0, Time::from_cycles(i as u64));
        }
        let first: Vec<Time> = queue.take(0, 0, 1).collect();
        let second: Vec<Time> = queue.take(0, 0, 1).collect();
        queue.push_front(0, 0, &first);
        queue.push_front(0, 0, &second);
        assert_eq!(queue.take(0, 0, 8).collect::<Vec<_>>(), at(&[1, 0, 2]));
    }
}
