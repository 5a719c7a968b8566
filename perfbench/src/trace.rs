//! In-memory spans around the benchmark's calls into each layer, with
//! self-time accounting and Chrome trace-event export (Perfetto opens
//! the file).
//!
//! A span records its name, start, end, parent span, the op it belongs
//! to, the thread it ran on, and a work count (rows, calls, completions)
//! for rate metrics. Spans stay in memory until the run ends. A disabled
//! tracer runs the wrapped calls without reading the clock.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dpu_bench::json::Json;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `cluster.run.Q6`.
    pub name: &'static str,
    /// Free-form qualifier shown in the trace (e.g. the query name).
    pub detail: &'static str,
    /// The op this span belongs to (`None` in set-up and replays).
    pub op: Option<u64>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Units of work done inside the span (0 when not counted).
    pub work: u64,
    /// Small per-thread id.
    pub tid: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where a new span hangs: its parent and op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Parent span id.
    pub parent: Option<u64>,
    /// Op index.
    pub op: Option<u64>,
}

impl Ctx {
    /// The context of op `i` at top level.
    pub fn op(i: u64) -> Ctx {
        Ctx { parent: None, op: Some(i) }
    }
}

/// The span recorder. `Sync`: pool workers record into it directly.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer { on: true, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::new() }
    }

    /// Runs `f` in a span named `name` under `ctx`.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        self.span_work(name, "", ctx, |c| (f(c), 0))
    }

    /// Runs `f` in a span; `f` also returns the work it did.
    pub fn span_work<R>(
        &self,
        name: &'static str,
        detail: &'static str,
        ctx: Ctx,
        f: impl FnOnce(Ctx) -> (R, u64),
    ) -> R {
        if !self.on {
            return f(ctx).0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let (r, work) = f(Ctx { parent: Some(id), op: ctx.op });
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: ctx.parent,
            name,
            detail,
            op: ctx.op,
            start_ns: start,
            end_ns: end,
            work,
            tid: tid(),
        };
        self.spans.lock().expect("a span recorder panicked mid-push").push(span);
        r
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span recorder panicked mid-push").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-name totals: span count, summed duration and summed self time
/// (duration minus the part of it covered by the span's children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Self time per span name. Children may overlap each other (pool
/// workers run them in parallel); the union of their intervals, clipped
/// to the parent's, is what gets subtracted.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += s.secs();
        e.self_s += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// The spans as a Chrome trace-event document, with `other` attached as
/// its metadata.
pub fn chrome_trace(spans: &[Span], other: Json) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id".to_string(), Json::Num(s.id as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::Num(p as f64)));
            }
            if let Some(op) = s.op {
                args.push(("op".into(), Json::Num(op as f64)));
            }
            if s.work > 0 {
                args.push(("work".into(), Json::Num(s.work as f64)));
            }
            if !s.detail.is_empty() {
                args.push(("detail".into(), Json::str(s.detail)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", other),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            detail: "",
            op: None,
            start_ns: start,
            end_ns: end,
            work: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "a", 0, 100),
            // Two overlapping children (parallel workers) cover 10..60,
            // a third covers 80..120 but only 80..100 inside the parent.
            span(2, Some(1), "b", 10, 50),
            span(3, Some(1), "b", 20, 60),
            span(4, Some(1), "c", 80, 120),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["a"].count, 1);
        assert!((t["a"].self_s - 30e-9).abs() < 1e-15, "{:?}", t["a"]);
        assert_eq!(t["b"].count, 2);
        assert!((t["b"].total_s - 80e-9).abs() < 1e-15);
        assert!((t["c"].self_s - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_carry_ops_and_work() {
        let tr = Tracer::new();
        let v = tr.span("outer", Ctx::op(7), |c| tr.span_work("inner", "Q1", c, |_| (5, 42)));
        assert_eq!(v, 5);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.op, outer.op), (Some(7), Some(7)));
        assert_eq!((inner.work, inner.detail), (42, "Q1"));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let doc = chrome_trace(&spans, Json::obj([("k", Json::Bool(true))])).render();
        assert!(doc.starts_with(r#"{"traceEvents":[{"name":"outer""#));
        assert!(doc.contains(r#""ph":"X""#) && doc.contains(r#""otherData":{"k":true}"#));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", Ctx::default(), |_| 3), 3);
        assert!(tr.spans().is_empty());
    }
}
