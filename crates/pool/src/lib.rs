//! A hand-rolled scoped work-stealing thread pool for **host-side**
//! parallelism.
//!
//! Everything this workspace simulates — DPU cycles, fabric transfers,
//! serve loops — runs in *simulated* time and is strictly deterministic.
//! This crate parallelizes the **host** work that produces those
//! deterministic results, one level deep and above the operators, the
//! way the rack spreads work across DPUs: per-shard sub-plans,
//! single-node references, Q10 owners and sweep cells. Every operator
//! below that fan-out runs sequentially on its worker. The contract is
//! that a parallel caller always merges worker results in a fixed input
//! order, so results are bit-identical at any thread count (pinned by
//! `tests/parallel_properties.rs` and the thread-determinism test in
//! `tests/cluster_serve.rs`).
//!
//! Design notes:
//!
//! - Built on [`std::thread::scope`] only — no external dependencies, no
//!   `unsafe`, no `'static` bounds on borrowed inputs.
//! - Each [`Pool::par_map`] call spawns its workers fresh. Jobs are
//!   index-tagged; each worker drains its own deque front-to-back and
//!   steals from victims back-to-front, and the caller reassembles
//!   results **in input order** regardless of which worker ran what.
//! - Worker threads set a thread-local flag so *nested* `par_map` calls
//!   degrade to sequential execution instead of oversubscribing the
//!   host (see [`in_worker`]).
//! - One worker (or [`in_worker`] context) means a plain sequential
//!   `map` — no threads, no locks, the exact single-threaded code route.
//!
//! The global thread count resolves once from `DPU_THREADS`, falling
//! back to [`std::thread::available_parallelism`]; benches and tests
//! that need to compare thread counts within one process override it
//! with [`set_global_threads`]. `DPU_THREADS` is the workspace's one
//! environment knob, and it is pure performance.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The resolved global worker count: `0` until [`global_threads`]
/// first reads `DPU_THREADS` (or [`set_global_threads`] overrides it).
/// A plain atomic rather than a `OnceLock`, because the override must
/// be able to *re*-store after resolution.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Parses a `DPU_THREADS` spelling: a positive integer is taken
/// verbatim, anything else (unset, `0`, garbage) yields `fallback`.
fn parse_threads(v: Option<&str>, fallback: usize) -> usize {
    v.and_then(|s| s.parse::<usize>().ok()).filter(|&n| n >= 1).unwrap_or(fallback)
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Fan-out callers check
/// this to run nested calls sequentially (the outer `par_map` already
/// owns the host's cores; nesting would oversubscribe).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Overrides the global worker count (clamped to ≥ 1) for subsequent
/// [`Pool::global`] calls. `DPU_THREADS` is read once per process, so
/// benches and tests that compare thread counts in-process use this.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads.max(1), Ordering::SeqCst);
}

/// The global worker count: the last [`set_global_threads`] value, else
/// `DPU_THREADS` (if set to a positive integer), else
/// [`std::thread::available_parallelism`], else 1.
pub fn global_threads() -> usize {
    let cached = GLOBAL_THREADS.load(Ordering::SeqCst);
    if cached != 0 {
        return cached;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = parse_threads(std::env::var("DPU_THREADS").ok().as_deref(), host);
    GLOBAL_THREADS.store(threads, Ordering::SeqCst);
    threads
}

/// A work-stealing pool of `threads` workers. Copyable and stateless:
/// workers are scoped to each call, so a `Pool` is just a width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (≥ 1; 1 = sequential).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        Pool { threads }
    }

    /// The pool sized by [`global_threads`].
    pub fn global() -> Self {
        Pool { threads: global_threads() }
    }

    /// This pool's worker count.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results **in input order**.
    ///
    /// With one worker, one item, or when called from inside another
    /// `par_map` (see [`in_worker`]), this is a plain sequential `map` —
    /// no threads are spawned. Otherwise workers drain index-tagged
    /// deques (own front, steal from victims' backs) and the results
    /// are reassembled by index. A panic in `f` propagates to the
    /// caller when the scope joins.
    pub fn par_map<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let total = items.len();
        let workers = self.threads.min(total);
        if workers <= 1 || in_worker() {
            return items.into_iter().map(f).collect();
        }

        // Seed each worker's deque with a contiguous block of items.
        let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            deques[i * workers / total].lock().unwrap().push_back((i, item));
        }
        let slots: Vec<Mutex<Vec<(usize, R)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let slots = &slots;
                    let f = &f;
                    scope.spawn(move || {
                        IN_WORKER.with(|c| c.set(true));
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own deque first; then steal round-robin from
                            // the victims' opposite ends. The own-deque pop
                            // must be its own statement: chaining `.or_else`
                            // onto it would keep the own lock's temporary
                            // guard alive across the steals, and two idle
                            // workers stealing from each other would
                            // deadlock on each other's deque locks.
                            let own = deques[w].lock().unwrap().pop_front();
                            let job = own.or_else(|| {
                                (1..workers).find_map(|d| {
                                    deques[(w + d) % workers].lock().unwrap().pop_back()
                                })
                            });
                            match job {
                                Some((i, item)) => done.push((i, f(item))),
                                None => break,
                            }
                        }
                        *slots[w].lock().unwrap() = done;
                    })
                })
                .collect();
            // Join explicitly so a worker's panic payload reaches the
            // caller verbatim (the scope's implicit join would replace
            // it with "a scoped thread panicked").
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut out: Vec<Option<R>> = (0..total).map(|_| None).collect();
        for slot in slots {
            for (i, r) in slot.into_inner().unwrap() {
                assert!(out[i].is_none(), "item {i} mapped twice");
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("every item mapped exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for workers in 1..=8 {
            let items: Vec<usize> = (0..1000).collect();
            let out = Pool::new(workers).par_map(items, |i| i * 2);
            assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(4).par_map((0..500).collect(), |i: usize| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn one_worker_is_sequential_and_spawns_nothing() {
        // The closure observes it never runs on a worker thread.
        let out = Pool::new(1).par_map(vec![1, 2, 3], |x| {
            assert!(!in_worker());
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn nested_par_map_degrades_to_sequential() {
        let out = Pool::new(4).par_map((0..16).collect(), |i: usize| {
            assert!(in_worker());
            // The inner call must not spawn (its closure sees the
            // worker flag still set) and must still be order-exact.
            Pool::new(4).par_map((0..8).collect(), |j: usize| {
                assert!(in_worker());
                i * 8 + j
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        Pool::new(2).par_map((0..64).collect(), |i: usize| {
            if i == 33 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn thread_spellings() {
        assert_eq!(parse_threads(Some("1"), 7), 1);
        assert_eq!(parse_threads(Some("16"), 7), 16);
        // Unset, zero, negative, and garbage all fall back.
        assert_eq!(parse_threads(None, 7), 7);
        assert_eq!(parse_threads(Some("0"), 7), 7);
        assert_eq!(parse_threads(Some("-2"), 7), 7);
        assert_eq!(parse_threads(Some("many"), 7), 7);
        assert_eq!(parse_threads(Some(""), 7), 7);
    }

    #[test]
    fn global_width_caches_and_overrides() {
        // The first read resolves and caches a positive width; later
        // reads return the cache without consulting the environment.
        let resolved = global_threads();
        assert!(resolved >= 1);
        assert_eq!(GLOBAL_THREADS.load(Ordering::SeqCst), resolved);
        assert_eq!(global_threads(), resolved);
        // Overrides keep working after resolution, clamped to one.
        set_global_threads(3);
        assert_eq!(Pool::global().threads(), 3);
        set_global_threads(0);
        assert_eq!(Pool::global().threads(), 1);
        set_global_threads(resolved);
        assert_eq!(global_threads(), resolved);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = Pool::new(8).par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
