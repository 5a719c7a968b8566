//! Property tests for the rack-scale sharding layer (`dpu-cluster`):
//! partitioning, skew, replica placement,
//! distributed-vs-single-node exactness, and the serving pipeline's
//! admission/batching invariants.

use proptest::prelude::*;

use dpu_repro::cluster::serve::{
    DEEPEN_STEP, QUEUE_PRESSURE, SHED_FACTOR, SHED_HEADROOM, WINDOW_LEN,
};
use dpu_repro::cluster::{
    serve, serve_tenants, shard_table, shard_tpch, shard_tpch_replicated, AdaptiveBatch, Cluster,
    ClusterConfig, ClusterQueryCost, DegradedWindow, FabricConfig, NodeCost, Placement, QueryId,
    ServeConfig, ShardPolicy, SkewReport, Template, Tenant, TenantServeConfig, Topology,
    TraceShape,
};
use dpu_repro::sql::tpch;
use dpu_repro::sql::{Column, Table};
use dpu_repro::xeon::XeonRack;

/// A synthetic serving template with `local` seconds of mem-bound work
/// per node (cpu at a quarter of it, so batching up to 4 is free).
fn serve_template(local: f64) -> Template {
    Template {
        name: "synthetic",
        cost: ClusterQueryCost {
            per_node: vec![NodeCost { mem_seconds: local, cpu_seconds: local / 4.0 }; 8],
            local_seconds: local,
            fabric_seconds: local / 10.0,
            merge_seconds: local / 100.0,
            fabric_bytes: 1 << 20,
            failovers: 0,
            speculations: 0,
        },
        xeon_seconds: 0.5,
    }
}

/// Reference copy of the adaptive controller's control law as first
/// written: it keeps the last `WINDOW_LEN` latencies and sorts them on
/// every completion to read the nearest-rank p99. The differential
/// property below holds [`AdaptiveBatch`] to it.
struct SortedWindowBatch {
    cap: usize,
    slo: Option<f64>,
    allowed: f64,
    window: std::collections::VecDeque<f64>,
}

impl SortedWindowBatch {
    fn new(cap: usize, slo: Option<f64>) -> Self {
        SortedWindowBatch { cap, slo, allowed: 1.0, window: Default::default() }
    }

    fn depth(&self, queue_len: usize) -> usize {
        let allowed = match self.slo {
            _ if queue_len >= QUEUE_PRESSURE * self.cap => self.cap,
            Some(_) => self.allowed as usize,
            None => self.cap,
        };
        allowed.min(queue_len).min(self.cap).max(1)
    }

    fn observe(&mut self, latency_seconds: f64, queue_len: usize) {
        self.window.push_back(latency_seconds);
        if self.window.len() > WINDOW_LEN {
            self.window.pop_front();
        }
        let Some(slo) = self.slo else { return };
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let i = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let p99 = sorted[i - 1];
        if p99 > SHED_HEADROOM * slo && queue_len as f64 <= self.allowed {
            self.allowed = (self.allowed * SHED_FACTOR).max(1.0);
        } else {
            self.allowed = (self.allowed + DEEPEN_STEP).min(self.cap as f64);
        }
    }
}

fn arb_policy(keys: &[i64], shards: usize, use_range: bool) -> ShardPolicy {
    if use_range {
        ShardPolicy::range_over(keys, shards)
    } else {
        ShardPolicy::hash(shards)
    }
}

proptest! {
    #[test]
    fn every_row_lands_on_exactly_one_shard(
        keys in proptest::collection::vec(-5000i64..5000, 1..400),
        shards in 1usize..12,
        use_range in any::<bool>(),
    ) {
        let vals: Vec<i64> = keys.iter().map(|&k| k.wrapping_mul(7)).collect();
        let table = Table::new(vec![
            Column::i64("k", keys.clone()),
            Column::i64("v", vals.clone()),
        ]);
        let policy = arb_policy(&keys, shards, use_range);
        let parts = shard_table(&table, "k", &policy);
        prop_assert_eq!(parts.len(), policy.shards());
        // Conservation: every row appears exactly once across shards,
        // values still attached to their keys, order preserved in-shard.
        let total: usize = parts.iter().map(Table::rows).sum();
        prop_assert_eq!(total, table.rows());
        let mut seen: Vec<(i64, i64)> = Vec::new();
        for (s, part) in parts.iter().enumerate() {
            let k = &part.columns[part.col_index("k")].data;
            let v = &part.columns[part.col_index("v")].data;
            for (&key, &val) in k.iter().zip(v) {
                prop_assert_eq!(policy.shard_of(key), s, "row on wrong shard");
                prop_assert_eq!(val, key.wrapping_mul(7), "row torn from its value");
                seen.push((key, val));
            }
        }
        let mut expect: Vec<(i64, i64)> = keys.into_iter().zip(vals).collect();
        expect.sort_unstable();
        seen.sort_unstable();
        prop_assert_eq!(seen, expect);
    }

    #[test]
    fn hash_sharding_bounds_skew(seed in 0u64..1000, shards in 2usize..9) {
        // Distinct keys hash-shard near-uniformly: no shard should hold
        // more than 2× its fair share of a 4096-key universe.
        let keys: Vec<i64> = (0..4096).map(|i| i * 31 + seed as i64 * 97).collect();
        let policy = ShardPolicy::hash(shards);
        let mut counts = vec![0usize; shards];
        for &k in &keys {
            counts[policy.shard_of(k)] += 1;
        }
        let fair = keys.len() / shards;
        for (s, &c) in counts.iter().enumerate() {
            prop_assert!(c > 0, "shard {s} is empty");
            prop_assert!(c <= 2 * fair, "shard {s} holds {c} of {} keys", keys.len());
        }
    }

    #[test]
    fn range_bounds_are_sorted_and_partition_is_monotonic(
        keys in proptest::collection::vec(-10_000i64..10_000, 8..300),
        shards in 2usize..9,
    ) {
        let policy = ShardPolicy::range_over(&keys, shards);
        if let ShardPolicy::Range { bounds } = &policy {
            prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not ascending");
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let parts: Vec<usize> = sorted.iter().map(|&k| policy.shard_of(k)).collect();
        prop_assert!(parts.windows(2).all(|w| w[0] <= w[1]), "non-monotonic placement");
        prop_assert!(parts.iter().all(|&p| p < policy.shards()));
    }

    #[test]
    fn co_sharded_facts_keep_orders_and_lineitem_together(
        orders_n in 40usize..200,
        seed in 0u64..64,
        shards in 2usize..9,
        use_range in any::<bool>(),
    ) {
        let db = tpch::generate(orders_n, seed);
        let okeys = &db.orders.columns[db.orders.col_index("o_orderkey")].data;
        let policy = arb_policy(okeys, shards, use_range);
        let sharded = shard_tpch(&db, &policy);
        prop_assert_eq!(sharded.n_nodes(), policy.shards());
        let o_total: usize = sharded.shards.iter().map(|n| n.orders.rows()).sum();
        let l_total: usize = sharded.shards.iter().map(|n| n.lineitem.rows()).sum();
        prop_assert_eq!(o_total, db.orders.rows());
        prop_assert_eq!(l_total, db.lineitem.rows());
        for node in &sharded.shards {
            // Every lineitem row's order lives on the same node.
            let owned: std::collections::HashSet<i64> = node
                .orders.columns[node.orders.col_index("o_orderkey")].data
                .iter().copied().collect();
            for &lk in &node.lineitem.columns[node.lineitem.col_index("l_orderkey")].data {
                prop_assert!(owned.contains(&lk), "lineitem stranded from its order");
            }
            // Dimensions are fully replicated.
            prop_assert_eq!(node.customer.rows(), db.customer.rows());
            prop_assert_eq!(node.nation.rows(), db.nation.rows());
        }
    }

    #[test]
    fn every_shard_has_exactly_k_distinct_owners(
        nodes in 1usize..24,
        k_raw in 1usize..6,
    ) {
        let k = k_raw.min(nodes);
        let p = Placement::new(nodes, k);
        for s in 0..nodes {
            let owners = p.owners(s);
            prop_assert_eq!(owners.len(), k, "shard {} must have k owners", s);
            let distinct: std::collections::HashSet<usize> = owners.iter().copied().collect();
            prop_assert_eq!(distinct.len(), k, "shard {} owners must be distinct", s);
            prop_assert!(owners.iter().all(|&o| o < nodes));
            prop_assert_eq!(owners[0], p.primary(s), "first owner is the primary");
        }
    }

    #[test]
    fn failed_nodes_shards_spread_over_at_least_two_survivors(
        nodes in 3usize..24,
        k_raw in 2usize..6,
        failed in 0usize..24,
    ) {
        // Chained declustering's point: the shards a dead node carried are
        // taken over by *different* survivors, not one mirror.
        let k = k_raw.min(nodes);
        let failed = failed % nodes;
        let p = Placement::new(nodes, k);
        let takeovers: std::collections::HashSet<usize> = p
            .shards_on(failed)
            .into_iter()
            .map(|s| {
                *p.owners(s).iter().find(|&&o| o != failed).expect("k ≥ 2 leaves a survivor")
            })
            .collect();
        prop_assert!(
            takeovers.len() >= 2,
            "node {}'s load fell on a single survivor: {:?}",
            failed,
            takeovers
        );
        prop_assert!(!takeovers.contains(&failed));
    }

    #[test]
    fn replica_sets_are_stable_under_node_renumbering(
        nodes in 1usize..24,
        k_raw in 1usize..6,
        rot in 0usize..24,
    ) {
        // Rotating every node id by a constant rotates each shard's owner
        // set the same way: placement depends only on ring geometry, so a
        // renumbering never reshuffles which data sits together.
        let k = k_raw.min(nodes);
        let p = Placement::new(nodes, k);
        for s in 0..nodes {
            let rotated: Vec<usize> =
                p.owners(s).iter().map(|&o| (o + rot) % nodes).collect();
            prop_assert_eq!(p.owners((s + rot) % nodes), rotated);
        }
    }

    #[test]
    fn k1_reproduces_the_unreplicated_placement(
        orders_n in 40usize..120,
        seed in 0u64..32,
        shards in 2usize..7,
    ) {
        let p = Placement::new(shards, 1);
        for s in 0..shards {
            prop_assert_eq!(p.owners(s), vec![s]);
            prop_assert_eq!(p.shards_on(s), vec![s]);
        }
        let db = tpch::generate(orders_n, seed);
        let policy = ShardPolicy::hash(shards);
        let base = shard_tpch(&db, &policy);
        let one = shard_tpch_replicated(&db, &policy, 1);
        prop_assert_eq!(one.scatter_bytes, base.scatter_bytes);
        prop_assert_eq!(one.k(), 1);
        for (a, b) in base.shards.iter().zip(&one.shards) {
            prop_assert_eq!(a.orders.rows(), b.orders.rows());
            prop_assert_eq!(a.lineitem.rows(), b.lineitem.rows());
        }
    }

    #[test]
    fn distributed_equals_single_node_on_random_databases(
        orders_n in 40usize..160,
        seed in 0u64..32,
        shards in 2usize..7,
        use_range in any::<bool>(),
        pick in 0usize..8,
    ) {
        // Full 8-query exactness is covered once below; per-case we spot
        // check one query on a random db/policy to keep 256 cases fast.
        let db = tpch::generate(orders_n, seed);
        let okeys = &db.orders.columns[db.orders.col_index("o_orderkey")].data;
        let policy = arb_policy(okeys, shards, use_range);
        let cfg = ClusterConfig::prototype_slice(policy.shards(), 10_000);
        let mut cluster = Cluster::new(db, &policy, cfg);
        let r = cluster.run(QueryId::ALL[pick]);
        prop_assert!(r.matches_single(), "{} diverged from single-node", r.id.name());
        prop_assert!(r.cost.total_seconds() > 0.0);
    }

    #[test]
    fn adaptive_depth_never_exceeds_queue_or_cap(
        cap in 1usize..32,
        slo_on in any::<bool>(),
        latencies in proptest::collection::vec(0.0f64..3.0, 0..128),
        queue_len in 0usize..100,
    ) {
        // The controller may deepen or shed freely, but the dispatched
        // depth is always in [1, min(queue, cap)] (empty queue ⇒ 1; the
        // caller never dispatches from an empty queue).
        let mut ctl = AdaptiveBatch::new(cap, slo_on.then_some(1.0));
        for &l in &latencies {
            ctl.observe(l, queue_len);
            let d = ctl.depth(queue_len);
            prop_assert!(d >= 1, "depth must stay positive");
            prop_assert!(d <= cap, "depth {} above cap {}", d, cap);
            prop_assert!(d <= queue_len.max(1), "depth {} above queue {}", d, queue_len);
            prop_assert!(ctl.allowed() >= 1.0 && ctl.allowed() <= cap as f64);
        }
    }

    #[test]
    fn adaptive_controller_matches_the_sorted_window_reference(
        cap in 1usize..32,
        slo_on in any::<bool>(),
        slo_ms in 100u32..3000,
        // (kind, value, repeats, queue length). Most samples sit under
        // the shed threshold, on a grid of eighths of the SLO (ties) or
        // anywhere below it; kind 0 is a spike above it and kind 8 lands
        // exactly on it. A spike decides shed-or-deepen until it slides
        // out of the window, so an off-by-one window shows. Runs of up to
        // 39 equal samples, and streams from empty to ~15 × WINDOW_LEN.
        stream in proptest::collection::vec(
            (0u32..16, 0.0f64..1.0, 1usize..40, 0usize..24),
            0..48,
        ),
    ) {
        let slo_s = slo_ms as f64 / 1000.0;
        let slo = slo_on.then_some(slo_s);
        let mut ctl = AdaptiveBatch::new(cap, slo);
        let mut reference = SortedWindowBatch::new(cap, slo);
        let mut n = 0usize;
        for &(kind, value, repeats, queue_len) in &stream {
            let l = match kind {
                0 => slo_s * (1.0 + value),
                1..=7 => slo_s * kind as f64 / 8.0,
                8 => SHED_HEADROOM * slo_s,
                _ => slo_s * SHED_HEADROOM * value,
            };
            for _ in 0..repeats {
                ctl.observe(l, queue_len);
                reference.observe(l, queue_len);
                n += 1;
                prop_assert_eq!(
                    ctl.allowed().to_bits(), reference.allowed.to_bits(),
                    "allowed diverged after {} samples", n
                );
                for q in [0, 1, queue_len, cap, QUEUE_PRESSURE * cap, 1000] {
                    prop_assert_eq!(ctl.depth(q), reference.depth(q), "depth({}) after {}", q, n);
                }
            }
        }
    }

    #[test]
    fn serving_conserves_arrivals_under_any_config(
        clients in 1usize..64,
        think_ms in 0u32..400,
        max_batch in 1usize..20,
        admit_cap in 1usize..64,
        concurrency in 1usize..6,
        adaptive in any::<bool>(),
        slo_ms in proptest::option::of(50u32..3000),
        local_ms in 5u32..100,
        seed in any::<u64>(),
    ) {
        // Whatever the pipeline shape — concurrency, adaptive batching,
        // SLO — every admitted query is either completed or still queued
        // at the horizon, attainment is a fraction, and percentiles are
        // ordered. The event queue's assert checks the simulated clock
        // never runs backwards across every one of these random
        // schedules, and under `cargo test` (debug) the engine's
        // debug_assert checks the same conservation internally.
        let templates = [serve_template(local_ms as f64 / 1000.0)];
        let cfg = ServeConfig {
            clients,
            think_seconds: think_ms as f64 / 1000.0,
            max_batch,
            admit_cap,
            duration_seconds: 5.0,
            seed,
            concurrency,
            adaptive,
            slo_seconds: slo_ms.map(|ms| ms as f64 / 1000.0),
        };
        let r = serve(&templates, 88.0, &XeonRack::rack_42u(), &cfg);
        prop_assert_eq!(
            r.admitted, r.completed + r.backlog,
            "arrivals must conserve: admitted {} vs completed {} + backlog {}",
            r.admitted, r.completed, r.backlog
        );
        prop_assert!((0.0..=1.0).contains(&r.slo_attainment));
        prop_assert!(r.p50 <= r.p95 && r.p95 <= r.p99);
        prop_assert!(r.mean_batch <= max_batch as f64);
    }

    #[test]
    fn open_loop_serving_conserves_arrivals_under_any_config(
        tenants in proptest::collection::vec((1u32..5, 0u8..3, 50u32..3000, 0u32..40), 1..5),
        shape in (0u8..3, 1u32..30, 0.01f64..1.0, 1.0f64..8.0),
        (max_batch, admit_cap, concurrency) in (1usize..12, 1usize..64, 1usize..6),
        (preemption, use_fabric) in (any::<bool>(), any::<bool>()),
        window in proptest::option::of((0.0f64..8.0, 0.0f64..8.0, 1.0f64..4.0)),
        local_ms in 5u32..100,
        seed in any::<u64>(),
    ) {
        // The open-loop sibling of the property above: whatever the
        // tenants, trace, concurrency, preemption and degraded window,
        // every arrival is admitted or rejected, no tenant completes
        // more than it admitted, percentiles are ordered, attainment is
        // a fraction, and the run is a pure function of its inputs.
        // Under `cargo test` (debug) the engine's debug_assert also
        // checks that admitted = completed + queued + in flight at the
        // horizon.
        let names = ["t0", "t1", "t2", "t3"];
        let tenants: Vec<Tenant> = tenants
            .iter()
            .enumerate()
            .map(|(i, &(weight, priority, slo_ms, rate))| Tenant {
                name: names[i],
                weight: weight as f64,
                priority,
                slo_seconds: slo_ms as f64 / 1000.0,
                rate_qps: rate as f64,
            })
            .collect();
        let (kind, period, frac, multiplier) = shape;
        let period_seconds = period as f64;
        let trace = match kind {
            0 => TraceShape::Steady,
            1 => TraceShape::Diurnal { period_seconds, amplitude: frac },
            _ => TraceShape::Burst { period_seconds, burst_seconds: period_seconds * frac, multiplier },
        };
        let window = window.map(|(from, len, cost_factor)| DegradedWindow {
            from_seconds: from,
            until_seconds: from + len,
            cost_factor,
        });
        let cfg = TenantServeConfig {
            duration_seconds: 8.0,
            seed,
            max_batch,
            admit_cap,
            concurrency,
            trace,
            preemption,
        };
        let local = local_ms as f64 / 1000.0;
        let templates = [serve_template(local), serve_template(local / 3.0)];
        let fc = FabricConfig::infiniband();
        let topo = Topology::new(8, 2, 4.0);
        let fabric = use_fabric.then_some((&fc, &topo));
        let r = serve_tenants(&templates, &tenants, &cfg, fabric, window.as_ref());
        for t in &r.tenants {
            prop_assert_eq!(
                t.arrived, t.admitted + t.rejected,
                "{}: arrived {} vs admitted {} + rejected {}",
                t.name, t.arrived, t.admitted, t.rejected
            );
            prop_assert!(t.completed <= t.admitted, "{} completed more than admitted", t.name);
            prop_assert!(t.p50 <= t.p99, "{}: p50 {} > p99 {}", t.name, t.p50, t.p99);
            prop_assert!((0.0..=1.0).contains(&t.slo_attainment));
        }
        prop_assert_eq!(r.completed, r.tenants.iter().map(|t| t.completed).sum::<u64>());
        let again = serve_tenants(&templates, &tenants, &cfg, fabric, window.as_ref());
        prop_assert_eq!(r, again, "same seed must give an equal report");
    }

    #[test]
    fn skew_report_invariants_hold_for_any_row_counts(
        rows in proptest::collection::vec(0usize..100_000, 1..64),
    ) {
        let r = SkewReport::from_rows(&rows);
        prop_assert_eq!(r.max_rows, rows.iter().copied().max().unwrap());
        prop_assert!((0.0..=1.0).contains(&r.gini), "Gini out of range: {}", r.gini);
        prop_assert!(r.imbalance >= 1.0 - 1e-12, "max/mean below 1: {}", r.imbalance);
        prop_assert!(r.cv >= 0.0);
        let total: usize = rows.iter().sum();
        if total > 0 {
            prop_assert!((r.mean_rows * rows.len() as f64 - total as f64).abs() < 1e-6);
        }
    }
}

#[test]
fn all_queries_match_single_node_on_one_randomish_db() {
    let db = tpch::generate(600, 7);
    let policy = ShardPolicy::hash(6);
    let mut cluster = Cluster::new(db, &policy, ClusterConfig::prototype_slice(6, 10_000));
    for r in cluster.run_all() {
        assert!(r.matches_single(), "{} diverged from single-node", r.id.name());
    }
}

proptest! {
    /// Rack-aware chained declustering must spread every shard's
    /// replica chain over `min(k, racks)` distinct failure domains —
    /// the guarantee that lets a whole rack die without losing data
    /// (for k >= 2) — while keeping owners distinct and the primary on
    /// the shard's own node.
    #[test]
    fn rack_aware_placement_spans_min_k_racks(
        racks in 1usize..6,
        per_rack in 1usize..6,
        k_seed in 1usize..36,
    ) {
        let nodes = racks * per_rack;
        let k = (k_seed - 1) % nodes + 1;
        let p = Placement::rack_aware(nodes, racks, k);
        for s in 0..nodes {
            let owners = p.owners(s);
            prop_assert_eq!(owners.len(), k);
            prop_assert_eq!(owners[0], s, "primary must be the shard's own node");
            prop_assert_eq!(p.primary(s), s);
            let mut distinct = owners.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), k, "replicas must land on distinct nodes");
            prop_assert_eq!(
                p.spanned_racks(s),
                k.min(racks),
                "shard {} replicas must span min(k, racks) failure domains", s
            );
        }
    }

    /// With one rack the rack-aware chain is exactly the classic flat
    /// chained-declustering ring — the bit-identity anchor for the
    /// committed single-rack baselines.
    #[test]
    fn rack_aware_collapses_to_flat_ring_at_one_rack(
        nodes in 1usize..16,
        k_seed in 1usize..16,
    ) {
        let k = (k_seed - 1) % nodes + 1;
        let flat = Placement::new(nodes, k);
        let one_rack = Placement::rack_aware(nodes, 1, k);
        for s in 0..nodes {
            prop_assert_eq!(flat.owners(s), one_rack.owners(s));
            prop_assert_eq!(flat.gather_order(s, s % nodes), one_rack.gather_order(s, s % nodes));
        }
    }

    /// A gather landing on `dst` must try every replica in `dst`'s own
    /// rack (2 hops) before any cross-rack replica (4 hops), preserving
    /// chain order within each group — a stable partition of `owners`.
    #[test]
    fn gather_order_prefers_rack_local_replicas(
        racks in 1usize..6,
        per_rack in 1usize..6,
        k_seed in 1usize..36,
        dst_seed in 0usize..36,
    ) {
        let nodes = racks * per_rack;
        let k = (k_seed - 1) % nodes + 1;
        let dst = dst_seed % nodes;
        let p = Placement::rack_aware(nodes, racks, k);
        let dst_rack = p.rack_of(dst);
        for s in 0..nodes {
            let owners = p.owners(s);
            let order = p.gather_order(s, dst);
            let mut sorted_owners = owners.clone();
            let mut sorted_order = order.clone();
            sorted_owners.sort_unstable();
            sorted_order.sort_unstable();
            prop_assert_eq!(sorted_owners, sorted_order, "gather order must permute owners");
            // Rack-local prefix, then cross-rack: never a cross-rack
            // owner before a rack-local one.
            let first_remote = order.iter().position(|&o| p.rack_of(o) != dst_rack);
            if let Some(i) = first_remote {
                for &o in &order[i..] {
                    prop_assert!(
                        p.rack_of(o) != dst_rack,
                        "rack-local replica ordered after a cross-rack one"
                    );
                }
            }
            // Stable within each group: chain (failover-preference)
            // order preserved among locals and among remotes.
            let locals: Vec<usize> =
                order.iter().copied().filter(|&o| p.rack_of(o) == dst_rack).collect();
            let chain_locals: Vec<usize> =
                owners.iter().copied().filter(|&o| p.rack_of(o) == dst_rack).collect();
            prop_assert_eq!(locals, chain_locals);
            let remotes: Vec<usize> =
                order.iter().copied().filter(|&o| p.rack_of(o) != dst_rack).collect();
            let chain_remotes: Vec<usize> =
                owners.iter().copied().filter(|&o| p.rack_of(o) != dst_rack).collect();
            prop_assert_eq!(remotes, chain_remotes);
        }
    }

    /// `shards_on` is the exact inverse of `owners`: node n stores
    /// shard s iff n appears in s's replica chain, and every node
    /// stores exactly k shards (the chain is a permutation per step).
    #[test]
    fn shards_on_inverts_owners(
        racks in 1usize..6,
        per_rack in 1usize..6,
        k_seed in 1usize..36,
    ) {
        let nodes = racks * per_rack;
        let k = (k_seed - 1) % nodes + 1;
        let p = Placement::rack_aware(nodes, racks, k);
        for node in 0..nodes {
            let stored = p.shards_on(node);
            prop_assert_eq!(stored.len(), k, "storage must balance: k shards per node");
            for s in 0..nodes {
                prop_assert_eq!(
                    stored.contains(&s),
                    p.owners(s).contains(&node),
                    "shards_on({}) disagrees with owners({})", node, s
                );
            }
        }
    }
}
