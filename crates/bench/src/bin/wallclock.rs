//! Host wall-clock benchmark for the work-stealing parallel engine.
//!
//! Everything else in this workspace measures *simulated* DPU time;
//! this binary measures the *host* seconds the simulator itself burns,
//! comparing one worker thread against the resolved pool width on the
//! paths the pool parallelises, then timing the kernels below it:
//!
//! 1. single-node `Cluster::run_all` (the eight single-node references
//!    side by side; the one shard's operators run sequentially),
//! 2. 8-node `Cluster::run_all` (shard fan-out + single-node references),
//! 3. the `rack_tpch` failover matrix (replication × kill patterns), one
//!    O(1) `Cluster` fork per cell from shared per-k cores,
//! 4. the SQL kernels' production entry points, single-threaded so
//!    each row isolates the kernel itself: filter, CRC32 partition,
//!    single- and multi-key hash group-by (each key tuple coded as one
//!    `u64` and hashed into a table of one-word keys), the dense
//!    small-domain group-by, the key-ordered group-by (`agg_ordered`),
//!    the hash join (`join`, through the direct table), the selection
//!    join (`join_selected`, plus `join_selected_miss`, where about 3 %
//!    of the probes match and the rest stop at the hashed table's
//!    exact bitmap), threshold-prefiltered
//!    top-k, the key-code sort (`sortkey`: one sort of `(code, row)`
//!    pairs) and expression evaluation. The group-by rows carry a
//!    reference column — `GroupBySpec::execute_seq`, the one in-crate
//!    reference left — with a speedup and a ≥1.3× floor; the dense
//!    group-by under 1 %, 50 % and 94 % random selections
//!    (`agg_dense_sel*`: listed rows at 1 %, every row streamed at
//!    94 %, the crossover at 50 %) carries one with identity asserted
//!    and no floor. The
//!    selection joins are timed against copying both selections out
//!    and joining the copies, with identity asserted and no floor; the
//!    other operators have one path each and report their rate alone.
//! 5. the CRC engine: the 4-lane table-driven CRC32-C against the
//!    SSE4.2 hardware CRC over the same keys, where the instruction
//!    exists. The platform makes that choice (the hardware engine falls
//!    back to the table without SSE4.2); informational row.
//! 6. the packed filter (`DPU_PACK`): the band evaluated in the encoded
//!    domain vs the flat filter on the same encoded table, with resident
//!    bytes-scanned and the compression ratio, over a 4-bit-lane
//!    (`filter_pack`) and a 16-bit-lane (`filter_pack16`) column; each
//!    carries a ≥1.2× packed-over-flat floor. The other operators read the flat values
//!    and have no packed arm. The TPC-H shard columns must average ≥2×
//!    compression (asserted unconditionally — it is deterministic).
//!
//! The 1-thread runs pin the pool to one worker, which takes the exact
//! pre-pool sequential code paths, and every parallel result is asserted
//! bit-identical to its sequential twin before any time is reported.
//!
//! `BENCH_wallclock.json` records speedups, the thread count, and the
//! host CPU count — never raw seconds, which are printed to stdout only,
//! so the file carries no machine-speed noise. Because speedups still
//! vary run to run, this file is informational and is NOT byte-diffed in
//! CI (unlike the simulated-time `BENCH_rack_*.json` baselines). The
//! ≥2× (pool) and ≥1.3× (group-by kernel) speedup assertions only arm when
//! the host has ≥ 4 CPUs; on smaller hosts the binary still checks
//! determinism and reports what it measured.

use std::sync::Arc;
use std::time::Instant;

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_cluster::{
    Cluster, ClusterConfig, ClusterCore, ClusterQueryCost, FaultPlan, QueryError, QueryId,
    QueryOutput, ShardPolicy, SingleRefCache,
};
use dpu_isa::hash::{crc32c_u64_x4, crc32c_u64_x4_hw, hw_crc_available};
use dpu_pool::{set_global_threads, Pool};
use dpu_sql::tpch::{self, TpchDb};
use dpu_sql::{
    partition_row_ids, sort_indices_multi, top_k, AggFunc, BitVec, Column, CompareOp, Expr,
    FilterSpec, GroupBySpec, HashJoin, Pack, Table,
};

const SEED: u64 = 2026;
const NODES: usize = 8;
const SCALE: u64 = 30_000; // cost queries at SF≈100 cardinalities
const CLUSTER_ORDERS: usize = 10_000;
const REPS: usize = 3;

/// Best-of-`REPS` wall-clock seconds for `f`, plus its (deterministic)
/// result from the final rep.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("REPS >= 1"))
}

/// The bench-relevant slice of a suite run: per-query outputs and
/// simulated costs, everything `BENCH_rack_tpch.json` is derived from.
type SuiteResult = Vec<(QueryOutput, ClusterQueryCost)>;

/// Runs the 8-query suite on a fresh `nodes`-way cluster (construction
/// untimed), asserting distributed-vs-single bit-identity.
fn run_suite(db: &TpchDb, nodes: usize) -> (f64, SuiteResult) {
    let policy = ShardPolicy::hash(nodes);
    best_of(|| {
        let mut c = Cluster::new(db.clone(), &policy, ClusterConfig::prototype_slice(nodes, SCALE));
        let start = Instant::now();
        let runs = c.run_all();
        let took = start.elapsed().as_secs_f64();
        for q in &runs {
            assert!(q.matches_single(), "{} diverged from single-node", q.id.name());
        }
        (took, runs.into_iter().map(|q| (q.output, q.cost)).collect::<SuiteResult>())
    })
    .1
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The parallel arm uses the resolved pool width (DPU_THREADS or the
    // host CPU count), but at least two workers so the comparison is
    // meaningful even on a single-CPU host.
    let threads = dpu_pool::global_threads().max(2);
    let assert_speedups = host_cpus >= 4;
    println!(
        "# Host wall-clock: 1 thread vs {threads} ({host_cpus} host CPUs; \
         speedup floor {})\n",
        if assert_speedups { "armed" } else { "not armed — needs >= 4 CPUs" }
    );

    // ── Cluster::run_all: single node and 8 nodes ─────────────────────
    let db = tpch::generate(CLUSTER_ORDERS, SEED);
    let mut suite_json: Vec<Json> = Vec::new();
    let mut cluster_speedup = 0.0f64;
    header(&["suite", "seq (s)", "par (s)", "speedup", "thread-invariant"]);
    for nodes in [1, NODES] {
        set_global_threads(1);
        let (seq_s, seq_out) = run_suite(&db, nodes);
        set_global_threads(threads);
        let (par_s, par_out) = run_suite(&db, nodes);
        assert_eq!(seq_out, par_out, "{nodes}-node suite output changed with thread count");
        let speedup = seq_s / par_s;
        if nodes == NODES {
            cluster_speedup = speedup;
        }
        row(&[
            format!("{nodes}-node run_all"),
            format!("{seq_s:.3}"),
            format!("{par_s:.3}"),
            format!("{speedup:.2}x"),
            "yes".into(),
        ]);
        suite_json.push(Json::obj([
            ("nodes", Json::num(nodes as f64)),
            ("orders_n", Json::num(CLUSTER_ORDERS as f64)),
            ("speedup", Json::num(speedup)),
        ]));
    }

    // ── rack_tpch failover matrix: sequential vs pool-parallel ───────
    // The same k ∈ {1,2,3} × kill-pattern sweep `rack_tpch` runs, with
    // the database generated once and each replication factor sharded
    // once into a shared core; every cell is an O(1) fork. The shared
    // single-node reference cache is warmed up front so both arms time
    // only the distributed sweep, not reference computation.
    let fails_sets: [&[usize]; 3] = [&[], &[1], &[1, 4]];
    let single = Arc::new(SingleRefCache::new());
    let shared_db = Arc::new(db.clone());
    let policy = ShardPolicy::hash(NODES);
    let cores: [Arc<ClusterCore>; 3] = [1, 2, 3].map(|k| {
        ClusterCore::with_shared(
            shared_db.clone(),
            &policy,
            ClusterConfig::prototype_slice(NODES, SCALE).with_replicas(k),
            single.clone(),
        )
    });
    Cluster::from_core(cores[0].clone()).run_all();

    type CellResult = Vec<Result<(QueryOutput, ClusterQueryCost), QueryError>>;
    let sweep = |cores: &[Arc<ClusterCore>; 3]| -> Vec<(usize, CellResult)> {
        let mut cells: Vec<(usize, &[usize])> = Vec::new();
        for k in 1..=3usize {
            for fails in fails_sets {
                cells.push((k, fails));
            }
        }
        Pool::global().par_map(cells, |(k, fails)| {
            let mut c = Cluster::from_core(cores[k - 1].clone());
            let mut plan = FaultPlan::none();
            for &node in fails {
                plan = plan.crash(node, 0.0);
            }
            c.set_faults(plan);
            let runs: CellResult = QueryId::ALL
                .iter()
                .map(|&id| c.try_run_at(id, 0.0).map(|q| (q.output, q.cost)))
                .collect();
            (k, runs)
        })
    };
    set_global_threads(1);
    let (seq_s, seq_cells) = best_of(|| sweep(&cores));
    set_global_threads(threads);
    let (par_s, par_cells) = best_of(|| sweep(&cores));
    assert_eq!(seq_cells, par_cells, "failover matrix changed with thread count");
    let matrix_speedup = seq_s / par_s;
    println!();
    header(&["sweep", "seq (s)", "par (s)", "speedup", "thread-invariant"]);
    row(&[
        format!("failover {}x{} cells", cores.len(), fails_sets.len()),
        format!("{seq_s:.3}"),
        format!("{par_s:.3}"),
        format!("{matrix_speedup:.2}x"),
        "yes".into(),
    ]);

    // ── SQL kernels: the production entry points ──────────────────────
    // Single-threaded. The group-by rows assert identity with their
    // `execute_seq` reference before any time is reported; their ≥1.3×
    // floor arms with the others (≥ 4 CPUs) even though the comparison
    // itself is width-independent, so small CI hosts never fail on
    // scheduling noise.
    let kernel_rows = 2_000_000usize;
    let mut splitmix = {
        let mut state = SEED;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    };
    let keys: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % 65_536) as i64 - 32_768).collect();
    let vals: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % 1_000_000) as i64).collect();
    // Extra columns for the multi-key and sort kernels, drawn *after*
    // keys/vals so the established streams stay seed-stable.
    let g2: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % 256) as i64).collect();
    let s2: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % 1024) as i64 - 512).collect();
    let kt = Table::new(vec![Column::i64("k", keys.clone()), Column::i64("v", vals.clone())]);
    let mt = Table::new(vec![
        Column::i64("s1", keys.iter().map(|&k| k.rem_euclid(256)).collect()),
        Column::i64("g2", g2),
        Column::i64("s2", s2),
        Column::i64("v", vals),
    ]);

    println!();
    header(&["kernel", "reference (s)", "production (s)", "speedup", "Mrows/s", "identical"]);
    let mut kernels_json: Vec<Json> = Vec::new();
    let mut kernel_speedups: Vec<(&'static str, f64)> = Vec::new();
    // `reference_s`: the reference path's time where one exists; those
    // rows report a speedup, and the `floored` ones (the group-bys
    // against `execute_seq`) take part in the ≥1.3× assertion.
    let mut kernel_row =
        |name: &'static str, reference_s: Option<f64>, production_s: f64, floored: bool| {
            let mrows = kernel_rows as f64 / production_s / 1e6;
            let dash = || "-".to_string();
            row(&[
                name.to_string(),
                reference_s.map_or_else(dash, |r| format!("{r:.3}")),
                format!("{production_s:.3}"),
                reference_s.map_or_else(dash, |r| format!("{:.2}x", r / production_s)),
                format!("{mrows:.0}"),
                reference_s.map_or_else(dash, |_| "yes".into()),
            ]);
            let mut fields = vec![
                ("kernel", Json::str(name)),
                ("rows", Json::num(kernel_rows as f64)),
                ("production_mrows_s", Json::num(mrows)),
            ];
            if let Some(r) = reference_s {
                fields.push(("reference_mrows_s", Json::num(kernel_rows as f64 / r / 1e6)));
                fields.push(("speedup", Json::num(r / production_s)));
                if floored {
                    kernel_speedups.push((name, r / production_s));
                }
            }
            kernels_json.push(Json::obj(fields));
        };

    let fspec = FilterSpec::new("v", CompareOp::Between(100_000, 700_000));
    kernel_row("filter", None, best_of(|| fspec.apply(&kt)).0, false);
    kernel_row("partition", None, best_of(|| partition_row_ids(&keys, 0, 32)).0, false);

    let gspec = GroupBySpec {
        group_cols: vec!["k".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let (a_ref_s, a_ref) = best_of(|| gspec.execute_seq(&kt, None));
    let (a_s, a) = best_of(|| gspec.execute(&kt, None));
    assert_eq!(a_ref, a, "group-by diverged from its reference");
    kernel_row("agg", Some(a_ref_s), a_s, true);

    // Multi-key group-by: two-column composite keys (≤65 536 groups),
    // each tuple coded as one `u64` and hashed into the code table.
    let mspec = GroupBySpec {
        group_cols: vec!["s1".into(), "g2".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let (m_ref_s, m_ref) = best_of(|| mspec.execute_seq(&mt, None));
    let (m_s, m) = best_of(|| mspec.execute(&mt, None));
    assert_eq!(m_ref, m, "multi-key group-by diverged from its reference");
    kernel_row("groupby_multi", Some(m_ref_s), m_s, true);
    // Both rows above span 65 536 keys, far above the dense group-by's
    // 4096-slot cap, so they keep timing the hash path.

    // Dense group-by: the TPC-H Q1 shape, two low-cardinality keys (3 × 2
    // slots, derived from the existing streams) and four aggregates. It
    // indexes slots by key code directly: no hash, no probe, no sort.
    let mt_col = |name: &str| mt.column(name).expect("multi-key column").data.clone();
    let dt = Table::new(vec![
        Column::i64("rf", keys.iter().map(|&k| k.rem_euclid(3)).collect()),
        Column::i64("ls", mt_col("g2").iter().map(|&g| g % 2).collect()),
        Column::i64("v", mt_col("v")),
        Column::i64("s2", mt_col("s2")),
    ]);
    let dspec = GroupBySpec {
        group_cols: vec!["rf".into(), "ls".into()],
        aggs: vec![
            ("sum_v".into(), AggFunc::Sum("v".into())),
            ("sum_s2".into(), AggFunc::Sum("s2".into())),
            ("sum_vs2".into(), AggFunc::SumProduct("v".into(), "s2".into())),
            ("cnt".into(), AggFunc::Count),
        ],
    };
    let (d_ref_s, d_ref) = best_of(|| dspec.execute_seq(&dt, None));
    let (d_s, d) = best_of(|| dspec.execute(&dt, None));
    assert_eq!(d_ref, d, "dense group-by diverged from its reference");
    kernel_row("agg_dense", Some(d_ref_s), d_s, true);
    // The same group-by under random selections: at 1 % the selected
    // rows are listed, at 94 % every row streams and the dropped ones
    // fold into trash slots, and 50 % sits at the crossover between
    // the two. Identity asserted; no floor.
    let draws: Vec<u64> = (0..kernel_rows).map(|_| splitmix() % 100).collect();
    for (name, pct) in [("agg_dense_sel1", 1), ("agg_dense_sel50", 50), ("agg_dense_sel94", 94)] {
        let sel = BitVec::from_fn(kernel_rows, |r| draws[r] < pct);
        let (ref_s, want) = best_of(|| dspec.execute_seq(&dt, Some(&sel)));
        let (s, got) = best_of(|| dspec.execute(&dt, Some(&sel)));
        assert_eq!(want, got, "{name} diverged from its reference");
        kernel_row(name, Some(ref_s), s, false);
    }

    // Hash join: the 2M-row key column probes a build of 65 536 dense
    // keys, which takes the direct table (one slot per key value);
    // fanout 32 only sizes the reported largest build partition.
    let jb = Table::new(vec![
        Column::i64("k", (-32_768..32_768).collect()),
        Column::i64("bv", (0..65_536).collect()),
    ]);
    let join = HashJoin {
        build_key: "k".into(),
        probe_key: "k".into(),
        build_cols: vec!["bv".into()],
        probe_cols: vec!["v".into()],
    };
    kernel_row("join", None, best_of(|| join.execute(&jb, &kt, 32)).0, false);

    // Selection join: both sides filtered, as a plan's scans reach its
    // joins. The selected build keys are gathered once and the selected
    // probe rows probe in place, against copying both selections out
    // first and joining the copies with `execute` (which also counts
    // the largest build partition). Identity asserted; no floor.
    let bsel = BitVec::from_fn(jb.rows(), |r| r % 3 != 0);
    let psel = fspec.apply(&kt);
    let (copy_s, (copied, _)) = best_of(|| {
        join.execute(&tpch::select_rows(&jb, &bsel), &tpch::select_rows(&kt, &psel), 32)
    });
    let (sel_s, selected) = best_of(|| join.execute_selected(&jb, Some(&bsel), &kt, Some(&psel)));
    assert_eq!(copied, selected, "selection join diverged from joining the copies");
    kernel_row("join_selected", Some(copy_s), sel_s, false);
    // Mostly misses, like Q5's lineitem probe: a build of every 32nd
    // key, whose range is too wide for the direct table, so it takes
    // hashed slots behind the exact bitmap of the key range; about 3 %
    // of the selected probes match and the rest stop at the bitmap.
    // Same comparison, no floor.
    let sparse_sel = BitVec::from_fn(jb.rows(), |r| r % 32 == 0);
    let (copy_s, (copied, _)) = best_of(|| {
        join.execute(&tpch::select_rows(&jb, &sparse_sel), &tpch::select_rows(&kt, &psel), 32)
    });
    let (sel_s, selected) =
        best_of(|| join.execute_selected(&jb, Some(&sparse_sel), &kt, Some(&psel)));
    assert_eq!(copied, selected, "mostly-miss selection join diverged from joining the copies");
    kernel_row("join_selected_miss", Some(copy_s), sel_s, false);

    // Key-ordered group-by: keys ascending in runs of four rows (a
    // lineitem shard grouped by `l_orderkey`) span far more than the
    // dense cap, so runs are found by the branch-free walk — no hash.
    let ot = Table::new(vec![
        Column::i64("k", (0..kernel_rows as i64).map(|i| i / 4 * 7 - 1_000_000).collect()),
        Column::i64("v", mt_col("v")),
    ]);
    let (o_ref_s, o_ref) = best_of(|| gspec.execute_seq(&ot, None));
    let (o_s, o) = best_of(|| gspec.execute(&ot, None));
    assert_eq!(o_ref, o, "key-ordered group-by diverged from its reference");
    kernel_row("agg_ordered", Some(o_ref_s), o_s, true);

    // Top-k: the threshold pre-filter rejects whole 64-row blocks once
    // the heap fills (k=100 over 2M uniform rows ⇒ almost all of them).
    kernel_row("topk", None, best_of(|| top_k(&kt, "v", 100, 1)).0, false);

    // Key-code sort: a duplicate-heavy two-column sort, each selected
    // row coded as one `u64` and the `(code, row)` pairs sorted once.
    kernel_row("sortkey", None, best_of(|| sort_indices_multi(&mt, &["s1", "s2"], 1)).0, false);

    // Expression evaluation: the TPC-H revenue shape.
    let revenue =
        Expr::col("v") * (Expr::lit(100) - Expr::col("s1")) * (Expr::lit(100) + Expr::col("g2"));
    kernel_row("expr", None, best_of(|| revenue.eval(&mt)).0, false);

    // ── CRC engine: table-driven vs SSE4.2 hardware ───────────────────
    // The one table-vs-hardware choice left, and the platform makes it.
    // Both engines hash the same keys four lanes at a time.
    // Informational: no floor is armed.
    let mut crc_json: Vec<Json> = Vec::new();
    if hw_crc_available() {
        let quads: Vec<[u64; 4]> =
            keys.chunks_exact(4).map(|q| [q[0], q[1], q[2], q[3]].map(|k| k as u64)).collect();
        let hash_all =
            |f: fn([u64; 4]) -> [u32; 4]| quads.iter().map(|&q| f(q)).collect::<Vec<_>>();
        let (table_s, table) = best_of(|| hash_all(crc32c_u64_x4));
        let (hw_s, hw) = best_of(|| hash_all(crc32c_u64_x4_hw));
        assert_eq!(table, hw, "hardware CRC diverged from the table CRC");
        let speedup = table_s / hw_s;
        let mkeys = |secs: f64| (quads.len() * 4) as f64 / secs / 1e6;
        println!();
        header(&["crc engine", "table (s)", "hardware (s)", "speedup", "Mkeys/s", "identical"]);
        row(&[
            "crc32c_u64_x4".to_string(),
            format!("{table_s:.3}"),
            format!("{hw_s:.3}"),
            format!("{speedup:.2}x"),
            format!("{:.0}", mkeys(hw_s)),
            "yes".into(),
        ]);
        crc_json.push(Json::obj([
            ("kernel", Json::str("crc32c_u64_x4")),
            ("rows", Json::num((quads.len() * 4) as f64)),
            ("speedup", Json::num(speedup)),
            ("table_mkeys_s", Json::num(mkeys(table_s))),
            ("hw_mkeys_s", Json::num(mkeys(hw_s))),
        ]));
    } else {
        println!("  (CRC engine row skipped: host lacks SSE4.2)");
    }

    // ── Packed filter: encoded-domain band vs flat ────────────────────
    // Two TPC-H column shapes: a discount-like column (`l_discount`, 11
    // distinct values) packs 4-bit lanes, 16 values per word, and a
    // date-like column (`l_shipdate`, 2526 days) packs 16-bit lanes.
    // 8-, 16- and 32-bit lanes gather their flags with one multiply, 2-
    // and 4-bit lanes with the compaction ladder, so one row per gather.
    // Both carry the ≥1.2× packed-over-flat floor.
    let shapes = [
        ("filter_pack", 11, CompareOp::Between(2, 7)),
        ("filter_pack16", 2526, CompareOp::Between(731, 1095)),
    ];
    println!();
    header(&["packed kernel", "flat (s)", "packed (s)", "speedup", "compression", "bit-identical"]);
    let mut packed_json: Vec<Json> = Vec::new();
    let mut pack_speedups: Vec<(&str, f64)> = Vec::new();
    for (name, domain, op) in shapes {
        let vals: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % domain) as i64).collect();
        let mut t = Table::new(vec![Column::i64("q", vals)]);
        t.encode_packed();
        let spec = FilterSpec::new("q", op);
        let (flat_s, flat) = best_of(|| spec.apply_pack(&t, Pack::Off));
        let (packed_s, packed) = best_of(|| spec.apply_pack(&t, Pack::On));
        assert_eq!(flat, packed, "packed {name} diverged from flat");
        let speedup = flat_s / packed_s;
        let col = &t.columns[0];
        let ratio = col.bytes() as f64 / col.resident_bytes().max(1) as f64;
        row(&[
            name.to_string(),
            format!("{flat_s:.3}"),
            format!("{packed_s:.3}"),
            format!("{speedup:.2}x"),
            format!("{ratio:.2}x"),
            "yes".into(),
        ]);
        packed_json.push(Json::obj([
            ("kernel", Json::str(name)),
            ("rows", Json::num(kernel_rows as f64)),
            ("speedup", Json::num(speedup)),
            ("flat_bytes_scanned", Json::num(col.bytes() as f64)),
            ("packed_bytes_scanned", Json::num(col.resident_bytes() as f64)),
            ("compression_ratio", Json::num(ratio)),
        ]));
        pack_speedups.push((name, speedup));
    }

    // TPC-H shard-column compression: deterministic, so asserted on
    // every host regardless of CPU count.
    let comp = cores[0].sharded().compression_report();
    let flat_total: u64 = comp.iter().map(|t| t.flat_bytes()).sum();
    let resident_total: u64 = comp.iter().map(|t| t.packed_bytes()).sum();
    let ratios: Vec<f64> = comp
        .iter()
        .flat_map(|t| t.columns.iter())
        .map(|c| c.flat_bytes as f64 / c.packed_bytes.max(1) as f64)
        .collect();
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\nTPC-H shard columns: mean per-column compression {:.2}x \
         (resident {:.2} MiB vs flat {:.2} MiB, {:.2}x overall).",
        mean_ratio,
        resident_total as f64 / (1024.0 * 1024.0),
        flat_total as f64 / (1024.0 * 1024.0),
        flat_total as f64 / resident_total.max(1) as f64
    );
    assert!(
        mean_ratio >= 2.0,
        "TPC-H shard columns must average >= 2x compression: got {mean_ratio:.2}x"
    );

    if assert_speedups {
        assert!(
            cluster_speedup >= 2.0,
            "{NODES}-node run_all must speed up >= 2x on {threads} threads \
             ({host_cpus} CPUs): got {cluster_speedup:.2}x"
        );
        assert!(
            matrix_speedup >= 2.0,
            "failover matrix must speed up >= 2x on {threads} threads \
             ({host_cpus} CPUs): got {matrix_speedup:.2}x"
        );
        for &(name, speedup) in &kernel_speedups {
            assert!(
                speedup >= 1.3,
                "{name} kernel must speed up >= 1.3x over its execute_seq reference \
                 ({host_cpus} CPUs): got {speedup:.2}x"
            );
        }
        for &(name, speedup) in &pack_speedups {
            assert!(
                speedup >= 1.2,
                "packed {name} kernel must speed up >= 1.2x over flat \
                 ({host_cpus} CPUs): got {speedup:.2}x"
            );
        }
        println!(
            "\nSpeedup floor (>= 2.0x) holds for {NODES}-node run_all and the \
             failover matrix; group-by kernels hold >= 1.3x over execute_seq; \
             the packed filters hold >= 1.2x over flat."
        );
    } else {
        println!("\nSpeedup floor not asserted: {host_cpus} host CPUs < 4.");
    }

    emit(
        "wallclock",
        &Json::obj([
            ("figure", Json::str("wallclock")),
            ("host_cpus", Json::num(host_cpus as f64)),
            ("threads", Json::num(threads as f64)),
            ("speedups_asserted", Json::Bool(assert_speedups)),
            ("deterministic", Json::Bool(true)),
            ("run_all", Json::Arr(suite_json)),
            ("kernels", Json::Arr(kernels_json)),
            ("crc_kernels", Json::Arr(crc_json)),
            ("packed_kernels", Json::Arr(packed_json)),
            (
                "compression",
                Json::obj([
                    ("mean_column_ratio", Json::num(mean_ratio)),
                    ("flat_bytes", Json::num(flat_total as f64)),
                    ("resident_bytes", Json::num(resident_total as f64)),
                ]),
            ),
            (
                "failover_matrix",
                Json::obj([
                    ("cells", Json::num((cores.len() * fails_sets.len()) as f64)),
                    ("orders_n", Json::num(CLUSTER_ORDERS as f64)),
                    ("speedup", Json::num(matrix_speedup)),
                ]),
            ),
        ]),
    );
}
