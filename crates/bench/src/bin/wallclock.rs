//! Host wall-clock benchmark for the work-stealing parallel engine.
//!
//! Everything else in this workspace measures *simulated* DPU time;
//! this binary measures the *host* seconds the simulator itself burns,
//! comparing one worker thread against the resolved pool width on the
//! three hot paths the pool parallelises:
//!
//! 1. chunked deterministic TPC-H generation (`tpch::generate_parallel`),
//! 2. single-node `Cluster::run_all` (partitioned join/agg kernels),
//! 3. 8-node `Cluster::run_all` (shard fan-out + single-node references),
//! 4. the `rack_tpch` failover matrix (replication × kill patterns), one
//!    O(1) `Cluster` fork per cell from shared per-k cores,
//! 5. the SWAR kernels (`DPU_VECTOR`): scalar vs vector filter, CRC32
//!    partition (table and, where SSE4.2 exists, hardware CRC),
//!    single- and multi-key group-by, the partitioned hash join (a
//!    `HashMap` per partition vs one reused flat table),
//!    threshold-prefiltered top-k,
//!    word-key sort, and lane-batched expression evaluation, single-
//!    threaded so the comparison isolates the kernel itself. The
//!    expression row is informational (the scalar arm is already
//!    columnar) and carries no speedup floor.
//! 6. the CRC engines: the join and group-by kernels on the SSE4.2
//!    hardware CRC (the `DPU_VECTOR` default) against the table-driven
//!    SWAR CRC, where the instruction exists. Informational rows.
//! 7. the packed filter (`DPU_PACK`): the band evaluated in the encoded
//!    domain vs the flat filter on the same encoded table, with resident
//!    bytes-scanned and the compression ratio; it carries a ≥1.2×
//!    packed-over-flat floor. The other operators read the flat values
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
//! ≥2× (pool) and ≥1.3× (SWAR kernel) speedup assertions only arm when
//! the host has ≥ 4 CPUs; on smaller hosts the binary still checks
//! determinism and reports what it measured.

use std::sync::Arc;
use std::time::Instant;

use criterion::{Criterion, Throughput};
use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_cluster::{
    Cluster, ClusterConfig, ClusterCore, ClusterQueryCost, FaultPlan, QueryError, QueryId,
    QueryOutput, ShardPolicy, SingleRefCache,
};
use dpu_isa::hash::hw_crc_available;
use dpu_pool::{set_global_threads, Pool};
use dpu_sql::tpch::{self, TpchDb};
use dpu_sql::{
    partition_row_ids_with, sort_indices_multi_with, top_k_with, AggFunc, Column, CompareOp, Expr,
    FilterSpec, GroupBySpec, HashJoin, Kernel, Pack, Table,
};

const SEED: u64 = 2026;
const NODES: usize = 8;
const SCALE: u64 = 30_000; // cost queries at SF≈100 cardinalities
const DATAGEN_ORDERS: [usize; 2] = [20_000, 100_000];
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

    // ── Datagen: sequential vs chunked-parallel, bit-identical ───────
    header(&["orders_n", "seq (s)", "par (s)", "speedup", "bit-identical"]);
    let mut datagen_json: Vec<Json> = Vec::new();
    let mut datagen_speedup_at_largest = 0.0f64;
    for orders_n in DATAGEN_ORDERS {
        set_global_threads(1);
        let (seq_s, seq_db) = best_of(|| tpch::generate(orders_n, SEED));
        set_global_threads(threads);
        let (par_s, par_db) = best_of(|| tpch::generate_parallel(orders_n, SEED));
        assert_eq!(seq_db, par_db, "chunked datagen diverged at orders_n={orders_n}");
        let speedup = seq_s / par_s;
        datagen_speedup_at_largest = speedup;
        row(&[
            format!("{orders_n}"),
            format!("{seq_s:.3}"),
            format!("{par_s:.3}"),
            format!("{speedup:.2}x"),
            "yes".into(),
        ]);
        datagen_json.push(Json::obj([
            ("orders_n", Json::num(orders_n as f64)),
            ("speedup", Json::num(speedup)),
        ]));
    }

    // ── Cluster::run_all: single node and 8 nodes ─────────────────────
    let db = tpch::generate(CLUSTER_ORDERS, SEED);
    let mut suite_json: Vec<Json> = Vec::new();
    let mut cluster_speedup = 0.0f64;
    println!();
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

    // ── SWAR kernels: scalar vs vector inner loops ───────────────────
    // Single-threaded, bit-identity asserted before any time is
    // reported. The ≥1.3× floor arms with the others (≥ 4 CPUs) even
    // though the comparison itself is width-independent, so small CI
    // hosts never fail on scheduling noise.
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
    header(&["kernel", "scalar (s)", "vector (s)", "speedup", "Mrows/s", "bit-identical"]);
    let mut kernels_json: Vec<Json> = Vec::new();
    let mut kernel_speedups: Vec<(&'static str, f64)> = Vec::new();
    // `floored`: whether this kernel participates in the ≥1.3× speedup
    // assertion. Informational rows (where the scalar arm is already
    // columnar) report but never gate.
    let mut kernel_row = |name: &'static str, scalar_s: f64, vector_s: f64, floored: bool| {
        let speedup = scalar_s / vector_s;
        let mrows = kernel_rows as f64 / vector_s / 1e6;
        row(&[
            name.to_string(),
            format!("{scalar_s:.3}"),
            format!("{vector_s:.3}"),
            format!("{speedup:.2}x"),
            format!("{mrows:.0}"),
            "yes".into(),
        ]);
        kernels_json.push(Json::obj([
            ("kernel", Json::str(name)),
            ("rows", Json::num(kernel_rows as f64)),
            ("speedup", Json::num(speedup)),
            ("scalar_mrows_s", Json::num(kernel_rows as f64 / scalar_s / 1e6)),
            ("vector_mrows_s", Json::num(mrows)),
        ]));
        if floored {
            kernel_speedups.push((name, speedup));
        }
    };

    let fspec = FilterSpec::new("v", CompareOp::Between(100_000, 700_000));
    let (f_scalar_s, f_scalar) = best_of(|| fspec.apply_with(&kt, Kernel::Scalar));
    let (f_vector_s, f_vector) = best_of(|| fspec.apply_with(&kt, Kernel::Swar));
    assert_eq!(f_scalar, f_vector, "SWAR filter diverged from scalar");
    kernel_row("filter", f_scalar_s, f_vector_s, true);

    let (p_scalar_s, p_scalar) = best_of(|| partition_row_ids_with(&keys, 0, 32, Kernel::Scalar));
    let (p_vector_s, p_vector) = best_of(|| partition_row_ids_with(&keys, 0, 32, Kernel::Swar));
    assert_eq!(p_scalar, p_vector, "SWAR partition diverged from scalar");
    kernel_row("partition", p_scalar_s, p_vector_s, true);

    if hw_crc_available() {
        let (h_vector_s, h_vector) =
            best_of(|| partition_row_ids_with(&keys, 0, 32, Kernel::HwCrc));
        assert_eq!(p_scalar, h_vector, "hardware-CRC partition diverged from scalar");
        kernel_row("partition_hwcrc", p_scalar_s, h_vector_s, true);
    } else {
        println!("  (partition_hwcrc skipped: host lacks SSE4.2)");
    }

    let gspec = GroupBySpec {
        group_cols: vec!["k".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let (a_scalar_s, a_scalar) = best_of(|| gspec.execute_seq(&kt, None));
    let (a_vector_s, a_vector) = best_of(|| gspec.execute_vector_with(&kt, None, Kernel::Swar));
    assert_eq!(a_scalar, a_vector, "SWAR group-by diverged from scalar");
    kernel_row("agg", a_scalar_s, a_vector_s, true);

    // Multi-key group-by: two-column composite keys (≤65 536 groups)
    // through the flattened wide-CRC probe.
    let mspec = GroupBySpec {
        group_cols: vec!["s1".into(), "g2".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let (m_scalar_s, m_scalar) = best_of(|| mspec.execute_seq(&mt, None));
    let (m_vector_s, m_vector) = best_of(|| mspec.execute_vector_with(&mt, None, Kernel::Swar));
    assert_eq!(m_scalar, m_vector, "SWAR multi-key group-by diverged from scalar");
    kernel_row("groupby_multi", m_scalar_s, m_vector_s, true);

    // Hash join: the 2M-row key column probes a 65 536-key build through
    // 32 partitions. The scalar arm builds a SipHash `HashMap` per
    // partition; the vector arms reuse one flat open-addressed table.
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
    let (j_scalar_s, j_scalar) = best_of(|| join.execute_seq_with(&jb, &kt, 32, Kernel::Scalar));
    let (j_vector_s, j_vector) = best_of(|| join.execute_seq_with(&jb, &kt, 32, Kernel::Swar));
    assert_eq!(j_scalar, j_vector, "flat-table join diverged from the HashMap reference");
    kernel_row("join", j_scalar_s, j_vector_s, true);

    // Top-k: the threshold pre-filter rejects whole 64-row blocks once
    // the heap fills (k=100 over 2M uniform rows ⇒ almost all of them).
    let (t_scalar_s, t_scalar) = best_of(|| top_k_with(&kt, "v", 100, 1, None, Kernel::Scalar));
    let (t_vector_s, t_vector) = best_of(|| top_k_with(&kt, "v", 100, 1, None, Kernel::Swar));
    assert_eq!(t_scalar, t_vector, "SWAR top-k diverged from scalar");
    kernel_row("topk", t_scalar_s, t_vector_s, true);

    // Sort-key extraction: duplicate-heavy two-column sort where the
    // scalar arm runs a per-row column-by-column comparator and the
    // vector arm compares materialized order-normalized words.
    let (s_scalar_s, s_scalar) =
        best_of(|| sort_indices_multi_with(&mt, &["s1", "s2"], 1, None, Kernel::Scalar));
    let (s_vector_s, s_vector) =
        best_of(|| sort_indices_multi_with(&mt, &["s1", "s2"], 1, None, Kernel::Swar));
    assert_eq!(s_scalar, s_vector, "SWAR sort diverged from scalar");
    kernel_row("sortkey", s_scalar_s, s_vector_s, true);

    // Expression evaluation: the TPC-H revenue shape. Informational —
    // the scalar arm is already columnar, so no floor is armed.
    let revenue =
        Expr::col("v") * (Expr::lit(100) - Expr::col("s1")) * (Expr::lit(100) + Expr::col("g2"));
    let (e_scalar_s, e_scalar) = best_of(|| revenue.eval_with(&mt, Kernel::Scalar));
    let (e_vector_s, e_vector) = best_of(|| revenue.eval_with(&mt, Kernel::Swar));
    assert_eq!(e_scalar, e_vector, "SWAR expression eval diverged from scalar");
    kernel_row("expr", e_scalar_s, e_vector_s, false);

    // ── CRC engines: hardware CRC (the default) vs table-driven SWAR ──
    // The same SWAR join and group-by kernels, differing only in how
    // they compute CRC32-C. Informational: no floor is armed.
    let mut crc_json: Vec<Json> = Vec::new();
    if hw_crc_available() {
        println!();
        header(&["crc kernel", "swar (s)", "hwcrc (s)", "speedup", "Mrows/s", "bit-identical"]);
        let mut crc_row = |name: &'static str, swar_s: f64, hw_s: f64| {
            let speedup = swar_s / hw_s;
            let mrows = kernel_rows as f64 / hw_s / 1e6;
            row(&[
                name.to_string(),
                format!("{swar_s:.3}"),
                format!("{hw_s:.3}"),
                format!("{speedup:.2}x"),
                format!("{mrows:.0}"),
                "yes".into(),
            ]);
            crc_json.push(Json::obj([
                ("kernel", Json::str(name)),
                ("rows", Json::num(kernel_rows as f64)),
                ("speedup", Json::num(speedup)),
                ("swar_mrows_s", Json::num(kernel_rows as f64 / swar_s / 1e6)),
                ("hwcrc_mrows_s", Json::num(mrows)),
            ]));
        };
        let (ah_s, ah) = best_of(|| gspec.execute_vector_with(&kt, None, Kernel::HwCrc));
        assert_eq!(a_vector, ah, "hardware-CRC group-by diverged from SWAR");
        crc_row("agg_hwcrc", a_vector_s, ah_s);
        let (mh_s, mh) = best_of(|| mspec.execute_vector_with(&mt, None, Kernel::HwCrc));
        assert_eq!(m_vector, mh, "hardware-CRC multi-key group-by diverged from SWAR");
        crc_row("groupby_multi_hwcrc", m_vector_s, mh_s);
        let (jh_s, jh) = best_of(|| join.execute_seq_with(&jb, &kt, 32, Kernel::HwCrc));
        assert_eq!(j_vector, jh, "hardware-CRC join diverged from SWAR");
        crc_row("join_hwcrc", j_vector_s, jh_s);
    } else {
        println!("  (hardware-CRC join/group-by rows skipped: host lacks SSE4.2)");
    }

    // ── Packed filter: encoded-domain band vs flat, same SWAR kernel ──
    // A discount-like small-domain column (TPC-H `l_discount` shape, 11
    // distinct values): the 4-bit lanes pack 16 values per word, the
    // payoff case the paper's compressed scans live on. Wider lanes pay
    // progressively more for the per-field flag compaction — 8-bit sits
    // near break-even and 16-bit loses — so the floored row uses the
    // narrow-lane shape the encoded-domain filter is built for.
    let discounts: Vec<i64> = (0..kernel_rows).map(|_| (splitmix() % 11) as i64).collect();
    let mut qt_p = Table::new(vec![Column::i64("q", discounts)]);
    qt_p.encode_packed();

    println!();
    header(&["packed kernel", "flat (s)", "packed (s)", "speedup", "compression", "bit-identical"]);
    let qspec = FilterSpec::new("q", CompareOp::Between(2, 7));
    let (qf_s, qf) = best_of(|| qspec.apply_packed_with(&qt_p, Kernel::Swar, Pack::Off));
    let (qp_s, qp) = best_of(|| qspec.apply_packed_with(&qt_p, Kernel::Swar, Pack::On));
    assert_eq!(qf, qp, "packed filter diverged from flat");
    let filter_pack_speedup = qf_s / qp_s;
    let qcol = &qt_p.columns[0];
    let ratio = qcol.bytes() as f64 / qcol.resident_bytes().max(1) as f64;
    row(&[
        "filter_pack".to_string(),
        format!("{qf_s:.3}"),
        format!("{qp_s:.3}"),
        format!("{filter_pack_speedup:.2}x"),
        format!("{ratio:.2}x"),
        "yes".into(),
    ]);
    let packed_json = vec![Json::obj([
        ("kernel", Json::str("filter_pack")),
        ("rows", Json::num(kernel_rows as f64)),
        ("speedup", Json::num(filter_pack_speedup)),
        ("flat_bytes_scanned", Json::num(qcol.bytes() as f64)),
        ("packed_bytes_scanned", Json::num(qcol.resident_bytes() as f64)),
        ("compression_ratio", Json::num(ratio)),
    ])];

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

    // ── Criterion throughput report (elements/s) ──────────────────────
    // The stand-in criterion's `Throughput` prints a rate next to
    // ns/iter; datagen throughput is in generated orders per second.
    set_global_threads(threads);
    let orders_n = DATAGEN_ORDERS[0];
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("wallclock/datagen");
    g.throughput(Throughput::Elements(orders_n as u64));
    g.bench_function(format!("orders_{orders_n}").as_str(), |b| {
        b.iter(|| tpch::generate_parallel(orders_n, SEED))
    });
    g.finish();

    if assert_speedups {
        assert!(
            datagen_speedup_at_largest >= 2.0,
            "datagen at orders_n={} must speed up >= 2x on {threads} threads \
             ({host_cpus} CPUs): got {datagen_speedup_at_largest:.2}x",
            DATAGEN_ORDERS[DATAGEN_ORDERS.len() - 1],
        );
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
                "SWAR {name} kernel must speed up >= 1.3x over scalar \
                 ({host_cpus} CPUs): got {speedup:.2}x"
            );
        }
        assert!(
            filter_pack_speedup >= 1.2,
            "packed filter_pack kernel must speed up >= 1.2x over flat \
             ({host_cpus} CPUs): got {filter_pack_speedup:.2}x"
        );
        println!(
            "\nSpeedup floor (>= 2.0x) holds for datagen, {NODES}-node run_all, \
             and the failover matrix; SWAR kernels hold >= 1.3x over scalar; \
             the packed filter holds >= 1.2x over flat."
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
            ("datagen", Json::Arr(datagen_json)),
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
