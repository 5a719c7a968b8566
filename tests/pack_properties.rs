//! Differential property suite for FOR/bit-packed columns.
//!
//! Packing is *pure performance*. For every bit width
//! (1/2/4/8/16/32/64), every chunk-boundary row count, signed-extreme
//! values and all-constant chunks, the encoded-domain filter must be
//! **bit-identical** to the per-row reference (`CompareOp::matches`,
//! same selection words), packed columns must decode exactly, and every
//! other operator — which reads the flat values resident beside the
//! packed words — must return the same result on a packed table as on
//! the same table stripped of its packed form.

use proptest::prelude::*;

use dpu_repro::sql::{
    sort_indices, top_k, AggFunc, BitVec, Column, CompareOp, Expr, FilterSpec, GroupBySpec,
    HashJoin, Pack, PackedColumn, Table,
};

/// Widens a tagged raw value into a key distribution that exercises
/// extremes (`i64::MIN`, `i64::MAX`), small dense ranges, and
/// full-domain values.
fn shape_value(raw: i64, tag: u8) -> i64 {
    match tag {
        0 => i64::MIN,
        1 => i64::MAX,
        2..=4 => raw.rem_euclid(16),   // dense: many duplicate keys
        5..=6 => raw.rem_euclid(4096), // medium cardinality
        _ => raw,                      // full domain
    }
}

/// A value-column strategy over the shaped distribution.
fn values(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec((any::<i64>(), any::<u8>()), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().map(|(raw, tag)| shape_value(raw, tag % 8)).collect())
}

/// Values confined to a random frame plus a width-targeted range, so
/// every packed bit width (1, 2, 4, 8, 16, 32, 64) gets drawn —
/// including frames near the signed extremes where the FOR delta wraps.
fn framed_values(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    (any::<i64>(), 0u32..=6, proptest::collection::vec(any::<u64>(), 0..max_len)).prop_map(
        |(base, wexp, raws)| {
            let bits = 1u32 << wexp;
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            raws.into_iter().map(|r| base.wrapping_add((r & mask) as i64)).collect()
        },
    )
}

/// A comparison-operator strategy covering every `CompareOp` arm plus
/// always-true and always-false bands. Its draws resolve against the
/// filtered column ([`OpDraw::on`]).
fn compare_op() -> impl Strategy<Value = OpDraw> {
    (any::<i64>(), any::<i64>(), 0u8..12).prop_map(|(a, b, arm)| OpDraw { a, b, arm })
}

/// One drawn comparison. Arms 0–7 take the raw edges `a` and `b`,
/// uniform over `i64` and so almost never inside a narrow chunk; arms
/// 8–11 move each edge onto a value of the filtered column plus or
/// minus up to 8 (saturating), so the band cuts through 8-, 16- and
/// 32-bit chunks instead of the zone map answering them whole.
#[derive(Debug, Clone, Copy)]
struct OpDraw {
    a: i64,
    b: i64,
    arm: u8,
}

impl OpDraw {
    /// The comparison this draw makes over a column holding `data`.
    fn on(self, data: &[i64]) -> CompareOp {
        let OpDraw { a, b, arm } = self;
        let (lo, hi) = (a.min(b), a.max(b));
        match arm {
            0 => CompareOp::Between(lo, hi),
            1 => CompareOp::Eq(a),
            2 => CompareOp::Lt(a),
            3 => CompareOp::Le(a),
            4 => CompareOp::Gt(a),
            5 => CompareOp::Ge(a),
            6 => CompareOp::Between(i64::MIN, i64::MAX), // all match
            7 => CompareOp::Between(1, 0),               // empty band: none match
            _ => {
                // An edge's low bits pick a row, its top four bits an
                // offset in -8..8.
                let near = |r: i64| match data.len() as u64 {
                    0 => r,
                    n => data[(r as u64 % n) as usize].saturating_add(r >> 60),
                };
                let (x, y) = (near(a), near(b));
                match (a ^ b).rem_euclid(6) {
                    0 => CompareOp::Between(x.min(y), x.max(y)),
                    1 => CompareOp::Eq(x),
                    2 => CompareOp::Lt(x),
                    3 => CompareOp::Le(x),
                    4 => CompareOp::Gt(x),
                    _ => CompareOp::Ge(x),
                }
            }
        }
    }
}

/// A column with packing **forced** (bypassing the payoff rule), so the
/// packed code paths run even for distributions where encoding would
/// not pay.
fn force_packed(name: &str, data: &[i64]) -> Column {
    Column {
        name: name.into(),
        width: 8,
        data: data.to_vec(),
        packed: Some(PackedColumn::encode(data)),
    }
}

/// The filter reference: `op` evaluated on every flat value.
fn filter_reference(data: &[i64], op: CompareOp) -> BitVec {
    BitVec::from_fn(data.len(), |i| op.matches(data[i]))
}

/// `t` with every column's packed form dropped: the flat reference.
fn stripped(t: &Table) -> Table {
    Table::new(t.columns.iter().map(|c| Column { packed: None, ..c.clone() }).collect())
}

proptest! {
    #[test]
    fn packed_roundtrip_is_exact(data in framed_values(3000)) {
        let p = PackedColumn::encode(&data);
        prop_assert_eq!(p.len(), data.len());
        prop_assert_eq!(p.unpack(), data.clone());
        // Sampled point lookups take the same per-chunk shift/mask path.
        for (i, &v) in data.iter().enumerate().step_by(97) {
            prop_assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn packed_filter_is_word_identical_to_flat(
        data in framed_values(3000),
        op in compare_op(),
    ) {
        let op = op.on(&data);
        let t = Table::new(vec![force_packed("x", &data)]);
        let spec = FilterSpec::new("x", op);
        let want = filter_reference(&data, op);
        let got = spec.apply(&t);
        // Word-for-word equality, so tail-lane masking bugs cannot hide
        // behind popcounts.
        prop_assert_eq!(&want, &got);
        prop_assert_eq!(want.words(), got.words());
    }

    #[test]
    fn packed_filter_handles_extreme_value_mixes(
        data in values(500),
        op in compare_op(),
    ) {
        let op = op.on(&data);
        let t = Table::new(vec![force_packed("x", &data)]);
        let spec = FilterSpec::new("x", op);
        let want = filter_reference(&data, op);
        prop_assert_eq!(want.words(), spec.apply(&t).words());
    }

    #[test]
    fn decode_for_and_values_reproduce_flat_data(data in framed_values(2500)) {
        let t = Table::new(vec![force_packed("x", &data)]);
        let d = t.decode_for(&["x"], Pack::On).expect("forced-packed column");
        prop_assert_eq!(&d.columns[0].data, &data);
        prop_assert!(d.columns[0].packed.is_none(), "decoded tables are flat");
        prop_assert!(t.decode_for(&["x"], Pack::Off).is_none(), "pack off decodes nothing");
    }

    #[test]
    fn packed_group_by_matches_flat(keys in framed_values(1500)) {
        let vals: Vec<i64> =
            keys.iter().enumerate().map(|(i, &k)| (k % 1000).wrapping_mul(3) + i as i64).collect();
        let t = Table::new(vec![force_packed("g", &keys), force_packed("v", &vals)]);
        let spec = GroupBySpec {
            group_cols: vec!["g".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
            ],
        };
        let flat = spec.execute_seq(&stripped(&t), None);
        prop_assert_eq!(&flat, &spec.execute_seq(&t, None));
        prop_assert_eq!(&flat, &spec.execute(&t, None));
    }

    #[test]
    fn entry_points_ignore_the_packed_form(
        data in framed_values(1500),
        extra_keys in framed_values(300),
        op in compare_op(),
        k in 1usize..40,
        workers in 1usize..5,
    ) {
        let groups: Vec<i64> = data.iter().map(|&v| v.rem_euclid(7)).collect();
        // Divisors shaped strictly positive: division by zero panics (by
        // contract) and `i64::MIN / -1` would trap.
        let divisor: Vec<i64> = data.iter().map(|&v| v.rem_euclid(1000) + 1).collect();
        let t = Table::new(vec![
            force_packed("a", &data),
            force_packed("b", &groups),
            force_packed("d", &divisor),
        ]);
        // Build keys: every third probe key (so rows match) plus keys
        // from another frame.
        let bkeys: Vec<i64> = data.iter().step_by(3).chain(&extra_keys).copied().collect();
        let bv: Vec<i64> = bkeys.iter().map(|&k| k ^ 0x5A5A).collect();
        let build = Table::new(vec![force_packed("k", &bkeys), force_packed("bv", &bv)]);
        let (flat, flat_build) = (stripped(&t), stripped(&build));

        let filter = FilterSpec::new("a", op.on(&data));
        let group = GroupBySpec {
            group_cols: vec!["b".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("d".into())),
                ("lo".into(), AggFunc::Min("a".into())),
                ("hi".into(), AggFunc::Max("a".into())),
            ],
        };
        let join = HashJoin {
            build_key: "k".into(),
            probe_key: "a".into(),
            build_cols: vec!["bv".into(), "k".into()],
            probe_cols: vec!["b".into()],
        };
        let e = Expr::Clamp(
            Box::new(
                (Expr::col("a") * Expr::lit(3) + Expr::col("a") - Expr::lit(7)) / Expr::col("d"),
            ),
            -(1 << 40),
            1 << 40,
        );

        prop_assert_eq!(filter.apply(&t), filter.apply(&flat), "filter");
        prop_assert_eq!(group.execute(&t, None), group.execute(&flat, None), "group-by");
        prop_assert_eq!(join.execute(&build, &t, 8), join.execute(&flat_build, &flat, 8), "join");
        prop_assert_eq!(e.eval(&t), e.eval(&flat), "expr");
        prop_assert_eq!(sort_indices(&t, "a", workers), sort_indices(&flat, "a", workers), "sort");
        prop_assert_eq!(top_k(&t, "a", k, workers), top_k(&flat, "a", k, workers), "top-k");
    }
}

/// Chunk-boundary row counts: every length straddling the 1024-row pack
/// chunk and the 64-row selection word must mask identically, for every
/// predicate shape.
#[test]
fn packed_filter_is_exact_at_chunk_boundaries() {
    for len in [0usize, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025, 2047, 2048, 2049] {
        let data: Vec<i64> = (0..len as i64).map(|i| (i * 37) % 50 - 25).collect();
        let t = Table::new(vec![force_packed("x", &data)]);
        for op in [
            CompareOp::Between(-10, 10),
            CompareOp::Between(i64::MIN, i64::MAX), // all match
            CompareOp::Between(1, 0),               // none match
            CompareOp::Eq(0),
            CompareOp::Ge(0),
            CompareOp::Lt(-25), // below every chunk frame: zone-map zeros
        ] {
            let got = FilterSpec::new("x", op).apply(&t);
            assert_eq!(filter_reference(&data, op).words(), got.words(), "len={len} op={op:?}");
        }
    }
}

/// Signed-extreme frames and all-constant chunks: `i64::MIN`/`MAX`
/// values wrap the FOR delta across the full unsigned domain, and
/// constant chunks (range 0) must short-circuit on the zone map alone.
#[test]
fn packed_extremes_and_constant_chunks_are_exact() {
    let mut data = vec![i64::MIN; 1024]; // all-constant chunk, extreme frame
    data.extend(std::iter::repeat_n(i64::MAX, 1024)); // another constant chunk
                                                      // A full-range chunk: deltas span the whole unsigned domain.
    data.extend((0..1024).map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX }));
    data.extend(std::iter::repeat_n(7, 1024)); // small constant chunk
    data.extend((0..100).map(|i| i - 50)); // partial tail chunk
    let p = PackedColumn::encode(&data);
    assert_eq!(p.unpack(), data);

    let t = Table::new(vec![force_packed("x", &data)]);
    for op in [
        CompareOp::Eq(i64::MIN),
        CompareOp::Eq(i64::MAX),
        CompareOp::Eq(7),
        CompareOp::Between(i64::MIN, i64::MAX),
        CompareOp::Between(0, 0),
        CompareOp::Ge(0),
        CompareOp::Le(-1),
    ] {
        let got = FilterSpec::new("x", op).apply(&t);
        assert_eq!(filter_reference(&data, op).words(), got.words(), "op={op:?}");
    }
}

/// The payoff rule: `Column::encode_packed` keeps the packed form only
/// when it is strictly smaller than the flat data, and never packs an
/// already-packed or empty column twice.
#[test]
fn encode_packed_keeps_only_paying_columns() {
    // Full-domain 64-bit noise: 64-bit deltas plus headers cannot beat
    // the flat 8-byte width, so the column must stay flat.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let noise: Vec<i64> = (0..5000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state as i64
        })
        .collect();
    let mut wide = Column::i64("noise", noise);
    wide.encode_packed();
    assert!(wide.packed.is_none(), "full-domain noise must fall back to flat");
    assert_eq!(wide.resident_bytes(), wide.bytes());

    // A small-domain column packs and shrinks.
    let mut small = Column::i64("small", (0..5000).map(|i| i % 50).collect());
    small.encode_packed();
    let p = small.packed.as_ref().expect("small domain must pack");
    assert!(small.resident_bytes() < small.bytes());
    assert_eq!(p.unpack(), small.data);
    // Idempotent: a second encode leaves the representation untouched.
    let before = small.resident_bytes();
    small.encode_packed();
    assert_eq!(small.resident_bytes(), before);

    // An empty column never packs.
    let mut empty = Column::i64("empty", vec![]);
    empty.encode_packed();
    assert!(empty.packed.is_none());
}

/// Goes through the entry points (`apply`, `execute`, `eval`, `top_k`,
/// `sort_indices`) on an encoded table, checked against brute-force
/// references over the flat values; the CI matrix runs it at each
/// `DPU_THREADS` width.
#[test]
fn entry_apis_match_brute_force_references() {
    let n = 5000usize;
    let keys: Vec<i64> = (0..n as i64).map(|i| (i * 131) % 3000 - 1500).collect();
    let vals: Vec<i64> = (0..n as i64).map(|i| (i * 17) % 10_000).collect();
    let mut t = Table::new(vec![Column::i64("x", keys), Column::i64("v", vals)]);
    t.encode_packed();
    assert!(t.columns.iter().all(|c| c.packed.is_some()), "both columns should pay");

    let (x, v) = (t.columns[0].data.clone(), t.columns[1].data.clone());
    let op = CompareOp::Between(-500, 900);
    assert_eq!(FilterSpec::new("x", op).apply(&t).words(), filter_reference(&x, op).words());

    let g = GroupBySpec {
        group_cols: vec!["x".into()],
        aggs: vec![("cnt".into(), AggFunc::Count), ("s".into(), AggFunc::Sum("v".into()))],
    };
    assert_eq!(g.execute(&t, None), g.execute_seq(&t, None));

    let e = Expr::col("v") * (Expr::lit(100) - Expr::col("x"));
    let want: Vec<i64> = (0..n).map(|i| v[i].wrapping_mul(100i64.wrapping_sub(x[i]))).collect();
    assert_eq!(e.eval(&t), want);

    // Top-k and the sort against one full stable sort each.
    let stable_sort = |cmp: &dyn Fn(usize, usize) -> std::cmp::Ordering| {
        let mut rows: Vec<usize> = (0..n).collect();
        rows.sort_by(|&a, &b| cmp(a, b));
        rows
    };
    assert_eq!(top_k(&t, "v", 50, 4), stable_sort(&|a, b| v[b].cmp(&v[a]))[..50]);
    assert_eq!(sort_indices(&t, "x", 4), stable_sort(&|a, b| x[a].cmp(&x[b])));
}
