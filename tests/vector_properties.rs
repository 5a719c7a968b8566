//! Differential property suite for the SWAR kernels (`dpu_sql::vector`).
//!
//! Every operator has one production path, and this suite checks it
//! against one reference. For every table size (including row counts
//! ≢ 0 mod 64 and empty tables), every predicate (all-match, none-match,
//! extreme bands), every fanout, every group-key distribution
//! (including `i64::MIN/MAX` keys), and every top-k and sort worker
//! count, the filter / join / group-by / top-k / sort / expression
//! kernels must be **bit-identical** to their reference — same words,
//! same row order, same accumulator values.
//!
//! The references are brute force where the tests can compute one: the
//! filter against `CompareOp::matches` per row, the join against a
//! nested loop over probe rows then build rows (its reported partition
//! size against the bit-serial `crc32c_u64`), the selection join
//! against the join over `select_rows` copies and against a nested loop
//! over the selected rows (under build key ranges that reach every arm
//! of the join table), top-k and sort against one full stable sort, and
//! expressions against per-row wrapping arithmetic. The group-by's
//! reference is `GroupBySpec::execute_seq`, key-less aggregates
//! included.

use proptest::prelude::*;

use dpu_repro::isa::hash::{
    crc32c_u64, crc32c_u64_hw, crc32c_u64_table, crc32c_u64_x4, crc32c_u64_x4_hw, hw_crc_available,
};
use dpu_repro::sql::tpch::select_rows;
use dpu_repro::sql::{
    sort_indices, top_k, AggFunc, BitVec, Column, CompareOp, Expr, FilterSpec, GroupBySpec,
    HashJoin, Table,
};

/// The filter reference: `op` evaluated on every row.
fn filter_reference(data: &[i64], op: CompareOp) -> BitVec {
    BitVec::from_fn(data.len(), |i| op.matches(data[i]))
}

/// The join reference: a nested loop over probe rows, then build rows,
/// projecting each matched pair; plus the largest partition of a
/// bit-serial `fanout`-way CRC32 split of the build keys.
fn join_reference(join: &HashJoin, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
    let bkeys = &build.column(&join.build_key).expect("join column").data;
    let mut counts = vec![0u64; fanout as usize];
    for &k in bkeys {
        counts[(crc32c_u64(k as u64) as u64 % fanout) as usize] += 1;
    }
    let max_part = counts.into_iter().max().unwrap_or(0);
    (selection_join_reference(join, build, None, probe, None), max_part)
}

/// The selection join reference: a nested loop over the probe rows
/// `psel` keeps, then the build rows `bsel` keeps (every row for
/// `None`), projecting each matched pair.
fn selection_join_reference(
    join: &HashJoin,
    build: &Table,
    bsel: Option<&BitVec>,
    probe: &Table,
    psel: Option<&BitVec>,
) -> Table {
    let col = |t: &Table, name: &str| t.column(name).expect("join column").data.clone();
    let (bkeys, pkeys) = (col(build, &join.build_key), col(probe, &join.probe_key));
    let kept = |sel: Option<&BitVec>, r: usize| sel.is_none_or(|bv| bv.get(r));
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (pr, pk) in pkeys.iter().enumerate().filter(|&(pr, _)| kept(psel, pr)) {
        for (br, bk) in bkeys.iter().enumerate().filter(|&(br, _)| kept(bsel, br)) {
            if bk == pk {
                pairs.push((br, pr));
            }
        }
    }
    let gather = |t: &Table, name: &String, side: fn(&(usize, usize)) -> usize| {
        let data = col(t, name);
        Column::i64(name, pairs.iter().map(|p| data[side(p)]).collect())
    };
    let build_cols = join.build_cols.iter().map(|c| gather(build, c, |p| p.0));
    let probe_cols = join.probe_cols.iter().map(|c| gather(probe, c, |p| p.1));
    Table::new(build_cols.chain(probe_cols).collect())
}

/// The inverse of the join table's Fibonacci multiplier modulo 2⁶⁴: key
/// `j · inverse` has the product `j`, so small `j` put every key in the
/// hashed table's home slot 0.
fn fib_inverse() -> u64 {
    const C: u64 = 0x9E37_79B9_7F4A_7C15;
    let inv = (0..6).fold(C, |x, _| x.wrapping_mul(2u64.wrapping_sub(C.wrapping_mul(x))));
    assert_eq!(C.wrapping_mul(inv), 1);
    inv
}

/// A join key from a pool that stresses the hashed join table: for
/// `tag` 0–2, one of 40 keys that share one home slot; then the signed
/// extremes, small keys that repeat, or any key.
fn filter_key(raw: i64, tag: u8) -> i64 {
    match tag {
        0..=2 => (1 + raw.rem_euclid(40) as u64).wrapping_mul(fib_inverse()) as i64,
        3 => [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1][raw.rem_euclid(4) as usize],
        4..=5 => raw.rem_euclid(8) - 4,
        _ => raw,
    }
}

/// A join-key-column draw: raw values and their tags.
fn key_draws(max_len: usize) -> impl Strategy<Value = Vec<(i64, u8)>> {
    proptest::collection::vec((any::<i64>(), any::<u8>()), 0..max_len)
}

/// Key spans of the join table's range shapes: the first takes the
/// direct table at any build size; the second hashed slots, behind the
/// bitmap when the probe rows are at least as many as the build keys;
/// the third spans past the bitmap's cap.
const KEY_SPANS: [i64; 3] = [64, 1 << 16, 1 << 20];

/// The least key and the span of range shape `shape` (an index of
/// [`KEY_SPANS`]; `None` past them), based at the least, the greatest or
/// a middle span of `i64` by `base`.
fn key_span(shape: u8, base: u8) -> Option<(i64, i64)> {
    let span = *KEY_SPANS.get(shape as usize)?;
    Some(([i64::MIN, i64::MAX - (span - 1), -span / 2][base as usize % 3], span))
}

/// The build keys of range shape `shape` ([`key_span`], else the
/// [`filter_key`] pool): each draw is a key of the span, and a third of
/// them one of its first 8 keys, so keys repeat.
fn ranged_build_keys(draws: &[(i64, u8)], shape: u8, base: u8) -> Vec<i64> {
    let Some((lo, span)) = key_span(shape, base) else {
        return draws.iter().map(|&(raw, tag)| filter_key(raw, tag % 7)).collect();
    };
    let offset = |(raw, tag): (i64, u8)| raw.rem_euclid(if tag % 3 == 0 { 8 } else { span });
    draws.iter().map(|&d| lo + offset(d)).collect()
}

/// The probe keys of the same range shape against the build keys
/// `bkeys`: per draw a build key, a key of the span widened by two on
/// each side (wrapping past the `i64` extremes), or a key of the
/// [`filter_key`] pool — its signed extremes included.
fn ranged_probe_keys(draws: &[(i64, u8)], shape: u8, base: u8, bkeys: &[i64]) -> Vec<i64> {
    let Some((lo, span)) = key_span(shape, base) else {
        return draws.iter().map(|&(raw, tag)| filter_key(raw, tag % 7)).collect();
    };
    let key = |&(raw, tag): &(i64, u8)| match tag % 4 {
        0 if !bkeys.is_empty() => bkeys[raw.rem_euclid(bkeys.len() as i64) as usize],
        1 => filter_key(raw, tag % 7),
        _ => lo.wrapping_add(raw.rem_euclid(span + 4) - 2),
    };
    draws.iter().map(key).collect()
}

/// How many selection shapes [`shaped_selection`] draws from.
const SELECTION_SHAPES: u8 = 6;

/// A selection over `n` rows of the given shape, sized by `(a, b)`:
/// none (every row), empty, full, strided, a single row, or a run of
/// 2–18 rows straddling a 64-row word boundary.
fn shaped_selection(n: usize, shape: u8, (a, b): (usize, usize)) -> Option<BitVec> {
    let stride = 1 + a % 7;
    match shape {
        0 => None,
        1 => Some(BitVec::new(n)),
        2 => Some(BitVec::from_fn(n, |_| true)),
        3 => Some(BitVec::from_fn(n, |r| r % stride == b % stride)),
        4 => Some(BitVec::from_fn(n, |r| r == a % n.max(1))),
        _ => {
            let (word, lo, hi) = (64 * (1 + a % 3), 1 + b % 9, 1 + (b / 9) % 9);
            Some(BitVec::from_fn(n, |r| r + lo >= word && r < word + hi))
        }
    }
}

/// The top-k reference: every row in one full stable sort by value
/// descending, row ascending, cut to `k`.
fn top_k_reference(vals: &[i64], k: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..vals.len()).collect();
    rows.sort_by(|&x, &y| vals[y].cmp(&vals[x]).then(x.cmp(&y)));
    rows.truncate(k);
    rows
}

/// The sort reference: every row in one full stable sort by value.
fn sort_reference(vals: &[i64]) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..vals.len()).collect();
    rows.sort_by_key(|&i| vals[i]);
    rows
}

/// Widens a tagged raw value into a key distribution that exercises
/// extremes (`i64::MIN`, `i64::MAX`), small dense ranges (collisions),
/// and full-domain values.
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

/// A comparison-operator strategy covering every `CompareOp` arm plus
/// always-true and always-false bands.
fn compare_op() -> impl Strategy<Value = CompareOp> {
    (any::<i64>(), any::<i64>(), 0u8..8).prop_map(|(a, b, arm)| {
        let (lo, hi) = (a.min(b), a.max(b));
        match arm {
            0 => CompareOp::Between(lo, hi),
            1 => CompareOp::Eq(a),
            // Guard the band() ±1 arithmetic against i64 overflow.
            2 => CompareOp::Lt(a.max(i64::MIN + 1)),
            3 => CompareOp::Le(a),
            4 => CompareOp::Gt(a.min(i64::MAX - 1)),
            5 => CompareOp::Ge(a),
            6 => CompareOp::Between(i64::MIN, i64::MAX), // all match
            _ => CompareOp::Between(1, 0),               // empty band: none match
        }
    })
}

proptest! {
    #[test]
    fn swar_filter_is_bit_identical_to_scalar(
        data in values(400),
        op in compare_op(),
    ) {
        let t = Table::new(vec![Column::i64("x", data)]);
        let spec = FilterSpec::new("x", op);
        let want = filter_reference(&t.columns[0].data, op);
        let got = spec.apply(&t);
        // Word-for-word equality (PartialEq covers words + len), so
        // tail-lane masking bugs cannot hide behind popcounts.
        prop_assert_eq!(&want, &got);
        prop_assert_eq!(want.words(), got.words());
    }

    #[test]
    fn swar_join_is_bit_identical_to_scalar(
        bkeys in values(200),
        pkeys in values(200),
        fanout in 1u64..10,
    ) {
        let build = Table::new(vec![
            Column::i64("k", bkeys.clone()),
            Column::i64("bv", bkeys.iter().map(|&k| k ^ 0x5A5A).collect()),
        ]);
        let probe = Table::new(vec![
            Column::i64("k", pkeys.clone()),
            Column::i64("pv", pkeys.iter().map(|&k| k.wrapping_add(17)).collect()),
        ]);
        let join = HashJoin {
            build_key: "k".into(),
            probe_key: "k".into(),
            build_cols: vec!["bv".into()],
            probe_cols: vec!["pv".into(), "k".into()],
        };
        let want = join_reference(&join, &build, &probe, fanout);
        // Exact row order, not just multiset equality.
        prop_assert_eq!(&want, &join.execute(&build, &probe, fanout));
    }

    #[test]
    fn selection_join_equals_join_over_selected_copies(
        bkeys in values(200),
        pkeys in values(200),
        bdraw in (any::<usize>(), any::<usize>()),
        pdraw in (any::<usize>(), any::<usize>()),
        fanout in 1u64..10,
    ) {
        let (build, probe) = (keyed(bkeys, "brow"), keyed(pkeys, "prow"));
        let join = row_id_join();
        let copy = |t: &Table, sel: &Option<BitVec>| sel.as_ref().map_or(t.clone(), |s| select_rows(t, s));
        // Every selection shape on each side, so each pairing runs.
        for bshape in 0..SELECTION_SHAPES {
            for pshape in 0..SELECTION_SHAPES {
                let bsel = shaped_selection(build.rows(), bshape, bdraw);
                let psel = shaped_selection(probe.rows(), pshape, pdraw);
                let (want, _) = join.execute(&copy(&build, &bsel), &copy(&probe, &psel), fanout);
                // Exact row order and base row ids.
                let got = join.execute_selected(&build, bsel.as_ref(), &probe, psel.as_ref());
                prop_assert_eq!(&want, &got, "shapes {} x {}", bshape, pshape);
            }
        }
    }

    /// Every join-table arm gives the nested loop's result over the
    /// selected rows, in exact row order. Build keys within 64 values
    /// take the direct table, within 2^16 the hashed slots behind the
    /// bitmap (or bare, when fewer probe rows than build keys are
    /// selected), and within 2^20 or from the colliding pool bare
    /// hashed slots; each span sits at either `i64` extreme or in the
    /// middle, so probe keys just outside it wrap. Build keys repeat,
    /// either side may be empty, a packed build column bounds its keys
    /// by its zone maps, and every selection shape runs on each side.
    #[test]
    fn filtered_join_equals_nested_loop_over_selected_rows(
        bdraws in key_draws(120),
        pdraws in key_draws(160),
        shape in 0u8..4,
        base in 0u8..3,
        packed in any::<bool>(),
        bdraw in (any::<usize>(), any::<usize>()),
        pdraw in (any::<usize>(), any::<usize>()),
    ) {
        let bkeys = ranged_build_keys(&bdraws, shape, base);
        let pkeys = ranged_probe_keys(&pdraws, shape, base, &bkeys);
        let (mut build, probe) = (keyed(bkeys, "brow"), keyed(pkeys, "prow"));
        if packed {
            build.columns[0].encode_packed();
        }
        let join = row_id_join();
        for bshape in 0..SELECTION_SHAPES {
            for pshape in 0..SELECTION_SHAPES {
                let bsel = shaped_selection(build.rows(), bshape, bdraw);
                let psel = shaped_selection(probe.rows(), pshape, pdraw);
                let (bsel, psel) = (bsel.as_ref(), psel.as_ref());
                let want = selection_join_reference(&join, &build, bsel, &probe, psel);
                let got = join.execute_selected(&build, bsel, &probe, psel);
                prop_assert_eq!(&want, &got, "shapes {} x {}", bshape, pshape);
            }
        }
    }

    #[test]
    fn swar_group_by_is_bit_identical_to_scalar(
        keys in values(400),
        sel_stride in proptest::option::of(1usize..7),
    ) {
        let vals: Vec<i64> =
            keys.iter().enumerate().map(|(i, &k)| (k % 1000).wrapping_mul(3) + i as i64).collect();
        let t = Table::new(vec![
            Column::i64("g", keys.clone()),
            Column::i64("v", vals.clone()),
            Column::i64("d", vals.iter().map(|v| v % 13).collect()),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["g".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
                ("sp".into(), AggFunc::SumProduct("v".into(), "d".into())),
            ],
        };
        let sel = sel_stride.map(|m| BitVec::from_fn(keys.len(), |i| i % m != 0));
        let want = spec.execute_seq(&t, sel.as_ref());
        prop_assert_eq!(&want, &spec.execute(&t, sel.as_ref()));
    }

    #[test]
    fn table_and_four_lane_crc_match_bit_serial(key in any::<u64>()) {
        let want = crc32c_u64(key);
        prop_assert_eq!(crc32c_u64_table(key), want);
        prop_assert_eq!(crc32c_u64_x4([key; 4]), [want; 4]);
    }

    #[test]
    fn swar_multi_key_group_by_is_bit_identical_to_scalar(
        (k1, k2, k3, width) in key_columns(),
        sel_stride in proptest::option::of(1usize..7),
    ) {
        let len = k1.len();
        let vals: Vec<i64> = (0..len as i64).map(|i| i.wrapping_mul(7) - 3).collect();
        let t = Table::new(vec![
            Column::i64("a", k1),
            Column::i64("b", k2),
            Column::i64("c", k3),
            Column::i64("v", vals),
        ]);
        let spec = GroupBySpec {
            group_cols: ["a", "b", "c"][..width].iter().map(|s| s.to_string()).collect(),
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
            ],
        };
        let sel = sel_stride.map(|m| BitVec::from_fn(len, |i| i % m != 0));
        let want = spec.execute_seq(&t, sel.as_ref());
        prop_assert_eq!(&want, &spec.execute(&t, sel.as_ref()));
    }

    #[test]
    fn swar_top_k_is_bit_identical_to_scalar(
        data in values(400),
        k in 1usize..50,
        workers in 1usize..6,
    ) {
        let t = Table::new(vec![Column::i64("v", data.clone())]);
        prop_assert_eq!(top_k_reference(&data, k), top_k(&t, "v", k, workers));
    }

    #[test]
    fn swar_sort_is_bit_identical_to_scalar(
        data in values(400),
        workers in 1usize..16,
    ) {
        let t = Table::new(vec![Column::i64("a", data.clone())]);
        prop_assert_eq!(sort_reference(&data), sort_indices(&t, "a", workers));
    }

    #[test]
    fn expression_eval_matches_per_row_arithmetic(data in values(300)) {
        // Divisors shaped strictly positive: division by zero panics (by
        // contract) and `i64::MIN / -1` would trap.
        let divisor: Vec<i64> = data.iter().map(|&v| v.rem_euclid(1000) + 1).collect();
        let want: Vec<i64> = data
            .iter()
            .zip(&divisor)
            .map(|(&x, &d)| {
                let v = x.wrapping_mul(3).wrapping_add(x).wrapping_sub(7);
                (v / d).clamp(-(1 << 40), 1 << 40)
            })
            .collect();
        let t = Table::new(vec![Column::i64("x", data), Column::i64("d", divisor)]);
        let e = Expr::Clamp(
            Box::new(
                (Expr::col("x") * Expr::lit(3) + Expr::col("x") - Expr::lit(7)) / Expr::col("d"),
            ),
            -(1 << 40),
            1 << 40,
        );
        prop_assert_eq!(want, e.eval(&t));
    }
}

/// Three equal-length shaped key columns plus a group-key width in
/// `1..=3`, for composite-key differential tests.
fn key_columns() -> impl Strategy<Value = (Vec<i64>, Vec<i64>, Vec<i64>, usize)> {
    ((values(200), values(200)), (values(200), 1usize..=3)).prop_map(
        |((mut k1, mut k2), (mut k3, width))| {
            // Independently-sized draws truncate to one shared length.
            let len = k1.len().min(k2.len()).min(k3.len());
            k1.truncate(len);
            k2.truncate(len);
            k3.truncate(len);
            (k1, k2, k3, width)
        },
    )
}

/// Tail lanes: every row count straddling the 64-row word boundary must
/// mask identically, for every predicate shape.
#[test]
fn filter_tail_lanes_are_exact_at_word_boundaries() {
    for len in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
        let data: Vec<i64> = (0..len as i64).map(|i| (i * 37) % 50 - 25).collect();
        let t = Table::new(vec![Column::i64("x", data)]);
        for op in [
            CompareOp::Between(-10, 10),
            CompareOp::Between(i64::MIN, i64::MAX), // all match
            CompareOp::Between(1, 0),               // none match
            CompareOp::Eq(0),
            CompareOp::Ge(0),
        ] {
            let want = filter_reference(&t.columns[0].data, op);
            let got = FilterSpec::new("x", op).apply(&t);
            assert_eq!(want, got, "len={len} op={op:?}");
            assert_eq!(want.words(), got.words(), "len={len} op={op:?}");
        }
    }
}

/// Group keys at the signed extremes — one column spanning all of
/// `i64`, still one key code — flow through the code table and the
/// final sort by code exactly like the reference HashMap.
#[test]
fn group_by_extreme_keys_are_exact() {
    let keys = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
    let vals: Vec<i64> = (0..keys.len() as i64).collect();
    let t = Table::new(vec![Column::i64("g", keys), Column::i64("v", vals)]);
    let spec = GroupBySpec {
        group_cols: vec!["g".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("lo".into(), AggFunc::Min("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    assert_eq!(spec.execute_seq(&t, None), spec.execute(&t, None));
}

/// Empty tables and empty selections produce identical empty results.
#[test]
fn empty_inputs_are_exact() {
    let t = Table::new(vec![Column::i64("g", vec![]), Column::i64("v", vec![])]);
    let spec = GroupBySpec {
        group_cols: vec!["g".into()],
        aggs: vec![("s".into(), AggFunc::Sum("v".into()))],
    };
    assert_eq!(spec.execute_seq(&t, None), spec.execute(&t, None));

    let spec_f = FilterSpec::new("g", CompareOp::Ge(0));
    assert_eq!(spec_f.apply(&t), filter_reference(&[], CompareOp::Ge(0)));

    // All-false selection: the hash path sees zero selected rows.
    let t2 = Table::new(vec![Column::i64("g", vec![1, 2, 3]), Column::i64("v", vec![4, 5, 6])]);
    let none = BitVec::new(3);
    assert_eq!(spec.execute_seq(&t2, Some(&none)), spec.execute(&t2, Some(&none)));
}

/// The table-driven and 4-lane CRC32-C engines agree with the bit-serial
/// reference over a seeded 1M-key sample (SplitMix64 stream), scanned in
/// lane batches exactly as the joins' partition count consumes them.
#[test]
fn crc_lanes_match_bit_serial_over_a_million_keys() {
    let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
    for batch in 0..250_000u64 {
        let keys = [next(), next(), next(), next()];
        let lanes = crc32c_u64_x4(keys);
        for (j, &k) in keys.iter().enumerate() {
            let want = crc32c_u64(k);
            assert_eq!(lanes[j], want, "batch {batch} lane {j} key {k:#x}");
            assert_eq!(crc32c_u64_table(k), want, "batch {batch} key {k:#x}");
        }
    }
}

/// A seeded SplitMix64 stream (fixed seed ⇒ reproducible failures).
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The SSE4.2 hardware CRC engine agrees with the table and bit-serial
/// engines over a seeded sample of single keys and key quads. Skips
/// cleanly (the wrappers fall back to the table engine anyway) on hosts
/// without SSE4.2.
#[test]
fn hardware_crc_matches_table_and_bit_serial() {
    if !hw_crc_available() {
        eprintln!("skipping: host lacks SSE4.2");
        return;
    }
    let mut next = splitmix(0xDEAD_BEEF_CAFE_F00D);
    for round in 0..50_000u64 {
        let k = next();
        let want = crc32c_u64(k);
        assert_eq!(crc32c_u64_hw(k), want, "round {round} key {k:#x}");
        assert_eq!(crc32c_u64_table(k), want, "round {round} key {k:#x}");

        let quad = [next(), next(), next(), next()];
        assert_eq!(crc32c_u64_x4_hw(quad), crc32c_u64_x4(quad), "round {round}");
    }
}

/// Composite group keys pinning a signed extreme in each column position
/// have value ranges multiplying past 2^64, so they take the sorted
/// fallback: a stable sort by tuple and the key-run walk, with
/// duplicate-heavy groups and all-false selections included.
#[test]
fn multi_key_groups_pin_signed_extremes_per_column() {
    let a = vec![i64::MIN, i64::MIN, i64::MAX, i64::MAX, 0, 0, i64::MIN, i64::MIN];
    let b = vec![i64::MAX, i64::MAX, i64::MIN, 0, i64::MIN, i64::MIN, i64::MAX, -1];
    let c = vec![0, 0, i64::MAX, i64::MIN, 1, 1, 0, i64::MIN + 1];
    let v: Vec<i64> = (0..a.len() as i64).map(|i| i * 11 - 40).collect();
    let t = Table::new(vec![
        Column::i64("a", a),
        Column::i64("b", b),
        Column::i64("c", c),
        Column::i64("v", v),
    ]);
    let spec = GroupBySpec {
        group_cols: vec!["a".into(), "b".into(), "c".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("lo".into(), AggFunc::Min("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let none = BitVec::new(t.rows());
    for sel in [None, Some(&none)] {
        assert_eq!(spec.execute_seq(&t, sel), spec.execute(&t, sel));
    }
}

/// Duplicate values tied exactly at the k-th threshold: the pre-filter
/// must keep earlier-row ties and reject later-row ties exactly like a
/// full stable sort, across worker splits that cut through the tie run.
#[test]
fn top_k_ties_at_the_threshold_are_exact() {
    // 256 rows, half of them the constant 5 — k lands inside the ties.
    let vals: Vec<i64> = (0..256).map(|i| if i % 2 == 0 { 5 } else { i % 10 }).collect();
    let t = Table::new(vec![Column::i64("v", vals.clone())]);
    for k in [1usize, 3, 64, 128, 200] {
        let want = top_k_reference(&vals, k);
        for workers in [1usize, 3, 7] {
            assert_eq!(top_k(&t, "v", k, workers), want, "k={k} workers={workers}");
        }
    }
}

/// Equal sort keys stay in row order: the unstable sort of distinct
/// `(value, row)` pairs must not be observably unstable, on heavy
/// duplicates that include the `i64` extremes.
#[test]
fn sort_keeps_equal_keys_in_row_order() {
    let vals: Vec<i64> = (0..500).map(|i| [3, i64::MAX, -1, i64::MIN, 3][i % 5]).collect();
    let t = Table::new(vec![Column::i64("v", vals.clone())]);
    for workers in [1usize, 8] {
        let got = sort_indices(&t, "v", workers);
        assert_eq!(got, sort_reference(&vals), "workers={workers}");
        for w in got.windows(2) {
            let (x, y) = (w[0], w[1]);
            assert!(vals[x] < vals[y] || (vals[x] == vals[y] && x < y), "rows {x},{y}");
        }
    }
}

/// Checks `join.execute` against the nested-loop reference, over
/// fanouts that leave some partitions empty, returning the reference
/// result.
fn assert_join_exact(join: &HashJoin, build: &Table, probe: &Table) -> Table {
    let mut out = None;
    for fanout in [1u64, 2, 7, 32] {
        let want = join_reference(join, build, probe, fanout);
        assert_eq!(join.execute(build, probe, fanout), want, "fanout={fanout}");
        out.get_or_insert(want.0);
    }
    out.unwrap()
}

/// A join projecting the build and probe row ids next to the key.
fn row_id_join() -> HashJoin {
    HashJoin {
        build_key: "k".into(),
        probe_key: "k".into(),
        build_cols: vec!["brow".into()],
        probe_cols: vec!["prow".into(), "k".into()],
    }
}

/// A join input: key column `k` plus its row ids under `id`.
fn keyed(keys: Vec<i64>, id: &str) -> Table {
    let rows = (0..keys.len() as i64).collect();
    Table::new(vec![Column::i64("k", keys), Column::i64(id, rows)])
}

/// Runs of duplicate build keys (consecutive and scattered) chain in
/// build-row order: each probe row's matches come out with ascending
/// build row ids, exactly as the nested-loop reference emits them.
#[test]
fn join_duplicate_build_keys_chain_in_build_row_order() {
    let bkeys: Vec<i64> = (0..3000).map(|i| (i / 5) % 200 - 100).collect();
    let pkeys: Vec<i64> = (0..1200).map(|i| (i * 7) % 260 - 130).collect();
    let hits = pkeys.iter().filter(|k| (-100..100).contains(*k)).count();
    let out = assert_join_exact(&row_id_join(), &keyed(bkeys, "brow"), &keyed(pkeys, "prow"));
    let (brow, prow) = (&out.columns[0].data, &out.columns[1].data);
    assert_eq!(out.rows(), hits * 15, "every in-range probe matches its 15 build rows");
    for i in 1..out.rows() {
        if prow[i] == prow[i - 1] {
            assert!(brow[i] > brow[i - 1], "chain out of build order at output row {i}");
        }
    }
}

/// Keys the flat table must keep apart: keys whose Fibonacci-hash
/// products are all tiny (so every one lands in home slot 0 and they
/// probe as one long run), keys equal in their low 32 bits, the signed
/// extremes, and builds larger than their probes.
#[test]
fn join_colliding_and_extreme_keys_are_exact() {
    // k·C ≡ j (mod 2⁶⁴) for the table's multiplier C.
    let inv = fib_inverse();
    let mut bkeys: Vec<i64> = (1..=400u64).map(|j| j.wrapping_mul(inv) as i64).collect();
    bkeys.extend((1..=400i64).map(|j| (j << 32) | 0x2A));
    bkeys.extend([i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, 0, -1, i64::MIN, i64::MAX]);
    // Probe every third build key (so the build is ~3× the probe), plus
    // misses that share the colliding keys' slots.
    let mut pkeys: Vec<i64> = bkeys.iter().step_by(3).copied().collect();
    pkeys.extend((401..=450u64).map(|j| j.wrapping_mul(inv) as i64));
    pkeys.extend([i64::MAX, i64::MIN, 0x2A]);
    let out =
        assert_join_exact(&row_id_join(), &keyed(bkeys.clone(), "brow"), &keyed(pkeys, "prow"));
    assert!(out.rows() > 270, "only {} matches", out.rows());

    // Empty build, empty probe, and single-key sides leave whole
    // partitions empty.
    let empty = Vec::new();
    for (b, p) in [
        (empty.clone(), bkeys.clone()),
        (bkeys.clone(), empty.clone()),
        (empty.clone(), empty),
        (vec![i64::MIN], bkeys),
    ] {
        assert_join_exact(&row_id_join(), &keyed(b, "brow"), &keyed(p, "prow"));
    }
}

/// A seeded table of `rows` rows grouped by one draw `x` in `0..ndv`:
/// key column `x` (shifted to mixed sign), and `a`, `b`, `c`, small
/// mixed-sign digits of `x` that together identify it; plus two value
/// columns.
fn grouped_table(rows: usize, ndv: u64, seed: u64) -> Table {
    let mut next = splitmix(seed);
    let x: Vec<i64> = (0..rows).map(|_| (next() % ndv) as i64).collect();
    let v: Vec<i64> = (0..rows).map(|_| (next() % 2_000_001) as i64 - 1_000_000).collect();
    let d: Vec<i64> = (0..rows).map(|_| (next() % 201) as i64 - 100).collect();
    let col =
        |name: &str, f: &dyn Fn(i64) -> i64| Column::i64(name, x.iter().map(|&x| f(x)).collect());
    Table::new(vec![
        col("x", &|x| x - ndv as i64 / 2),
        col("a", &|x| x % 7 - 3),
        col("b", &|x| (x / 7) % 160 - 80),
        col("c", &|x| x / 1120 - 11),
        Column::i64("v", v),
        Column::i64("d", d),
    ])
}

/// Grouping columns of 1, 2 and 3 keys, each set identifying `x`.
const KEY_SETS: [&[&str]; 3] = [&["x"], &["a", "x"], &["a", "b", "c"]];

/// `spec.execute` equals the `execute_seq` reference.
fn assert_group_by_exact(spec: &GroupBySpec, t: &Table, sel: Option<&BitVec>) -> Table {
    let want = spec.execute_seq(t, sel);
    assert_eq!(spec.execute(t, sel), want);
    want
}

/// Negative and mixed-sign keys sort as signed integers: codes offset
/// each column by its least value, where ordering bit-cast `u64` keys
/// would put every negative key after the positives.
#[test]
fn group_by_mixed_sign_keys_sort_as_signed() {
    let t = grouped_table(3_000, 4_000, 7);
    for keys in KEY_SETS {
        let width = keys.len();
        let spec = GroupBySpec {
            group_cols: keys.iter().map(|s| s.to_string()).collect(),
            aggs: vec![("s".into(), AggFunc::Sum("v".into()))],
        };
        let out = assert_group_by_exact(&spec, &t, None);
        let key =
            |r: usize| -> Vec<i64> { out.columns[..width].iter().map(|c| c.data[r]).collect() };
        assert!(out.columns[0].data.iter().any(|&k| k < 0), "width {width}: no negative key");
        assert!(out.columns[0].data.iter().any(|&k| k > 0), "width {width}: no positive key");
        assert!((1..out.rows()).all(|r| key(r - 1) < key(r)), "width {width}: not signed order");
    }
}

/// At least 20k distinct groups through all five aggregates, 1–3 key
/// columns, with and without a selection.
#[test]
fn group_by_many_groups_all_aggregates_are_exact() {
    let t = grouped_table(60_000, 25_000, 11);
    let sel = BitVec::from_fn(t.rows(), |i| i % 5 != 2);
    for keys in KEY_SETS {
        let spec = GroupBySpec {
            group_cols: keys.iter().map(|s| s.to_string()).collect(),
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("d".into())),
                ("sp".into(), AggFunc::SumProduct("v".into(), "d".into())),
            ],
        };
        let all = assert_group_by_exact(&spec, &t, None);
        assert!(all.rows() >= 20_000, "{keys:?}: only {} groups", all.rows());
        assert_group_by_exact(&spec, &t, Some(&sel));
    }
}

/// All five aggregates over the value columns `v` and `d`.
fn all_aggs(keys: &[&str]) -> GroupBySpec {
    GroupBySpec {
        group_cols: keys.iter().map(|s| s.to_string()).collect(),
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("lo".into(), AggFunc::Min("v".into())),
            ("hi".into(), AggFunc::Max("d".into())),
            ("sp".into(), AggFunc::SumProduct("v".into(), "d".into())),
        ],
    }
}

/// Key columns `a`, `b`, `c`: column `i` spans exactly `ranges[i]`
/// values from `base` (its first two rows pin both ends), so the key
/// domain is the product of `ranges`; plus value columns `v` and `d`.
fn domain_table(rows: usize, ranges: &[u64], base: i64, seed: u64) -> Table {
    let mut next = splitmix(seed);
    let mut cols: Vec<Column> = ranges
        .iter()
        .zip(["a", "b", "c"])
        .map(|(&range, name)| {
            let mut k: Vec<i64> = (0..rows).map(|_| base + (next() % range) as i64).collect();
            k[0] = base;
            k[1] = base + range as i64 - 1;
            Column::i64(name, k)
        })
        .collect();
    cols.push(Column::i64("v", (0..rows).map(|_| (next() % 2_001) as i64 - 1_000).collect()));
    cols.push(Column::i64("d", (0..rows).map(|_| (next() % 21) as i64 - 10).collect()));
    Table::new(cols)
}

/// Small key domains take the dense group-by: domains exactly at its
/// 4096-slot cap and one slot above it (which falls back to hashing),
/// negative keys, widths 1–3, with and without a selection. The key
/// code's own bounds ride along: ranges multiplying to exactly 2^64
/// still hash, and to 2^64 + 1 = 274 177 × 67 280 421 310 721 they
/// take the sorted fallback.
#[test]
fn dense_group_by_at_and_above_the_cap_is_exact() {
    let shapes: [&[u64]; 9] = [
        &[4096],
        &[4097],
        &[64, 64],
        &[17, 241],
        &[16, 16, 16],
        &[17, 241, 1],
        &[3, 2],
        &[1 << 32, 1 << 32],
        &[274_177, 67_280_421_310_721],
    ];
    for (i, ranges) in shapes.into_iter().enumerate() {
        let t = domain_table(9_000, ranges, -2_000, 100 + i as u64);
        let spec = all_aggs(&["a", "b", "c"][..ranges.len()]);
        let sel = BitVec::from_fn(t.rows(), |r| r % 3 != 1);
        let all = assert_group_by_exact(&spec, &t, None);
        assert!(all.columns[0].data[0] < 0, "{ranges:?}: first key not negative");
        assert_group_by_exact(&spec, &t, Some(&sel));
    }
}

/// Dense-path edge inputs: one distinct key, signed-extreme keys whose
/// range overflows (they must hash instead), an empty table and an
/// empty selection, at widths 1–3.
#[test]
fn dense_group_by_edge_inputs_are_exact() {
    for width in 1..=3 {
        let keys = &["a", "b", "c"][..width];
        let spec = all_aggs(keys);
        let single = domain_table(500, &[1, 1, 1][..width], -7, 3);
        assert_eq!(assert_group_by_exact(&spec, &single, None).rows(), 1);

        let mut extreme = domain_table(500, &[5, 5, 5][..width], 0, 4);
        extreme.columns[width - 1].data[7] = i64::MIN;
        extreme.columns[width - 1].data[9] = i64::MAX;
        let sel = BitVec::from_fn(extreme.rows(), |r| r % 2 == 1);
        assert_group_by_exact(&spec, &extreme, None);
        assert_group_by_exact(&spec, &extreme, Some(&sel));

        let empty = domain_table(2, &[1, 1, 1][..width], 0, 5);
        let none = BitVec::new(2);
        assert_eq!(assert_group_by_exact(&spec, &empty, Some(&none)).rows(), 0);
        let cols = empty.columns.iter().map(|c| Column::i64(&c.name, vec![])).collect();
        assert_eq!(assert_group_by_exact(&spec, &Table::new(cols), None).rows(), 0);
    }
}

/// The hash path reuses the previous row's group for a repeated key:
/// runs of 1–9 rows, keys reappearing after a different key, and
/// alternating keys, at widths 1 and 2 over a key domain far above the
/// dense cap, with and without a selection that cuts runs apart.
#[test]
fn group_by_key_runs_are_exact() {
    let far = |k: i64| k * 1_000_003 - 5_000_000;
    // Runs of 1–9 rows.
    let runs: Vec<i64> = (0..300).flat_map(|i| vec![far(i); 1 + (i as usize * 5) % 9]).collect();
    // A A B A A C A …: the run key comes back after each other key.
    let back: Vec<i64> = (0..900).map(|i| if i % 3 == 2 { far(i) } else { far(0) }).collect();
    // A B A B …, then A B C A B C …
    let alt: Vec<i64> = (0..900).map(|i| far(if i < 450 { i % 2 } else { i % 3 })).collect();
    for keys in [runs, back, alt] {
        let n = keys.len();
        let t = Table::new(vec![
            Column::i64("a", keys.clone()),
            Column::i64("b", keys.iter().map(|k| k.rem_euclid(3)).collect()),
            Column::i64("v", (0..n as i64).map(|i| i * 7 - 900).collect()),
            Column::i64("d", (0..n as i64).map(|i| i % 5 - 2).collect()),
        ]);
        let sel = BitVec::from_fn(n, |r| r % 4 != 3);
        for width in [&["a"][..], &["a", "b"]] {
            let spec = all_aggs(width);
            assert_group_by_exact(&spec, &t, None);
            assert_group_by_exact(&spec, &t, Some(&sel));
        }
    }
}

/// `spec.execute` equals the `execute_seq` reference, and the
/// key-ordered arm takes the input exactly when `ordered`.
fn assert_ordered_arm(spec: &GroupBySpec, t: &Table, sel: Option<&BitVec>, ordered: bool) {
    let want = assert_group_by_exact(spec, t, sel);
    let got = spec.execute_ordered(t, sel);
    assert_eq!(got.is_some(), ordered, "{:?} ordered arm", spec.group_cols);
    if let Some(got) = got {
        assert_eq!(got, want);
    }
}

/// Keys that never descend take the key-ordered arm: ascending single
/// and composite keys in runs of 1–9 rows that cross zero (ascending as
/// `i64`, not as bit-cast `u64`), with and without a selection that
/// splits runs, a descent only at an unselected row, an empty table and
/// selection, and key-less aggregates. A descent at the last selected
/// row, or a key coming
/// back after another, falls back to the hash path. Every case matches
/// `execute_seq`; the key domain is far above the dense cap.
#[test]
fn group_by_key_ordered_inputs_are_exact() {
    let runs: Vec<usize> = (0..400).map(|i| 1 + (i * 5) % 9).collect();
    let a: Vec<i64> =
        runs.iter().enumerate().flat_map(|(i, &n)| vec![i as i64 * 3_001 - 600_000; n]).collect();
    // Ascends within each `a` run, so (a, b) never descends either.
    let b: Vec<i64> = runs.iter().flat_map(|&n| (0..n as i64).map(|j| j / 2 - 1)).collect();
    let n = a.len();
    let table = |a: Vec<i64>| {
        Table::new(vec![
            Column::i64("a", a),
            Column::i64("b", b.clone()),
            Column::i64("v", (0..n as i64).map(|i| i * 7 - 900).collect()),
            Column::i64("d", (0..n as i64).map(|i| i % 5 - 2).collect()),
        ])
    };
    let sel = BitVec::from_fn(n, |r| r % 4 != 3);
    let last_selected = (0..n).rev().find(|&r| sel.get(r)).unwrap();
    let below = |mut a: Vec<i64>, r: usize| {
        a[r] = a[r - 1] - 1;
        a
    };
    // A A B A: key `a[0]` reappears after the next key.
    let back = {
        let mut a = a.clone();
        a.insert(runs[0] + runs[1], a[0]);
        a.pop();
        a
    };
    for keys in [&["a"][..], &["a", "b"]] {
        let spec = all_aggs(keys);
        let asc = table(a.clone());
        assert_ordered_arm(&spec, &asc, None, true);
        assert_ordered_arm(&spec, &asc, Some(&sel), true);
        let out = spec.execute(&asc, None);
        assert!(out.columns[0].data[0] < 0 && out.columns[0].data[out.rows() - 1] > 0);

        let unselected_dip = table(below(a.clone(), 3));
        assert!(!sel.get(3));
        assert_ordered_arm(&spec, &unselected_dip, None, false);
        assert_ordered_arm(&spec, &unselected_dip, Some(&sel), true);
        assert_ordered_arm(&spec, &table(below(a.clone(), n - 1)), None, false);
        assert_ordered_arm(&spec, &table(below(a.clone(), last_selected)), Some(&sel), false);
        assert_ordered_arm(&spec, &table(back.clone()), None, false);
        assert_ordered_arm(&spec, &asc, Some(&BitVec::new(n)), true);
        let empty = Table::new(asc.columns.iter().map(|c| Column::i64(&c.name, vec![])).collect());
        assert_ordered_arm(&spec, &empty, None, true);
    }
    // Key-less: every row repeats the empty key, so one run.
    let spec = all_aggs(&[]);
    let asc = table(back);
    assert_ordered_arm(&spec, &asc, None, true);
    assert_ordered_arm(&spec, &asc, Some(&sel), true);
    assert_ordered_arm(&spec, &asc, Some(&BitVec::new(n)), true);
}

/// Build keys that all share one home slot of the hashed table, each twice
/// and beside the signed extremes (so their range takes bare hashed
/// slots), probed by 20 times as many rows — in several probe blocks —
/// of which most share that slot and miss: every selection shape on
/// each side matches the nested loop over the selected rows, in exact
/// row order.
#[test]
fn filtered_join_of_one_filter_bit_is_exact() {
    let inv = fib_inverse();
    let colliding = |j: u64| j.wrapping_mul(inv) as i64;
    let mut bkeys: Vec<i64> = (1..=60).chain(1..=60).map(colliding).collect();
    bkeys.extend([i64::MIN, i64::MAX, i64::MIN, i64::MAX]);
    let pkeys: Vec<i64> = (0..2_500u64)
        .map(|i| match i % 8 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => colliding(1 + i % 60),
            _ => colliding(61 + i),
        })
        .collect();
    let (build, probe) = (keyed(bkeys, "brow"), keyed(pkeys, "prow"));
    let join = row_id_join();
    let mut matched = 0;
    for bshape in 0..SELECTION_SHAPES {
        for pshape in 0..SELECTION_SHAPES {
            let bsel = shaped_selection(build.rows(), bshape, (5, 3));
            let psel = shaped_selection(probe.rows(), pshape, (2, 40));
            let (bsel, psel) = (bsel.as_ref(), psel.as_ref());
            let want = selection_join_reference(&join, &build, bsel, &probe, psel);
            assert_eq!(
                join.execute_selected(&build, bsel, &probe, psel),
                want,
                "{bshape}x{pshape}"
            );
            matched += want.rows();
        }
    }
    assert!(matched > 5_000, "only {matched} matched rows");
}

/// Every join entry point emits matches in (probe row, ascending build row)
/// order: exactly the pairs a nested loop over probe rows, then build
/// rows, produces — duplicate keys on both sides, misses included.
#[test]
fn join_emits_probe_order_then_ascending_build_rows() {
    let bkeys: Vec<i64> = (0..700).map(|i| (i * 13) % 90 - 45).collect();
    let pkeys: Vec<i64> = (0..500).map(|i| (i * 29) % 130 - 65).collect();
    let mut want = (Vec::new(), Vec::new());
    for (pr, pk) in pkeys.iter().enumerate() {
        for (br, bk) in bkeys.iter().enumerate() {
            if bk == pk {
                want.0.push(br as i64);
                want.1.push(pr as i64);
            }
        }
    }
    let out = assert_join_exact(&row_id_join(), &keyed(bkeys, "brow"), &keyed(pkeys, "prow"));
    assert!(!want.0.is_empty());
    assert_eq!((&out.columns[0].data, &out.columns[1].data), (&want.0, &want.1));
}
