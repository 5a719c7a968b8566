//! Sorting by key, and the range engine's splitter sampling.
//!
//! The partitioning literature the paper builds on (reference \[49\] in
//! the paper) sorts by range-partitioning into per-core buckets and
//! sorting each locally — on the DPU, the DMS range engine does the
//! partitioning pass in hardware (Figure 13's range scheme), each dpCore
//! sorts its DMEM-resident bucket, and concatenation is free because the
//! buckets are ordered. [`sample_bounds`] picks such a scheme's bounds
//! for range sharding.
//!
//! The host sort keys each selected row by one `u64` whose order is its
//! key tuple's order (the group-by's key code) and sorts the
//! `(code, row)` pairs. The pairs are distinct, so the unstable sort
//! yields the stable permutation bit for bit. Key tuples whose value
//! ranges multiply past 2^64 have no code and take one stable sort by
//! tuple instead.

use crate::agg::selected_rows;
use crate::bitvec::BitVec;
use crate::column::{Column, Table};
use crate::key::KeyCode;

/// Samples `parts - 1` splitter bounds from the data (equi-depth over a
/// sorted sample), suitable for the DMS range engine's 32-bound limit.
///
/// # Panics
///
/// Panics if `parts` is 0 or exceeds 32.
pub fn sample_bounds(values: &[i64], parts: usize) -> Vec<i64> {
    assert!((1..=32).contains(&parts), "range engine supports up to 32 partitions");
    if parts == 1 || values.is_empty() {
        return Vec::new();
    }
    // Deterministic sample: every k-th element, k chosen for ≤1024 samples.
    let step = (values.len() / 1024).max(1);
    let mut sample: Vec<i64> = values.iter().copied().step_by(step).collect();
    sample.sort_unstable();
    let mut bounds = Vec::with_capacity(parts - 1);
    for p in 1..parts {
        let idx = p * sample.len() / parts;
        let b = sample[idx.min(sample.len() - 1)];
        // Bounds must be strictly ascending for the engine; skip dups.
        if bounds.last() != Some(&b) {
            bounds.push(b);
        }
    }
    bounds
}

/// Sorts `table` by `col` ascending; returns the row permutation (ties
/// keep original order — the sort is stable). `workers` labels the
/// dpCores the simulated sort would range-partition across; the host
/// result is the same for any count.
///
/// # Panics
///
/// Panics if the column is missing or `workers` is outside `1..=32`.
pub fn sort_indices(table: &Table, col: &str, workers: usize) -> Vec<usize> {
    sort_indices_selected(table, col, workers, None)
}

/// [`sort_indices`] over the rows an optional selection keeps
/// (unselected rows drop out; the selection is consumed a word at a
/// time).
///
/// # Panics
///
/// Panics if the column is missing, `workers` is outside `1..=32`, or
/// the selection length mismatches.
pub fn sort_indices_selected(
    table: &Table,
    col: &str,
    workers: usize,
    sel: Option<&BitVec>,
) -> Vec<usize> {
    sort_indices_multi_selected(table, &[col], workers, sel)
}

/// Sorts `table` by `cols` lexicographically (each ascending); returns
/// the stable row permutation.
///
/// # Panics
///
/// Panics if `cols` is empty, a column is missing, or `workers` is
/// outside `1..=32`.
pub fn sort_indices_multi(table: &Table, cols: &[&str], workers: usize) -> Vec<usize> {
    sort_indices_multi_selected(table, cols, workers, None)
}

/// [`sort_indices_multi`] over the rows an optional selection keeps.
///
/// # Panics
///
/// Panics if `cols` is empty, a column is missing, `workers` is outside
/// `1..=32`, or the selection length mismatches.
pub fn sort_indices_multi_selected(
    table: &Table,
    cols: &[&str],
    workers: usize,
    sel: Option<&BitVec>,
) -> Vec<usize> {
    assert!((1..=32).contains(&workers), "range engine supports up to 32 partitions");
    assert!(!cols.is_empty(), "a sort needs at least one key column");
    let keys: Vec<&Column> = cols.iter().map(|c| &table.columns[table.col_index(c)]).collect();
    if let Some(bv) = sel {
        assert_eq!(bv.len(), table.rows(), "selection length mismatch");
    }
    let mut rows = selected_rows(table, sel);
    match KeyCode::new(&keys) {
        Some(code) => {
            let mut pairs: Vec<(u64, usize)> =
                rows.into_iter().map(|r| (code.code(r), r)).collect();
            pairs.sort_unstable();
            pairs.into_iter().map(|(_, r)| r).collect()
        }
        None => {
            let tuple = |r: usize| keys.iter().map(move |k| k.data[r]);
            rows.sort_by(|&a, &b| tuple(a).cmp(tuple(b)));
            rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dms::PartitionScheme;

    fn table(vals: Vec<i64>) -> Table {
        Table::new(vec![Column::i64("v", vals)])
    }

    #[test]
    fn produces_a_sorted_permutation() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 7919) % 1000 - 500).collect();
        let t = table(vals.clone());
        for workers in [1usize, 2, 8, 32] {
            let idx = sort_indices(&t, "v", workers);
            // Permutation property.
            let mut seen = vec![false; vals.len()];
            for &i in &idx {
                assert!(!seen[i], "duplicate index");
                seen[i] = true;
            }
            // Sortedness.
            for w in idx.windows(2) {
                assert!(vals[w[0]] <= vals[w[1]], "workers={workers}");
            }
        }
    }

    #[test]
    fn sort_is_stable() {
        let vals = vec![5, 3, 5, 3, 5];
        let idx = sort_indices(&table(vals), "v", 4);
        assert_eq!(idx, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn matches_std_sort() {
        let vals: Vec<i64> = (0..2000).map(|i| (i * 31) % 400).collect();
        let t = table(vals.clone());
        let idx = sort_indices(&t, "v", 16);
        let got: Vec<i64> = idx.iter().map(|&i| vals[i]).collect();
        let mut want = vals.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn multi_column_sort_orders_lexicographically() {
        let t = Table::new(vec![
            Column::i64("a", vec![2, 1, 2, 1, 1]),
            Column::i64("b", vec![0, 5, -1, 5, 3]),
        ]);
        let idx = sort_indices_multi(&t, &["a", "b"], 4);
        // (1,3)=4, (1,5)=1, (1,5)=3 (stable), (2,-1)=2, (2,0)=0.
        assert_eq!(idx, vec![4, 1, 3, 2, 0]);
    }

    /// Both routes against one std stable sort by tuple, on duplicate
    /// keys with and without a selection: tuples with a code (a lone
    /// full-range column, ranges multiplying to exactly 2^64, and a
    /// full-range column between constant ones) and without one (ranges
    /// multiplying to 2^64 + 1 = 274 177 × 67 280 421 310 721, and two
    /// full-range columns).
    #[test]
    fn code_and_tuple_sorts_match_a_stable_sort() {
        let (min, max) = (i64::MIN, i64::MAX);
        let n = 200;
        let col = |vals: &[i64], s: usize| -> Vec<i64> {
            (0..n).map(|i| vals[(i * s) % vals.len()]).collect()
        };
        let cases: [(bool, Vec<Vec<i64>>); 5] = [
            (true, vec![col(&[max, -1, min, 0, 7, -1], 5)]),
            (true, vec![col(&[(1 << 32) - 1, 0, 9], 1), col(&[0, (1 << 32) - 1, 5], 2)]),
            (true, vec![vec![3; n], col(&[0, max, -8, min], 3), vec![-3; n]]),
            (false, vec![col(&[274_176, 0, 5], 1), col(&[0, 67_280_421_310_720, 0, 4], 1)]),
            (false, vec![col(&[min, max, 0], 1), col(&[max, 1, min, 1], 1)]),
        ];
        for (case, (coded, keys)) in cases.into_iter().enumerate() {
            let names = ["a", "b", "c"];
            let t = Table::new(
                keys.iter().zip(names).map(|(k, c)| Column::i64(c, k.clone())).collect(),
            );
            let cols: Vec<&Column> = t.columns.iter().collect();
            assert_eq!(KeyCode::new(&cols).is_some(), coded, "case {case}");
            let sel = BitVec::from_fn(n, |r| r % 4 != 1);
            for sel in [None, Some(&sel)] {
                let mut want: Vec<usize> =
                    (0..n).filter(|&r| sel.is_none_or(|bv| bv.get(r))).collect();
                want.sort_by_key(|&r| keys.iter().map(|k| k[r]).collect::<Vec<i64>>());
                let got = sort_indices_multi_selected(&t, &names[..keys.len()], 4, sel);
                assert_eq!(got, want, "case {case}");
            }
        }
    }

    #[test]
    fn selection_drops_rows_before_sorting() {
        let vals = vec![9, 2, 7, 2, 5, 1];
        let t = table(vals);
        let sel = BitVec::from_fn(6, |i| i != 1 && i != 4);
        let idx = sort_indices_selected(&t, "v", 3, Some(&sel));
        assert_eq!(idx, vec![5, 3, 2, 0]);
    }

    #[test]
    fn bounds_are_strictly_ascending_and_roughly_balanced() {
        let vals: Vec<i64> = (0..100_000).map(|i| (i * 2654435761) % 1_000_000).collect();
        let bounds = sample_bounds(&vals, 32);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds.len() <= 31);
        let scheme = PartitionScheme::Range { bounds };
        let mut counts = vec![0u64; scheme.partitions()];
        for &v in &vals {
            counts[scheme.partition_of(v)] += 1;
        }
        let avg = vals.len() as u64 / counts.len() as u64;
        for &c in &counts {
            assert!(c < avg * 3, "bucket {c} far above average {avg}");
        }
    }

    #[test]
    fn skewed_data_still_sorts() {
        let mut vals = vec![42i64; 1000];
        vals.extend(0..100);
        let t = table(vals.clone());
        let idx = sort_indices(&t, "v", 8);
        for w in idx.windows(2) {
            assert!(vals[w[0]] <= vals[w[1]]);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(sort_indices(&table(vec![]), "v", 4).is_empty());
        assert_eq!(sort_indices(&table(vec![9]), "v", 4), vec![0]);
    }
}
