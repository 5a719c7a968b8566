//! Parallel range-partitioned sort.
//!
//! The partitioning literature the paper builds on (reference \[49\] in
//! the paper) sorts by range-partitioning into per-core buckets and
//! sorting each locally — on the DPU, the DMS range engine does the
//! partitioning pass in hardware (Figure 13's range scheme), each dpCore
//! sorts its DMEM-resident bucket, and concatenation is free because the
//! buckets are ordered.
//!
//! The sorts extract order-normalized `u64` sort keys in lane batches
//! ([`crate::vector::sort_keys`]) — multi-column keys flatten into
//! contiguous word regions ([`crate::vector::composite_sort_keys`]) —
//! so the per-bucket sorts compare words instead of calling per-row
//! multi-column comparators. The normalization preserves order exactly
//! and the `(key, index)` pairs are distinct, so the unstable word sort
//! yields the stable permutation bit for bit.

use dpu_dms::PartitionScheme;

use crate::bitvec::BitVec;
use crate::column::Table;
use crate::vector;

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

/// Sorts `table` by `col` ascending via range partitioning across
/// `workers` buckets; returns the row permutation (ties keep original
/// order — the sort is stable).
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
    let values = &table.columns[table.col_index(col)].data;
    if let Some(bv) = sel {
        assert_eq!(bv.len(), values.len(), "selection length mismatch");
    }
    let buckets = range_buckets(values, workers, sel);
    // Order-normalized u64 keys, materialized once in lane batches;
    // (key, index) pairs are distinct, so the unstable word sort is
    // stable.
    let keys = vector::sort_keys(values);
    concat_sorted(buckets, |bucket| bucket.sort_unstable_by_key(|&i| (keys[i], i)))
}

/// Sorts `table` by `cols` lexicographically (each ascending) via range
/// partitioning on the *first* column; returns the stable row
/// permutation.
///
/// # Panics
///
/// Panics if `cols` is empty, a column is missing, or `workers` is
/// outside `1..=32`.
pub fn sort_indices_multi(table: &Table, cols: &[&str], workers: usize) -> Vec<usize> {
    sort_indices_multi_selected(table, cols, workers, None)
}

/// [`sort_indices_multi`] over the rows an optional selection keeps.
/// Rows compare as flattened order-normalized word regions, which
/// orders them exactly as comparing column by column, because the
/// normalization preserves each column's order and slice comparison is
/// lexicographic.
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
    let data: Vec<&[i64]> =
        cols.iter().map(|c| table.columns[table.col_index(c)].data.as_slice()).collect();
    let first = *data.first().expect("multi-column sort needs at least one column");
    if let Some(bv) = sel {
        assert_eq!(bv.len(), first.len(), "selection length mismatch");
    }
    // Bounds come from the first (most significant) column.
    let buckets = range_buckets(first, workers, sel);
    let width = data.len();
    let flat = vector::composite_sort_keys(&data);
    concat_sorted(buckets, |bucket| {
        bucket.sort_unstable_by(|&a, &b| {
            flat[a * width..a * width + width]
                .cmp(&flat[b * width..b * width + width])
                .then(a.cmp(&b))
        })
    })
}

/// Range-partitions the selected row ids into per-worker buckets in
/// arrival order (the DMS pass). One bucket when the sampled bounds
/// collapse; the selection is consumed word-driven, not per-row.
fn range_buckets(values: &[i64], workers: usize, sel: Option<&BitVec>) -> Vec<Vec<usize>> {
    let bounds = sample_bounds(values, workers);
    if bounds.is_empty() {
        let idx: Vec<usize> = match sel {
            Some(bv) => bv.iter_set_in(0, values.len()).collect(),
            None => (0..values.len()).collect(),
        };
        return vec![idx];
    }
    let scheme = PartitionScheme::Range { bounds };
    scheme.validate().expect("sampled bounds are valid");
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); scheme.partitions()];
    let mut route = |i: usize| buckets[scheme.partition_of(values[i])].push(i);
    match sel {
        Some(bv) => bv.iter_set_in(0, values.len()).for_each(&mut route),
        None => (0..values.len()).for_each(&mut route),
    }
    buckets
}

/// Sorts each bucket with `sort` and concatenates (free, because the
/// buckets are range-ordered).
fn concat_sorted(
    mut buckets: Vec<Vec<usize>>,
    mut sort: impl FnMut(&mut Vec<usize>),
) -> Vec<usize> {
    let mut out = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
    for bucket in &mut buckets {
        sort(bucket);
        out.extend_from_slice(bucket);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

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
