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
//! The host sort sorts `(value, row)` pairs with one unstable sort. The
//! pairs are distinct, so it yields the stable permutation bit for bit.

use crate::column::Table;

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
/// result is the same for any count. No plan sorts: the function and
/// its `workers` label stay only because the host benchmark
/// (`perfbench`) names them, and ROADMAP direction 5 removes them.
///
/// # Panics
///
/// Panics if the column is missing or `workers` is outside `1..=32`.
pub fn sort_indices(table: &Table, col: &str, workers: usize) -> Vec<usize> {
    assert!((1..=32).contains(&workers), "range engine supports up to 32 partitions");
    let data = &table.columns[table.col_index(col)].data;
    let mut pairs: Vec<(i64, usize)> = data.iter().copied().zip(0..).collect();
    pairs.sort_unstable();
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
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
    fn extreme_keys_sort_stably() {
        // Long enough that the unstable sort does not fall back to an
        // insertion sort, which would be stable by itself.
        let (min, max) = (i64::MIN, i64::MAX);
        let vals: Vec<i64> = (0..300).map(|i| [max, -1, min, 0, max, min, -1, 7][i % 8]).collect();
        let mut want: Vec<usize> = (0..vals.len()).collect();
        want.sort_by_key(|&r| vals[r]);
        assert_eq!(sort_indices(&table(vals), "v", 4), want);
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
