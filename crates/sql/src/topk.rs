//! Top-k selection.
//!
//! On the DPU each dpCore keeps a k-element heap over its chunk of the
//! input and the per-core heaps merge at the end (the merge touches only
//! `cores × k` rows, so its cost is negligible — the same argument as
//! the group-by merge operator in §5.3). The host keeps one heap over
//! every row, which selects the same rows.
//!
//! A branch-free pre-filter replaces per-row heap churn: once the heap
//! holds k rows, whole 64-row blocks test against the current k-th
//! value ([`crate::vector::gt_mask_word`]) and only rows that can
//! displace the heap minimum reach it. The pre-filter is *exact*, not
//! heuristic: with the ascending scan and the `(value, Reverse(index))`
//! ordering, pushing a row with `v <= t` immediately pops that same
//! row, leaving the heap untouched — so skipping it is bit-identical to
//! pushing every row, even though the threshold is only refreshed per
//! block.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::column::Table;
use crate::vector;

/// The min-heap entry ordering: `Reverse` over `(value,
/// Reverse(index))`, so the root is the smallest value with ties held
/// by the *largest* row index — exactly the element a new tied row
/// would displace-and-replace as a no-op.
type MinHeap = BinaryHeap<Reverse<(i64, Reverse<usize>)>>;

/// Selects the top `k` row indices of `table` by `order_col`
/// descending (ties broken by ascending row index, making results
/// deterministic).
///
/// One heap over every row: push each row, pop the minimum once the
/// heap exceeds k — except that once the heap is full, each fully
/// covered 64-row block pre-filters against the block-start threshold
/// with one branch-free word test, and only surviving rows touch the
/// heap. A stale threshold only admits extra no-op push/pops (see the
/// module docs).
///
/// `workers` labels the dpCores the simulated top-k would split its
/// input across; the host keeps one heap, so the result is the same
/// for any count. Production plans pass 1; the label stays only because
/// the host benchmark (`perfbench`) names it, and ROADMAP direction 5
/// removes it.
///
/// # Panics
///
/// Panics if the column is missing, or `k` or `workers` is zero.
pub fn top_k(table: &Table, order_col: &str, k: usize, workers: usize) -> Vec<usize> {
    let col = &table.columns[table.col_index(order_col)].data;
    assert!(k > 0, "k must be positive");
    assert!(workers > 0, "need at least one worker");
    let mut heap = MinHeap::new();
    for (wi, block) in col.chunks(64).enumerate() {
        let base = wi * 64;
        // Every row of [base, base + 64), clipped to the column.
        let mut mask = !0u64 >> (64 - block.len());
        if heap.len() >= k && block.len() == 64 {
            // Full block: one word-wide threshold test. Rows at or
            // below t cannot change the heap; rows above t might
            // (t == i64::MAX clears the word outright — no `t + 1`).
            // A partial tail block runs the plain push/pop below.
            let t = heap.peek().expect("heap holds k > 0 rows").0 .0;
            mask &= vector::gt_mask_word(block, t);
        }
        while mask != 0 {
            let r = base + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            heap.push(Reverse((col[r], Reverse(r))));
            if heap.len() > k {
                heap.pop();
            }
        }
    }
    // Ascending `Reverse` order is descending value, then ascending row.
    heap.into_sorted_vec().into_iter().map(|Reverse((_, Reverse(r)))| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table(vals: Vec<i64>) -> Table {
        Table::new(vec![Column::i64("v", vals)])
    }

    #[test]
    fn picks_largest_values() {
        let t = table(vec![5, 1, 9, 3, 7, 9]);
        let idx = top_k(&t, "v", 3, 1);
        assert_eq!(idx, vec![2, 5, 4], "9(first), 9(second), 7");
    }

    #[test]
    fn worker_count_is_invisible() {
        let vals: Vec<i64> = (0..1000).map(|i| (i * 7919) % 5000).collect();
        let t = table(vals);
        let a = top_k(&t, "v", 10, 1);
        for workers in [2, 8, 32, 100] {
            assert_eq!(top_k(&t, "v", 10, workers), a, "workers={workers}");
        }
    }

    #[test]
    fn matches_a_full_sort() {
        let vals: Vec<i64> = (0..500).map(|i| (i * 37) % 91 - 45).collect();
        let t = table(vals.clone());
        for k in [1usize, 7, 100] {
            for workers in [1usize, 3, 8] {
                let mut want: Vec<usize> = (0..vals.len()).collect();
                want.sort_by(|&x, &y| vals[y].cmp(&vals[x]).then(x.cmp(&y)));
                want.truncate(k);
                assert_eq!(top_k(&t, "v", k, workers), want, "k={k} workers={workers}");
            }
        }
    }

    #[test]
    fn k_larger_than_input_returns_everything_sorted() {
        let t = table(vec![3, 1, 2]);
        let idx = top_k(&t, "v", 10, 4);
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn ties_break_by_row_order() {
        let t = table(vec![5, 5, 5, 5]);
        assert_eq!(top_k(&t, "v", 2, 2), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        top_k(&table(vec![1]), "v", 0, 1);
    }
}
