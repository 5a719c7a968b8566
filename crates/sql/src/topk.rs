//! Top-k selection.
//!
//! Each dpCore maintains a k-element heap over its chunk of the input;
//! the per-core heaps are merged at the end (the merge touches only
//! `cores × k` rows, so its cost is negligible — the same argument as the
//! group-by merge operator in §5.3).
//!
//! The SWAR arm replaces per-row heap churn with a branch-free
//! pre-filter: once a worker's heap holds k rows, whole 64-row blocks
//! test against the current k-th value ([`crate::vector::gt_mask_word`])
//! and only rows that can displace the heap minimum reach it. The
//! pre-filter is *exact*, not heuristic: with the ascending scan and the
//! `(value, Reverse(index))` ordering, pushing a row with `v <= t`
//! immediately pops that same row, leaving the heap untouched — so
//! skipping it is bit-identical to the scalar push/pop loop, even though
//! the threshold is only refreshed per block.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitvec::BitVec;
use crate::column::Table;
use crate::vector::{self, Kernel};

/// The per-worker min-heap entry ordering: `Reverse` over
/// `(value, Reverse(index))`, so the root is the smallest value with
/// ties held by the *largest* row index — exactly the element a new
/// tied row would displace-and-replace as a no-op.
type MinHeap = BinaryHeap<Reverse<(i64, Reverse<usize>)>>;

vector::kernel_entry! {
    /// Selects the top `k` row indices of `table` by `order_col`
    /// descending (ties broken by ascending row index, making results
    /// deterministic), on the process-wide kernel (`DPU_VECTOR`).
    ///
    /// `workers` models the per-core decomposition; the result is
    /// identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if the column is missing, or `k` or `workers` is zero.
    pub fn top_k(table: &Table, order_col: &str, k: usize, workers: usize) -> Vec<usize>
        => |kernel| top_k_with(table, order_col, k, workers, None, kernel)
}

/// [`top_k`] with an optional selection (consumed a word at a time —
/// `filter_band` output words feed straight in, no per-row bool
/// expansion) and an explicit kernel choice, for differential tests and
/// benches.
///
/// # Panics
///
/// Panics if the column is missing, `k` or `workers` is zero, or the
/// selection length mismatches.
pub fn top_k_with(
    table: &Table,
    order_col: &str,
    k: usize,
    workers: usize,
    sel: Option<&BitVec>,
    kernel: Kernel,
) -> Vec<usize> {
    let col = &table.columns[table.col_index(order_col)].data;
    assert!(k > 0, "k must be positive");
    assert!(workers > 0, "need at least one worker");
    let rows = col.len();
    if let Some(bv) = sel {
        assert_eq!(bv.len(), rows, "selection length mismatch");
    }

    // Per-worker heaps over contiguous chunks (min-heap of size k via
    // Reverse ordering on (value, Reverse(index))).
    let mut candidates: Vec<(i64, usize)> = Vec::new();
    let chunk = rows.div_ceil(workers);
    for w in 0..workers {
        // Both bounds clamp: with more workers than rows, trailing
        // chunks are empty, not out of range.
        let start = (w * chunk).min(rows);
        let end = ((w + 1) * chunk).min(rows);
        let heap = if kernel.vectorized() {
            chunk_heap_vector(col, start, end, k, sel)
        } else {
            chunk_heap_scalar(col, start, end, k, sel)
        };
        candidates.extend(heap.into_iter().map(|Reverse((v, Reverse(r)))| (v, r)));
    }

    // Merge: sort the ≤ workers×k candidates.
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    candidates.truncate(k);
    candidates.into_iter().map(|(_, r)| r).collect()
}

/// The reference per-row loop: push every selected row, pop the minimum
/// once the heap exceeds k.
fn chunk_heap_scalar(
    col: &[i64],
    start: usize,
    end: usize,
    k: usize,
    sel: Option<&BitVec>,
) -> MinHeap {
    let mut heap = MinHeap::new();
    let mut visit = |r: usize| {
        heap.push(Reverse((col[r], Reverse(r))));
        if heap.len() > k {
            heap.pop();
        }
    };
    match sel {
        Some(bv) => bv.iter_set_in(start, end).for_each(&mut visit),
        None => (start..end).for_each(&mut visit),
    }
    heap
}

/// The SWAR arm: identical heap discipline, but once the heap is full,
/// each fully-covered 64-row block pre-filters against the block-start
/// threshold with one branch-free word test ANDed into the selection
/// word, and only surviving rows touch the heap. A stale threshold only
/// admits extra no-op push/pops (see the module docs), so the final
/// heap — and its internal layout — exactly matches the scalar arm's.
fn chunk_heap_vector(
    col: &[i64],
    start: usize,
    end: usize,
    k: usize,
    sel: Option<&BitVec>,
) -> MinHeap {
    let mut heap = MinHeap::new();
    if start >= end {
        return heap;
    }
    let (wlo, whi) = (start / 64, end.div_ceil(64));
    for wi in wlo..whi {
        let base = wi * 64;
        // The selection word for rows [base, base + 64), clipped to the
        // worker's [start, end) range.
        let mut mask = sel.map_or(!0u64, |bv| bv.words()[wi]);
        if base < start {
            mask &= !0u64 << (start - base);
        }
        if base + 64 > end {
            mask &= !0u64 >> (base + 64 - end);
        }
        if heap.len() >= k {
            if let Some(block) = col.get(base..base + 64) {
                // Full block: one word-wide threshold test. Rows at or
                // below t cannot change the heap; rows above t might
                // (t == i64::MAX clears the word outright — no `t + 1`).
                let t = heap.peek().expect("heap holds k > 0 rows").0 .0;
                mask &= vector::gt_mask_word(block, t);
            }
            // A partial tail block skips the pre-filter: its rows run
            // the plain push/pop below, same as the scalar arm.
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
    heap
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
    fn kernels_agree_with_and_without_selection() {
        let vals: Vec<i64> = (0..500).map(|i| (i * 37) % 91 - 45).collect();
        let t = table(vals.clone());
        let sel = BitVec::from_fn(vals.len(), |i| i % 3 != 0);
        for k in [1usize, 7, 100] {
            for workers in [1usize, 3, 8] {
                for sel in [None, Some(&sel)] {
                    let scalar = top_k_with(&t, "v", k, workers, sel, Kernel::Scalar);
                    let swar = top_k_with(&t, "v", k, workers, sel, Kernel::Swar);
                    assert_eq!(scalar, swar, "k={k} workers={workers} sel={}", sel.is_some());
                }
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
