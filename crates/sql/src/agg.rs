//! Grouping and aggregation (SQL group-by), §5.3.
//!
//! The engine "is designed around careful partitioning of the data to
//! ensure that each partition's data structures (like a hash table, in
//! the case of group-by) fit into the DMEM", which guarantees
//! single-cycle access. [`GroupByPlan`] reproduces the paper's planner
//! arithmetic: how many partitioning *rounds* (round trips through DRAM)
//! each platform pays before the per-partition hash tables fit their
//! respective budgets — the DPU's DMS performs the final round in
//! hardware for free, which is why the high-NDV case favours the DPU
//! even more (9.7×) than the low-NDV case (6.7×).
//!
//! The host only has to return the exact result ([`GroupBySpec::execute`]).
//! Its two common arms stream their columns: the dense arm computes a
//! `u16` slot per row block by block and folds every aggregate over
//! the slots zipped with its input columns, sending the rows a
//! selection drops to trash slots instead of listing the kept ones; the
//! key-ordered arm walks the key columns themselves and keeps one
//! representative row per group. Neither lists row ids unless a
//! selection asks for it.

use std::collections::HashMap;

use crate::bitvec::BitVec;
use crate::column::{Column, Table};
use crate::key::KeyCode;
use crate::vector;

/// An aggregate function over a named column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of a column.
    Sum(String),
    /// Minimum of a column.
    Min(String),
    /// Maximum of a column.
    Max(String),
    /// Sum of products of two columns (e.g. price × discount).
    SumProduct(String, String),
}

/// A group-by specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBySpec {
    /// Grouping key columns.
    pub group_cols: Vec<String>,
    /// Output aggregates as (output name, function).
    pub aggs: Vec<(String, AggFunc)>,
}

impl GroupBySpec {
    /// The re-aggregation spec that merges *partial* results of this
    /// group-by: each shard/partition aggregates its local rows with
    /// `self`, and the partials combine by summing sums and counts and
    /// re-minimizing/maximizing extrema over the output columns. This is
    /// the merge hook the rack-scale coordinator uses for scatter/gather
    /// aggregation.
    pub fn merge_spec(&self) -> GroupBySpec {
        GroupBySpec {
            group_cols: self.group_cols.clone(),
            aggs: self
                .aggs
                .iter()
                .map(|(name, f)| {
                    let merged = match f {
                        AggFunc::Min(_) => AggFunc::Min(name.clone()),
                        AggFunc::Max(_) => AggFunc::Max(name.clone()),
                        // Count, Sum and SumProduct partials all merge by
                        // summing the partial column.
                        _ => AggFunc::Sum(name.clone()),
                    };
                    (name.clone(), merged)
                })
                .collect(),
        }
    }

    /// Merges per-shard partial aggregate tables into the exact result
    /// `self.execute` would produce over the union of the shards' input
    /// rows (both are sorted by group key).
    ///
    /// # Panics
    ///
    /// Panics if `partials` is empty or the schemas disagree.
    pub fn merge_partials(&self, partials: &[Table]) -> Table {
        self.merge_spec().execute(&Table::concat(partials), None)
    }

    /// Executes the group-by over (optionally selected) rows, returning a
    /// result table sorted by group key. This is the reference-semantics
    /// path; timing goes through [`GroupByPlan`]. Each key tuple maps to
    /// one `u64` code whose order is the tuple order (`KeyCode`), and the
    /// first arm that applies runs:
    ///
    /// 1. key domains of at most `DENSE_CAP` codes index dense slots by
    ///    the code (`aggregate_dense`);
    /// 2. selected keys that never descend take the key-ordered path
    ///    ([`Self::execute_ordered`]), which also serves key-less
    ///    aggregates (every row repeats the empty key);
    /// 3. the rest hash their codes into a table of one-word keys
    ///    (`aggregate_hash`), and the groups come out through one sort
    ///    by code;
    /// 4. key tuples whose value ranges multiply past 2^64 have no code:
    ///    the selected rows sort stably by tuple, and the key-ordered
    ///    walk groups the sorted rows.
    ///
    /// Without a selection no arm lists row ids: the dense and
    /// key-ordered arms stream the columns themselves.
    ///
    /// Every arm folds each group's rows in the same ascending order as
    /// [`Self::execute_seq`], so the result is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    pub fn execute(&self, table: &Table, sel: Option<&BitVec>) -> Table {
        self.route(table, sel).1
    }

    /// [`Self::execute`], and the arm that ran.
    fn route(&self, table: &Table, sel: Option<&BitVec>) -> (Route, Table) {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let cols: Vec<&Column> = key_idx.iter().map(|&i| &table.columns[i]).collect();
        let code = KeyCode::new(&cols);
        if let Some(code) = code.as_ref().filter(|c| !cols.is_empty() && c.domain() <= DENSE_CAP) {
            return (Route::Dense, self.aggregate_dense(table, sel, &key_idx, code));
        }
        let list: Option<Vec<usize>> = sel.map(|bv| bv.iter_set().collect());
        let rows = Rows::of(table, list.as_deref());
        if let Some(t) = self.aggregate_ordered(table, rows, &key_idx) {
            return (Route::Ordered, t);
        }
        match code {
            Some(code) => (Route::Hash, self.aggregate_hash(table, rows, &key_idx, &code)),
            None => (Route::Sorted, self.aggregate_sorted(table, rows.to_vec(), &key_idx)),
        }
    }

    /// The key-ordered group-by, or `None` when some selected row's key
    /// tuple is less than the previous selected row's. While the keys
    /// never descend, each run of equal keys is one group and the runs
    /// come in ascending key order — a lineitem shard in `l_orderkey`
    /// order and a join's output in that probe order, for example.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    pub fn execute_ordered(&self, table: &Table, sel: Option<&BitVec>) -> Option<Table> {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let list: Option<Vec<usize>> = sel.map(|bv| bv.iter_set().collect());
        self.aggregate_ordered(table, Rows::of(table, list.as_deref()), &key_idx)
    }

    /// The sequential reference group-by: one `HashMap` from key tuple
    /// to accumulator state, rows folded in ascending order, key-less
    /// aggregates included.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    pub fn execute_seq(&self, table: &Table, sel: Option<&BitVec>) -> Table {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let init = self.state_init();
        let agg_cols = self.agg_col_indices(table);
        let mut groups: HashMap<Vec<i64>, Vec<i64>> = HashMap::new();

        for row in 0..table.rows() {
            if let Some(bv) = sel {
                if !bv.get(row) {
                    continue;
                }
            }
            let key: Vec<i64> = key_idx.iter().map(|&i| table.columns[i].data[row]).collect();
            let state = groups.entry(key).or_insert_with(|| init.clone());
            self.accumulate(table, row, &agg_cols, state);
        }

        let mut keys: Vec<Vec<i64>> = groups.keys().cloned().collect();
        keys.sort_unstable();
        let mut out_cols: Vec<Column> = self
            .group_cols
            .iter()
            .enumerate()
            .map(|(i, name)| Column::i64(name, keys.iter().map(|k| k[i]).collect()))
            .collect();
        for (si, (name, _)) in self.aggs.iter().enumerate() {
            out_cols.push(Column::i64(name, keys.iter().map(|k| groups[k][si]).collect()));
        }
        Table::new(out_cols)
    }

    /// The dense group-by for key domains of at most [`DENSE_CAP`]
    /// codes, in two passes per block of [`DENSE_BLOCK_ROWS`] rows:
    ///
    /// 1. *Slots*: one pass computes each row's `u16` slot, its code,
    ///    with one- and two-column codes specialized (as in [`key_runs`])
    ///    and a row of each non-empty slot kept. Without a selection, or
    ///    with one that keeps at least one row in [`DENSE_LIST_SHARE`],
    ///    the pass streams every table row and sends each dropped row to
    ///    one of the [`TRASH_SLOTS`] from `domain` on, with no branch on
    ///    the selection; a sparser selection lists its rows instead.
    /// 2. *Fold*: every aggregate accumulates over the slots zipped with
    ///    its input columns ([`Self::fold`]).
    ///
    /// The non-empty slots below `domain` come out in index order —
    /// which is key order, so no hash, probe or sort runs, and the trash
    /// slots' states, rows and keys never reach the result. Rows reach
    /// each accumulator in ascending order, as in [`Self::execute_seq`],
    /// so the result is bit-identical.
    fn aggregate_dense(
        &self,
        table: &Table,
        sel: Option<&BitVec>,
        key_idx: &[usize],
        code: &KeyCode,
    ) -> Table {
        let domain = code.domain() as usize;
        let sparse = sel.filter(|bv| bv.count() * DENSE_LIST_SHARE < bv.len());
        let list: Option<Vec<usize>> = sparse.map(|bv| bv.iter_set().collect());
        let rows = Rows::of(table, list.as_deref());
        let keep = sel.filter(|_| list.is_none());
        // A row of each non-empty slot, the trash slots' included.
        let mut reps = vec![usize::MAX; domain + TRASH_SLOTS];
        let mut states = self.states(domain + TRASH_SLOTS);
        let mut slots = Vec::with_capacity(DENSE_BLOCK_ROWS);
        for lo in (0..rows.len()).step_by(DENSE_BLOCK_ROWS) {
            let block = rows.block(lo, (lo + DENSE_BLOCK_ROWS).min(rows.len()));
            slots.clear();
            match *code.columns() {
                [(a, la, _)] => dense_slots(block, keep, &mut reps, &mut slots, |r| {
                    a[r].wrapping_sub(la) as u64
                }),
                [(a, la, sa), (b, lb, _)] => dense_slots(block, keep, &mut reps, &mut slots, |r| {
                    (a[r].wrapping_sub(la) as u64).wrapping_mul(sa) + b[r].wrapping_sub(lb) as u64
                }),
                _ => dense_slots(block, keep, &mut reps, &mut slots, |r| code.code(r)),
            }
            self.fold(table, block, &slots, &mut states);
        }
        let live: Vec<usize> = (0..domain).filter(|&g| reps[g] != usize::MAX).collect();
        self.output(table, key_idx, &reps, &states, &live)
    }

    /// The hash group-by for key domains past [`DENSE_CAP`], in two
    /// passes over `rows`:
    ///
    /// 1. *Probe*: each row's code resolves to a dense `u32` group id in
    ///    an open-addressed [`CodeGroups`] table. Capacity starts at
    ///    `2 × rows` rounded up to a power of two, capped at 16 Ki slots
    ///    (64 KiB), so inputs up to 8 Ki rows never rehash and larger
    ///    ones grow with their group count rather than their row count.
    ///    A row whose code equals the previous row's reuses that row's
    ///    group id without probing, so key runs (the joins' output in
    ///    probe order) probe once per run.
    /// 2. *Accumulate*: one aggregate at a time over its resolved input
    ///    slices, indexed by group id — rows in ascending order, as the
    ///    scalar reference folds them ([`Self::fold`]).
    ///
    /// The groups then come out through one sort by code.
    fn aggregate_hash(
        &self,
        table: &Table,
        rows: Rows,
        key_idx: &[usize],
        code: &KeyCode,
    ) -> Table {
        let n = rows.len();
        assert!(n < u32::MAX as usize, "row count exceeds the u32 slot encoding");
        let codes: Vec<u64> = (0..n).map(|i| code.code(rows.at(i))).collect();
        let mut groups = CodeGroups::new((n * 2).next_power_of_two().clamp(16, 1 << 14));
        let mut gids: Vec<u32> = Vec::with_capacity(n);
        for (j, &c) in codes.iter().enumerate() {
            let g = if j > 0 && c == codes[j - 1] {
                gids[j - 1]
            } else {
                groups.group_of(c, rows.at(j))
            };
            gids.push(g);
        }
        let mut states = self.states(groups.codes.len());
        self.fold(table, rows, &gids, &mut states);
        let mut order: Vec<(u64, usize)> = groups.codes.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let order: Vec<usize> = order.into_iter().map(|(_, g)| g).collect();
        self.output(table, key_idx, &groups.reps, &states, &order)
    }

    /// The group-by for key tuples without a code: the rows sort stably
    /// by tuple, so the key-ordered walk groups them and each group's
    /// rows stay in ascending order.
    fn aggregate_sorted(&self, table: &Table, mut rows: Vec<usize>, key_idx: &[usize]) -> Table {
        let keys: Vec<&[i64]> = key_idx.iter().map(|&i| table.columns[i].data.as_slice()).collect();
        rows.sort_by(|&a, &b| keys.iter().map(|k| k[a]).cmp(keys.iter().map(|k| k[b])));
        self.aggregate_ordered(table, Rows::List(&rows), key_idx)
            .expect("sorted key tuples never descend")
    }

    /// The result table of groups `order`, in that order: group `g`'s
    /// key read from its row `reps[g]` and its aggregates from
    /// `states[_][g]`.
    fn output(
        &self,
        table: &Table,
        key_idx: &[usize],
        reps: &[usize],
        states: &[Vec<i64>],
        order: &[usize],
    ) -> Table {
        let key_cols = self.group_cols.iter().zip(key_idx).map(|(name, &i)| {
            let k = &table.columns[i].data;
            Column::i64(name, order.iter().map(|&g| k[reps[g]]).collect())
        });
        let agg_cols = self
            .aggs
            .iter()
            .zip(states)
            .map(|((name, _), s)| Column::i64(name, order.iter().map(|&g| s[g]).collect()));
        Table::new(key_cols.chain(agg_cols).collect())
    }

    /// The pass behind [`Self::execute_ordered`]: one branch-free walk
    /// over `rows` ([`key_runs`]) numbers the key runs and stops at the
    /// first descent, comparing each key tuple with the previous one as
    /// signed lexicographic `i64`s — one- and two-column keys as scalars
    /// and pairs, wider ones column by column (the column-by-column
    /// walk measured about 20 % slower on two-column ordered keys, Q3's
    /// shape). While the keys never descend, each run of equal keys is
    /// one group and the runs come in ascending key order:
    /// [`Self::fold`] accumulates over the run-indexed group ids and
    /// each group's key is read from the one row the walk keeps of its
    /// run, so no hash, probe or sort runs.
    fn aggregate_ordered(&self, table: &Table, rows: Rows, key_idx: &[usize]) -> Option<Table> {
        let n = rows.len();
        assert!(n < u32::MAX as usize, "row count exceeds the u32 group encoding");
        let keys: Vec<&[i64]> = key_idx.iter().map(|&i| table.columns[i].data.as_slice()).collect();
        let mut gids = vec![0u32; n];
        // A row of each key run, one per group.
        let mut reps = Vec::new();
        // The first row's key in column `k`: where each walk starts.
        let first = |k: &[i64]| if n == 0 { 0 } else { k[rows.at(0)] };
        let groups = match keys.as_slice() {
            [k] => {
                let mut prev = first(k);
                key_runs(rows, &mut gids, &mut reps, |r| {
                    let step = (k[r] != prev, k[r] < prev);
                    prev = k[r];
                    step
                })
            }
            [a, b] => {
                let mut prev = (first(a), first(b));
                key_runs(rows, &mut gids, &mut reps, |r| {
                    let key = (a[r], b[r]);
                    let step = (key != prev, key < prev);
                    prev = key;
                    step
                })
            }
            _ => {
                let mut prev: Vec<i64> = keys.iter().map(|k| first(k)).collect();
                key_runs(rows, &mut gids, &mut reps, |r| {
                    // The first differing column decides `<`.
                    let (mut ne, mut lt) = (false, false);
                    for (k, p) in keys.iter().zip(&mut prev) {
                        lt |= !ne & (k[r] < *p);
                        ne |= k[r] != *p;
                        *p = k[r];
                    }
                    (ne, lt)
                })
            }
        }?;
        let mut states = self.states(groups);
        self.fold(table, rows, &gids, &mut states);
        let key_cols = self
            .group_cols
            .iter()
            .zip(&keys)
            .map(|(name, k)| Column::i64(name, reps.iter().map(|&r| k[r]).collect()));
        let agg_cols = self.aggs.iter().zip(states).map(|((name, _), s)| Column::i64(name, s));
        Some(Table::new(key_cols.chain(agg_cols).collect()))
    }

    /// Every aggregate's initial state column, `n` groups long.
    fn states(&self, n: usize) -> Vec<Vec<i64>> {
        self.aggs.iter().map(|(_, f)| vec![init_of(f); n]).collect()
    }

    /// Accumulates every aggregate over `rows` into its column of
    /// `states`, the `i`-th row into group `gids[i]`: one aggregate at a
    /// time, its input columns zipped with the group ids when `rows` is
    /// a row range and gathered through the list otherwise, rows in the
    /// given order. Sums and products wrap, as a release build's `+`
    /// and `*` do, so the dense arm's trash slots can take rows a
    /// selection drops whatever their values.
    fn fold<G: GroupId>(&self, table: &Table, rows: Rows, gids: &[G], states: &mut [Vec<i64>]) {
        let col = |c: &String| table.columns[table.col_index(c)].data.as_slice();
        for ((_, f), s) in self.aggs.iter().zip(states) {
            match f {
                AggFunc::Count => each(rows, gids, [], |g, []| s[g] = s[g].wrapping_add(1)),
                AggFunc::Sum(c) => each(rows, gids, [col(c)], |g, [x]| s[g] = s[g].wrapping_add(x)),
                AggFunc::Min(c) => each(rows, gids, [col(c)], |g, [x]| s[g] = s[g].min(x)),
                AggFunc::Max(c) => each(rows, gids, [col(c)], |g, [x]| s[g] = s[g].max(x)),
                AggFunc::SumProduct(a, b) => each(rows, gids, [col(a), col(b)], |g, [x, y]| {
                    s[g] = s[g].wrapping_add(x.wrapping_mul(y))
                }),
            }
        }
    }

    /// Initial accumulator state, one slot per aggregate.
    fn state_init(&self) -> Vec<i64> {
        self.aggs.iter().map(|(_, f)| init_of(f)).collect()
    }

    /// Resolved input column indices, one pair per aggregate.
    fn agg_col_indices(&self, table: &Table) -> Vec<(Option<usize>, Option<usize>)> {
        self.aggs
            .iter()
            .map(|(_, f)| match f {
                AggFunc::Count => (None, None),
                AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => {
                    (Some(table.col_index(c)), None)
                }
                AggFunc::SumProduct(a, b) => (Some(table.col_index(a)), Some(table.col_index(b))),
            })
            .collect()
    }

    /// Folds one input row into a group's accumulator state.
    fn accumulate(
        &self,
        table: &Table,
        row: usize,
        agg_cols: &[(Option<usize>, Option<usize>)],
        state: &mut [i64],
    ) {
        for (si, (_, f)) in self.aggs.iter().enumerate() {
            let (c1, c2) = agg_cols[si];
            match f {
                AggFunc::Count => state[si] += 1,
                AggFunc::Sum(_) => state[si] += table.columns[c1.unwrap()].data[row],
                AggFunc::Min(_) => state[si] = state[si].min(table.columns[c1.unwrap()].data[row]),
                AggFunc::Max(_) => state[si] = state[si].max(table.columns[c1.unwrap()].data[row]),
                AggFunc::SumProduct(_, _) => {
                    state[si] +=
                        table.columns[c1.unwrap()].data[row] * table.columns[c2.unwrap()].data[row]
                }
            }
        }
    }
}

/// The arms of [`GroupBySpec::execute`], in the order it tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// [`GroupBySpec::aggregate_dense`].
    Dense,
    /// [`GroupBySpec::aggregate_ordered`].
    Ordered,
    /// [`GroupBySpec::aggregate_hash`].
    Hash,
    /// [`GroupBySpec::aggregate_sorted`].
    Sorted,
}

/// Largest key domain — the product of the key columns' value ranges —
/// the dense group-by ([`GroupBySpec::aggregate_dense`]) serves. Every
/// aggregate's state array, the slots' key rows and the final slot
/// scan are this long whatever the row count, so the cap bounds what a
/// tiny input can pay for a wide domain. Measured single-key with three
/// aggregates on a 2-vCPU Xeon: at 4096 slots the dense path ties the
/// hash path at 250 rows and wins from 1000 rows up; at 8192 slots
/// (state arrays past 32 KiB) it loses 4× at 250 rows, and at 16 384
/// slots it loses at 1000 rows. The slots are `u16`, so the trash slots
/// from `domain` on ([`TRASH_SLOTS`]) still fit one.
const DENSE_CAP: u128 = 1 << 12;

/// The dense group-by streams every table row when its selection keeps
/// at least one row in this many, and lists the selected rows when it
/// keeps fewer: streaming pays for every row, listing for every kept row
/// at about twice the cost. Measured on the Q1 shape (two keys, six
/// slots, four aggregates) on a 2-vCPU Xeon: streaming took about 6
/// ns/row at 100 000 rows whatever the selection, the list 3.3–4.6
/// ns/row at 30 %, 4.9–6.7 at 50 % and 6.5–9.0 at 70 %; at 2 M rows the
/// two crossed near 50 % as well.
const DENSE_LIST_SHARE: usize = 2;

/// Rows the dense group-by ([`GroupBySpec::aggregate_dense`]) slots and
/// folds at a time: a block's slots and input columns stay in cache
/// while every aggregate folds them, so each column streams from memory
/// once, and no slot list as long as the table is made.
const DENSE_BLOCK_ROWS: usize = 4096;

/// Trash slots the dense group-by sends dropped rows to, row `r` to
/// slot `domain + r % TRASH_SLOTS`: with one, a run of dropped rows
/// folds into one accumulator, each add waiting on the store before it.
/// Streaming the Q1 shape over 2 M rows with 1 % kept took 17.5 ns/row
/// with one trash slot and 9.1–11.2 with four.
const TRASH_SLOTS: usize = 4;

/// Rows between two checks of the key-ordered group-by's descent flag
/// ([`GroupBySpec::aggregate_ordered`]): small enough that unordered
/// input falls back to hashing after a few hundred rows, large enough
/// that the check costs nothing per row.
const ORDER_CHECK_ROWS: usize = 256;

/// The rows a group-by arm reads, by position.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// The rows `lo..hi`: position `i` is row `lo + i`, and no id list
    /// exists.
    Range(usize, usize),
    /// The selected rows' ids, ascending.
    List(&'a [usize]),
}

impl<'a> Rows<'a> {
    /// Every row of `table`, or the listed ones.
    fn of(table: &Table, list: Option<&'a [usize]>) -> Self {
        list.map_or(Rows::Range(0, table.rows()), Rows::List)
    }

    fn len(self) -> usize {
        match self {
            Rows::Range(lo, hi) => hi - lo,
            Rows::List(ids) => ids.len(),
        }
    }

    /// The row at position `i`.
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        match self {
            Rows::Range(lo, _) => lo + i,
            Rows::List(ids) => ids[i],
        }
    }

    /// The rows at positions `lo..hi`.
    fn block(self, lo: usize, hi: usize) -> Self {
        match self {
            Rows::Range(first, _) => Rows::Range(first + lo, first + hi),
            Rows::List(ids) => Rows::List(&ids[lo..hi]),
        }
    }

    /// The row ids, listed.
    fn to_vec(self) -> Vec<usize> {
        (0..self.len()).map(|i| self.at(i)).collect()
    }
}

/// A group id as the arms store them: `u16` dense slots, `u32` groups.
trait GroupId: Copy {
    fn index(self) -> usize;
}

impl GroupId for u16 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

impl GroupId for u32 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

/// Calls `f(gids[i], values)` for each position `i` of `rows` in order,
/// `values` holding each of `cols` at the `i`-th row: the columns are
/// zipped with the ids when `rows` is a range, and gathered through
/// the list otherwise.
#[inline(always)]
fn each<G: GroupId, const N: usize>(
    rows: Rows,
    gids: &[G],
    cols: [&[i64]; N],
    mut f: impl FnMut(usize, [i64; N]),
) {
    match rows {
        Rows::Range(lo, hi) => {
            let cols = cols.map(|c| &c[lo..hi]);
            for (i, &g) in gids.iter().enumerate() {
                f(g.index(), cols.map(|c| c[i]));
            }
        }
        Rows::List(ids) => {
            for (&g, &r) in gids.iter().zip(ids) {
                f(g.index(), cols.map(|c| c[r]));
            }
        }
    }
}

/// The dense group-by's slot pass ([`GroupBySpec::aggregate_dense`]):
/// pushes the `u16` slot `code(r)` of each row of `rows` onto `slots`,
/// in order, leaving `reps[slot]` holding a row of each non-empty slot.
/// When `keep` is given, `rows` is a row range and each row `keep`
/// drops goes to a trash slot instead ([`TRASH_SLOTS`], the last ones
/// of `reps`), chosen without a branch.
fn dense_slots(
    rows: Rows,
    keep: Option<&BitVec>,
    reps: &mut [usize],
    slots: &mut Vec<u16>,
    code: impl Fn(usize) -> u64,
) {
    let trash = reps.len() - TRASH_SLOTS;
    let mut slot = |r: usize, g: usize| {
        reps[g] = r;
        g as u16
    };
    match (rows, keep) {
        (Rows::Range(lo, hi), Some(bv)) => {
            let words = bv.words();
            slots.extend((lo..hi).map(|r| {
                // All ones when row `r` is kept, zero when dropped.
                let kept = (words[r / 64] >> (r % 64) & 1).wrapping_neg() as usize;
                let t = trash + r % TRASH_SLOTS;
                slot(r, t ^ ((code(r) as usize ^ t) & kept))
            }))
        }
        _ => slots.extend((0..rows.len()).map(|i| rows.at(i)).map(|r| slot(r, code(r) as usize))),
    }
}

/// The key runs of `rows` for [`GroupBySpec::aggregate_ordered`], or
/// `None` if some row's key is less than the previous row's. The `i`-th
/// row gets its run index in `gids[i]`, and `reps[g]` ends up holding a
/// row of run `g`: `reps` grows one block at a time to the runs that
/// block can start, and ends one row per run long. `step(r)` compares
/// row `r`'s key with the previous row's (the first row's with itself):
/// whether it differs, and whether it is less. The walk has no per-row
/// branch: descents are ORed into a flag that is checked once per
/// [`ORDER_CHECK_ROWS`] rows. Returns the run count.
fn key_runs(
    rows: Rows,
    gids: &mut [u32],
    reps: &mut Vec<usize>,
    mut step: impl FnMut(usize) -> (bool, bool),
) -> Option<usize> {
    let mut g = 0u32;
    for (b, ids) in gids.chunks_mut(ORDER_CHECK_ROWS).enumerate() {
        reps.resize(g as usize + ids.len() + 1, 0);
        let block = b * ORDER_CHECK_ROWS..b * ORDER_CHECK_ROWS + ids.len();
        let desc = match rows {
            Rows::Range(lo, _) => {
                run_block(ids, lo + block.start..lo + block.end, &mut g, reps, &mut step)
            }
            Rows::List(l) => run_block(ids, l[block].iter().copied(), &mut g, reps, &mut step),
        };
        if desc {
            return None;
        }
    }
    let groups = if rows.len() == 0 { 0 } else { g as usize + 1 };
    reps.truncate(groups);
    Some(groups)
}

/// One block of [`key_runs`] over the rows `rs`, run index `g` carried
/// across blocks: whether some row's key descended.
#[inline(always)]
fn run_block(
    ids: &mut [u32],
    rs: impl Iterator<Item = usize>,
    g: &mut u32,
    reps: &mut [usize],
    step: &mut impl FnMut(usize) -> (bool, bool),
) -> bool {
    let mut desc = false;
    for (id, r) in ids.iter_mut().zip(rs) {
        let (ne, lt) = step(r);
        *g += ne as u32;
        desc |= lt;
        *id = *g;
        reps[*g as usize] = r;
    }
    desc
}

/// The ids of the rows `sel` keeps (every row when `None`), ascending.
pub(crate) fn selected_rows(table: &Table, sel: Option<&BitVec>) -> Vec<usize> {
    match sel {
        Some(bv) => bv.iter_set().collect(),
        None => (0..table.rows()).collect(),
    }
}

/// The identity of an aggregate's accumulator.
fn init_of(f: &AggFunc) -> i64 {
    match f {
        AggFunc::Min(_) => i64::MAX,
        AggFunc::Max(_) => i64::MIN,
        _ => 0,
    }
}

/// Open-addressed group table over key codes: linear probing over
/// power-of-two slots, groups stored densely in first-seen order with
/// their code and a row holding their key. The slots double whenever
/// the groups would fill half of them, so the table tracks the group
/// count, not the row count, and every probe terminates on an empty
/// slot.
struct CodeGroups {
    /// `64 - log2(slots.len())`: a group's home slot is the top bits of
    /// its code's Fibonacci mix ([`vector::fib_mix`]). A hash shard's
    /// keys share their CRC32 residue, and a key range's codes can
    /// share their low bits, so no fixed bits of either make a home.
    shift: u32,
    /// Group id + 1 per slot; 0 is empty.
    slots: Vec<u32>,
    codes: Vec<u64>,
    reps: Vec<usize>,
    /// Slots visited by [`Self::group_of`], for the probe-length test.
    #[cfg(test)]
    probes: usize,
}

impl CodeGroups {
    /// An empty table with `cap` slots (a power of two).
    fn new(cap: usize) -> Self {
        CodeGroups {
            shift: 64 - cap.trailing_zeros(),
            slots: vec![0u32; cap],
            codes: Vec::new(),
            reps: Vec::new(),
            #[cfg(test)]
            probes: 0,
        }
    }

    /// Dense id of `code`'s group, inserting it with its key's row
    /// `row` on first sight.
    #[inline]
    fn group_of(&mut self, code: u64, row: usize) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(code);
        loop {
            #[cfg(test)]
            {
                self.probes += 1;
            }
            let s = self.slots[i];
            if s == 0 {
                self.codes.push(code);
                self.reps.push(row);
                let g = self.codes.len() as u32;
                self.slots[i] = g;
                if 2 * self.codes.len() > self.slots.len() {
                    self.grow();
                }
                return g - 1;
            }
            if self.codes[s as usize - 1] == code {
                return s - 1;
            }
            i = (i + 1) & mask;
        }
    }

    /// Home slot of `code`.
    #[inline]
    fn home(&self, code: u64) -> usize {
        (vector::fib_mix(code) >> self.shift) as usize
    }

    /// Doubles the slots and re-inserts every group.
    #[cold]
    fn grow(&mut self) {
        self.shift -= 1;
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, 0);
        for (g, &code) in self.codes.iter().enumerate() {
            let mut i = self.home(code);
            while self.slots[i] != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = g as u32 + 1;
        }
    }
}

/// The partitioning-rounds planner (paper §5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupByPlan {
    /// Estimated number of distinct groups.
    pub ndv: u64,
    /// Hash-table entry size in bytes.
    pub entry_bytes: u64,
    /// Fan-out required so a partition's table fits the DPU's DMEM budget.
    pub dpu_fanout_required: u64,
    /// Fan-out required so a partition's table fits the Xeon's cache
    /// budget.
    pub xeon_fanout_required: u64,
    /// DRAM round trips the DPU pays for partitioning.
    pub dpu_paid_rounds: u32,
    /// DRAM round trips the Xeon pays.
    pub xeon_paid_rounds: u32,
}

/// DMEM bytes available to a group-by hash table: "each input/output
/// buffer doesn't benefit much from more than 0.5 KB and hence a large
/// part of the DMEM space is allocated to the hash table" — 24 KB of the
/// 32 KB.
pub const DPU_TABLE_BUDGET: u64 = 24 * 1024;
/// Xeon per-partition target: an L2-resident table (256 KB).
pub const XEON_TABLE_BUDGET: u64 = 256 * 1024;
/// DPU fan-out in one *paid* software round, with the DMS's 32-way
/// hardware partitioner running in parallel: "we can sustain 9 GB/s for
/// an additional 32-way software partition in parallel (i.e. a 1024-way
/// partitioning)".
pub const DPU_FANOUT_PER_PAID_ROUND: u64 = 1024;
/// Final-round hardware fan-out that costs no DRAM round trip.
pub const DPU_FREE_HW_FANOUT: u64 = 32;
/// Xeon software fan-out per round (TLB/cache-associativity limited).
pub const XEON_FANOUT_PER_ROUND: u64 = 64;

impl GroupByPlan {
    /// Plans partitioning for `ndv` groups of `entry_bytes` each.
    pub fn plan(ndv: u64, entry_bytes: u64) -> Self {
        let need = |budget: u64| (ndv * entry_bytes).div_ceil(budget).max(1);
        let dpu_need = need(DPU_TABLE_BUDGET);
        let xeon_need = need(XEON_TABLE_BUDGET);

        // DPU: the last 32× of fan-out comes from the DMS for free; every
        // additional 1024× is one paid software round.
        let mut dpu_rounds = 0u32;
        let mut remaining = dpu_need.div_ceil(DPU_FREE_HW_FANOUT);
        while remaining > 1 {
            dpu_rounds += 1;
            remaining = remaining.div_ceil(DPU_FANOUT_PER_PAID_ROUND);
        }

        // Xeon: every round is paid.
        let mut xeon_rounds = 0u32;
        let mut remaining = xeon_need;
        while remaining > 1 {
            xeon_rounds += 1;
            remaining = remaining.div_ceil(XEON_FANOUT_PER_ROUND);
        }

        GroupByPlan {
            ndv,
            entry_bytes,
            dpu_fanout_required: dpu_need,
            xeon_fanout_required: xeon_need,
            dpu_paid_rounds: dpu_rounds,
            xeon_paid_rounds: xeon_rounds,
        }
    }

    /// Factor by which input bytes traverse DRAM on the DPU: one read for
    /// the aggregation pass plus read+write per paid round.
    pub fn dpu_bytes_factor(&self) -> u64 {
        1 + 2 * self.dpu_paid_rounds as u64
    }

    /// Same for the Xeon.
    pub fn xeon_bytes_factor(&self) -> u64 {
        1 + 2 * self.xeon_paid_rounds as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_table() -> Table {
        // 1000 rows, 10 groups.
        let keys: Vec<i64> = (0..1000).map(|i| i % 10).collect();
        let vals: Vec<i64> = (0..1000).collect();
        let discount: Vec<i64> = (0..1000).map(|i| i % 5).collect();
        Table::new(vec![Column::i32("k", keys), Column::i32("v", vals), Column::i32("d", discount)])
    }

    #[test]
    fn aggregates_match_reference() {
        let t = sales_table();
        let spec = GroupBySpec {
            group_cols: vec!["k".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("sum_v".into(), AggFunc::Sum("v".into())),
                ("min_v".into(), AggFunc::Min("v".into())),
                ("max_v".into(), AggFunc::Max("v".into())),
                ("rev".into(), AggFunc::SumProduct("v".into(), "d".into())),
            ],
        };
        let out = spec.execute(&t, None);
        assert_eq!(out.rows(), 10);
        for g in 0..10i64 {
            let row = out.column("k").unwrap().data.iter().position(|&k| k == g).unwrap();
            assert_eq!(out.column("cnt").unwrap().data[row], 100);
            let want_sum: i64 = (0..1000).filter(|i| i % 10 == g).sum();
            assert_eq!(out.column("sum_v").unwrap().data[row], want_sum);
            assert_eq!(out.column("min_v").unwrap().data[row], g);
            assert_eq!(out.column("max_v").unwrap().data[row], 990 + g);
            let want_rev: i64 = (0..1000).filter(|i| i % 10 == g).map(|i| i * (i % 5)).sum();
            assert_eq!(out.column("rev").unwrap().data[row], want_rev);
        }
    }

    #[test]
    fn selection_restricts_rows() {
        let t = sales_table();
        let sel = BitVec::from_fn(1000, |i| i < 100);
        let spec = GroupBySpec {
            group_cols: vec!["k".into()],
            aggs: vec![("cnt".into(), AggFunc::Count)],
        };
        let out = spec.execute(&t, Some(&sel));
        assert_eq!(out.rows(), 10);
        assert!(out.column("cnt").unwrap().data.iter().all(|&c| c == 10));
    }

    #[test]
    fn multi_key_grouping() {
        let t = Table::new(vec![
            Column::i32("a", vec![1, 1, 2, 2, 1]),
            Column::i32("b", vec![1, 2, 1, 1, 1]),
            Column::i32("v", vec![10, 20, 30, 40, 50]),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["a".into(), "b".into()],
            aggs: vec![("s".into(), AggFunc::Sum("v".into()))],
        };
        let out = spec.execute(&t, None);
        assert_eq!(out.rows(), 3);
        // Sorted by (a, b): (1,1)=60, (1,2)=20, (2,1)=70.
        assert_eq!(out.column("s").unwrap().data, vec![60, 20, 70]);
    }

    #[test]
    fn low_ndv_plan_needs_no_partitioning() {
        // 10 groups × 16 B ≪ 24 KB: zero rounds on both platforms (the
        // 6.7× gain comes purely from bandwidth/watt).
        let p = GroupByPlan::plan(10, 16);
        assert_eq!(p.dpu_paid_rounds, 0);
        assert_eq!(p.xeon_paid_rounds, 0);
        assert_eq!(p.dpu_bytes_factor(), 1);
        assert_eq!(p.xeon_bytes_factor(), 1);
    }

    #[test]
    fn high_ndv_plan_saves_the_dpu_a_round() {
        // 2 M groups × 16 B = 32 MB of table: the DPU needs fan-out 1366
        // (one paid 1024-way round; the free 32-way hardware round covers
        // the rest); the Xeon needs fan-out 128 = two paid 64-way rounds.
        let p = GroupByPlan::plan(2_000_000, 16);
        assert_eq!(p.dpu_paid_rounds, 1, "fanout {}", p.dpu_fanout_required);
        assert_eq!(p.xeon_paid_rounds, 2, "fanout {}", p.xeon_fanout_required);
        assert_eq!(p.dpu_bytes_factor(), 3);
        assert_eq!(p.xeon_bytes_factor(), 5);
    }

    #[test]
    fn monstrous_ndv_scales_rounds() {
        let p = GroupByPlan::plan(2_000_000_000, 16);
        assert!(p.dpu_paid_rounds >= 1);
        assert!(p.xeon_paid_rounds > p.dpu_paid_rounds);
    }

    /// Mean slots visited per row when `codes` stream through a
    /// [`CodeGroups`] table that starts at 16 slots.
    fn mean_probes(codes: &[u64]) -> f64 {
        let mut groups = CodeGroups::new(16);
        codes.iter().enumerate().for_each(|(r, &c)| _ = groups.group_of(c, r));
        groups.probes as f64 / codes.len() as f64
    }

    #[test]
    fn one_shard_residue_keeps_group_probes_short() {
        // A hash shard's keys: every CRC32 ≡ 3 (mod 8), as
        // `ShardPolicy::hash(8)` leaves Q18's `l_orderkey` on a shard.
        let candidates: Vec<i64> = (0..24_000).collect();
        let keys = vector::partition_row_ids(&candidates, 0, 8).swap_remove(3);
        let keys: Vec<i64> = keys.into_iter().map(|k| k as i64).collect();
        assert!(keys.len() > 2_500, "{} shard keys", keys.len());
        let n = keys.len() * 3;
        let t = Table::new(vec![
            Column::i64("k", keys.iter().cycle().take(n).copied().collect()),
            Column::i64("v", (0..n as i64).collect()),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["k".into()],
            aggs: vec![("cnt".into(), AggFunc::Count), ("s".into(), AggFunc::Sum("v".into()))],
        };
        assert_eq!(spec.route(&t, None), (Route::Hash, spec.execute_seq(&t, None)));
        let lo = keys[0];
        let codes: Vec<u64> = t.columns[0].data.iter().map(|&k| (k - lo) as u64).collect();
        let mean = mean_probes(&codes);
        assert!(mean < 2.0, "shard keys: mean probe length {mean:.2} slots");
        // Codes that share their low bits: a key column of multiples of 8.
        let strided: Vec<u64> = (0..n as u64).map(|i| i % 3000 * 8).collect();
        let mean = mean_probes(&strided);
        assert!(mean < 2.0, "multiples of 8: mean probe length {mean:.2} slots");
    }

    #[test]
    fn dense_path_serves_key_domains_up_to_the_cap() {
        let one =
            GroupBySpec { group_cols: vec!["k".into()], aggs: vec![("c".into(), AggFunc::Count)] };
        let keys = |k: Vec<i64>| Table::new(vec![Column::i64("k", k)]);
        let route = |spec: &GroupBySpec, t: &Table| spec.route(t, None).0;
        let cap = DENSE_CAP as i64;
        assert_eq!(route(&one, &keys(vec![cap - 6, -5])), Route::Dense);
        assert_eq!(route(&one, &keys(vec![cap - 5, -5])), Route::Hash);
        assert_eq!(route(&one, &keys(vec![i64::MAX, i64::MIN])), Route::Hash);
        // An empty column has one code, so no group in one slot.
        assert_eq!(
            one.route(&keys(vec![]), None),
            (Route::Dense, one.execute_seq(&keys(vec![]), None))
        );

        // 64 × 64 composite slots sit at the cap, 64 × 65 above it; the
        // packed zone maps give the same bounds as a scan.
        let two = GroupBySpec { group_cols: vec!["a".into(), "b".into()], ..one };
        for (b_range, want) in [(64, Route::Dense), (65, Route::Hash)] {
            let mut t = Table::new(vec![
                Column::i64("a", (0..5000).map(|i| i % 64).collect()),
                Column::i64("b", (0..5000).map(|i| -(i / 64 % b_range) - 1).collect()),
            ]);
            assert_eq!(route(&two, &t), want, "flat b_range={b_range}");
            t.encode_packed();
            assert!(t.columns.iter().all(|c| c.packed.is_some()));
            assert_eq!(route(&two, &t), want, "packed b_range={b_range}");
        }
    }

    /// Each arm of `execute` on inputs built for it, with and without a
    /// selection: the arm that runs and its result, against
    /// `execute_seq`. The code-less arm takes key ranges whose product
    /// is past 2^64 (2^64 + 1 = 274 177 × 67 280 421 310 721 is the
    /// least), and the hash arm takes a product of exactly 2^64 and a
    /// full-range column beside constant ones.
    #[test]
    fn every_route_matches_the_reference() {
        let (min, max) = (i64::MIN, i64::MAX);
        // Row `i` of a column cycling through `vals` at stride `s`.
        let col = |vals: &[i64], s: usize, n: usize| -> Vec<i64> {
            (0..n).map(|i| vals[(i * s) % vals.len()]).collect()
        };
        let n = 300;
        let unordered: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 29_989 - 15_000).collect();
        let cases: Vec<(Route, Vec<Vec<i64>>)> = vec![
            (Route::Dense, vec![col(&[-3, 2, 0], 1, n), col(&[9, -9], 1, n)]),
            (Route::Ordered, vec![(0..n as i64).map(|i| i / 3 * 5_000 - 700_000).collect()]),
            (Route::Hash, vec![unordered.clone()]),
            (Route::Hash, vec![col(&[min, max, 0, -1], 3, n)]),
            (Route::Hash, vec![col(&[-1, 1], 1, n), unordered.clone(), col(&[4, 5], 7, n)]),
            (Route::Hash, vec![col(&[0, (1 << 32) - 1, 7], 1, n), col(&[(1 << 32) - 1, 0], 1, n)]),
            (Route::Hash, vec![vec![7; n], col(&[max, min, 0, -1, 5], 2, n), vec![-2; n]]),
            (Route::Sorted, vec![col(&[0, 274_176, 9], 1, n), col(&[67_280_421_310_720, 0], 1, n)]),
            (Route::Sorted, vec![col(&[min, max, 0], 1, n), col(&[max, 0, min, 1], 1, n)]),
            (Route::Sorted, vec![col(&[1, 0], 1, n), vec![0; n], col(&[min, max, 3], 1, n)]),
        ];
        for (case, (want, keys)) in cases.into_iter().enumerate() {
            let names: Vec<String> = (0..keys.len()).map(|c| format!("k{c}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut cols: Vec<Column> =
                names.iter().zip(&keys).map(|(name, k)| Column::i64(name, k.clone())).collect();
            let v: Vec<i64> = (0..n as i64).map(|i| i * 13 - 2_000).collect();
            cols.push(Column::i64("v", v));
            cols.push(Column::i64("d", (0..n as i64).map(|i| i % 5 - 2).collect()));
            let t = Table::new(cols);
            let spec = all_aggs(&names);
            // Every third row dropped.
            let sels = [None, Some(BitVec::from_fn(n, |r| r % 3 != 1))];
            for sel in &sels {
                let got = spec.route(&t, sel.as_ref());
                assert!(got == (want, spec.execute_seq(&t, sel.as_ref())), "case {case}: {want:?}");
            }
        }
    }

    /// `spec.execute` equals the `execute_seq` reference, and the
    /// key-ordered arm takes `t` exactly when `ordered`, returning the
    /// same table.
    fn assert_ordered_arm(spec: &GroupBySpec, t: &Table, ordered: bool, what: &str) {
        let want = spec.execute_seq(t, None);
        assert_eq!(spec.execute(t, None), want, "{what}");
        let got = spec.execute_ordered(t, None);
        assert_eq!(got.is_some(), ordered, "{what}: ordered arm");
        if let Some(got) = got {
            assert_eq!(got, want, "{what}");
        }
    }

    /// Key columns `a`, `b`, `c` plus value columns: `a` ascends in
    /// runs of 1–2 rows (spaced far above the dense cap), and `b`, `c`
    /// are functions of `a`, so every width-1–3 key tuple ascends.
    fn ascending_keys(n: usize) -> [Vec<i64>; 3] {
        let a: Vec<i64> = (0..n as i64).map(|i| (i / 2 + i / 3) * 1_000_003 - 5_000_000).collect();
        let b = a.iter().map(|k| k.rem_euclid(5) - 2).collect();
        let c = a.iter().map(|k| k.rem_euclid(3)).collect();
        [a, b, c]
    }

    fn keyed_table([a, b, c]: [Vec<i64>; 3]) -> Table {
        let n = a.len() as i64;
        Table::new(vec![
            Column::i64("a", a),
            Column::i64("b", b),
            Column::i64("c", c),
            Column::i64("v", (0..n).map(|i| i * 7 - 900).collect()),
            Column::i64("d", (0..n).map(|i| i % 5 - 2).collect()),
        ])
    }

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

    /// The branch-free key-run walk checks its descent flag once per
    /// block: a descent at the second row, at the last row, and on each
    /// side of the block boundaries falls back to hashing, in the first
    /// key column or only in a later one (which a narrower key does not
    /// see). All keys equal is one group, and so is a single row. Key
    /// widths 1–3 cover the scalar, pair and column-by-column walks.
    #[test]
    fn key_ordered_walk_edge_cases() {
        let n = 3 * ORDER_CHECK_ROWS + 17;
        let widths: [&[&str]; 3] = [&["a"], &["a", "b"], &["a", "b", "c"]];
        let asc = ascending_keys(n);
        for keys in widths {
            assert_ordered_arm(&all_aggs(keys), &keyed_table(asc.clone()), true, "ascending");
        }
        let b = ORDER_CHECK_ROWS;
        for row in [1, b - 1, b, b + 1, 2 * b, n - 1] {
            // Column `col` of row `row` dips below the previous row while
            // the columns before it tie.
            for col in 0..3 {
                let mut cols = asc.clone();
                for (i, c) in cols.iter_mut().enumerate().take(col) {
                    c[row] = asc[i][row - 1];
                }
                cols[col][row] = asc[col][row - 1] - 1;
                let t = keyed_table(cols);
                for (w, keys) in widths.iter().enumerate() {
                    let what = format!("descent in column {col} at row {row}, width {}", w + 1);
                    assert_ordered_arm(&all_aggs(keys), &t, w < col, &what);
                }
            }
        }
        let same = keyed_table([vec![-7; n], vec![i64::MIN; n], vec![i64::MAX; n]]);
        let single = keyed_table([vec![i64::MAX], vec![i64::MIN], vec![0]]);
        for keys in widths {
            let spec = all_aggs(keys);
            assert_ordered_arm(&spec, &same, true, "all keys equal");
            assert_eq!(spec.execute(&same, None).rows(), 1);
            assert_ordered_arm(&spec, &single, true, "single row");
            assert_eq!(spec.execute(&single, None).rows(), 1);
        }
    }

    /// A descent only in a row the selection drops — at row 1,
    /// `ORDER_CHECK_ROWS − 1`, `ORDER_CHECK_ROWS` and `ORDER_CHECK_ROWS +
    /// 1` — neither splits the run of equal keys around it nor sends the
    /// key-ordered arm to its fallback, at key widths 1–3. Without the
    /// selection the same table falls back.
    #[test]
    fn key_ordered_arm_ignores_descents_in_dropped_rows() {
        let n = 3 * ORDER_CHECK_ROWS + 17;
        let b = ORDER_CHECK_ROWS;
        let widths: [&[&str]; 3] = [&["a"], &["a", "b"], &["a", "b", "c"]];
        for row in [1, b - 1, b, b + 1] {
            // Rows `row − 1` and `row + 1` hold one key tuple, and row
            // `row` between them a lower one in the first column.
            let mut cols = ascending_keys(n);
            for c in &mut cols {
                c[row + 1] = c[row - 1];
            }
            cols[0][row] = cols[0][row - 1] - 1;
            let t = keyed_table(cols);
            let sel = BitVec::from_fn(n, |r| r != row);
            for keys in widths {
                let spec = all_aggs(keys);
                let what = format!("descent at dropped row {row}, width {}", keys.len());
                let want = spec.execute_seq(&t, Some(&sel));
                assert_eq!(spec.route(&t, Some(&sel)), (Route::Ordered, want.clone()), "{what}");
                assert_eq!(spec.execute_ordered(&t, Some(&sel)), Some(want), "{what}");
                assert_ordered_arm(&spec, &t, false, &what);
            }
        }
    }

    /// The dense arm under every selection shape — none, empty, one row,
    /// 1 % strided (listed), 50 % and 94 % random and full (streamed) —
    /// at key widths 1–3, each over a domain of exactly `DENSE_CAP`
    /// codes (so the trash slots start at 4096), with all five
    /// aggregates, across several slot blocks. The rows a selection
    /// drops hold the signed extremes in the value columns: were one to
    /// reach a live slot, its `Min`, `Max` or sums would show, and a
    /// trash slot reaching the live list would add a group.
    #[test]
    fn dense_arm_under_every_selection_matches_the_reference() {
        let n = 2 * DENSE_BLOCK_ROWS + 77;
        let mut x = 0x2026_u64;
        let draws: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        // Per width, the key columns' value ranges, multiplying to the cap.
        let ranges: [&[u64]; 3] = [&[4096], &[64, 64], &[16, 16, 16]];
        let pct = |r: usize| draws[r] >> 32 & 127;
        let sels: Vec<(&str, Option<BitVec>)> = vec![
            ("none", None),
            ("empty", Some(BitVec::new(n))),
            ("one row", Some(BitVec::from_fn(n, |r| r == n / 3))),
            ("1 % strided", Some(BitVec::from_fn(n, |r| r % 100 == 7))),
            ("50 % random", Some(BitVec::from_fn(n, |r| pct(r) < 64))),
            ("94 % random", Some(BitVec::from_fn(n, |r| pct(r) < 120))),
            ("full", Some(BitVec::from_fn(n, |_| true))),
        ];
        for widths in ranges {
            let names: Vec<String> = (0..widths.len()).map(|c| format!("k{c}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            // Column `c` draws from `range` values below zero and above;
            // rows 0 and 1 hold its least and greatest value.
            let keys = widths.iter().enumerate().map(|(c, &range)| {
                let lo = -(range as i64) / 2;
                let k = (0..n).map(|r| match r {
                    0 => lo,
                    1 => lo + range as i64 - 1,
                    _ => lo + ((draws[r] >> (8 * c)) % range) as i64,
                });
                Column::i64(names[c], k.collect())
            });
            for (what, sel) in &sels {
                let kept = |r: usize| sel.as_ref().is_none_or(|bv| bv.get(r));
                let v =
                    (0..n as i64).map(|r| if kept(r as usize) { r * 7 - 900 } else { i64::MAX });
                let d = (0..n as i64).map(|r| if kept(r as usize) { r % 5 - 2 } else { i64::MIN });
                let mut cols: Vec<Column> = keys.clone().collect();
                cols.extend([Column::i64("v", v.collect()), Column::i64("d", d.collect())]);
                let t = Table::new(cols);
                let spec = all_aggs(&names);
                let want = spec.execute_seq(&t, sel.as_ref());
                let what = format!("{what}, width {}", widths.len());
                assert_eq!(spec.route(&t, sel.as_ref()), (Route::Dense, want), "{what}");
            }
        }
    }
}
