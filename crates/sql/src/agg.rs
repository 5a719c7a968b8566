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

use std::collections::HashMap;

use dpu_isa::hash::{crc32c_u64_hw, crc32c_u64_x4_hw, crc32c_wide_hw, crc32c_wide_x4_hw};

use crate::bitvec::BitVec;
use crate::column::{Column, Table};
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
    /// path; timing goes through [`GroupByPlan`]. The first arm that
    /// applies runs:
    ///
    /// 1. a small key domain takes the dense path
    ///    ([`Self::execute_dense`]);
    /// 2. selected keys that never descend take the key-ordered path
    ///    ([`Self::execute_ordered`]), which also serves key-less
    ///    aggregates (every row repeats the empty key);
    /// 3. the rest stream the selected rows in ascending order through
    ///    lane-batched key hashing — four keys per CRC batch, composite
    ///    keys flattened into contiguous `u64` words — into an
    ///    open-addressed group table ([`Self::aggregate_swar`]); each
    ///    aggregate then accumulates column-at-a-time and the groups come
    ///    out through one permutation sort by key
    ///    ([`FlatGroups::into_table`]).
    ///
    /// Every arm folds each group's rows in the same ascending order as
    /// [`Self::execute_seq`], so the result is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    pub fn execute(&self, table: &Table, sel: Option<&BitVec>) -> Table {
        if let Some(t) = self.execute_dense(table, sel) {
            return t;
        }
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let rows = selected_rows(table, sel);
        match self.aggregate_ordered(table, &rows, &key_idx) {
            Some(t) => t,
            None => self.aggregate_swar(table, &rows, &key_idx).into_table(self),
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
        self.aggregate_ordered(table, &selected_rows(table, sel), &key_idx)
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

    /// The dense group-by for small key domains, or `None` when there
    /// is no key column, the table is empty, or the product of the key
    /// columns' value ranges exceeds [`DENSE_CAP`]. Each selected row
    /// maps to the slot `Σ (k_c − min_c)·stride_c` (the last key column
    /// varies fastest), the aggregates accumulate into slot-indexed
    /// arrays, and the non-empty slots come out in index order — which
    /// is signed lexicographic key order, so no hash, probe or sort
    /// runs. Rows reach each accumulator in ascending order, as in
    /// [`Self::execute_seq`], so the result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    fn execute_dense(&self, table: &Table, sel: Option<&BitVec>) -> Option<Table> {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        let cols: Vec<&Column> =
            self.group_cols.iter().map(|c| &table.columns[table.col_index(c)]).collect();
        if cols.is_empty() {
            return None;
        }
        // Per key column: its minimum and value range, then the strides.
        let mut dims: Vec<(i64, u64)> = Vec::with_capacity(cols.len());
        let mut domain = 1u64;
        for col in &cols {
            let (lo, hi) = key_bounds(col)?;
            let range = hi.abs_diff(lo).checked_add(1)?;
            domain = domain.checked_mul(range).filter(|&d| d <= DENSE_CAP)?;
            dims.push((lo, range));
        }
        let mut strides = vec![1u32; cols.len()];
        for c in (0..cols.len() - 1).rev() {
            strides[c] = strides[c + 1] * dims[c + 1].1 as u32;
        }

        let rows = selected_rows(table, sel);
        let mut slots = vec![0u32; rows.len()];
        for ((col, &(lo, _)), &stride) in cols.iter().zip(&dims).zip(&strides) {
            let kd = &col.data;
            for (slot, &r) in slots.iter_mut().zip(&rows) {
                *slot += kd[r].wrapping_sub(lo) as u32 * stride;
            }
        }
        let states = self.fold(table, &rows, &slots, domain as usize);
        let mut seen = vec![false; domain as usize];
        slots.iter().for_each(|&g| seen[g as usize] = true);
        let live: Vec<usize> = (0..domain as usize).filter(|&g| seen[g]).collect();

        let key_cols = self.group_cols.iter().zip(dims.iter().zip(&strides)).map(
            |(name, (&(lo, range), &stride))| {
                let key = |g: usize| lo.wrapping_add((g as u64 / stride as u64 % range) as i64);
                Column::i64(name, live.iter().map(|&g| key(g)).collect())
            },
        );
        let agg_cols = self
            .aggs
            .iter()
            .zip(&states)
            .map(|((name, _), s)| Column::i64(name, live.iter().map(|&g| s[g]).collect()));
        Some(Table::new(key_cols.chain(agg_cols).collect()))
    }

    /// The hash group-by behind [`Self::execute`], in two passes over
    /// `rows`:
    ///
    /// 1. *Probe*: each row's key resolves to a dense `u32` group id in
    ///    an open-addressed [`SwarGroups`] table. Capacity starts at
    ///    `2 × rows` rounded up to a power of two, capped at 16 Ki slots
    ///    (64 KiB), so inputs up to 8 Ki rows never rehash and larger
    ///    ones grow with their group count rather than their row count.
    ///    Single-key specs hash the column values directly; wider specs
    ///    pack each row's key tuple into a contiguous `u64`-word region
    ///    and hash the flattened words — both through four CRC lanes. A
    ///    row whose key equals the previous row's reuses that row's
    ///    group id without probing, so key runs (a lineitem shard
    ///    ordered by orderkey, and the joins' output in probe order)
    ///    probe once per run.
    /// 2. *Accumulate*: one aggregate at a time over its resolved input
    ///    slices, indexed by group id — rows in ascending order, as the
    ///    scalar reference folds them ([`Self::fold`]).
    ///
    /// Groups come back unsorted, in first-seen order.
    fn aggregate_swar(&self, table: &Table, rows: &[usize], key_idx: &[usize]) -> FlatGroups {
        assert!(rows.len() < u32::MAX as usize, "row count exceeds the u32 slot encoding");
        let width = key_idx.len();
        let cap = (rows.len() * 2).next_power_of_two().clamp(16, 1 << 14);
        let mut groups = SwarGroups::new(cap, width);
        let mut gids: Vec<u32> = Vec::with_capacity(rows.len());

        if width == 1 {
            let kd = &table.columns[key_idx[0]].data;
            // Row j repeats row j - 1's key.
            let repeats = |j: usize| j > 0 && kd[rows[j]] == kd[rows[j - 1]];
            let mut quads = rows.chunks_exact(4);
            for quad in &mut quads {
                // Lane-batched hashing: four independent CRC streams.
                let keys = [quad[0], quad[1], quad[2], quad[3]].map(|r| kd[r] as u64);
                let h = crc32c_u64_x4_hw(keys);
                for j in 0..4 {
                    let g = if repeats(gids.len()) {
                        gids[gids.len() - 1]
                    } else {
                        groups.group_of(&keys[j..j + 1], h[j])
                    };
                    gids.push(g);
                }
            }
            for &row in quads.remainder() {
                let key = kd[row] as u64;
                let g = if repeats(gids.len()) {
                    gids[gids.len() - 1]
                } else {
                    groups.group_of(&[key], crc32c_u64_hw(key))
                };
                gids.push(g);
            }
        } else {
            // Flattened composite-key encoding: row j's key tuple packs
            // into flat[j*width .. (j+1)*width], hashed as one wide key.
            let mut flat = vec![0u64; rows.len() * width];
            for (c, &ki) in key_idx.iter().enumerate() {
                let kd = &table.columns[ki].data;
                for (j, &row) in rows.iter().enumerate() {
                    flat[j * width + c] = kd[row] as u64;
                }
            }
            // Row j repeats row j - 1's key when their word regions match.
            let repeats =
                |j: usize| j > 0 && flat[j * width..][..width] == flat[(j - 1) * width..][..width];
            let mut quads = flat.chunks_exact(4 * width);
            for quad in &mut quads {
                let lanes: [&[u64]; 4] = std::array::from_fn(|j| &quad[j * width..][..width]);
                let h = crc32c_wide_x4_hw(lanes);
                for j in 0..4 {
                    let g = if repeats(gids.len()) {
                        gids[gids.len() - 1]
                    } else {
                        groups.group_of(lanes[j], h[j])
                    };
                    gids.push(g);
                }
            }
            for key in quads.remainder().chunks_exact(width) {
                let g = if repeats(gids.len()) {
                    gids[gids.len() - 1]
                } else {
                    groups.group_of(key, crc32c_wide_hw(key))
                };
                gids.push(g);
            }
        }

        let states = self.fold(table, rows, &gids, groups.keys.len() / width);
        FlatGroups { width, keys: groups.keys, states }
    }

    /// The pass behind [`Self::execute_ordered`]: one branch-free walk
    /// over `rows` ([`key_runs`]) numbers the key runs and stops at the
    /// first descent, comparing each key tuple with the previous one as
    /// signed lexicographic `i64`s — one- and two-column keys as scalars
    /// and pairs, wider ones column by column (the column-by-column
    /// walk measured about 20 % slower on two-column ordered keys, Q3's
    /// shape). While the keys never
    /// descend, each run of equal keys is one group and the runs come in
    /// ascending key order: [`Self::fold`] accumulates over the
    /// run-indexed group ids and each group's key is read from a row of
    /// its run, so no hash, probe or sort runs.
    fn aggregate_ordered(&self, table: &Table, rows: &[usize], key_idx: &[usize]) -> Option<Table> {
        assert!(rows.len() < u32::MAX as usize, "row count exceeds the u32 group encoding");
        let keys: Vec<&[i64]> = key_idx.iter().map(|&i| table.columns[i].data.as_slice()).collect();
        let mut gids = vec![0u32; rows.len()];
        // A row of each key run, one per group.
        let mut reps = vec![0usize; rows.len()];
        // The first row's key in column `k`: where each walk starts.
        let first = |k: &[i64]| rows.first().map_or(0, |&r| k[r]);
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
        reps.truncate(groups);
        let states = self.fold(table, rows, &gids, groups);
        let key_cols = self
            .group_cols
            .iter()
            .zip(&keys)
            .map(|(name, k)| Column::i64(name, reps.iter().map(|&r| k[r]).collect()));
        let agg_cols = self.aggs.iter().zip(states).map(|((name, _), s)| Column::i64(name, s));
        Some(Table::new(key_cols.chain(agg_cols).collect()))
    }

    /// Accumulates every aggregate over `rows` into `n` groups, row
    /// `rows[i]` into group `gids[i]`: one aggregate at a time over its
    /// resolved input slices, rows in the given order. Returns one state
    /// column per aggregate.
    fn fold(&self, table: &Table, rows: &[usize], gids: &[u32], n: usize) -> Vec<Vec<i64>> {
        self.aggs
            .iter()
            .map(|(_, f)| {
                let col = |c: &String| table.columns[table.col_index(c)].data.as_slice();
                let mut s = vec![init_of(f); n];
                let each = gids.iter().map(|&g| g as usize).zip(rows.iter().copied());
                match f {
                    AggFunc::Count => gids.iter().for_each(|&g| s[g as usize] += 1),
                    AggFunc::Sum(c) => {
                        let v = col(c);
                        each.for_each(|(g, r)| s[g] += v[r]);
                    }
                    AggFunc::Min(c) => {
                        let v = col(c);
                        each.for_each(|(g, r)| s[g] = s[g].min(v[r]));
                    }
                    AggFunc::Max(c) => {
                        let v = col(c);
                        each.for_each(|(g, r)| s[g] = s[g].max(v[r]));
                    }
                    AggFunc::SumProduct(a, b) => {
                        let (va, vb) = (col(a), col(b));
                        each.for_each(|(g, r)| s[g] += va[r] * vb[r]);
                    }
                }
                s
            })
            .collect()
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

/// Largest key domain — the product of the key columns' value ranges —
/// the dense group-by ([`GroupBySpec::execute_dense`]) serves. Every
/// aggregate's state array, the occupancy flags and the final slot
/// scan are this long whatever the row count, so the cap bounds what a
/// tiny input can pay for a wide domain. Measured single-key with three
/// aggregates on a 2-vCPU Xeon: at 4096 slots the dense path ties the
/// hash path at 250 rows and wins from 1000 rows up; at 8192 slots
/// (state arrays past 32 KiB) it loses 4× at 250 rows, and at 16 384
/// slots it loses at 1000 rows.
const DENSE_CAP: u64 = 1 << 12;

/// Rows between two checks of the key-ordered group-by's descent flag
/// ([`GroupBySpec::aggregate_ordered`]): small enough that unordered
/// input falls back to hashing after a few hundred rows, large enough
/// that the check costs nothing per row.
const ORDER_CHECK_ROWS: usize = 256;

/// The key runs of `rows` for [`GroupBySpec::aggregate_ordered`], or
/// `None` if some row's key is less than the previous row's. Row
/// `rows[i]` gets its run index in `gids[i]`, and `reps[g]` ends up
/// holding a row of run `g`. `step(r)` compares row `r`'s key with the
/// previous row's (the first row's with itself): whether it differs,
/// and whether it is less. The walk has no per-row branch: descents
/// are ORed into a flag that is checked once per [`ORDER_CHECK_ROWS`]
/// rows. Returns the run count.
fn key_runs(
    rows: &[usize],
    gids: &mut [u32],
    reps: &mut [usize],
    mut step: impl FnMut(usize) -> (bool, bool),
) -> Option<usize> {
    let mut g = 0u32;
    for (ids, rs) in gids.chunks_mut(ORDER_CHECK_ROWS).zip(rows.chunks(ORDER_CHECK_ROWS)) {
        let mut desc = false;
        for (id, &r) in ids.iter_mut().zip(rs) {
            let (ne, lt) = step(r);
            g += ne as u32;
            desc |= lt;
            *id = g;
            reps[g as usize] = r;
        }
        if desc {
            return None;
        }
    }
    Some(if rows.is_empty() { 0 } else { g as usize + 1 })
}

/// The least and greatest value of a column (`None` when empty): from
/// the packed chunks' exact zone maps when it has them, else one scan.
fn key_bounds(col: &Column) -> Option<(i64, i64)> {
    let bounds = |(lo, hi): (i64, i64), (a, b): (i64, i64)| (lo.min(a), hi.max(b));
    match &col.packed {
        Some(p) => p.chunks().iter().map(|c| (c.frame, c.max)).reduce(bounds),
        None => col.data.iter().map(|&k| (k, k)).reduce(bounds),
    }
}

/// The ids of the rows `sel` keeps (every row when `None`), ascending.
fn selected_rows(table: &Table, sel: Option<&BitVec>) -> Vec<usize> {
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

/// Unsorted group-by output in flat form: `width` bit-cast key words
/// per group and one accumulator column per aggregate, groups in the
/// same order in both.
struct FlatGroups {
    width: usize,
    keys: Vec<u64>,
    states: Vec<Vec<i64>>,
}

impl FlatGroups {
    /// The key-sorted result table: one permutation sort of the group
    /// ids by key tuple, compared as `i64` (a bit-cast `u64` order
    /// would put negative keys last), then one gather per column. Keys
    /// are distinct, so the unstable sort is deterministic.
    fn into_table(self, spec: &GroupBySpec) -> Table {
        let w = self.width;
        let key = |g: usize| self.keys[g * w..][..w].iter().map(|&k| k as i64);
        let mut perm: Vec<usize> = (0..self.keys.len() / w).collect();
        perm.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let key_cols = spec.group_cols.iter().enumerate().map(|(i, name)| {
            Column::i64(name, perm.iter().map(|&g| self.keys[g * w + i] as i64).collect())
        });
        let agg_cols = spec
            .aggs
            .iter()
            .zip(&self.states)
            .map(|((name, _), s)| Column::i64(name, perm.iter().map(|&g| s[g]).collect()));
        Table::new(key_cols.chain(agg_cols).collect())
    }
}

/// Open-addressed group table for the SWAR probe loop: linear probing
/// over power-of-two slots, groups stored densely in first-seen order
/// with flattened keys (`width` bit-cast `u64` words per group) and
/// their hashes. The slots double whenever the groups would fill half
/// of them, so the table tracks the group count, not the row count, and
/// every probe terminates on an empty slot.
struct SwarGroups {
    /// `64 - log2(slots.len())`: a group's home slot is the top bits of
    /// its CRC's Fibonacci mix ([`vector::fib_mix`]), never the CRC's
    /// low bits, which a hash shard's keys share.
    shift: u32,
    slots: Vec<u32>,
    hashes: Vec<u32>,
    width: usize,
    keys: Vec<u64>,
    /// Slots visited by [`Self::group_of`], for the probe-length test.
    #[cfg(test)]
    probes: usize,
}

impl SwarGroups {
    /// An empty table with `cap` slots (a power of two).
    fn new(cap: usize, width: usize) -> Self {
        SwarGroups {
            shift: 64 - cap.trailing_zeros(),
            slots: vec![0u32; cap],
            hashes: Vec::new(),
            width,
            keys: Vec::new(),
            #[cfg(test)]
            probes: 0,
        }
    }

    /// Dense id of `key`'s group (a `width`-word flattened tuple),
    /// inserting it on first sight.
    #[inline]
    fn group_of(&mut self, key: &[u64], hash: u32) -> u32 {
        let w = self.width;
        let mask = self.slots.len() - 1;
        let mut i = home(hash, self.shift);
        loop {
            #[cfg(test)]
            {
                self.probes += 1;
            }
            let s = self.slots[i];
            if s == 0 {
                self.keys.extend_from_slice(key);
                self.hashes.push(hash);
                let g = self.hashes.len() as u32;
                self.slots[i] = g;
                if 2 * self.hashes.len() > self.slots.len() {
                    self.grow();
                }
                return g - 1;
            }
            if &self.keys[(s as usize - 1) * w..][..w] == key {
                return s - 1;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slots and re-inserts every group from its stored hash.
    #[cold]
    fn grow(&mut self) {
        self.shift -= 1;
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, 0);
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut i = home(h, self.shift);
            while self.slots[i] != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = g as u32 + 1;
        }
    }
}

/// Home slot of a group with CRC `hash` in a table of `2^(64 - shift)`
/// slots.
#[inline]
fn home(hash: u32, shift: u32) -> usize {
    (vector::fib_mix(hash as u64) >> shift) as usize
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
    use dpu_isa::hash::crc32c_u64;

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

    #[test]
    fn one_shard_residue_keeps_group_probes_short() {
        // A hash shard's keys: every CRC32 ≡ 3 (mod 8), as
        // `ShardPolicy::hash(8)` leaves Q18's `l_orderkey` on a shard.
        let keys: Vec<i64> =
            (0i64..).filter(|&k| crc32c_u64(k as u64) % 8 == 3).take(3000).collect();
        let n = keys.len() * 3;
        let t = Table::new(vec![
            Column::i64("k", keys.iter().cycle().take(n).copied().collect()),
            Column::i64("v", (0..n as i64).collect()),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["k".into()],
            aggs: vec![("cnt".into(), AggFunc::Count), ("s".into(), AggFunc::Sum("v".into()))],
        };
        assert_eq!(spec.execute(&t, None), spec.execute_seq(&t, None));
        let mut groups = SwarGroups::new(16, 1);
        for &k in &t.columns[0].data {
            groups.group_of(&[k as u64], crc32c_u64(k as u64));
        }
        let mean = groups.probes as f64 / n as f64;
        assert!(mean < 2.0, "mean probe length {mean:.2} slots");
    }

    #[test]
    fn dense_path_serves_key_domains_up_to_the_cap() {
        let one =
            GroupBySpec { group_cols: vec!["k".into()], aggs: vec![("c".into(), AggFunc::Count)] };
        let keys = |k: Vec<i64>| Table::new(vec![Column::i64("k", k)]);
        let cap = DENSE_CAP as i64;
        assert!(one.execute_dense(&keys(vec![-5, cap - 6]), None).is_some());
        assert!(one.execute_dense(&keys(vec![-5, cap - 5]), None).is_none());
        assert!(one.execute_dense(&keys(vec![i64::MIN, i64::MAX]), None).is_none());
        assert!(one.execute_dense(&keys(vec![]), None).is_none());

        // 64 × 64 composite slots sit at the cap, 64 × 65 above it; the
        // packed zone maps give the same bounds as a scan.
        let two = GroupBySpec { group_cols: vec!["a".into(), "b".into()], ..one };
        for (b_range, dense) in [(64, true), (65, false)] {
            let mut t = Table::new(vec![
                Column::i64("a", (0..5000).map(|i| i % 64).collect()),
                Column::i64("b", (0..5000).map(|i| -(i / 64 % b_range) - 1).collect()),
            ]);
            assert_eq!(two.execute_dense(&t, None).is_some(), dense, "flat b_range={b_range}");
            t.encode_packed();
            assert!(t.columns.iter().all(|c| c.packed.is_some()));
            assert_eq!(two.execute_dense(&t, None).is_some(), dense, "packed b_range={b_range}");
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
}
