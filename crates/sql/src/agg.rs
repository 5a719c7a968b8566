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

use dpu_isa::hash::crc32c_u64;
use dpu_pool::{chunk_bounds, in_worker, Pool};

use crate::bitvec::BitVec;
use crate::column::{Column, Table};
use crate::vector::{self, Kernel};
use crate::PAR_MIN_ROWS;

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
    /// path; timing goes through [`GroupByPlan`]. Large inputs run on
    /// the global host pool ([`Self::execute_on`]); the result is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or the selection length
    /// mismatches.
    pub fn execute(&self, table: &Table, sel: Option<&BitVec>) -> Table {
        let pool = Pool::global();
        if pool.threads() > 1
            && !in_worker()
            && !self.group_cols.is_empty()
            && table.rows() >= PAR_MIN_ROWS
        {
            self.execute_on(pool, table, sel)
        } else if vector::kernel().vectorized() && !self.group_cols.is_empty() {
            self.execute_vector(table, sel)
        } else {
            self.execute_seq(table, sel)
        }
    }

    /// The sequential group-by kernel (the exact pre-parallelism path).
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

    vector::kernel_entry! {
        /// The SWAR group-by kernel ([`Self::execute_vector_with`]) on
        /// the process-wide kernel's CRC engine.
        ///
        /// # Panics
        ///
        /// Panics if a named column is missing, the selection length
        /// mismatches, or there are no group columns.
        pub fn execute_vector(&self, table: &Table, sel: Option<&BitVec>) -> Table
            => |kernel| self.execute_vector_with(table, sel, kernel)
    }

    /// The SWAR group-by kernel for any number of grouping columns:
    /// selected rows stream in ascending order (selection consumed a
    /// word at a time) through lane-batched key hashing — four keys per
    /// CRC batch, composite keys flattened into contiguous `u64` words —
    /// into an open-addressed group table, then each aggregate
    /// accumulates column-at-a-time and the groups come out through one
    /// permutation sort by key ([`FlatGroups::into_table`]). Per-group
    /// accumulation visits rows in the same ascending order as
    /// [`Self::execute_seq`], so the result is bit-identical. `kernel`
    /// selects the CRC engine (every arm hashes identically).
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing, the selection length
    /// mismatches, or there are no group columns.
    pub fn execute_vector_with(
        &self,
        table: &Table,
        sel: Option<&BitVec>,
        kernel: Kernel,
    ) -> Table {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        assert!(!self.group_cols.is_empty(), "vector group-by needs a key column");
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let rows: Vec<usize> = match sel {
            Some(bv) => bv.iter_set().collect(),
            None => (0..table.rows()).collect(),
        };
        self.aggregate_swar(table, &rows, &key_idx, kernel).into_table(self)
    }

    /// The group-by shared by [`Self::execute_vector_with`] and the
    /// parallel leaf tasks, in two passes over `rows`:
    ///
    /// 1. *Probe*: each row's key resolves to a dense `u32` group id in
    ///    an open-addressed [`SwarGroups`] table. Capacity starts at
    ///    `2 × rows` rounded up to a power of two, capped at 16 Ki slots
    ///    (64 KiB), so inputs up to 8 Ki rows never rehash and larger
    ///    ones grow with their group count rather than their row count.
    ///    Single-key specs hash the column values directly; wider specs
    ///    pack each row's key tuple into a contiguous `u64`-word region
    ///    and hash the flattened words — both through four CRC lanes on
    ///    `kernel`'s engine.
    /// 2. *Accumulate*: one aggregate at a time over its resolved input
    ///    slices, indexed by group id — rows in ascending order, as the
    ///    scalar reference folds them.
    ///
    /// Groups come back unsorted, in first-seen order.
    fn aggregate_swar(
        &self,
        table: &Table,
        rows: &[usize],
        key_idx: &[usize],
        kernel: Kernel,
    ) -> FlatGroups {
        assert!(rows.len() < u32::MAX as usize, "row count exceeds the u32 slot encoding");
        let width = key_idx.len();
        let cap = (rows.len() * 2).next_power_of_two().clamp(16, 1 << 14);
        let mut groups = SwarGroups::new(cap, width);
        let mut gids: Vec<u32> = Vec::with_capacity(rows.len());

        if width == 1 {
            let kd = &table.columns[key_idx[0]].data;
            let mut quads = rows.chunks_exact(4);
            for quad in &mut quads {
                // Lane-batched hashing: four independent CRC streams.
                let keys = [quad[0], quad[1], quad[2], quad[3]].map(|r| kd[r] as u64);
                let h = vector::hash_x4(kernel, keys);
                for j in 0..4 {
                    gids.push(groups.group_of(&keys[j..j + 1], h[j]));
                }
            }
            for &row in quads.remainder() {
                let key = kd[row] as u64;
                gids.push(groups.group_of(&[key], vector::hash1(kernel, key)));
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
            let mut quads = flat.chunks_exact(4 * width);
            for quad in &mut quads {
                let lanes: [&[u64]; 4] = std::array::from_fn(|j| &quad[j * width..][..width]);
                let h = vector::hash_wide_x4(kernel, lanes);
                for j in 0..4 {
                    gids.push(groups.group_of(lanes[j], h[j]));
                }
            }
            for key in quads.remainder().chunks_exact(width) {
                gids.push(groups.group_of(key, vector::hash_wide(kernel, key)));
            }
        }

        let n = groups.keys.len() / width;
        let states = self
            .aggs
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
            .collect();
        FlatGroups { width, keys: groups.keys, states }
    }

    vector::kernel_entry! {
        /// The pool-parallel group-by kernel: selected rows partition by
        /// CRC32 of the *first* key column (a group's rows all share it,
        /// so partitions hold disjoint groups), each partition
        /// aggregates independently, and the merged groups sort by full
        /// key — exactly the key-sorted table [`Self::execute_seq`]
        /// produces. Leaf aggregation runs the process-wide kernel
        /// (`DPU_VECTOR`).
        ///
        /// # Panics
        ///
        /// Panics if a named column is missing, the selection length
        /// mismatches, or there are no group columns.
        pub fn execute_on(&self, pool: Pool, table: &Table, sel: Option<&BitVec>) -> Table
            => |kernel| self.execute_on_with(pool, table, sel, kernel)
    }

    /// [`Self::execute_on`] with an explicit kernel for the hash and
    /// leaf-aggregation inner loops, for differential tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing, the selection length
    /// mismatches, or there are no group columns.
    pub fn execute_on_with(
        &self,
        pool: Pool,
        table: &Table,
        sel: Option<&BitVec>,
        kernel: Kernel,
    ) -> Table {
        if let Some(bv) = sel {
            assert_eq!(bv.len(), table.rows(), "selection length mismatch");
        }
        let key_idx: Vec<usize> = self.group_cols.iter().map(|c| table.col_index(c)).collect();
        let first = *key_idx.first().expect("parallel group-by needs a key column");

        // Chunk-parallel partitioning of the selected row ids; the
        // selection is consumed a word at a time, never via per-row
        // bit reads. The partition comes from the CRC's Fibonacci mix:
        // a hash shard grouped by its sharding key holds keys of one
        // CRC residue, which `crc % parts_n` would route to few parts.
        let parts_n = (pool.threads() * 4).max(2);
        let per_chunk = pool.par_map(chunk_bounds(table.rows(), pool.threads() * 4), |(lo, hi)| {
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
            let kd = &table.columns[first].data;
            let mut route = |row: usize| {
                let h = vector::hash1(kernel, kd[row] as u64);
                parts[(vector::fib_mix(h as u64) >> 32) as usize % parts_n].push(row);
            };
            match sel {
                Some(bv) => bv.iter_set_in(lo, hi).for_each(&mut route),
                None => (lo..hi).for_each(&mut route),
            }
            parts
        });
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
        for chunk in per_chunk {
            for (p, rows) in chunk.into_iter().enumerate() {
                parts[p].extend(rows);
            }
        }

        // Disjoint groups per partition: aggregate independently, then
        // one global key sort reproduces the sequential output order.
        let partials = pool.par_map(parts, |rows| {
            if kernel.vectorized() {
                return self.aggregate_swar(table, &rows, &key_idx, kernel);
            }
            let init = self.state_init();
            let agg_cols = self.agg_col_indices(table);
            let mut groups: HashMap<Vec<i64>, Vec<i64>> = HashMap::new();
            for row in rows {
                let key: Vec<i64> = key_idx.iter().map(|&i| table.columns[i].data[row]).collect();
                let state = groups.entry(key).or_insert_with(|| init.clone());
                self.accumulate(table, row, &agg_cols, state);
            }
            let mut flat = FlatGroups::empty(key_idx.len(), self.aggs.len());
            for (key, state) in groups {
                flat.keys.extend(key.iter().map(|&k| k as u64));
                flat.states.iter_mut().zip(state).for_each(|(col, v)| col.push(v));
            }
            flat
        });
        let mut all = FlatGroups::empty(key_idx.len(), self.aggs.len());
        for p in partials {
            all.keys.extend(p.keys);
            all.states.iter_mut().zip(p.states).for_each(|(col, s)| col.extend(s));
        }
        all.into_table(self)
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
    fn empty(width: usize, aggs: usize) -> Self {
        FlatGroups { width, keys: Vec::new(), states: vec![Vec::new(); aggs] }
    }

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

/// Executes a partitioned group-by the way the DPU would: hash-partition
/// the rows by key (CRC32, as the DMS hash engine computes), aggregate
/// per partition, and merge. Returns the merged result (identical to
/// [`GroupBySpec::execute`]) plus the maximum per-partition table
/// footprint observed, so tests can check the planner's budget promise.
pub fn partitioned_group_by(
    spec: &GroupBySpec,
    table: &Table,
    fanout: u64,
    entry_bytes: u64,
) -> (Table, u64) {
    let key_idx: Vec<usize> = spec.group_cols.iter().map(|c| table.col_index(c)).collect();
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
    for row in 0..table.rows() {
        let k = table.columns[key_idx[0]].data[row];
        parts[(crc32c_u64(k as u64) as u64 % fanout) as usize].push(row);
    }
    // One aggregation task per non-empty partition, in partition order
    // (par_map preserves it; the footprint max and the key-sorted merge
    // below are both order-insensitive anyway).
    let pool = if table.rows() >= PAR_MIN_ROWS { Pool::global() } else { Pool::new(1) };
    let partials: Vec<Table> =
        pool.par_map(parts.iter().filter(|r| !r.is_empty()).collect(), |rows: &Vec<usize>| {
            let sub = Table::new(
                table
                    .columns
                    .iter()
                    .map(|c| Column {
                        name: c.name.clone(),
                        width: c.width,
                        data: rows.iter().map(|&r| c.data[r]).collect(),
                        packed: None,
                    })
                    .collect(),
            );
            spec.execute(&sub, None)
        });
    let max_footprint = partials.iter().map(|p| p.rows() as u64 * entry_bytes).max().unwrap_or(0);
    // Merge: partitions hold disjoint groups, so concatenate and re-sort
    // (the "merge operator" has very low overhead, §5.3).
    let mut all_rows: Vec<Vec<i64>> = Vec::new();
    for p in &partials {
        for r in 0..p.rows() {
            all_rows.push(p.columns.iter().map(|c| c.data[r]).collect());
        }
    }
    let nkeys = spec.group_cols.len();
    all_rows.sort_unstable_by(|a, b| a[..nkeys].cmp(&b[..nkeys]));
    let template = partials.first().cloned().unwrap_or_else(|| spec.execute(table, None));
    let merged = Table::new(
        template
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| Column {
                name: c.name.clone(),
                width: c.width,
                data: all_rows.iter().map(|r| r[i]).collect(),
                packed: None,
            })
            .collect(),
    );
    (merged, max_footprint)
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

    #[test]
    fn partitioned_equals_unpartitioned() {
        let t = sales_table();
        let spec = GroupBySpec {
            group_cols: vec!["k".into()],
            aggs: vec![("cnt".into(), AggFunc::Count), ("s".into(), AggFunc::Sum("v".into()))],
        };
        let reference = spec.execute(&t, None);
        let (partitioned, max_fp) = partitioned_group_by(&spec, &t, 8, 16);
        assert_eq!(partitioned, reference);
        assert!(max_fp <= DPU_TABLE_BUDGET);
    }

    #[test]
    fn parallel_group_by_is_bit_identical_to_sequential() {
        let keys: Vec<i64> = (0..8000).map(|i| (i * 13) % 321).collect();
        let keys2: Vec<i64> = (0..8000).map(|i| i % 4).collect();
        let vals: Vec<i64> = (0..8000).map(|i| i * 3 - 5000).collect();
        let t = Table::new(vec![
            Column::i32("k", keys),
            Column::i32("k2", keys2),
            Column::i32("v", vals.clone()),
            Column::i32("d", vals.iter().map(|v| v % 11).collect()),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["k".into(), "k2".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
                ("sp".into(), AggFunc::SumProduct("v".into(), "d".into())),
            ],
        };
        for sel in [None, Some(BitVec::from_fn(8000, |i| i % 3 != 0))] {
            let want = spec.execute_seq(&t, sel.as_ref());
            for workers in [1usize, 2, 4, 7] {
                let got = spec.execute_on(Pool::new(workers), &t, sel.as_ref());
                assert_eq!(got, want, "workers={workers} sel={}", sel.is_some());
            }
        }
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
        let want = spec.execute_seq(&t, None);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            assert_eq!(spec.execute_vector_with(&t, None, kernel), want, "{kernel:?}");
            assert_eq!(spec.execute_on_with(Pool::new(2), &t, None, kernel), want, "{kernel:?}");
        }
        let mut groups = SwarGroups::new(16, 1);
        for &k in &t.columns[0].data {
            groups.group_of(&[k as u64], crc32c_u64(k as u64));
        }
        let mean = groups.probes as f64 / n as f64;
        assert!(mean < 2.0, "mean probe length {mean:.2} slots");
    }

    #[test]
    fn partition_footprint_shrinks_with_fanout() {
        let keys: Vec<i64> = (0..20_000).map(|i| i * 7 % 5000).collect();
        let t = Table::new(vec![Column::i32("k", keys)]);
        let spec =
            GroupBySpec { group_cols: vec!["k".into()], aggs: vec![("c".into(), AggFunc::Count)] };
        let (_, fp1) = partitioned_group_by(&spec, &t, 1, 16);
        let (_, fp32) = partitioned_group_by(&spec, &t, 32, 16);
        assert!(fp32 * 16 < fp1, "32-way fanout should cut footprint ~32×");
    }
}
