//! Partitioned hash join.
//!
//! §5.3: "We also implemented other SQL operations like Join and Top-k
//! using partitioning techniques similar to those described above" — both
//! sides are hash-partitioned (DMS hardware + software rounds) until each
//! build-side partition's hash table fits DMEM, then each dpCore builds
//! and probes its partition independently.

use std::collections::HashMap;

use dpu_isa::hash::crc32c_u64;
use dpu_pool::{chunk_bounds, in_worker, Pool};

use crate::column::{pack, Column, Table};
use crate::vector::{self, Kernel};
use crate::PAR_MIN_ROWS;

/// An equi-join of two tables.
#[derive(Debug, Clone)]
pub struct HashJoin {
    /// Build-side key column name.
    pub build_key: String,
    /// Probe-side key column name.
    pub probe_key: String,
    /// Columns to project from the build side (renamed as-is).
    pub build_cols: Vec<String>,
    /// Columns to project from the probe side.
    pub probe_cols: Vec<String>,
}

impl HashJoin {
    /// Executes the inner join with `fanout`-way CRC32 partitioning,
    /// returning the projected result and the largest build-partition
    /// entry count (for DMEM-budget assertions).
    ///
    /// Output rows appear in (partition, probe-order) order. Large
    /// inputs run on the global host pool ([`Self::execute_on`]); the
    /// result is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
        // Packed execution (`DPU_PACK`): unpack each side's referenced
        // columns (key + projections) in lane batches once, then run the
        // flat kernels unchanged — bit-identical results either way.
        let p = pack();
        let brefs: Vec<&str> = std::iter::once(self.build_key.as_str())
            .chain(self.build_cols.iter().map(String::as_str))
            .collect();
        let prefs: Vec<&str> = std::iter::once(self.probe_key.as_str())
            .chain(self.probe_cols.iter().map(String::as_str))
            .collect();
        let (bd, pd) = (build.decode_for(&brefs, p), probe.decode_for(&prefs, p));
        self.execute_flat(bd.as_ref().unwrap_or(build), pd.as_ref().unwrap_or(probe), fanout)
    }

    fn execute_flat(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
        let pool = Pool::global();
        if pool.threads() > 1
            && !in_worker()
            && fanout > 1
            && build.rows() + probe.rows() >= PAR_MIN_ROWS
        {
            self.execute_on(pool, build, probe, fanout)
        } else {
            self.execute_seq(build, probe, fanout)
        }
    }

    vector::kernel_entry! {
        /// The sequential join kernel (the exact pre-parallelism code
        /// path), partitioning with the process-wide kernel —
        /// bit-identical at any setting, since every CRC arm computes
        /// the same CRC32-C.
        ///
        /// # Panics
        ///
        /// Panics if named columns are missing or `fanout` is zero.
        pub fn execute_seq(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64)
            => |kernel| self.execute_seq_with(build, probe, fanout, kernel)
    }

    /// [`Self::execute_seq`] with an explicit kernel: the SWAR arms
    /// build and probe one flat [`JoinTable`] reused across partitions;
    /// [`Kernel::Scalar`] keeps a `HashMap` per partition as the
    /// differential reference. Both emit matches in (partition, probe
    /// row, ascending build row) order, so the results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute_seq_with(
        &self,
        build: &Table,
        probe: &Table,
        fanout: u64,
        kernel: Kernel,
    ) -> (Table, u64) {
        assert!(fanout > 0, "fanout must be positive");
        let bkeys = &build.columns[build.col_index(&self.build_key)].data;
        let pkeys = &probe.columns[probe.col_index(&self.probe_key)].data;
        let bparts = partition_row_ids_with(bkeys, 0, fanout, kernel);
        let pparts = partition_row_ids_with(pkeys, 0, fanout, kernel);
        let parts: Vec<_> = bparts.iter().zip(&pparts).collect();

        let (brows, prows) = if kernel.vectorized() {
            join_flat(bkeys, pkeys, &parts)
        } else {
            let (mut brows, mut prows) = (Vec::new(), Vec::new());
            for (bp, pp) in parts {
                // key → build row ids (handles duplicate build keys).
                let mut ht: HashMap<i64, Vec<usize>> = HashMap::new();
                for &r in bp {
                    ht.entry(bkeys[r]).or_default().push(r);
                }
                for &pr in pp {
                    for &br in ht.get(&pkeys[pr]).into_iter().flatten() {
                        brows.push(br);
                        prows.push(pr);
                    }
                }
            }
            (brows, prows)
        };
        (self.project(build, probe, &brows, &prows), max_len(&bparts))
    }

    /// The pool-parallel join kernel: chunk-parallel partitioning, then
    /// one task per run of consecutive partitions, each reusing one flat
    /// [`JoinTable`]; the runs' matches concatenate in partition order —
    /// bit-identical to [`Self::execute_seq`] (partitions are disjoint
    /// and each preserves probe order, which is exactly the sequential
    /// emission order).
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute_on(
        &self,
        pool: Pool,
        build: &Table,
        probe: &Table,
        fanout: u64,
    ) -> (Table, u64) {
        assert!(fanout > 0, "fanout must be positive");
        let bkeys = &build.columns[build.col_index(&self.build_key)].data;
        let pkeys = &probe.columns[probe.col_index(&self.probe_key)].data;
        let bparts = par_partition(pool, bkeys, fanout);
        let pparts = par_partition(pool, pkeys, fanout);
        let parts: Vec<_> = bparts.iter().zip(&pparts).collect();

        let runs = chunk_bounds(parts.len(), pool.threads() * 4);
        let per_run = pool.par_map(runs, |(lo, hi)| join_flat(bkeys, pkeys, &parts[lo..hi]));
        let brows: Vec<usize> = per_run.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        let prows: Vec<usize> = per_run.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        (self.project(build, probe, &brows, &prows), max_len(&bparts))
    }

    /// Gathers the projected columns of the matched `(brows[i], prows[i])`
    /// pairs, one column at a time.
    fn project(&self, build: &Table, probe: &Table, brows: &[usize], prows: &[usize]) -> Table {
        let gather = |t: &Table, name: &String, rows: &[usize]| {
            let data = &t.columns[t.col_index(name)].data;
            Column::i64(name, rows.iter().map(|&r| data[r]).collect())
        };
        let build_cols = self.build_cols.iter().map(|c| gather(build, c, brows));
        let probe_cols = self.probe_cols.iter().map(|c| gather(probe, c, prows));
        Table::new(build_cols.chain(probe_cols).collect())
    }
}

/// Largest partition size (the DMEM-budget figure joins report).
fn max_len(parts: &[Vec<usize>]) -> u64 {
    parts.iter().map(Vec::len).max().unwrap_or(0) as u64
}

/// Builds and probes each `(build rows, probe rows)` partition in turn
/// through one [`JoinTable`] sized for the largest, returning the
/// matched build and probe row ids in emission order.
fn join_flat(
    bkeys: &[i64],
    pkeys: &[i64],
    parts: &[(&Vec<usize>, &Vec<usize>)],
) -> (Vec<usize>, Vec<usize>) {
    let mut table =
        JoinTable::with_capacity(parts.iter().map(|(bp, _)| bp.len()).max().unwrap_or(0));
    let (mut brows, mut prows) = (Vec::new(), Vec::new());
    for &(bp, pp) in parts {
        if bp.is_empty() {
            continue;
        }
        table.build(bkeys, bp);
        for &pr in pp {
            let mut pos = table.find(pkeys[pr]);
            while pos != NIL {
                brows.push(bp[pos as usize]);
                prows.push(pr);
                pos = table.next[pos as usize];
            }
        }
    }
    (brows, prows)
}

/// End of a build chain.
const NIL: u32 = u32::MAX;

/// One partition's join table, flat like the paper's DMEM-resident
/// tables (§5.3): open-addressed `u32` slots at twice the build size
/// hold dense key ids (0 = empty), each key keeps the first and last
/// build position of its chain, and `next` links build positions in
/// build-row order — so a probe walks its matches in ascending build
/// row. [`Self::build`] clears and refills the same buffers for every
/// partition, so a join allocates its table once.
struct JoinTable {
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the
    /// product's top bits. The partition's keys share their CRC32
    /// residue, so the slot hash must not be the partitioning CRC.
    shift: u32,
    slots: Vec<u32>,
    keys: Vec<i64>,
    first: Vec<u32>,
    last: Vec<u32>,
    next: Vec<u32>,
}

impl JoinTable {
    /// A table whose buffers hold a `rows`-row partition without
    /// reallocating.
    fn with_capacity(rows: usize) -> Self {
        assert!(rows < NIL as usize / 2, "build partition exceeds the u32 slot encoding");
        JoinTable {
            shift: 0,
            slots: Vec::with_capacity(slot_count(rows)),
            keys: Vec::with_capacity(rows),
            first: Vec::with_capacity(rows),
            last: Vec::with_capacity(rows),
            next: Vec::with_capacity(rows),
        }
    }

    /// Home slot of `key` (Fibonacci hashing).
    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Replaces the contents with the build rows `rows` (ascending) of
    /// the key column `keys`.
    fn build(&mut self, keys: &[i64], rows: &[usize]) {
        let cap = slot_count(rows.len());
        self.shift = 64 - cap.trailing_zeros();
        self.slots.clear();
        self.slots.resize(cap, 0);
        self.keys.clear();
        self.first.clear();
        self.last.clear();
        self.next.clear();
        for (pos, &r) in rows.iter().enumerate() {
            let (key, pos) = (keys[r], pos as u32);
            self.next.push(NIL);
            let mut i = self.home(key);
            loop {
                match self.slots[i] {
                    0 => {
                        self.keys.push(key);
                        self.first.push(pos);
                        self.last.push(pos);
                        self.slots[i] = self.keys.len() as u32;
                        break;
                    }
                    s if self.keys[s as usize - 1] == key => {
                        let k = s as usize - 1;
                        self.next[self.last[k] as usize] = pos;
                        self.last[k] = pos;
                        break;
                    }
                    _ => i = (i + 1) & (cap - 1),
                }
            }
        }
    }

    /// The first build position holding `key`, or [`NIL`].
    #[inline]
    fn find(&self, key: i64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return NIL,
                s if self.keys[s as usize - 1] == key => return self.first[s as usize - 1],
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Slots for a `rows`-row build: twice the rows, a power of two, so the
/// table stays at most half full and every probe ends on an empty slot.
fn slot_count(rows: usize) -> usize {
    (rows * 2).next_power_of_two().max(16)
}

vector::kernel_entry! {
    /// `fanout`-way CRC32 row-id partitioning of a whole column with the
    /// process-wide kernel (scalar bit-serial CRC, the 4-lane SWAR
    /// table stream, or the SSE4.2 hardware stream) — bit-identical in
    /// every case.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn partition_row_ids(keys: &[i64], fanout: u64) -> Vec<Vec<usize>>
        => |kernel| partition_row_ids_with(keys, 0, fanout, kernel)
}

/// [`partition_row_ids`] with an explicit base row id (for chunked
/// callers partitioning `[base, base + keys.len())` of a larger column)
/// and kernel choice.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn partition_row_ids_with(
    keys: &[i64],
    base: usize,
    fanout: u64,
    kernel: Kernel,
) -> Vec<Vec<usize>> {
    match kernel {
        Kernel::Swar | Kernel::HwCrc => vector::partition_row_ids(keys, base, fanout, kernel),
        Kernel::Scalar => {
            assert!(fanout > 0, "fanout must be positive");
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
            for (r, &key) in keys.iter().enumerate() {
                parts[(crc32c_u64(key as u64) as u64 % fanout) as usize].push(base + r);
            }
            parts
        }
    }
}

/// `fanout`-way CRC32 row-id partitioning, chunk-parallel on `pool`.
/// Chunk results concatenate in chunk order, so every partition's row
/// ids come out ascending — exactly the sequential partitioning.
fn par_partition(pool: Pool, keys: &[i64], fanout: u64) -> Vec<Vec<usize>> {
    let kernel = vector::kernel();
    let per_chunk = pool.par_map(chunk_bounds(keys.len(), pool.threads() * 4), |(lo, hi)| {
        partition_row_ids_with(&keys[lo..hi], lo, fanout, kernel)
    });
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
    for chunk in per_chunk {
        for (p, rows) in chunk.into_iter().enumerate() {
            parts[p].extend(rows);
        }
    }
    parts
}

/// Convenience: joins `probe` against `build` on integer keys and
/// returns the result sorted by all columns (for order-insensitive
/// comparisons in tests and queries).
pub fn sorted_rows(t: &Table) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> =
        (0..t.rows()).map(|r| t.columns.iter().map(|c| c.data[r]).collect()).collect();
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim_and_fact() -> (Table, Table) {
        let dim = Table::new(vec![
            Column::i32("id", vec![1, 2, 3, 4]),
            Column::i32("cat", vec![10, 20, 30, 40]),
        ]);
        let fact = Table::new(vec![
            Column::i32("fk", vec![2, 3, 2, 9, 1]),
            Column::i32("val", vec![100, 200, 300, 400, 500]),
        ]);
        (dim, fact)
    }

    #[test]
    fn inner_join_matches_reference() {
        let (dim, fact) = dim_and_fact();
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into()],
        };
        let (out, _) = j.execute(&dim, &fact, 4);
        // fk=9 drops; (2,100)→20, (3,200)→30, (2,300)→20, (1,500)→10.
        let got = sorted_rows(&out);
        assert_eq!(got, vec![vec![10, 500], vec![20, 100], vec![20, 300], vec![30, 200]]);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let dim = Table::new(vec![Column::i32("id", vec![7, 7]), Column::i32("tag", vec![1, 2])]);
        let fact = Table::new(vec![Column::i32("fk", vec![7])]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["tag".into()],
            probe_cols: vec!["fk".into()],
        };
        let (out, _) = j.execute(&dim, &fact, 2);
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn fanout_does_not_change_result() {
        let (dim, fact) = dim_and_fact();
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into()],
        };
        let (a, _) = j.execute(&dim, &fact, 1);
        let (b, _) = j.execute(&dim, &fact, 32);
        assert_eq!(sorted_rows(&a), sorted_rows(&b));
    }

    #[test]
    fn max_build_partition_shrinks_with_fanout() {
        let dim = Table::new(vec![Column::i32("id", (0..10_000).collect())]);
        let fact = Table::new(vec![Column::i32("fk", (0..100).collect())]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["id".into()],
            probe_cols: vec![],
        };
        let (_, m1) = j.execute(&dim, &fact, 1);
        let (_, m32) = j.execute(&dim, &fact, 32);
        assert_eq!(m1, 10_000);
        assert!(m32 < 500, "32-way split should be ≈312 rows, got {m32}");
    }

    #[test]
    fn parallel_join_is_bit_identical_to_sequential() {
        // Many rows with duplicate keys, both projected sides.
        let dim = Table::new(vec![
            Column::i32("id", (0..3000).map(|i| i % 700).collect()),
            Column::i32("cat", (0..3000).map(|i| i * 3).collect()),
        ]);
        let fact = Table::new(vec![
            Column::i32("fk", (0..5000).map(|i| (i * 7) % 900).collect()),
            Column::i32("val", (0..5000).collect()),
        ]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into(), "fk".into()],
        };
        for fanout in [1u64, 2, 32] {
            let (want, want_max) = j.execute_seq(&dim, &fact, fanout);
            for workers in [1usize, 2, 4, 7] {
                let (got, got_max) = j.execute_on(Pool::new(workers), &dim, &fact, fanout);
                // Exact row order, not just multiset equality.
                assert_eq!(got, want, "fanout={fanout} workers={workers}");
                assert_eq!(got_max, want_max);
            }
        }
    }

    #[test]
    fn join_table_chains_colliding_keys_in_build_order() {
        // k·C ≡ j (mod 2⁶⁴) for the multiplier's inverse: every key's
        // product is tiny, so all of them share home slot 0.
        const C: u64 = 0x9E37_79B9_7F4A_7C15;
        let inv = (0..6).fold(C, |x, _| x.wrapping_mul(2u64.wrapping_sub(C.wrapping_mul(x))));
        let distinct: Vec<i64> = (1..=50u64).map(|j| j.wrapping_mul(inv) as i64).collect();
        // Each key twice, the copies 50 rows apart.
        let keys: Vec<i64> = distinct.iter().chain(&distinct).copied().collect();
        let rows: Vec<usize> = (0..keys.len()).collect();
        let mut table = JoinTable::with_capacity(keys.len());
        table.build(&keys, &rows);
        assert!(distinct.iter().all(|&k| table.home(k) == 0));
        for (i, &k) in distinct.iter().enumerate() {
            let first = table.find(k);
            assert_eq!(first, i as u32);
            assert_eq!(table.next[first as usize], i as u32 + 50);
            assert_eq!(table.next[i + 50], NIL);
        }
        assert_eq!(table.find(51u64.wrapping_mul(inv) as i64), NIL);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let dim = Table::new(vec![Column::i32("id", vec![])]);
        let fact = Table::new(vec![Column::i32("fk", vec![])]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["id".into()],
            probe_cols: vec!["fk".into()],
        };
        let (out, max_build) = j.execute(&dim, &fact, 8);
        assert_eq!(out.rows(), 0);
        assert_eq!(max_build, 0);
    }
}
