//! Hash join.
//!
//! §5.3: "We also implemented other SQL operations like Join and Top-k
//! using partitioning techniques similar to those described above" — on
//! the DPU both sides are hash-partitioned (DMS hardware + software
//! rounds) until each build-side partition's hash table fits DMEM. The
//! cost model prices that from the build rows; the host has no 32 KB
//! DMEM to fit, so it builds one table over all selected build rows and
//! probes in probe-row order. The partition fanout only sizes the
//! largest build partition [`HashJoin::execute`] reports. Each side
//! arrives as a table plus an optional selection bit vector, as FILT
//! leaves it, so a filtered scan is never copied before its join.
//!
//! The paper's scan never branches on data: FILT/BVLD set a bit per row
//! and the DMS gathers only the rows the bit vector keeps (§4–5). The
//! join table does the same in front of its slots: a one-hash bit
//! filter over the build keys, and a probe that first compacts, without
//! a branch, the probe rows whose filter bit is set, so only those walk
//! the slots — a probe that misses stops at one bit test instead of a
//! mispredicted slot walk. The filter is built only when the probe rows
//! are at least as many as the build keys.

use dpu_isa::hash::{crc32c_u64_hw, crc32c_u64_x4_hw};

use crate::bitvec::BitVec;
use crate::column::{Column, Table};
use crate::vector;

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
    /// Executes the inner join over every row of both tables:
    /// [`Self::execute_selected`] without selections, plus the largest
    /// build partition a `fanout`-way CRC32 split of the build keys
    /// would hold (for DMEM-budget assertions).
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
        let bkeys = &build.columns[build.col_index(&self.build_key)].data;
        let max_part = max_partition(bkeys, fanout);
        (self.execute_selected(build, None, probe, None), max_part)
    }

    /// Executes the inner join over the rows the optional selections
    /// keep, returning the projected result. The selected build keys are
    /// gathered once into one open-addressed join table, the selected
    /// probe rows probe it in ascending row order, and each projected
    /// column is gathered once from the input tables at the matched row
    /// ids. No filtered copy of either side is made, just as the DMS
    /// gathers only a bit vector's selected rows. Output rows appear in
    /// (probe row, ascending build row) order, exactly as
    /// [`Self::execute`] over [`crate::tpch::select_rows`] copies would
    /// emit them.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or a selection's length
    /// mismatches its table.
    pub fn execute_selected(
        &self,
        build: &Table,
        build_sel: Option<&BitVec>,
        probe: &Table,
        probe_sel: Option<&BitVec>,
    ) -> Table {
        let bkeys = &build.columns[build.col_index(&self.build_key)].data;
        let pkeys = &probe.columns[probe.col_index(&self.probe_key)].data;
        for (sel, rows) in [(build_sel, bkeys.len()), (probe_sel, pkeys.len())] {
            if let Some(bv) = sel {
                assert_eq!(bv.len(), rows, "selection length mismatch");
            }
        }
        // The selected build rows and their keys, gathered once.
        let bids: Option<Vec<usize>> = build_sel.map(|bv| bv.iter_set().collect());
        let gathered: Vec<i64>;
        let keys = match &bids {
            Some(ids) => {
                gathered = ids.iter().map(|&r| bkeys[r]).collect();
                &gathered
            }
            None => bkeys,
        };
        let probes = probe_sel.map_or(pkeys.len(), BitVec::count);
        let (mut brows, prows) = JoinTable::new(keys, probes).probe(pkeys, probe_sel);
        if let Some(ids) = &bids {
            brows.iter_mut().for_each(|b| *b = ids[*b]);
        }
        self.project(build, probe, &brows, &prows)
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

/// The largest partition of a `fanout`-way CRC32 split of `keys` (the
/// DMEM-budget figure joins report), counted without row-id lists.
///
/// # Panics
///
/// Panics if `fanout` is zero.
fn max_partition(keys: &[i64], fanout: u64) -> u64 {
    assert!(fanout > 0, "fanout must be positive");
    let mut counts = vec![0u64; fanout as usize];
    let mut quads = keys.chunks_exact(4);
    for quad in &mut quads {
        let h = crc32c_u64_x4_hw([quad[0], quad[1], quad[2], quad[3]].map(|k| k as u64));
        h.iter().for_each(|&h| counts[(h as u64 % fanout) as usize] += 1);
    }
    for &k in quads.remainder() {
        counts[(crc32c_u64_hw(k as u64) as u64 % fanout) as usize] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// End of a build chain.
const NIL: u32 = u32::MAX;

/// Bits of a [`JoinTable`]'s bit filter per slot. The slots number at
/// least twice the build keys, so each key has at least 8 filter bits
/// and a key not in the build passes the filter with probability at
/// most about 1/8.
const FILTER_BITS_PER_SLOT: usize = 4;

/// Probe rows a [`JoinTable`] filters at a time: a multiple of 64, so
/// each block of a selection is whole words, and small enough that the
/// block's candidate list stays in L1.
const PROBE_BLOCK_ROWS: usize = 1024;

/// A join table over a whole build side, flat like the paper's
/// DMEM-resident tables (§5.3): open-addressed `u32` slots at twice the
/// build size hold each key's lowest build row + 1 (0 = empty), and
/// `next` links a key's build rows in ascending order — so a probe walks
/// its matches in ascending build row. A slot's key is read back from
/// the build column itself. In front of the slots sits a one-hash bit
/// filter with one bit set per build key, so a probe key that misses
/// the build almost always stops at one bit test instead of a slot walk.
struct JoinTable<'a> {
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the
    /// product's top bits. A hash shard's keys share their CRC32
    /// residue, so the slot hash must not be the CRC's low bits.
    shift: u32,
    keys: &'a [i64],
    slots: Vec<u32>,
    next: Vec<u32>,
    /// The bit filter's words ([`Self::filter_bit`]); none when the
    /// table has no filter.
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`.
    filter_shift: u32,
}

impl<'a> JoinTable<'a> {
    /// Builds the table over every row of the key column `keys`,
    /// inserting rows last to first so each chain comes out ascending.
    /// When `probes` (the probe rows to come) are at least as many as
    /// the build keys, the loop also sets each key's filter bit: the
    /// filter costs a bit per build key and a test per probe, and only
    /// a probe that misses gains, so a build larger than its probe side
    /// — Q12's 25 000 orders against about 4 400 lineitem probes, Q14's
    /// 26 666 parts against about 1 300, every probe matching — builds
    /// none (with one, Q14 measured about 40 % slower and Q12 up to
    /// 10 %).
    fn new(keys: &'a [i64], probes: usize) -> Self {
        assert!(keys.len() < NIL as usize / 2, "build side exceeds the u32 slot encoding");
        let cap = (keys.len() * 2).next_power_of_two().max(16);
        let filtered = probes >= keys.len();
        let bits = if filtered { cap * FILTER_BITS_PER_SLOT } else { 0 };
        let mut table = JoinTable {
            shift: 64 - cap.trailing_zeros(),
            keys,
            slots: vec![0; cap],
            next: vec![NIL; keys.len()],
            filter: vec![0; bits / 64],
            filter_shift: 64 - bits.trailing_zeros(),
        };
        for (r, &key) in keys.iter().enumerate().rev() {
            if filtered {
                let bit = table.filter_bit(key);
                table.filter[bit / 64] |= 1 << (bit % 64);
            }
            let mut i = table.home(key);
            loop {
                match table.slots[i] {
                    0 => break,
                    s if keys[s as usize - 1] == key => {
                        table.next[r] = s - 1;
                        break;
                    }
                    _ => i = (i + 1) & (cap - 1),
                }
            }
            table.slots[i] = r as u32 + 1;
        }
        table
    }

    /// Home slot of `key` (Fibonacci hashing).
    #[inline]
    fn home(&self, key: i64) -> usize {
        (vector::fib_mix(key as u64) >> self.shift) as usize
    }

    /// The filter bit of `key`: the top bits of the same Fibonacci
    /// product, two more than the home slot takes. Those bits spread
    /// consecutive keys evenly, as they do the slots: the bits just
    /// below the slot's set only 7 792 distinct bits for 26 666
    /// consecutive part keys, where these set one per key.
    #[inline]
    fn filter_bit(&self, key: i64) -> usize {
        (vector::fib_mix(key as u64) >> self.filter_shift) as usize
    }

    /// Whether `key`'s filter bit is set: always for a build key, and
    /// for other keys with probability about the filter's fill.
    #[inline]
    fn may_hold(&self, key: i64) -> bool {
        let bit = self.filter_bit(key);
        self.filter[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The lowest build row holding `key`, or [`NIL`].
    #[inline]
    fn find(&self, key: i64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return NIL,
                s if self.keys[s as usize - 1] == key => return s - 1,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Probes the probe keys `pkeys` at the rows `sel` keeps (every
    /// row when `None`) in ascending row order, returning the matched
    /// build and probe row ids in emission order. Each block of
    /// [`PROBE_BLOCK_ROWS`] probe rows takes two passes: a branch-free
    /// pass writes each row into a candidate list and advances past it
    /// only when its filter bit is set, as the encoded filter compacts
    /// lanes; then only the candidates [`Self::find`] their key and walk
    /// its chain. The list is one block long, so it stays in cache.
    fn probe(&self, pkeys: &[i64], sel: Option<&BitVec>) -> (Vec<usize>, Vec<usize>) {
        let (mut brows, mut prows) = (Vec::new(), Vec::new());
        // Probe row `pr`'s matches, in ascending build row.
        let mut emit = |pr: usize| {
            let mut br = self.find(pkeys[pr]);
            while br != NIL {
                brows.push(br as usize);
                prows.push(pr);
                br = self.next[br as usize];
            }
        };
        if self.filter.is_empty() {
            match sel {
                Some(bv) => bv.iter_set().for_each(emit),
                None => (0..pkeys.len()).for_each(emit),
            }
            return (brows, prows);
        }
        let mut candidates = vec![0; PROBE_BLOCK_ROWS];
        for lo in (0..pkeys.len()).step_by(PROBE_BLOCK_ROWS) {
            let hi = (lo + PROBE_BLOCK_ROWS).min(pkeys.len());
            let len = match sel {
                Some(bv) => self.candidates(bv.iter_set_in(lo, hi), pkeys, &mut candidates),
                None => self.candidates(lo..hi, pkeys, &mut candidates),
            };
            candidates[..len].iter().for_each(|&pr| emit(pr));
        }
        (brows, prows)
    }

    /// Writes the probe rows of `rows` (at most `out.len()` of them)
    /// whose key's filter bit is set to the front of `out`, in order,
    /// and returns how many. Each row is written at the list's end and
    /// kept by advancing the end by its bit, so no branch depends on a
    /// key.
    fn candidates(
        &self,
        rows: impl Iterator<Item = usize>,
        pkeys: &[i64],
        out: &mut [usize],
    ) -> usize {
        let mut len = 0;
        for r in rows {
            out[len] = r;
            len += self.may_hold(pkeys[r]) as usize;
        }
        len
    }
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
    use dpu_isa::hash::crc32c_u64;

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
    fn max_build_partition_is_the_largest_crc_partition() {
        let keys: Vec<i64> = (0..5_000).map(|i| (i * 7919) % 3_001 - 1_500).collect();
        let dim = Table::new(vec![Column::i64("id", keys.clone())]);
        let fact = Table::new(vec![Column::i64("fk", (0..10).collect())]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec![],
            probe_cols: vec!["fk".into()],
        };
        for fanout in [1u64, 8, 32] {
            // Bit-serial reference counts.
            let mut counts = vec![0u64; fanout as usize];
            keys.iter().for_each(|&k| counts[(crc32c_u64(k as u64) as u64 % fanout) as usize] += 1);
            let want = counts.into_iter().max().unwrap();
            let (_, got) = j.execute(&dim, &fact, fanout);
            assert_eq!(got, want, "fanout={fanout}");
        }
    }

    #[test]
    fn duplicate_keys_join_in_probe_then_build_row_order() {
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
        // Nested-loop reference: probe rows in order, then build rows.
        let (bk, pk) = (&dim.columns[0].data, &fact.columns[0].data);
        let pairs: Vec<(usize, usize)> = (0..pk.len())
            .flat_map(|p| (0..bk.len()).filter(move |&b| bk[b] == pk[p]).map(move |b| (b, p)))
            .collect();
        let want = Table::new(vec![
            Column::i64("cat", pairs.iter().map(|&(b, _)| dim.columns[1].data[b]).collect()),
            Column::i64("val", pairs.iter().map(|&(_, p)| fact.columns[1].data[p]).collect()),
            Column::i64("fk", pairs.iter().map(|&(_, p)| pk[p]).collect()),
        ]);
        for fanout in [1u64, 2, 32] {
            // Exact row order, not just multiset equality.
            assert_eq!(j.execute(&dim, &fact, fanout).0, want, "fanout={fanout}");
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
        let table = JoinTable::new(&keys, keys.len());
        assert!(distinct.iter().all(|&k| table.home(k) == 0 && table.filter_bit(k) == 0));
        assert_eq!(table.filter.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        // A miss that shares the bit passes the filter; the lookup
        // turns it away.
        let miss = 51u64.wrapping_mul(inv) as i64;
        assert!(table.may_hold(miss));
        for (i, &k) in distinct.iter().enumerate() {
            let first = table.find(k);
            assert_eq!(first, i as u32);
            assert_eq!(table.next[first as usize], i as u32 + 50);
            assert_eq!(table.next[i + 50], NIL);
        }
        assert_eq!(table.find(miss), NIL);
        assert_eq!(table.probe(&[miss, keys[3], miss], None), (vec![3, 53], vec![1, 1]));
    }

    #[test]
    fn filter_is_built_only_for_at_least_as_many_probes_as_build_keys() {
        let keys: Vec<i64> = (1..=1000).collect();
        let filtered = JoinTable::new(&keys, 1000);
        // 1000 keys take 2048 slots and 8192 filter bits, one per key.
        assert_eq!(filtered.filter.len(), 2048 * FILTER_BITS_PER_SLOT / 64);
        assert_eq!(filtered.filter.iter().map(|w| w.count_ones()).sum::<u32>(), 1000);
        let misses: Vec<i64> = (1001..=9000).collect();
        let passed = misses.iter().filter(|&&k| filtered.may_hold(k)).count();
        assert!(passed < misses.len() / 6, "{passed} of {} misses pass", misses.len());
        // Fewer probes: no filter, and every probe row looks up its key.
        let unfiltered = JoinTable::new(&keys, 999);
        assert!(unfiltered.filter.is_empty());
        for table in [&filtered, &unfiltered] {
            let probe = [5, 1001, 1000, -3];
            assert_eq!(table.probe(&probe, None), (vec![4, 999], vec![0, 2]));
        }
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
