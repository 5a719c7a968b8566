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
//! Every TPC-H join key is a dense surrogate key, and the paper's DMS
//! partitions by key range as well as by hash. So the join table first
//! reads the build keys' bounds — from a packed column's zone maps, or
//! one scan of the gathered keys — and a build whose key range is
//! within a few times its hashed slot count indexes one slot per key
//! value: a probe is one load, with no hash, key compare or slot walk.
//! Wider ranges keep Fibonacci-hashed slots.
//!
//! The paper's scan never branches on data: FILT/BVLD set a bit per row
//! and the DMS gathers only the rows the bit vector keeps (§4–5). The
//! probe does the same: a branch-free pass compacts the probe rows
//! whose key is a build key before only those find their build rows.
//! The direct table answers that test itself; hashed slots put an
//! exact bitmap of the key range in front when the probe rows are at
//! least as many as the build keys and the range fits the bitmap's
//! budget, so a probe that misses stops at one bit test instead of a
//! mispredicted slot walk. Other hashed tables probe every row.

use dpu_isa::hash::{crc32c_u64_hw, crc32c_u64_x4_hw};

use crate::bitvec::BitVec;
use crate::column::{Column, PackedColumn, Table};
use crate::key::key_bounds;
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
    /// gathered once into one join table, slotted directly by key or
    /// hashed as their range decides, the selected
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
        let bcol = &build.columns[build.col_index(&self.build_key)];
        let bkeys = &bcol.data;
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
        // A whole packed column's zone maps bound its keys.
        let zones = bcol.packed.as_ref().filter(|_| bids.is_none());
        let (mut brows, prows) = JoinTable::new(keys, zones, probes).probe(pkeys, probe_sel);
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

/// Largest key range a direct [`JoinTable`] spans, in hashed slots the
/// same build would take: its slots are then at most four times the
/// hashed table's, and a probe costs one load in place of a hash and a
/// slot walk with a key compare.
const DIRECT_SLOTS_PER_HASHED: u64 = 4;

/// Largest key range a hashed [`JoinTable`]'s bitmap spans, in bits
/// (32 KiB, within a 48 KiB L1 data cache). Measured on a 2-vCPU Xeon,
/// one join of random build keys over the range against uniform probe
/// keys: with one build key per 32 key values the bitmap cut the call
/// 3–4× at 2^17 and 2^18 bits (27.1 → 4.5 ns a probe at 2^18, with 8
/// probes per key) and 2–5× at 2^19 and 2^20; with one key per 4096 values
/// and a probe per key it stayed within 0.4 µs at 2^18 bits (64 keys,
/// 0.9–1.1 against 0.7–1.0 µs over two runs), but lost 2× at 2^19
/// (2.6–2.8 against 1.1–1.3 µs) and 7× at 2^20, where the 128 KiB
/// bitmap page-faults about 3 times a call (15.0–16.7 against
/// 1.9–2.3 µs). A TPC-H shard's orderkeys, the widest bitmap build,
/// span about 200 k keys.
const BITMAP_CAP: u64 = 1 << 18;

/// Probe rows a [`JoinTable`] compacts at a time: a multiple of 64, so
/// each block of a selection is whole words, and small enough that the
/// block's candidate list stays in L1.
const PROBE_BLOCK_ROWS: usize = 1024;

/// How a [`JoinTable`] finds a key's slot, picked from the build keys'
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// One slot per key value, at `key − lo`: the range is at most
    /// [`DIRECT_SLOTS_PER_HASHED`] times the hashed slots.
    Direct,
    /// Hashed slots behind an exact bitmap of the key range: a wider
    /// range of at most [`BITMAP_CAP`] keys, and at least as many probe
    /// rows as build keys.
    Bitmap,
    /// Hashed slots alone.
    Hashed,
}

/// A join table over a whole build side, flat like the paper's
/// DMEM-resident tables (§5.3): `u32` slots hold each key's lowest
/// build row + 1 (0 = empty), and `next` links a key's build rows in
/// ascending order — so a probe walks its matches in ascending build
/// row. The build keys' range picks the slots ([`Arm`]). Dense keys —
/// every TPC-H surrogate key a build selects most of — index one slot
/// per key value, as the paper's DMS partitions by key range as well as
/// by hash. Other keys take open-addressed slots at twice the build
/// size under Fibonacci hashing, whose keys are read back from the
/// build column itself; when the probe rows are at least as many as
/// the build keys, an exact bitmap of the key range sits in front, as
/// the paper's scan filters with exact bit vectors (BVLD/FILT, §4–5).
struct JoinTable<'a> {
    arm: Arm,
    /// The least build key (0 for an empty build).
    lo: i64,
    /// The number of key values from the least build key to the
    /// greatest, where [`Self::offset`] clamps every key outside them:
    /// the index of the direct table's last slot and the bitmap's last
    /// bit, both always 0. Unused by [`Arm::Hashed`].
    range: u64,
    /// `64 - log2(slots.len())` for hashed slots: the multiplicative
    /// hash keeps the product's top bits. A hash shard's keys share
    /// their CRC32 residue, so the slot hash must not be the CRC's low
    /// bits.
    shift: u32,
    keys: &'a [i64],
    slots: Vec<u32>,
    next: Vec<u32>,
    /// [`Arm::Bitmap`]'s bit per key value; empty on the other arms.
    bitmap: Vec<u64>,
}

impl<'a> JoinTable<'a> {
    /// Builds the table over every row of the key column `keys`,
    /// inserting rows last to first so each chain comes out ascending.
    /// The keys' bounds come from `zones`, the column's packed chunks,
    /// when it has them, and from one scan of `keys` otherwise.
    ///
    /// A bitmap costs a bit per key value and a test per probe, and only
    /// a probe that misses gains, so it is built only when `probes`
    /// (the probe rows to come) are at least as many as the build keys:
    /// a build larger than its probe side would pay for it and gain
    /// little. (A filter in front of hashed slots once made Q14's join
    /// of 26 666 parts against about 1 300 probes, every one matching,
    /// about 40 % slower; that build now takes the direct table.)
    fn new(keys: &'a [i64], zones: Option<&PackedColumn>, probes: usize) -> Self {
        assert!(keys.len() < NIL as usize / 2, "build side exceeds the u32 slot encoding");
        let cap = (keys.len() * 2).next_power_of_two().max(16);
        let (lo, hi) = key_bounds(keys, zones).unwrap_or((0, 0));
        // `None` when the keys span all of i64.
        let range = hi.abs_diff(lo).checked_add(1);
        let arm = match range {
            Some(r) if r <= DIRECT_SLOTS_PER_HASHED * cap as u64 => Arm::Direct,
            Some(r) if r <= BITMAP_CAP && probes >= keys.len() => Arm::Bitmap,
            _ => Arm::Hashed,
        };
        let range = range.unwrap_or(0);
        let (slots, bits) = match arm {
            Arm::Direct => (range as usize + 1, 0),
            Arm::Bitmap => (cap, range as usize + 1),
            Arm::Hashed => (cap, 0),
        };
        let mut table = JoinTable {
            arm,
            lo,
            range,
            shift: 64 - cap.trailing_zeros(),
            keys,
            slots: vec![0; slots],
            next: vec![NIL; keys.len()],
            bitmap: vec![0; bits.div_ceil(64)],
        };
        for (r, &key) in keys.iter().enumerate().rev() {
            let i = match arm {
                Arm::Direct => table.offset(key),
                _ => table.hashed_slot(key),
            };
            if arm == Arm::Bitmap {
                let bit = table.offset(key);
                table.bitmap[bit / 64] |= 1 << (bit % 64);
            }
            // An empty slot's 0 wraps to NIL.
            table.next[r] = table.slots[i].wrapping_sub(1);
            table.slots[i] = r as u32 + 1;
        }
        table
    }

    /// `key − lo`, or [`Self::range`] for a key outside the build keys'
    /// bounds. Wrapping subtraction maps the keys below `lo` past the
    /// ones above it, so one unsigned `min` clamps both sides.
    #[inline]
    fn offset(&self, key: i64) -> usize {
        (key.wrapping_sub(self.lo) as u64).min(self.range) as usize
    }

    /// The hashed slot that holds `key`'s lowest build row + 1, or the
    /// empty slot where it would go: from `key`'s home slot (Fibonacci
    /// hashing), the first slot that is empty or holds `key`.
    #[inline]
    fn hashed_slot(&self, key: i64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (vector::fib_mix(key as u64) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                s if s == 0 || self.keys[s as usize - 1] == key => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `key`'s bit is set in [`Arm::Bitmap`]'s bitmap: exactly
    /// when it is a build key.
    #[inline]
    fn in_bitmap(&self, key: i64) -> bool {
        let bit = self.offset(key);
        self.bitmap[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The lowest build row holding `key` in the direct table, or
    /// [`NIL`].
    #[inline]
    fn find_direct(&self, key: i64) -> u32 {
        self.slots[self.offset(key)].wrapping_sub(1)
    }

    /// The lowest build row holding `key` in the hashed slots, or
    /// [`NIL`].
    #[inline]
    fn find_hashed(&self, key: i64) -> u32 {
        self.slots[self.hashed_slot(key)].wrapping_sub(1)
    }

    /// Probes the probe keys `pkeys` at the rows `sel` keeps (every
    /// row when `None`) in ascending row order, returning the matched
    /// build and probe row ids in emission order. The direct table and
    /// the bitmap filter each block of [`PROBE_BLOCK_ROWS`] probe rows
    /// in two passes: a branch-free pass writes each row into a
    /// candidate list and advances past it only when its key is a build
    /// key, as the encoded filter compacts lanes; then only the
    /// candidates find their key's first build row and walk its chain.
    /// The list is one block long, so it stays in cache. Unfiltered
    /// hashed slots look up every row.
    fn probe(&self, pkeys: &[i64], sel: Option<&BitVec>) -> (Vec<usize>, Vec<usize>) {
        match self.arm {
            Arm::Direct => self.probe_filtered(
                pkeys,
                sel,
                |k| self.find_direct(k) != NIL,
                |k| self.find_direct(k),
            ),
            Arm::Bitmap => {
                self.probe_filtered(pkeys, sel, |k| self.in_bitmap(k), |k| self.find_hashed(k))
            }
            Arm::Hashed => {
                let mut out = (Vec::new(), Vec::new());
                let mut emit = |pr: usize| self.emit(pr, self.find_hashed(pkeys[pr]), &mut out);
                match sel {
                    Some(bv) => bv.iter_set().for_each(&mut emit),
                    None => (0..pkeys.len()).for_each(&mut emit),
                }
                out
            }
        }
    }

    /// [`Self::probe`] through a candidate list of the rows whose key
    /// passes `hit`, each of which `find`s its first build row.
    fn probe_filtered(
        &self,
        pkeys: &[i64],
        sel: Option<&BitVec>,
        hit: impl Fn(i64) -> bool,
        find: impl Fn(i64) -> u32,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut out = (Vec::new(), Vec::new());
        let mut candidates = vec![0; PROBE_BLOCK_ROWS];
        for lo in (0..pkeys.len()).step_by(PROBE_BLOCK_ROWS) {
            let hi = (lo + PROBE_BLOCK_ROWS).min(pkeys.len());
            let len = match sel {
                Some(bv) => candidates_of(bv.iter_set_in(lo, hi), pkeys, &hit, &mut candidates),
                None => candidates_of(lo..hi, pkeys, &hit, &mut candidates),
            };
            for &pr in &candidates[..len] {
                self.emit(pr, find(pkeys[pr]), &mut out);
            }
        }
        out
    }

    /// Appends probe row `pr`'s matches to `(brows, prows)`: the chain
    /// from build row `first` ([`NIL`] for none), in ascending build row.
    #[inline]
    fn emit(&self, pr: usize, first: u32, (brows, prows): &mut (Vec<usize>, Vec<usize>)) {
        let mut br = first;
        while br != NIL {
            brows.push(br as usize);
            prows.push(pr);
            br = self.next[br as usize];
        }
    }
}

/// Writes the probe rows of `rows` (at most `out.len()` of them) whose
/// key passes `hit` to the front of `out`, in order, and returns how
/// many. Each row is written at the list's end and kept by advancing
/// the end by its test, so no branch depends on a key.
fn candidates_of(
    rows: impl Iterator<Item = usize>,
    pkeys: &[i64],
    hit: impl Fn(i64) -> bool,
    out: &mut [usize],
) -> usize {
    let mut len = 0;
    for r in rows {
        out[len] = r;
        len += hit(pkeys[r]) as usize;
    }
    len
}

/// The rows of `t`, each as its column values, sorted (for
/// order-insensitive comparisons of join results in tests and
/// queries).
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
        let table = JoinTable::new(&keys, None, keys.len());
        // The keys span far more than the bitmap's cap.
        assert_eq!(table.arm, Arm::Hashed);
        let home = |k: i64| (vector::fib_mix(k as u64) >> table.shift) as usize;
        let miss = 51u64.wrapping_mul(inv) as i64;
        assert!(distinct.iter().chain([&miss]).all(|&k| home(k) == 0));
        for (i, &k) in distinct.iter().enumerate() {
            let first = table.find_hashed(k);
            assert_eq!(first, i as u32);
            assert_eq!(table.next[first as usize], i as u32 + 50);
            assert_eq!(table.next[i + 50], NIL);
        }
        assert_eq!(table.find_hashed(miss), NIL);
        assert_eq!(table.probe(&[miss, keys[3], miss], None), (vec![3, 53], vec![1, 1]));
    }

    #[test]
    fn arm_follows_the_build_key_range() {
        let (min, max) = (i64::MIN, i64::MAX);
        let cap = BITMAP_CAP as i64;
        // 8 keys take 16 hashed slots, so a direct table spans 64 keys.
        let eight = |hi: i64| vec![hi, 0, 1, 2, 3, 4, 5, 6];
        let sparse: Vec<i64> = (0..1000).map(|i| i * 97 - 40_000).collect();
        let cases: Vec<(Arm, Vec<i64>, usize)> = vec![
            // Dense keys: negative, duplicated, and however many probes.
            (Arm::Direct, (-500..500).chain(-20..30).collect(), 0),
            (Arm::Direct, (-500..500).chain(-20..30).collect(), 5000),
            (Arm::Direct, vec![min, min + 1, min, min + 3], 4),
            (Arm::Direct, vec![max, max - 2, max], 4),
            (Arm::Direct, eight(63), 8),
            (Arm::Direct, vec![], 0),
            // Wider ranges: the bitmap with at least as many probes as
            // build keys and a range within its cap, else bare slots.
            (Arm::Bitmap, eight(64), 8),
            (Arm::Hashed, eight(64), 7),
            (Arm::Bitmap, sparse.clone(), 1000),
            (Arm::Hashed, sparse.clone(), 999),
            (Arm::Bitmap, vec![-5, cap - 6, -5], 3),
            (Arm::Hashed, vec![-5, cap - 5, -5], 3),
            // A range of all 2^64 keys overflows.
            (Arm::Hashed, vec![min, max], 2),
        ];
        for (arm, keys, probes) in cases {
            let table = JoinTable::new(&keys, None, probes);
            assert_eq!(table.arm, arm, "keys {:?}", &keys[..keys.len().min(8)]);
            // Zone maps bound a packed column's keys the same.
            let packed = PackedColumn::encode(&keys);
            assert_eq!(JoinTable::new(&keys, Some(&packed), probes).arm, arm);
            let (lo, hi) = key_bounds(&keys, None).unwrap_or((0, 0));
            let around = [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1), min, max];
            let probe: Vec<i64> = around.iter().chain(&keys).chain(&around).copied().collect();
            // Nested-loop reference: probe rows in order, then build rows.
            let mut want = (Vec::new(), Vec::new());
            for (pr, &pk) in probe.iter().enumerate() {
                for br in (0..keys.len()).filter(|&br| keys[br] == pk) {
                    want.0.push(br);
                    want.1.push(pr);
                }
            }
            assert_eq!(table.probe(&probe, None), want, "{arm:?}");
            match arm {
                Arm::Direct => assert_eq!(table.slots.last(), Some(&0)),
                // The bitmap passes every build key and no other.
                Arm::Bitmap => {
                    let mut sorted = keys.clone();
                    sorted.sort_unstable();
                    let span = (lo.saturating_sub(70)..=hi.saturating_add(70)).chain(around);
                    for k in span {
                        assert_eq!(table.in_bitmap(k), sorted.binary_search(&k).is_ok(), "{k}");
                    }
                }
                Arm::Hashed => assert!(table.bitmap.is_empty()),
            }
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
