//! The filter primitive (Figure 15).
//!
//! On the DPU, filtering is a BVLD/FILT loop: the DMS streams a column
//! tile into DMEM, and the dpCore evaluates a band predicate per element
//! with the single-cycle `FILT` instruction, shifting result bits into an
//! accumulator that is stored every 64 rows. [`measure_filter_kernel`]
//! assembles that exact inner loop and runs it on the ISA interpreter —
//! the paper's 1.65 cycles/tuple is *measured*, not assumed.

use dpu_isa::asm::assemble;
use dpu_isa::interp::{Cpu, Trap};

use crate::bitvec::BitVec;
use crate::column::{pack, Pack, Table};
use crate::vector;

/// Comparison operators supported by the engine's scan predicates; all
/// lower to the FILT band `[lo, hi]` on signed 32-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `lo <= x <= hi` (the native FILT form).
    Between(i64, i64),
    /// `x == v`.
    Eq(i64),
    /// `x < v`.
    Lt(i64),
    /// `x <= v`.
    Le(i64),
    /// `x > v`.
    Gt(i64),
    /// `x >= v`.
    Ge(i64),
}

impl CompareOp {
    /// The inclusive band `[lo, hi]` this comparison selects. The strict
    /// comparisons saturate, so `Lt(i64::MIN)` and `Gt(i64::MAX)` are
    /// empty bands (`lo > hi`).
    pub fn band(self) -> (i64, i64) {
        match self {
            CompareOp::Between(lo, hi) => (lo, hi),
            CompareOp::Eq(v) => (v, v),
            CompareOp::Lt(v) => (i32::MIN as i64, v.saturating_sub(1)),
            CompareOp::Le(v) => (i32::MIN as i64, v),
            CompareOp::Gt(v) => (v.saturating_add(1), i32::MAX as i64),
            CompareOp::Ge(v) => (v, i32::MAX as i64),
        }
    }

    /// Evaluates the predicate on a value.
    pub fn matches(self, x: i64) -> bool {
        let (lo, hi) = self.band();
        lo <= x && x <= hi
    }
}

/// A single-column band filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Column to scan.
    pub column: String,
    /// Predicate.
    pub op: CompareOp,
}

impl FilterSpec {
    /// Creates a filter.
    pub fn new(column: &str, op: CompareOp) -> Self {
        FilterSpec { column: column.to_string(), op }
    }

    /// Applies the filter to a table, producing a selection vector
    /// (reference semantics; the timed path runs on the DPU models), on
    /// the process-wide pack choice ([`pack`], `DPU_PACK`).
    pub fn apply(&self, table: &Table) -> BitVec {
        self.apply_pack(table, pack())
    }

    /// Applies the filter with an explicit pack choice. With packing on
    /// and the scanned column packed, [`vector::filter_band_packed`]
    /// runs directly on the packed words; flat columns and
    /// [`Pack::Off`] run the SWAR word builder [`vector::filter_band`]
    /// over the flat values. Bit-identical either way.
    pub fn apply_pack(&self, table: &Table, pack: Pack) -> BitVec {
        let col =
            table.column(&self.column).unwrap_or_else(|| panic!("no column {:?}", self.column));
        let (lo, hi) = self.op.band();
        match (&col.packed, pack.on()) {
            (Some(p), true) => vector::filter_band_packed(p, lo, hi),
            _ => vector::filter_band(&col.data, lo, hi),
        }
    }
}

/// Result of running the FILT inner loop on the interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterKernelMeasurement {
    /// Rows filtered.
    pub rows: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
}

impl FilterKernelMeasurement {
    /// Cycles per tuple — the Figure 15 metric (paper: 1.65 at large
    /// tiles, i.e. 482 Mtuples/s at 800 MHz).
    pub fn cycles_per_tuple(&self) -> f64 {
        self.cycles as f64 / self.rows as f64
    }

    /// Tuples per second at the 800 MHz core clock.
    pub fn tuples_per_sec(&self) -> f64 {
        800.0e6 / self.cycles_per_tuple()
    }
}

/// The unrolled BVLD/FILT kernel: 8 rows per inner iteration,
/// software-pipelined so each `lw` (LSU pipe) co-issues with the previous
/// row's `filt` (ALU pipe), hiding the 2-cycle load-use latency; one
/// 64-bit bit-vector store per 64 rows.
fn filter_kernel_asm() -> String {
    let mut body = String::from(
        "       # r2=data ptr, r11=bv out ptr, r3=64-row blocks, r10=bounds
        block:  addi r12, r0, 8
        inner:  lw   r13, 0(r2)
                lw   r14, 4(r2)",
    );
    // Rotating registers r13..r20; filt of row i overlaps lw of row i+2.
    for i in 2..8 {
        body.push_str(&format!(
            "
                filt r4, r{}, r10
                lw   r{}, {}(r2)",
            11 + i,
            13 + i,
            i * 4
        ));
    }
    body.push_str(
        "
                filt r4, r19, r10
                addi r2, r2, 32
                filt r4, r20, r10
                addi r12, r12, -1
                bne  r12, r0, inner
                sd   r4, 0(r11)
                addi r11, r11, 8
                addi r3, r3, -1
                bne  r3, r0, block
                halt",
    );
    body
}

/// Runs the real FILT kernel over `rows` 4-byte values in DMEM (bounds
/// `[lo, hi]` as signed 32-bit) and returns both timing and the produced
/// bit vector.
///
/// # Panics
///
/// Panics unless `rows` is a positive multiple of 64 and the tile fits a
/// 32 KB DMEM alongside its output bit vector.
pub fn measure_filter_kernel(
    values: &[i32],
    lo: i32,
    hi: i32,
) -> (FilterKernelMeasurement, BitVec) {
    let rows = values.len();
    assert!(rows > 0 && rows.is_multiple_of(64), "rows must be a positive multiple of 64");
    let data_bytes = rows * 4;
    let bv_bytes = rows / 8;
    assert!(data_bytes + bv_bytes <= 31 * 1024, "tile exceeds DMEM");

    let prog = assemble(&filter_kernel_asm()).expect("kernel assembles");
    let mut cpu = Cpu::new(32 * 1024);
    for (i, &v) in values.iter().enumerate() {
        let b = (v as u32).to_le_bytes();
        cpu.dmem_mut()[i * 4..i * 4 + 4].copy_from_slice(&b);
    }
    // Register setup: data at 0, bit vector output after the data.
    cpu.set_reg(2, 0);
    cpu.set_reg(11, data_bytes as u64);
    cpu.set_reg(3, (rows / 64) as u64);
    cpu.set_reg(10, ((hi as u32 as u64) << 32) | lo as u32 as u64);

    let sum = cpu.run(&prog, 100_000_000).expect("kernel runs");
    assert_eq!(sum.trap, Trap::Halt, "kernel must halt");

    // Decode the produced bit vector: FILT shifts left, so within each
    // 64-row block, row k lands at bit 63-k.
    let mut bv = BitVec::new(rows);
    for block in 0..rows / 64 {
        let mut word = 0u64;
        let base = data_bytes + block * 8;
        for (i, &b) in cpu.dmem()[base..base + 8].iter().enumerate() {
            word |= (b as u64) << (8 * i);
        }
        for k in 0..64 {
            if word >> (63 - k) & 1 == 1 {
                bv.set(block * 64 + k);
            }
        }
    }
    (
        FilterKernelMeasurement {
            rows: rows as u64,
            cycles: sum.cycles,
            instructions: sum.instructions,
        },
        bv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn compare_ops_lower_to_bands() {
        assert!(CompareOp::Eq(5).matches(5));
        assert!(!CompareOp::Eq(5).matches(6));
        assert!(CompareOp::Lt(5).matches(4));
        assert!(!CompareOp::Lt(5).matches(5));
        assert!(CompareOp::Le(5).matches(5));
        assert!(CompareOp::Gt(5).matches(6));
        assert!(CompareOp::Ge(5).matches(5));
        assert!(CompareOp::Between(2, 4).matches(3));
        assert!(!CompareOp::Between(2, 4).matches(5));
    }

    #[test]
    fn strict_compares_at_the_i64_extremes_select_nothing() {
        let data = vec![-5, 0, 7];
        let mut t = Table::new(vec![Column::i64("x", data.clone())]);
        t.columns[0].packed = Some(crate::column::PackedColumn::encode(&data));
        for op in [CompareOp::Lt(i64::MIN), CompareOp::Gt(i64::MAX)] {
            let (lo, hi) = op.band();
            assert!(lo > hi, "{op:?}: band [{lo}, {hi}] is not empty");
            assert!(data.iter().all(|&x| !op.matches(x)), "{op:?}");
            for pack in [Pack::Off, Pack::On] {
                assert_eq!(FilterSpec::new("x", op).apply_pack(&t, pack).count(), 0, "{op:?}");
            }
        }
    }

    #[test]
    fn filter_spec_selects_rows() {
        let t = Table::new(vec![Column::i32("x", (0..100).collect())]);
        let bv = FilterSpec::new("x", CompareOp::Between(10, 19)).apply(&t);
        assert_eq!(bv.count(), 10);
        assert!(bv.get(10) && bv.get(19) && !bv.get(20));
    }

    #[test]
    fn packed_apply_is_bit_identical_to_flat() {
        let mut t = Table::new(vec![Column::i32("x", (0..5000).map(|i| i % 300).collect())]);
        t.encode_packed();
        assert!(t.columns[0].packed.is_some());
        for op in
            [CompareOp::Between(10, 190), CompareOp::Eq(42), CompareOp::Lt(3), CompareOp::Ge(299)]
        {
            let spec = FilterSpec::new("x", op);
            let want = BitVec::from_fn(t.rows(), |i| op.matches(t.columns[0].data[i]));
            for pack in [Pack::Off, Pack::On] {
                let got = spec.apply_pack(&t, pack);
                assert_eq!(got.words(), want.words(), "{op:?} {pack:?}");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_semantics() {
        let values: Vec<i32> = (0..256).map(|i| (i * 37 % 100) - 50).collect();
        let (m, bv) = measure_filter_kernel(&values, -10, 25);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(bv.get(i), (-10..=25).contains(&v), "row {i} value {v}");
        }
        assert_eq!(m.rows, 256);
        assert!(m.cycles > 0);
    }

    #[test]
    fn kernel_achieves_paper_rate() {
        // Figure 15: ≈1.65 cycles/tuple (482 Mtuples/s) at large tiles.
        let values: Vec<i32> = (0..4096).collect();
        let (m, _) = measure_filter_kernel(&values, 100, 3000);
        let cpt = m.cycles_per_tuple();
        assert!(
            (1.2..=1.9).contains(&cpt),
            "cycles/tuple {cpt:.3} outside the plausible band around 1.65"
        );
        assert!(m.tuples_per_sec() > 400.0e6, "rate {:.0}/s", m.tuples_per_sec());
    }

    #[test]
    fn small_tiles_cost_more_per_tuple() {
        let small: Vec<i32> = (0..64).collect();
        let large: Vec<i32> = (0..4096).collect();
        let (ms, _) = measure_filter_kernel(&small, 0, 10);
        let (ml, _) = measure_filter_kernel(&large, 0, 10);
        assert!(ms.cycles_per_tuple() >= ml.cycles_per_tuple());
    }

    #[test]
    fn negative_band_works_in_kernel() {
        let values: Vec<i32> = vec![-100, -5, 0, 5, 100, i32::MIN, i32::MAX, -1]
            .into_iter()
            .cycle()
            .take(64)
            .collect();
        let (_, bv) = measure_filter_kernel(&values, -10, 10);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(bv.get(i), (-10..=10).contains(&v), "row {i} = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn non_block_rows_rejected() {
        measure_filter_kernel(&[1, 2, 3], 0, 10);
    }
}
