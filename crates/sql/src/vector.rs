//! Host-side SWAR execution kernels.
//!
//! The paper's dpCores earn their throughput with bit-vector and hashing
//! tricks: BVLD/FILT produce one selection bit per row in a 64-bit
//! accumulator, and the DMS hash engine partitions on a single-cycle
//! CRC32. This module ports the same structure to the *host* inner
//! loops: hand-rolled multi-lane kernels over packed `u64` words —
//! stable Rust, no `std::simd` — behind the existing `execute` entry
//! points.
//!
//! The kernels, mirroring the paper's primitives:
//!
//! 1. **Filter** ([`filter_band`]): predicate evaluation emits whole
//!    [`BitVec`] words 64 rows at a time. Four interleaved lane
//!    accumulators (rows `4k`, `4k+1`, `4k+2`, `4k+3`) break the OR
//!    dependency chain, and each band test compiles to branch-free
//!    compare-and-mask (`setcc`) — the host analogue of FILT shifting
//!    bits into its accumulator.
//! 2. **Partition** ([`partition_row_ids`]): CRC32-C row-id
//!    partitioning with four independent CRC streams in flight — the
//!    stream-split trick hardware CRC units use.
//! 3. **Group-by probe** ([`crate::agg::GroupBySpec::execute`]):
//!    lane-batched key hashing (4 keys per CRC batch, composite keys
//!    flattened into contiguous `u64` words) resolving each row to a
//!    group id in an open-addressed table, then column-at-a-time
//!    min/max/sum accumulation per aggregate. Key domains of at most
//!    4096 combinations index dense slots instead, and keys that never
//!    descend group by runs, both with no hashing.
//! 4. **Top-k pre-filter** ([`gt_mask_word`]): a branch-free 64-row
//!    band test against the current k-th value, so the heap only sees
//!    rows that can change it ([`crate::topk::top_k`]).
//! 5. **Sort keys** ([`sort_keys`], [`composite_sort_keys`]):
//!    order-normalized `u64` sort keys materialized in lane batches, so
//!    [`crate::sort`] compares words instead of per-row multi-column
//!    comparators.
//!
//! Every kernel is **bit-identical** to a reference implementation — same
//! words, same row order, same accumulator values — at every table
//! size, chunking, and `DPU_THREADS`; `tests/vector_properties.rs` pins
//! this differentially. Every hash is CRC32-C through
//! `dpu_isa::hash::crc32c_*_hw`: the SSE4.2 `crc32q` instruction where
//! the host has it, the table-driven CRC where it does not. The values
//! are identical either way, so the engine is a platform fact, not an
//! option; [`kernel`] reports which one runs.

use dpu_isa::hash::{crc32c_u64_hw, crc32c_u64_x4_hw, hw_crc_available};

use crate::bitvec::BitVec;
use crate::column::PackedColumn;

/// The CRC32-C engine the host kernels hash with. A report, not a
/// choice: the host decides it ([`kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The table-driven CRC (hosts without SSE4.2).
    Swar,
    /// The SSE4.2 `crc32q` instruction.
    HwCrc,
}

/// The engine this host runs: [`Kernel::HwCrc`] exactly when
/// [`hw_crc_available`], else [`Kernel::Swar`].
pub fn kernel() -> Kernel {
    if hw_crc_available() {
        Kernel::HwCrc
    } else {
        Kernel::Swar
    }
}

/// Fibonacci hashing: multiplies by 2⁶⁴/φ so every input bit reaches
/// the product's top bits, which the open-addressed tables take as
/// their slot index. The join and group-by tables hash keys that share
/// their CRC32 residue modulo the partition or shard count, so slots
/// taken from the CRC's low bits would leave most of a table unused.
#[inline]
pub(crate) fn fib_mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Branch-free inclusive band test: 1 if `lo <= x <= hi`, else 0. Both
/// comparisons lower to flag-setting compares (no data-dependent
/// branch), exactly [`crate::filter::CompareOp::matches`] semantics.
#[inline(always)]
fn in_band(x: i64, lo: i64, hi: i64) -> u64 {
    ((x >= lo) & (x <= hi)) as u64
}

/// The SWAR filter kernel: evaluates the band `[lo, hi]` over a column,
/// emitting one packed `u64` selection word per 64 rows (tail word
/// masked). Within each 64-row block, four interleaved lane
/// accumulators OR compare-and-mask results at bit positions `4k + lane`
/// so the four chains retire independently.
pub fn filter_band(data: &[i64], lo: i64, hi: i64) -> BitVec {
    let len = data.len();
    let mut words = Vec::with_capacity(len.div_ceil(64));
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        let (mut l0, mut l1, mut l2, mut l3) = (0u64, 0u64, 0u64, 0u64);
        for k in 0..16 {
            let b = k * 4;
            l0 |= in_band(block[b], lo, hi) << b;
            l1 |= in_band(block[b + 1], lo, hi) << (b + 1);
            l2 |= in_band(block[b + 2], lo, hi) << (b + 2);
            l3 |= in_band(block[b + 3], lo, hi) << (b + 3);
        }
        words.push((l0 | l1) | (l2 | l3));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut w = 0u64;
        for (k, &x) in tail.iter().enumerate() {
            w |= in_band(x, lo, hi) << k;
        }
        words.push(w);
    }
    BitVec::from_words(len, words)
}

/// Per-field unsigned `x ≤ c` over `u64` words split into equal bit
/// fields: `cb` is the comparand broadcast to every field, `h` the
/// per-field MSB mask. Returns the result flags at the MSB positions.
///
/// Classic SWAR compare: the low bits decide via a borrow test — each
/// minuend field is `(c_low | MSB)`, always ≥ its subtrahend `x_low`,
/// so no borrow ever crosses a field boundary — and the MSBs decide
/// directly (`x` MSB clear, `c` MSB set → less; equal MSBs → defer to
/// the low-bit borrow).
#[inline(always)]
fn le_flags(x: u64, cb: u64, h: u64) -> u64 {
    let low = ((cb & !h) | h).wrapping_sub(x & !h) & h;
    let (xh, ch) = (x & h, cb & h);
    (!xh & ch) | (!(xh ^ ch) & low)
}

/// Per-field unsigned `x ≥ c`; the mirror of [`le_flags`].
#[inline(always)]
fn ge_flags(x: u64, cb: u64, h: u64) -> u64 {
    let low = ((x & !h) | h).wrapping_sub(cb & !h) & h;
    let (xh, ch) = (x & h, cb & h);
    (xh & !ch) | (!(xh ^ ch) & low)
}

/// Moves the bits at even positions (0, 2, 4, …) to contiguous low
/// positions (0, 1, 2, …) — one round of Morton-order bit compaction.
/// After masking, each OR merges disjoint bit sets, so the shifts never
/// collide.
#[inline(always)]
fn compress_even(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Compacts bits at stride `stride` (a power of two: positions 0,
/// `stride`, `2·stride`, …) to contiguous low positions — `log2(stride)`
/// rounds of [`compress_even`]. The packed filter gathers 2- and 4-bit
/// lane flags this way: at those strides the partial products of the
/// multiply gather ([`gather_flags`]) collide and carry.
#[inline(always)]
fn compress_stride(mut x: u64, mut stride: usize) -> u64 {
    while stride > 1 {
        x = compress_even(x);
        stride >>= 1;
    }
    x
}

/// Gathers the flags at bits `0, W, 2·W, …` of `x` (one per `W`-bit
/// lane, every other bit clear) into the low `64 / W` bits, in lane
/// order. For `W ≥ 8` one multiply does it: the magic
/// `Σ_j 2^(64 − vpw + j − j·W)` (`vpw = 64 / W`) carries lane `j`'s flag
/// to bit `64 − vpw + j`, and the shift leaves `vpw` contiguous bits.
/// Lane `j`'s flag times the magic's term `k` lands at bit
/// `64 − vpw + k + (j − k)·W`; as `k < vpw ≤ W`, distinct `(j, k)` land
/// on distinct bits, so nothing carries, and only `j = k` lands in the
/// top `vpw` bits. Narrower lanes take [`compress_stride`].
#[inline(always)]
fn gather_flags<const W: usize>(x: u64) -> u64 {
    let vpw = 64 / W;
    if W < 8 {
        return compress_stride(x, W);
    }
    let magic = (0..vpw).fold(0u64, |m, j| m | 1 << (64 - vpw + j - j * W));
    x.wrapping_mul(magic) >> (64 - vpw)
}

/// One packed chunk's selection words for the rebased band
/// `[elo, ehi]` over `W`-bit lanes: [`le_flags`]`/`[`ge_flags`] test the
/// `64 / W` lanes of each word at once, [`gather_flags`] moves the lane
/// flags into row order, and `W` words fill one selection word (a final
/// partial group fills the low bits of the last one).
#[inline(always)]
fn filter_lanes<const W: usize>(words: &[u64], elo: u64, ehi: u64, out: &mut Vec<u64>) {
    let vpw = 64 / W;
    let ones = u64::MAX / ((1u64 << W) - 1);
    let h = ones << (W - 1);
    let (lo_b, hi_b) = (elo.wrapping_mul(ones), ehi.wrapping_mul(ones));
    for group in words.chunks(W) {
        let mut ow = 0u64;
        for (j, &x) in group.iter().enumerate() {
            let flags = le_flags(x, hi_b, h) & ge_flags(x, lo_b, h);
            ow |= gather_flags::<W>(flags >> (W - 1)) << (j * vpw);
        }
        out.push(ow);
    }
}

/// The packed-column filter kernel: evaluates the band `[lo, hi]`
/// directly on a [`PackedColumn`]'s words — no unpacking — emitting the
/// same selection words as [`filter_band`] over the decoded values.
///
/// Per chunk, in the *encoded domain*:
///
/// 1. **Zone map**: the chunk header's exact `[min, max]` short-circuits
///    chunks entirely outside the band to all-zeros words and chunks
///    entirely inside to all-ones words, without touching the payload.
/// 2. **Rebase**: otherwise the band is clamped to the chunk range and
///    rebased by the frame — `elo = max(lo, min) − min`,
///    `ehi = min(hi, max) − min` — so the test becomes an unsigned
///    compare against the stored deltas (exact for every `i64`: deltas
///    live in unsigned `[0, max − min]`).
/// 3. **SWAR compare** ([`filter_lanes`]): [`le_flags`]`/`[`ge_flags`]
///    test all `64/bits` delta lanes of each packed word at once, and
///    the per-field flags gather into selection-bit order — with one
///    multiply for 8-, 16- and 32-bit lanes, with the [`compress_stride`]
///    ladder for 2- and 4-bit lanes ([`gather_flags`]). 1-bit chunks
///    reduce to whole-word Boolean ops and 64-bit chunks to one compare
///    per row.
///
/// Chunk size is a multiple of 64, so chunk outputs tile whole
/// selection words; garbage lanes in a final partial word only ever
/// touch the globally-final word, which [`BitVec::from_words`] masks.
pub fn filter_band_packed(col: &PackedColumn, lo: i64, hi: i64) -> BitVec {
    let len = col.len();
    let mut out: Vec<u64> = Vec::with_capacity(len.div_ceil(64));
    for (ci, ch) in col.chunks().iter().enumerate() {
        let rows = col.chunk_rows(ci);
        let words = col.chunk_words(ci);
        let chunk_out = rows.div_ceil(64);
        if hi < ch.frame || lo > ch.max || lo > hi {
            out.resize(out.len() + chunk_out, 0);
            continue;
        }
        if lo <= ch.frame && hi >= ch.max {
            out.resize(out.len() + chunk_out, !0u64);
            continue;
        }
        let elo = lo.max(ch.frame).wrapping_sub(ch.frame) as u64;
        let ehi = hi.min(ch.max).wrapping_sub(ch.frame) as u64;
        match ch.bits {
            64 => {
                // One row per word: plain unsigned compares, 64 rows
                // per selection word.
                for group in words.chunks(64) {
                    let mut ow = 0u64;
                    for (k, &d) in group.iter().enumerate() {
                        ow |= ((d >= elo && d <= ehi) as u64) << k;
                    }
                    out.push(ow);
                }
            }
            1 => {
                // 64 rows per word; after the zone map only one-sided
                // bands remain, so each word maps by a Boolean op.
                for &x in words {
                    out.push(if elo == 1 { x } else { !x });
                }
            }
            2 => filter_lanes::<2>(words, elo, ehi, &mut out),
            4 => filter_lanes::<4>(words, elo, ehi, &mut out),
            8 => filter_lanes::<8>(words, elo, ehi, &mut out),
            16 => filter_lanes::<16>(words, elo, ehi, &mut out),
            32 => filter_lanes::<32>(words, elo, ehi, &mut out),
            bits => unreachable!("packed lanes are 1, 2, 4, 8, 16, 32 or 64 bits, not {bits}"),
        }
    }
    BitVec::from_words(len, out)
}

/// The top-k pre-filter word: bit `k` set iff `block[k] > threshold`,
/// over one 64-row block. Four interleaved lane accumulators, exactly
/// the [`filter_band`] structure with a one-sided band — the SWAR test
/// that lets the heap skip every row that cannot displace its minimum.
///
/// # Panics
///
/// Panics unless `block` holds exactly 64 rows.
pub fn gt_mask_word(block: &[i64], threshold: i64) -> u64 {
    assert_eq!(block.len(), 64, "pre-filter blocks are one selection word wide");
    let (mut l0, mut l1, mut l2, mut l3) = (0u64, 0u64, 0u64, 0u64);
    for k in 0..16 {
        let b = k * 4;
        l0 |= ((block[b] > threshold) as u64) << b;
        l1 |= ((block[b + 1] > threshold) as u64) << (b + 1);
        l2 |= ((block[b + 2] > threshold) as u64) << (b + 2);
        l3 |= ((block[b + 3] > threshold) as u64) << (b + 3);
    }
    (l0 | l1) | (l2 | l3)
}

/// The sign-bit flip that makes unsigned `u64` comparison agree with
/// signed `i64` comparison — the order-normalized sort-key encoding.
#[inline(always)]
pub fn sort_key(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Materializes order-normalized `u64` sort keys for a whole column in
/// lane batches (four rows per unrolled step): `sort_key(a) <
/// sort_key(b)` iff `a < b`, so sorting compares words instead of
/// signed values.
pub fn sort_keys(values: &[i64]) -> Vec<u64> {
    let mut keys = Vec::with_capacity(values.len());
    let mut quads = values.chunks_exact(4);
    for q in &mut quads {
        keys.extend_from_slice(&[sort_key(q[0]), sort_key(q[1]), sort_key(q[2]), sort_key(q[3])]);
    }
    for &v in quads.remainder() {
        keys.push(sort_key(v));
    }
    keys
}

/// Flattens a multi-column sort key into a contiguous row-major `u64`
/// region (`width = cols.len()` words per row), each word
/// order-normalized: comparing `&flat[a*w..a*w+w]` with
/// `&flat[b*w..b*w+w]` lexicographically equals comparing the rows
/// column by column. The same flattened encoding the composite-key
/// group-by hashes.
///
/// # Panics
///
/// Panics if `cols` is empty or the columns disagree on length.
pub fn composite_sort_keys(cols: &[&[i64]]) -> Vec<u64> {
    let rows = cols.first().expect("composite key needs at least one column").len();
    assert!(cols.iter().all(|c| c.len() == rows), "key columns must share one length");
    let width = cols.len();
    let mut flat = vec![0u64; rows * width];
    for (j, col) in cols.iter().enumerate() {
        // Column-at-a-time writes keep the inner loop a strided store of
        // one normalized word, lane-friendly for the compiler.
        for (r, &v) in col.iter().enumerate() {
            flat[r * width + j] = sort_key(v);
        }
    }
    flat
}

/// The partition kernel: `fanout`-way CRC32-C row-id partitioning of
/// `keys`, row ids offset by `base` (callers partition chunk
/// `[base, base + keys.len())` of a larger column). Keys stream through
/// four CRC lanes; the tail (< 4 keys) uses the single-key engine. Hash
/// values — and therefore partition contents and row order — are
/// bit-identical to the bit-serial reference loop.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn partition_row_ids(keys: &[i64], base: usize, fanout: u64) -> Vec<Vec<usize>> {
    assert!(fanout > 0, "fanout must be positive");
    // CRC spreads rows near-uniformly; sizing each bucket for its
    // expected share (plus slack) keeps the hot loop free of realloc
    // copies without changing contents or order.
    let per_bucket = keys.len() / fanout as usize + keys.len() / (8 * fanout as usize) + 8;
    let mut parts: Vec<Vec<usize>> = (0..fanout).map(|_| Vec::with_capacity(per_bucket)).collect();
    let mut quads = keys.chunks_exact(4);
    let mut r = base;
    for quad in &mut quads {
        let h = crc32c_u64_x4_hw([quad[0] as u64, quad[1] as u64, quad[2] as u64, quad[3] as u64]);
        parts[(h[0] as u64 % fanout) as usize].push(r);
        parts[(h[1] as u64 % fanout) as usize].push(r + 1);
        parts[(h[2] as u64 % fanout) as usize].push(r + 2);
        parts[(h[3] as u64 % fanout) as usize].push(r + 3);
        r += 4;
    }
    for (j, &k) in quads.remainder().iter().enumerate() {
        parts[(crc32c_u64_hw(k as u64) as u64 % fanout) as usize].push(r + j);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    use dpu_isa::hash::{crc32c_u64, crc32c_wide, crc32c_wide_hw, crc32c_wide_x4_hw};

    #[test]
    fn kernel_reports_the_hardware_crc_iff_the_host_has_it() {
        let want = if hw_crc_available() { Kernel::HwCrc } else { Kernel::Swar };
        assert_eq!(kernel(), want);
        assert_eq!(crate::vector_kernel(), want);
    }

    #[test]
    fn operator_hash_matches_bit_serial_on_extreme_keys() {
        // The engines the operators call, whichever one the host runs,
        // against the bit-serial reference; plus the partition routing
        // those hashes drive.
        let keys = [0u64, 1, u64::MAX, 1 << 63, (1 << 63) - 1, 0xDEAD_BEEF_CAFE_F00D, 0xFFFF_FFFF];
        for &key in &keys {
            let want = crc32c_u64(key);
            assert_eq!(crc32c_u64_hw(key), want, "key {key:#x}");
            assert_eq!(crc32c_u64_x4_hw([key; 4]), [want; 4], "key {key:#x}");
            assert_eq!(crc32c_wide_hw(&[key]), want, "key {key:#x}");
            for other in keys {
                let wide = [key, other, !key];
                let want_wide = crc32c_wide(&wide);
                assert_eq!(crc32c_wide_hw(&wide), want_wide, "keys {wide:x?}");
                assert_eq!(crc32c_wide_x4_hw([&wide[..]; 4]), [want_wide; 4], "keys {wide:x?}");
            }
        }
        let signed: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
        let parts = partition_row_ids(&signed, 3, 5);
        for (r, &k) in signed.iter().enumerate() {
            assert!(parts[(crc32c_u64(k as u64) % 5) as usize].contains(&(3 + r)), "key {k:#x}");
        }
    }

    #[test]
    fn filter_band_matches_per_row_semantics() {
        for len in [0usize, 1, 5, 63, 64, 65, 128, 200, 1000] {
            let data: Vec<i64> =
                (0..len as i64).map(|i| (i * 37 % 101) - 50 + (i % 7) * 1000).collect();
            let bv = filter_band(&data, -10, 900);
            assert_eq!(bv.len(), len);
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(bv.get(i), (-10..=900).contains(&x), "len={len} row={i}");
            }
        }
    }

    #[test]
    fn filter_band_handles_extremes() {
        let data = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let all = filter_band(&data, i64::MIN, i64::MAX);
        assert_eq!(all.count(), data.len());
        let none = filter_band(&data, 3, 2); // empty band
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn gt_mask_matches_per_row_compares() {
        let block: Vec<i64> =
            (0..64).map(|i| [i64::MIN, -3, 0, 7, i64::MAX][i as usize % 5]).collect();
        for t in [i64::MIN, -3, 0, 6, 7, i64::MAX] {
            let w = gt_mask_word(&block, t);
            for (i, &v) in block.iter().enumerate() {
                assert_eq!(w >> i & 1 == 1, v > t, "t={t} row={i}");
            }
        }
        // No row exceeds i64::MAX, so the word is empty (the guard the
        // top-k kernel relies on instead of computing t + 1).
        assert_eq!(gt_mask_word(&block, i64::MAX), 0);
    }

    #[test]
    fn sort_keys_preserve_order() {
        let vals = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let keys = sort_keys(&vals);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "normalization must preserve order");
        // Lane batches and tail agree with the per-value map.
        let many: Vec<i64> = (0..103).map(|i| i * 31 - 1500).collect();
        assert_eq!(sort_keys(&many), many.iter().map(|&v| sort_key(v)).collect::<Vec<_>>());
    }

    #[test]
    fn composite_keys_compare_like_rows() {
        let a: Vec<i64> = vec![1, 1, -5, i64::MIN, 1];
        let b: Vec<i64> = vec![9, -9, 0, i64::MAX, 9];
        let flat = composite_sort_keys(&[&a, &b]);
        assert_eq!(flat.len(), 10);
        for x in 0..a.len() {
            for y in 0..a.len() {
                let want = (a[x], b[x]).cmp(&(a[y], b[y]));
                let got = flat[x * 2..x * 2 + 2].cmp(&flat[y * 2..y * 2 + 2]);
                assert_eq!(got, want, "rows {x} vs {y}");
            }
        }
    }

    #[test]
    fn swar_field_compares_match_scalar() {
        // Every field width against exhaustive small fields / sampled
        // large ones: flags must sit at MSB positions and agree with
        // the per-field unsigned compares.
        for w in [2usize, 4, 8, 16, 32] {
            let fields = 64 / w;
            let fmax = (1u128 << w) - 1;
            let ones = u64::MAX / (fmax as u64);
            let h = ones << (w - 1);
            let samples: Vec<u64> = (0..=fmax.min(40))
                .map(|v| v as u64)
                .chain([fmax as u64, fmax as u64 - 1, fmax as u64 / 2])
                .collect();
            let mut x = 0u64;
            for (f, &s) in samples.iter().cycle().take(fields).enumerate() {
                x |= s.rotate_left(f as u32) & ((fmax as u64) << (f * w));
            }
            for &c in &samples {
                let cb = c.wrapping_mul(ones);
                let le = le_flags(x, cb, h);
                let ge = ge_flags(x, cb, h);
                assert_eq!(le & !h, 0, "w={w}: le flags must stay at MSBs");
                assert_eq!(ge & !h, 0, "w={w}: ge flags must stay at MSBs");
                for f in 0..fields {
                    let field = (x >> (f * w)) & (fmax as u64);
                    let bit = 1u64 << (f * w + w - 1);
                    assert_eq!(le & bit != 0, field <= c, "w={w} f={f} x={field} c={c} le");
                    assert_eq!(ge & bit != 0, field >= c, "w={w} f={f} x={field} c={c} ge");
                }
            }
        }
    }

    #[test]
    fn compress_gathers_strided_bits() {
        assert_eq!(compress_even(0xAAAA_AAAA_AAAA_AAAA), 0); // odd bits drop
        assert_eq!(compress_even(0x5555_5555_5555_5555), 0xFFFF_FFFF);
        for stride in [1usize, 2, 4, 8, 16, 32] {
            let fields = 64 / stride;
            // An alternating flag pattern at stride positions.
            let mut x = 0u64;
            for f in (0..fields).step_by(2) {
                x |= 1u64 << (f * stride);
            }
            let got = compress_stride(x, stride);
            let mut want = 0u64;
            for f in (0..fields).step_by(2) {
                want |= 1u64 << f;
            }
            assert_eq!(got, want, "stride={stride}");
        }
    }

    #[test]
    fn multiply_gather_equals_the_compaction_ladder() {
        // Every flag pattern a word of 8-, 16- or 32-bit lanes can
        // produce: 256, 16 and 4 patterns.
        fn check<const W: usize>() {
            let vpw = 64 / W;
            for pattern in 0u64..1 << vpw {
                let x = (0..vpw).fold(0u64, |x, j| x | (pattern >> j & 1) << (j * W));
                assert_eq!(gather_flags::<W>(x), compress_stride(x, W), "w={W} x={x:#x}");
                assert_eq!(gather_flags::<W>(x), pattern, "w={W} x={x:#x}");
            }
        }
        check::<8>();
        check::<16>();
        check::<32>();
    }

    #[test]
    fn packed_filter_matches_flat_filter() {
        use crate::column::PACK_CHUNK_ROWS;
        // One dataset per bit width (plus extremes), several bands each
        // — including bands that zone-map whole chunks in and out,
        // empty bands, and chunk-straddling lengths.
        let datasets: Vec<Vec<i64>> = vec![
            vec![],
            vec![7; 2 * PACK_CHUNK_ROWS + 17],  // constant chunks
            (0..2049).map(|i| i % 2).collect(), // 1 bit
            (0..1500).map(|i| -2 + (i * 7) % 4).collect(), // 2 bits
            (0..1025).map(|i| (i * 11) % 13).collect(), // 4 bits
            (0..4096).map(|i| 1000 + (i * 37) % 200).collect(), // 8 bits
            (0..777).map(|i| (i * 997) % 40_000 - 20_000).collect(), // 16 bits
            (0..2500).map(|i| (i * 2_654_435_761) % (1i64 << 31)).collect(), // 32 bits
            (0..300).map(|i| i * (1i64 << 40) - (1i64 << 47)).collect(), // 64 bits
            vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1, i64::MAX - 1],
        ];
        for data in &datasets {
            let p = PackedColumn::encode(data);
            let mut bands: Vec<(i64, i64)> = vec![
                (i64::MIN, i64::MAX),
                (0, 0),
                (3, 2), // empty (lo > hi)
                (i64::MIN, 0),
                (0, i64::MAX),
            ];
            if !data.is_empty() {
                let (&lo, &hi) = (data.iter().min().unwrap(), data.iter().max().unwrap());
                bands.extend([
                    (lo, hi),
                    (lo.saturating_add(1), hi.saturating_sub(1)),
                    (lo, lo),
                    (hi, hi),
                ]);
            }
            for (lo, hi) in bands {
                let want = filter_band(data, lo, hi);
                let got = filter_band_packed(&p, lo, hi);
                assert_eq!(got.words(), want.words(), "rows={} band=[{lo},{hi}]", data.len());
            }
        }
    }

    #[test]
    fn partition_matches_scalar_crc_and_offsets() {
        let keys: Vec<i64> = (0..103).map(|i| i * 7919 - 400).collect();
        for fanout in [1u64, 2, 7, 32] {
            let mut want: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
            for (r, &k) in keys.iter().enumerate() {
                want[(crc32c_u64(k as u64) as u64 % fanout) as usize].push(10 + r);
            }
            assert_eq!(partition_row_ids(&keys, 10, fanout), want, "fanout={fanout}");
        }
    }
}
