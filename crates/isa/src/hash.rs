//! Hash functions used by the DPU hardware and workloads.
//!
//! The dpCore exposes a single-cycle `CRC32` instruction and the DMS's
//! hash engine applies the same CRC32 polynomial when hash-partitioning
//! (§3.1). Murmur64 is implemented in software from multiplies, which is
//! why it performs poorly on the dpCore's variable-latency multiplier
//! (§5.4).

/// One step of the CRC32-C (Castagnoli) engine: folds a 32-bit word into
/// the running checksum. This is the semantic of the `crc32` instruction.
///
/// # Example
///
/// ```
/// use dpu_isa::hash::crc32c_step;
/// let c = crc32c_step(0, 0xDEAD_BEEF);
/// assert_ne!(c, 0);
/// assert_eq!(c, crc32c_step(0, 0xDEAD_BEEF));
/// ```
pub fn crc32c_step(crc: u32, word: u32) -> u32 {
    let mut c = crc ^ word;
    for _ in 0..32 {
        c = if c & 1 != 0 {
            (c >> 1) ^ 0x82F6_3B78 // reflected CRC32-C polynomial
        } else {
            c >> 1
        };
    }
    c
}

/// CRC32-C over a byte slice (4 bytes at a time, zero-padded tail),
/// matching how the DMS hash engine streams column values.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(4);
    for ch in &mut chunks {
        crc = crc32c_step(crc, u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 4];
        w[..rem.len()].copy_from_slice(rem);
        crc = crc32c_step(crc, u32::from_le_bytes(w));
    }
    !crc
}

/// CRC32-C of a 64-bit key (two engine steps), the DMS partitioner's
/// per-tuple hash.
pub fn crc32c_u64(key: u64) -> u32 {
    let lo = crc32c_step(!0, key as u32);
    !crc32c_step(lo, (key >> 32) as u32)
}

/// Byte-indexed CRC32-C table: entry `b` is the 8 bit-serial engine
/// iterations folded into one lookup, so a 32-bit step costs 4 lookups
/// instead of 32 shift/xor rounds. Built at compile time from the same
/// reflected polynomial as [`crc32c_step`].
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut c = b as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0x82F6_3B78 } else { c >> 1 };
            k += 1;
        }
        table[b] = c;
        b += 1;
    }
    table
};

/// One table-driven 32-bit engine step: four byte lookups, bit-identical
/// to [`crc32c_step`] (the table pre-folds 8 bit-serial rounds per byte).
#[inline]
fn crc32c_step_table(crc: u32, word: u32) -> u32 {
    let mut c = crc ^ word;
    c = CRC32C_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
    c = CRC32C_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
    c = CRC32C_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
    CRC32C_TABLE[(c & 0xFF) as usize] ^ (c >> 8)
}

/// Table-driven [`crc32c_u64`]: the host kernels' engine where SSE4.2
/// is absent ([`crc32c_u64_hw`] falls back to it). Bit-identical to the bit-serial reference (exhaustively
/// sampled in `tests/vector_properties.rs`) at ~8 lookups per key
/// instead of 64 shift/xor rounds.
#[inline]
pub fn crc32c_u64_table(key: u64) -> u32 {
    let lo = crc32c_step_table(!0, key as u32);
    !crc32c_step_table(lo, (key >> 32) as u32)
}

/// Four independent [`crc32c_u64`] streams, lane-interleaved so the four
/// lookup chains overlap in the host pipeline (stream-split ILP — each
/// lane's CRC chain is serial, but the four lanes are independent).
/// Bit-identical per lane to [`crc32c_u64`].
#[inline]
pub fn crc32c_u64_x4(keys: [u64; 4]) -> [u32; 4] {
    let mut c = [!0u32; 4];
    let mut lane = 0;
    while lane < 4 {
        c[lane] ^= keys[lane] as u32;
        lane += 1;
    }
    for _ in 0..4 {
        let mut lane = 0;
        while lane < 4 {
            c[lane] = CRC32C_TABLE[(c[lane] & 0xFF) as usize] ^ (c[lane] >> 8);
            lane += 1;
        }
    }
    let mut lane = 0;
    while lane < 4 {
        c[lane] ^= (keys[lane] >> 32) as u32;
        lane += 1;
    }
    for _ in 0..4 {
        let mut lane = 0;
        while lane < 4 {
            c[lane] = CRC32C_TABLE[(c[lane] & 0xFF) as usize] ^ (c[lane] >> 8);
            lane += 1;
        }
    }
    [!c[0], !c[1], !c[2], !c[3]]
}

/// True when the host exposes the SSE4.2 `crc32` instruction, the
/// hardware twin of the dpCore's single-cycle `CRC32`. The `*_hw`
/// engines run it when this holds and the table-driven CRC otherwise.
pub fn hw_crc_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One hardware 64-bit engine step (`crc32q`), bit-identical to two
/// [`crc32c_step`] rounds: the instruction implements the same reflected
/// CRC32-C update, consuming the low word first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32q(crc: u32, word: u64) -> u32 {
    core::arch::x86_64::_mm_crc32_u64(crc as u64, word) as u32
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_u64_hw_inner(key: u64) -> u32 {
    !crc32q(!0, key)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_u64_x4_hw_inner(keys: [u64; 4]) -> [u32; 4] {
    // Four independent crc32q chains in flight: the instruction has
    // multi-cycle latency but single-cycle throughput, so interleaving
    // hides the dependency chain exactly like the table-driven lanes.
    let c = [crc32q(!0, keys[0]), crc32q(!0, keys[1]), crc32q(!0, keys[2]), crc32q(!0, keys[3])];
    [!c[0], !c[1], !c[2], !c[3]]
}

/// Hardware [`crc32c_u64`] via SSE4.2 `crc32q`; falls back to the table
/// CRC when the instruction is absent, so it is total (and bit-identical
/// to the bit-serial reference) on every host.
#[inline]
pub fn crc32c_u64_hw(key: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw_crc_available() {
        // SAFETY: the sse4.2 feature was just detected at runtime.
        return unsafe { crc32c_u64_hw_inner(key) };
    }
    crc32c_u64_table(key)
}

/// Hardware [`crc32c_u64_x4`]: four `crc32q` chains in flight (table
/// fallback off x86_64 or without SSE4.2).
#[inline]
pub fn crc32c_u64_x4_hw(keys: [u64; 4]) -> [u32; 4] {
    #[cfg(target_arch = "x86_64")]
    if hw_crc_available() {
        // SAFETY: the sse4.2 feature was just detected at runtime.
        return unsafe { crc32c_u64_x4_hw_inner(keys) };
    }
    crc32c_u64_x4(keys)
}

/// MurmurHash3's 64-bit finalizer ("Murmur64" in the paper): two 64-bit
/// multiplies with full-width constants plus xor-shifts.
///
/// # Example
///
/// ```
/// use dpu_isa::hash::murmur64;
/// assert_ne!(murmur64(1), murmur64(2));
/// ```
pub fn murmur64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k
}

/// Cost in dpCore instructions of hashing one 64-bit key, used by the
/// counted-execution model: `(alu_ops, mul_ops, mul_operand)` where
/// `mul_operand` drives the variable-latency multiplier model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// Hardware CRC32-C: two `crc32` instruction steps per 64-bit key.
    Crc32,
    /// Software Murmur64: six xor/shift ALU ops plus two 64-bit multiplies.
    Murmur64,
}

impl HashKind {
    /// Hashes a 64-bit key to a 64-bit value.
    pub fn hash(self, key: u64) -> u64 {
        match self {
            HashKind::Crc32 => crc32c_u64(key) as u64,
            HashKind::Murmur64 => murmur64(key),
        }
    }

    /// Number of plain ALU instructions per key.
    pub fn alu_ops(self) -> u64 {
        match self {
            HashKind::Crc32 => 2,    // two crc32 steps
            HashKind::Murmur64 => 6, // 3 xor + 3 shift
        }
    }

    /// Number of multiplies per key (zero for the hardware CRC path).
    pub fn mul_ops(self) -> u64 {
        match self {
            HashKind::Crc32 => 0,
            HashKind::Murmur64 => 2,
        }
    }

    /// Representative multiplier operand (drives variable latency).
    pub fn mul_operand(self) -> u64 {
        match self {
            HashKind::Crc32 => 0,
            HashKind::Murmur64 => 0xFF51_AFD7_ED55_8CCD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_bytewise_reference_on_aligned_input() {
        // The engine consumes 32 bits per step (zero-padding the tail), so
        // 4-byte-aligned inputs must match the canonical bytewise CRC32-C.
        assert_eq!(crc32c(b"12345678"), bytewise_crc32c(b"12345678"));
        assert_eq!(crc32c(b"abcd"), bytewise_crc32c(b"abcd"));
        assert_eq!(crc32c(b""), bytewise_crc32c(b""));
    }

    fn bytewise_crc32c(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc_step_is_deterministic_and_sensitive() {
        assert_eq!(crc32c_step(0, 1), crc32c_step(0, 1));
        assert_ne!(crc32c_step(0, 1), crc32c_step(0, 2));
        assert_ne!(crc32c_step(1, 1), crc32c_step(0, 1));
    }

    #[test]
    fn crc_u64_differs_from_truncation() {
        // High bits must influence the hash.
        assert_ne!(crc32c_u64(0x1_0000_0000), crc32c_u64(0));
    }

    #[test]
    fn table_crc_matches_bit_serial_engine() {
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1 << 32, u32::MAX as u64] {
            assert_eq!(crc32c_u64_table(key), crc32c_u64(key), "key {key:#x}");
        }
        for word in [0u32, 1, 0xFF, 0x8000_0000, u32::MAX] {
            assert_eq!(crc32c_step_table(!0, word), crc32c_step(!0, word), "word {word:#x}");
        }
    }

    #[test]
    fn four_lane_crc_matches_per_lane_scalar() {
        let keys = [7u64, u64::MAX, 0, 0x0123_4567_89AB_CDEF];
        let lanes = crc32c_u64_x4(keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(lanes[i], crc32c_u64(k), "lane {i}");
        }
    }

    #[test]
    fn hw_crc_matches_bit_serial_when_available() {
        // The fallback path makes these equalities hold on every host;
        // on SSE4.2 hosts they additionally pin the crc32q instruction
        // to the engine semantics.
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1 << 32, u32::MAX as u64] {
            assert_eq!(crc32c_u64_hw(key), crc32c_u64(key), "key {key:#x}");
        }
        let keys = [7u64, u64::MAX, 0, 0x0123_4567_89AB_CDEF];
        let lanes = crc32c_u64_x4_hw(keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(lanes[i], crc32c_u64(k), "lane {i}");
        }
    }

    #[test]
    fn murmur_avalanche() {
        // Flipping one input bit should flip ~half the output bits.
        let a = murmur64(0x1234_5678_9ABC_DEF0);
        let b = murmur64(0x1234_5678_9ABC_DEF1);
        let flipped = (a ^ b).count_ones();
        assert!((20..=44).contains(&flipped), "weak avalanche: {flipped} bits");
    }

    #[test]
    fn hash_kind_dispatch() {
        assert_eq!(HashKind::Crc32.hash(7), crc32c_u64(7) as u64);
        assert_eq!(HashKind::Murmur64.hash(7), murmur64(7));
        assert_eq!(HashKind::Crc32.mul_ops(), 0);
        assert_eq!(HashKind::Murmur64.mul_ops(), 2);
        assert!(HashKind::Murmur64.mul_operand() > u32::MAX as u64);
    }

    #[test]
    fn hashes_spread_over_partitions() {
        // 32-way partitioning by either hash should be roughly balanced.
        for kind in [HashKind::Crc32, HashKind::Murmur64] {
            let mut buckets = [0u32; 32];
            for k in 0..32_000u64 {
                buckets[(kind.hash(k) % 32) as usize] += 1;
            }
            for &b in &buckets {
                assert!((700..1300).contains(&b), "{kind:?} bucket {b} unbalanced");
            }
        }
    }
}
