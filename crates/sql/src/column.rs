//! Columnar tables and the compressed (FOR/bit-packed) column layer.
//!
//! Tables are stored column-major, as the DPU's SQL engine (and the
//! commercial in-memory columnar database it offloads from) requires.
//! Values are held as `i64` in the engine and materialized into physical
//! DRAM at a declared width for the DMS to stream.
//!
//! Since PR 9, every column can additionally carry a [`PackedColumn`]:
//! per-chunk frame-of-reference encoding at power-of-two bit widths
//! (1/2/4/8/16/32/64 bits per value packed into `u64` words), built
//! once at load time. The paper's DPU is a memory-bandwidth machine —
//! scans are priced by bytes streamed — so shrinking the resident
//! representation is the single biggest scan lever. Simulated scan
//! costs always price the resident packed bytes. On the host, the SWAR
//! filter kernel evaluates predicates directly on the packed words
//! ([`crate::vector::filter_band_packed`]); every other operator reads
//! the flat `data` that stays resident next to the packed words, since
//! decoding a copy per call measured slower than reading it. Results
//! are bit-identical to the flat values' (`tests/pack_properties.rs`
//! pins this differentially).

use dpu_mem::PhysMem;

/// Rows per frame-of-reference chunk. A multiple of 64 so chunk
/// boundaries align with selection-word boundaries, and small enough
/// that a chunk's `[min, max]` band stays tight on clustered data
/// (dates, keys dense in a shard).
pub const PACK_CHUNK_ROWS: usize = 1024;

/// Modeled bytes of one chunk header when resident (frame + max + bit
/// width, alignment-padded).
pub const PACK_HEADER_BYTES: u64 = 24;

/// Whether a column is read in its packed form. Kept only because the
/// host benchmark (`perfbench`) names it; ROADMAP direction 5 removes
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pack {
    /// The flat `Vec<i64>` values.
    Off,
    /// The packed words, where a column has them.
    On,
}

impl Pack {
    /// True for [`Pack::On`].
    pub fn on(self) -> bool {
        self == Pack::On
    }
}

/// Always [`Pack::On`]: filters read a packed column's words whenever
/// it has them. Kept only as the host benchmark's (`perfbench`)
/// fingerprint field; ROADMAP direction 5 removes it.
pub fn pack() -> Pack {
    Pack::On
}

/// One chunk's frame-of-reference header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackChunk {
    /// The frame: the chunk's minimum value. Stored deltas are
    /// `v.wrapping_sub(frame) as u64`, exact because `max − min`
    /// always fits in a `u64`.
    pub frame: i64,
    /// The chunk's maximum value (with `frame`, an exact zone map).
    pub max: i64,
    /// Bits per stored delta: 1, 2, 4, 8, 16, 32 or 64.
    pub bits: u8,
    /// First word of this chunk in the column's word stream.
    pub off: usize,
}

/// A frame-of-reference, bit-packed column: per-chunk headers plus a
/// contiguous `u64` word stream, `64 / bits` delta lanes per word
/// (LSB-first). Built once from the flat values; decoding is exact for
/// every `i64` including `i64::MIN`/`MAX`, because deltas live in the
/// unsigned `[0, max − min]` domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedColumn {
    len: usize,
    chunks: Vec<PackChunk>,
    words: Vec<u64>,
}

/// The packed bit width covering an unsigned delta range: the smallest
/// power of two ≥ the bit length of `range` (1 for all-constant
/// chunks).
fn bits_for(range: u64) -> u8 {
    let needed = (64 - range.leading_zeros()).max(1);
    needed.next_power_of_two() as u8
}

impl PackedColumn {
    /// Encodes `values` chunk by chunk ([`PACK_CHUNK_ROWS`] rows per
    /// chunk, bit width chosen from each chunk's min/max). Always
    /// succeeds; [`Column::encode_packed`] decides whether the packing
    /// *pays* against the flat representation.
    pub fn encode(values: &[i64]) -> PackedColumn {
        let mut chunks = Vec::with_capacity(values.len().div_ceil(PACK_CHUNK_ROWS));
        let mut words = Vec::new();
        for chunk in values.chunks(PACK_CHUNK_ROWS) {
            let (mut min, mut max) = (chunk[0], chunk[0]);
            for &v in chunk {
                min = min.min(v);
                max = max.max(v);
            }
            let bits = bits_for(max.wrapping_sub(min) as u64);
            let off = words.len();
            if bits == 64 {
                words.extend(chunk.iter().map(|&v| v.wrapping_sub(min) as u64));
            } else {
                let vpw = 64 / bits as usize;
                for group in chunk.chunks(vpw) {
                    let mut w = 0u64;
                    for (lane, &v) in group.iter().enumerate() {
                        w |= (v.wrapping_sub(min) as u64) << (lane * bits as usize);
                    }
                    words.push(w);
                }
            }
            chunks.push(PackChunk { frame: min, max, bits, off });
        }
        PackedColumn { len: values.len(), chunks, words }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk headers, in row order.
    pub fn chunks(&self) -> &[PackChunk] {
        &self.chunks
    }

    /// Rows in chunk `ci` (all chunks hold [`PACK_CHUNK_ROWS`] rows
    /// except possibly the last).
    pub fn chunk_rows(&self, ci: usize) -> usize {
        if ci + 1 < self.chunks.len() {
            PACK_CHUNK_ROWS
        } else {
            self.len - ci * PACK_CHUNK_ROWS
        }
    }

    /// The packed words of chunk `ci`.
    pub fn chunk_words(&self, ci: usize) -> &[u64] {
        let end = self.chunks.get(ci + 1).map_or(self.words.len(), |c| c.off);
        &self.words[self.chunks[ci].off..end]
    }

    /// Random access: the decoded value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "row {i} out of range ({} rows)", self.len);
        let ch = &self.chunks[i / PACK_CHUNK_ROWS];
        let r = i % PACK_CHUNK_ROWS;
        let delta = if ch.bits == 64 {
            self.words[ch.off + r]
        } else {
            let vpw = 64 / ch.bits as usize;
            let word = self.words[ch.off + r / vpw];
            let mask = (1u64 << ch.bits) - 1;
            (word >> ((r % vpw) * ch.bits as usize)) & mask
        };
        ch.frame.wrapping_add(delta as i64)
    }

    /// Decodes the whole column in lane batches: one word load yields
    /// `64 / bits` values by shift-and-mask before the next load.
    pub fn unpack(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for (ci, ch) in self.chunks.iter().enumerate() {
            let rows = self.chunk_rows(ci);
            let words = self.chunk_words(ci);
            if ch.bits == 64 {
                out.extend(words.iter().map(|&d| ch.frame.wrapping_add(d as i64)));
                continue;
            }
            let vpw = 64 / ch.bits as usize;
            let mask = (1u64 << ch.bits) - 1;
            let mut remaining = rows;
            for &word in words {
                let take = remaining.min(vpw);
                let mut x = word;
                for _ in 0..take {
                    out.push(ch.frame.wrapping_add((x & mask) as i64));
                    x >>= ch.bits;
                }
                remaining -= take;
            }
        }
        out
    }

    /// Resident bytes of the packed representation: the word stream
    /// plus [`PACK_HEADER_BYTES`] per chunk header.
    pub fn packed_bytes(&self) -> u64 {
        self.words.len() as u64 * 8 + self.chunks.len() as u64 * PACK_HEADER_BYTES
    }

    /// Average stored bits per value, headers included.
    pub fn bits_per_value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.packed_bytes() as f64 * 8.0 / self.len as f64
        }
    }
}

/// One column: a name, a declared storage width, values, and (when
/// packing pays) the packed resident representation.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Storage width in bytes (1, 2, 4 or 8) when materialized.
    pub width: u8,
    /// Values (sign-extended to i64 in the engine).
    pub data: Vec<i64>,
    /// The packed representation, when [`Column::encode_packed`] found
    /// it pays. Always decodes to exactly `data`; filters read it in
    /// place of `data` whenever it is present.
    pub packed: Option<PackedColumn>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        // `packed` is a derived cache of `data`: semantic equality
        // ignores it, so operator outputs (never packed) compare equal
        // to encoded build-side tables with the same values.
        self.name == other.name && self.width == other.width && self.data == other.data
    }
}

impl Eq for Column {}

impl Column {
    /// Creates a 4-byte column.
    pub fn i32(name: &str, data: Vec<i64>) -> Self {
        Column { name: name.to_string(), width: 4, data, packed: None }
    }

    /// Creates an 8-byte column.
    pub fn i64(name: &str, data: Vec<i64>) -> Self {
        Column { name: name.to_string(), width: 8, data, packed: None }
    }

    /// Bytes when materialized flat at the declared width.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * self.width as u64
    }

    /// Resident bytes the engine actually streams on a scan: the
    /// packed size when the column is packed, the flat size otherwise.
    /// Packing happens unconditionally at load, so simulated costs
    /// always price the packed size.
    pub fn resident_bytes(&self) -> u64 {
        self.packed.as_ref().map_or_else(|| self.bytes(), PackedColumn::packed_bytes)
    }

    /// Builds the packed representation if it is smaller than the flat
    /// one (transparent fallback otherwise). Idempotent.
    pub fn encode_packed(&mut self) {
        if self.packed.is_some() || self.data.is_empty() {
            return;
        }
        let p = PackedColumn::encode(&self.data);
        if p.packed_bytes() < self.bytes() {
            self.packed = Some(p);
        }
    }
}

/// A column-major table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// The columns (all equal length).
    pub columns: Vec<Column>,
}

/// Physical placement of a materialized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    /// DDR base address of each column.
    pub col_addrs: Vec<u64>,
    /// Row count.
    pub rows: u64,
    /// Widths per column.
    pub widths: Vec<u8>,
    /// First address past the table.
    pub end: u64,
}

impl Table {
    /// A table of `columns`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn new(columns: Vec<Column>) -> Self {
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(c.data.len(), first.data.len(), "ragged columns");
            }
        }
        Table { columns }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.data.len())
    }

    /// Finds a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Index of a column by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist (schema errors are bugs).
    pub fn col_index(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("no column {name:?}"))
    }

    /// Total bytes when materialized flat.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.bytes()).sum()
    }

    /// Total resident bytes (packed columns at their packed size).
    pub fn resident_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Packs every column where packing pays (see
    /// [`Column::encode_packed`]). Idempotent; called once at load.
    pub fn encode_packed(&mut self) {
        for c in &mut self.columns {
            c.encode_packed();
        }
    }

    /// A reduced table holding just the (deduplicated) referenced
    /// columns with any packed ones decoded in lane batches — the
    /// decode throughput the host benchmark reports. The operators do
    /// not call it: they read the resident flat `data`. Returns `None`
    /// when there is nothing to do (pack off, no referenced column
    /// packed, or an empty reference set). Kept only for the host
    /// benchmark's (`perfbench`) decode row; ROADMAP direction 5
    /// removes it.
    pub fn decode_for(&self, cols: &[&str], pack: Pack) -> Option<Table> {
        if !pack.on() {
            return None;
        }
        let mut names: Vec<&str> = Vec::new();
        for &c in cols {
            if !names.contains(&c) {
                names.push(c);
            }
        }
        let referenced: Vec<&Column> =
            names.iter().map(|&n| &self.columns[self.col_index(n)]).collect();
        if !referenced.iter().any(|c| c.packed.is_some()) {
            return None;
        }
        Some(Table::new(
            referenced
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    width: c.width,
                    data: c.packed.as_ref().map_or_else(|| c.data.clone(), PackedColumn::unpack),
                    packed: None,
                })
                .collect(),
        ))
    }

    /// Concatenates same-schema tables row-wise (shard/partition merge).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or schemas (names, widths) differ.
    pub fn concat(tables: &[Table]) -> Table {
        let first = tables.first().expect("concat of zero tables");
        let mut columns: Vec<Column> = first
            .columns
            .iter()
            .map(|c| Column {
                name: c.name.clone(),
                width: c.width,
                data: Vec::new(),
                packed: None,
            })
            .collect();
        for t in tables {
            assert_eq!(t.columns.len(), columns.len(), "schema mismatch");
            for (dst, src) in columns.iter_mut().zip(&t.columns) {
                assert_eq!(dst.name, src.name, "schema mismatch");
                assert_eq!(dst.width, src.width, "schema mismatch");
                dst.data.extend_from_slice(&src.data);
            }
        }
        Table::new(columns)
    }

    /// One row as a value vector (column order).
    pub fn row(&self, r: usize) -> Vec<i64> {
        self.columns.iter().map(|c| c.data[r]).collect()
    }

    /// The table with rows sorted lexicographically by all columns — a
    /// canonical form for order-insensitive result comparison.
    pub fn canonicalized(&self) -> Table {
        let mut order: Vec<usize> = (0..self.rows()).collect();
        order.sort_by(|&a, &b| {
            self.columns
                .iter()
                .map(|c| c.data[a].cmp(&c.data[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Table::new(
            self.columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    width: c.width,
                    data: order.iter().map(|&r| c.data[r]).collect(),
                    packed: None,
                })
                .collect(),
        )
    }

    /// Writes the table column-major into DRAM starting at `base`
    /// (column starts aligned to 256 B for clean AXI bursts).
    ///
    /// # Panics
    ///
    /// Panics if the memory region is too small or a value exceeds its
    /// column width.
    pub fn materialize(&self, phys: &mut PhysMem, base: u64) -> TableLayout {
        let mut addr = base;
        let mut col_addrs = Vec::new();
        for col in &self.columns {
            addr = addr.next_multiple_of(256);
            col_addrs.push(addr);
            for (i, &v) in col.data.iter().enumerate() {
                let truncated = match col.width {
                    1 => v as i8 as i64,
                    2 => v as i16 as i64,
                    4 => v as i32 as i64,
                    _ => v,
                };
                assert_eq!(truncated, v, "value {v} overflows {}B column", col.width);
                phys.write_uint(addr + i as u64 * col.width as u64, col.width as usize, v as u64);
            }
            addr += col.bytes();
        }
        TableLayout {
            col_addrs,
            rows: self.rows() as u64,
            widths: self.columns.iter().map(|c| c.width).collect(),
            end: addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let t =
            Table::new(vec![Column::i32("a", vec![1, 2, 3]), Column::i64("b", vec![10, 20, 30])]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column("b").unwrap().data[1], 20);
        assert_eq!(t.col_index("a"), 0);
        assert_eq!(t.bytes(), 3 * 4 + 3 * 8);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        Table::new(vec![Column::i32("a", vec![1]), Column::i32("b", vec![1, 2])]);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        Table::new(vec![]).col_index("x");
    }

    #[test]
    fn materialize_roundtrip() {
        let t = Table::new(vec![
            Column::i32("k", vec![5, -6, 7]),
            Column::i64("v", vec![1 << 40, -2, 3]),
        ]);
        let mut phys = PhysMem::new(4096);
        let layout = t.materialize(&mut phys, 100);
        assert_eq!(layout.rows, 3);
        assert!(layout.col_addrs[0].is_multiple_of(256));
        assert_eq!(phys.read_u32(layout.col_addrs[0] + 4) as i32, -6);
        assert_eq!(phys.read_u64(layout.col_addrs[1]) as i64, 1 << 40);
        assert_eq!(phys.read_u64(layout.col_addrs[1] + 8) as i64, -2);
        assert!(layout.end > layout.col_addrs[1]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_detected_at_materialize() {
        let t = Table::new(vec![Column::i32("k", vec![i64::MAX])]);
        let mut phys = PhysMem::new(4096);
        t.materialize(&mut phys, 0);
    }

    #[test]
    fn bits_for_rounds_to_powers_of_two() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 4);
        assert_eq!(bits_for(15), 4);
        assert_eq!(bits_for(16), 8);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 16);
        assert_eq!(bits_for(65_535), 16);
        assert_eq!(bits_for(65_536), 32);
        assert_eq!(bits_for(u32::MAX as u64), 32);
        assert_eq!(bits_for(u32::MAX as u64 + 1), 64);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn pack_round_trips_across_widths_and_boundaries() {
        // One case per bit width, plus chunk-boundary row counts.
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![42],
            vec![7; 5000],                                          // all-constant
            (0..2049).map(|i| i % 2).collect(),                     // 1 bit
            (0..1025).map(|i| 100 + i % 4).collect(),               // 2 bits
            (0..1024).map(|i| -8 + i % 15).collect(),               // 4 bits
            (0..63).map(|i| i * 4).collect(),                       // 8 bits
            (0..65).map(|i| i * 1000).collect(),                    // 16 bits
            (0..3000).map(|i| i * 1_000_000).collect(),             // 32 bits
            (0..130).map(|i| i * (1i64 << 40)).collect(),           // 64 bits
            vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX], // extreme range
        ];
        for data in cases {
            let p = PackedColumn::encode(&data);
            assert_eq!(p.len(), data.len());
            assert_eq!(p.unpack(), data, "unpack mismatch for {} rows", data.len());
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(p.get(i), v, "get({i}) mismatch");
            }
        }
    }

    #[test]
    fn chunk_headers_are_exact_zone_maps() {
        let data: Vec<i64> = (0..2500).map(|i| (i * 37) % 1000 - 500).collect();
        let p = PackedColumn::encode(&data);
        assert_eq!(p.chunks().len(), 3);
        for (ci, ch) in p.chunks().iter().enumerate() {
            let rows = p.chunk_rows(ci);
            let lo = ci * PACK_CHUNK_ROWS;
            let slice = &data[lo..lo + rows];
            assert_eq!(ch.frame, *slice.iter().min().unwrap());
            assert_eq!(ch.max, *slice.iter().max().unwrap());
        }
    }

    #[test]
    fn encode_packed_applies_payoff_rule() {
        // Tiny domain in a wide column: packing pays.
        let mut narrow = Column::i64("flags", (0..4096).map(|i| i % 2).collect());
        narrow.encode_packed();
        let p = narrow.packed.as_ref().expect("1-bit domain should pack");
        assert!(p.packed_bytes() < narrow.bytes());
        assert_eq!(narrow.resident_bytes(), p.packed_bytes());
        assert!(p.bits_per_value() < 2.0, "got {}", p.bits_per_value());

        // Full-range values in a 4-byte column: 64-bit deltas would
        // grow the column, so the fallback keeps it flat.
        let mut wide =
            Column::i32("noise", (0..4096).map(|i| (i * 2_654_435_761i64) as i32 as i64).collect());
        wide.encode_packed();
        assert!(wide.packed.is_none(), "packing must not pay here");
        assert_eq!(wide.resident_bytes(), wide.bytes());
    }

    #[test]
    fn decode_for_skips_what_has_nothing_to_decode() {
        let mut t = Table::new(vec![
            Column::i32("k", (0..2000).map(|i| i % 8).collect()),
            Column::i64("v", (0..2000).map(|i| (i * 97) % 1_000_003).collect()),
        ]);
        let flat = t.clone();
        t.encode_packed();
        assert!(t.columns[0].packed.is_some());
        // Semantic equality ignores the packed cache.
        assert_eq!(t, flat);
        // decode_for: None when off, when nothing referenced is packed
        // (after decode), and when the reference set is empty.
        assert!(t.decode_for(&["k", "v"], Pack::Off).is_none());
        assert!(t.decode_for(&[], Pack::On).is_none());
        let reduced = t.decode_for(&["v", "k", "v"], Pack::On).expect("packed cols referenced");
        assert_eq!(reduced.columns.len(), 2);
        assert_eq!(reduced.columns[0].name, "v");
        assert_eq!(reduced.column("k").unwrap().data, t.columns[0].data);
        assert!(reduced.decode_for(&["v", "k"], Pack::On).is_none());
    }
}
