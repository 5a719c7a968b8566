//! Key codes: a group-by key tuple as one `u64`.
//!
//! The paper's group-by hashes each tuple's key into a DMEM-resident
//! table (§5.3); what that costs is priced by the cost walk
//! ([`crate::walk`]), so the host only has to produce the exact result.
//! [`KeyCode`] gives every key tuple one word whose unsigned order is
//! the tuple's signed lexicographic order: the dense group-by indexes
//! slots by it, and the hash group-by hashes it into one-word keys.

use crate::column::{Column, PackedColumn};

/// The map from a key tuple over some columns to one `u64`,
/// `Σ (k_c − lo_c)·stride_c`: `lo_c` is column `c`'s least value and
/// `stride_c` the product of the later columns' value ranges, so the
/// last column varies fastest. Codes run from 0 to the product of all
/// the ranges minus one, equal codes are equal tuples, and unsigned
/// code order is signed lexicographic tuple order. A tuple fits when
/// that product is at most 2^64 — a lone column spanning all of `i64`
/// does; multi-column keys near the `i64` extremes may not.
pub(crate) struct KeyCode<'a> {
    /// Per column: its values, least value and stride. A stride of
    /// 2^64 wraps to 0: it belongs to a column whose range is one
    /// value, so it only ever multiplies a zero.
    cols: Vec<(&'a [i64], i64, u64)>,
    /// The number of codes, the product of the columns' value ranges:
    /// at most 2^64, and 1 for no column or empty columns.
    domain: u128,
}

impl<'a> KeyCode<'a> {
    /// The code of key tuples over `cols`, or `None` when their value
    /// ranges multiply past 2^64.
    pub(crate) fn new(cols: &[&'a Column]) -> Option<Self> {
        let mut codes = Vec::with_capacity(cols.len());
        let mut domain = 1u128;
        for col in cols.iter().rev() {
            let (lo, hi) = key_bounds(&col.data, col.packed.as_ref()).unwrap_or((0, 0));
            codes.push((col.data.as_slice(), lo, domain as u64));
            let range = hi.abs_diff(lo) as u128 + 1;
            domain = domain.checked_mul(range).filter(|&d| d <= 1 << 64)?;
        }
        codes.reverse();
        Some(KeyCode { cols: codes, domain })
    }

    /// The number of distinct codes.
    pub(crate) fn domain(&self) -> u128 {
        self.domain
    }

    /// Per key column: its values, least value and stride, so a caller
    /// can specialize [`Self::code`] to its column count.
    pub(crate) fn columns(&self) -> &[(&'a [i64], i64, u64)] {
        &self.cols
    }

    /// The code of row `r`'s key tuple. The sum never exceeds
    /// `u64::MAX`, so wrapping arithmetic is exact.
    #[inline]
    pub(crate) fn code(&self, r: usize) -> u64 {
        self.cols.iter().fold(0u64, |code, &(kd, lo, stride)| {
            code.wrapping_add((kd[r].wrapping_sub(lo) as u64).wrapping_mul(stride))
        })
    }
}

/// The least and greatest of the values `data` (`None` when empty):
/// from `zones`, the packed chunks of a column holding exactly `data`,
/// when given, since their zone maps are exact; else one scan.
pub(crate) fn key_bounds(data: &[i64], zones: Option<&PackedColumn>) -> Option<(i64, i64)> {
    let bounds = |(lo, hi): (i64, i64), (a, b): (i64, i64)| (lo.min(a), hi.max(b));
    match zones {
        Some(p) => p.chunks().iter().map(|c| (c.frame, c.max)).reduce(bounds),
        None => data.iter().map(|&k| (k, k)).reduce(bounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codes of every row of `cols`, or `None` past 2^64.
    fn codes_of(cols: &[Vec<i64>]) -> Option<(Vec<u64>, u128)> {
        let cols: Vec<Column> = cols.iter().map(|c| Column::i64("k", c.clone())).collect();
        let refs: Vec<&Column> = cols.iter().collect();
        let code = KeyCode::new(&refs)?;
        let rows: Vec<usize> = (0..cols.first().map_or(0, |c| c.data.len())).collect();
        Some((rows.iter().map(|&r| code.code(r)).collect(), code.domain()))
    }

    /// Code order is tuple order, and each code is in the domain.
    fn assert_order(cols: &[Vec<i64>]) {
        let (codes, domain) = codes_of(cols).expect("key fits one word");
        let tuple = |r: usize| cols.iter().map(|c| c[r]).collect::<Vec<i64>>();
        for a in 0..codes.len() {
            assert!((codes[a] as u128) < domain, "row {a}: code past the domain");
            for b in 0..codes.len() {
                assert_eq!(codes[a].cmp(&codes[b]), tuple(a).cmp(&tuple(b)), "rows {a}, {b}");
            }
        }
    }

    #[test]
    fn code_order_is_signed_tuple_order() {
        let (min, max) = (i64::MIN, i64::MAX);
        // Negative, mixed-sign and extreme single keys.
        assert_order(&[vec![min, -7, -1, 0, 3, max, min + 1, max - 1, -7]]);
        // Mixed-sign pairs and triples, each column with a distinct range.
        assert_order(&[vec![-3, -3, 2, 2, 0, -3], vec![5, -5, 5, -5, 0, 5]]);
        assert_order(&[
            vec![-1, 0, -1, 0, -1, 0, 1],
            vec![-2, -2, 0, 0, 7, 7, -2],
            vec![9, -9, 9, -9, 0, 0, 1],
        ]);
        // A full-range last column beside a constant one, and a
        // full-range first column beside a constant one.
        assert_order(&[vec![-4; 5], vec![min, max, 0, -1, min]]);
        assert_order(&[vec![max, min, 0, -1, max], vec![i64::MIN; 5]]);
    }

    #[test]
    fn domain_boundaries() {
        let (min, max) = (i64::MIN, i64::MAX);
        // A lone column over all of i64: 2^64 codes.
        assert_eq!(codes_of(&[vec![min, max]]).unwrap().1, 1 << 64);
        // Ranges 2^32 × 2^32 multiply to exactly 2^64 and fit; 2^32 ×
        // (2^32 + 1) is 2^64 + 2^32 and does not, nor does 2^63 × 3.
        let r32 = vec![0, (1 << 32) - 1];
        assert_eq!(codes_of(&[r32.clone(), r32.clone()]).unwrap().1, 1 << 64);
        assert!(codes_of(&[r32.clone(), vec![0, 1 << 32]]).is_none());
        assert!(codes_of(&[vec![0, i64::MAX], vec![-1, 1]]).is_none());
        // Two full-range columns, or one beside a two-value column.
        assert!(codes_of(&[vec![min, max], vec![min, max]]).is_none());
        assert!(codes_of(&[vec![0, 1], vec![min, max]]).is_none());
        // The 2^64 product's largest tuple codes to u64::MAX.
        let (codes, _) = codes_of(&[r32.clone(), r32]).unwrap();
        assert_eq!(codes, vec![0, u64::MAX]);
        // Constant columns around a full-range one keep the whole domain.
        let (codes, domain) = codes_of(&[vec![5; 3], vec![min, 0, max], vec![-9; 3]]).unwrap();
        assert_eq!((codes, domain), (vec![0, 1 << 63, u64::MAX], 1 << 64));
        // No column, or empty columns: one code.
        assert_eq!(codes_of(&[]).unwrap().1, 1);
        assert_eq!(codes_of(&[vec![], vec![]]).unwrap(), (vec![], 1));
    }
}
