//! Typed columnar storage: the physical layer behind the engine's column blocks.
//!
//! The paper's data model (§4.2) stores the array `A_mn` logically; *how* a block of
//! it is laid out in memory is an engine concern. The original representation kept
//! every block as row-addressable `Vec<Cell>` columns — one tagged enum per entry, so
//! every kernel paid an enum-discriminant branch (and often a heap chase) per cell.
//! [`ColumnData`] is the typed alternative: a column whose domain is known (or
//! uniformly inducible) is stored as a flat `Vec<i64>` / `Vec<f64>` / `Vec<bool>` /
//! `Vec<String>` buffer plus a [`Validity`] bitmap for nulls, and `category` columns
//! are dictionary-encoded (the dictionary is exactly the distinct set the schema
//! induction summary already discovered). Columns that are still mixed — raw `Σ*`
//! data mid-parse, composite `collect` results — fall back to the tagged-cell form,
//! so the conversion is always *lossless*: `from_cells` → [`ColumnData::to_cells`]
//! round-trips cell-for-cell.
//!
//! The typed kernels (predicate masks, groupby accumulators, sort comparators, hash
//! streams) live in `df-core::ops`; this module provides the storage plus the
//! hash/equality primitives that must stay byte-identical to
//! [`Cell::hash_key`](crate::cell::Cell::hash_key) so bucket assignment never depends
//! on the layout. This is the only block layout: ingest checks bands in as typed
//! blocks, the kernels probe their key and aggregate columns into these buffers, and
//! the block frame (`df-storage::spill`) writes the buffers out as little-endian lanes.

use std::hash::Hasher;

use crate::cell::Cell;
use crate::domain::Domain;

// ---------------------------------------------------------------- validity bitmap

/// A null bitmap: bit `i` is set when row `i` holds a value (Arrow's convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

impl Validity {
    /// A bitmap of `len` rows, all valid.
    pub(crate) fn new_all_valid(len: usize) -> Validity {
        let full_words = len / 64;
        let mut words = vec![u64::MAX; full_words];
        let rem = len % 64;
        if rem > 0 {
            words.push((1u64 << rem) - 1);
        }
        Validity { words, len }
    }

    /// Rebuild a bitmap from raw words read back from a block frame. `None` unless
    /// there are exactly `len.div_ceil(64)` words and no bit is set at or past `len`
    /// — otherwise two bitmaps of the same rows could compare unequal.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Validity> {
        let tail_clear = match (words.last(), len % 64) {
            (Some(last), rem) if rem > 0 => last >> rem == 0,
            _ => true,
        };
        (words.len() == len.div_ceil(64) && tail_clear).then_some(Validity { words, len })
    }

    /// Number of rows covered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether row `i` holds a value.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Mark row `i` valid or null.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, valid: bool) {
        if valid {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The raw bitmap words (what the block frame writes).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bytes the bitmap occupies — what honest memory accounting charges.
    pub(crate) fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

// ---------------------------------------------------------------- column data

/// One column of a block in its physical layout.
///
/// Typed variants hold a flat value buffer (null slots hold an arbitrary default)
/// plus a [`Validity`] bitmap; `Dict` is a dictionary-encoded string column; `Cells`
/// is the lossless tagged-cell fallback for columns no typed layout can represent
/// exactly (mixed domains, composite `collect` values, `Int`/`Float` mixtures).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Tagged-cell fallback: exactly the row-oriented representation.
    Cells(Vec<Cell>),
    /// 64-bit integers (also `datetime`, which parses to epoch seconds).
    Int {
        /// Value buffer; null slots hold 0.
        values: Vec<i64>,
        /// Null bitmap.
        validity: Validity,
    },
    /// 64-bit floats, bit-exact (`-0.0` and NaN payloads survive the round trip).
    Float {
        /// Value buffer; null slots hold 0.0.
        values: Vec<f64>,
        /// Null bitmap.
        validity: Validity,
    },
    /// Booleans.
    Bool {
        /// Value buffer; null slots hold `false`.
        values: Vec<bool>,
        /// Null bitmap.
        validity: Validity,
    },
    /// Strings (`Σ*` raw data or parsed `str` columns).
    Str {
        /// Value buffer; null slots hold the empty string.
        values: Vec<String>,
        /// Null bitmap.
        validity: Validity,
    },
    /// Dictionary-encoded categoricals: `codes[i]` indexes into `dict`. The
    /// dictionary is the induction summary's distinct set in first-occurrence order.
    Dict {
        /// Per-row dictionary codes; null slots hold 0.
        codes: Vec<u32>,
        /// The distinct values, in first-occurrence order.
        dict: Vec<String>,
        /// Null bitmap.
        validity: Validity,
    },
}

impl ColumnData {
    /// Encode a slice of tagged cells into the tightest lossless layout, using the
    /// column's (known) domain as a hint — `category` selects dictionary encoding.
    pub fn from_cells(cells: &[Cell], domain: Option<&Domain>) -> ColumnData {
        ColumnData::from_cells_typed(cells, domain)
            .unwrap_or_else(|| ColumnData::Cells(cells.to_vec()))
    }

    /// Like [`ColumnData::from_cells`] but returns `None` instead of falling back to
    /// the tagged-cell clone when no typed layout is lossless. The kernels use this
    /// as a cheap probe: a failed probe costs one counting pass and zero copies, so a
    /// mixed column just stays on the row-oriented reference path.
    pub fn from_cells_typed(cells: &[Cell], domain: Option<&Domain>) -> Option<ColumnData> {
        let n = cells.len();
        let (mut ints, mut floats, mut bools, mut strs, mut others, mut nulls) = (0, 0, 0, 0, 0, 0);
        for cell in cells {
            match cell {
                Cell::Null => nulls += 1,
                Cell::Int(_) => ints += 1,
                Cell::Float(_) => floats += 1,
                Cell::Bool(_) => bools += 1,
                Cell::Str(_) => strs += 1,
                Cell::List(_) => others += 1,
            }
        }
        let valued = n - nulls;
        if others > 0 || valued == 0 && n > 0 && domain.is_none() {
            return None;
        }
        let uniform = |count: usize| count == valued;
        let hinted = |d: Domain| valued == 0 && domain == Some(&d);
        if uniform(ints) && ints > 0 || hinted(Domain::Int) || hinted(Domain::DateTime) {
            let mut values = vec![0i64; n];
            let mut validity = Validity::new_all_valid(n);
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Cell::Int(v) => values[i] = *v,
                    _ => validity.set(i, false),
                }
            }
            return Some(ColumnData::Int { values, validity });
        }
        if uniform(floats) && floats > 0 || hinted(Domain::Float) {
            let mut values = vec![0f64; n];
            let mut validity = Validity::new_all_valid(n);
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Cell::Float(v) => values[i] = *v,
                    _ => validity.set(i, false),
                }
            }
            return Some(ColumnData::Float { values, validity });
        }
        if uniform(bools) && bools > 0 || hinted(Domain::Bool) {
            let mut values = vec![false; n];
            let mut validity = Validity::new_all_valid(n);
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Cell::Bool(b) => values[i] = *b,
                    _ => validity.set(i, false),
                }
            }
            return Some(ColumnData::Bool { values, validity });
        }
        if uniform(strs) {
            if domain == Some(&Domain::Category) {
                let mut dict: Vec<String> = Vec::new();
                let mut lookup: std::collections::HashMap<&str, u32> =
                    std::collections::HashMap::new();
                let mut codes = vec![0u32; n];
                let mut validity = Validity::new_all_valid(n);
                for (i, cell) in cells.iter().enumerate() {
                    match cell {
                        Cell::Str(s) => {
                            codes[i] = *lookup.entry(s.as_str()).or_insert_with(|| {
                                dict.push(s.clone());
                                (dict.len() - 1) as u32
                            });
                        }
                        _ => validity.set(i, false),
                    }
                }
                drop(lookup);
                return Some(ColumnData::Dict {
                    codes,
                    dict,
                    validity,
                });
            }
            let mut values = vec![String::new(); n];
            let mut validity = Validity::new_all_valid(n);
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Cell::Str(s) => values[i] = s.clone(),
                    _ => validity.set(i, false),
                }
            }
            return Some(ColumnData::Str { values, validity });
        }
        None
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Cells(cells) => cells.len(),
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Bool { validity, .. }
            | ColumnData::Str { validity, .. }
            | ColumnData::Dict { validity, .. } => validity.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the column uses a typed buffer (not the tagged-cell fallback).
    pub fn is_typed(&self) -> bool {
        !matches!(self, ColumnData::Cells(_))
    }

    /// Materialise row `i` back into a tagged cell.
    pub fn get(&self, i: usize) -> Cell {
        match self {
            ColumnData::Cells(cells) => cells[i].clone(),
            ColumnData::Int { values, validity } => {
                if validity.get(i) {
                    Cell::Int(values[i])
                } else {
                    Cell::Null
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.get(i) {
                    Cell::Float(values[i])
                } else {
                    Cell::Null
                }
            }
            ColumnData::Bool { values, validity } => {
                if validity.get(i) {
                    Cell::Bool(values[i])
                } else {
                    Cell::Null
                }
            }
            ColumnData::Str { values, validity } => {
                if validity.get(i) {
                    Cell::Str(values[i].clone())
                } else {
                    Cell::Null
                }
            }
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => {
                if validity.get(i) {
                    Cell::Str(dict[codes[i] as usize].clone())
                } else {
                    Cell::Null
                }
            }
        }
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            ColumnData::Cells(cells) => cells[i].is_null(),
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Bool { validity, .. }
            | ColumnData::Str { validity, .. }
            | ColumnData::Dict { validity, .. } => !validity.get(i),
        }
    }

    /// Row `i` widened to a float, matching [`Cell::as_f64`] exactly (ints and
    /// booleans widen; nulls and strings do not). This is the accumulator feed for
    /// the vectorized SUM / MEAN / STD kernels.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            ColumnData::Cells(cells) => cells[i].as_f64(),
            ColumnData::Int { values, validity } => validity.get(i).then(|| values[i] as f64),
            ColumnData::Float { values, validity } => validity.get(i).then(|| values[i]),
            ColumnData::Bool { values, validity } => {
                validity.get(i).then(|| if values[i] { 1.0 } else { 0.0 })
            }
            ColumnData::Str { .. } | ColumnData::Dict { .. } => None,
        }
    }

    /// Ordering of rows `i` and `j` under [`Cell::sort_cmp`], evaluated straight off
    /// the typed buffers (the vectorized SORT comparator). Matches the reference
    /// ordering exactly: numeric comparisons go through `f64`, NaN sorts after every
    /// number and nulls sort last.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn numeric(a: Option<f64>, b: Option<f64>) -> Ordering {
            match (a, b) {
                (Some(x), Some(y)) => x
                    .partial_cmp(&y)
                    .unwrap_or_else(|| crate::cell::nan_last(x, y)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            }
        }
        match self {
            ColumnData::Cells(cells) => cells[i].sort_cmp(&cells[j]),
            ColumnData::Int { values, validity } => numeric(
                validity.get(i).then(|| values[i] as f64),
                validity.get(j).then(|| values[j] as f64),
            ),
            ColumnData::Float { values, validity } => numeric(
                validity.get(i).then(|| values[i]),
                validity.get(j).then(|| values[j]),
            ),
            ColumnData::Bool { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => values[i].cmp(&values[j]),
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => Ordering::Equal,
            },
            ColumnData::Str { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => values[i].cmp(&values[j]),
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => Ordering::Equal,
            },
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => match (validity.get(i), validity.get(j)) {
                (true, true) => dict[codes[i] as usize].cmp(&dict[codes[j] as usize]),
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => Ordering::Equal,
            },
        }
    }

    /// Decode the whole column back into tagged cells (the lossless inverse of
    /// [`ColumnData::from_cells`]).
    pub fn to_cells(&self) -> Vec<Cell> {
        match self {
            ColumnData::Cells(cells) => cells.clone(),
            _ => (0..self.len()).map(|i| self.get(i)).collect(),
        }
    }

    /// Feed row `i`'s group-key form into a hasher, byte-identical to
    /// [`Cell::hash_key`] — bucket assignment must not depend on the layout.
    pub fn hash_value_into<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            ColumnData::Cells(cells) => cells[i].hash_key(state),
            ColumnData::Int { values, validity } => {
                if validity.get(i) {
                    state.write_u8(2);
                    state.write_i64(values[i]);
                } else {
                    state.write_u8(0);
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.get(i) {
                    let v = values[i];
                    let normalised = if v.is_nan() {
                        f64::NAN.to_bits()
                    } else if v == 0.0 {
                        0.0_f64.to_bits()
                    } else {
                        v.to_bits()
                    };
                    state.write_u8(3);
                    state.write_u64(normalised);
                } else {
                    state.write_u8(0);
                }
            }
            ColumnData::Bool { values, validity } => {
                if validity.get(i) {
                    state.write_u8(4);
                    state.write_u8(u8::from(values[i]));
                } else {
                    state.write_u8(0);
                }
            }
            ColumnData::Str { values, validity } => {
                if validity.get(i) {
                    hash_str(&values[i], state);
                } else {
                    state.write_u8(0);
                }
            }
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => {
                if validity.get(i) {
                    hash_str(&dict[codes[i] as usize], state);
                } else {
                    state.write_u8(0);
                }
            }
        }
    }

    /// Group-key equality of rows `i` and `j` of this column, matching
    /// [`Cell::key_eq`] (all NaNs equal, `-0.0 == 0.0`).
    pub fn key_eq_rows(&self, i: usize, j: usize) -> bool {
        match self {
            ColumnData::Cells(cells) => cells[i].key_eq(&cells[j]),
            ColumnData::Int { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => values[i] == values[j],
                (a, b) => a == b,
            },
            ColumnData::Float { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => {
                    let (a, b) = (values[i], values[j]);
                    (a.is_nan() && b.is_nan()) || a == b
                }
                (a, b) => a == b,
            },
            ColumnData::Bool { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => values[i] == values[j],
                (a, b) => a == b,
            },
            ColumnData::Str { values, validity } => match (validity.get(i), validity.get(j)) {
                (true, true) => values[i] == values[j],
                (a, b) => a == b,
            },
            ColumnData::Dict {
                codes, validity, ..
            } => match (validity.get(i), validity.get(j)) {
                // Codes are deduplicated, so code equality is value equality.
                (true, true) => codes[i] == codes[j],
                (a, b) => a == b,
            },
        }
    }

    /// Honest memory accounting: value buffer + validity bitmap + dictionary heap.
    pub fn approx_size_bytes(&self) -> usize {
        match self {
            ColumnData::Cells(cells) => cells.iter().map(Cell::approx_size_bytes).sum(),
            ColumnData::Int { values, validity } => {
                values.len() * std::mem::size_of::<i64>() + validity.size_bytes()
            }
            ColumnData::Float { values, validity } => {
                values.len() * std::mem::size_of::<f64>() + validity.size_bytes()
            }
            ColumnData::Bool { values, validity } => values.len() + validity.size_bytes(),
            ColumnData::Str { values, validity } => {
                values.len() * std::mem::size_of::<String>()
                    + values.iter().map(String::len).sum::<usize>()
                    + validity.size_bytes()
            }
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => {
                codes.len() * std::mem::size_of::<u32>()
                    + dict.len() * std::mem::size_of::<String>()
                    + dict.iter().map(String::len).sum::<usize>()
                    + validity.size_bytes()
            }
        }
    }
}

#[inline]
fn hash_str<H: Hasher>(s: &str, state: &mut H) {
    state.write_u8(1);
    state.write(s.as_bytes());
    state.write_u8(0xff);
    state.write_usize(s.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{cell, StableHasher};

    fn probe_columns() -> Vec<(Vec<Cell>, Option<Domain>)> {
        vec![
            (vec![cell(1), cell(2), Cell::Null, cell(-7)], None),
            (vec![cell(1.5), Cell::Null, cell(-0.0), cell(0.0)], None),
            (vec![cell(true), cell(false), Cell::Null], None),
            (vec![cell("a"), Cell::Null, cell("bc")], None),
            (
                vec![cell("x"), cell("y"), cell("x"), Cell::Null],
                Some(Domain::Category),
            ),
            (vec![cell(1), cell(2.5)], None), // mixed → Cells fallback
            (vec![Cell::List(vec![cell(1)]), Cell::Null], None),
            (vec![], None),
        ]
    }

    #[test]
    fn round_trips_cell_for_cell() {
        for (cells, domain) in probe_columns() {
            let encoded = ColumnData::from_cells(&cells, domain.as_ref());
            assert_eq!(encoded.to_cells(), cells, "round trip failed for {cells:?}");
            assert_eq!(encoded.len(), cells.len());
        }
    }

    #[test]
    fn chooses_typed_layouts() {
        assert!(matches!(
            ColumnData::from_cells(&[cell(1), Cell::Null], None),
            ColumnData::Int { .. }
        ));
        assert!(matches!(
            ColumnData::from_cells(&[cell("x")], Some(&Domain::Category)),
            ColumnData::Dict { .. }
        ));
        assert!(matches!(
            ColumnData::from_cells(&[cell(1), cell(2.5)], None),
            ColumnData::Cells(_)
        ));
    }

    #[test]
    fn float_encoding_is_bit_exact() {
        let cells = vec![cell(-0.0), Cell::Float(f64::NAN), cell(1.5)];
        let encoded = ColumnData::from_cells(&cells, None);
        let decoded = encoded.to_cells();
        assert_eq!(decoded[0], Cell::Float(-0.0));
        assert!(decoded[0].as_f64().unwrap().is_sign_negative());
        assert!(decoded[1].as_f64().unwrap().is_nan());
    }

    #[test]
    fn hash_matches_cell_hash_key() {
        for (cells, domain) in probe_columns() {
            let encoded = ColumnData::from_cells(&cells, domain.as_ref());
            for (i, cell) in cells.iter().enumerate() {
                let mut a = StableHasher::default();
                cell.hash_key(&mut a);
                let mut b = StableHasher::default();
                encoded.hash_value_into(i, &mut b);
                assert_eq!(a.finish(), b.finish(), "hash diverged on {cell:?}");
            }
        }
    }

    #[test]
    fn key_eq_rows_matches_cell_key_eq() {
        for (cells, domain) in probe_columns() {
            let encoded = ColumnData::from_cells(&cells, domain.as_ref());
            for i in 0..cells.len() {
                for j in 0..cells.len() {
                    assert_eq!(
                        encoded.key_eq_rows(i, j),
                        cells[i].key_eq(&cells[j]),
                        "key_eq diverged on rows {i},{j} of {cells:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cmp_rows_matches_cell_sort_cmp() {
        // NaN cannot ride in `probe_columns` (its round-trip check compares by `==`).
        let nan_lane = vec![cell(2.0), cell(f64::NAN), Cell::Null, cell(f64::NAN)];
        for (cells, domain) in probe_columns().into_iter().chain([(nan_lane, None)]) {
            let encoded = ColumnData::from_cells(&cells, domain.as_ref());
            for i in 0..cells.len() {
                for j in 0..cells.len() {
                    assert_eq!(
                        encoded.cmp_rows(i, j),
                        cells[i].sort_cmp(&cells[j]),
                        "cmp diverged on rows {i},{j} of {cells:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_accessors_match_cell_semantics() {
        for (cells, domain) in probe_columns() {
            let encoded = ColumnData::from_cells(&cells, domain.as_ref());
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(encoded.is_null_at(i), cell.is_null());
                assert_eq!(encoded.f64_at(i), cell.as_f64());
            }
        }
    }

    #[test]
    fn typed_probe_refuses_mixed_columns_without_copying() {
        assert!(ColumnData::from_cells_typed(&[cell(1), cell(2.5)], None).is_none());
        assert!(ColumnData::from_cells_typed(&[Cell::List(vec![])], None).is_none());
        assert!(ColumnData::from_cells_typed(&[Cell::Null], None).is_none());
        assert!(matches!(
            ColumnData::from_cells_typed(&[Cell::Null], Some(&Domain::Float)),
            Some(ColumnData::Float { .. })
        ));
    }

    #[test]
    fn size_accounting_charges_buffers_bitmap_and_dictionary() {
        let ints = ColumnData::from_cells(&[cell(1), cell(2), cell(3)], None);
        assert_eq!(ints.approx_size_bytes(), 3 * 8 + 8);
        let cats = ColumnData::from_cells(
            &[cell("aa"), cell("bb"), cell("aa")],
            Some(&Domain::Category),
        );
        // 3 u32 codes + 2 dictionary strings (struct + 2 bytes heap each) + 1 word.
        assert_eq!(
            cats.approx_size_bytes(),
            3 * 4 + 2 * std::mem::size_of::<String>() + 4 + 8
        );
    }

    #[test]
    fn from_words_rejects_a_wrong_word_count() {
        assert!(Validity::from_words(vec![], 0).is_some());
        assert!(Validity::from_words(vec![1], 64).is_some());
        assert!(Validity::from_words(vec![1], 65).is_none());
        assert!(Validity::from_words(vec![1, 0], 64).is_none());
        assert!(Validity::from_words(vec![0], 0).is_none());
    }

    #[test]
    fn from_words_rejects_bits_past_the_last_row() {
        let honest = Validity::from_words(vec![0b101], 3).unwrap();
        assert_eq!(
            (0..3).map(|i| honest.get(i)).collect::<Vec<_>>(),
            [true, false, true]
        );
        assert!(Validity::from_words(vec![0b1000], 3).is_none());
        assert!(Validity::from_words(vec![u64::MAX, 1 << 6], 70).is_none());
        // A full last word has no tail to check.
        assert_eq!(
            Validity::from_words(vec![u64::MAX], 64),
            Some(Validity::new_all_valid(64))
        );
    }
}
