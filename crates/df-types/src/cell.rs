//! A single dataframe entry.
//!
//! The paper's data model stores the array `A_mn` over the uninterpreted domain `Σ*`
//! and interprets cells through per-column parsing functions. In this implementation a
//! [`Cell`] can either still be *raw* (a string, as ingested from CSV/HTML) or already
//! parsed into one of the typed domains. Keeping both in one enum lets the engines
//! defer parsing — and therefore schema induction — exactly as §5.1 of the paper
//! recommends, while still giving typed fast paths once a column has been parsed.
//!
//! Cells are also used for row and column *labels*: the paper points out that, unlike
//! the relational model where attribute names come from a separate domain `att`, data
//! frame labels come from the same domain set as the data, which is what makes
//! `TOLABELS` / `FROMLABELS` possible.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::domain::Domain;

/// A single value in a dataframe: one entry of `A_mn`, or one row/column label.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// The distinguished null value present in every domain (`NA` in the paper).
    Null,
    /// A value of the uninterpreted string domain `Σ*` (pandas' `Object`).
    Str(String),
    /// A 64-bit integer (`int`).
    Int(i64),
    /// A 64-bit float (`float`).
    Float(f64),
    /// A boolean (`bool`).
    Bool(bool),
    /// A composite value: the paper's GROUPBY `collect` aggregation produces composite
    /// cells holding the grouped values (§4.3, "dataframes can support composite values
    /// within a cell").
    List(Vec<Cell>),
}

impl Cell {
    /// True when the cell is the distinguished null value.
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The domain this concrete cell naturally belongs to, or `None` for null (null is
    /// a member of every domain and does not pin one down).
    pub(crate) fn natural_domain(&self) -> Option<Domain> {
        match self {
            Cell::Null => None,
            Cell::Str(_) => Some(Domain::Str),
            Cell::Int(_) => Some(Domain::Int),
            Cell::Float(_) => Some(Domain::Float),
            Cell::Bool(_) => Some(Domain::Bool),
            Cell::List(_) => Some(Domain::Composite),
        }
    }

    /// Interpret the cell as a float if its domain permits it. Integers and booleans
    /// widen; nulls and strings do not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(v) => Some(*v as f64),
            Cell::Float(v) => Some(*v),
            Cell::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interpret the cell as an integer if it is an integer or boolean.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(v) => Some(*v),
            Cell::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Borrow the cell as a string slice when it is in the raw `Σ*` domain.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow the composite payload when the cell is a `collect` result.
    pub fn as_list(&self) -> Option<&[Cell]> {
        match self {
            Cell::List(items) => Some(items),
            _ => None,
        }
    }

    /// Render the cell the way the raw data array `A_mn` would store it: a string.
    /// Null renders as the empty string, matching CSV conventions.
    pub fn to_raw_string(&self) -> String {
        match self {
            Cell::Null => String::new(),
            Cell::Str(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Cell::Bool(b) => if *b { "true" } else { "false" }.to_string(),
            Cell::List(items) => {
                let parts: Vec<String> = items.iter().map(Cell::to_raw_string).collect();
                format!("[{}]", parts.join(", "))
            }
        }
    }

    /// A canonical, hashable key for grouping, duplicate elimination and joins.
    ///
    /// Floats are keyed by their bit pattern (with `-0.0` normalised to `0.0` and all
    /// NaNs collapsed to one key) so that `GROUPBY` and `DROP DUPLICATES` have
    /// deterministic semantics even on float columns.
    pub fn group_key(&self) -> CellKey {
        match self {
            Cell::Null => CellKey::Null,
            Cell::Str(s) => CellKey::Str(s.clone()),
            Cell::Int(v) => CellKey::Int(*v),
            Cell::Float(v) => {
                let normalised = if v.is_nan() {
                    f64::NAN.to_bits()
                } else if *v == 0.0 {
                    0.0_f64.to_bits()
                } else {
                    v.to_bits()
                };
                CellKey::Float(normalised)
            }
            Cell::Bool(b) => CellKey::Bool(*b),
            Cell::List(items) => CellKey::List(items.iter().map(Cell::group_key).collect()),
        }
    }

    /// Feed the cell's canonical group-key form into a hasher without materialising a
    /// [`CellKey`]. This is the allocation-free path the shuffle subsystem and the
    /// single-pass GROUPBY kernel hash millions of cells through: floats are normalised
    /// exactly like [`Cell::group_key`] (`-0.0` folds into `0.0`, all NaNs collapse),
    /// and strings are hashed in place instead of being cloned into a key.
    pub fn hash_key<H: Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => state.write_u8(0),
            Cell::Str(s) => {
                state.write_u8(1);
                state.write(s.as_bytes());
                // Length terminator so ("ab","c") and ("a","bc") hash differently when
                // several cells stream into one hasher.
                state.write_u8(0xff);
                state.write_usize(s.len());
            }
            Cell::Int(v) => {
                state.write_u8(2);
                state.write_i64(*v);
            }
            Cell::Float(v) => {
                let normalised = if v.is_nan() {
                    f64::NAN.to_bits()
                } else if *v == 0.0 {
                    0.0_f64.to_bits()
                } else {
                    v.to_bits()
                };
                state.write_u8(3);
                state.write_u64(normalised);
            }
            Cell::Bool(b) => {
                state.write_u8(4);
                state.write_u8(u8::from(*b));
            }
            Cell::List(items) => {
                state.write_u8(5);
                state.write_usize(items.len());
                for item in items {
                    item.hash_key(state);
                }
            }
        }
    }

    /// Equality under group-key semantics: agrees with comparing [`Cell::group_key`]
    /// values (all NaNs equal, `-0.0 == 0.0`, no cross-domain numeric widening) but
    /// allocates nothing.
    pub fn key_eq(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::Float(a), Cell::Float(b)) => (a.is_nan() && b.is_nan()) || a == b,
            (Cell::List(a), Cell::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.key_eq(y))
            }
            _ => self == other,
        }
    }

    /// The ordering `Predicate` evaluation and chunk pruning use. Nulls sort last;
    /// values of different domains sort by a fixed domain precedence (bool < numeric <
    /// string < composite), mirroring the permissive ordering pandas applies to
    /// `Object` columns. A NaN compares `Equal` to every number, so this is *not* a
    /// total order — sorting goes through [`Cell::sort_cmp`].
    pub fn total_cmp(&self, other: &Cell) -> Ordering {
        self.cmp_with(other, |_, _| Ordering::Equal)
    }

    /// The total order `SORT`, GROUPBY output order and the range shuffle use:
    /// [`Cell::total_cmp`] with NaN ordered after every number and equal to itself
    /// (`sort_by` may panic on a comparator that is not a total order).
    pub fn sort_cmp(&self, other: &Cell) -> Ordering {
        self.cmp_with(other, nan_last)
    }

    /// `unordered` decides the pairs `f64::partial_cmp` cannot (one side is NaN); it
    /// runs only on that arm, so ordinary numeric comparisons pay nothing for it.
    fn cmp_with(&self, other: &Cell, unordered: fn(f64, f64) -> Ordering) -> Ordering {
        fn rank(c: &Cell) -> u8 {
            match c {
                Cell::Bool(_) => 0,
                Cell::Int(_) | Cell::Float(_) => 1,
                Cell::Str(_) => 2,
                Cell::List(_) => 3,
                Cell::Null => 4,
            }
        }
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::List(a), Cell::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.cmp_with(y, unordered);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or_else(|| unordered(x, y)),
                _ => rank(a).cmp(&rank(b)),
            },
        }
    }

    /// Approximate heap + inline size of the cell in bytes. Used by the engines for
    /// memory accounting and by the storage layer's spill policy.
    pub fn approx_size_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Cell>();
        match self {
            Cell::Str(s) => inline + s.len(),
            Cell::List(items) => inline + items.iter().map(Cell::approx_size_bytes).sum::<usize>(),
            _ => inline,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Null => write!(f, "NA"),
            other => write!(f, "{}", other.to_raw_string()),
        }
    }
}

impl Eq for Cell {}

impl Hash for Cell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Consistent with `PartialEq`: equal cells (including 0.0 / -0.0) feed the
        // hasher identically, without the `group_key` allocation the old path paid.
        self.hash_key(state);
    }
}

/// [`Cell::sort_cmp`]'s verdict on two floats `partial_cmp` cannot order (one is NaN):
/// NaN after every number, equal to itself. Shared with the typed sort comparator.
pub(crate) fn nan_last(x: f64, y: f64) -> Ordering {
    x.is_nan().cmp(&y.is_nan())
}

/// A deterministic, dependency-free FNV-1a hasher. The shuffle subsystem keys its
/// bucket assignment on this so that partition placement is reproducible across
/// thread counts, runs and platforms (`std`'s `DefaultHasher` makes no such promise).
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Canonical hashable form of a [`Cell`]; see [`Cell::group_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKey {
    /// Key for [`Cell::Null`].
    Null,
    /// Key for [`Cell::Str`].
    Str(String),
    /// Key for [`Cell::Int`].
    Int(i64),
    /// Key for [`Cell::Float`], as normalised bits.
    Float(u64),
    /// Key for [`Cell::Bool`].
    Bool(bool),
    /// Key for [`Cell::List`].
    List(Vec<CellKey>),
}

/// Ergonomic constructor: `cell(3)`, `cell("abc")`, `cell(1.5)`, `cell(true)`.
pub fn cell(value: impl Into<Cell>) -> Cell {
    value.into()
}

impl From<&str> for Cell {
    fn from(value: &str) -> Self {
        Cell::Str(value.to_string())
    }
}

impl From<String> for Cell {
    fn from(value: String) -> Self {
        Cell::Str(value)
    }
}

impl From<i64> for Cell {
    fn from(value: i64) -> Self {
        Cell::Int(value)
    }
}

impl From<i32> for Cell {
    fn from(value: i32) -> Self {
        Cell::Int(i64::from(value))
    }
}

impl From<usize> for Cell {
    fn from(value: usize) -> Self {
        Cell::Int(value as i64)
    }
}

impl From<f64> for Cell {
    fn from(value: f64) -> Self {
        Cell::Float(value)
    }
}

impl From<f32> for Cell {
    fn from(value: f32) -> Self {
        Cell::Float(f64::from(value))
    }
}

impl From<bool> for Cell {
    fn from(value: bool) -> Self {
        Cell::Bool(value)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(value: Option<T>) -> Self {
        match value {
            Some(v) => v.into(),
            None => Cell::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn constructors_produce_expected_variants() {
        assert_eq!(cell(3), Cell::Int(3));
        assert_eq!(cell(3i64), Cell::Int(3));
        assert_eq!(cell(2.5), Cell::Float(2.5));
        assert_eq!(cell("hi"), Cell::Str("hi".into()));
        assert_eq!(cell(true), Cell::Bool(true));
        assert_eq!(Cell::from(None::<i64>), Cell::Null);
        assert_eq!(Cell::from(Some(7)), Cell::Int(7));
    }

    #[test]
    fn null_checks_and_domains() {
        assert!(Cell::Null.is_null());
        assert!(!cell(1).is_null());
        assert_eq!(cell(1).natural_domain(), Some(Domain::Int));
        assert_eq!(cell("x").natural_domain(), Some(Domain::Str));
        assert_eq!(Cell::Null.natural_domain(), None);
        assert_eq!(
            Cell::List(vec![cell(1)]).natural_domain(),
            Some(Domain::Composite)
        );
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(cell(3).as_f64(), Some(3.0));
        assert_eq!(cell(true).as_f64(), Some(1.0));
        assert_eq!(cell("3").as_f64(), None);
        assert_eq!(cell(false).as_i64(), Some(0));
        assert_eq!(cell(2.5).as_i64(), None);
    }

    #[test]
    fn raw_string_round_trips_common_values() {
        assert_eq!(cell(42).to_raw_string(), "42");
        assert_eq!(cell(2.5).to_raw_string(), "2.5");
        assert_eq!(cell(2.0).to_raw_string(), "2.0");
        assert_eq!(cell(true).to_raw_string(), "true");
        assert_eq!(Cell::Null.to_raw_string(), "");
        assert_eq!(
            Cell::List(vec![cell(1), cell("a")]).to_raw_string(),
            "[1, a]"
        );
    }

    #[test]
    fn display_uses_na_for_null() {
        assert_eq!(Cell::Null.to_string(), "NA");
        assert_eq!(cell("x").to_string(), "x");
    }

    #[test]
    fn group_key_collapses_float_zero_and_nan() {
        assert_eq!(cell(0.0).group_key(), cell(-0.0).group_key());
        assert_eq!(
            Cell::Float(f64::NAN).group_key(),
            Cell::Float(f64::NAN).group_key()
        );
        let mut set = HashSet::new();
        set.insert(cell(1.0));
        set.insert(cell(1.0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn total_ordering_sorts_nulls_last_and_mixes_domains() {
        let mut cells = vec![
            Cell::Null,
            cell("b"),
            cell(2),
            cell(1.5),
            cell(true),
            cell("a"),
        ];
        cells.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(
            cells,
            vec![
                cell(true),
                cell(1.5),
                cell(2),
                cell("a"),
                cell("b"),
                Cell::Null
            ]
        );
    }

    #[test]
    fn sort_cmp_orders_nan_after_every_number_and_is_total() {
        let nan = Cell::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&cell(1.0)), Ordering::Equal);
        assert_eq!(nan.sort_cmp(&cell(f64::INFINITY)), Ordering::Greater);
        assert_eq!(cell(-3).sort_cmp(&nan), Ordering::Less);
        assert_eq!(nan.sort_cmp(&nan), Ordering::Equal);
        assert_eq!(nan.sort_cmp(&cell("a")), Ordering::Less);
        assert_eq!(nan.sort_cmp(&Cell::Null), Ordering::Less);
        // Agrees with total_cmp wherever that one is decided by the values.
        let probes = [cell(true), cell(-1), cell(2.5), cell("x"), Cell::Null, nan];
        for a in &probes {
            for b in &probes {
                assert_eq!(a.sort_cmp(b), b.sort_cmp(a).reverse(), "{a:?} vs {b:?}");
                if a.total_cmp(b) != Ordering::Equal {
                    assert_eq!(a.sort_cmp(b), a.total_cmp(b), "{a:?} vs {b:?}");
                }
                for c in &probes {
                    if a.sort_cmp(b) != Ordering::Greater && b.sort_cmp(c) != Ordering::Greater {
                        assert_ne!(a.sort_cmp(c), Ordering::Greater, "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
        // A long NaN-bearing sort neither panics nor misplaces a number.
        let mut cells: Vec<Cell> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Cell::Float(f64::NAN)
                } else {
                    cell(((i * 37) % 101) as f64)
                }
            })
            .collect();
        cells.sort_by(|a, b| a.sort_cmp(b));
        let first_nan = cells
            .iter()
            .position(|c| c.as_f64().is_some_and(f64::is_nan));
        assert_eq!(first_nan, Some(133));
        assert!(cells[..133]
            .windows(2)
            .all(|w| w[0].as_f64() <= w[1].as_f64()));
    }

    #[test]
    fn numeric_cross_type_comparison_is_by_value() {
        assert_eq!(cell(2).total_cmp(&cell(2.0)), Ordering::Equal);
        assert_eq!(cell(1).total_cmp(&cell(1.5)), Ordering::Less);
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Cell::List(vec![cell(1), cell(2)]);
        let b = Cell::List(vec![cell(1), cell(3)]);
        let c = Cell::List(vec![cell(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn key_eq_matches_group_key_equality() {
        let probes = vec![
            Cell::Null,
            cell(0.0),
            cell(-0.0),
            Cell::Float(f64::NAN),
            Cell::Float(-f64::NAN),
            cell(1),
            cell(1.0),
            cell("a"),
            cell(true),
            Cell::List(vec![cell(1), Cell::Float(f64::NAN)]),
            Cell::List(vec![cell(1)]),
        ];
        for a in &probes {
            for b in &probes {
                assert_eq!(
                    a.key_eq(b),
                    a.group_key() == b.group_key(),
                    "key_eq disagrees with group_key for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn bucket_hash_is_stable_and_respects_key_eq() {
        use std::hash::{Hash, Hasher};
        // The shuffle's bucket hash: `hash_key` through the deterministic hasher.
        let bucket = |c: Cell| {
            let mut h = StableHasher::default();
            c.hash_key(&mut h);
            h.finish()
        };
        assert_eq!(bucket(cell(0.0)), bucket(cell(-0.0)));
        assert_eq!(
            bucket(Cell::Float(f64::NAN)),
            bucket(Cell::Float(-f64::NAN))
        );
        assert_ne!(bucket(cell(1)), bucket(cell(2)));
        // Str hashing embeds a terminator: shifting bytes between adjacent cells in a
        // multi-cell stream must change the combined hash.
        let combined = |cells: &[Cell]| {
            let mut h = StableHasher::default();
            for c in cells {
                c.hash(&mut h);
            }
            h.finish()
        };
        assert_ne!(
            combined(&[cell("ab"), cell("c")]),
            combined(&[cell("a"), cell("bc")])
        );
    }

    #[test]
    fn approx_size_accounts_for_heap_payloads() {
        assert!(cell("hello world").approx_size_bytes() > cell(1).approx_size_bytes());
        let list = Cell::List(vec![cell("abc"), cell("def")]);
        assert!(list.approx_size_bytes() > cell("abc").approx_size_bytes());
    }
}
