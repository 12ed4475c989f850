//! Ordered row / column label vectors.
//!
//! Paper §4.2: rows and columns are symmetric; both can be referenced positionally
//! (`iloc`) or by name (`loc`), labels come from the same domain set as the data, may
//! contain duplicates or nulls ("labels are not like primary keys"), and the default
//! label of a row is simply its order rank. [`Labels`] captures all of that: an ordered
//! `Vec<Cell>` plus a lazily built name → positions index for named lookup.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{Cell, CellKey};
use crate::error::{Axis, DfError, DfResult};

/// An ordered vector of labels for one axis of a dataframe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Labels {
    values: Vec<Cell>,
}

/// Labels from anything convertible to cells (string names, integers, …).
impl<T: Into<Cell>> FromIterator<T> for Labels {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        Labels {
            values: values.into_iter().map(Into::into).collect(),
        }
    }
}

impl Labels {
    /// Labels from an explicit vector of cells.
    pub fn new(values: Vec<Cell>) -> Self {
        Labels { values }
    }

    /// The default labels for `len` rows: positional ranks `0..len` (paper §4.3,
    /// FROMLABELS resets row labels to "the order rank of each row").
    pub fn positional(len: usize) -> Self {
        Labels {
            values: (0..len).map(|i| Cell::Int(i as i64)).collect(),
        }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the axis is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying ordered labels.
    pub fn as_slice(&self) -> &[Cell] {
        &self.values
    }

    /// Approximate heap + inline size of the label vector in bytes. Feeds the same
    /// memory accounting as [`Cell::approx_size_bytes`], so the storage layer's spill
    /// budget sees label weight too (labels share the data's domain set and can be
    /// arbitrarily large strings).
    pub fn approx_size_bytes(&self) -> usize {
        self.values.iter().map(Cell::approx_size_bytes).sum()
    }

    /// Owning iterator over the labels.
    pub fn into_vec(self) -> Vec<Cell> {
        self.values
    }

    /// The label at a position (positional notation).
    pub fn get(&self, index: usize) -> Option<&Cell> {
        self.values.get(index)
    }

    /// The first position whose label equals `name`, or an error naming the axis.
    pub fn position_of(&self, name: &Cell, axis: &'static str) -> DfResult<usize> {
        let key = name.group_key();
        self.values
            .iter()
            .position(|l| l.group_key() == key)
            .ok_or_else(|| match axis {
                "row" => DfError::row_not_found(name),
                _ => DfError::column_not_found(name),
            })
    }

    /// Build a lookup index from label key to positions. Engines build this once per
    /// axis when they expect many named lookups (joins on labels, `reindex_like`).
    pub fn index(&self) -> HashMap<CellKey, Vec<usize>> {
        let mut map: HashMap<CellKey, Vec<usize>> = HashMap::with_capacity(self.values.len());
        for (i, label) in self.values.iter().enumerate() {
            map.entry(label.group_key()).or_default().push(i);
        }
        map
    }

    /// Append another label vector (UNION keeps the left argument's labels first).
    pub fn concat(&self, other: &Labels) -> Labels {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Labels { values }
    }

    /// Select a subset of labels by position, preserving the given order.
    pub fn select(&self, positions: &[usize]) -> DfResult<Labels> {
        let mut values = Vec::with_capacity(positions.len());
        for &p in positions {
            let cell = self.values.get(p).ok_or(DfError::IndexOutOfBounds {
                axis: Axis::Label,
                index: p,
                len: self.values.len(),
            })?;
            values.push(cell.clone());
        }
        Ok(Labels { values })
    }

    /// Replace the label at `index`.
    pub fn set(&mut self, index: usize, label: Cell) -> DfResult<()> {
        let len = self.values.len();
        match self.values.get_mut(index) {
            Some(slot) => {
                *slot = label;
                Ok(())
            }
            None => Err(DfError::IndexOutOfBounds {
                axis: Axis::Label,
                index,
                len,
            }),
        }
    }

    /// Push a label at the end of the axis.
    pub fn push(&mut self, label: Cell) {
        self.values.push(label);
    }

    /// Render labels as display strings (used by the tabular view).
    pub fn display_strings(&self) -> Vec<String> {
        self.values.iter().map(|c| c.to_string()).collect()
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.display_strings().join(", "))
    }
}

impl From<Vec<Cell>> for Labels {
    fn from(values: Vec<Cell>) -> Self {
        Labels::new(values)
    }
}

impl From<Vec<&str>> for Labels {
    fn from(values: Vec<&str>) -> Self {
        Labels::from_iter(values)
    }
}

impl From<Vec<String>> for Labels {
    fn from(values: Vec<String>) -> Self {
        Labels::from_iter(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell;

    #[test]
    fn labels_positional_are_order_ranks() {
        let labels = Labels::positional(3);
        assert_eq!(labels.as_slice(), &[cell(0), cell(1), cell(2)]);
        assert_eq!(labels.len(), 3);
        assert!(!labels.is_empty());
    }

    #[test]
    fn named_lookup_finds_positions_and_errors() {
        let labels = Labels::from(vec!["a", "b", "a"]);
        assert_eq!(labels.position_of(&cell("a"), "column").unwrap(), 0);
        assert_eq!(labels.position_of(&cell("b"), "column").unwrap(), 1);
        let err = labels.position_of(&cell("z"), "column").unwrap_err();
        assert!(matches!(err, DfError::ColumnNotFound(_)));
        let err = labels.position_of(&cell("z"), "row").unwrap_err();
        assert!(matches!(err, DfError::RowNotFound(_)));
    }

    #[test]
    fn index_groups_duplicate_labels() {
        let labels = Labels::from(vec!["x", "y", "x"]);
        let index = labels.index();
        assert_eq!(index[&cell("x").group_key()], vec![0, 2]);
        assert_eq!(index[&cell("y").group_key()], vec![1]);
    }

    #[test]
    fn select_preserves_requested_order_and_bounds_checks() {
        let labels = Labels::from(vec!["a", "b", "c"]);
        let picked = labels.select(&[2, 0]).unwrap();
        assert_eq!(picked.as_slice(), &[cell("c"), cell("a")]);
        assert!(labels.select(&[5]).is_err());
    }

    #[test]
    fn mutation_helpers() {
        let mut labels = Labels::from(vec!["a", "b"]);
        labels.set(0, cell("z")).unwrap();
        labels.push(cell("c"));
        assert_eq!(labels.as_slice(), &[cell("z"), cell("b"), cell("c")]);
        assert!(labels.set(9, cell("x")).is_err());
    }

    #[test]
    fn concat_keeps_left_first() {
        let left = Labels::from(vec!["a"]);
        let right = Labels::from(vec!["b", "c"]);
        assert_eq!(
            left.concat(&right).as_slice(),
            &[cell("a"), cell("b"), cell("c")]
        );
    }

    #[test]
    fn labels_may_be_integers_or_nulls() {
        let labels = Labels::new(vec![cell(2017), Cell::Null]);
        assert_eq!(labels.position_of(&Cell::Null, "row").unwrap(), 1);
        assert_eq!(labels.to_string(), "[2017, NA]");
    }
}
