//! Vectorized columnar kernels.
//!
//! The algebra's semantics are defined one row at a time: a predicate sees a
//! [`crate::algebra::RowView`], group keys are tagged cells compared with
//! [`Cell::key_eq`], SORT orders by [`Cell::sort_cmp`]. The functions here are the
//! column-at-a-time forms the operators in the sibling modules run: tight loops over
//! one column (or one typed [`ColumnData`] buffer) that the compiler can keep in
//! registers and auto-vectorize. Every kernel must agree with the row-at-a-time
//! definition cell-for-cell; `tests/columnar_equivalence.rs` checks each one against
//! a row-wise oracle (`ops::group::group_by_rowwise`, `drop_duplicates_rowwise`,
//! `Predicate::matches`, `Cell::total_cmp`, `Cell::hash_key`) on random frames.
//!
//! A column with no typed layout (mixed domains, plain strings, composite cells) is
//! read cell by cell inside the same kernel, and a `Predicate::Custom` — which
//! receives a whole row — runs SELECTION's row loop.
//!
//! Kernels:
//! * `predicate_mask_at` — SELECTION: evaluate a predicate into a boolean mask, one
//!   column scan per leaf, without materialising a row or a `Cell` per comparison.
//! * Grouping tables keyed by the raw 64-bit [`StableHasher`](df_types::cell::StableHasher)
//!   stream (`RawTable`): GROUPBY / DROP DUPLICATES probe on the already-mixed
//!   hash instead of re-hashing a `Vec<CellKey>` clone of every row.
//! * Typed sort keys and single-pass aggregation feeds live with their operators in
//!   `ops::group`, built on [`ColumnData::cmp_rows`] / [`ColumnData::f64_at`].

use std::hash::{BuildHasherDefault, Hasher};

use df_types::cell::Cell;
use df_types::ColumnData;

use crate::algebra::{CmpOp, Predicate};
use crate::dataframe::{Column, DataFrame};

/// Probe a column for a typed buffer worth hashing / grouping / sorting through.
/// Numeric and boolean columns win outright (flat buffer, no enum branches);
/// `category` columns dictionary-encode so key equality is a code compare. Plain
/// string columns stay as tagged cells — a `Str` buffer would clone the whole
/// column for no kernel gain — as does anything mixed (the probe refuses without
/// copying); the kernels read those columns cell by cell.
pub fn typed_for_keying(column: &Column) -> Option<ColumnData> {
    match ColumnData::from_cells_typed(column.cells(), column.known_domain().as_ref()) {
        Some(
            data @ (ColumnData::Int { .. }
            | ColumnData::Float { .. }
            | ColumnData::Bool { .. }
            | ColumnData::Dict { .. }),
        ) => Some(data),
        _ => None,
    }
}

/// Evaluate `predicate` for every row of `df` as a boolean mask, or `None` when the
/// predicate contains a leaf only the row-oriented path can evaluate (`Custom`
/// predicates receive a whole-row view). Semantics match
/// [`Predicate::matches`] exactly: missing columns make `ColCmp`/`IsNull`/`NotNull`
/// leaves false, null operands make comparisons false, and cross-domain comparisons
/// order by domain rank. `df` may be a band of a larger frame: its row `i` sits at
/// global position `offset + i`, which is what positional leaves are evaluated against.
pub(crate) fn predicate_mask_at(
    df: &DataFrame,
    predicate: &Predicate,
    offset: usize,
) -> Option<Vec<bool>> {
    let n = df.n_rows();
    match predicate {
        Predicate::True => Some(vec![true; n]),
        Predicate::PositionRange { start, end } => Some(
            (offset..offset + n)
                .map(|i| i >= *start && i < *end)
                .collect(),
        ),
        Predicate::ColCmp { column, op, value } => Some(match resolve(df, column) {
            Some(j) => colcmp_mask(df.columns()[j].cells(), *op, value),
            None => vec![false; n],
        }),
        Predicate::IsNull { column } => Some(match resolve(df, column) {
            Some(j) => df.columns()[j].cells().iter().map(Cell::is_null).collect(),
            None => vec![false; n],
        }),
        Predicate::NotNull { column } => Some(match resolve(df, column) {
            Some(j) => df.columns()[j]
                .cells()
                .iter()
                .map(|c| !c.is_null())
                .collect(),
            None => vec![false; n],
        }),
        Predicate::Not(inner) => {
            let mut mask = predicate_mask_at(df, inner, offset)?;
            for b in &mut mask {
                *b = !*b;
            }
            Some(mask)
        }
        Predicate::And(a, b) => {
            let mut mask = predicate_mask_at(df, a, offset)?;
            let other = predicate_mask_at(df, b, offset)?;
            for (x, y) in mask.iter_mut().zip(other) {
                *x = *x && y;
            }
            Some(mask)
        }
        Predicate::Or(a, b) => {
            let mut mask = predicate_mask_at(df, a, offset)?;
            let other = predicate_mask_at(df, b, offset)?;
            for (x, y) in mask.iter_mut().zip(other) {
                *x = *x || y;
            }
            Some(mask)
        }
        Predicate::Custom { .. } => None,
    }
}

/// Resolve a column label the way [`RowView::get`](crate::algebra::RowView::get)
/// does — first position whose group key matches — but once per predicate leaf
/// instead of once per row.
fn resolve(df: &DataFrame, label: &Cell) -> Option<usize> {
    let key = label.group_key();
    df.col_labels()
        .as_slice()
        .iter()
        .position(|l| l.group_key() == key)
}

/// One `column <op> constant` scan. The constant's domain is dispatched *outside*
/// the loop, so the common numeric case runs `f64::partial_cmp` per cell with no
/// `total_cmp` rank matching and no `Cell` construction.
fn colcmp_mask(cells: &[Cell], op: CmpOp, value: &Cell) -> Vec<bool> {
    use std::cmp::Ordering;
    if value.is_null() {
        // Comparisons against null are false for every row.
        return vec![false; cells.len()];
    }
    if let Some(target) = value.as_f64() {
        // Numeric constant: ints, floats and bools all compare through f64, which
        // is exactly what `total_cmp`'s widening arm does. Bool-vs-bool ordering
        // coincides with 0.0/1.0, so it needs no special case.
        return cells
            .iter()
            .map(|c| match c {
                Cell::Null => false,
                Cell::Int(x) => {
                    op.eval_ord((*x as f64).partial_cmp(&target).unwrap_or(Ordering::Equal))
                }
                Cell::Float(x) => op.eval_ord(x.partial_cmp(&target).unwrap_or(Ordering::Equal)),
                Cell::Bool(x) => op.eval_ord(
                    (if *x { 1.0 } else { 0.0 })
                        .partial_cmp(&target)
                        .unwrap_or(Ordering::Equal),
                ),
                other => op.eval(other, value),
            })
            .collect();
    }
    if let Cell::Str(target) = value {
        return cells
            .iter()
            .map(|c| match c {
                Cell::Null => false,
                Cell::Str(x) => op.eval_ord(x.as_str().cmp(target.as_str())),
                other => op.eval(other, value),
            })
            .collect();
    }
    // Composite constants are rare; evaluate through the shared decision table.
    cells.iter().map(|c| op.eval(c, value)).collect()
}

/// A no-op `Hasher` for keys that are already 64-bit hashes. The grouping kernels
/// stream every key cell through a [`StableHasher`](df_types::cell::StableHasher)
/// anyway (that hash must be stable for shuffles), so feeding the result through
/// SipHash again — as `HashMap`'s default would — is pure overhead.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassthroughHasher(u64);

impl Hasher for PassthroughHasher {
    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassthroughHasher only accepts pre-hashed u64 keys");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash table from a pre-mixed 64-bit group hash to the group/row ids carrying it.
/// Collisions are resolved by the caller with `key_eq` verification, same as the
/// reference kernels.
pub(crate) type RawTable =
    std::collections::HashMap<u64, Vec<usize>, BuildHasherDefault<PassthroughHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::RowView;
    use df_types::cell::cell;

    fn frame() -> DataFrame {
        DataFrame::from_columns(
            vec!["fare", "tag", "mixed"],
            vec![
                vec![cell(10.0), cell(25), Cell::Null, cell(-0.0)],
                vec![cell("a"), Cell::Null, cell("b"), cell("a")],
                vec![cell(1), cell("x"), cell(true), Cell::Null],
            ],
        )
        .unwrap()
    }

    fn reference_mask(df: &DataFrame, predicate: &Predicate) -> Vec<bool> {
        (0..df.n_rows())
            .map(|i| {
                let row = df.row(i).unwrap();
                let view = RowView {
                    col_labels: df.col_labels().as_slice(),
                    row_label: df.row_labels().get(i).unwrap_or(&Cell::Null),
                    cells: &row,
                };
                predicate.matches(i, view)
            })
            .collect()
    }

    #[test]
    fn masks_match_the_row_oriented_reference() {
        let df = frame();
        let predicates = vec![
            Predicate::True,
            Predicate::ColCmp {
                column: cell("fare"),
                op: CmpOp::Gt,
                value: cell(20.0),
            },
            Predicate::ColCmp {
                column: cell("fare"),
                op: CmpOp::Le,
                value: cell(10),
            },
            Predicate::ColCmp {
                column: cell("tag"),
                op: CmpOp::Eq,
                value: cell("a"),
            },
            Predicate::ColCmp {
                column: cell("mixed"),
                op: CmpOp::Ge,
                value: cell(true),
            },
            Predicate::ColCmp {
                column: cell("missing"),
                op: CmpOp::Eq,
                value: cell(1),
            },
            Predicate::IsNull {
                column: cell("tag"),
            },
            Predicate::NotNull {
                column: cell("mixed"),
            },
            Predicate::PositionRange { start: 1, end: 3 },
            Predicate::Not(Box::new(Predicate::ColCmp {
                column: cell("missing"),
                op: CmpOp::Eq,
                value: cell(1),
            })),
            Predicate::And(
                Box::new(Predicate::NotNull {
                    column: cell("fare"),
                }),
                Box::new(Predicate::ColCmp {
                    column: cell("fare"),
                    op: CmpOp::Lt,
                    value: cell(20),
                }),
            ),
            Predicate::Or(
                Box::new(Predicate::IsNull {
                    column: cell("fare"),
                }),
                Box::new(Predicate::ColCmp {
                    column: cell("tag"),
                    op: CmpOp::Ne,
                    value: cell("a"),
                }),
            ),
        ];
        for predicate in &predicates {
            assert_eq!(
                predicate_mask_at(&df, predicate, 0).unwrap(),
                reference_mask(&df, predicate),
                "mask diverged for {predicate:?}"
            );
        }
    }

    #[test]
    fn custom_predicates_stay_on_the_row_path() {
        let custom = Predicate::Custom {
            name: "p".into(),
            func: std::sync::Arc::new(|_| true),
        };
        assert!(predicate_mask_at(&frame(), &custom, 0).is_none());
        assert!(predicate_mask_at(
            &frame(),
            &Predicate::And(Box::new(Predicate::True), Box::new(custom.clone())),
            0
        )
        .is_none());
    }

    #[test]
    fn float_zero_signs_compare_equal() {
        let df = frame();
        let mask = predicate_mask_at(
            &df,
            &Predicate::ColCmp {
                column: cell("fare"),
                op: CmpOp::Eq,
                value: cell(0.0),
            },
            0,
        )
        .unwrap();
        assert_eq!(mask, vec![false, false, false, true]);
    }
}
