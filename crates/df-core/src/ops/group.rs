//! GROUPBY, DROP DUPLICATES and SORT.

use std::collections::HashMap;
use std::hash::Hasher;

use df_types::cell::{Cell, CellKey, StableHasher};
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;
use df_types::ColumnData;

use super::columnar::{typed_for_keying, RawTable};
use crate::algebra::{AggFunc, Aggregation, SortSpec};
use crate::dataframe::{Column, DataFrame};

/// Streaming accumulator for one aggregation over one group. The GROUPBY kernel
/// updates these while scanning the frame once, instead of first collecting row-index
/// lists per group and then re-gathering the grouped cells per aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    CountNonNull(i64),
    Sum {
        total: f64,
        any_numeric: bool,
    },
    Mean {
        total: f64,
        count: usize,
    },
    /// Std keeps the group's numeric values so finalisation can run the exact
    /// two-pass formula the reference semantics are defined by.
    Std(Vec<f64>),
    Min(Option<Cell>),
    Max(Option<Cell>),
    First(Option<Cell>),
    Last(Option<Cell>),
    Collect(Vec<Cell>),
}

impl AggState {
    fn new(func: &AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountNonNull => AggState::CountNonNull(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                any_numeric: false,
            },
            AggFunc::Mean => AggState::Mean {
                total: 0.0,
                count: 0,
            },
            AggFunc::Std => AggState::Std(Vec::new()),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::First => AggState::First(None),
            AggFunc::Last => AggState::Last(None),
            AggFunc::Collect => AggState::Collect(Vec::new()),
        }
    }

    /// Fold one cell of the aggregated column into the state. `cell` is `None` only
    /// for column-less aggregations (COUNT over whole rows).
    fn update(&mut self, cell: Option<&Cell>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::CountNonNull(n) => {
                if cell.is_some_and(|c| !c.is_null()) {
                    *n += 1;
                }
            }
            AggState::Sum { total, any_numeric } => {
                if let Some(v) = cell.and_then(Cell::as_f64) {
                    *total += v;
                    *any_numeric = true;
                }
            }
            AggState::Mean { total, count } => {
                if let Some(v) = cell.and_then(Cell::as_f64) {
                    *total += v;
                    *count += 1;
                }
            }
            AggState::Std(values) => {
                if let Some(v) = cell.and_then(Cell::as_f64) {
                    values.push(v);
                }
            }
            AggState::Min(best) => {
                if let Some(c) = cell.filter(|c| !c.is_null()) {
                    // `min_by` keeps the *last* of equal minima; mirror that.
                    let replace = best
                        .as_ref()
                        .map(|b| c.total_cmp(b) != std::cmp::Ordering::Greater)
                        .unwrap_or(true);
                    if replace {
                        *best = Some(c.clone());
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(c) = cell.filter(|c| !c.is_null()) {
                    // `max_by` keeps the *last* of equal maxima; mirror that.
                    let replace = best
                        .as_ref()
                        .map(|b| c.total_cmp(b) != std::cmp::Ordering::Less)
                        .unwrap_or(true);
                    if replace {
                        *best = Some(c.clone());
                    }
                }
            }
            AggState::First(slot) => {
                if slot.is_none() {
                    *slot = Some(cell.cloned().unwrap_or(Cell::Null));
                }
            }
            AggState::Last(slot) => {
                *slot = Some(cell.cloned().unwrap_or(Cell::Null));
            }
            AggState::Collect(values) => {
                values.push(cell.cloned().unwrap_or(Cell::Null));
            }
        }
    }

    /// Fold row `i` of a typed column into the state without materialising a
    /// [`Cell`]: the numeric accumulators read the flat buffer directly (matching
    /// [`Cell::as_f64`] widening exactly); order- and value-carrying states
    /// materialise the one cell they keep, same as the reference path.
    fn update_typed(&mut self, column: &ColumnData, i: usize) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::CountNonNull(n) => {
                if !column.is_null_at(i) {
                    *n += 1;
                }
            }
            AggState::Sum { total, any_numeric } => {
                if let Some(v) = column.f64_at(i) {
                    *total += v;
                    *any_numeric = true;
                }
            }
            AggState::Mean { total, count } => {
                if let Some(v) = column.f64_at(i) {
                    *total += v;
                    *count += 1;
                }
            }
            AggState::Std(values) => {
                if let Some(v) = column.f64_at(i) {
                    values.push(v);
                }
            }
            AggState::Min(_)
            | AggState::Max(_)
            | AggState::First(_)
            | AggState::Last(_)
            | AggState::Collect(_) => {
                let cell = column.get(i);
                self.update(Some(&cell));
            }
        }
    }

    fn finalize(self) -> Cell {
        match self {
            AggState::Count(n) | AggState::CountNonNull(n) => Cell::Int(n),
            AggState::Sum { total, any_numeric } => {
                if any_numeric {
                    Cell::Float(total)
                } else {
                    Cell::Null
                }
            }
            AggState::Mean { total, count } => {
                if count == 0 {
                    Cell::Null
                } else {
                    Cell::Float(total / count as f64)
                }
            }
            AggState::Std(values) => sample_std(&values),
            AggState::Min(best) | AggState::Max(best) => best.unwrap_or(Cell::Null),
            AggState::First(slot) | AggState::Last(slot) => slot.unwrap_or(Cell::Null),
            AggState::Collect(values) => Cell::List(values),
        }
    }
}

/// The sample standard deviation `Std` is defined by: the exact two-pass formula over
/// a group's numeric values in row order, null below two values. Public so an engine
/// that merges per-band partial states can finalize `Std` bit-identically from the
/// values it collected.
pub fn sample_std(values: &[f64]) -> Cell {
    if values.len() < 2 {
        return Cell::Null;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    Cell::Float(var.sqrt())
}

/// GROUPBY: group rows by the key columns (an empty key list forms a single global
/// group — the Figure 2 "groupby (1)" query) and compute the requested aggregations.
///
/// Groups are emitted in ascending key order (pandas' default `sort=True`), which is
/// also the paper's "Order: New" for GROUPBY. When `keys_as_labels` is set the key
/// values become the result's row labels (pandas' implicit TOLABELS, §4.3); otherwise
/// they stay as leading data columns.
///
/// This is a single-pass streaming kernel: each row's key cells are hashed in place
/// (no per-row `Vec<CellKey>` allocation) to find or create its group, and every
/// aggregation's internal accumulator (`AggState`) is folded forward during the same scan, so the frame is
/// read exactly once regardless of how many groups or aggregates there are.
pub fn group_by(
    df: &DataFrame,
    keys: &[Cell],
    aggs: &[Aggregation],
    keys_as_labels: bool,
) -> DfResult<DataFrame> {
    group_by_with(df, keys, aggs, keys_as_labels, scan_groups_typed)
}

/// The row-wise GROUPBY the typed kernel is tested against: same contract as
/// [`group_by`], but every key is hashed and compared as a tagged [`Cell`] and every
/// aggregate is fed cell by cell. No engine calls this; it exists so the differential
/// suites have an oracle that shares no scan code with the kernel.
#[doc(hidden)]
pub fn group_by_rowwise(
    df: &DataFrame,
    keys: &[Cell],
    aggs: &[Aggregation],
    keys_as_labels: bool,
) -> DfResult<DataFrame> {
    group_by_with(df, keys, aggs, keys_as_labels, scan_groups_rowwise)
}

/// Distinct group keys in first-occurrence order, and each group's accumulators.
type Groups = (Vec<Vec<Cell>>, Vec<Vec<AggState>>);

/// One pass over `df` folding every row into its group. `key_positions` and
/// `agg_positions` are resolved column positions (`None` = COUNT over whole rows).
type GroupScan = fn(&DataFrame, &[usize], &[Option<usize>], &[Aggregation]) -> Groups;

fn group_by_with(
    df: &DataFrame,
    keys: &[Cell],
    aggs: &[Aggregation],
    keys_as_labels: bool,
    scan: GroupScan,
) -> DfResult<DataFrame> {
    let key_positions: Vec<usize> = keys
        .iter()
        .map(|k| df.col_position(k))
        .collect::<DfResult<_>>()?;
    // Resolve aggregation input columns up front; `None` means "whole rows" and is
    // only meaningful for COUNT.
    let mut agg_positions: Vec<Option<usize>> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        match &agg.column {
            Some(label) => agg_positions.push(Some(df.col_position(label)?)),
            None => {
                if agg.func != AggFunc::Count {
                    return Err(DfError::unsupported(
                        "aggregations other than Count require a column argument",
                    ));
                }
                agg_positions.push(None);
            }
        }
    }

    let (mut group_keys, mut states) = scan(df, &key_positions, &agg_positions, aggs);
    if df.n_rows() == 0 && keys.is_empty() {
        // A global aggregate over an empty frame still produces one (empty) group so
        // that COUNT returns 0 rather than an empty frame.
        group_keys.push(Vec::new());
        states.push(aggs.iter().map(|a| AggState::new(&a.func)).collect());
    }

    // Ascending order on key values, stable on first-occurrence order.
    let mut order: Vec<usize> = (0..group_keys.len()).collect();
    order.sort_by(|&a, &b| {
        for (x, y) in group_keys[a].iter().zip(group_keys[b].iter()) {
            let ord = x.sort_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    let n_groups = order.len();
    let mut key_columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(n_groups); keys.len()];
    let mut agg_columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(n_groups); aggs.len()];
    let mut finalized: Vec<Option<Vec<AggState>>> = states.into_iter().map(Some).collect();
    for &g in &order {
        for (slot, cell) in key_columns.iter_mut().zip(group_keys[g].iter()) {
            slot.push(cell.clone());
        }
        let group_states = finalized[g].take().expect("each group finalized once");
        for (slot, state) in agg_columns.iter_mut().zip(group_states) {
            slot.push(state.finalize());
        }
    }

    let mut columns = Vec::new();
    let mut labels = Vec::new();
    if !keys_as_labels {
        for (key_label, cells) in keys.iter().zip(key_columns.iter()) {
            labels.push(key_label.clone());
            columns.push(Column::new(cells.clone()));
        }
    }
    for (agg, cells) in aggs.iter().zip(agg_columns) {
        labels.push(agg.output_label());
        columns.push(Column::new(cells));
    }

    let row_labels = if keys_as_labels && !keys.is_empty() {
        Labels::new(
            order
                .iter()
                .map(|&g| {
                    let key_cells = &group_keys[g];
                    if key_cells.len() == 1 {
                        key_cells[0].clone()
                    } else {
                        Cell::List(key_cells.clone())
                    }
                })
                .collect(),
        )
    } else {
        Labels::positional(n_groups)
    };

    DataFrame::from_parts(columns, row_labels, Labels::new(labels))
}

/// The vectorized scan: key and aggregate columns that admit a typed layout are
/// encoded once, the group table is keyed by the raw stable hash (no second SipHash
/// pass), and candidate groups are verified against a representative row instead of
/// cloned key cells. Columns without a typed layout (mixed, plain strings) are read
/// cell by cell inside the same loop.
fn scan_groups_typed(
    df: &DataFrame,
    key_positions: &[usize],
    agg_positions: &[Option<usize>],
    aggs: &[Aggregation],
) -> Groups {
    let columns = df.columns();
    let mut group_keys: Vec<Vec<Cell>> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let typed_keys: Vec<Option<ColumnData>> = key_positions
        .iter()
        .map(|&j| typed_for_keying(&columns[j]))
        .collect();
    let typed_aggs: Vec<Option<ColumnData>> = agg_positions
        .iter()
        .map(|p| p.and_then(|j| typed_for_keying(&columns[j])))
        .collect();
    let mut table = RawTable::default();
    let mut reps: Vec<usize> = Vec::new();
    for i in 0..df.n_rows() {
        let mut hasher = StableHasher::default();
        for (typed, &j) in typed_keys.iter().zip(key_positions) {
            match typed {
                Some(data) => data.hash_value_into(i, &mut hasher),
                None => columns[j].cells()[i].hash_key(&mut hasher),
            }
        }
        let candidates = table.entry(hasher.finish()).or_default();
        let gi = candidates
            .iter()
            .copied()
            .find(|&g| {
                typed_keys
                    .iter()
                    .zip(key_positions)
                    .all(|(typed, &j)| match typed {
                        Some(data) => data.key_eq_rows(reps[g], i),
                        None => columns[j].cells()[reps[g]].key_eq(&columns[j].cells()[i]),
                    })
            })
            .unwrap_or_else(|| {
                let g = group_keys.len();
                group_keys.push(
                    key_positions
                        .iter()
                        .map(|&j| columns[j].cells()[i].clone())
                        .collect(),
                );
                reps.push(i);
                states.push(aggs.iter().map(|a| AggState::new(&a.func)).collect());
                candidates.push(g);
                g
            });
        for ((state, position), typed) in states[gi].iter_mut().zip(agg_positions).zip(&typed_aggs)
        {
            match (typed, position) {
                (Some(data), Some(_)) => state.update_typed(data, i),
                (None, Some(j)) => state.update(Some(&columns[*j].cells()[i])),
                (_, None) => state.update(None),
            }
        }
    }
    (group_keys, states)
}

/// The oracle scan behind [`group_by_rowwise`]: a hash-indexed group table (bucket
/// hash -> group ids with that hash), verified by group-key equality against the
/// stored key cells.
fn scan_groups_rowwise(
    df: &DataFrame,
    key_positions: &[usize],
    agg_positions: &[Option<usize>],
    aggs: &[Aggregation],
) -> Groups {
    let columns = df.columns();
    let mut group_keys: Vec<Vec<Cell>> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
    for i in 0..df.n_rows() {
        let mut hasher = StableHasher::default();
        for &j in key_positions {
            columns[j].cells()[i].hash_key(&mut hasher);
        }
        let candidates = table.entry(hasher.finish()).or_default();
        let gi = candidates
            .iter()
            .copied()
            .find(|&g| {
                key_positions
                    .iter()
                    .zip(group_keys[g].iter())
                    .all(|(&j, key_cell)| key_cell.key_eq(&columns[j].cells()[i]))
            })
            .unwrap_or_else(|| {
                let g = group_keys.len();
                group_keys.push(
                    key_positions
                        .iter()
                        .map(|&j| columns[j].cells()[i].clone())
                        .collect(),
                );
                states.push(aggs.iter().map(|a| AggState::new(&a.func)).collect());
                candidates.push(g);
                g
            });
        for (state, position) in states[gi].iter_mut().zip(agg_positions.iter()) {
            state.update(position.map(|j| &columns[j].cells()[i]));
        }
    }
    (group_keys, states)
}

/// DROP DUPLICATES: remove rows whose full-row value already appeared earlier,
/// preserving order and keeping the first occurrence (Table 1: order from parent).
pub fn drop_duplicates(df: &DataFrame) -> DfResult<DataFrame> {
    // Vectorized kernel: stream every row through the stable key hash (typed
    // buffers where available) and verify candidates with key equality against
    // already-kept rows — no per-row `Vec<CellKey>` clone of the whole row.
    let typed: Vec<Option<ColumnData>> = df.columns().iter().map(typed_for_keying).collect();
    let mut table = RawTable::default();
    let mut keep: Vec<usize> = Vec::new();
    for i in 0..df.n_rows() {
        let mut hasher = StableHasher::default();
        for (typed, column) in typed.iter().zip(df.columns()) {
            match typed {
                Some(data) => data.hash_value_into(i, &mut hasher),
                None => column.cells()[i].hash_key(&mut hasher),
            }
        }
        let candidates = table.entry(hasher.finish()).or_default();
        let duplicate = candidates.iter().any(|&kept| {
            typed
                .iter()
                .zip(df.columns())
                .all(|(typed, column)| match typed {
                    Some(data) => data.key_eq_rows(kept, i),
                    None => column.cells()[kept].key_eq(&column.cells()[i]),
                })
        });
        if !duplicate {
            candidates.push(i);
            keep.push(i);
        }
    }
    df.take_rows(&keep)
}

/// The row-wise DROP DUPLICATES the typed kernel is tested against: one
/// `Vec<CellKey>` per row in a `HashSet`. No engine calls this (see
/// [`group_by_rowwise`]).
#[doc(hidden)]
pub fn drop_duplicates_rowwise(df: &DataFrame) -> DfResult<DataFrame> {
    let mut seen: std::collections::HashSet<Vec<CellKey>> = std::collections::HashSet::new();
    let mut keep = Vec::new();
    for i in 0..df.n_rows() {
        let key: Vec<CellKey> = df
            .columns()
            .iter()
            .map(|c| c.cells()[i].group_key())
            .collect();
        if seen.insert(key) {
            keep.push(i);
        }
    }
    df.take_rows(&keep)
}

/// SORT: stable lexicographic sort by the given columns, producing a new order
/// (Table 1: "Order: New"). Row labels travel with their rows. The sort is stable
/// whatever `spec.stable` says: a stable order is a valid unstable one.
pub fn sort(df: &DataFrame, spec: &SortSpec) -> DfResult<DataFrame> {
    let key_positions: Vec<usize> = spec
        .by
        .iter()
        .map(|k| df.col_position(k))
        .collect::<DfResult<_>>()?;
    // Vectorized kernel: key columns with a typed layout are encoded once and
    // compared straight off the flat buffer ([`ColumnData::cmp_rows`] reproduces
    // `Cell::sort_cmp` exactly); other key columns compare cell-to-cell as before.
    let typed_keys: Vec<Option<ColumnData>> = key_positions
        .iter()
        .map(|&j| typed_for_keying(&df.columns()[j]))
        .collect();
    let mut order: Vec<usize> = (0..df.n_rows()).collect();
    let compare = |&a: &usize, &b: &usize| {
        for (idx, &j) in key_positions.iter().enumerate() {
            let mut ord = match &typed_keys[idx] {
                Some(data) => data.cmp_rows(a, b),
                None => df.columns()[j].cells()[a].sort_cmp(&df.columns()[j].cells()[b]),
            };
            if !spec.is_ascending(idx) {
                ord = ord.reverse();
            }
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    order.sort_by(compare);
    df.take_rows(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn trips() -> DataFrame {
        DataFrame::from_rows(
            vec!["passenger_count", "fare", "tip"],
            vec![
                vec![cell(1), cell(10.0), cell(1.0)],
                vec![cell(2), cell(20.0), Cell::Null],
                vec![cell(1), cell(30.0), cell(3.0)],
                vec![Cell::Null, cell(5.0), cell(0.5)],
                vec![cell(2), cell(40.0), cell(4.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn groupby_counts_per_key_in_ascending_order() {
        let df = trips();
        let out = group_by(
            &df,
            &[cell("passenger_count")],
            &[Aggregation::count_rows()],
            false,
        )
        .unwrap();
        assert_eq!(out.shape(), (3, 2));
        // Ascending key order: 1, 2, then null last (total_cmp puts nulls last).
        assert_eq!(out.cell(0, 0).unwrap(), &cell(1));
        assert_eq!(out.cell(0, 1).unwrap(), &cell(2));
        assert_eq!(out.cell(1, 0).unwrap(), &cell(2));
        assert_eq!(out.cell(2, 0).unwrap(), &Cell::Null);
    }

    #[test]
    fn groupby_keys_as_labels_promotes_keys() {
        let df = trips();
        let out = group_by(
            &df,
            &[cell("passenger_count")],
            &[Aggregation::of("fare", AggFunc::Sum)],
            true,
        )
        .unwrap();
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(out.row_labels().as_slice()[0], cell(1));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(40.0));
    }

    #[test]
    fn groupby_global_group_counts_non_null() {
        let df = trips();
        let out = group_by(
            &df,
            &[],
            &[Aggregation::of("tip", AggFunc::CountNonNull).with_alias("non_null_tips")],
            false,
        )
        .unwrap();
        assert_eq!(out.shape(), (1, 1));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(4));
        assert_eq!(out.col_labels().as_slice(), &[cell("non_null_tips")]);
    }

    #[test]
    fn groupby_on_empty_frame_still_returns_a_count() {
        let empty = DataFrame::from_rows(vec!["a"], vec![]).unwrap();
        let out = group_by(&empty, &[], &[Aggregation::count_rows()], false).unwrap();
        assert_eq!(out.shape(), (1, 1));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(0));
    }

    #[test]
    fn aggregation_functions_cover_numeric_and_ordering() {
        let df = trips();
        let out = group_by(
            &df,
            &[cell("passenger_count")],
            &[
                Aggregation::of("fare", AggFunc::Sum).with_alias("sum"),
                Aggregation::of("fare", AggFunc::Mean).with_alias("mean"),
                Aggregation::of("fare", AggFunc::Min).with_alias("min"),
                Aggregation::of("fare", AggFunc::Max).with_alias("max"),
                Aggregation::of("fare", AggFunc::Std).with_alias("std"),
                Aggregation::of("fare", AggFunc::First).with_alias("first"),
                Aggregation::of("fare", AggFunc::Last).with_alias("last"),
            ],
            false,
        )
        .unwrap();
        // Group "1": fares 10 and 30.
        assert_eq!(out.cell(0, 1).unwrap(), &cell(40.0));
        assert_eq!(out.cell(0, 2).unwrap(), &cell(20.0));
        assert_eq!(out.cell(0, 3).unwrap(), &cell(10.0));
        assert_eq!(out.cell(0, 4).unwrap(), &cell(30.0));
        let std = out.cell(0, 5).unwrap().as_f64().unwrap();
        assert!((std - 14.1421356).abs() < 1e-6);
        assert_eq!(out.cell(0, 6).unwrap(), &cell(10.0));
        assert_eq!(out.cell(0, 7).unwrap(), &cell(30.0));
    }

    #[test]
    fn collect_produces_composite_cells() {
        let df = trips();
        let out = group_by(
            &df,
            &[cell("passenger_count")],
            &[Aggregation::of("fare", AggFunc::Collect)],
            true,
        )
        .unwrap();
        let collected = out.cell(0, 0).unwrap().as_list().unwrap();
        assert_eq!(collected, &[cell(10.0), cell(30.0)]);
    }

    #[test]
    fn aggregations_on_empty_and_non_numeric_groups_yield_null() {
        let df = DataFrame::from_rows(
            vec!["k", "v"],
            vec![vec![cell("a"), cell("x")], vec![cell("a"), cell("y")]],
        )
        .unwrap();
        let out = group_by(
            &df,
            &[cell("k")],
            &[
                Aggregation::of("v", AggFunc::Sum),
                Aggregation::of("v", AggFunc::Min).with_alias("min_v"),
                Aggregation::of("v", AggFunc::Std).with_alias("std_v"),
            ],
            false,
        )
        .unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &Cell::Null);
        assert_eq!(out.cell(0, 2).unwrap(), &cell("x"));
        assert_eq!(out.cell(0, 3).unwrap(), &Cell::Null);
    }

    #[test]
    fn count_without_column_requires_count_func() {
        let df = trips();
        let bad = group_by(
            &df,
            &[],
            &[Aggregation {
                column: None,
                func: AggFunc::Sum,
                alias: None,
            }],
            false,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn drop_duplicates_keeps_first_occurrence() {
        let df = DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![cell(1), cell("x")],
                vec![cell(1), cell("x")],
                vec![cell(2), cell("y")],
                vec![cell(1), cell("x")],
            ],
        )
        .unwrap();
        let out = drop_duplicates(&df).unwrap();
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.row_labels().as_slice(), &[cell(0), cell(2)]);
    }

    #[test]
    fn sort_is_stable_and_honours_descending() {
        let df = DataFrame::from_rows(
            vec!["grp", "seq"],
            vec![
                vec![cell("b"), cell(1)],
                vec![cell("a"), cell(2)],
                vec![cell("b"), cell(3)],
                vec![cell("a"), cell(4)],
            ],
        )
        .unwrap();
        let asc = sort(&df, &SortSpec::ascending(vec![cell("grp")])).unwrap();
        assert_eq!(asc.cell(0, 1).unwrap(), &cell(2));
        assert_eq!(asc.cell(1, 1).unwrap(), &cell(4));
        assert_eq!(asc.cell(2, 1).unwrap(), &cell(1));
        let desc = sort(
            &df,
            &SortSpec {
                by: vec![cell("grp"), cell("seq")],
                ascending: vec![false, true],
                stable: true,
            },
        )
        .unwrap();
        assert_eq!(desc.cell(0, 0).unwrap(), &cell("b"));
        assert_eq!(desc.cell(0, 1).unwrap(), &cell(1));
        assert!(sort(&df, &SortSpec::ascending(vec![cell("zz")])).is_err());
    }
}
