//! The cost model behind the adaptive optimizer and `explain()`.
//!
//! Paper §5.1 argues that dataframe rewrites should be driven by cheap metadata
//! rather than full statistics machinery. This module is that cost model: a small,
//! documented set of estimation rules mapping an [`AlgebraExpr`] to an [`Estimate`]
//! of output rows / columns / bytes, derived from the facts the system already has
//! for free — literal and handle shapes at the leaves, [`ScanStats`](crate::scan::ScanStats) chunk summaries
//! on scan leaves, and fixed selectivity factors for predicates.
//!
//! The estimation rules (all deliberately simple and stated here so `explain()`
//! output is auditable):
//!
//! | node | rows | cols |
//! |------|------|------|
//! | `LITERAL` / `HANDLE` | actual shape | actual shape |
//! | `SCAN_CSV` | surviving-chunk rows × selectivity(pred) | projection width |
//! | `SELECTION` | input × selectivity(pred) | input |
//! | `PROJECTION` | input | selector width |
//! | `UNION` | sum | left |
//! | `DIFFERENCE` | left (upper bound) | left |
//! | `CROSS_PRODUCT` | product | sum |
//! | `JOIN` | max(left, right) | sum |
//! | `GROUPBY` | √input (heuristic) | keys + aggs |
//! | `DROP_DUPLICATES` / `SORT` / `RENAME` / `WINDOW` / `MAP` | input | input |
//! | `TRANSPOSE` | input cols | input rows |
//! | `LIMIT` | min(k, input) | input |
//!
//! Selectivity factors: `=` and `IsNull` 10%, `≠` and `NotNull` 90%, inequalities ⅓,
//! `AND` multiplies, `OR` adds with the inclusion–exclusion correction, `NOT`
//! complements, opaque predicates 50%. Bytes scale proportionally from the input's
//! bytes-per-cell. None of this aims at database-grade precision — it only has to be
//! good enough to rank alternatives (broadcast vs shuffle, prune vs parse), and every
//! decision it drives is surfaced by `explain()` so a wrong guess is visible.
//!
//! ```
//! use df_core::algebra::{AlgebraExpr, CmpOp, Predicate};
//! use df_core::{estimate, render_plan};
//! use df_core::dataframe::DataFrame;
//! use df_types::cell::cell;
//!
//! let df = DataFrame::from_rows(
//!     vec!["a"],
//!     (0..100).map(|i| vec![cell(i)]).collect(),
//! ).unwrap();
//! let expr = AlgebraExpr::literal(df).select(Predicate::ColCmp {
//!     column: cell("a"),
//!     op: CmpOp::Eq,
//!     value: cell(7),
//! });
//! let est = estimate(&expr).unwrap();
//! assert_eq!(est.rows.round() as i64, 10); // 100 rows × 10% equality selectivity
//! let plan = render_plan(&expr);
//! assert!(plan.contains("SELECTION"));
//! assert!(plan.contains("~10 rows"));
//! ```

use crate::algebra::{AlgebraExpr, ColumnSelector, Predicate};
use crate::scan::ScanCsv;

/// Estimated output size of a plan node. All fields are estimates in the statistical
/// sense — fractional rows are meaningful ("0.4 expected matches") and only rounded
/// for display.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Expected output rows.
    pub rows: f64,
    /// Expected output columns.
    pub cols: f64,
    /// Expected output payload bytes.
    pub bytes: f64,
}

impl Estimate {
    fn bytes_per_cell(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells > 0.0 {
            self.bytes / cells
        } else {
            DEFAULT_CELL_BYTES
        }
    }

    fn resized(&self, rows: f64, cols: f64) -> Estimate {
        Estimate {
            rows,
            cols,
            bytes: rows * cols * self.bytes_per_cell(),
        }
    }
}

/// Bytes-per-cell assumed when a leaf reports no payload size of its own.
pub const DEFAULT_CELL_BYTES: f64 = 16.0;

/// Fraction of rows an equality (or `IsNull`) predicate is assumed to keep.
pub(crate) const EQ_SELECTIVITY: f64 = 0.10;
/// Fraction of rows an inequality comparison (`<`, `≤`, `>`, `≥`) is assumed to keep.
pub(crate) const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fraction of rows an opaque (`Custom`) predicate is assumed to keep.
pub(crate) const OPAQUE_SELECTIVITY: f64 = 0.50;

/// Estimated fraction of rows `pred` keeps (the fixed factors documented in the
/// module header).
pub(crate) fn selectivity(pred: &Predicate) -> f64 {
    use crate::algebra::CmpOp;
    match pred {
        Predicate::True => 1.0,
        Predicate::ColCmp { op, .. } => match op {
            CmpOp::Eq => EQ_SELECTIVITY,
            CmpOp::Ne => 1.0 - EQ_SELECTIVITY,
            _ => RANGE_SELECTIVITY,
        },
        Predicate::IsNull { .. } => EQ_SELECTIVITY,
        Predicate::NotNull { .. } => 1.0 - EQ_SELECTIVITY,
        Predicate::PositionRange { .. } => 1.0,
        Predicate::Not(inner) => 1.0 - selectivity(inner),
        Predicate::And(a, b) => selectivity(a) * selectivity(b),
        Predicate::Or(a, b) => {
            let (sa, sb) = (selectivity(a), selectivity(b));
            sa + sb - sa * sb
        }
        Predicate::Custom { .. } => OPAQUE_SELECTIVITY,
    }
}

/// Estimate a scan leaf's output from its cached statistics: rows that survive chunk
/// pruning, scaled by the residual predicate's selectivity and capped by a pushed
/// limit, over the projected column fraction. `None` until an engine has collected [`crate::scan::ScanStats`].
pub(crate) fn estimate_scan(scan: &ScanCsv) -> Option<Estimate> {
    let stats = scan.stats()?;
    let surviving_rows: usize = stats
        .surviving_chunks(scan.predicate.as_ref())
        .iter()
        .map(|c| c.rows)
        .sum();
    let sel = scan.predicate.as_ref().map(selectivity).unwrap_or(1.0);
    let cols = scan
        .projection
        .as_ref()
        .map(|p| p.len())
        .unwrap_or(stats.n_cols);
    let col_fraction = if stats.n_cols > 0 {
        cols as f64 / stats.n_cols as f64
    } else {
        1.0
    };
    let mut rows = surviving_rows as f64 * sel;
    if let Some((k, _)) = scan.limit {
        rows = rows.min(k as f64);
    }
    Some(Estimate {
        rows,
        cols: cols as f64,
        bytes: rows * stats.bytes_per_row() * col_fraction,
    })
}

/// Estimate the output size of a plan node, bottom-up. `None` when a leaf offers no
/// size information (e.g. a scan whose statistics have not been collected yet) —
/// callers fall back to non-statistical defaults.
pub fn estimate(expr: &AlgebraExpr) -> Option<Estimate> {
    match expr {
        AlgebraExpr::Literal(df) => {
            let (rows, cols) = df.shape();
            Some(Estimate {
                rows: rows as f64,
                cols: cols as f64,
                bytes: df.approx_size_bytes() as f64,
            })
        }
        AlgebraExpr::Handle(handle) => {
            let (rows, cols) = handle.shape();
            Some(Estimate {
                rows: rows as f64,
                cols: cols as f64,
                bytes: rows as f64 * cols as f64 * DEFAULT_CELL_BYTES,
            })
        }
        AlgebraExpr::ScanCsv(scan) => estimate_scan(scan),
        AlgebraExpr::Selection { input, predicate } => {
            let input = estimate(input)?;
            Some(input.resized(input.rows * selectivity(predicate), input.cols))
        }
        AlgebraExpr::Projection { input, columns } => {
            let input = estimate(input)?;
            let cols = selector_width(columns, input.cols);
            Some(input.resized(input.rows, cols))
        }
        AlgebraExpr::Union { left, right } => {
            let (l, r) = (estimate(left)?, estimate(right)?);
            Some(Estimate {
                rows: l.rows + r.rows,
                cols: l.cols,
                bytes: l.bytes + r.bytes,
            })
        }
        AlgebraExpr::Difference { left, right: _ } => estimate(left),
        AlgebraExpr::CrossProduct { left, right } => {
            let (l, r) = (estimate(left)?, estimate(right)?);
            Some(Estimate {
                rows: l.rows * r.rows,
                cols: l.cols + r.cols,
                bytes: l.bytes * r.rows.max(1.0) + r.bytes * l.rows.max(1.0),
            })
        }
        AlgebraExpr::Join { left, right, .. } => {
            let (l, r) = (estimate(left)?, estimate(right)?);
            Some(Estimate {
                rows: l.rows.max(r.rows),
                cols: l.cols + r.cols,
                bytes: l.bytes + r.bytes,
            })
        }
        AlgebraExpr::DropDuplicates { input }
        | AlgebraExpr::Sort { input, .. }
        | AlgebraExpr::Rename { input, .. }
        | AlgebraExpr::Window { input, .. }
        | AlgebraExpr::Map { input, .. } => estimate(input),
        AlgebraExpr::GroupBy {
            input, keys, aggs, ..
        } => {
            let input = estimate(input)?;
            let groups = input.rows.sqrt().max(1.0).min(input.rows);
            let cols = (keys.len() + aggs.len()) as f64;
            Some(input.resized(groups, cols.max(1.0)))
        }
        AlgebraExpr::Transpose { input } => {
            let input = estimate(input)?;
            Some(Estimate {
                rows: input.cols,
                cols: input.rows,
                bytes: input.bytes,
            })
        }
        AlgebraExpr::ToLabels { input, .. } => {
            let input = estimate(input)?;
            Some(input.resized(input.rows, (input.cols - 1.0).max(0.0)))
        }
        AlgebraExpr::FromLabels { input, .. } => {
            let input = estimate(input)?;
            Some(input.resized(input.rows, input.cols + 1.0))
        }
        AlgebraExpr::Limit { input, k, .. } => {
            let input = estimate(input)?;
            Some(input.resized(input.rows.min(*k as f64), input.cols))
        }
    }
}

fn selector_width(selector: &ColumnSelector, input_cols: f64) -> f64 {
    match selector {
        ColumnSelector::All => input_cols,
        ColumnSelector::ByLabels(labels) => labels.len() as f64,
        ColumnSelector::ByPositions(positions) => positions.len() as f64,
        ColumnSelector::Numeric => (input_cols / 2.0).max(1.0),
        ColumnSelector::Excluding(labels) => (input_cols - labels.len() as f64).max(0.0),
    }
}

/// Render a plan as an indented tree, one node per line, annotated with the cost
/// model's row/byte estimates where they are available. This is the default
/// `Engine::explain` body; engines with their own optimizer prepend the rewritten
/// plan and the rewrites that fired.
pub fn render_plan(expr: &AlgebraExpr) -> String {
    let mut out = String::new();
    render_node(expr, 0, &mut out);
    out
}

fn render_node(expr: &AlgebraExpr, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(expr.name());
    let detail = node_detail(expr);
    if !detail.is_empty() {
        out.push(' ');
        out.push_str(&detail);
    }
    if let Some(est) = estimate(expr) {
        out.push_str(&format!(
            "  [~{} rows × {} cols, ~{}]",
            est.rows.round() as u64,
            est.cols.round() as u64,
            human_bytes(est.bytes)
        ));
    }
    out.push('\n');
    for child in expr.children() {
        render_node(child, depth + 1, out);
    }
}

fn node_detail(expr: &AlgebraExpr) -> String {
    match expr {
        AlgebraExpr::ScanCsv(scan) => {
            // Only the file name: explain() output is asserted by doctests, which
            // must not depend on temp-directory paths.
            let file = scan
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| scan.path.display().to_string());
            let mut detail = file;
            if let Some(projection) = &scan.projection {
                detail.push_str(&format!(" project⇩{projection:?}"));
            }
            if let Some(predicate) = &scan.predicate {
                detail.push_str(&format!(" filter⇩[{predicate:?}]"));
            }
            if let Some((k, from_end)) = scan.limit {
                detail.push_str(&format!(" limit⇩[{}]", limit_detail(k, from_end)));
            }
            if let Some(stats) = scan.stats() {
                let (parsed, exact) = stats.chunks_to_parse(scan.predicate.as_ref(), scan.limit);
                let bound = if exact { "" } else { "≤" };
                detail.push_str(&format!(" ({bound}{parsed}/{} chunks)", stats.chunks.len()));
            }
            detail
        }
        AlgebraExpr::Selection { predicate, .. } => format!("[{predicate:?}]"),
        AlgebraExpr::Projection { columns, .. } => format!("[{columns:?}]"),
        AlgebraExpr::Join { on, how, .. } => format!("[{on:?}, {how:?}]"),
        AlgebraExpr::GroupBy { keys, aggs, .. } => {
            format!("[{} keys, {} aggs]", keys.len(), aggs.len())
        }
        AlgebraExpr::Sort { spec, .. } => format!("[by {:?}]", spec.by),
        AlgebraExpr::Rename { mapping, .. } => format!("[{} columns]", mapping.len()),
        AlgebraExpr::Window { func, .. } => format!("[{func:?}]"),
        AlgebraExpr::Map { func, .. } => format!("[{func:?}]"),
        AlgebraExpr::ToLabels { column, .. } => format!("[{column}]"),
        AlgebraExpr::FromLabels { new_column, .. } => format!("[{new_column}]"),
        AlgebraExpr::Limit { k, from_end, .. } => format!("[{}]", limit_detail(*k, *from_end)),
        _ => String::new(),
    }
}

fn limit_detail(k: usize, from_end: bool) -> String {
    format!("{} {k}", if from_end { "last" } else { "first" })
}

/// Render a byte count with a binary-unit suffix.
pub(crate) fn human_bytes(bytes: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes.max(0.0);
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{} {}", value.round() as u64, UNITS[unit])
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{CmpOp, JoinOn, JoinType};
    use crate::dataframe::DataFrame;
    use crate::scan::{ChunkStats, ColumnChunkStats, ScanOptions, ScanStats};
    use df_types::cell::cell;
    use std::sync::Arc;

    fn frame(rows: usize, cols: usize) -> DataFrame {
        let columns: Vec<Vec<df_types::cell::Cell>> = (0..cols)
            .map(|j| (0..rows).map(|i| cell((i * cols + j) as i64)).collect())
            .collect();
        let labels: Vec<String> = (0..cols).map(|j| format!("c{j}")).collect();
        DataFrame::from_columns(labels, columns).unwrap()
    }

    #[test]
    fn selectivities_compose() {
        let eq = Predicate::ColCmp {
            column: cell("a"),
            op: CmpOp::Eq,
            value: cell(1),
        };
        let gt = Predicate::ColCmp {
            column: cell("a"),
            op: CmpOp::Gt,
            value: cell(1),
        };
        assert!((selectivity(&eq) - 0.1).abs() < 1e-9);
        assert!((selectivity(&gt) - 1.0 / 3.0).abs() < 1e-9);
        let and = Predicate::And(Box::new(eq.clone()), Box::new(gt.clone()));
        assert!((selectivity(&and) - 0.1 / 3.0).abs() < 1e-9);
        let or = Predicate::Or(Box::new(eq.clone()), Box::new(gt));
        assert!((selectivity(&or) - (0.1 + 1.0 / 3.0 - 0.1 / 3.0)).abs() < 1e-9);
        let not = Predicate::Not(Box::new(eq));
        assert!((selectivity(&not) - 0.9).abs() < 1e-9);
        assert!((selectivity(&Predicate::True) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_follow_the_documented_rules() {
        let base = AlgebraExpr::literal(frame(100, 4));
        let est = estimate(&base).unwrap();
        assert_eq!(est.rows, 100.0);
        assert_eq!(est.cols, 4.0);
        let selected = estimate(&base.clone().select(Predicate::ColCmp {
            column: cell("c0"),
            op: CmpOp::Eq,
            value: cell(1),
        }))
        .unwrap();
        assert!((selected.rows - 10.0).abs() < 1e-9);
        let projected = estimate(
            &base
                .clone()
                .project(crate::algebra::ColumnSelector::ByLabels(vec![cell("c0")])),
        )
        .unwrap();
        assert_eq!(projected.cols, 1.0);
        assert!(projected.bytes < est.bytes);
        let transposed = estimate(&base.clone().transpose()).unwrap();
        assert_eq!((transposed.rows, transposed.cols), (4.0, 100.0));
        let limited = estimate(&base.clone().limit(7, false)).unwrap();
        assert_eq!(limited.rows, 7.0);
        let joined = estimate(&base.clone().join(
            AlgebraExpr::literal(frame(30, 2)),
            JoinOn::RowLabels,
            JoinType::Inner,
        ))
        .unwrap();
        assert_eq!(joined.rows, 100.0);
        assert_eq!(joined.cols, 6.0);
        let unioned = estimate(&base.clone().union(AlgebraExpr::literal(frame(30, 4)))).unwrap();
        assert_eq!(unioned.rows, 130.0);
    }

    #[test]
    fn scan_estimates_use_chunk_survivors() {
        let scan = crate::scan::ScanCsv::new("t.csv", ScanOptions::default(), "csv@t");
        let expr = AlgebraExpr::scan_csv(scan.clone());
        assert!(estimate(&expr).is_none(), "no stats yet → no estimate");
        scan.set_stats(Arc::new(ScanStats {
            labels: vec![cell("x"), cell("y")],
            n_cols: 2,
            total_rows: 100,
            total_bytes: 1600,
            domains: Some(vec![df_types::domain::Domain::Int; 2]),
            chunks: (0..4)
                .map(|i| ChunkStats {
                    start_byte: i * 400,
                    end_byte: (i + 1) * 400,
                    start_row: i as usize * 25,
                    rows: 25,
                    columns: vec![
                        ColumnChunkStats {
                            nulls: 0,
                            numeric: Some((i as f64 * 25.0, i as f64 * 25.0 + 24.0)),
                            numeric_count: 25,
                            lexical: None,
                            distinct: 25,
                        },
                        ColumnChunkStats::default(),
                    ],
                })
                .collect(),
        }));
        let full = estimate(&AlgebraExpr::scan_csv(scan.clone())).unwrap();
        assert_eq!(full.rows, 100.0);
        assert_eq!(full.bytes, 1600.0);
        // A predicate hitting one chunk: 25 surviving rows × ⅓ range selectivity,
        // over one of two columns.
        let pushed = scan
            .with_predicate(Predicate::ColCmp {
                column: cell("x"),
                op: CmpOp::Ge,
                value: cell(80),
            })
            .with_projection(vec![cell("x")]);
        let est = estimate(&AlgebraExpr::scan_csv(pushed)).unwrap();
        assert!((est.rows - 25.0 / 3.0).abs() < 1e-9);
        assert_eq!(est.cols, 1.0);
        assert!(est.bytes < full.bytes / 2.0);
        // A pushed limit caps the rows (and shows on the rendered node).
        let limited = AlgebraExpr::scan_csv(scan.with_limit(10, false));
        let est = estimate(&limited).unwrap();
        assert_eq!((est.rows, est.bytes), (10.0, 160.0));
        assert!(render_plan(&limited).contains("limit⇩[first 10]"));
        assert_eq!(
            estimate(&AlgebraExpr::scan_csv(scan.with_limit(500, true)))
                .unwrap()
                .rows,
            100.0
        );
    }

    #[test]
    fn render_plan_is_indented_and_annotated() {
        let expr = AlgebraExpr::literal(frame(100, 4))
            .select(Predicate::NotNull { column: cell("c1") })
            .limit(5, false);
        let plan = render_plan(&expr);
        let lines: Vec<&str> = plan.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("LIMIT"));
        assert!(lines[1].starts_with("  SELECTION"));
        assert!(lines[2].starts_with("    LITERAL"));
        assert!(lines[1].contains("NotNull"));
        assert!(lines[0].contains("~5 rows"));
    }

    #[test]
    fn human_bytes_picks_binary_units() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2048.0), "2.0 KiB");
        assert_eq!(human_bytes(3.0 * 1024.0 * 1024.0), "3.0 MiB");
    }
}
