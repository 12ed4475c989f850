//! Reference implementations of the 14 algebra operators over [`DataFrame`].
//!
//! These functions define the *semantics* of the algebra: every engine in the workspace
//! must agree with them cell-for-cell (the integration tests compare the baseline and
//! the scalable engine against this executor on randomly generated frames). They favour
//! clarity over speed; the engines are where the paper's performance ideas live.

pub mod columnar;
pub mod group;
pub mod reshape;
pub mod rowwise;
pub mod setops;
mod window;

use df_types::error::{DfError, DfResult};

use crate::algebra::AlgebraExpr;
use crate::dataframe::DataFrame;

/// Execute an algebra expression with the reference operator implementations.
pub fn execute_reference(expr: &AlgebraExpr) -> DfResult<DataFrame> {
    match expr {
        AlgebraExpr::Literal(df) => Ok(df.as_ref().clone()),
        // Handle leaves from earlier statements: the reference executor has no
        // partitioned representation, so it materialises through the generic path.
        AlgebraExpr::Handle(handle) => handle.to_dataframe(),
        // Scan leaves need a storage layer; df-core deliberately has none (the
        // dependency points the other way). The API layer only builds ScanCsv plans
        // for engines that advertise evaluating them.
        AlgebraExpr::ScanCsv(scan) => Err(DfError::unsupported(format!(
            "the reference executor cannot evaluate SCAN_CSV({}): scans require an \
             engine with a storage layer",
            scan.path.display()
        ))),
        AlgebraExpr::Selection { input, predicate } => {
            let input = execute_reference(input)?;
            rowwise::selection(&input, predicate)
        }
        AlgebraExpr::Projection { input, columns } => {
            let input = execute_reference(input)?;
            rowwise::projection(&input, columns)
        }
        AlgebraExpr::Union { left, right } => {
            let left = execute_reference(left)?;
            let right = execute_reference(right)?;
            setops::union(&left, &right)
        }
        AlgebraExpr::Difference { left, right } => {
            let left = execute_reference(left)?;
            let right = execute_reference(right)?;
            setops::difference(&left, &right)
        }
        AlgebraExpr::CrossProduct { left, right } => {
            let left = execute_reference(left)?;
            let right = execute_reference(right)?;
            setops::cross_product(&left, &right)
        }
        AlgebraExpr::Join {
            left,
            right,
            on,
            how,
        } => {
            let left = execute_reference(left)?;
            let right = execute_reference(right)?;
            setops::join(&left, &right, on, *how)
        }
        AlgebraExpr::DropDuplicates { input } => {
            let input = execute_reference(input)?;
            group::drop_duplicates(&input)
        }
        AlgebraExpr::GroupBy {
            input,
            keys,
            aggs,
            keys_as_labels,
        } => {
            let input = execute_reference(input)?;
            group::group_by(&input, keys, aggs, *keys_as_labels)
        }
        AlgebraExpr::Sort { input, spec } => {
            let input = execute_reference(input)?;
            group::sort(&input, spec)
        }
        AlgebraExpr::Rename { input, mapping } => {
            let input = execute_reference(input)?;
            rowwise::rename(&input, mapping)
        }
        AlgebraExpr::Window {
            input,
            columns,
            func,
        } => {
            let input = execute_reference(input)?;
            window::window(&input, columns, func)
        }
        AlgebraExpr::Transpose { input } => {
            let input = execute_reference(input)?;
            reshape::transpose(&input)
        }
        AlgebraExpr::Map { input, func } => {
            let input = execute_reference(input)?;
            rowwise::map(&input, func)
        }
        AlgebraExpr::ToLabels { input, column } => {
            let input = execute_reference(input)?;
            reshape::to_labels(&input, column)
        }
        AlgebraExpr::FromLabels { input, new_column } => {
            let input = execute_reference(input)?;
            reshape::from_labels(&input, new_column)
        }
        AlgebraExpr::Limit { input, k, from_end } => {
            let input = execute_reference(input)?;
            Ok(reshape::limit(&input, *k, *from_end))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{ColumnSelector, MapFunc, Predicate};
    use df_types::cell::cell;

    #[test]
    fn executes_a_small_pipeline() {
        let df = DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![cell(1), cell("x")],
                vec![cell(2), cell("y")],
                vec![cell(3), cell("z")],
            ],
        )
        .unwrap();
        let expr = AlgebraExpr::literal(df)
            .select(Predicate::ColCmp {
                column: cell("a"),
                op: crate::algebra::CmpOp::Gt,
                value: cell(1),
            })
            .project(ColumnSelector::ByLabels(vec![cell("b")]))
            .map(MapFunc::StrUpper);
        let out = execute_reference(&expr).unwrap();
        assert_eq!(out.shape(), (2, 1));
        assert_eq!(out.cell(0, 0).unwrap(), &cell("Y"));
        assert_eq!(out.cell(1, 0).unwrap(), &cell("Z"));
    }
}
