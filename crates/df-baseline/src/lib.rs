//! # df-baseline
//!
//! The comparison system of the paper's evaluation: a deliberately **pandas-like**
//! dataframe engine. It is:
//!
//! * **eager** — every operator materialises its full result before returning (paper
//!   §6.1.1: "every statement is evaluated as soon as it is issued");
//! * **single-threaded** — no partitioning, no parallelism (paper §3.1: "most pandas
//!   operators are single-threaded");
//! * **row-copy heavy** — each operator round-trips the frame through a row-major
//!   `row_table::RowTable`, modelling pandas' block consolidation copies;
//! * **eagerly typed** — after every operator the full schema is re-induced and raw
//!   string columns are re-parsed, modelling pandas' per-operator dtype resolution;
//! * **memory-capped** — a configurable cell budget models pandas' failure modes:
//!   "pandas is unable to run transpose beyond 6 GB" and out-of-memory crashes on
//!   frames that exceed main memory (paper §3.2). Exceeding the budget returns
//!   [`DfError::ResourceExhausted`] so the figure-2 harness can record DNF points.
//!
//! The point of this crate is *fidelity of the cost profile*, not charity: the paper's
//! Figure 2 contrasts pandas' algorithmic overheads with MODIN's partitioned engine,
//! and that contrast is what the benchmark harness reproduces.

mod row_table;

use std::sync::Arc;

use df_types::error::{DfError, DfResult};

use df_core::algebra::AlgebraExpr;
use df_core::dataframe::DataFrame;
use df_core::engine::{Capabilities, Engine, EngineKind};
use df_core::handle::FrameHandle;
use df_core::ops;

use row_table::RowTable;

/// Tuning knobs for the baseline's pandas-like behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Maximum number of cells any intermediate result may hold before the engine
    /// reports an out-of-memory failure. `None` disables the cap.
    pub max_cells_in_memory: Option<usize>,
    /// Maximum number of cells a frame may hold for TRANSPOSE to be attempted. Pandas
    /// could not transpose frames beyond ~6 GB on the paper's test machine; the default
    /// models that wall at a laptop-appropriate scale. `None` disables the cap.
    pub max_transpose_cells: Option<usize>,
    /// Re-induce the schema and re-parse raw columns after every operator (pandas'
    /// eager dtype behaviour). Disabling this is used by the §5.1 ablation to measure
    /// how much of the baseline's cost is schema work.
    pub eager_schema_induction: bool,
    /// Round-trip every operator through the row-major representation (pandas' copy
    /// behaviour). Disabling this is used by ablations.
    pub row_major_copies: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            max_cells_in_memory: Some(200_000_000),
            max_transpose_cells: Some(8_000_000),
            eager_schema_induction: true,
            row_major_copies: true,
        }
    }
}

impl BaselineConfig {
    /// A configuration with no caps and no extra modelling overheads — useful in tests
    /// that only care about operator semantics.
    pub fn unconstrained() -> Self {
        BaselineConfig {
            max_cells_in_memory: None,
            max_transpose_cells: None,
            eager_schema_induction: false,
            row_major_copies: false,
        }
    }
}

/// The pandas-like baseline engine.
#[derive(Debug, Default, Clone)]
pub struct BaselineEngine {
    config: BaselineConfig,
}

impl BaselineEngine {
    /// An engine with the default (pandas-faithful) configuration.
    pub fn new() -> Self {
        BaselineEngine {
            config: BaselineConfig::default(),
        }
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: BaselineConfig) -> Self {
        BaselineEngine { config }
    }

    /// Enforce the in-memory cell budget on an intermediate result.
    fn check_memory(&self, df: &DataFrame) -> DfResult<()> {
        if let Some(cap) = self.config.max_cells_in_memory {
            if df.n_cells() > cap {
                return Err(DfError::ResourceExhausted(format!(
                    "baseline out of memory: intermediate result holds {} cells (cap {})",
                    df.n_cells(),
                    cap
                )));
            }
        }
        Ok(())
    }

    /// Apply the baseline's per-operator overheads: a row-major round trip (copy) and
    /// eager schema induction, in that order.
    fn finalize(&self, mut df: DataFrame) -> DfResult<DataFrame> {
        self.check_memory(&df)?;
        if self.config.row_major_copies {
            df = RowTable::from_dataframe(&df).into_dataframe()?;
        }
        if self.config.eager_schema_induction {
            df.parse_all();
        }
        Ok(df)
    }

    /// Recursive eager interpreter: children are fully materialised before the parent
    /// operator runs (no pipelining, no reordering — paper §1: "each operator within a
    /// pandas query plan is executed completely before subsequent operators").
    fn eval(&self, expr: &AlgebraExpr) -> DfResult<DataFrame> {
        let result = match expr {
            AlgebraExpr::Literal(df) => {
                let mut frame = df.as_ref().clone();
                if self.config.eager_schema_induction {
                    frame.parse_all();
                }
                frame
            }
            // A handle from an earlier statement: the baseline has no partitioned
            // representation, so it materialises the handle (and then pays its usual
            // per-operator overheads via `finalize`, like any other input).
            AlgebraExpr::Handle(handle) => handle.to_dataframe()?,
            // Scan leaves are built only for engines advertising scan support; the
            // baseline (like the reference executor) has no storage layer to read
            // from, so the shared typed rejection applies.
            AlgebraExpr::ScanCsv(_) => ops::execute_reference(expr)?,
            AlgebraExpr::Transpose { input } => {
                let input = self.eval(input)?;
                if let Some(cap) = self.config.max_transpose_cells {
                    if input.n_cells() > cap {
                        return Err(DfError::ResourceExhausted(format!(
                            "baseline cannot transpose a frame with {} cells (cap {}): \
                             pandas did not complete transposes beyond ~6 GB",
                            input.n_cells(),
                            cap
                        )));
                    }
                }
                ops::reshape::transpose(&input)?
            }
            // Every other operator: evaluate children eagerly, then run the reference
            // semantics over the materialised inputs.
            other => {
                let rewritten = self.materialize_children(other)?;
                ops::execute_reference(&rewritten)?
            }
        };
        self.finalize(result)
    }

    /// Replace each child with a literal holding its eagerly computed value.
    fn materialize_children(&self, expr: &AlgebraExpr) -> DfResult<AlgebraExpr> {
        let inputs = expr.children().into_iter().map(|child| {
            let value = self.eval(child)?;
            Ok(Arc::new(AlgebraExpr::literal(value)))
        });
        Ok(expr.with_children(inputs.collect::<DfResult<Vec<_>>>()?))
    }
}

impl Engine for BaselineEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Baseline
    }

    fn execute(&self, expr: &AlgebraExpr) -> DfResult<FrameHandle> {
        // Eager and fully resident, like pandas: the handle is always materialised.
        Ok(FrameHandle::from_dataframe(self.eval(expr)?))
    }

    fn capabilities(&self) -> Capabilities {
        // Pandas row of Table 3: everything except lazy execution.
        Capabilities {
            lazy_execution: false,
            ..Capabilities::full_dataframe()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::{AggFunc, Aggregation, MapFunc, Predicate};
    use df_core::engine::ReferenceEngine;
    use df_types::cell::{cell, Cell};
    use df_types::domain::Domain;

    fn trips() -> DataFrame {
        DataFrame::from_rows(
            vec!["passenger_count", "fare"],
            vec![
                vec![cell(1), cell(10.0)],
                vec![cell(2), cell(20.0)],
                vec![cell(1), cell(30.0)],
                vec![Cell::Null, cell(5.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn baseline_agrees_with_reference_on_a_pipeline() {
        let expr = AlgebraExpr::literal(trips())
            .select(Predicate::NotNull {
                column: cell("passenger_count"),
            })
            .group_by(
                vec![cell("passenger_count")],
                vec![Aggregation::count_rows()],
                false,
            );
        let baseline = BaselineEngine::new().execute_collect(&expr).unwrap();
        let reference = ReferenceEngine.execute_collect(&expr).unwrap();
        assert!(baseline.same_data(&reference));
    }

    #[test]
    fn eager_schema_induction_types_results() {
        let raw =
            DataFrame::from_columns(vec!["price"], vec![vec![cell("10"), cell("20")]]).unwrap();
        let out = BaselineEngine::new()
            .execute_collect(&AlgebraExpr::literal(raw))
            .unwrap();
        // The baseline parses raw strings eagerly, so the result is already typed.
        assert_eq!(out.schema(), vec![Some(Domain::Int)]);
        assert_eq!(out.cell(0, 0).unwrap(), &cell(10));
    }

    #[test]
    fn transpose_cap_models_pandas_failure() {
        let big =
            DataFrame::from_columns(vec!["v"], vec![(0..100).map(|i| cell(i as i64)).collect()])
                .unwrap();
        let engine = BaselineEngine::with_config(BaselineConfig {
            max_transpose_cells: Some(50),
            ..BaselineConfig::default()
        });
        let err = engine
            .execute_collect(&AlgebraExpr::literal(big.clone()).transpose())
            .unwrap_err();
        assert!(err.is_resource_exhausted());
        // Below the cap it succeeds.
        let ok = engine
            .execute_collect(&AlgebraExpr::literal(big.head(10)).transpose())
            .unwrap();
        assert_eq!(ok.shape(), (1, 10));
    }

    #[test]
    fn memory_cap_limits_intermediate_results() {
        let engine = BaselineEngine::with_config(BaselineConfig {
            max_cells_in_memory: Some(10),
            ..BaselineConfig::default()
        });
        let left =
            DataFrame::from_columns(vec!["v"], vec![(0..10).map(|i| cell(i as i64)).collect()])
                .unwrap();
        let expr = AlgebraExpr::literal(left.clone()).cross(AlgebraExpr::literal(left));
        let err = engine.execute_collect(&expr).unwrap_err();
        assert!(err.is_resource_exhausted());
    }

    #[test]
    fn unconstrained_config_disables_modelling_overheads() {
        let engine = BaselineEngine::with_config(BaselineConfig::unconstrained());
        assert_eq!(engine.config.max_transpose_cells, None);
        let out = engine
            .execute_collect(&AlgebraExpr::literal(trips()).map(MapFunc::IsNullMask))
            .unwrap();
        assert_eq!(out.cell(3, 0).unwrap(), &cell(true));
    }

    #[test]
    fn capabilities_match_the_pandas_row_of_table3() {
        let caps = BaselineEngine::new().capabilities();
        assert!(caps.ordered_model);
        assert!(caps.eager_execution);
        assert!(!caps.lazy_execution);
        assert!(caps.transpose);
        assert_eq!(BaselineEngine::new().kind(), EngineKind::Baseline);
    }

    #[test]
    fn binary_operators_materialise_both_children() {
        let left = trips();
        let right = trips();
        let expr = AlgebraExpr::literal(left).union(AlgebraExpr::literal(right));
        let out = BaselineEngine::new().execute_collect(&expr).unwrap();
        assert_eq!(out.shape(), (8, 2));
        let agg = Aggregation::of("fare", AggFunc::Sum);
        let total = BaselineEngine::new()
            .execute_collect(&AlgebraExpr::literal(out).group_by(vec![], vec![agg], false))
            .unwrap();
        assert_eq!(total.cell(0, 0).unwrap(), &cell(130.0));
    }

    #[test]
    fn prefix_execution_still_pays_full_materialisation() {
        // The baseline has no prefix-prioritised path: execute_prefix is just a slice
        // of the eager result. This test pins that behaviour (the scalable engine's
        // override is what the §6.1.2 ablation contrasts against).
        let expr = AlgebraExpr::literal(trips()).select(Predicate::True);
        let head = BaselineEngine::new().execute_prefix(&expr, 2).unwrap();
        assert_eq!(head.shape(), (2, 2));
        let tail = BaselineEngine::new().execute_suffix(&expr, 1).unwrap();
        assert_eq!(tail.cell(0, 1).unwrap(), &cell(5.0));
    }
}
