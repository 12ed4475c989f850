//! The "narrow waist": the [`Engine`] trait every execution backend implements.
//!
//! Paper §3.3 / Figure 3: the query processing layer exposes a small API based on the
//! dataframe algebra; user-facing APIs sit above it and execution backends sit below
//! it. In this workspace the pandas-style API (`df-pandas`) builds [`AlgebraExpr`]
//! trees and hands them to an [`Engine`]; the baseline (`df-baseline`), the scalable
//! engine (`df-engine`) and the reference executor here all implement the trait.
//!
//! The waist is *handle-based* (§6.1): [`Engine::execute`] returns an opaque
//! [`FrameHandle`] — engine-owned, possibly partitioned, possibly spilled — rather
//! than a fully assembled [`DataFrame`]. A statement's output feeds the next
//! statement's plan through the [`AlgebraExpr::Handle`] leaf without assembly or
//! re-partitioning; a real dataframe only exists at the explicit materialisation
//! points: [`Engine::collect`], [`Engine::head_of`] / [`Engine::tail_of`] (tabular
//! inspection), [`Engine::execute_prefix`] / [`Engine::execute_suffix`] (plan-level
//! prefix prioritisation, §6.1.2), or a write.
//!
//! [`Capabilities`] mirrors the feature matrix of Table 3 so that the bench harness can
//! print the paper's system-comparison table from live probes rather than hard-coded
//! claims.
//!
//! [`AlgebraExpr::Handle`]: crate::algebra::AlgebraExpr::Handle

use df_types::error::DfResult;

use crate::algebra::AlgebraExpr;
use crate::dataframe::DataFrame;
use crate::handle::FrameHandle;
use crate::ops;

/// Which backend an engine is (used in benchmark output and the Table 3 matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The reference executor in this crate (semantics ground truth).
    Reference,
    /// The pandas-like baseline: eager, single-threaded, row-oriented.
    Baseline,
    /// The MODIN-like scalable engine: partitioned, parallel, metadata-aware.
    Modin,
    /// A deliberately restricted engine modelling "dataframe-like" systems
    /// (Spark/Dask-style) that reject order-dependent and metadata operators.
    RelationalLike,
}

/// The feature matrix of paper Table 3, one flag per row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Ordered data model (rows keep their ingest order).
    pub ordered_model: bool,
    /// Eager (statement-at-a-time) execution is available.
    pub eager_execution: bool,
    /// Lazy / deferred execution is available.
    pub lazy_execution: bool,
    /// Rows and columns are treated equivalently (transpose-ability).
    pub row_col_equivalence: bool,
    /// Schemas may be left unspecified and induced lazily.
    pub lazy_schema: bool,
    /// Ordered analogues of the relational operators.
    pub relational_operators: bool,
    /// The MAP operator.
    pub map: bool,
    /// The WINDOW operator.
    pub window: bool,
    /// The TRANSPOSE operator.
    pub transpose: bool,
    /// The TOLABELS operator.
    pub to_labels: bool,
    /// The FROMLABELS operator.
    pub from_labels: bool,
}

impl Capabilities {
    /// The full dataframe feature set (pandas, R, and this workspace's engines).
    pub fn full_dataframe() -> Self {
        Capabilities {
            ordered_model: true,
            eager_execution: true,
            lazy_execution: false,
            row_col_equivalence: true,
            lazy_schema: true,
            relational_operators: true,
            map: true,
            window: true,
            transpose: true,
            to_labels: true,
            from_labels: true,
        }
    }

    /// The restricted feature set of dataframe-like systems (SparkSQL/Dask in Table 3):
    /// unordered (or weakly ordered), no row/column equivalence, no TRANSPOSE and no
    /// label/metadata movement.
    pub fn relational_like() -> Self {
        Capabilities {
            ordered_model: false,
            eager_execution: false,
            lazy_execution: true,
            row_col_equivalence: false,
            lazy_schema: false,
            relational_operators: true,
            map: true,
            window: true,
            transpose: false,
            to_labels: true,
            from_labels: false,
        }
    }

    /// The named feature rows in Table 3 order, for printing the comparison matrix.
    pub fn as_rows(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("Ordered model", self.ordered_model),
            ("Eager execution", self.eager_execution),
            ("Lazy execution", self.lazy_execution),
            ("Row/Col Equivalency", self.row_col_equivalence),
            ("Lazy Schema", self.lazy_schema),
            ("Relational Operators", self.relational_operators),
            ("MAP", self.map),
            ("WINDOW", self.window),
            ("TRANSPOSE", self.transpose),
            ("TOLABELS", self.to_labels),
            ("FROMLABELS", self.from_labels),
        ]
    }

    /// Whether a given algebra operator is supported under these capabilities.
    pub fn supports(&self, expr: &AlgebraExpr) -> bool {
        match expr {
            AlgebraExpr::Transpose { .. } => self.transpose,
            AlgebraExpr::ToLabels { .. } => self.to_labels,
            AlgebraExpr::FromLabels { .. } => self.from_labels,
            AlgebraExpr::Window { .. } => self.window,
            AlgebraExpr::Map { .. } => self.map,
            AlgebraExpr::Sort { .. } | AlgebraExpr::Limit { .. } => self.ordered_model,
            _ => self.relational_operators,
        }
    }
}

/// A snapshot of an engine's scan-pushdown and adaptive-join counters, merged into
/// the session's statistics by the API layer. Engines without a cost-based optimizer
/// report the all-zero default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushdownSnapshot {
    /// Chunks proven empty by min/max statistics and never parsed.
    pub chunks_skipped: u64,
    /// File columns never parsed/encoded thanks to projection pushdown.
    pub columns_pruned: u64,
    /// Predicates the optimizer folded into a scan leaf.
    pub predicates_pushed: u64,
    /// Projections the optimizer folded into a scan leaf.
    pub projections_pushed: u64,
    /// Joins executed with a broadcast build side.
    pub joins_broadcast: u64,
    /// Joins executed with a hash shuffle.
    pub joins_shuffled: u64,
}

/// An execution backend for the dataframe algebra.
///
/// `execute` is the only required evaluation method; everything else is a
/// materialisation point with a handle-generic default. Engines with a partitioned
/// representation override [`Engine::execute`] to return
/// [`FrameHandle::Partitioned`] handles and reuse them from
/// [`AlgebraExpr::Handle`](crate::algebra::AlgebraExpr) plan leaves.
pub trait Engine: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> EngineKind;

    /// Execute an algebra expression to an engine-owned result handle. No assembly
    /// happens here: the handle stays partitioned (and possibly spilled) until one of
    /// the materialisation points below is called.
    fn execute(&self, expr: &AlgebraExpr) -> DfResult<FrameHandle>;

    /// Materialisation point: assemble a handle into a full dataframe.
    fn collect(&self, handle: &FrameHandle) -> DfResult<DataFrame> {
        handle.to_dataframe()
    }

    /// Materialisation point: the first `k` rows of an already-executed handle
    /// (partition-aware engines touch only the leading partitions).
    fn head_of(&self, handle: &FrameHandle, k: usize) -> DfResult<DataFrame> {
        handle.head(k)
    }

    /// Materialisation point: the last `k` rows of an already-executed handle.
    fn tail_of(&self, handle: &FrameHandle, k: usize) -> DfResult<DataFrame> {
        handle.tail(k)
    }

    /// Execute and immediately materialise — the one-shot convenience for callers
    /// (tests, benches, differential harnesses) that want the pre-handle behaviour of
    /// the old `execute`.
    fn execute_collect(&self, expr: &AlgebraExpr) -> DfResult<DataFrame> {
        self.execute(expr)?.into_dataframe()
    }

    /// The engine's feature matrix (Table 3 row).
    fn capabilities(&self) -> Capabilities {
        Capabilities::full_dataframe()
    }

    /// The engine's cooperative cancel token, when it supports cancellation. The
    /// session's timeout/cancel entry points reach in-flight worker batches through
    /// this; the default (no token) makes cancellation a clean no-op for engines
    /// that execute synchronously in one shot.
    fn cancel_token(&self) -> Option<df_types::CancelToken> {
        None
    }

    /// Execute only enough of the expression to return the first `k` rows (§6.1.2
    /// prefix-prioritised execution). The default simply executes fully and slices;
    /// the scalable engine overrides this with partition-aware short-circuiting.
    fn execute_prefix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        self.execute(expr)?.head(k)
    }

    /// Execute only enough of the expression to return the last `k` rows.
    fn execute_suffix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        self.execute(expr)?.tail(k)
    }

    /// This engine's cumulative scan-pushdown / adaptive-join counters. The default
    /// (all zero) is correct for engines without a cost-based optimizer.
    fn pushdown_stats(&self) -> PushdownSnapshot {
        PushdownSnapshot::default()
    }

    /// Render `expr` as a human-readable plan annotated with the cost model's
    /// estimates. The default prints the plan as given; optimizing engines override
    /// this to also show the rewritten plan and which pushdowns/strategies fired.
    fn explain(&self, expr: &AlgebraExpr) -> String {
        crate::cost::render_plan(expr)
    }
}

/// The reference engine: interprets expressions with the operator semantics defined in
/// [`crate::ops`]. Used as ground truth in differential tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceEngine;

impl Engine for ReferenceEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Reference
    }

    fn execute(&self, expr: &AlgebraExpr) -> DfResult<FrameHandle> {
        Ok(FrameHandle::from_dataframe(ops::execute_reference(expr)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{MapFunc, Predicate};
    use df_types::cell::cell;

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["a", "b"],
            vec![vec![cell(1), Cell::Null], vec![cell(2), cell("x")]],
        )
        .unwrap()
    }
    use df_types::cell::Cell;

    #[test]
    fn reference_engine_executes_and_reports_kind() {
        let engine = ReferenceEngine;
        assert_eq!(engine.kind(), EngineKind::Reference);
        let handle = engine
            .execute(&AlgebraExpr::literal(frame()).map(MapFunc::IsNullMask))
            .unwrap();
        assert!(!handle.is_partitioned());
        assert_eq!(handle.shape(), (2, 2));
        let out = engine.collect(&handle).unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &cell(true));
        // Handle-level materialisation points slice without re-executing.
        assert_eq!(engine.head_of(&handle, 1).unwrap().n_rows(), 1);
        assert_eq!(engine.tail_of(&handle, 1).unwrap().n_rows(), 1);
        let one_shot = engine
            .execute_collect(&AlgebraExpr::literal(frame()).map(MapFunc::IsNullMask))
            .unwrap();
        assert!(one_shot.same_data(&out));
    }

    #[test]
    fn handle_leaves_resume_across_statement_boundaries() {
        let engine = ReferenceEngine;
        let first = engine
            .execute(&AlgebraExpr::literal(frame()).select(Predicate::True))
            .unwrap();
        let second = engine
            .execute(&AlgebraExpr::handle(first).map(MapFunc::IsNullMask))
            .unwrap();
        assert_eq!(engine.collect(&second).unwrap().shape(), (2, 2));
    }

    #[test]
    fn prefix_and_suffix_defaults_slice_the_result() {
        let engine = ReferenceEngine;
        let expr = AlgebraExpr::literal(frame()).select(Predicate::True);
        assert_eq!(engine.execute_prefix(&expr, 1).unwrap().shape(), (1, 2));
        let suffix = engine.execute_suffix(&expr, 1).unwrap();
        assert_eq!(suffix.cell(0, 0).unwrap(), &cell(2));
    }

    #[test]
    fn capability_matrix_matches_table3_shape() {
        let full = Capabilities::full_dataframe();
        assert_eq!(full.as_rows().len(), 11);
        assert!(full.supports(&AlgebraExpr::literal(frame()).transpose()));
        let restricted = Capabilities::relational_like();
        assert!(!restricted.supports(&AlgebraExpr::literal(frame()).transpose()));
        assert!(!restricted.supports(&AlgebraExpr::literal(frame()).from_labels("idx")));
        assert!(restricted.supports(&AlgebraExpr::literal(frame()).select(Predicate::True)));
        assert!(restricted.supports(&AlgebraExpr::literal(frame()).map(MapFunc::IsNullMask)));
        assert!(!restricted.supports(&AlgebraExpr::literal(frame()).limit(5, false)));
    }
}
