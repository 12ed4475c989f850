//! Logical rewrite rules over [`AlgebraExpr`] trees.
//!
//! These implement the planner-side ideas of paper §5 and §6:
//!
//! * **Transpose cancellation** (§5.2.2) — `TRANSPOSE(TRANSPOSE(x)) → x`, so a pair of
//!   reorientations is never materialised.
//! * **Selection fusion** — adjacent SELECTIONs combine into one conjunctive predicate,
//!   so incrementally composed statements (§6.2) do not pay one pass per statement.
//! * **Limit push-down** (§6.1.2) — a LIMIT (the `head`/`tail` inspection) pushes below
//!   arity-preserving row-wise operators, so prefix inspection of a long pipeline only
//!   computes the rows that will be displayed — and a LIMIT that lands on a
//!   [`ScanCsv`](df_core::ScanCsv) leaf folds into it, so the first look at a
//!   file parses only the chunks its rows come from.
//! * **Scan pushdown** — a SELECTION, PROJECTION or LIMIT sitting directly on a
//!   [`ScanCsv`](df_core::ScanCsv) leaf folds *into* the leaf, so the parse loop
//!   only materialises referenced columns and can skip whole chunks whose statistics
//!   prove no row can match ([`df_core::chunk_may_match`]).
//! * **Pivot axis choice** (Figure 8) — choose between pivoting on the requested column
//!   or pivoting on the other axis and transposing the (much smaller) result.
//!
//! Each rule looks at one node and either rewrites it or declines; one top-down walker
//! applies it to a whole plan. Plans share their subtrees through `Arc`, and a walk
//! returns the very `Arc` it was given wherever nothing below changed, so a pass costs
//! one visit per node and copies only the nodes on the path to a rewrite.

use std::sync::Arc;

use df_core::algebra::{AlgebraExpr, ColumnSelector, MapFunc, Predicate, WindowFunc};

/// Statistics about one optimization pass, reported by benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `TRANSPOSE(TRANSPOSE(x))` pairs removed.
    pub transpose_pairs_eliminated: usize,
    /// Adjacent SELECTION pairs fused.
    pub selections_fused: usize,
    /// LIMIT nodes pushed below row-wise operators or folded into a `ScanCsv` leaf.
    pub limits_pushed: usize,
    /// SELECTION predicates folded into a `ScanCsv` leaf.
    pub predicates_pushed: usize,
    /// PROJECTION column lists folded into a `ScanCsv` leaf.
    pub projections_pushed: usize,
}

impl RewriteStats {
    /// Total number of rewrites applied.
    pub fn total(&self) -> usize {
        self.transpose_pairs_eliminated
            + self.selections_fused
            + self.limits_pushed
            + self.predicates_pushed
            + self.projections_pushed
    }
}

/// A rewrite rule: the replacement for one node, or `None` when the rule does not
/// apply there.
type Rule = fn(&AlgebraExpr) -> Option<Arc<AlgebraExpr>>;

/// Run every rewrite rule to fixpoint (bounded) and report what was done.
pub fn optimize(expr: &AlgebraExpr) -> (AlgebraExpr, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut current = Arc::new(expr.clone());
    // Rules only ever shrink or reorder the tree, so a small bounded loop reaches a
    // fixpoint; the bound guards against pathological interactions.
    for _ in 0..8 {
        let before = Arc::clone(&current);
        for (rule, hits) in [
            (
                eliminate_double_transpose as Rule,
                &mut stats.transpose_pairs_eliminated,
            ),
            (fuse_selections, &mut stats.selections_fused),
            (push_limit, &mut stats.limits_pushed),
            (push_scan_predicate, &mut stats.predicates_pushed),
            (push_scan_projection, &mut stats.projections_pushed),
        ] {
            current = rewrite(&current, rule, hits);
        }
        if Arc::ptr_eq(&before, &current) {
            break;
        }
    }
    (AlgebraExpr::clone(&current), stats)
}

/// Apply `rule` top-down: a node it rewrites is counted and walked again, and any
/// other node keeps its operator and has its children walked.
fn rewrite(expr: &Arc<AlgebraExpr>, rule: Rule, hits: &mut usize) -> Arc<AlgebraExpr> {
    match rule(expr) {
        Some(next) => {
            *hits += 1;
            rewrite(&next, rule, hits)
        }
        None => map_children(expr, &mut |child| rewrite(child, rule, hits)),
    }
}

/// Rewrite children with `f`, preserving the operator at the root. When `f` returns
/// every child unchanged, so is the result: `expr` itself, not a copy.
pub(crate) fn map_children(
    expr: &Arc<AlgebraExpr>,
    f: &mut impl FnMut(&Arc<AlgebraExpr>) -> Arc<AlgebraExpr>,
) -> Arc<AlgebraExpr> {
    let children = expr.children();
    let mapped: Vec<_> = children.iter().map(|child| f(child)).collect();
    if mapped
        .iter()
        .zip(&children)
        .all(|(new, old)| Arc::ptr_eq(new, old))
    {
        return Arc::clone(expr);
    }
    Arc::new(expr.with_children(mapped))
}

fn eliminate_double_transpose(expr: &AlgebraExpr) -> Option<Arc<AlgebraExpr>> {
    let AlgebraExpr::Transpose { input } = expr else {
        return None;
    };
    match input.as_ref() {
        AlgebraExpr::Transpose { input: inner } => Some(Arc::clone(inner)),
        _ => None,
    }
}

/// Fuse `σ_outer(σ_inner(x))` into `σ_{inner ∧ outer}(x)` — unless the outer predicate
/// reads row positions: it numbers the rows the inner selection *kept*, the fused
/// conjunction would number the rows of `x`. An inner positional predicate is fine
/// (both forms number the rows of `x`).
fn fuse_selections(expr: &AlgebraExpr) -> Option<Arc<AlgebraExpr>> {
    let AlgebraExpr::Selection { input, predicate } = expr else {
        return None;
    };
    let AlgebraExpr::Selection {
        input: inner_input,
        predicate: inner_predicate,
    } = input.as_ref()
    else {
        return None;
    };
    if predicate.reads_position() {
        return None;
    }
    // Inner predicate applies first, so it goes on the left of the AND.
    Some(Arc::new(AlgebraExpr::Selection {
        input: Arc::clone(inner_input),
        predicate: Predicate::And(
            Box::new(inner_predicate.clone()),
            Box::new(predicate.clone()),
        ),
    }))
}

/// True when a prefix/suffix of the operator's output only needs the same prefix/suffix
/// of its input (so LIMIT can move below it).
fn limit_transparent(expr: &AlgebraExpr, from_end: bool) -> bool {
    match expr {
        // ParseRaw induces each column's domain over the rows it sees, so it must see
        // all of them.
        AlgebraExpr::Map { func, .. } => {
            func.preserves_arity() && !matches!(func, MapFunc::ParseRaw)
        }
        AlgebraExpr::Projection { .. } | AlgebraExpr::Rename { .. } => true,
        // Prefix-only: cumulative / trailing windows depend only on earlier rows, so a
        // head() needs just the head of the input. A tail() would need the full prefix,
        // so suffix limits never push below windows.
        AlgebraExpr::Window { func, .. } => {
            !from_end
                && matches!(
                    func,
                    WindowFunc::CumSum
                        | WindowFunc::CumMax
                        | WindowFunc::CumMin
                        | WindowFunc::Diff { .. }
                        | WindowFunc::RollingMean { .. }
                        | WindowFunc::RollingSum { .. }
                        | WindowFunc::Shift { offset: 0.. }
                )
        }
        _ => false,
    }
}

/// Swap `LIMIT(op(x))` into `op(LIMIT(x))` below a [`limit_transparent`] operator. A
/// LIMIT that reached a scan leaf folds into it instead: the scan evaluates its
/// predicate and projection first and the limit last, which is exactly LIMIT above the
/// leaf. A leaf that is already limited keeps the outer LIMIT above it.
fn push_limit(expr: &AlgebraExpr) -> Option<Arc<AlgebraExpr>> {
    let &AlgebraExpr::Limit {
        ref input,
        k,
        from_end,
    } = expr
    else {
        return None;
    };
    if let AlgebraExpr::ScanCsv(scan) = input.as_ref() {
        if scan.limit.is_none() {
            return Some(Arc::new(AlgebraExpr::scan_csv(
                scan.with_limit(k, from_end),
            )));
        }
    }
    if !limit_transparent(input, from_end) {
        return None;
    }
    let inner = Arc::clone(input.children()[0]);
    let limited = AlgebraExpr::Limit {
        input: inner,
        k,
        from_end,
    };
    Some(Arc::new(input.with_children([Arc::new(limited)])))
}

/// Fold a SELECTION sitting directly on a `ScanCsv` leaf into the leaf, so the scan
/// evaluates the predicate during its parse loop (and can skip whole chunks via
/// min/max statistics) instead of materialising every row first.
///
/// Soundness guards:
/// * the scan must not already carry a predicate (fusion produces one SELECTION, so
///   this only occurs across separate optimize calls — stay conservative);
/// * the scan must not carry a limit: the leaf filters *before* it limits, and
///   SELECTION above a limited leaf filters after;
/// * the predicate must be [`Predicate::scan_pushable`] (no position- or
///   closure-dependent parts) with statically known referenced columns;
/// * when the scan already has a projection pushed, every referenced column must
///   survive it. The algebra evaluates a predicate on a *missing* column as
///   all-false, so pushing a predicate below the projection that dropped its column
///   would resurrect rows the unpushed plan filters out.
fn push_scan_predicate(expr: &AlgebraExpr) -> Option<Arc<AlgebraExpr>> {
    let AlgebraExpr::Selection { input, predicate } = expr else {
        return None;
    };
    let AlgebraExpr::ScanCsv(scan) = input.as_ref() else {
        return None;
    };
    if scan.predicate.is_some() || scan.limit.is_some() || !predicate.scan_pushable() {
        return None;
    }
    let cols = predicate.referenced_columns()?;
    let survives_projection = match &scan.projection {
        None => true,
        Some(proj) => cols.iter().all(|c| proj.contains(c)),
    };
    survives_projection.then(|| {
        Arc::new(AlgebraExpr::scan_csv(
            scan.with_predicate(predicate.clone()),
        ))
    })
}

/// Fold a by-label PROJECTION sitting directly on a `ScanCsv` leaf into the leaf, so
/// the parse loop only splits, allocates, and encodes the referenced columns. The scan
/// still parses (but does not emit) any extra columns its own pushed predicate needs,
/// which keeps `PROJECT(SELECT(scan))` pipelines fully foldable.
fn push_scan_projection(expr: &AlgebraExpr) -> Option<Arc<AlgebraExpr>> {
    let AlgebraExpr::Projection {
        input,
        columns: ColumnSelector::ByLabels(labels),
    } = expr
    else {
        return None;
    };
    match input.as_ref() {
        AlgebraExpr::ScanCsv(scan) if scan.projection.is_none() => Some(Arc::new(
            AlgebraExpr::scan_csv(scan.with_projection(labels.clone())),
        )),
        _ => None,
    }
}

/// The two pivot plans of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotPlan {
    /// Pivot directly on the requested column (Figure 8a).
    Direct,
    /// Pivot on the other axis — whose distinct values are fewer or already sorted —
    /// and TRANSPOSE the smaller result (Figure 8b).
    PivotOtherAxisThenTranspose,
}

/// Choose between the Figure 8 plans given the distinct-value counts of the requested
/// pivot column and of the alternative axis column. Pivoting groups by the chosen
/// column, so grouping by the axis with fewer distinct values builds fewer, larger
/// groups and a narrower intermediate; the final TRANSPOSE of the small pivoted result
/// is cheap (especially under metadata-only transpose).
pub fn choose_pivot_plan(requested_distinct: usize, other_distinct: usize) -> PivotPlan {
    if other_distinct < requested_distinct {
        PivotPlan::PivotOtherAxisThenTranspose
    } else {
        PivotPlan::Direct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::{CmpOp, ColumnSelector};
    use df_core::dataframe::DataFrame;
    use df_core::ops::execute_reference;
    use df_types::cell::{cell, Cell};

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![cell(1), cell(10.0)],
                vec![cell(2), Cell::Null],
                vec![cell(3), cell(30.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn double_transpose_is_eliminated() {
        let expr = AlgebraExpr::literal(frame()).transpose().transpose();
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.transpose_pairs_eliminated, 1);
        assert_eq!(optimized.transpose_count(), 0);
        // Semantics preserved.
        let a = execute_reference(&expr).unwrap();
        let b = execute_reference(&optimized).unwrap();
        assert!(a.same_data(&b));
    }

    #[test]
    fn triple_transpose_keeps_exactly_one() {
        let expr = AlgebraExpr::literal(frame())
            .transpose()
            .transpose()
            .transpose();
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.transpose_pairs_eliminated, 1);
        assert_eq!(optimized.transpose_count(), 1);
    }

    #[test]
    fn adjacent_selections_fuse_and_preserve_semantics() {
        let expr = AlgebraExpr::literal(frame())
            .select(Predicate::ColCmp {
                column: cell("a"),
                op: CmpOp::Gt,
                value: cell(1),
            })
            .select(Predicate::NotNull { column: cell("b") });
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.selections_fused, 1);
        assert_eq!(optimized.operator_count(), 1);
        assert!(execute_reference(&optimized)
            .unwrap()
            .same_data(&execute_reference(&expr).unwrap()));
    }

    #[test]
    fn limit_pushes_below_rowwise_operators() {
        let expr = AlgebraExpr::literal(frame())
            .map(MapFunc::IsNullMask)
            .project(ColumnSelector::All)
            .limit(2, false);
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.limits_pushed, 2);
        // The limit should now sit directly on the literal.
        fn limit_depth(expr: &AlgebraExpr) -> Option<usize> {
            match expr {
                AlgebraExpr::Limit { .. } => Some(expr.depth()),
                _ => expr.children().iter().find_map(|c| limit_depth(c)),
            }
        }
        assert_eq!(limit_depth(&optimized), Some(2));
        assert!(execute_reference(&optimized)
            .unwrap()
            .same_data(&execute_reference(&expr).unwrap()));
    }

    #[test]
    fn suffix_limit_does_not_push_below_windows() {
        let prefix = AlgebraExpr::literal(frame())
            .window(ColumnSelector::All, WindowFunc::CumSum)
            .limit(2, false);
        let (_, prefix_stats) = optimize(&prefix);
        assert_eq!(prefix_stats.limits_pushed, 1);
        let suffix = AlgebraExpr::literal(frame())
            .window(ColumnSelector::All, WindowFunc::CumSum)
            .limit(2, true);
        let (optimized, suffix_stats) = optimize(&suffix);
        assert_eq!(suffix_stats.limits_pushed, 0);
        assert!(execute_reference(&optimized)
            .unwrap()
            .same_data(&execute_reference(&suffix).unwrap()));
    }

    #[test]
    fn limit_does_not_push_below_selection_or_parse_raw() {
        for expr in [
            AlgebraExpr::literal(frame()).select(Predicate::NotNull { column: cell("b") }),
            AlgebraExpr::literal(frame()).map(MapFunc::ParseRaw),
        ] {
            let expr = expr.limit(1, false);
            let (optimized, stats) = optimize(&expr);
            assert_eq!(stats.limits_pushed, 0);
            assert!(execute_reference(&optimized)
                .unwrap()
                .same_data(&execute_reference(&expr).unwrap()));
        }
    }

    fn scan() -> AlgebraExpr {
        AlgebraExpr::scan_csv(df_core::ScanCsv::new(
            "/tmp/optimizer_test.csv",
            df_core::ScanOptions::default(),
            "test-scan",
        ))
    }

    fn gt_a(value: i64) -> Predicate {
        Predicate::ColCmp {
            column: cell("a"),
            op: CmpOp::Gt,
            value: cell(value),
        }
    }

    #[test]
    fn selection_folds_into_scan_leaf() {
        let expr = scan().select(gt_a(1));
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.predicates_pushed, 1);
        match &optimized {
            AlgebraExpr::ScanCsv(s) => {
                assert_eq!(format!("{:?}", s.predicate), format!("{:?}", Some(gt_a(1))))
            }
            other => panic!("expected a bare scan, got {}", other.name()),
        }
    }

    #[test]
    fn projection_and_fused_selections_fold_into_scan_leaf() {
        let expr = scan()
            .select(gt_a(1))
            .select(Predicate::NotNull { column: cell("b") })
            .project(ColumnSelector::ByLabels(vec![cell("b")]));
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.selections_fused, 1);
        assert_eq!(stats.predicates_pushed, 1);
        assert_eq!(stats.projections_pushed, 1);
        match &optimized {
            AlgebraExpr::ScanCsv(s) => {
                assert_eq!(s.projection, Some(vec![cell("b")]));
                assert!(s.predicate.is_some());
            }
            other => panic!("expected a bare scan, got {}", other.name()),
        }
    }

    #[test]
    fn predicate_on_projected_away_column_stays_above_scan() {
        // PROJECT(b) folds in first; SELECT(a > 1) then references a column the scan
        // no longer emits. The unpushed plan evaluates that predicate as all-false,
        // so folding it below the projection would change semantics.
        let pre_projected = match scan() {
            AlgebraExpr::ScanCsv(s) => AlgebraExpr::scan_csv(s.with_projection(vec![cell("b")])),
            _ => unreachable!(),
        };
        let expr = pre_projected.select(gt_a(1));
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.predicates_pushed, 0);
        assert!(matches!(optimized, AlgebraExpr::Selection { .. }));
    }

    #[test]
    fn opaque_predicates_do_not_fold_into_scans() {
        for predicate in [
            Predicate::PositionRange { start: 0, end: 2 },
            Predicate::Custom {
                name: "opaque".into(),
                func: std::sync::Arc::new(|_| true),
            },
        ] {
            let expr = scan().select(predicate);
            let (optimized, stats) = optimize(&expr);
            assert_eq!(stats.predicates_pushed, 0);
            assert!(matches!(optimized, AlgebraExpr::Selection { .. }));
        }
    }

    #[test]
    fn limit_folds_into_scan_leaf_after_the_other_pushdowns() {
        // head(5) of a filtered, projected scan: everything lands in the leaf.
        let expr = scan()
            .select(gt_a(1))
            .project(ColumnSelector::ByLabels(vec![cell("a")]))
            .limit(5, false);
        let (optimized, stats) = optimize(&expr);
        assert_eq!(
            stats.limits_pushed, 2,
            "below PROJECTION, then into the leaf"
        );
        match &optimized {
            AlgebraExpr::ScanCsv(s) => {
                assert_eq!(s.limit, Some((5, false)));
                assert!(s.predicate.is_some());
                assert_eq!(s.projection, Some(vec![cell("a")]));
            }
            other => panic!("expected a bare scan, got {}", other.name()),
        }
        // tail(k) folds too, and a second LIMIT stays above the limited leaf.
        let (optimized, stats) = optimize(&scan().limit(3, true).limit(2, false));
        assert_eq!(stats.limits_pushed, 1);
        match &optimized {
            AlgebraExpr::Limit {
                input,
                k: 2,
                from_end: false,
            } => match input.as_ref() {
                AlgebraExpr::ScanCsv(s) => assert_eq!(s.limit, Some((3, true))),
                other => panic!("expected a limited scan, got {}", other.name()),
            },
            other => panic!("expected LIMIT over the scan, got {}", other.name()),
        }
    }

    #[test]
    fn selection_above_a_limited_scan_stays_above_it() {
        // filter(head(5)) must not become head(5) of the filtered file.
        let expr = scan().limit(5, false).select(gt_a(1));
        let (optimized, stats) = optimize(&expr);
        assert_eq!(stats.limits_pushed, 1);
        assert_eq!(stats.predicates_pushed, 0);
        match &optimized {
            AlgebraExpr::Selection { input, .. } => match input.as_ref() {
                AlgebraExpr::ScanCsv(s) => {
                    assert_eq!(s.limit, Some((5, false)));
                    assert!(s.predicate.is_none());
                }
                other => panic!("expected a limited scan, got {}", other.name()),
            },
            other => panic!("expected SELECTION over the scan, got {}", other.name()),
        }
    }

    #[test]
    fn pivot_axis_choice_follows_distinct_counts() {
        assert_eq!(
            choose_pivot_plan(12, 3),
            PivotPlan::PivotOtherAxisThenTranspose
        );
        assert_eq!(choose_pivot_plan(3, 12), PivotPlan::Direct);
        assert_eq!(choose_pivot_plan(5, 5), PivotPlan::Direct);
    }
}
