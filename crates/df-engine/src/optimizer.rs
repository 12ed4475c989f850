//! Logical rewrite rules over [`AlgebraExpr`] trees.
//!
//! These implement the planner-side ideas of paper §5 and §6:
//!
//! * **Transpose cancellation / pull-up** (§5.2.2) — `TRANSPOSE(TRANSPOSE(x)) → x`, and
//!   per-cell MAPs commute with TRANSPOSE so the transpose can be pulled up (delaying
//!   or eliminating physical reorientation).
//! * **Selection fusion** — adjacent SELECTIONs combine into one conjunctive predicate,
//!   so incrementally composed statements (§6.2) do not pay one pass per statement.
//! * **Limit push-down** (§6.1.2) — a LIMIT (the `head`/`tail` inspection) pushes below
//!   arity-preserving row-wise operators, so prefix inspection of a long pipeline only
//!   computes the rows that will be displayed — and a LIMIT that lands on a
//!   [`ScanCsv`](df_core::ScanCsv) leaf folds into it, so the first look at a
//!   file parses only the chunks its rows come from.
//! * **Schema-induction deferral accounting** (§5.1.1) — the optimizer marks which
//!   operators are type-agnostic so the engine can skip induction between them.
//! * **Scan pushdown** — a SELECTION, PROJECTION or LIMIT sitting directly on a
//!   [`ScanCsv`](df_core::ScanCsv) leaf folds *into* the leaf, so the parse loop
//!   only materialises referenced columns and can skip whole chunks whose statistics
//!   prove no row can match ([`df_core::chunk_may_match`]).
//! * **Pivot axis choice** (Figure 8) — choose between pivoting on the requested column
//!   or pivoting on the other axis and transposing the (much smaller) result.

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
    /// Operators identified as type-agnostic (schema induction can be skipped before
    /// them).
    pub induction_skippable: usize,
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

/// Which rewrite rules an optimization pass may apply. Tests toggle these: the
/// differential suites use [`OptimizerConfig::disabled`] as the unoptimised reference
/// plan, and the limit-pushdown suite switches `push_limits` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Enable `TRANSPOSE(TRANSPOSE(x)) → x`.
    pub eliminate_double_transpose: bool,
    /// Enable SELECTION fusion.
    pub fuse_selections: bool,
    /// Enable LIMIT push-down.
    pub push_limits: bool,
    /// Enable folding sargable SELECTION predicates into `ScanCsv` leaves.
    pub push_scan_predicates: bool,
    /// Enable folding by-label PROJECTIONs into `ScanCsv` leaves.
    pub push_scan_projections: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            eliminate_double_transpose: true,
            fuse_selections: true,
            push_limits: true,
            push_scan_predicates: true,
            push_scan_projections: true,
        }
    }
}

impl OptimizerConfig {
    /// A configuration with every rule disabled (the unoptimised reference plan).
    pub fn disabled() -> Self {
        OptimizerConfig {
            eliminate_double_transpose: false,
            fuse_selections: false,
            push_limits: false,
            push_scan_predicates: false,
            push_scan_projections: false,
        }
    }
}

/// Run the rewrite pipeline to fixpoint (bounded) and report what was done.
pub fn optimize(expr: &AlgebraExpr, config: OptimizerConfig) -> (AlgebraExpr, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut current = expr.clone();
    // Rules only ever shrink or reorder the tree, so a small bounded loop reaches a
    // fixpoint; the bound guards against pathological interactions.
    for _ in 0..8 {
        let mut changed = false;
        if config.eliminate_double_transpose {
            let (next, hits) = eliminate_double_transpose(&current);
            if hits > 0 {
                stats.transpose_pairs_eliminated += hits;
                current = next;
                changed = true;
            }
        }
        if config.fuse_selections {
            let (next, hits) = fuse_selections(&current);
            if hits > 0 {
                stats.selections_fused += hits;
                current = next;
                changed = true;
            }
        }
        if config.push_limits {
            let (next, hits) = push_limits(&current);
            if hits > 0 {
                stats.limits_pushed += hits;
                current = next;
                changed = true;
            }
        }
        if config.push_scan_predicates {
            let (next, hits) = push_scan_predicates(&current);
            if hits > 0 {
                stats.predicates_pushed += hits;
                current = next;
                changed = true;
            }
        }
        if config.push_scan_projections {
            let (next, hits) = push_scan_projections(&current);
            if hits > 0 {
                stats.projections_pushed += hits;
                current = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    stats.induction_skippable = count_induction_skippable(&current);
    (current, stats)
}

/// Rewrite children with `f`, preserving the operator at the root.
pub(crate) fn map_children(
    expr: &AlgebraExpr,
    f: &mut impl FnMut(&AlgebraExpr) -> AlgebraExpr,
) -> AlgebraExpr {
    let mut out = expr.clone();
    match &mut out {
        AlgebraExpr::Literal(_) | AlgebraExpr::Handle(_) | AlgebraExpr::ScanCsv(_) => {}
        AlgebraExpr::Selection { input, .. }
        | AlgebraExpr::Projection { input, .. }
        | AlgebraExpr::DropDuplicates { input }
        | AlgebraExpr::GroupBy { input, .. }
        | AlgebraExpr::Sort { input, .. }
        | AlgebraExpr::Rename { input, .. }
        | AlgebraExpr::Window { input, .. }
        | AlgebraExpr::Transpose { input }
        | AlgebraExpr::Map { input, .. }
        | AlgebraExpr::ToLabels { input, .. }
        | AlgebraExpr::FromLabels { input, .. }
        | AlgebraExpr::Limit { input, .. } => {
            **input = f(input);
        }
        AlgebraExpr::Union { left, right }
        | AlgebraExpr::Difference { left, right }
        | AlgebraExpr::CrossProduct { left, right }
        | AlgebraExpr::Join { left, right, .. } => {
            **left = f(left);
            **right = f(right);
        }
    }
    out
}

fn eliminate_double_transpose(expr: &AlgebraExpr) -> (AlgebraExpr, usize) {
    fn walk(expr: &AlgebraExpr, hits: &mut usize) -> AlgebraExpr {
        if let AlgebraExpr::Transpose { input } = expr {
            if let AlgebraExpr::Transpose { input: inner } = input.as_ref() {
                *hits += 1;
                return walk(inner, hits);
            }
        }
        map_children(expr, &mut |child| walk(child, hits))
    }
    let mut hits = 0;
    let out = walk(expr, &mut hits);
    (out, hits)
}

/// Fuse `σ_outer(σ_inner(x))` into `σ_{inner ∧ outer}(x)` — unless the outer predicate
/// reads row positions: it numbers the rows the inner selection *kept*, the fused
/// conjunction would number the rows of `x`. An inner positional predicate is fine
/// (both forms number the rows of `x`).
fn fuse_selections(expr: &AlgebraExpr) -> (AlgebraExpr, usize) {
    fn walk(expr: &AlgebraExpr, hits: &mut usize) -> AlgebraExpr {
        if let AlgebraExpr::Selection { input, predicate } = expr {
            if let AlgebraExpr::Selection {
                input: inner_input,
                predicate: inner_predicate,
            } = input.as_ref()
            {
                if !predicate.reads_position() {
                    *hits += 1;
                    // Inner predicate applies first, so it goes on the left of the AND.
                    let fused = AlgebraExpr::Selection {
                        input: inner_input.clone(),
                        predicate: Predicate::And(
                            Box::new(inner_predicate.clone()),
                            Box::new(predicate.clone()),
                        ),
                    };
                    return walk(&fused, hits);
                }
            }
        }
        map_children(expr, &mut |child| walk(child, hits))
    }
    let mut hits = 0;
    let out = walk(expr, &mut hits);
    (out, hits)
}

/// True when a prefix/suffix of the operator's output only needs the same prefix/suffix
/// of its input (so LIMIT can move below it).
fn limit_transparent(expr: &AlgebraExpr, from_end: bool) -> bool {
    match expr {
        AlgebraExpr::Map { func, .. } => func.preserves_arity(),
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

fn push_limits(expr: &AlgebraExpr) -> (AlgebraExpr, usize) {
    fn walk(expr: &AlgebraExpr, hits: &mut usize) -> AlgebraExpr {
        if let AlgebraExpr::Limit { input, k, from_end } = expr {
            // A LIMIT that reached a scan leaf folds into it: the scan evaluates its
            // predicate and projection first and the limit last, which is exactly
            // LIMIT above the leaf. A leaf that is already limited keeps the outer
            // LIMIT above it.
            if let AlgebraExpr::ScanCsv(scan) = input.as_ref() {
                if scan.limit.is_none() {
                    *hits += 1;
                    return AlgebraExpr::scan_csv(scan.with_limit(*k, *from_end));
                }
            }
            if limit_transparent(input, *from_end) {
                *hits += 1;
                // Swap: LIMIT(op(x)) → op(LIMIT(x)).
                let mut swapped = input.as_ref().clone();
                match &mut swapped {
                    AlgebraExpr::Map { input: inner, .. }
                    | AlgebraExpr::Projection { input: inner, .. }
                    | AlgebraExpr::Rename { input: inner, .. }
                    | AlgebraExpr::Window { input: inner, .. } => {
                        let limited = AlgebraExpr::Limit {
                            input: inner.clone(),
                            k: *k,
                            from_end: *from_end,
                        };
                        **inner = limited;
                    }
                    _ => unreachable!("limit_transparent covers only unary row-wise ops"),
                }
                return walk(&swapped, hits);
            }
        }
        map_children(expr, &mut |child| walk(child, hits))
    }
    let mut hits = 0;
    let out = walk(expr, &mut hits);
    (out, hits)
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
fn push_scan_predicates(expr: &AlgebraExpr) -> (AlgebraExpr, usize) {
    fn walk(expr: &AlgebraExpr, hits: &mut usize) -> AlgebraExpr {
        if let AlgebraExpr::Selection { input, predicate } = expr {
            if let AlgebraExpr::ScanCsv(scan) = input.as_ref() {
                if scan.predicate.is_none() && scan.limit.is_none() && predicate.scan_pushable() {
                    if let Some(cols) = predicate.referenced_columns() {
                        let survives_projection = match &scan.projection {
                            None => true,
                            Some(proj) => cols.iter().all(|c| proj.contains(c)),
                        };
                        if survives_projection {
                            *hits += 1;
                            return AlgebraExpr::scan_csv(scan.with_predicate(predicate.clone()));
                        }
                    }
                }
            }
        }
        map_children(expr, &mut |child| walk(child, hits))
    }
    let mut hits = 0;
    let out = walk(expr, &mut hits);
    (out, hits)
}

/// Fold a by-label PROJECTION sitting directly on a `ScanCsv` leaf into the leaf, so
/// the parse loop only splits, allocates, and encodes the referenced columns. The scan
/// still parses (but does not emit) any extra columns its own pushed predicate needs,
/// which keeps `PROJECT(SELECT(scan))` pipelines fully foldable.
fn push_scan_projections(expr: &AlgebraExpr) -> (AlgebraExpr, usize) {
    fn walk(expr: &AlgebraExpr, hits: &mut usize) -> AlgebraExpr {
        if let AlgebraExpr::Projection { input, columns } = expr {
            if let AlgebraExpr::ScanCsv(scan) = input.as_ref() {
                if scan.projection.is_none() {
                    if let ColumnSelector::ByLabels(labels) = columns {
                        *hits += 1;
                        return AlgebraExpr::scan_csv(scan.with_projection(labels.clone()));
                    }
                }
            }
        }
        map_children(expr, &mut |child| walk(child, hits))
    }
    let mut hits = 0;
    let out = walk(expr, &mut hits);
    (out, hits)
}

/// Count operators whose inputs never need schema induction (position-only selections,
/// arity-preserving maps with statically known output types, projections, renames,
/// limits, unions): paper §5.1.1's "rewrite rules to skip applying S".
fn count_induction_skippable(expr: &AlgebraExpr) -> usize {
    let own = match expr {
        AlgebraExpr::Selection { predicate, .. } => usize::from(predicate.is_position_only()),
        AlgebraExpr::Map { func, .. } => usize::from(
            func.static_output_domain().is_some() || matches!(func, MapFunc::FillNull(_)),
        ),
        AlgebraExpr::Projection { .. }
        | AlgebraExpr::Rename { .. }
        | AlgebraExpr::Limit { .. }
        | AlgebraExpr::Union { .. }
        | AlgebraExpr::Transpose { .. } => 1,
        _ => 0,
    };
    own + expr
        .children()
        .iter()
        .map(|c| count_induction_skippable(c))
        .sum::<usize>()
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (_, prefix_stats) = optimize(&prefix, OptimizerConfig::default());
        assert_eq!(prefix_stats.limits_pushed, 1);
        let suffix = AlgebraExpr::literal(frame())
            .window(ColumnSelector::All, WindowFunc::CumSum)
            .limit(2, true);
        let (optimized, suffix_stats) = optimize(&suffix, OptimizerConfig::default());
        assert_eq!(suffix_stats.limits_pushed, 0);
        assert!(execute_reference(&optimized)
            .unwrap()
            .same_data(&execute_reference(&suffix).unwrap()));
    }

    #[test]
    fn limit_does_not_push_below_selection_or_groupby() {
        let expr = AlgebraExpr::literal(frame())
            .select(Predicate::NotNull { column: cell("b") })
            .limit(1, false);
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
        assert_eq!(stats.limits_pushed, 0);
        assert!(execute_reference(&optimized)
            .unwrap()
            .same_data(&execute_reference(&expr).unwrap()));
    }

    #[test]
    fn disabled_config_applies_nothing() {
        let expr = AlgebraExpr::literal(frame()).transpose().transpose();
        let (optimized, stats) = optimize(&expr, OptimizerConfig::disabled());
        assert_eq!(stats.total(), 0);
        assert_eq!(optimized.transpose_count(), 2);
    }

    #[test]
    fn induction_skippable_counts_type_agnostic_operators() {
        let expr = AlgebraExpr::literal(frame())
            .select(Predicate::PositionRange { start: 0, end: 2 })
            .map(MapFunc::IsNullMask)
            .project(ColumnSelector::All);
        let (_, stats) = optimize(&expr, OptimizerConfig::default());
        assert_eq!(stats.induction_skippable, 3);
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
            let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        let (optimized, stats) = optimize(
            &scan().limit(3, true).limit(2, false),
            OptimizerConfig::default(),
        );
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
        let (optimized, stats) = optimize(&expr, OptimizerConfig::default());
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
        // With push_limits off the LIMIT node stays and the leaf stays unlimited.
        let config = OptimizerConfig {
            push_limits: false,
            ..OptimizerConfig::default()
        };
        let (optimized, stats) = optimize(&scan().limit(5, false), config);
        assert_eq!(stats.limits_pushed, 0);
        assert!(matches!(optimized, AlgebraExpr::Limit { .. }));
    }

    #[test]
    fn disabled_config_leaves_scans_bare() {
        let expr = scan()
            .select(gt_a(1))
            .project(ColumnSelector::ByLabels(vec![cell("a")]));
        let (optimized, stats) = optimize(&expr, OptimizerConfig::disabled());
        assert_eq!(stats.total(), 0);
        assert_eq!(optimized.operator_count(), 2);
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
