//! Integration tests for the Table 2 rewrite catalogue and the Table 3 capability
//! matrix: the pandas-style API must produce exactly the algebra operators the paper's
//! tables claim, and the engines' capability probes must reproduce the feature matrix.

use df_baseline::BaselineEngine;
use df_core::algebra::{AlgebraExpr, MapFunc};
use df_core::engine::{Capabilities, Engine, ReferenceEngine};
use df_engine::engine::ModinEngine;
use df_pandas::{table2_rewrites, PandasFrame, RewriteKind, Session};
use df_types::cell::cell;
use df_workloads::{random_frame, RandomFrameConfig};

fn sample_frame(session: &std::sync::Arc<Session>) -> PandasFrame {
    PandasFrame::from_dataframe(
        session,
        random_frame(&RandomFrameConfig {
            rows: 30,
            seed: 3,
            ..RandomFrameConfig::default()
        })
        .unwrap(),
    )
}

#[test]
fn table2_rewrites_build_the_claimed_algebra_operators() {
    let session = Session::modin();
    let frame = sample_frame(&session);
    for rewrite in table2_rewrites() {
        let RewriteKind::OneToOne { algebra_op } = rewrite.kind else {
            panic!("Table 2 rows are one-to-one");
        };
        let derived = match rewrite.pandas_op {
            "fillna" => frame.fillna(0),
            "isnull" => frame.isnull(),
            "transpose" => frame.transpose(),
            "set_index" => frame.set_index("cat_0"),
            "reset_index" => frame.reset_index("row_id"),
            other => panic!("unexpected Table 2 operator {other}"),
        };
        // The outermost operator of the built expression is exactly the algebra
        // operator Table 2 names (MAP, TRANSPOSE, TOLABELS, FROMLABELS).
        assert_eq!(
            derived.expr().name(),
            algebra_op,
            "pandas op {} should rewrite to {}",
            rewrite.pandas_op,
            algebra_op
        );
        // And it executes identically on every engine.
        let reference = ReferenceEngine.execute_collect(derived.expr()).unwrap();
        assert!(BaselineEngine::new()
            .execute_collect(derived.expr())
            .unwrap()
            .same_data(&reference));
        assert!(ModinEngine::new()
            .execute_collect(derived.expr())
            .unwrap()
            .same_data(&reference));
    }
}

#[test]
fn composite_rewrites_expand_into_multiple_operators() {
    let session = Session::modin();
    // pivot: GROUPBY + MAP (+ TOLABELS implied by keys_as_labels) and no transpose in
    // the direct plan; get_dummies: one MAP per encoded column over the base literal;
    // value_counts: GROUPBY + SORT.
    let sales = PandasFrame::from_dataframe(&session, df_workloads::figure5_narrow_table());
    let pivot = sales.pivot("Year", "Month", "Sales").unwrap();
    assert!(pivot.expr().operator_count() >= 2);
    assert_eq!(pivot.expr().name(), "MAP");
    let frame = sample_frame(&session);
    let dummies = frame.get_dummies(&["cat_0"]).unwrap();
    assert_eq!(dummies.expr().name(), "MAP");
    let counts = frame.value_counts("cat_0");
    assert_eq!(counts.expr().name(), "SORT");
    assert!(counts.expr().operator_count() >= 2);
}

#[test]
fn reindex_like_composition_from_the_paper_section_4_4() {
    // target.reindex_like(reference): FROMLABELS on both, JOIN on the label column,
    // project the target's columns, TOLABELS to restore the labels — and the result
    // rows follow the reference's order.
    let session = Session::modin();
    let target = PandasFrame::from_rows(
        &session,
        vec!["value"],
        vec![vec![cell(10)], vec![cell(20)], vec![cell(30)]],
    )
    .unwrap()
    .collect()
    .unwrap()
    .with_row_labels(vec!["a", "b", "c"])
    .unwrap();
    let reference_order = ["c", "a", "b"];
    let target = PandasFrame::from_dataframe(&session, target);
    let reference_frame = PandasFrame::from_rows(
        &session,
        vec!["other"],
        vec![vec![cell(1)], vec![cell(2)], vec![cell(3)]],
    )
    .unwrap()
    .collect()
    .unwrap()
    .with_row_labels(reference_order.to_vec())
    .unwrap();
    let reference_frame = PandasFrame::from_dataframe(&session, reference_frame);

    let reindexed = reference_frame
        .reset_index("key")
        .merge_on(
            &target.reset_index("key"),
            &["key"],
            df_core::algebra::JoinType::Left,
        )
        .select(&["key", "value"])
        .set_index("key")
        .collect()
        .unwrap();
    assert_eq!(reindexed.shape(), (3, 1));
    assert_eq!(
        reindexed.row_labels().display_strings(),
        vec!["c", "a", "b"]
    );
    assert_eq!(reindexed.cell(0, 0).unwrap(), &cell(30));
    assert_eq!(reindexed.cell(1, 0).unwrap(), &cell(10));
}

#[test]
fn table3_capability_matrix_matches_the_paper() {
    let modin = ModinEngine::new().capabilities();
    let baseline = BaselineEngine::new().capabilities();
    let relational = Capabilities::relational_like();

    // Modin and pandas rows: full dataframe feature set (Table 3, blue columns).
    for caps in [modin, baseline] {
        assert!(caps.ordered_model);
        assert!(caps.eager_execution);
        assert!(caps.row_col_equivalence);
        assert!(caps.lazy_schema);
        assert!(caps.relational_operators);
        assert!(caps.map && caps.window && caps.transpose);
        assert!(caps.to_labels && caps.from_labels);
    }
    // Modin additionally supports deferred execution; the baseline (pandas) does not.
    assert!(modin.lazy_execution);
    assert!(!baseline.lazy_execution);

    // Spark/Dask-like systems (red columns): no ordered model, no row/column
    // equivalence, no TRANSPOSE, no FROMLABELS.
    assert!(!relational.ordered_model);
    assert!(!relational.row_col_equivalence);
    assert!(!relational.transpose);
    assert!(!relational.from_labels);
    assert!(relational.relational_operators && relational.map && relational.window);

    // The capability probe rejects exactly the operators the matrix says are missing.
    let probe = AlgebraExpr::literal(
        random_frame(&RandomFrameConfig {
            rows: 4,
            ..RandomFrameConfig::default()
        })
        .unwrap(),
    );
    assert!(!relational.supports(&probe.clone().transpose()));
    assert!(!relational.supports(&probe.clone().from_labels("idx")));
    assert!(relational.supports(&probe.clone().map(MapFunc::IsNullMask)));
    assert!(modin.supports(&probe.transpose()));

    // The `lazy_execution` probe is backed by live behaviour, not a hard-coded
    // claim: a lazy MODIN session defers the whole statement chain to its
    // materialisation point and executes it as one plan.
    let lazy = Session::modin_with(
        df_engine::engine::ModinConfig::sequential(),
        df_engine::session::EvalMode::Lazy,
    );
    let deferred = sample_frame(&lazy).isnull().fillna(false);
    assert_eq!(
        lazy.stats().executions,
        0,
        "a lazy session must not execute on submit"
    );
    deferred.collect().unwrap();
    assert_eq!(lazy.stats().executions, 1);
    assert!(lazy.query().engine().capabilities().lazy_execution);
}

#[test]
fn every_table1_operator_executes_on_every_engine() {
    // Table 1 conformance at the integration level: one expression per operator, all
    // three engines, identical results.
    let df = random_frame(&RandomFrameConfig {
        rows: 25,
        seed: 11,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    let other = random_frame(&RandomFrameConfig {
        rows: 10,
        seed: 12,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    let base = AlgebraExpr::literal(df);
    let other = AlgebraExpr::literal(other);
    let expressions: Vec<AlgebraExpr> = vec![
        base.clone().select(df_core::algebra::Predicate::NotNull {
            column: cell("int_0"),
        }),
        base.clone()
            .project(df_core::algebra::ColumnSelector::ByLabels(vec![cell(
                "float_0",
            )])),
        base.clone().union(other.clone()),
        base.clone().difference(other.clone()),
        base.clone()
            .limit(5, false)
            .cross(other.clone().limit(3, false)),
        base.clone().join(
            other.clone(),
            df_core::algebra::JoinOn::Columns(vec![cell("cat_0")]),
            df_core::algebra::JoinType::Inner,
        ),
        base.clone().drop_duplicates(),
        base.clone().group_by(
            vec![cell("cat_0")],
            vec![df_core::algebra::Aggregation::count_rows()],
            false,
        ),
        base.clone()
            .sort(df_core::algebra::SortSpec::ascending(vec![cell("int_0")])),
        base.clone().rename(vec![(cell("int_0"), cell("renamed"))]),
        base.clone().window(
            df_core::algebra::ColumnSelector::ByLabels(vec![cell("float_0")]),
            df_core::algebra::WindowFunc::CumSum,
        ),
        base.clone().transpose(),
        base.clone().map(MapFunc::IsNullMask),
        base.clone().to_labels("cat_0"),
        base.from_labels("rank"),
    ];
    assert_eq!(
        expressions.len(),
        15,
        "14 operators + LIMIT helper via cross"
    );
    for expr in expressions {
        let reference = ReferenceEngine.execute_collect(&expr).unwrap();
        assert!(BaselineEngine::new()
            .execute_collect(&expr)
            .unwrap()
            .same_data(&reference));
        assert!(ModinEngine::new()
            .execute_collect(&expr)
            .unwrap()
            .same_data(&reference));
        // Every Cell in the result renders (guards against panics in Display paths).
        let _ = reference.display_with(3);
    }
}
