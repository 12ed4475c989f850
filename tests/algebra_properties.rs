//! Property-based tests of the algebraic laws the paper's data model implies:
//! transpose involution, TOLABELS/FROMLABELS round trips, order preservation of the
//! ordered set operators, selection monotonicity, sort stability and schema-induction
//! idempotence.

use proptest::prelude::*;

use df_core::algebra::{AlgebraExpr, CmpOp, MapFunc, Predicate, SortSpec};
use df_core::engine::{Engine, ReferenceEngine};
use df_core::ops;
use df_types::cell::{cell, Cell};
use df_workloads::{random_frame, RandomFrameConfig};

fn frame(rows: usize, seed: u64, null_fraction: f64) -> df_core::dataframe::DataFrame {
    random_frame(&RandomFrameConfig {
        rows,
        null_fraction,
        seed,
        ..RandomFrameConfig::default()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transpose_is_an_involution(rows in 0usize..60, seed in 0u64..5_000) {
        let df = frame(rows, seed, 0.1);
        let round_trip = ops::reshape::transpose(&ops::reshape::transpose(&df).unwrap()).unwrap();
        prop_assert!(round_trip.same_data(&df));
    }

    #[test]
    fn transpose_swaps_shape_and_labels(rows in 0usize..60, seed in 0u64..5_000) {
        let df = frame(rows, seed, 0.1);
        let transposed = ops::reshape::transpose(&df).unwrap();
        prop_assert_eq!(transposed.shape(), (df.n_cols(), df.n_rows()));
        prop_assert_eq!(transposed.row_labels(), df.col_labels());
        prop_assert_eq!(transposed.col_labels(), df.row_labels());
    }

    #[test]
    fn tolabels_then_fromlabels_round_trips(rows in 1usize..60, seed in 0u64..5_000) {
        // Use a null-free frame: labels may be null in general, but the round trip is
        // only exact when the promoted column itself is preserved verbatim.
        let df = frame(rows, seed, 0.0);
        let promoted = ops::reshape::to_labels(&df, &cell("int_0")).unwrap();
        prop_assert_eq!(promoted.n_cols(), df.n_cols() - 1);
        let restored = ops::reshape::from_labels(&promoted, &cell("int_0")).unwrap();
        prop_assert!(restored.same_data(&df));
    }

    #[test]
    fn union_is_ordered_concatenation(rows_a in 0usize..40, rows_b in 0usize..40, seed in 0u64..5_000) {
        let a = frame(rows_a, seed, 0.1);
        let b = frame(rows_b, seed.wrapping_add(1), 0.1);
        let union = ops::setops::union(&a, &b).unwrap();
        prop_assert_eq!(union.n_rows(), a.n_rows() + b.n_rows());
        if a.n_rows() > 0 {
            prop_assert!(union.head(a.n_rows()).same_data(&a.clone().with_row_labels(
                union.head(a.n_rows()).row_labels().clone()).unwrap()));
        }
        // The left prefix is bit-identical including labels.
        prop_assert!(union.slice_rows(0, a.n_rows()).same_data(&a));
    }

    #[test]
    fn selection_returns_a_subsequence(rows in 0usize..80, seed in 0u64..5_000, threshold in -50i64..50) {
        let df = frame(rows, seed, 0.2);
        let selected = ops::rowwise::selection(
            &df,
            &Predicate::ColCmp {
                column: cell("int_0"),
                op: CmpOp::Gt,
                value: Cell::Int(threshold),
            },
        )
        .unwrap();
        prop_assert!(selected.n_rows() <= df.n_rows());
        // Every selected row label appears in the original, in the same relative order.
        let original: Vec<_> = df.row_labels().as_slice().to_vec();
        let mut cursor = 0usize;
        for label in selected.row_labels().as_slice() {
            let position = original[cursor..]
                .iter()
                .position(|l| l == label)
                .expect("selected label must come from the input, in order");
            cursor += position + 1;
        }
        // And selection is idempotent under the same predicate.
        let twice = ops::rowwise::selection(
            &selected,
            &Predicate::ColCmp {
                column: cell("int_0"),
                op: CmpOp::Gt,
                value: Cell::Int(threshold),
            },
        )
        .unwrap();
        prop_assert!(twice.same_data(&selected));
    }

    #[test]
    fn sort_produces_ordered_permutation(rows in 0usize..80, seed in 0u64..5_000) {
        let df = frame(rows, seed, 0.1);
        let sorted = ops::group::sort(&df, &SortSpec::ascending(vec![cell("float_0")])).unwrap();
        prop_assert_eq!(sorted.shape(), df.shape());
        let j = sorted.col_position(&cell("float_0")).unwrap();
        let cells = sorted.columns()[j].cells();
        for window in cells.windows(2) {
            prop_assert!(window[0].total_cmp(&window[1]) != std::cmp::Ordering::Greater);
        }
        // Sorting is a permutation: the multiset of row labels is preserved.
        let mut original: Vec<String> = df.row_labels().display_strings();
        let mut permuted: Vec<String> = sorted.row_labels().display_strings();
        original.sort();
        permuted.sort();
        prop_assert_eq!(original, permuted);
    }

    #[test]
    fn dedup_is_idempotent_and_shrinking(rows in 0usize..60, seed in 0u64..5_000) {
        let df = frame(rows, seed, 0.3);
        let once = ops::group::drop_duplicates(&df).unwrap();
        let twice = ops::group::drop_duplicates(&once).unwrap();
        prop_assert!(once.n_rows() <= df.n_rows());
        prop_assert!(twice.same_data(&once));
    }

    #[test]
    fn fillna_leaves_no_nulls_and_isnull_after_it_is_all_false(rows in 0usize..60, seed in 0u64..5_000) {
        let df = frame(rows, seed, 0.5);
        let filled = ops::rowwise::map(&df, &MapFunc::FillNull(cell(0))).unwrap();
        let nulls: usize = filled
            .columns()
            .iter()
            .map(|c| c.len() - c.count_non_null())
            .sum();
        prop_assert_eq!(nulls, 0);
        let mask = ops::rowwise::map(&filled, &MapFunc::IsNullMask).unwrap();
        prop_assert!(mask
            .columns()
            .iter()
            .flat_map(|c| c.cells())
            .all(|c| c == &cell(false)));
    }

    #[test]
    fn limit_is_a_prefix_of_the_full_result(rows in 0usize..80, seed in 0u64..5_000, k in 0usize..30) {
        let df = frame(rows, seed, 0.1);
        let expr = AlgebraExpr::literal(df.clone()).map(MapFunc::IsNullMask);
        let full = ReferenceEngine.execute_collect(&expr).unwrap();
        let limited = ReferenceEngine.execute_collect(&expr.limit(k, false)).unwrap();
        prop_assert!(limited.same_data(&full.head(k)));
    }

    #[test]
    fn schema_induction_is_idempotent(rows in 0usize..60, seed in 0u64..5_000) {
        let mut df = frame(rows, seed, 0.2);
        let first = df.resolve_schema();
        let second = df.resolve_schema();
        prop_assert_eq!(first, second);
    }
}

#[test]
fn double_transpose_optimisation_preserves_observable_results() {
    // The optimizer's transpose cancellation plus the engine's metadata transpose must
    // be invisible to the user: same data, same labels, and after induction the same
    // schema (the paper's "Python can recover the original D_n after two transposes").
    let df = frame(40, 7, 0.1);
    let expr = AlgebraExpr::literal(df.clone()).transpose().transpose();
    let engine = df_engine::engine::ModinEngine::with_config(
        df_engine::engine::ModinConfig::sequential().with_partition_size(8, 2),
    );
    let mut out = engine.execute_collect(&expr).unwrap();
    assert!(out.same_data(&df));
    let expected = &df;
    assert_eq!(out.resolve_schema(), expected.clone().resolve_schema());
}
