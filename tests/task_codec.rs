//! Byte-level properties of what crosses the process backend's pipe besides block
//! frames: the `BandTask` descriptor a worker decodes and the `DfError` record it
//! answers with.
//!
//! * **Decode is total**: one encoded sample per `BandTask` variant, every prefix of
//!   each, every single-byte mutation of each, and arbitrary bytes behind a valid
//!   head decode to a task or to `SpillCorruption` — never a panic.
//! * **Run is total**: every task that does decode, run on a small band and on no
//!   input, returns frames or a typed error — never a panic.
//! * **Error records**: `DfError::decode_wire` turns any string into an error that
//!   then round-trips unchanged.
//! * **Plan keys**: the same value encoders write `PlanKey`, the result cache's
//!   key. Plans that differ only in one cell's type or bits (`1`, `1.0` and `"1"`;
//!   `0.0` and `-0.0`; two NaN payloads) get different keys, and a plan rebuilt from
//!   the same leaves gets an equal one.
//!
//! A failing case prints the descriptor bytes as hex, so it replays with
//! `BandTask::decode(&hex_bytes)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use proptest::prelude::*;

use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, MapFunc, Predicate, SortSpec,
};
use df_core::dataframe::DataFrame;
use df_core::{ScanCsv, ScanOptions};
use df_engine::backend::BandTask;
use df_engine::shuffle::ShuffleKey;
use df_engine::PlanKey;
use df_storage::csv::{CsvChunk, CsvOptions};
use df_types::cell::{cell, Cell};
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// xorshift64*: the byte source for "arbitrary bytes" (the vendored proptest only
/// draws numbers).
struct Bytes(u64);

impl Bytes {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn take(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 32) as u8).collect()
    }
}

const CSV: &str = "a,b\n1,2.5\n2,\n3,7.25\n";

/// A small CSV file the `CsvChunk` sample points at, so mutated chunk plans reach
/// the parser instead of stopping at a missing file.
fn csv_file() -> PathBuf {
    let path = std::env::temp_dir().join(format!("task_codec_{}.csv", std::process::id()));
    if !path.exists() {
        std::fs::write(&path, CSV).unwrap();
    }
    path
}

/// One encodable task per `BandTask` variant, parameterised as the engine builds them.
fn samples() -> Vec<BandTask> {
    let header = "a,b\n".len() as u64;
    vec![
        BandTask::Selection(Predicate::And(
            Box::new(Predicate::ColCmp {
                column: cell("a"),
                op: CmpOp::Gt,
                value: cell(1.5),
            }),
            Box::new(Predicate::Not(Box::new(Predicate::Or(
                Box::new(Predicate::IsNull { column: cell("b") }),
                Box::new(Predicate::PositionRange { start: 1, end: 3 }),
            )))),
        )),
        BandTask::Projection(ColumnSelector::ByPositions(vec![1, 0])),
        BandTask::Rename(vec![(cell("a"), cell("x"))]),
        BandTask::Map(MapFunc::Cast(vec![(cell("b"), Domain::Int)])),
        BandTask::GroupPartial {
            keys: vec![cell("k")],
            aggs: vec![
                Aggregation::count_rows(),
                Aggregation::of("v", AggFunc::Sum).with_alias("total"),
            ],
        },
        BandTask::HashSplit {
            key: ShuffleKey::Positions(vec![0, 2]),
            parts: 3,
        },
        BandTask::Concat,
        BandTask::SortBand(SortSpec {
            by: vec![cell("a"), cell("b")],
            ascending: vec![true, false],
            stable: true,
        }),
        BandTask::CsvChunk {
            path: csv_file().to_string_lossy().into_owned(),
            options: CsvOptions::default(),
            header: Some(vec!["a".into(), "b".into()]),
            n_cols: 2,
            total_rows: 3,
            total_bytes: CSV.len() as u64,
            chunk: CsvChunk {
                start_byte: header,
                end_byte: CSV.len() as u64,
                rows: 3,
                start_row: 0,
            },
        },
        BandTask::ApplyDomains(vec![Domain::Str, Domain::Int, Domain::Float, Domain::Int]),
    ]
}

fn encoded_samples() -> Vec<Vec<u8>> {
    samples()
        .iter()
        .map(|task| task.encode().expect("samples carry no closures"))
        .collect()
}

fn band() -> DataFrame {
    DataFrame::from_columns(
        vec!["k", "a", "b", "v"],
        vec![
            vec![cell("x"), cell("y"), cell("x"), Cell::Null],
            vec![cell(3), cell(1), Cell::Null, cell(2)],
            vec![cell(0.5), Cell::Null, cell(-0.0), cell(f64::NAN)],
            vec![cell(10), cell(20), cell(30), cell(40)],
        ],
    )
    .unwrap()
}

/// Decode `raw`; a task that decodes must run without panicking on a small band
/// and on no input. `Err` describes the first violation.
fn check(raw: &[u8]) -> Result<(), String> {
    let task = match catch_unwind(|| BandTask::decode(raw)) {
        Err(_) => return Err(format!("decode panicked on {}", hex(raw))),
        Ok(Err(DfError::SpillCorruption { .. })) => return Ok(()),
        Ok(Err(other)) => return Err(format!("decode gave {other:?} for {}", hex(raw))),
        Ok(Ok(task)) => task,
    };
    for inputs in [vec![band()], Vec::new()] {
        let ran: std::thread::Result<DfResult<Vec<DataFrame>>> =
            catch_unwind(AssertUnwindSafe(|| task.run(inputs)));
        if ran.is_err() {
            return Err(format!(
                "{task:?} panicked when run; descriptor {}",
                hex(raw)
            ));
        }
    }
    Ok(())
}

#[test]
fn every_sample_decodes_and_runs() {
    for raw in encoded_samples() {
        assert!(
            BandTask::decode(&raw).is_ok(),
            "sample {} must decode",
            hex(&raw)
        );
        check(&raw).unwrap();
    }
}

#[test]
fn pinned_malformed_descriptors_are_corruption() {
    let split = |parts| BandTask::HashSplit {
        key: ShuffleKey::RowLabels,
        parts,
    };
    let chunk =
        |n_cols, header: Option<Vec<String>>, start_byte, end_byte, rows| BandTask::CsvChunk {
            path: csv_file().to_string_lossy().into_owned(),
            options: CsvOptions::default(),
            header,
            n_cols,
            total_rows: 3,
            total_bytes: CSV.len() as u64,
            chunk: CsvChunk {
                start_byte,
                end_byte,
                rows,
                start_row: 1,
            },
        };
    let end = CSV.len() as u64;
    let cases = [
        // Zero buckets: the split would divide by zero.
        ("zero split buckets", split(0)),
        ("more split buckets than any executor", split(usize::MAX)),
        ("chunk ends before it starts", chunk(2, None, 9, 4, 1)),
        ("chunk past the planned file", chunk(2, None, 4, end + 1, 1)),
        ("rows past the plan", chunk(2, None, 4, end, 3)),
        (
            "arity disagrees with the header",
            chunk(3, Some(vec!["a".into()]), 4, end, 2),
        ),
        (
            "headerless arity wider than the chunk",
            chunk(1 << 40, None, 4, end, 2),
        ),
    ];
    for (what, task) in cases {
        let raw = task.encode().unwrap();
        match BandTask::decode(&raw) {
            Err(DfError::SpillCorruption { .. }) => {}
            other => panic!("{what}: expected corruption, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prefixes_and_mutations_of_a_sample_decode_or_are_corruption(
        variant in 0usize..10,
        flip in 1u8..=255,
    ) {
        let bytes = &encoded_samples()[variant];
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(
                matches!(BandTask::decode(prefix), Err(DfError::SpillCorruption { .. })),
                "prefix {cut} of {} is not corruption", hex(bytes)
            );
        }
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= flip;
            if let Err(violation) = check(&mutated) {
                prop_assert!(false, "byte {at} ^ {flip:#04x}: {violation}");
            }
        }
    }

    #[test]
    fn arbitrary_bytes_behind_a_valid_head_decode_or_are_corruption(
        variant in 0usize..10,
        head in 0usize..64,
        len in 0usize..200,
        seed in 1u64..u64::MAX,
    ) {
        // A valid head steers the random tail into the variant's field decoders.
        let sample = &encoded_samples()[variant];
        let mut bytes = sample[..head.min(sample.len())].to_vec();
        bytes.extend(Bytes(seed).take(len));
        if let Err(violation) = check(&bytes) {
            prop_assert!(false, "{violation}");
        }
    }

    #[test]
    fn arbitrary_error_records_decode_to_an_error_that_round_trips(
        tag in 0usize..19,
        len in 0usize..64,
        seed in 1u64..u64::MAX,
    ) {
        let records: Vec<String> = [
            DfError::ColumnNotFound("c".into()),
            DfError::RowNotFound("r".into()),
            DfError::IndexOutOfBounds { axis: df_types::error::Axis::Label, index: 1, len: 0 },
            DfError::shape("a", "b"),
            DfError::type_mismatch("a", "b"),
            DfError::ParseError { domain: "int".into(), value: "x".into() },
            DfError::Unsupported("u".into()),
            DfError::ResourceExhausted("r".into()),
            DfError::EmptyInput("e".into()),
            DfError::DuplicateLabel("d".into()),
            DfError::Io("io".into()),
            DfError::spill_io("spill.read", "d", true),
            DfError::spill_corruption("spill.read", "d"),
            DfError::WorkerPanic("p".into()),
            DfError::worker_lost(1, "d"),
            DfError::Cancelled("c".into()),
            DfError::Admission("a".into()),
            DfError::Internal("i".into()),
            DfError::Internal(String::new()),
        ]
        .iter()
        .map(DfError::encode_wire)
        .collect();
        // A real record's tag, then random fields: separators, escapes and non-UTF-8
        // bytes (lossily decoded) included.
        let tag_end = records[tag].find('\u{1f}').unwrap_or(records[tag].len());
        let tail: Vec<u8> = Bytes(seed)
            .take(len)
            .into_iter()
            .map(|b| match b % 5 {
                0 => 0x1f,
                1 => b'\\',
                _ => b,
            })
            .collect();
        let raw = format!("{}{}", &records[tag][..tag_end], String::from_utf8_lossy(&tail));
        let decoded = DfError::decode_wire(&raw);
        prop_assert_eq!(DfError::decode_wire(&decoded.encode_wire()), decoded);
    }
}

/// Cells that print alike but differ in type or bits: a plan key must tell every
/// pair apart.
fn look_alikes() -> Vec<Cell> {
    vec![
        Cell::Int(1),
        Cell::Float(1.0),
        Cell::Str("1".into()),
        Cell::Bool(true),
        Cell::Str("true".into()),
        Cell::Int(0),
        Cell::Float(0.0),
        Cell::Float(-0.0),
        Cell::Str("0".into()),
        Cell::Float(f64::NAN),
        Cell::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Cell::Str("NaN".into()),
        Cell::Null,
        Cell::Str(String::new()),
        Cell::List(vec![Cell::Int(1)]),
        Cell::List(vec![Cell::Str("1".into())]),
    ]
}

/// A plan over `base` that carries `value` in the place `place` names: a predicate
/// constant, a fill value, a rename target, a group key, a sort column, a one-hot
/// category, a projected label, a new label column, or a predicate pushed into a
/// scan leaf.
fn plan_carrying(base: &AlgebraExpr, place: usize, value: Cell) -> AlgebraExpr {
    let base = base.clone();
    let eq = |value| Predicate::ColCmp {
        column: cell("a"),
        op: CmpOp::Eq,
        value,
    };
    match place {
        0 => base.select(eq(value)),
        1 => base.map(MapFunc::FillNull(value)),
        2 => base.rename(vec![(cell("a"), value)]),
        3 => base.group_by(vec![value], vec![Aggregation::count_rows()], false),
        4 => base.sort(SortSpec::ascending(vec![value])),
        5 => base.map(MapFunc::OneHot {
            column: cell("k"),
            categories: vec![cell("x"), value],
        }),
        6 => base.project(ColumnSelector::ByLabels(vec![value])),
        7 => base.from_labels(value),
        _ => AlgebraExpr::scan_csv(
            ScanCsv::new("t.csv", ScanOptions::default(), "t.csv@1").with_predicate(eq(value)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plans_differing_in_one_cells_type_or_bits_get_different_keys(
        place in 0usize..9,
        i in 0usize..16,
        j in 0usize..16,
    ) {
        let base = AlgebraExpr::literal(band());
        let cells = look_alikes();
        let left = PlanKey::of(&plan_carrying(&base, place, cells[i].clone()));
        // Rebuilt from the same leaves: equal exactly when the cell is the same one.
        let right = PlanKey::of(&plan_carrying(&base, place, cells[j].clone()));
        prop_assert!(
            (left == right) == (i == j),
            "place {} cells {:?} / {:?}", place, cells[i], cells[j]
        );
    }
}
