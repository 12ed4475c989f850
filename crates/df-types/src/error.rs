//! Shared error type for the workspace.
//!
//! Every fallible operation in the data model, the algebra, the engines and the pandas
//! API layer returns [`DfResult`]. The variants follow the failure modes the paper calls
//! out: missing labels, shape mismatches, type mismatches discovered after schema
//! induction, unsupported operations (the Table 3 capability matrix), and resource
//! exhaustion (used by the baseline to model pandas failing to transpose frames beyond
//! ~6 GB, paper §3.2).

use std::fmt;

/// Convenience alias used across all crates in the workspace.
pub type DfResult<T> = Result<T, DfError>;

/// The axis a [`DfError::IndexOutOfBounds`] position indexes. Raising sites name it
/// through this type and the wire codec decodes through `Axis::ALL`, so an error
/// that crosses a process boundary keeps the axis it was raised with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// A row of a frame.
    Row,
    /// A column of a frame.
    Column,
    /// A row band of a partition grid.
    RowBand,
    /// A position in a label vector.
    Label,
}

impl Axis {
    /// Every axis: the decoder's table.
    pub(crate) const ALL: [Axis; 4] = [Axis::Row, Axis::Column, Axis::RowBand, Axis::Label];

    /// The name `Display` prints and the wire codec carries.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Axis::Row => "row",
            Axis::Column => "column",
            Axis::RowBand => "row band",
            Axis::Label => "label",
        }
    }
}

/// Error raised by dataframe operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfError {
    /// A referenced column label does not exist.
    ColumnNotFound(String),
    /// A referenced row label does not exist.
    RowNotFound(String),
    /// A positional reference is out of bounds: `(axis, index, len)`.
    IndexOutOfBounds {
        /// Which axis the position indexes.
        axis: Axis,
        /// The requested position.
        index: usize,
        /// The axis length.
        len: usize,
    },
    /// Two dataframes (or a dataframe and a value vector) have incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A value could not be interpreted in the required domain.
    TypeMismatch {
        /// The domain the operation required.
        expected: String,
        /// The offending value, rendered as a string.
        found: String,
    },
    /// A raw string could not be parsed by the domain's parsing function `p_i`.
    ParseError {
        /// Target domain name.
        domain: String,
        /// The raw input.
        value: String,
    },
    /// The operation is valid in the dataframe algebra but not supported by this engine
    /// (the dataframe-like systems of Table 3 reject several operators).
    Unsupported(String),
    /// The engine ran out of its configured resources. The baseline uses this to model
    /// pandas crashing / not completing (paper §3.2: "pandas is unable to run transpose
    /// beyond 6 GB").
    ResourceExhausted(String),
    /// An aggregation or window function was applied to an empty group or frame where
    /// it has no defined result.
    EmptyInput(String),
    /// Duplicate labels were found where unique labels are required.
    DuplicateLabel(String),
    /// An I/O failure from the storage layer (CSV ingest, spill files).
    Io(String),
    /// An I/O failure at a named spill/ingest site. `transient` marks faults worth
    /// retrying (interrupted reads, injected `io_transient` failpoints); permanent
    /// faults (disk full, missing file) surface after the first attempt.
    SpillIo {
        /// The failpoint-style site name, e.g. `"spill.read"`.
        site: String,
        /// Human-readable description of the underlying fault.
        detail: String,
        /// Whether the retry policy should re-attempt the operation.
        transient: bool,
    },
    /// A spill block failed its integrity check on load-back: bad magic, truncated
    /// or malformed payload, or an FNV-1a checksum mismatch. The block is quarantined
    /// and, when lineage allows, recomputed from the logical plan.
    SpillCorruption {
        /// The failpoint-style site name, e.g. `"spill.read"`.
        site: String,
        /// What exactly failed to verify.
        detail: String,
    },
    /// A worker thread panicked inside the parallel executor. The panic was caught
    /// at the task boundary — sibling tasks are cancelled cooperatively and no lock
    /// is poisoned — and its payload is carried here.
    WorkerPanic(String),
    /// A worker *process* died or its pipe closed mid-exchange (the process-parallel
    /// backend's analogue of [`DfError::WorkerPanic`]). The pool kills and respawns
    /// the worker; tasks are pure, so the exchange is retried once before this
    /// surfaces — lost workers never hang a statement.
    WorkerLost {
        /// The worker's pool slot.
        worker: usize,
        /// What the parent observed (EOF, broken pipe, unexpected exit status).
        detail: String,
    },
    /// The statement was cancelled cooperatively (session timeout/cancel, or
    /// fail-fast after a sibling task error).
    Cancelled(String),
    /// The multi-tenant service refused to admit the statement: the bounded run
    /// queue was full, or the service is draining for shutdown. Distinct from
    /// [`DfError::Cancelled`] (which a queued statement gets when its queue wait
    /// times out) so clients can tell "retry later / back off" from "your
    /// statement was started and then stopped".
    Admission(String),
    /// Internal invariant violation; indicates a bug rather than user error.
    Internal(String),
}

impl DfError {
    /// Shorthand constructor for [`DfError::ColumnNotFound`].
    pub fn column_not_found(label: impl fmt::Display) -> Self {
        DfError::ColumnNotFound(label.to_string())
    }

    /// Shorthand constructor for [`DfError::RowNotFound`].
    pub(crate) fn row_not_found(label: impl fmt::Display) -> Self {
        DfError::RowNotFound(label.to_string())
    }

    /// Shorthand constructor for [`DfError::Unsupported`].
    pub fn unsupported(msg: impl Into<String>) -> Self {
        DfError::Unsupported(msg.into())
    }

    /// Shorthand constructor for [`DfError::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        DfError::Internal(msg.into())
    }

    /// Shorthand constructor for [`DfError::ShapeMismatch`].
    pub fn shape(expected: impl Into<String>, found: impl Into<String>) -> Self {
        DfError::ShapeMismatch {
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Shorthand constructor for [`DfError::TypeMismatch`].
    pub fn type_mismatch(expected: impl Into<String>, found: impl fmt::Display) -> Self {
        DfError::TypeMismatch {
            expected: expected.into(),
            found: found.to_string(),
        }
    }

    /// Shorthand constructor for [`DfError::SpillIo`].
    pub fn spill_io(site: impl Into<String>, detail: impl Into<String>, transient: bool) -> Self {
        DfError::SpillIo {
            site: site.into(),
            detail: detail.into(),
            transient,
        }
    }

    /// Shorthand constructor for [`DfError::SpillCorruption`].
    pub fn spill_corruption(site: impl Into<String>, detail: impl Into<String>) -> Self {
        DfError::SpillCorruption {
            site: site.into(),
            detail: detail.into(),
        }
    }

    /// True when the error models a capacity failure rather than a semantic one. The
    /// figure-2 harness uses this to record "did not finish" points for the baseline.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, DfError::ResourceExhausted(_))
    }

    /// True for faults the retry policy should re-attempt (transient I/O only —
    /// corruption and permanent I/O failures are never retried in place).
    pub(crate) fn is_transient(&self) -> bool {
        matches!(
            self,
            DfError::SpillIo {
                transient: true,
                ..
            }
        )
    }

    /// True when a spill block failed its integrity check — the trigger for
    /// quarantine-and-recompute-from-lineage recovery.
    pub fn is_spill_corruption(&self) -> bool {
        matches!(self, DfError::SpillCorruption { .. })
    }

    /// Shorthand constructor for [`DfError::WorkerLost`].
    pub fn worker_lost(worker: usize, detail: impl Into<String>) -> Self {
        DfError::WorkerLost {
            worker,
            detail: detail.into(),
        }
    }

    /// True when the error is a cooperative cancellation, not a real failure.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, DfError::Cancelled(_))
    }

    /// True when the service turned the statement away at the door (queue full
    /// or draining) — nothing executed, so retrying after backoff is safe.
    pub fn is_admission(&self) -> bool {
        matches!(self, DfError::Admission(_))
    }
}

impl fmt::Display for DfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfError::ColumnNotFound(l) => write!(f, "column label not found: {l:?}"),
            DfError::RowNotFound(l) => write!(f, "row label not found: {l:?}"),
            DfError::IndexOutOfBounds { axis, index, len } => {
                let axis = axis.name();
                write!(f, "{axis} index {index} out of bounds for length {len}")
            }
            DfError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            DfError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DfError::ParseError { domain, value } => {
                write!(f, "cannot parse {value:?} as {domain}")
            }
            DfError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            DfError::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
            DfError::EmptyInput(msg) => write!(f, "empty input: {msg}"),
            DfError::DuplicateLabel(l) => write!(f, "duplicate label: {l}"),
            DfError::Io(msg) => write!(f, "i/o error: {msg}"),
            DfError::SpillIo {
                site,
                detail,
                transient,
            } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "spill i/o error ({kind}) at {site}: {detail}")
            }
            DfError::SpillCorruption { site, detail } => {
                write!(f, "spill corruption detected at {site}: {detail}")
            }
            DfError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            DfError::WorkerLost { worker, detail } => {
                write!(f, "worker {worker} lost: {detail}")
            }
            DfError::Cancelled(what) => write!(f, "cancelled: {what}"),
            DfError::Admission(why) => write!(f, "admission refused: {why}"),
            DfError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for DfError {}

impl From<std::io::Error> for DfError {
    fn from(err: std::io::Error) -> Self {
        DfError::Io(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------
//
// The process-parallel executor backend ships a failed task's error back to the
// driver over its pipe protocol. The encoding is a flat record: a stable tag
// followed by the variant's fields, joined by the unit separator, with embedded
// separators and backslashes escaped. Every variant round-trips; decoding never
// fails — an unrecognised or malformed record folds into [`DfError::Internal`]
// carrying the raw text, so a protocol-version skew degrades the message, not
// the typed-error contract.

/// Joins the fields of a wire-encoded error.
const WIRE_SEP: char = '\u{1f}';

fn wire_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            WIRE_SEP => out.push_str("\\u"),
            c => out.push(c),
        }
    }
    out
}

fn wire_unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('u') => out.push(WIRE_SEP),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

impl DfError {
    /// Encode this error as a single wire record (see the module-level wire-codec
    /// notes). The inverse of [`DfError::decode_wire`].
    pub fn encode_wire(&self) -> String {
        let record = |tag: &str, fields: &[&str]| {
            let mut out = String::from(tag);
            for field in fields {
                out.push(WIRE_SEP);
                out.push_str(&wire_escape(field));
            }
            out
        };
        match self {
            DfError::ColumnNotFound(l) => record("column-not-found", &[l]),
            DfError::RowNotFound(l) => record("row-not-found", &[l]),
            DfError::IndexOutOfBounds { axis, index, len } => record(
                "index-out-of-bounds",
                &[axis.name(), &index.to_string(), &len.to_string()],
            ),
            DfError::ShapeMismatch { expected, found } => {
                record("shape-mismatch", &[expected, found])
            }
            DfError::TypeMismatch { expected, found } => {
                record("type-mismatch", &[expected, found])
            }
            DfError::ParseError { domain, value } => record("parse-error", &[domain, value]),
            DfError::Unsupported(m) => record("unsupported", &[m]),
            DfError::ResourceExhausted(m) => record("resource-exhausted", &[m]),
            DfError::EmptyInput(m) => record("empty-input", &[m]),
            DfError::DuplicateLabel(m) => record("duplicate-label", &[m]),
            DfError::Io(m) => record("io", &[m]),
            DfError::SpillIo {
                site,
                detail,
                transient,
            } => record(
                "spill-io",
                &[site, detail, if *transient { "1" } else { "0" }],
            ),
            DfError::SpillCorruption { site, detail } => {
                record("spill-corruption", &[site, detail])
            }
            DfError::WorkerPanic(m) => record("worker-panic", &[m]),
            DfError::WorkerLost { worker, detail } => {
                record("worker-lost", &[&worker.to_string(), detail])
            }
            DfError::Cancelled(m) => record("cancelled", &[m]),
            DfError::Admission(m) => record("admission", &[m]),
            DfError::Internal(m) => record("internal", &[m]),
        }
    }

    /// Decode a wire record produced by [`DfError::encode_wire`]. Never fails: an
    /// unrecognised tag or a malformed record becomes [`DfError::Internal`] with the
    /// raw text, so the receiver always gets *an* error, worst case a less specific
    /// one.
    pub fn decode_wire(raw: &str) -> DfError {
        let mut parts = raw.split(WIRE_SEP);
        let tag = parts.next().unwrap_or("");
        let fields: Vec<String> = parts.map(wire_unescape).collect();
        let field = |i: usize| fields.get(i).cloned().unwrap_or_default();
        let garbled = || DfError::Internal(format!("unrecognised wire error: {raw:?}"));
        match tag {
            "column-not-found" => DfError::ColumnNotFound(field(0)),
            "row-not-found" => DfError::RowNotFound(field(0)),
            "index-out-of-bounds" => {
                let axis = Axis::ALL.into_iter().find(|a| a.name() == field(0));
                match (axis, field(1).parse(), field(2).parse()) {
                    (Some(axis), Ok(index), Ok(len)) => {
                        DfError::IndexOutOfBounds { axis, index, len }
                    }
                    _ => garbled(),
                }
            }
            "shape-mismatch" => DfError::ShapeMismatch {
                expected: field(0),
                found: field(1),
            },
            "type-mismatch" => DfError::TypeMismatch {
                expected: field(0),
                found: field(1),
            },
            "parse-error" => DfError::ParseError {
                domain: field(0),
                value: field(1),
            },
            "unsupported" => DfError::Unsupported(field(0)),
            "resource-exhausted" => DfError::ResourceExhausted(field(0)),
            "empty-input" => DfError::EmptyInput(field(0)),
            "duplicate-label" => DfError::DuplicateLabel(field(0)),
            "io" => DfError::Io(field(0)),
            "spill-io" => DfError::SpillIo {
                site: field(0),
                detail: field(1),
                transient: field(2) == "1",
            },
            "spill-corruption" => DfError::SpillCorruption {
                site: field(0),
                detail: field(1),
            },
            "worker-panic" => DfError::WorkerPanic(field(0)),
            "worker-lost" => match field(0).parse() {
                Ok(worker) => DfError::WorkerLost {
                    worker,
                    detail: field(1),
                },
                Err(_) => garbled(),
            },
            "cancelled" => DfError::Cancelled(field(0)),
            "admission" => DfError::Admission(field(0)),
            "internal" => DfError::Internal(field(0)),
            _ => garbled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codec_round_trips_every_variant() {
        let mut errors = vec![
            DfError::ColumnNotFound("price".into()),
            DfError::RowNotFound("r9".into()),
            DfError::ShapeMismatch {
                expected: "3x2".into(),
                found: "2x3".into(),
            },
            DfError::TypeMismatch {
                expected: "int".into(),
                found: "str".into(),
            },
            DfError::ParseError {
                domain: "float".into(),
                value: "abc".into(),
            },
            DfError::Unsupported("no such op".into()),
            DfError::ResourceExhausted("budget".into()),
            DfError::EmptyInput("no frames".into()),
            DfError::DuplicateLabel("x".into()),
            DfError::Io("pipe closed".into()),
            DfError::SpillIo {
                site: "spill.write".into(),
                detail: "disk full".into(),
                transient: true,
            },
            DfError::SpillIo {
                site: "spill.read".into(),
                detail: "missing".into(),
                transient: false,
            },
            DfError::SpillCorruption {
                site: "backend.exchange".into(),
                detail: "checksum mismatch".into(),
            },
            DfError::WorkerPanic("index out of range".into()),
            DfError::WorkerLost {
                worker: 2,
                detail: "pipe closed mid-frame".into(),
            },
            DfError::Cancelled("user abort".into()),
            DfError::Admission("queue full".into()),
            DfError::Internal("invariant broken".into()),
        ];
        // Every axis a position can be out of bounds on, not just rows.
        errors.extend(Axis::ALL.map(|axis| DfError::IndexOutOfBounds {
            axis,
            index: 7,
            len: 3,
        }));
        for err in errors {
            let decoded = DfError::decode_wire(&err.encode_wire());
            assert_eq!(decoded, err, "round trip changed {err:?}");
        }
    }

    #[test]
    fn wire_codec_escapes_separators_and_backslashes() {
        let err = DfError::Internal(format!("weird\\payload{}with unit sep", '\u{1f}'));
        assert_eq!(DfError::decode_wire(&err.encode_wire()), err);
        // Multi-field variants keep field boundaries straight even when the
        // fields themselves contain the separator.
        let err = DfError::SpillCorruption {
            site: format!("a{}b", '\u{1f}'),
            detail: "c\\d".into(),
        };
        assert_eq!(DfError::decode_wire(&err.encode_wire()), err);
    }

    #[test]
    fn wire_codec_folds_garbage_into_internal() {
        for raw in [
            "",
            "no-such-tag\u{1f}x",
            "worker-lost\u{1f}not-a-number\u{1f}d",
            "index-out-of-bounds\u{1f}diagonal\u{1f}1\u{1f}2",
        ] {
            match DfError::decode_wire(raw) {
                DfError::Internal(msg) => {
                    assert!(msg.contains("unrecognised wire error"), "msg: {msg}")
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_lost_helpers_and_display() {
        let err = DfError::worker_lost(3, "exit status 9");
        assert!(matches!(err, DfError::WorkerLost { worker: 3, .. }));
        assert_eq!(err.to_string(), "worker 3 lost: exit status 9");
    }

    #[test]
    fn display_column_not_found() {
        let err = DfError::column_not_found("price");
        assert_eq!(err.to_string(), "column label not found: \"price\"");
    }

    #[test]
    fn display_index_out_of_bounds() {
        let err = DfError::IndexOutOfBounds {
            axis: Axis::Row,
            index: 9,
            len: 3,
        };
        assert_eq!(err.to_string(), "row index 9 out of bounds for length 3");
    }

    #[test]
    fn resource_exhausted_is_flagged() {
        assert!(DfError::ResourceExhausted("cap".into()).is_resource_exhausted());
        assert!(!DfError::Unsupported("x".into()).is_resource_exhausted());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: DfError = io.into();
        assert!(matches!(err, DfError::Io(_)));
    }

    #[test]
    fn fault_taxonomy_classifies_and_formats() {
        let transient = DfError::spill_io("spill.read", "interrupted", true);
        assert!(transient.is_transient());
        assert!(!transient.is_spill_corruption());
        assert!(transient.to_string().contains("transient"));
        assert!(transient.to_string().contains("spill.read"));

        let full = DfError::spill_io("spill.write", "disk full", false);
        assert!(!full.is_transient());
        assert!(full.to_string().contains("permanent"));

        let corrupt = DfError::spill_corruption("spill.read", "checksum mismatch");
        assert!(corrupt.is_spill_corruption());
        assert!(!corrupt.is_transient());
        assert!(corrupt.to_string().contains("corruption"));

        let panic = DfError::WorkerPanic("boom".into());
        assert!(panic.to_string().contains("panicked"));

        let cancelled = DfError::Cancelled("statement timed out".into());
        assert!(cancelled.is_cancelled());
        assert!(cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn admission_refusal_is_typed_and_distinct_from_cancellation() {
        let refused = DfError::Admission("run queue full (8 queued)".into());
        assert!(refused.is_admission());
        assert!(!refused.is_cancelled());
        assert!(refused.to_string().contains("admission refused"));
        assert!(!DfError::Cancelled("queue wait timed out".into()).is_admission());
    }

    #[test]
    fn shape_and_type_helpers_format() {
        let s = DfError::shape("3 columns", "2 columns").to_string();
        assert!(s.contains("expected 3 columns"));
        let t = DfError::type_mismatch("int", "abc").to_string();
        assert!(t.contains("expected int"));
    }
}
