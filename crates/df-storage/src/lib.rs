//! # df-storage
//!
//! The storage layer of the MODIN architecture (paper §3.3, Figure 3):
//!
//! * [`csv`] — untyped (`Σ*`) CSV ingest/egress, both the serial reader and the
//!   chunk-parallel machinery (quote-aware chunk planning, per-chunk parsing,
//!   cross-band schema reconciliation, band-wise egress) the engine drives for
//!   parallel out-of-core `read_csv`.
//! * [`spill`] — the main-memory + spill-to-disk partition store that lets
//!   intermediate dataframes exceed main memory without the out-of-memory failures
//!   pandas exhibits, and the checksummed binary block frame it spills as (the one
//!   on-disk and on-wire format), with failpoint-instrumented I/O and
//!   transient-fault retry.
//! * [`wire`] — block frames over a byte stream, for the process backend's pipes.

// Storage faults must surface as typed `DfError`s, never as panics: a worker that
// panics mid-spill takes the whole statement down. Tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;
pub mod spill;
pub mod wire;

pub use csv::{
    plan_csv_chunks, read_csv_chunk, read_csv_path, read_csv_str, write_csv_path, write_csv_string,
    CsvChunk, CsvIngestPlan, CsvOptions,
};
pub use spill::{PartitionId, SpillStats, SpillStore};
