//! # df-types
//!
//! Foundational value types for the dataframe data model of *Towards Scalable
//! Dataframe Systems* (Petersohn et al., VLDB 2020), §4.2.
//!
//! The paper defines a dataframe as a tuple `(A_mn, R_m, C_n, D_n)` whose entries come
//! from a known set of domains `Dom = {Σ*, int, float, bool, category, …}`, each with a
//! distinguished null value and a parsing function `p_i : Σ* → dom_i`, together with a
//! *schema induction function* `S : (Σ*)^m → Dom` that assigns a domain to a column of
//! raw strings after the fact. This crate provides exactly those building blocks:
//!
//! * [`cell::Cell`] — a single dataframe entry (data *or* label; the paper requires
//!   labels to come from the same domain set as data).
//! * [`domain::Domain`] — the domain set `Dom` and its parsing functions `p_i`.
//! * [`induce_domain`] / [`SchemaSlot`] — the schema induction function `S` and
//!   helpers for deferring / caching induction (paper §5.1).
//! * [`ColumnData`] — typed columnar storage (flat `i64`/`f64`/`bool`/string buffers
//!   with validity bitmaps, dictionary-encoded categoricals) used by the engine's
//!   column blocks, the block frame (spill files and wire) and the vectorized kernels.
//! * [`labels`] — ordered label vectors with positional and named lookup.
//! * [`error`] — the shared error type used across the workspace, including the
//!   fault taxonomy (`SpillIo` / `SpillCorruption` / `WorkerPanic` / `Cancelled`).
//! * [`fail`], [`RetryPolicy`], [`CancelToken`] — the fault-tolerance toolkit: deterministic
//!   failpoint injection (`DF_FAILPOINTS`), capped-exponential retry for transient
//!   storage faults, and cooperative cancellation tokens.
//!
//! Everything here is engine-agnostic: the reference executor (`df-core`), the
//! pandas-like baseline (`df-baseline`) and the scalable engine (`df-engine`) all share
//! these definitions, which is what lets the benchmark harness compare them fairly.

pub mod backend;
mod cancel;
pub mod cell;
mod column;
pub mod domain;
pub mod error;
pub mod fail;
mod infer;
pub mod labels;
mod retry;
mod striped;

pub use cancel::CancelToken;
pub use cell::{cell, Cell};
pub use column::{ColumnData, Validity};
pub use domain::Domain;
pub use error::{DfError, DfResult};
pub use fail::FailAction;
pub use infer::{
    induce_domain, induce_from_strings, induction_scan_count, reset_induction_scan_count,
    InductionSummary, SchemaSlot,
};
pub use labels::Labels;
pub use retry::RetryPolicy;
pub use striped::StripedU64;
