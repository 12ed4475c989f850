//! # df-core
//!
//! The formal dataframe data model and kernel algebra of *Towards Scalable Dataframe
//! Systems* (Petersohn et al., VLDB 2020), §4.
//!
//! * [`dataframe`] — the `(A_mn, R_m, C_n, D_n)` data model with a lazily induced
//!   schema (§4.2).
//! * [`algebra`] — the 14-operator kernel algebra of Table 1 as an expression tree,
//!   plus the function vocabulary (predicates, map functions, aggregates, window
//!   functions) the operators are parameterised by (§4.3).
//! * [`columnar`] — typed column blocks ([`columnar::ColumnBlock`]): the columnar
//!   physical form of a partition, hidden behind the `PartitionHandle` narrow waist.
//! * [`ops`] — reference implementations of every operator, defining the semantics all
//!   engines must agree with (plus vectorized columnar fast paths that must match
//!   them cell-for-cell).
//! * [`ScanCsv`] — the first-class CSV scan leaf carrying chunk
//!   plans and per-chunk column statistics: the target of the optimizer's
//!   projection/predicate pushdown.
//! * [`estimate`] / [`render_plan`] — the cost model: size estimation from leaf
//!   shapes and scan statistics, and the plan rendering behind `explain()`.
//! * [`engine`] — the "narrow waist" [`engine::Engine`] trait and the Table 3
//!   capability matrix.
//! * [`handle`] — the opaque [`handle::FrameHandle`] results that cross the waist:
//!   engine-owned, possibly partitioned/spilled, materialised only at explicit
//!   collection points (§3.3, §6.1).
//! * [`covariance`] / [`correlation`] — linear algebra over *matrix dataframes* (§4.2).
//!
//! The crate is deliberately free of any parallelism or storage concerns: those live in
//! `df-engine` and `df-storage`. Everything here is the shared vocabulary the rest of
//! the workspace builds on.

pub mod algebra;
pub mod columnar;
mod cost;
pub mod dataframe;
pub mod engine;
pub mod handle;
mod linalg;
pub mod ops;
mod scan;

pub use algebra::AlgebraExpr;
pub use columnar::ColumnBlock;
pub use cost::{estimate, render_plan, Estimate, DEFAULT_CELL_BYTES};
pub use dataframe::{Column, DataFrame};
pub use engine::{Capabilities, Engine, EngineKind, PushdownSnapshot, ReferenceEngine};
pub use handle::{FrameHandle, FrameSchema, PartitionedResult};
pub use linalg::{correlation, covariance};
pub use scan::{
    chunk_may_match, ChunkStats, ColumnChunkStats, DistinctSeen, ScanCsv, ScanOptions, ScanStats,
};
