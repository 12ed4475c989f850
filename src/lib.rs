//! # scalable-dataframes
//!
//! Umbrella crate for the `rustframe` workspace, a from-scratch Rust reproduction of
//! *Towards Scalable Dataframe Systems* (Petersohn et al., VLDB 2020).
//!
//! The workspace is organised around the paper's "narrow waist" design:
//!
//! * [`types`] — the domain set `Dom`, cell values, parsing functions and the schema
//!   induction function `S` (paper §4.2).
//! * [`core`] — the formal dataframe data model and the 14-operator kernel algebra
//!   (paper §4.2–4.3, Table 1), plus a reference executor.
//! * [`baseline`] — a deliberately pandas-like engine: eager, single-threaded,
//!   row-oriented, physical transpose (the paper's comparison system).
//! * [`engine`] — the MODIN-like scalable engine: partitioned (row/column/block),
//!   parallel, metadata-only transpose, lazy/opportunistic evaluation (paper §3, §5–6).
//! * [`pandas`] — a pandas-style user API whose methods are rewritten into algebra
//!   expressions and executed on either engine (paper §3.3, Table 2).
//! * [`storage`] — CSV ingest/egress (serial and chunk-parallel) and the
//!   spill-to-disk partition store.
//! * [`service`] — the in-process multi-tenant query service: one shared engine
//!   and spill budget serving many tenant sessions behind admission control,
//!   tenant-fair scheduling and a cross-session single-flight result cache.
//! * [`workloads`] — synthetic substitutes for the paper's datasets (NYC taxi trips,
//!   the Jupyter notebook corpus, the sales pivot table).
//!
//! ## Quickstart
//!
//! ```
//! use scalable_dataframes::prelude::*;
//!
//! // Build a session backed by the scalable (Modin-like) engine.
//! let session = Session::modin();
//! let df = PandasFrame::from_rows(
//!     &session,
//!     vec!["product", "price", "rating"],
//!     vec![
//!         vec![cell("iPhone 11"), cell(699), cell(4.6)],
//!         vec![cell("iPhone 11 Pro"), cell(999), cell(4.8)],
//!     ],
//! )
//! .unwrap();
//! let expensive = df.filter_gt("price", 700.0).unwrap();
//! assert_eq!(expensive.shape().unwrap(), (1, 3));
//! ```

pub use df_baseline as baseline;
pub use df_core as core;
pub use df_engine as engine;
pub use df_pandas as pandas;
pub use df_service as service;
pub use df_storage as storage;
pub use df_types as types;
pub use df_workloads as workloads;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use df_core::algebra::AlgebraExpr;
    pub use df_core::dataframe::DataFrame;
    pub use df_core::engine::{Engine, EngineKind};
    pub use df_core::handle::FrameHandle;
    pub use df_pandas::PandasFrame;
    pub use df_pandas::Session;
    pub use df_service::{QueryService, ServiceConfig, TenantSession};
    pub use df_types::cell::{cell, Cell};
    pub use df_types::domain::Domain;
}
