//! # df-pandas
//!
//! The pandas-style API layer of the MODIN architecture (paper §3.3): familiar
//! dataframe methods ([`PandasFrame`]) that are rewritten into the compact dataframe
//! algebra and executed by whichever engine the [`Session`] was built with — the
//! scalable MODIN-like engine, the pandas-like baseline, or the reference executor.
//! [`table2_rewrites`] / [`extended_rewrites`] record the Table 2 / §4.4
//! operator-rewrite catalogue as data for the corresponding experiment.

mod frame;
mod rewrite;
mod session;

pub use frame::PandasFrame;
pub use rewrite::{extended_rewrites, render_catalogue, table2_rewrites, Rewrite, RewriteKind};
pub use session::Session;
