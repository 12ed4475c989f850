//! # df-workloads
//!
//! Synthetic substitutes for the datasets used in the paper's evaluation, plus random
//! frame generation for property tests:
//!
//! * [`generate_raw`] / [`generate_typed`] — the NYC taxicab trace of §3.2 / Figure 2
//!   (synthetic, with the paper's replication-factor knob).
//! * [`figure5_narrow_table`] / [`generate_sales`] — the Figure 5 sales pivot table and
//!   a scalable generator for Figure 8.
//! * [`generate_corpus`] / [`analyze_corpus`] — the §4.6 / Figure 7 notebook corpus and
//!   its usage analysis.
//! * [`random_frame`] — random mixed-type frames for property-based and differential
//!   tests.
//!
//! Each substitution is documented in `DESIGN.md` (what the paper used → what is built
//! here → why the substitution preserves the behaviour the experiments measure).

mod notebooks;
mod random;
mod sales;
mod taxi;

pub use notebooks::{analyze_corpus, generate_corpus, usage_dataframe, CorpusConfig};
pub use random::{random_frame, RandomFrameConfig};
pub use sales::{figure5_narrow_table, figure5_wide_by_year, generate_sales, SalesConfig};
pub use taxi::{generate_raw, generate_typed, TaxiConfig, TAXI_COLUMNS};
