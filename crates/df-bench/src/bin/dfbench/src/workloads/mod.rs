//! The six named workloads.

pub mod etl;
pub mod service;
pub mod shuffle;
pub mod wide;
