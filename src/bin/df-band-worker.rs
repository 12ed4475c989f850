//! The band-exchange worker process for the process-parallel executor backend.
//!
//! `ProcBackend` spawns N of these and ships serialised `BandTask`s plus their
//! input bands over stdin as checksummed block frames; results return over stdout
//! the same way. The whole protocol (and its failure model)
//! lives in [`df_engine::backend::worker_main`] — this binary is only the
//! process entry point around it.

fn main() {
    std::process::exit(df_engine::backend::worker_main());
}
