//! The worker process `ProcBackend` spawns, built next to `dfbench` so the backend's
//! "next to the current executable" lookup finds it. The protocol loop is the
//! library's; this is only its process entry point.

fn main() {
    std::process::exit(df_engine::backend::worker_main());
}
