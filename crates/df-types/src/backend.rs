//! Executor backend selection.
//!
//! The paper's core architectural claim is that the dataframe algebra decouples the
//! API from execution, so one logical plan can run on progressively more scalable
//! backends (§3.3 runs the Python implementation on Ray or Dask). [`BackendKind`]
//! names the execution backends this workspace ships: the in-process thread pool and
//! the process-parallel worker pool that exchanges bands as checksummed block frames
//! over pipes. It lives here — below the engine — so service- and engine-level
//! configuration can both speak it without depending on the execution crate.

use std::fmt;

/// Which execution backend runs per-band tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The in-process scoped thread pool: tasks run on worker threads sharing the
    /// engine's address space. The default.
    #[default]
    Threads,
    /// Process-parallel workers: band tasks are serialised and shipped to spawned
    /// `df-band-worker` processes over a pipe protocol whose payload is the spill
    /// store's checksummed block frame. Worker death surfaces as a typed error and the
    /// pool respawns, never hangs.
    Procs,
}

impl BackendKind {
    /// The canonical lowercase name, matching what `DF_BACKEND` accepts.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Procs => "procs",
        }
    }

    /// Parse a `DF_BACKEND`-style name (case-insensitive, surrounding whitespace
    /// ignored). Unknown names return `None` so callers can fall back explicitly.
    pub(crate) fn parse(raw: &str) -> Option<BackendKind> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "threads" => Some(BackendKind::Threads),
            "procs" => Some(BackendKind::Procs),
            _ => None,
        }
    }

    /// The backend selected by the `DF_BACKEND` environment variable (CI runs the
    /// test suite as a matrix over it), defaulting to [`BackendKind::Threads`] when
    /// unset or unrecognised.
    pub fn from_env() -> BackendKind {
        std::env::var("DF_BACKEND")
            .ok()
            .and_then(|raw| BackendKind::parse(&raw))
            .unwrap_or_default()
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in [BackendKind::Threads, BackendKind::Procs] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn parse_is_forgiving_about_case_and_whitespace() {
        assert_eq!(BackendKind::parse(" Procs "), Some(BackendKind::Procs));
        assert_eq!(BackendKind::parse("THREADS"), Some(BackendKind::Threads));
        assert_eq!(BackendKind::parse("ray"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn default_is_threads() {
        assert_eq!(BackendKind::default(), BackendKind::Threads);
    }
}
