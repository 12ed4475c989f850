//! Tenant-facing session handles.
//!
//! A [`TenantSession`] is the worker half of the owner/worker split: a cheap,
//! cloneable handle a client thread drives. It owns no engine state — its
//! [`df_pandas::Session`] front end wraps a
//! [`df_engine::session::QuerySession`] built with the service's
//! shared cache and admission gate, so every dataframe call the tenant makes is
//! admission-controlled, fairly scheduled, and cache-attributed without the
//! client doing anything special.

use std::sync::Arc;

use df_engine::session::{QuerySession, SessionStats};
use df_pandas::Session;

/// One tenant's handle onto the shared service (see the module docs).
#[derive(Clone)]
pub struct TenantSession {
    name: String,
    session: Arc<Session>,
}

impl TenantSession {
    pub(crate) fn new(name: String, session: Arc<Session>) -> TenantSession {
        TenantSession { name, session }
    }

    /// The tenant this session is attributed to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pandas-style front end: build [`df_pandas::PandasFrame`]s against this
    /// to run dataframe programs under the service's admission and caching.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The underlying query session (algebra-level `collect`, timeouts,
    /// cancellation).
    pub fn query(&self) -> &QuerySession {
        self.session.query()
    }

    /// This session's scheduling/caching counters (statements, executions, hits).
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }
}

impl std::fmt::Debug for TenantSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("name", &self.name)
            .field("stats", &self.stats())
            .finish()
    }
}
