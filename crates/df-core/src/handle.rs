//! Opaque result handles: the values that cross the narrow waist.
//!
//! Paper §3.3 / §6.1: the query-processing API between the user-facing layers and the
//! execution backends should not force every statement's output through a fully
//! assembled, fully resident dataframe — a statement the user never inspects only
//! needs an engine-owned *handle* to its (possibly partitioned, possibly spilled)
//! result, and the next statement's plan can consume that handle directly.
//!
//! [`FrameHandle`] is that value. It is either
//!
//! * **materialised** — a plain shared [`DataFrame`] (what the baseline and reference
//!   engines produce), or
//! * **partitioned** — an engine-owned [`PartitionedResult`]: an opaque, cheaply
//!   clonable representation (the scalable engine's partition grid, resident *or*
//!   spilled) that only turns into a [`DataFrame`] at an explicit materialisation
//!   point ([`Engine::collect`](crate::engine::Engine::collect), `head`, `tail`,
//!   or a write).
//!
//! Handles flow back into plans through the [`AlgebraExpr::Handle`] leaf
//! (`crate::algebra`): an engine that recognises its own handle type (via
//! [`PartitionedResult::as_any`]) resumes from the partitioned representation without
//! re-assembly or re-partitioning; any other engine falls back to
//! [`PartitionedResult::assemble`].
//!
//! [`AlgebraExpr::Handle`]: crate::algebra::AlgebraExpr::Handle

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::DfResult;

use crate::dataframe::DataFrame;

/// A per-column schema: each column label paired with its domain where known
/// (`None` = still raw `Σ*` data whose domain has not been resolved).
pub type FrameSchema = Vec<(Cell, Option<Domain>)>;

/// An engine-owned partitioned (or otherwise deferred) query result.
///
/// Implementations live in the engine crates; df-core only needs enough surface to
/// report metadata, materialise on demand, and let the owning engine recover its
/// concrete representation through [`PartitionedResult::as_any`].
pub trait PartitionedResult: fmt::Debug + Send + Sync {
    /// Logical `(rows, columns)` of the result, from metadata only — implementations
    /// must not load spilled data to answer this.
    fn shape(&self) -> (usize, usize);

    /// Column labels paired with their known domains, from metadata only — the dtype
    /// counterpart of [`PartitionedResult::shape`], with the same contract: no
    /// spilled data may be loaded. Return `None` when the metadata cannot answer
    /// (e.g. a deferred transpose hides the logical columns); callers then fall back
    /// to assembling. The default is `None` so existing implementations stay valid.
    fn schema(&self) -> Option<FrameSchema> {
        None
    }

    /// Assemble the full logical dataframe (the generic materialisation path used by
    /// engines that do not recognise this handle type).
    fn assemble(&self) -> DfResult<DataFrame>;

    /// First `k` logical rows. The default assembles and slices; partition-aware
    /// implementations override this to touch only the leading partitions (§6.1.2).
    fn prefix(&self, k: usize) -> DfResult<DataFrame> {
        Ok(self.assemble()?.head(k))
    }

    /// Last `k` logical rows (the suffix mirror of [`PartitionedResult::prefix`]).
    fn suffix(&self, k: usize) -> DfResult<DataFrame> {
        Ok(self.assemble()?.tail(k))
    }

    /// Approximate in-memory footprint of the result in bytes, from metadata only —
    /// like [`PartitionedResult::shape`], implementations must not load spilled data
    /// to answer. Used by budget-accounted caches to cost entries. Return `None`
    /// when the metadata cannot answer (the default, so existing implementations
    /// stay valid); callers then fall back to a shape-based estimate.
    fn approx_size_bytes(&self) -> Option<usize> {
        None
    }

    /// Downcasting hook: the owning engine recovers its concrete grid type from an
    /// [`AlgebraExpr::Handle`](crate::algebra::AlgebraExpr::Handle) leaf through this.
    fn as_any(&self) -> &dyn Any;
}

/// An opaque handle to one statement's result, produced by
/// [`Engine::execute`](crate::engine::Engine::execute) and consumed either by a later
/// plan (as an [`AlgebraExpr::Handle`](crate::algebra::AlgebraExpr::Handle) leaf) or
/// by an explicit materialisation point.
///
/// Handles are cheap to clone: both arms are reference-counted, so caching a handle
/// or feeding it to several downstream statements shares one underlying result.
///
/// ```
/// use df_core::dataframe::DataFrame;
/// use df_core::handle::FrameHandle;
/// use df_types::cell::cell;
///
/// let df = DataFrame::from_columns(vec!["v"], vec![vec![cell(1), cell(2), cell(3)]])?;
/// let handle = FrameHandle::from_dataframe(df);
/// assert_eq!(handle.shape(), (3, 1)); // metadata only — nothing is assembled
/// let materialised = handle.into_dataframe()?; // the explicit materialisation point
/// assert_eq!(materialised.cell(2, 0)?, &cell(3));
/// # Ok::<(), df_types::error::DfError>(())
/// ```
#[derive(Debug, Clone)]
pub enum FrameHandle {
    /// A fully materialised in-memory result.
    Materialized(Arc<DataFrame>),
    /// An engine-owned partitioned result (resident or spilled).
    Partitioned(Arc<dyn PartitionedResult>),
}

impl FrameHandle {
    /// Wrap a materialised dataframe.
    pub fn from_dataframe(df: DataFrame) -> FrameHandle {
        FrameHandle::Materialized(Arc::new(df))
    }

    /// Wrap an engine-owned partitioned result.
    pub fn from_partitioned(result: Arc<dyn PartitionedResult>) -> FrameHandle {
        FrameHandle::Partitioned(result)
    }

    /// True when the handle holds an engine-owned partitioned result rather than a
    /// plain dataframe.
    pub fn is_partitioned(&self) -> bool {
        matches!(self, FrameHandle::Partitioned(_))
    }

    /// Logical `(rows, columns)`, from metadata only.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            FrameHandle::Materialized(df) => df.shape(),
            FrameHandle::Partitioned(p) => p.shape(),
        }
    }

    /// Column labels paired with their known domains (`None` per slot for a column
    /// whose schema induction is still deferred), answered from metadata only — a
    /// partitioned, even fully spilled result reports its schema without loading or
    /// assembling anything, exactly like [`FrameHandle::shape`]. Returns `None` when
    /// the result's metadata cannot answer (a deferred transpose, or a foreign
    /// [`PartitionedResult`] without schema support); callers that need the schema
    /// unconditionally should then assemble.
    ///
    /// ```
    /// use df_core::dataframe::DataFrame;
    /// use df_core::handle::FrameHandle;
    /// use df_types::cell::cell;
    /// use df_types::domain::Domain;
    ///
    /// let mut df = DataFrame::from_columns(vec!["v"], vec![vec![cell(1), cell(2)]])?;
    /// df.columns_mut()[0].declare_domain(Domain::Int);
    /// let handle = FrameHandle::from_dataframe(df);
    /// let schema = handle.schema().expect("materialised handles always answer");
    /// assert_eq!(schema, vec![(cell("v"), Some(Domain::Int))]);
    /// # Ok::<(), df_types::error::DfError>(())
    /// ```
    pub fn schema(&self) -> Option<FrameSchema> {
        match self {
            FrameHandle::Materialized(df) => Some(
                df.col_labels()
                    .as_slice()
                    .iter()
                    .cloned()
                    .zip(df.schema())
                    .collect(),
            ),
            FrameHandle::Partitioned(p) => p.schema(),
        }
    }

    /// Materialise a copy of the full result, leaving the handle usable.
    pub fn to_dataframe(&self) -> DfResult<DataFrame> {
        match self {
            FrameHandle::Materialized(df) => Ok(df.as_ref().clone()),
            FrameHandle::Partitioned(p) => p.assemble(),
        }
    }

    /// Materialise the full result, consuming the handle: a uniquely held
    /// materialised frame moves out copy-free.
    pub fn into_dataframe(self) -> DfResult<DataFrame> {
        match self {
            FrameHandle::Materialized(df) => {
                Ok(Arc::try_unwrap(df).unwrap_or_else(|shared| shared.as_ref().clone()))
            }
            FrameHandle::Partitioned(p) => p.assemble(),
        }
    }

    /// First `k` rows, using the partition-aware prefix path when available.
    pub(crate) fn head(&self, k: usize) -> DfResult<DataFrame> {
        match self {
            FrameHandle::Materialized(df) => Ok(df.head(k)),
            FrameHandle::Partitioned(p) => p.prefix(k),
        }
    }

    /// Last `k` rows, using the partition-aware suffix path when available.
    pub(crate) fn tail(&self, k: usize) -> DfResult<DataFrame> {
        match self {
            FrameHandle::Materialized(df) => Ok(df.tail(k)),
            FrameHandle::Partitioned(p) => p.suffix(k),
        }
    }

    /// Approximate in-memory footprint in bytes, from metadata only. Materialised
    /// handles answer exactly; partitioned results answer through
    /// [`PartitionedResult::approx_size_bytes`], falling back to a conservative
    /// shape-based estimate (16 bytes per cell plus a fixed overhead) when the
    /// result's metadata cannot. Budget-accounted caches use this to cost entries,
    /// so the contract matters: answering never loads spilled data.
    pub fn approx_size_bytes(&self) -> usize {
        match self {
            FrameHandle::Materialized(df) => df.approx_size_bytes(),
            FrameHandle::Partitioned(p) => p.approx_size_bytes().unwrap_or_else(|| {
                let (rows, cols) = p.shape();
                rows.saturating_mul(cols).saturating_mul(16) + 64
            }),
        }
    }

    /// A stable identity pointer for plan keys: two handles share an identity exactly
    /// when they share the underlying result, so re-running a statement on the same
    /// handle hits the materialisation cache while a fresh result does not.
    pub fn identity(&self) -> *const () {
        match self {
            FrameHandle::Materialized(df) => Arc::as_ptr(df) as *const (),
            FrameHandle::Partitioned(p) => Arc::as_ptr(p) as *const (),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![cell(1), cell("x")],
                vec![cell(2), cell("y")],
                vec![cell(3), cell("z")],
            ],
        )
        .unwrap()
    }

    #[derive(Debug)]
    struct TestResult(DataFrame);

    impl PartitionedResult for TestResult {
        fn shape(&self) -> (usize, usize) {
            self.0.shape()
        }
        fn assemble(&self) -> DfResult<DataFrame> {
            Ok(self.0.clone())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn materialized_handles_report_and_materialise() {
        let handle = FrameHandle::from_dataframe(frame());
        assert!(!handle.is_partitioned());
        assert_eq!(handle.shape(), (3, 2));
        assert_eq!(handle.head(2).unwrap().n_rows(), 2);
        assert_eq!(handle.tail(1).unwrap().cell(0, 0).unwrap(), &cell(3));
        let copy = handle.to_dataframe().unwrap();
        assert!(copy.same_data(&frame()));
        // A uniquely held handle moves its frame out without copying.
        assert!(handle.into_dataframe().unwrap().same_data(&frame()));
    }

    #[test]
    fn partitioned_handles_use_the_trait_surface() {
        let handle = FrameHandle::from_partitioned(Arc::new(TestResult(frame())));
        assert!(handle.is_partitioned());
        assert_eq!(handle.shape(), (3, 2));
        assert!(handle.to_dataframe().unwrap().same_data(&frame()));
        assert_eq!(handle.head(1).unwrap().n_rows(), 1);
        assert_eq!(handle.tail(2).unwrap().n_rows(), 2);
        // Downcast recovers the concrete type.
        let FrameHandle::Partitioned(p) = &handle else {
            unreachable!()
        };
        assert!(p.as_any().downcast_ref::<TestResult>().is_some());
    }

    #[test]
    fn size_accounting_answers_from_metadata() {
        let handle = FrameHandle::from_dataframe(frame());
        assert_eq!(handle.approx_size_bytes(), frame().approx_size_bytes());
        // A foreign partitioned result without size metadata falls back to the
        // shape-based estimate instead of assembling.
        let partitioned = FrameHandle::from_partitioned(Arc::new(TestResult(frame())));
        assert_eq!(partitioned.approx_size_bytes(), 3 * 2 * 16 + 64);
    }

    #[test]
    fn identity_tracks_the_shared_result() {
        let handle = FrameHandle::from_dataframe(frame());
        let clone = handle.clone();
        assert_eq!(handle.identity(), clone.identity());
        let other = FrameHandle::from_dataframe(frame());
        assert_ne!(handle.identity(), other.identity());
    }
}
