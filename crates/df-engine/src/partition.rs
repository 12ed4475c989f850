//! Partitioned representation of a dataframe.
//!
//! Paper §3.1: MODIN "flexibly move\[s\] between common partitioning schemes: row-based,
//! column-based, or block-based partitioning, depending on the operation", and
//! implements TRANSPOSE by individually transposing blocks and then only "chang\[ing\]
//! the overall metadata tracking the new locations of each of the blocks", so a large
//! transpose requires no communication.
//!
//! [`PartitionGrid`] is that representation: a 2-D grid of [`Partition`]s, each holding
//! a rectangular block of the logical frame and an orientation flag; a block's place
//! in the frame is its place in the grid, nothing else records it.
//! `PartitionGrid::transpose` flips the grid and the flags without
//! touching any cell; blocks materialise their transposed form lazily when an operator
//! actually needs their data.
//!
//! Blocks are owned through a [`PartitionHandle`] (paper §3.3's storage layer): either
//! *resident* — the handle holds the [`DataFrame`] directly — or *stored* — the block
//! lives in a session-scoped [`SpillStore`] that keeps partitions in memory up to a
//! byte budget and transparently spills the least-recently-used ones to disk. Handles
//! are cheap to clone (stored blocks are reference-counted) and the block is removed
//! from the store when its last handle drops, so intermediate results never leak.
//!
//! This module is data and metadata only. The band lifecycle — each worker *loads*
//! its item's partitions, *computes*, and *stores* the outputs, pinning only what is
//! actively being transformed — lives in one place,
//! [`ParallelExecutor::run_stage`](crate::executor::ParallelExecutor::run_stage);
//! operators hand it partitions taken out of a grid ([`PartitionGrid::into_blocks`],
//! `PartitionGrid::into_band_partitions`, `PartitionGrid::replace_blocks`) and
//! build the next grid from the partitions it returns
//! (`PartitionGrid::from_band_partitions`).

use std::fmt;
use std::sync::Arc;

use df_storage::spill::{PartitionId, SpillStore};
use df_types::domain::Domain;
use df_types::error::{Axis, DfError, DfResult};
use df_types::labels::Labels;

use df_core::columnar::ColumnBlock;
use df_core::dataframe::{Column, DataFrame};
use df_core::ops::reshape;
use df_core::ops::setops;

/// How a frame is split into partitions (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Each partition holds a contiguous run of rows (all columns).
    Row,
    /// Each partition holds a contiguous run of columns (all rows).
    Column,
    /// Each partition holds a rectangular block of rows × columns.
    Block,
}

/// Sizing knobs for partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Target number of rows per partition.
    pub target_rows: usize,
    /// Target number of columns per partition.
    pub target_cols: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            target_rows: 16_384,
            target_cols: 32,
        }
    }
}

/// A block checked into a session-scoped [`SpillStore`]. The stored-orientation
/// shape, column labels and per-column domains are cached so grid metadata (shapes,
/// offsets, band row counts, key-column resolution, `schema()` answers) never has to
/// load the block; the store entry is removed when the last handle to this block
/// drops. Row labels are *not* cached — they scale with the data and caching them
/// would defeat the spill.
pub struct StoredBlock {
    store: Arc<SpillStore>,
    id: PartitionId,
    rows: usize,
    cols: usize,
    col_labels: Labels,
    domains: Vec<Option<Domain>>,
    /// Approximate payload size captured at check-in, so budget accounting (the
    /// shared result cache) can cost a fully spilled grid without load-backs.
    bytes: usize,
}

impl Drop for StoredBlock {
    fn drop(&mut self) {
        self.store.remove(self.id).ok();
    }
}

impl fmt::Debug for StoredBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredBlock")
            .field("id", &self.id)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

/// Where a partition's block physically lives (paper §3.3's modular storage layer):
/// directly in memory, or in the session's [`SpillStore`] under its memory budget.
///
/// Both arms are reference-counted, so cloning a handle (e.g. when a statement
/// resumes from a cached result handle at the waist) shares the block instead of
/// copying it; a consuming access (`PartitionHandle::into_frame`) moves the data
/// out only when the handle is the last owner and copies-on-write otherwise.
#[derive(Debug, Clone)]
pub enum PartitionHandle {
    /// The handle owns the block in memory (shared with any clones of the handle).
    Resident(Arc<DataFrame>),
    /// The handle owns the block in memory in its typed columnar form; loading it
    /// decodes to a frame. Only explicit check-ins create this arm (ingest's per-band
    /// parse above all) — intermediate operator results stay row-oriented rather than
    /// paying an encode/decode round trip per operator.
    Columnar(Arc<ColumnBlock>),
    /// The block is managed by a spill store; loading it may read a spill file.
    Stored(Arc<StoredBlock>),
}

impl PartitionHandle {
    /// Wrap a frame: checked into `store` when one is provided, resident otherwise.
    pub(crate) fn new_in(
        frame: DataFrame,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionHandle> {
        match store {
            Some(store) => {
                let (rows, cols) = frame.shape();
                let col_labels = frame.col_labels().clone();
                let domains = frame.schema();
                let bytes = frame.approx_size_bytes();
                let id = store.put(frame)?;
                Ok(PartitionHandle::Stored(Arc::new(StoredBlock {
                    store: Arc::clone(store),
                    id,
                    rows,
                    cols,
                    col_labels,
                    domains,
                    bytes,
                })))
            }
            None => Ok(PartitionHandle::Resident(Arc::new(frame))),
        }
    }

    /// Wrap an already-encoded typed column block: checked into `store` when one is
    /// provided (the store keeps it columnar and spills its typed buffers as they are),
    /// held columnar in memory otherwise.
    pub(crate) fn columnar_in(
        block: ColumnBlock,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionHandle> {
        match store {
            Some(store) => {
                let (rows, cols) = block.shape();
                let col_labels = block.col_labels().clone();
                let domains = block.domains().to_vec();
                let bytes = block.approx_size_bytes();
                let id = store.put_block(block)?;
                Ok(PartitionHandle::Stored(Arc::new(StoredBlock {
                    store: Arc::clone(store),
                    id,
                    rows,
                    cols,
                    col_labels,
                    domains,
                    bytes,
                })))
            }
            None => Ok(PartitionHandle::Columnar(Arc::new(block))),
        }
    }

    /// Stored-orientation shape, from metadata only (never loads the block).
    pub(crate) fn shape(&self) -> (usize, usize) {
        match self {
            PartitionHandle::Resident(frame) => frame.shape(),
            PartitionHandle::Columnar(block) => block.shape(),
            PartitionHandle::Stored(block) => (block.rows, block.cols),
        }
    }

    /// True when the block currently lives in a spill store rather than this handle.
    #[cfg(test)]
    pub(crate) fn is_stored(&self) -> bool {
        matches!(self, PartitionHandle::Stored(_))
    }

    /// Approximate block size in bytes, from metadata only: resident and columnar
    /// blocks measure themselves, stored blocks answer from the size cached at
    /// check-in — so costing a fully spilled grid never triggers a load-back.
    pub(crate) fn approx_size_bytes(&self) -> usize {
        match self {
            PartitionHandle::Resident(frame) => frame.approx_size_bytes(),
            PartitionHandle::Columnar(block) => block.approx_size_bytes(),
            PartitionHandle::Stored(block) => block.bytes,
        }
    }

    /// Stored-orientation column labels, from metadata only (never loads the block).
    pub(crate) fn col_labels(&self) -> Labels {
        match self {
            PartitionHandle::Resident(frame) => frame.col_labels().clone(),
            PartitionHandle::Columnar(block) => block.col_labels().clone(),
            PartitionHandle::Stored(block) => block.col_labels.clone(),
        }
    }

    /// Stored-orientation per-column domains, from metadata only: resident frames
    /// report their columns' known domains, columnar blocks carry theirs, and stored
    /// blocks cached theirs at check-in time — so a spilled grid answers dtype
    /// questions with zero load-backs.
    pub(crate) fn col_domains(&self) -> Vec<Option<Domain>> {
        match self {
            PartitionHandle::Resident(frame) => frame.schema(),
            PartitionHandle::Columnar(block) => block.domains().to_vec(),
            PartitionHandle::Stored(block) => block.domains.clone(),
        }
    }

    /// Load the block (cloning a resident frame, decoding a columnar one, fetching —
    /// and possibly reading back from disk — a stored one).
    pub(crate) fn load(&self) -> DfResult<DataFrame> {
        match self {
            PartitionHandle::Resident(frame) => Ok(frame.as_ref().clone()),
            PartitionHandle::Columnar(block) => Ok(block.to_frame()),
            PartitionHandle::Stored(block) => block.store.get(block.id),
        }
    }

    /// Consume the handle and take the block: a uniquely-held resident frame moves
    /// out copy-free (a shared one copies-on-write); a columnar block decodes; a
    /// uniquely-held stored block is taken out of the store (freeing its budget); a
    /// stored block with other live handles is fetched non-destructively.
    pub(crate) fn into_frame(self) -> DfResult<DataFrame> {
        match self {
            PartitionHandle::Resident(frame) => {
                Ok(Arc::try_unwrap(frame).unwrap_or_else(|shared| shared.as_ref().clone()))
            }
            PartitionHandle::Columnar(block) => Ok(block.to_frame()),
            PartitionHandle::Stored(block) => match Arc::try_unwrap(block) {
                // `take` removes the entry; the unwrapped block's Drop then finds
                // nothing to remove, which is fine.
                Ok(block) => block.store.take(block.id),
                Err(shared) => shared.store.get(shared.id),
            },
        }
    }
}

/// One rectangular block of a partitioned dataframe.
#[derive(Debug, Clone)]
pub struct Partition {
    handle: PartitionHandle,
    /// When true the stored frame is the transpose of the logical block: the logical
    /// data is obtained by transposing on access (the deferred half of the metadata
    /// transpose).
    transposed: bool,
}

impl Partition {
    fn of(handle: PartitionHandle) -> Self {
        Partition {
            handle,
            transposed: false,
        }
    }

    /// Wrap a materialised block, checking it into `store` when one is provided (the
    /// "store-and-maybe-spill" step of the out-of-core lifecycle).
    pub(crate) fn new_in(frame: DataFrame, store: Option<&Arc<SpillStore>>) -> DfResult<Self> {
        Ok(Partition::of(PartitionHandle::new_in(frame, store)?))
    }

    /// Wrap a typed column block, checking it into `store` when one is provided.
    /// This is how ingest's per-band parse checks typed columns straight into the
    /// session store.
    pub(crate) fn new_columnar_in(
        block: ColumnBlock,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<Self> {
        Ok(Partition::of(PartitionHandle::columnar_in(block, store)?))
    }

    /// Logical number of rows of the block.
    pub(crate) fn n_rows(&self) -> usize {
        let (rows, cols) = self.handle.shape();
        if self.transposed {
            cols
        } else {
            rows
        }
    }

    /// Logical number of columns of the block.
    pub(crate) fn n_cols(&self) -> usize {
        let (rows, cols) = self.handle.shape();
        if self.transposed {
            rows
        } else {
            cols
        }
    }

    /// Whether the block still defers its physical transpose.
    pub(crate) fn is_deferred_transpose(&self) -> bool {
        self.transposed
    }

    /// Logical column labels of the block. Metadata-only for the common untransposed
    /// case; a deferred transpose must materialise (its logical column labels are the
    /// stored row labels, which handles deliberately do not cache).
    pub(crate) fn col_labels(&self) -> DfResult<Labels> {
        if self.transposed {
            return Ok(self.materialize()?.col_labels().clone());
        }
        Ok(self.handle.col_labels())
    }

    /// The handle this partition owns its block through.
    pub fn handle(&self) -> &PartitionHandle {
        &self.handle
    }

    /// Materialise the logical block, resolving any deferred transpose.
    pub(crate) fn materialize(&self) -> DfResult<DataFrame> {
        let frame = self.handle.load()?;
        if self.transposed {
            reshape::transpose(&frame)
        } else {
            Ok(frame)
        }
    }

    /// Consume the partition and materialise its logical block, moving the block out
    /// of its handle (and freeing its store entry) when no transpose is pending.
    pub(crate) fn into_materialized(self) -> DfResult<DataFrame> {
        let frame = self.handle.into_frame()?;
        if self.transposed {
            reshape::transpose(&frame)
        } else {
            Ok(frame)
        }
    }
}

/// Schema metadata a scan-rooted grid inherits from its plan/statistics pass: the
/// scan's output column labels with their reconciled domains. Unlike the per-handle
/// metadata [`PartitionGrid::schema`] normally reads, this survives a metadata-only
/// [`PartitionGrid::transpose`] — the scan knew its schema before any block existed,
/// so a deferred reorientation does not hide it.
#[derive(Debug, Clone)]
pub(crate) struct ScanSchema {
    /// Output column labels × reconciled domains, in scan output order.
    pub columns: df_core::handle::FrameSchema,
    /// True when the scan emitted every planned row (no predicate was pushed into
    /// it), so row labels are the sequential global indices `0..rows` and the
    /// *transposed* grid's column labels are also statically known.
    pub sequential_rows: bool,
    /// Parity of metadata-only transposes applied since the scan: `true` after an
    /// odd number, i.e. the grid's logical columns are currently the scan's rows.
    pub transposed: bool,
}

/// A dataframe split into a grid of partitions.
#[derive(Debug, Clone)]
pub struct PartitionGrid {
    /// blocks[r][c] covers row-band `r` and column-band `c`.
    blocks: Vec<Vec<Partition>>,
    /// Present on scan-rooted grids: the statically known schema that answers
    /// [`PartitionGrid::schema`] even when a deferred transpose hides the per-handle
    /// column metadata.
    scan_schema: Option<Arc<ScanSchema>>,
}

impl PartitionGrid {
    /// Partition a dataframe under the given scheme and sizing configuration. Blocks
    /// are checked into `store` when one is provided — so even the initial
    /// partitioning step respects the session's memory budget (blocks beyond it
    /// spill as they are created).
    pub fn from_dataframe_in(
        df: &DataFrame,
        scheme: PartitionScheme,
        config: PartitionConfig,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionGrid> {
        let (m, n) = df.shape();
        let row_chunk = match scheme {
            PartitionScheme::Column => m.max(1),
            _ => config.target_rows.max(1),
        };
        let col_chunk = match scheme {
            PartitionScheme::Row => n.max(1),
            _ => config.target_cols.max(1),
        };
        let row_bands = split_ranges(m, row_chunk);
        let col_bands = split_ranges(n, col_chunk);
        let mut blocks = Vec::with_capacity(row_bands.len());
        for &(row_start, row_end) in &row_bands {
            let row_labels = Labels::new(df.row_labels().as_slice()[row_start..row_end].to_vec());
            let mut band = Vec::with_capacity(col_bands.len());
            for &(col_start, col_end) in &col_bands {
                // Build each block with a single pass over its cells (slicing rows and
                // then selecting columns would copy every cell twice).
                let columns: Vec<Column> = (col_start..col_end)
                    .map(|j| {
                        let source = &df.columns()[j];
                        let cells = source.cells()[row_start..row_end].to_vec();
                        match source.known_domain() {
                            Some(domain) => Column::with_domain(cells, domain),
                            None => Column::new(cells),
                        }
                    })
                    .collect();
                let col_labels =
                    Labels::new(df.col_labels().as_slice()[col_start..col_end].to_vec());
                let block = DataFrame::from_parts(columns, row_labels.clone(), col_labels)?;
                band.push(Partition::new_in(block, store)?);
            }
            blocks.push(band);
        }
        Ok(PartitionGrid {
            blocks,
            scan_schema: None,
        })
    }

    /// Wrap a single frame as a 1×1 grid, checked into `store` when one is provided.
    pub(crate) fn single_in(
        df: DataFrame,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionGrid> {
        Ok(PartitionGrid {
            blocks: vec![vec![Partition::new_in(df, store)?]],
            scan_schema: None,
        })
    }

    /// Attach the statically known schema of a scan-rooted grid (output labels ×
    /// reconciled domains, in scan output order). `sequential_rows` records whether
    /// the scan emitted every planned row, making the transposed grid's column
    /// labels (`0..rows`) statically known too.
    pub(crate) fn with_scan_schema(
        mut self,
        columns: df_core::handle::FrameSchema,
        sequential_rows: bool,
    ) -> PartitionGrid {
        self.scan_schema = Some(Arc::new(ScanSchema {
            columns,
            sequential_rows,
            transposed: false,
        }));
        self
    }

    /// Number of row bands.
    pub fn n_row_bands(&self) -> usize {
        self.blocks.len()
    }

    /// Number of column bands.
    pub(crate) fn n_col_bands(&self) -> usize {
        self.blocks.first().map(Vec::len).unwrap_or(0)
    }

    /// Total number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.n_row_bands() * self.n_col_bands()
    }

    /// Number of partitions currently held by a spill store (metadata only).
    #[cfg(test)]
    pub(crate) fn stored_partitions(&self) -> usize {
        self.blocks
            .iter()
            .flatten()
            .filter(|p| p.handle().is_stored())
            .count()
    }

    /// Approximate total size of every block in bytes, from metadata only — stored
    /// blocks answer from the size cached at check-in, so costing a fully spilled
    /// grid triggers no load-backs. Budget-accounted result caches use this to
    /// charge a grid-backed handle against their byte budget.
    pub fn approx_size_bytes(&self) -> usize {
        self.blocks
            .iter()
            .flatten()
            .map(|p| p.handle().approx_size_bytes())
            .sum()
    }

    /// Logical shape of the whole frame.
    pub(crate) fn shape(&self) -> (usize, usize) {
        let rows: usize = self.blocks.iter().map(|band| band[0].n_rows()).sum();
        let cols: usize = self
            .blocks
            .first()
            .map(|band| band.iter().map(Partition::n_cols).sum())
            .unwrap_or(0);
        (rows, cols)
    }

    /// Per-band logical row counts, from metadata only (no block is loaded).
    pub fn band_row_counts(&self) -> Vec<usize> {
        self.blocks.iter().map(|band| band[0].n_rows()).collect()
    }

    /// Each band's global row offset — the position of its first row in the whole
    /// frame — from metadata only.
    pub(crate) fn band_row_offsets(&self) -> Vec<usize> {
        row_offsets(self.band_row_counts().into_iter())
    }

    /// Logical column labels paired with their known domains, from metadata only: no
    /// block is loaded (and in particular no spilled block is read back), mirroring
    /// what [`PartitionGrid::shape`] does for dimensions. `None` when a deferred
    /// transpose hides the logical columns — those callers materialise instead.
    pub(crate) fn schema(&self) -> Option<df_core::handle::FrameSchema> {
        let Some(first) = self.blocks.first() else {
            return Some(Vec::new());
        };
        let mut out = Vec::new();
        for part in first {
            if part.is_deferred_transpose() {
                // Scan-rooted grids still answer: the scan knew its schema before
                // any block existed, so the deferred reorientation hides nothing.
                return self.scan_fallback_schema();
            }
            let labels = part.handle().col_labels();
            let domains = part.handle().col_domains();
            out.extend(labels.into_vec().into_iter().zip(domains));
        }
        Some(out)
    }

    /// Answer `schema()` for a scan-rooted grid whose blocks defer a transpose. At
    /// even parity the scan's own reconciled schema applies; at odd parity the
    /// logical columns are the scan's global row indices — statically known (with
    /// unknowable per-column domains) only when no pushed predicate filtered rows.
    fn scan_fallback_schema(&self) -> Option<df_core::handle::FrameSchema> {
        let scan = self.scan_schema.as_deref()?;
        if !scan.transposed {
            return Some(scan.columns.clone());
        }
        scan.sequential_rows.then(|| {
            (0..self.shape().1)
                .map(|i| (df_types::cell::Cell::Int(i as i64), None))
                .collect()
        })
    }

    /// Consume the grid, returning its partitions.
    pub fn into_blocks(self) -> Vec<Vec<Partition>> {
        self.blocks
    }

    /// Run a block-by-block operator over the grid: `f` receives every block in
    /// row-band-major order and in *stored* orientation (pending transposes are set
    /// aside, not resolved — the operator must commute with transpose, as per-cell maps
    /// do) and returns one same-shaped output per block. Each output takes over its
    /// input's place in the grid by band and column *index*, pending transpose
    /// included, so an emptied band keeps its own slot.
    pub(crate) fn replace_blocks(
        self,
        f: impl FnOnce(Vec<Partition>) -> DfResult<Vec<Partition>>,
    ) -> DfResult<PartitionGrid> {
        let (bands, width) = (self.n_row_bands(), self.n_col_bands());
        let (stored, pending): (Vec<Partition>, Vec<bool>) = self
            .blocks
            .into_iter()
            .flatten()
            .map(|mut part| {
                let pending = std::mem::take(&mut part.transposed);
                (part, pending)
            })
            .unzip();
        let outputs = f(stored)?;
        if outputs.len() != pending.len() {
            return Err(DfError::shape(
                format!("{} blocks", pending.len()),
                format!("{} blocks", outputs.len()),
            ));
        }
        let mut outputs = outputs.into_iter().zip(pending).map(|(mut part, pending)| {
            part.transposed = pending;
            part
        });
        let blocks = (0..bands)
            .map(|_| outputs.by_ref().take(width).collect())
            .collect();
        Ok(PartitionGrid {
            blocks,
            scan_schema: None,
        })
    }

    /// Build a grid from row bands that each hold a full-width in-memory frame, each
    /// band checked into `store` when one is provided.
    pub fn from_row_bands_in(
        bands: Vec<DataFrame>,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionGrid> {
        let parts: Vec<Partition> = bands
            .into_iter()
            .map(|frame| Partition::new_in(frame, store))
            .collect::<DfResult<_>>()?;
        Ok(PartitionGrid::from_band_partitions(parts))
    }

    /// Build a row-partitioned grid from full-width band partitions, in order.
    pub(crate) fn from_band_partitions(parts: Vec<Partition>) -> PartitionGrid {
        PartitionGrid {
            blocks: parts.into_iter().map(|part| vec![part]).collect(),
            scan_schema: None,
        }
    }

    /// Consume the grid into one full-width [`Partition`] per row band. Bands already
    /// held as a single block are moved without loading anything; multi-block bands
    /// are assembled one at a time and checked into `store` — so the conversion never
    /// holds more than one assembled band in memory beyond the store's budget.
    pub(crate) fn into_band_partitions(
        self,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<Vec<Partition>> {
        self.blocks
            .into_iter()
            .map(|mut band| match band.len() {
                1 => Ok(band.remove(0)),
                _ => Partition::new_in(stitch_owned(band)?, store),
            })
            .collect()
    }

    /// Materialise one full-width row band by index (resolving deferred transposes),
    /// leaving the grid intact. Streaming consumers — the banded CSV writer above
    /// all — call this once per band, so only one band is resident at a time even
    /// when the grid is larger than memory.
    pub fn band(&self, index: usize) -> DfResult<DataFrame> {
        let band = self.blocks.get(index).ok_or(DfError::IndexOutOfBounds {
            axis: Axis::RowBand,
            index,
            len: self.blocks.len(),
        })?;
        hstack_all(
            band.iter()
                .map(Partition::materialize)
                .collect::<DfResult<_>>()?,
        )
    }

    /// Materialise every row band as a full-width frame (resolving deferred
    /// transposes), returned in order. This is the repartitioning step operators that
    /// need whole rows use.
    pub(crate) fn row_bands(&self) -> DfResult<Vec<DataFrame>> {
        (0..self.n_row_bands()).map(|i| self.band(i)).collect()
    }

    /// Like [`PartitionGrid::row_bands`], but consuming the grid: blocks that need no
    /// deferred transpose are moved instead of cloned (and their store entries freed),
    /// so assembling an owned grid copies no cells on the common row-partitioned path.
    pub(crate) fn into_row_bands(self) -> DfResult<Vec<DataFrame>> {
        self.blocks.into_iter().map(stitch_owned).collect()
    }

    /// Assemble the full logical dataframe.
    pub fn assemble(&self) -> DfResult<DataFrame> {
        setops::union_all(self.row_bands()?)
    }

    /// Assemble by consuming the grid — the copy-free variant of
    /// [`PartitionGrid::assemble`] for callers that own the grid.
    pub fn into_dataframe(self) -> DfResult<DataFrame> {
        setops::union_all(self.into_row_bands()?)
    }

    /// The metadata-only TRANSPOSE (paper §3.1): swap the grid axes and flip every
    /// block's orientation flag. No cell is copied — stored blocks merely gain another
    /// reference-counted handle; blocks materialise their transposed data only if a
    /// later operator needs it.
    pub(crate) fn transpose(&self) -> PartitionGrid {
        let row_bands = self.n_row_bands();
        let col_bands = self.n_col_bands();
        let mut blocks: Vec<Vec<Partition>> = Vec::with_capacity(col_bands);
        for c in 0..col_bands {
            let mut band = Vec::with_capacity(row_bands);
            for r in 0..row_bands {
                let mut part = self.blocks[r][c].clone();
                part.transposed = !part.transposed;
                band.push(part);
            }
            blocks.push(band);
        }
        PartitionGrid {
            blocks,
            // A metadata-only transpose flips the scan schema's parity rather than
            // discarding it; schema() adjusts its answer accordingly.
            scan_schema: self.scan_schema.as_ref().map(|s| {
                Arc::new(ScanSchema {
                    transposed: !s.transposed,
                    ..(**s).clone()
                })
            }),
        }
    }

    /// First `k` logical rows, touching only the row bands needed to produce them
    /// (the partition-aware half of §6.1.2 prefix execution).
    pub fn prefix(&self, k: usize) -> DfResult<DataFrame> {
        self.edge_rows(k, false)
    }

    /// Last `k` logical rows, touching only the trailing row bands needed to produce
    /// them — the suffix mirror of [`PartitionGrid::prefix`], so `tail` inspection
    /// (§6.1.2) never assembles the whole frame either.
    pub(crate) fn suffix(&self, k: usize) -> DfResult<DataFrame> {
        self.edge_rows(k, true)
    }

    /// The `k` rows at one end of the frame, walking bands inward from that end.
    fn edge_rows(&self, k: usize, from_end: bool) -> DfResult<DataFrame> {
        let mut collected: Vec<DataFrame> = Vec::new();
        let mut remaining = k;
        for step in 0..self.n_row_bands() {
            // `k == 0` still visits one band: the empty result keeps its columns.
            if remaining == 0 && !collected.is_empty() {
                break;
            }
            let take = match from_end {
                true => self.band(self.n_row_bands() - 1 - step)?.tail(remaining),
                false => self.band(step)?.head(remaining),
            };
            remaining = remaining.saturating_sub(take.n_rows());
            collected.push(take);
        }
        if from_end {
            collected.reverse();
        }
        setops::union_all(collected)
    }

    /// LIMIT: the first (`from_end`: last) `k` logical rows as one band, loading only
    /// the row bands they come from.
    pub(crate) fn limit_in(
        &self,
        k: usize,
        from_end: bool,
        store: Option<&Arc<SpillStore>>,
    ) -> DfResult<PartitionGrid> {
        PartitionGrid::single_in(self.edge_rows(k, from_end)?, store)
    }

    /// Number of partitions whose transpose is still deferred (used in tests and the
    /// partitioning ablation to verify that TRANSPOSE really was metadata-only).
    pub fn deferred_transposes(&self) -> usize {
        self.blocks
            .iter()
            .flatten()
            .filter(|p| p.is_deferred_transpose())
            .count()
    }
}

/// Concatenate all frames side by side with a single pre-sized column vector, moving
/// each frame's columns instead of cloning them. Row labels come from the first
/// frame; row counts must agree. Equivalent to a left-to-right fold of pairwise
/// horizontal concatenation, but O(total columns) instead of re-copying the
/// accumulator per frame.
pub(crate) fn hstack_all(frames: Vec<DataFrame>) -> DfResult<DataFrame> {
    let mut frames = frames;
    if frames.len() <= 1 {
        return Ok(frames.pop().unwrap_or_else(DataFrame::empty));
    }
    let n_rows = frames[0].n_rows();
    if let Some(bad) = frames.iter().find(|f| f.n_rows() != n_rows) {
        return Err(DfError::shape(
            format!("{n_rows} rows"),
            format!("{} rows", bad.n_rows()),
        ));
    }
    let total_cols: usize = frames.iter().map(DataFrame::n_cols).sum();
    let mut columns: Vec<Column> = Vec::with_capacity(total_cols);
    let mut col_labels: Vec<df_types::cell::Cell> = Vec::with_capacity(total_cols);
    let mut row_labels: Option<Labels> = None;
    for frame in frames {
        let (frame_columns, frame_row_labels, frame_col_labels) = frame.into_parts();
        if row_labels.is_none() {
            row_labels = Some(frame_row_labels);
        }
        columns.extend(frame_columns);
        col_labels.extend(frame_col_labels.into_vec());
    }
    DataFrame::from_parts(
        columns,
        row_labels.unwrap_or_default(),
        Labels::new(col_labels),
    )
}

/// Running offsets of consecutive runs of rows: where each run starts.
pub(crate) fn row_offsets(counts: impl Iterator<Item = usize>) -> Vec<usize> {
    counts
        .scan(0usize, |next, len| {
            Some(std::mem::replace(next, *next + len))
        })
        .collect()
}

/// Consume one row band's blocks into its full-width frame, moving blocks out of
/// their handles (and freeing their store entries) where no transpose is pending.
fn stitch_owned(band: Vec<Partition>) -> DfResult<DataFrame> {
    hstack_all(
        band.into_iter()
            .map(Partition::into_materialized)
            .collect::<DfResult<_>>()?,
    )
}

/// Split `len` items into contiguous `(start, end)` ranges of at most `chunk` items.
fn split_ranges(len: usize, chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return vec![(0, 0)];
    }
    let mut ranges = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn frame(rows: usize, cols: usize) -> DataFrame {
        let columns: Vec<Vec<df_types::cell::Cell>> = (0..cols)
            .map(|j| (0..rows).map(|i| cell((i * cols + j) as i64)).collect())
            .collect();
        let labels: Vec<String> = (0..cols).map(|j| format!("c{j}")).collect();
        DataFrame::from_columns(labels, columns).unwrap()
    }

    #[test]
    fn split_ranges_covers_everything() {
        assert_eq!(split_ranges(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(split_ranges(4, 4), vec![(0, 4)]);
        assert_eq!(split_ranges(0, 4), vec![(0, 0)]);
    }

    #[test]
    fn row_column_and_block_schemes_produce_expected_grids() {
        let df = frame(100, 8);
        let config = PartitionConfig {
            target_rows: 30,
            target_cols: 3,
        };
        let rows =
            PartitionGrid::from_dataframe_in(&df, PartitionScheme::Row, config, None).unwrap();
        assert_eq!(rows.n_row_bands(), 4);
        assert_eq!(rows.n_col_bands(), 1);
        let cols =
            PartitionGrid::from_dataframe_in(&df, PartitionScheme::Column, config, None).unwrap();
        assert_eq!(cols.n_row_bands(), 1);
        assert_eq!(cols.n_col_bands(), 3);
        let blocks =
            PartitionGrid::from_dataframe_in(&df, PartitionScheme::Block, config, None).unwrap();
        assert_eq!(blocks.n_partitions(), 12);
        assert_eq!(blocks.shape(), (100, 8));
        assert_eq!(blocks.stored_partitions(), 0);
    }

    #[test]
    fn assemble_round_trips_the_original_frame() {
        let df = frame(57, 5)
            .with_row_labels((0..57).map(|i| format!("r{i}")).collect::<Vec<_>>())
            .unwrap();
        for scheme in [
            PartitionScheme::Row,
            PartitionScheme::Column,
            PartitionScheme::Block,
        ] {
            let grid = PartitionGrid::from_dataframe_in(
                &df,
                scheme,
                PartitionConfig {
                    target_rows: 10,
                    target_cols: 2,
                },
                None,
            )
            .unwrap();
            let back = grid.assemble().unwrap();
            assert!(back.same_data(&df), "scheme {scheme:?}");
        }
    }

    #[test]
    fn stored_grids_round_trip_through_a_tight_store() {
        // A store whose budget is a quarter of the frame forces spilling during
        // partitioning; the assembled result must still be identical and the spill
        // directory must drain as consumed handles free their entries.
        let df = frame(80, 4)
            .with_row_labels((0..80).map(|i| format!("r{i}")).collect::<Vec<_>>())
            .unwrap();
        let store = Arc::new(SpillStore::new(df.approx_size_bytes() / 4).unwrap());
        for scheme in [
            PartitionScheme::Row,
            PartitionScheme::Column,
            PartitionScheme::Block,
        ] {
            let grid = PartitionGrid::from_dataframe_in(
                &df,
                scheme,
                PartitionConfig {
                    target_rows: 10,
                    target_cols: 2,
                },
                Some(&store),
            )
            .unwrap();
            assert_eq!(grid.stored_partitions(), grid.n_partitions());
            assert_eq!(grid.shape(), (80, 4));
            // Non-consuming assembly keeps the entries alive…
            assert!(grid.assemble().unwrap().same_data(&df), "scheme {scheme:?}");
            // …while consuming assembly frees them.
            assert!(grid.into_dataframe().unwrap().same_data(&df));
        }
        let stats = store.stats();
        assert!(stats.spill_outs > 0, "tight budget must have spilled");
        assert_eq!(stats.in_memory + stats.spilled, 0, "all entries freed");
    }

    #[test]
    fn metadata_transpose_defers_block_work() {
        let df = frame(40, 6);
        let grid = PartitionGrid::from_dataframe_in(
            &df,
            PartitionScheme::Block,
            PartitionConfig {
                target_rows: 10,
                target_cols: 2,
            },
            None,
        )
        .unwrap();
        let transposed = grid.transpose();
        assert_eq!(transposed.shape(), (6, 40));
        assert_eq!(transposed.deferred_transposes(), transposed.n_partitions());
        // The assembled result equals a real transpose.
        let expected = df_core::ops::reshape::transpose(&df).unwrap();
        assert!(transposed.assemble().unwrap().same_data(&expected));
        // Double metadata transpose returns to the original orientation lazily too.
        let back = transposed.transpose();
        assert_eq!(back.deferred_transposes(), 0);
        assert!(back.assemble().unwrap().same_data(&df));
    }

    #[test]
    fn transpose_of_a_stored_grid_is_metadata_only() {
        let df = frame(30, 4);
        let store = Arc::new(SpillStore::new(1).unwrap()); // spill everything
        let grid = PartitionGrid::from_dataframe_in(
            &df,
            PartitionScheme::Block,
            PartitionConfig {
                target_rows: 10,
                target_cols: 2,
            },
            Some(&store),
        )
        .unwrap();
        let loads_before = store.stats().load_backs;
        let transposed = grid.transpose();
        // No block was loaded back to transpose the grid.
        assert_eq!(store.stats().load_backs, loads_before);
        let expected = df_core::ops::reshape::transpose(&df).unwrap();
        assert!(transposed.assemble().unwrap().same_data(&expected));
    }

    #[test]
    fn prefix_touches_only_leading_bands() {
        let df = frame(100, 3);
        let grid = PartitionGrid::from_dataframe_in(
            &df,
            PartitionScheme::Row,
            PartitionConfig {
                target_rows: 10,
                target_cols: 8,
            },
            None,
        )
        .unwrap();
        let head = grid.prefix(15).unwrap();
        assert_eq!(head.shape(), (15, 3));
        assert!(head.same_data(&df.head(15)));
        let all = grid.prefix(1000).unwrap();
        assert_eq!(all.shape(), (100, 3));
    }

    #[test]
    fn suffix_touches_only_trailing_bands() {
        let df = frame(100, 3)
            .with_row_labels((0..100).map(|i| format!("r{i}")).collect::<Vec<_>>())
            .unwrap();
        let grid = PartitionGrid::from_dataframe_in(
            &df,
            PartitionScheme::Row,
            PartitionConfig {
                target_rows: 10,
                target_cols: 8,
            },
            None,
        )
        .unwrap();
        let tail = grid.suffix(15).unwrap();
        assert_eq!(tail.shape(), (15, 3));
        assert!(tail.same_data(&df.tail(15)));
        let all = grid.suffix(1000).unwrap();
        assert!(all.same_data(&df));
        assert_eq!(grid.suffix(0).unwrap().n_rows(), 0);
        // Block scheme exercises the hstack path inside suffix.
        let blocks = PartitionGrid::from_dataframe_in(
            &df,
            PartitionScheme::Block,
            PartitionConfig {
                target_rows: 30,
                target_cols: 2,
            },
            None,
        )
        .unwrap();
        assert!(blocks.suffix(37).unwrap().same_data(&df.tail(37)));
    }

    /// Pairwise horizontal concatenation: the fold `hstack_all` must match.
    fn hstack(left: &DataFrame, right: &DataFrame) -> DfResult<DataFrame> {
        let mut columns = left.columns().to_vec();
        columns.extend(right.columns().iter().cloned());
        let labels = left.col_labels().concat(right.col_labels());
        DataFrame::from_parts(columns, left.row_labels().clone(), labels)
    }

    #[test]
    fn hstack_all_matches_the_pairwise_fold() {
        let a = frame(5, 2);
        let b = frame(5, 1);
        let c = frame(5, 3);
        let folded = hstack(&hstack(&a, &b).unwrap(), &c).unwrap();
        let multi = hstack_all(vec![a.clone(), b.clone(), c]).unwrap();
        assert!(multi.same_data(&folded));
        assert!(hstack_all(vec![]).unwrap().same_data(&DataFrame::empty()));
        assert!(hstack_all(vec![a.clone()]).unwrap().same_data(&a));
        assert!(hstack_all(vec![a, frame(4, 1)]).is_err());
    }

    #[test]
    fn single_and_row_band_constructors() {
        let df = frame(12, 2);
        let single = PartitionGrid::single_in(df.clone(), None).unwrap();
        assert_eq!(single.n_partitions(), 1);
        assert!(single.assemble().unwrap().same_data(&df));
        let bands = PartitionGrid::from_row_bands_in(vec![df.head(6), df.tail(6)], None).unwrap();
        assert_eq!(bands.n_row_bands(), 2);
        assert_eq!(bands.shape(), (12, 2));
        let store = Arc::new(SpillStore::unbounded().unwrap());
        let stored =
            PartitionGrid::from_row_bands_in(vec![df.head(6), df.tail(6)], Some(&store)).unwrap();
        assert_eq!(stored.stored_partitions(), 2);
        assert!(stored.into_dataframe().unwrap().same_data(&df));
    }

    #[test]
    fn columnar_partitions_round_trip_with_and_without_a_store() {
        let mut df = frame(24, 3);
        df.columns_mut()[1].declare_domain(Domain::Int);
        let block = ColumnBlock::from_frame(&df);

        // Resident columnar handle: shape, labels and domains answer in place…
        let resident = Partition::new_columnar_in(block.clone(), None).unwrap();
        assert_eq!((resident.n_rows(), resident.n_cols()), (24, 3));
        assert_eq!(
            resident.handle().col_domains()[1],
            Some(Domain::Int),
            "declared domain survives the columnar check-in"
        );
        assert!(resident.materialize().unwrap().same_data(&df));

        // …and a tight store spills the typed buffers, not a decoded frame.
        let store = Arc::new(SpillStore::new(1).unwrap());
        let stored = Partition::new_columnar_in(block, Some(&store)).unwrap();
        assert_eq!(store.stats().spilled, 1);
        let loads_before = store.stats().load_backs;
        assert_eq!((stored.n_rows(), stored.n_cols()), (24, 3));
        assert_eq!(stored.handle().col_domains()[1], Some(Domain::Int));
        assert_eq!(
            store.stats().load_backs,
            loads_before,
            "metadata queries must not load spilled columns"
        );
        assert!(stored.into_materialized().unwrap().same_data(&df));
    }

    #[test]
    fn spilled_grid_schema_answers_with_zero_load_backs() {
        let mut df = frame(40, 2);
        df.columns_mut()[0].declare_domain(Domain::Int);
        let store = Arc::new(SpillStore::new(1).unwrap()); // spill everything
        let head = ColumnBlock::from_frame(&df.head(20));
        let tail = ColumnBlock::from_frame(&df.tail(20));
        let parts = vec![
            Partition::new_columnar_in(head, Some(&store)).unwrap(),
            Partition::new_columnar_in(tail, Some(&store)).unwrap(),
        ];
        let grid = PartitionGrid::from_band_partitions(parts);
        assert_eq!(grid.stored_partitions(), 2);
        let loads_before = store.stats().load_backs;
        let schema = grid.schema().expect("row-banded grids always answer");
        assert_eq!(
            store.stats().load_backs,
            loads_before,
            "schema() is metadata-only even on a fully spilled grid"
        );
        assert_eq!(schema.len(), 2);
        assert_eq!(schema[0].0, cell("c0"));
        assert_eq!(schema[0].1, Some(Domain::Int));
        assert_eq!(schema[1].0, cell("c1"));
        // A deferred transpose hides the logical columns: schema declines.
        assert!(grid.transpose().schema().is_none());
    }

    #[test]
    fn scan_rooted_grid_schema_survives_deferred_transpose() {
        let mut df = frame(12, 2);
        df.columns_mut()[0].declare_domain(Domain::Int);
        df.columns_mut()[1].declare_domain(Domain::Int);
        let store = Arc::new(SpillStore::new(1).unwrap()); // spill everything
        let scan_schema: df_core::handle::FrameSchema = vec![
            (cell("c0"), Some(Domain::Int)),
            (cell("c1"), Some(Domain::Int)),
        ];
        let parts = vec![
            Partition::new_columnar_in(ColumnBlock::from_frame(&df.head(6)), Some(&store)).unwrap(),
            Partition::new_columnar_in(ColumnBlock::from_frame(&df.tail(6)), Some(&store)).unwrap(),
        ];
        let grid =
            PartitionGrid::from_band_partitions(parts).with_scan_schema(scan_schema.clone(), true);
        assert_eq!(grid.schema(), Some(scan_schema.clone()));
        // Odd transpose parity on a sequential (predicate-free) scan: the logical
        // columns are the scan's global row labels 0..n, so schema() still answers.
        let flipped = grid.transpose();
        let loads_before = store.stats().load_backs;
        let schema = flipped
            .schema()
            .expect("scan-rooted grids answer through a deferred transpose");
        assert_eq!(store.stats().load_backs, loads_before, "metadata-only");
        assert_eq!(schema.len(), 12);
        assert_eq!(schema[0].0, cell(0));
        assert_eq!(schema[11].0, cell(11));
        assert!(schema.iter().all(|(_, domain)| domain.is_none()));
        // Even parity again: back to the scan's own schema.
        assert_eq!(flipped.transpose().schema(), Some(scan_schema.clone()));
        // A filtered scan's surviving row labels are not statically known, so odd
        // parity still declines.
        let df2 = frame(12, 2);
        let parts2 =
            vec![Partition::new_columnar_in(ColumnBlock::from_frame(&df2), Some(&store)).unwrap()];
        let filtered =
            PartitionGrid::from_band_partitions(parts2).with_scan_schema(scan_schema, false);
        assert!(filtered.transpose().schema().is_none());
    }

    #[test]
    fn empty_frames_partition_cleanly() {
        let empty = DataFrame::from_rows(vec!["a", "b"], vec![]).unwrap();
        let grid = PartitionGrid::from_dataframe_in(
            &empty,
            PartitionScheme::Block,
            PartitionConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(grid.shape(), (0, 2));
        assert_eq!(grid.assemble().unwrap().shape(), (0, 2));
    }
}
