//! Hash and range shuffles: partition-parallel JOIN, SORT, DROP DUPLICATES and
//! DIFFERENCE.
//!
//! Paper §3.1 calls these the expensive operators of Table 1, and §3.3 runs them on a
//! task-parallel engine by *exchanging* rows between partitions so that every key
//! lands in exactly one partition. This module is that exchange layer, built from two
//! shapes and three kernels.
//!
//! **One exchange.** `exchange` is scatter → gather: a stage that splits every
//! band into slices, the transposition that hands slice `b` of every band to item `b`,
//! and a stage that combines each item's slices. The hash shuffle
//! ([`PartitionGrid::shuffle`]: [`BandTask::HashSplit`] → [`BandTask::Concat`], so on
//! the process backend every row crosses a process boundary as a checksummed block
//! frame), the order restoration (tag-range bins → sort by tag) and the range
//! partitioning of `parallel_sort` (splitter runs → stable k-way merge) are its three
//! callers.
//!
//! **One skeleton.** The dataframe algebra is *ordered* (Table 1: result order comes
//! from the parent or the left argument), so the hash operators share
//! `ordered_shuffle`: *tag* every input row with its global position, *shuffle* on the
//! key so equal keys are co-located while rows within a bucket keep their global order,
//! run a per-bucket *kernel*, and *restore* order by sorting back on the tags —
//! rangewise over the tag span, so the combined result is never materialised in one
//! piece — projecting the tags away. The three kernels are the hash-join probe
//! (`parallel_join`), first-occurrence de-duplication (`parallel_drop_duplicates`)
//! and the anti-join (`parallel_difference`). Small JOIN / DIFFERENCE build sides are
//! broadcast instead: the same probe / anti-join kernels run per left band against one
//! shared index, and left order is preserved outright.
//!
//! Bucket hashing uses [`Cell::hash_key`] through the deterministic [`StableHasher`],
//! which makes results identical across thread counts and runs.
//!
//! Every stage here is one [`ParallelExecutor::run_stage`] call: data moves as
//! [`Partition`] handles, is loaded only *inside* the worker that runs its item, and
//! every stage output is checked into the executor's
//! [`SpillStore`](df_storage::spill::SpillStore) when there is one — so intermediate
//! bands, bucket slices and per-bucket results all live under the store's memory
//! budget, and the shuffle operators run out-of-core on inputs larger than memory.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hasher;

use df_types::cell::{Cell, StableHasher};
use df_types::error::{Axis, DfError, DfResult};
use df_types::labels::Labels;
use df_types::ColumnData;

use df_core::algebra::{JoinOn, JoinType, SortSpec};
use df_core::dataframe::{Column, DataFrame};
use df_core::ops::columnar::typed_for_keying;
use df_core::ops::setops;

use crate::backend::{one, BandTask};
use crate::executor::{outputs, CheckIn, ParallelExecutor, StageResults};
use crate::partition::{row_offsets, Partition, PartitionGrid};

/// Column label used to tag the left/only input's global row positions.
const POS_LABEL: &str = "__shuffle:pos";
/// Column label used to tag the right input's global row positions in joins.
const RIGHT_POS_LABEL: &str = "__shuffle:rpos";

/// Tuning knobs threaded from the engine configuration into the shuffle operators.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleOptions {
    /// Number of hash/range buckets rows are exchanged into.
    pub buckets: usize,
    /// Target rows per output band when re-banding order-restored results.
    pub band_rows: usize,
    /// JOIN / DIFFERENCE build sides up to this many rows are broadcast instead of
    /// shuffled.
    pub broadcast_rows: usize,
}

/// What a shuffle (or a per-bucket hash table) keys rows on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleKey {
    /// Hash the cells at these column positions.
    Positions(Vec<usize>),
    /// Hash the row label (JOIN on row labels).
    RowLabels,
}

impl PartitionGrid {
    /// The hash-shuffle primitive: redistribute rows into `buckets` row bands keyed by
    /// the hash of `key`, splitting every existing band in parallel and concatenating
    /// bucket-wise. Rows that share a key land in the same output band; rows within a
    /// band keep their global relative order.
    pub fn shuffle(
        &self,
        executor: &ParallelExecutor,
        key: &ShuffleKey,
        buckets: usize,
    ) -> DfResult<PartitionGrid> {
        let bands = self.clone().into_band_partitions(executor.store())?;
        let shuffled = shuffle_bands(executor, bands, key, buckets)?;
        Ok(PartitionGrid::from_band_partitions(shuffled))
    }
}

/// Hash one row's key cells into a stable bucket hash (the reference form of
/// [`KeyEncoder::hash`]; the shuffle tests cross-check bucket residency with it).
#[cfg(test)]
fn row_hash(frame: &DataFrame, i: usize, key: &ShuffleKey) -> u64 {
    let mut hasher = StableHasher::default();
    match key {
        ShuffleKey::Positions(positions) => {
            for &j in positions {
                frame.columns()[j].cells()[i].hash_key(&mut hasher);
            }
        }
        ShuffleKey::RowLabels => {
            if let Some(label) = frame.row_labels().get(i) {
                label.hash_key(&mut hasher);
            }
        }
    }
    hasher.finish()
}

/// Vectorized bucket hashing: one frame's key columns, pre-encoded as typed buffers
/// where possible, so streaming every row of a band through [`StableHasher`] skips
/// the per-cell enum dispatch. Hashes are byte-identical to streaming every key
/// cell through [`Cell::hash_key`] — bucket assignment must never depend on the
/// layout — and the encoder degrades to exactly that for columns (or whole keys)
/// without a typed form.
struct KeyEncoder<'a> {
    frame: &'a DataFrame,
    key: &'a ShuffleKey,
    /// Typed encodings aligned with `ShuffleKey::Positions`; empty for label keys.
    typed: Vec<Option<ColumnData>>,
}

impl<'a> KeyEncoder<'a> {
    fn new(frame: &'a DataFrame, key: &'a ShuffleKey) -> KeyEncoder<'a> {
        let typed = match key {
            ShuffleKey::Positions(positions) => positions
                .iter()
                .map(|&j| typed_for_keying(&frame.columns()[j]))
                .collect(),
            ShuffleKey::RowLabels => Vec::new(),
        };
        KeyEncoder { frame, key, typed }
    }

    fn hash(&self, i: usize) -> u64 {
        let mut hasher = StableHasher::default();
        match self.key {
            ShuffleKey::Positions(positions) => {
                for (typed, &j) in self.typed.iter().zip(positions) {
                    match typed {
                        Some(data) => data.hash_value_into(i, &mut hasher),
                        None => self.frame.columns()[j].cells()[i].hash_key(&mut hasher),
                    }
                }
            }
            ShuffleKey::RowLabels => {
                if let Some(label) = self.frame.row_labels().get(i) {
                    label.hash_key(&mut hasher);
                }
            }
        }
        hasher.finish()
    }
}

/// Group-key equality of two rows' key cells (the verification step behind the hash).
fn keys_match(
    a: &DataFrame,
    ai: usize,
    a_key: &ShuffleKey,
    b: &DataFrame,
    bi: usize,
    b_key: &ShuffleKey,
) -> bool {
    match (a_key, b_key) {
        (ShuffleKey::Positions(ap), ShuffleKey::Positions(bp)) => {
            ap.len() == bp.len()
                && ap.iter().zip(bp.iter()).all(|(&aj, &bj)| {
                    a.columns()[aj].cells()[ai].key_eq(&b.columns()[bj].cells()[bi])
                })
        }
        (ShuffleKey::RowLabels, ShuffleKey::RowLabels) => {
            match (a.row_labels().get(ai), b.row_labels().get(bi)) {
                (Some(x), Some(y)) => x.key_eq(y),
                _ => false,
            }
        }
        _ => false,
    }
}

fn validate_key(frame: &DataFrame, key: &ShuffleKey) -> DfResult<()> {
    if let ShuffleKey::Positions(positions) = key {
        for &j in positions {
            if j >= frame.n_cols() {
                return Err(DfError::IndexOutOfBounds {
                    axis: Axis::Column,
                    index: j,
                    len: frame.n_cols(),
                });
            }
        }
    }
    Ok(())
}

/// One stage item per partition.
fn singles(parts: Vec<Partition>) -> Vec<Vec<Partition>> {
    parts.into_iter().map(|part| vec![part]).collect()
}

/// Scatter → gather: `scatter` turns each of `parts` into a list of slices, slice `b`
/// of every part becomes the input list of item `b` (in part order), and `gather`
/// combines each item's slices. Both halves are ordinary stages, so slices live in the
/// store between them and each gather item loads only its own.
fn exchange<S, G>(
    executor: &ParallelExecutor,
    (scatter_stage, gather_stage): (&'static str, &'static str),
    parts: Vec<Partition>,
    scatter: S,
    gather: G,
) -> DfResult<StageResults<()>>
where
    S: Fn(usize, Vec<DataFrame>) -> DfResult<(Vec<DataFrame>, ())> + Send + Sync,
    G: Fn(usize, Vec<DataFrame>) -> DfResult<(Vec<DataFrame>, ())> + Send + Sync,
{
    let scattered = executor.run_stage(scatter_stage, CheckIn::Frame, singles(parts), scatter)?;
    let mut gathered: Vec<Vec<Partition>> = Vec::new();
    for (slices, ()) in scattered {
        gathered.resize_with(gathered.len().max(slices.len()), Vec::new);
        for (item, slice) in gathered.iter_mut().zip(slices) {
            item.push(slice);
        }
    }
    executor.run_stage(gather_stage, CheckIn::Frame, gathered, gather)
}

/// Shuffle full-width band partitions into `buckets` key-hashed bands: the exchange
/// whose scatter is [`BandTask::HashSplit`] and whose gather is [`BandTask::Concat`],
/// both placed on the executor's backend.
fn shuffle_bands(
    executor: &ParallelExecutor,
    bands: Vec<Partition>,
    key: &ShuffleKey,
    buckets: usize,
) -> DfResult<Vec<Partition>> {
    executor.record_shuffle();
    let split_task = BandTask::HashSplit {
        key: key.clone(),
        parts: buckets.max(1),
    };
    let split = executor.placed(&split_task);
    let shuffled = exchange(
        executor,
        ("shuffle.split", "shuffle.concat"),
        bands,
        |i, band| {
            // Band exchange is the one place every row crosses worker boundaries; the
            // failpoint makes that hop chaos-testable like the storage hops.
            df_types::fail::check("shuffle.exchange")?;
            split(i, band)
        },
        executor.placed(&BandTask::Concat),
    )?;
    Ok(outputs(shuffled))
}

/// Split one band into `p` key-hashed bucket slices, preserving row order per bucket.
/// `pub(crate)` because it is also the body of [`crate::backend::BandTask::HashSplit`].
pub(crate) fn split_band(band: DataFrame, key: &ShuffleKey, p: usize) -> DfResult<Vec<DataFrame>> {
    validate_key(&band, key)?;
    if p == 1 {
        return Ok(vec![band]);
    }
    let mut bucket_rows: Vec<Vec<usize>> = vec![Vec::new(); p];
    let encoder = KeyEncoder::new(&band, key);
    for i in 0..band.n_rows() {
        let bucket = (encoder.hash(i) % p as u64) as usize;
        bucket_rows[bucket].push(i);
    }
    bucket_rows
        .into_iter()
        .map(|rows| band.take_rows(&rows))
        .collect()
}

/// Hash index over one frame's rows: bucket hash -> row positions (verified against
/// [`keys_match`] before use, because distinct keys may share a hash).
struct RowIndex {
    map: HashMap<u64, Vec<usize>>,
}

impl RowIndex {
    fn build(frame: &DataFrame, key: &ShuffleKey) -> DfResult<RowIndex> {
        validate_key(frame, key)?;
        let encoder = KeyEncoder::new(frame, key);
        let mut map: HashMap<u64, Vec<usize>> = HashMap::with_capacity(frame.n_rows());
        for i in 0..frame.n_rows() {
            map.entry(encoder.hash(i)).or_default().push(i);
        }
        Ok(RowIndex { map })
    }

    fn candidates(&self, hash: u64) -> &[usize] {
        self.map.get(&hash).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Tag every band with a trailing column of global row positions so order can be
/// restored after a hash shuffle scatters the rows. Band offsets come from grid
/// metadata, so no band is loaded before its own worker task runs.
fn tag_bands(
    executor: &ParallelExecutor,
    bands: Vec<Partition>,
    label: &str,
) -> DfResult<Vec<Partition>> {
    let starts = row_offsets(bands.iter().map(Partition::n_rows));
    let tagged = executor.run_stage("shuffle.tag", CheckIn::Frame, singles(bands), |i, band| {
        let mut band = one(band)?;
        let cells: Vec<Cell> = (starts[i]..starts[i] + band.n_rows())
            .map(|position| Cell::Int(position as i64))
            .collect();
        band.push_column(Cell::Str(label.to_string()), Column::new(cells))?;
        Ok((vec![band], ()))
    })?;
    Ok(outputs(tagged))
}

/// Sort per-bucket result partitions back into input order by their integer
/// position-tag columns (identified by *position*, never by label — user columns are
/// free to share the sentinel labels), project the tags away, and emit the result as
/// band partitions of at most `band_rows` rows so downstream operators keep their
/// partition parallelism. Null primary tags (the OUTER join's unmatched-right block)
/// sort last, minor tags breaking the tie.
///
/// The restoration is itself an exchange, so the combined result is never
/// materialised in one piece: primary tags lie in `0..tag_span`, so that span is
/// carved into contiguous value ranges (sized from the total row count so a range
/// holds ~`band_rows` rows); the scatter splits each bucket into per-range slices
/// (plus a trailing range for null primary tags), the gather assembles one range's
/// slices, sorts them by the full tag tuple and projects the tags away. Concatenating
/// the ranges in order is a global sort because the range of a row is monotone in its
/// primary tag.
fn restore_order(
    executor: &ParallelExecutor,
    parts: Vec<Partition>,
    tag_positions: &[usize],
    tag_span: usize,
    band_rows: usize,
) -> DfResult<Vec<Partition>> {
    let band_rows = band_rows.max(1);
    let total_rows: usize = parts.iter().map(Partition::n_rows).sum();
    let n_ranges = total_rows.div_ceil(band_rows).max(1);
    let primary = tag_positions[0];
    let span = tag_span.max(1);
    let split_by_range = |_: usize, bucket: Vec<DataFrame>| {
        let frame = one(bucket)?;
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); n_ranges + 1];
        for i in 0..frame.n_rows() {
            let bin = match frame.columns()[primary].cells()[i].as_i64() {
                Some(t) => ((t.max(0) as usize).min(span - 1) * n_ranges / span).min(n_ranges - 1),
                None => n_ranges,
            };
            bins[bin].push(i);
        }
        let slices: DfResult<Vec<DataFrame>> =
            bins.iter().map(|rows| frame.take_rows(rows)).collect();
        Ok((slices?, ()))
    };
    let sort_range = |_: usize, slices: Vec<DataFrame>| {
        let frame = setops::union_all(slices)?;
        let tag = |j: usize, i: usize| frame.columns()[j].cells()[i].as_i64();
        let mut order: Vec<usize> = (0..frame.n_rows()).collect();
        // Tag tuples are unique by construction, so an unstable sort is deterministic.
        order.sort_unstable_by(|&a, &b| {
            for &j in tag_positions {
                let ord = match (tag(j, a), tag(j, b)) {
                    (Some(x), Some(y)) => x.cmp(&y),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => Ordering::Equal,
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        let keep: Vec<usize> = (0..frame.n_cols())
            .filter(|j| !tag_positions.contains(j))
            .collect();
        let col_labels = Labels::new(
            keep.iter()
                .map(|&j| frame.col_labels().get(j).cloned().unwrap_or(Cell::Null))
                .collect(),
        );
        let mut chunks: Vec<&[usize]> = order.chunks(band_rows).collect();
        if chunks.is_empty() {
            // Keep an explicit empty band so the grid preserves the column structure.
            chunks.push(&[]);
        }
        let mut bands = Vec::with_capacity(chunks.len());
        for positions in chunks {
            let columns: Vec<Column> = keep
                .iter()
                .map(|&j| gather(&frame.columns()[j], positions))
                .collect();
            let row_labels = frame.row_labels().select(positions)?;
            bands.push(DataFrame::from_parts(
                columns,
                row_labels,
                col_labels.clone(),
            )?);
        }
        Ok((bands, ()))
    };
    let banded = exchange(
        executor,
        ("shuffle.order_split", "shuffle.order_merge"),
        parts,
        split_by_range,
        sort_range,
    )?;
    // Flatten in range order, dropping the empty bands empty ranges produce (but
    // keeping one so an all-empty result still carries its column structure).
    let mut bands: Vec<Partition> = Vec::new();
    let mut structural_empty: Option<Partition> = None;
    for part in outputs(banded) {
        if part.n_rows() > 0 {
            bands.push(part);
        } else if structural_empty.is_none() {
            structural_empty = Some(part);
        }
    }
    if bands.is_empty() {
        bands.extend(structural_empty);
    }
    Ok(bands)
}

/// Clone the cells of `column` at `positions` into a new column, keeping a known
/// domain (row selection cannot change a column's domain).
fn gather(column: &Column, positions: &[usize]) -> Column {
    let cells: Vec<Cell> = positions
        .iter()
        .map(|&i| column.cells()[i].clone())
        .collect();
    preserve_domain(column, cells)
}

/// Like [`gather`], but `None` positions produce nulls (null-extension of unmatched
/// join rows). Null belongs to every domain, so a known domain still survives.
fn gather_optional(column: &Column, positions: &[Option<usize>]) -> Column {
    let cells: Vec<Cell> = positions
        .iter()
        .map(|p| match p {
            Some(i) => column.cells()[*i].clone(),
            None => Cell::Null,
        })
        .collect();
    preserve_domain(column, cells)
}

fn preserve_domain(source: &Column, cells: Vec<Cell>) -> Column {
    match source.known_domain() {
        Some(domain) => Column::with_domain(cells, domain),
        None => Column::new(cells),
    }
}

// ---------------------------------------------------------------------------
// JOIN
// ---------------------------------------------------------------------------

/// Resolved key/value column layout of one join.
struct JoinLayout {
    left_key: ShuffleKey,
    right_key: ShuffleKey,
    /// Right columns emitted after the left columns (all of them for a label join,
    /// the non-key ones for a column join).
    right_value_positions: Vec<usize>,
}

/// Resolve the layout from the two inputs' column labels alone, so callers can use
/// band *metadata* (handle-cached labels) instead of materialising a sample band.
fn join_layout(left_labels: &Labels, right_labels: &Labels, on: &JoinOn) -> DfResult<JoinLayout> {
    match on {
        JoinOn::RowLabels => Ok(JoinLayout {
            left_key: ShuffleKey::RowLabels,
            right_key: ShuffleKey::RowLabels,
            right_value_positions: (0..right_labels.len()).collect(),
        }),
        JoinOn::Columns(keys) => {
            let left_positions: Vec<usize> = keys
                .iter()
                .map(|k| left_labels.position_of(k, "column"))
                .collect::<DfResult<_>>()?;
            let right_positions: Vec<usize> = keys
                .iter()
                .map(|k| right_labels.position_of(k, "column"))
                .collect::<DfResult<_>>()?;
            let right_value_positions: Vec<usize> = (0..right_labels.len())
                .filter(|j| !right_positions.contains(j))
                .collect();
            Ok(JoinLayout {
                left_key: ShuffleKey::Positions(left_positions),
                right_key: ShuffleKey::Positions(right_positions),
                right_value_positions,
            })
        }
    }
}

/// Hash-join one left band against an indexed right frame, preserving left order.
/// Returns the joined band plus the set of matched right rows (for OUTER joins).
fn join_band(
    band: &DataFrame,
    right: &DataFrame,
    index: &RowIndex,
    layout: &JoinLayout,
    how: JoinType,
) -> DfResult<(DataFrame, Vec<bool>)> {
    let mut left_take: Vec<usize> = Vec::new();
    let mut right_take: Vec<Option<usize>> = Vec::new();
    let mut matched = vec![false; right.n_rows()];
    let encoder = KeyEncoder::new(band, &layout.left_key);
    for i in 0..band.n_rows() {
        let mut any = false;
        for &rp in index.candidates(encoder.hash(i)) {
            if keys_match(band, i, &layout.left_key, right, rp, &layout.right_key) {
                any = true;
                matched[rp] = true;
                left_take.push(i);
                right_take.push(Some(rp));
            }
        }
        if !any && matches!(how, JoinType::Left | JoinType::Outer) {
            left_take.push(i);
            right_take.push(None);
        }
    }
    let mut columns: Vec<Column> =
        Vec::with_capacity(band.n_cols() + layout.right_value_positions.len());
    for column in band.columns() {
        columns.push(gather(column, &left_take));
    }
    for &j in &layout.right_value_positions {
        columns.push(gather_optional(&right.columns()[j], &right_take));
    }
    let col_labels = joined_col_labels(band.col_labels(), right, layout);
    let row_labels = band.row_labels().select(&left_take)?;
    Ok((
        DataFrame::from_parts(columns, row_labels, col_labels)?,
        matched,
    ))
}

fn joined_col_labels(left_labels: &Labels, right: &DataFrame, layout: &JoinLayout) -> Labels {
    let value_labels = Labels::new(
        layout
            .right_value_positions
            .iter()
            .map(|&j| right.col_labels().get(j).cloned().unwrap_or(Cell::Null))
            .collect(),
    );
    left_labels.concat(&value_labels)
}

/// The OUTER-join tail: right rows nobody matched, null-extended on the left side
/// (with right key values pulled into the left key columns for column joins), in
/// right order. `left_labels` are the pre-join left column labels.
fn unmatched_right_frame(
    left_labels: &Labels,
    right: &DataFrame,
    layout: &JoinLayout,
    matched: &[bool],
) -> DfResult<DataFrame> {
    let positions: Vec<usize> = (0..right.n_rows()).filter(|&i| !matched[i]).collect();
    let mut columns: Vec<Column> =
        Vec::with_capacity(left_labels.len() + layout.right_value_positions.len());
    for j in 0..left_labels.len() {
        let from_right_key = match (&layout.left_key, &layout.right_key) {
            (ShuffleKey::Positions(lp), ShuffleKey::Positions(rp)) => {
                lp.iter().position(|&p| p == j).map(|k| rp[k])
            }
            _ => None,
        };
        match from_right_key {
            Some(rj) => columns.push(gather(&right.columns()[rj], &positions)),
            None => columns.push(Column::new(vec![Cell::Null; positions.len()])),
        }
    }
    for &j in &layout.right_value_positions {
        columns.push(gather(&right.columns()[j], &positions));
    }
    let col_labels = joined_col_labels(left_labels, right, layout);
    let row_labels = right.row_labels().select(&positions)?;
    DataFrame::from_parts(columns, row_labels, col_labels)
}

/// Partition-parallel ordered JOIN.
///
/// When the right (build) side has at most `broadcast_rows` rows it is assembled once
/// and broadcast: every left band probes the shared index in parallel and the output
/// keeps left order for free. Larger build sides take the shuffle path: both inputs
/// are tagged with their global positions, hash-shuffled on the join key into
/// co-partitioned buckets, joined bucket-by-bucket in parallel, and the combined
/// result is sorted back by the position tags (left first, then right — exactly the
/// reference order, including the trailing unmatched-right block of OUTER joins).
pub(crate) fn parallel_join(
    executor: &ParallelExecutor,
    left: PartitionGrid,
    right: PartitionGrid,
    on: &JoinOn,
    how: JoinType,
    options: ShuffleOptions,
) -> DfResult<PartitionGrid> {
    let (right_rows, _) = right.shape();
    if right_rows <= options.broadcast_rows {
        return broadcast_join(executor, left, right, on, how);
    }
    shuffle_join(executor, left, right, on, how, options)
}

fn broadcast_join(
    executor: &ParallelExecutor,
    left: PartitionGrid,
    right: PartitionGrid,
    on: &JoinOn,
    how: JoinType,
) -> DfResult<PartitionGrid> {
    let right_frame = right.into_dataframe()?;
    let bands = left.into_band_partitions(executor.store())?;
    // The layout is resolved from band metadata (handle-cached column labels), so no
    // band is loaded outside its own worker task.
    let left_labels = bands[0].col_labels()?;
    let layout = join_layout(&left_labels, right_frame.col_labels(), on)?;
    let index = RowIndex::build(&right_frame, &layout.right_key)?;
    // Each band's matched-right bitmap rides back beside its joined band: the OUTER
    // tail needs their union, and nothing is re-loaded to recompute it.
    let probed = executor.run_stage(
        "kernel.join_probe",
        CheckIn::Frame,
        singles(bands),
        |_, band| {
            let (frame, matched) = join_band(&one(band)?, &right_frame, &index, &layout, how)?;
            Ok((vec![frame], matched))
        },
    )?;
    let mut matched = vec![false; right_frame.n_rows()];
    let mut parts = Vec::with_capacity(probed.len() + 1);
    for (band, band_matched) in probed {
        for (slot, hit) in matched.iter_mut().zip(band_matched) {
            *slot |= hit;
        }
        parts.extend(band);
    }
    if matches!(how, JoinType::Outer) {
        let tail = unmatched_right_frame(&left_labels, &right_frame, &layout, &matched)?;
        parts.push(Partition::new_in(tail, executor.store())?);
    }
    Ok(PartitionGrid::from_band_partitions(parts))
}

/// The skeleton under the three ordered hash operators: *tag* the left input's rows
/// (and the right's, when its rows reach the output) with their global positions,
/// hash-*shuffle* every input on its key into co-partitioned buckets, run `kernel` on
/// each left bucket (with the matching right bucket, when there is a right input), and
/// *restore* the left-then-right input order from the tags, projecting them away.
///
/// `kernel` receives one bucket's sides — `[left]` or `[left, right]` — still tagged,
/// and must carry the tags through: the left tag is the column right after the left
/// input's own columns, a right tag is the last column of the kernel's output.
fn ordered_shuffle(
    executor: &ParallelExecutor,
    stage: &'static str,
    (left, left_key): (Vec<Partition>, &ShuffleKey),
    right: Option<(Vec<Partition>, &ShuffleKey, bool)>,
    options: ShuffleOptions,
    kernel: impl Fn(&[DataFrame]) -> DfResult<DataFrame> + Send + Sync,
) -> DfResult<PartitionGrid> {
    let left_rows: usize = left.iter().map(Partition::n_rows).sum();
    let left_tag_at = left[0].n_cols();
    let right_tagged = matches!(right, Some((_, _, true)));
    let left = tag_bands(executor, left, POS_LABEL)?;
    let mut buckets = singles(shuffle_bands(executor, left, left_key, options.buckets)?);
    if let Some((right, right_key, tagged)) = right {
        let right = match tagged {
            true => tag_bands(executor, right, RIGHT_POS_LABEL)?,
            false => right,
        };
        let right = shuffle_bands(executor, right, right_key, options.buckets)?;
        for (bucket, right_part) in buckets.iter_mut().zip(right) {
            bucket.push(right_part);
        }
    }
    let results = executor.run_stage(stage, CheckIn::Frame, buckets, |_, sides| {
        Ok((vec![kernel(&sides)?], ()))
    })?;
    let results = outputs(results);
    let mut tags = vec![left_tag_at];
    if right_tagged {
        tags.push(results[0].n_cols() - 1);
    }
    let bands = restore_order(executor, results, &tags, left_rows, options.band_rows)?;
    Ok(PartitionGrid::from_band_partitions(bands))
}

fn shuffle_join(
    executor: &ParallelExecutor,
    left: PartitionGrid,
    right: PartitionGrid,
    on: &JoinOn,
    how: JoinType,
    options: ShuffleOptions,
) -> DfResult<PartitionGrid> {
    let left = left.into_band_partitions(executor.store())?;
    let right = right.into_band_partitions(executor.store())?;
    // The kernel joins *tagged* buckets, so the layout is resolved against the tagged
    // labels: the right tag is then a value column — the output's last, since value
    // columns keep their relative order — and key positions are unaffected because
    // tags trail.
    let tagged = |bands: &[Partition], tag: &str| -> DfResult<Labels> {
        let tag = Labels::new(vec![Cell::Str(tag.to_string())]);
        Ok(bands[0].col_labels()?.concat(&tag))
    };
    let layout = join_layout(
        &tagged(&left, POS_LABEL)?,
        &tagged(&right, RIGHT_POS_LABEL)?,
        on,
    )?;
    ordered_shuffle(
        executor,
        "kernel.join_probe",
        (left, &layout.left_key),
        Some((right, &layout.right_key, true)),
        options,
        |sides| {
            let (left_bucket, right_bucket) = (&sides[0], &sides[1]);
            let index = RowIndex::build(right_bucket, &layout.right_key)?;
            let (frame, matched) = join_band(left_bucket, right_bucket, &index, &layout, how)?;
            if !matches!(how, JoinType::Outer) {
                return Ok(frame);
            }
            // Keys are co-partitioned, so a right row unmatched in its bucket is
            // unmatched globally.
            let tail =
                unmatched_right_frame(left_bucket.col_labels(), right_bucket, &layout, &matched)?;
            setops::union_all(vec![frame, tail])
        },
    )
}

// ---------------------------------------------------------------------------
// DROP DUPLICATES and DIFFERENCE
// ---------------------------------------------------------------------------

/// Partition-parallel ordered DROP DUPLICATES: shuffle on the full-row hash so every
/// duplicate family is co-located (still in global order within its bucket), keep each
/// bucket's first occurrences in parallel, then restore global order via the position
/// tag.
pub(crate) fn parallel_drop_duplicates(
    executor: &ParallelExecutor,
    grid: PartitionGrid,
    options: ShuffleOptions,
) -> DfResult<PartitionGrid> {
    // The key is the row's own columns; the trailing position tag is not part of it.
    let key = ShuffleKey::Positions((0..grid.shape().1).collect());
    let bands = grid.into_band_partitions(executor.store())?;
    ordered_shuffle(
        executor,
        "kernel.dedup",
        (bands, &key),
        None,
        options,
        |sides| {
            let bucket = &sides[0];
            let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut keep: Vec<usize> = Vec::new();
            let encoder = KeyEncoder::new(bucket, &key);
            for i in 0..bucket.n_rows() {
                let candidates = seen.entry(encoder.hash(i)).or_default();
                let duplicate = candidates
                    .iter()
                    .any(|&j| keys_match(bucket, i, &key, bucket, j, &key));
                if !duplicate {
                    candidates.push(i);
                    keep.push(i);
                }
            }
            bucket.take_rows(&keep)
        },
    )
}

/// The anti-join kernel: the rows of `left` whose key matches no indexed row of
/// `right`, in left order.
fn anti_join(
    left: &DataFrame,
    right: &DataFrame,
    index: &RowIndex,
    key: &ShuffleKey,
) -> DfResult<DataFrame> {
    let encoder = KeyEncoder::new(left, key);
    let keep: Vec<usize> = (0..left.n_rows())
        .filter(|&i| {
            !index
                .candidates(encoder.hash(i))
                .iter()
                .any(|&rp| keys_match(left, i, key, right, rp, key))
        })
        .collect();
    left.take_rows(&keep)
}

/// Partition-parallel ordered DIFFERENCE (anti-join on whole rows). Small right sides
/// are broadcast — each left band filters against the shared row index in parallel and
/// band order is preserved outright; larger right sides are co-partitioned by row hash
/// and order is restored via the position tag.
pub(crate) fn parallel_difference(
    executor: &ParallelExecutor,
    left: PartitionGrid,
    right: PartitionGrid,
    options: ShuffleOptions,
) -> DfResult<PartitionGrid> {
    let (right_rows, n_cols) = right.shape();
    let key = ShuffleKey::Positions((0..n_cols).collect());
    let left = left.into_band_partitions(executor.store())?;
    if right_rows <= options.broadcast_rows {
        let right = right.into_dataframe()?;
        let index = RowIndex::build(&right, &key)?;
        let filtered = executor.run_stage(
            "kernel.difference",
            CheckIn::Frame,
            singles(left),
            |_, band| Ok((vec![anti_join(&one(band)?, &right, &index, &key)?], ())),
        )?;
        return Ok(PartitionGrid::from_band_partitions(outputs(filtered)));
    }
    let right = right.into_band_partitions(executor.store())?;
    ordered_shuffle(
        executor,
        "kernel.difference",
        (left, &key),
        Some((right, &key, false)),
        options,
        |sides| {
            let index = RowIndex::build(&sides[1], &key)?;
            anti_join(&sides[0], &sides[1], &index, &key)
        },
    )
}

// ---------------------------------------------------------------------------
// SORT
// ---------------------------------------------------------------------------

/// How many sample keys each band contributes per target range when choosing range
/// splitters for the parallel sort.
const SORT_OVERSAMPLE: usize = 8;

/// Partition-parallel stable SORT: sort every band in parallel (collecting splitter
/// samples in the same pass, so no band is loaded twice for sampling), pick range
/// splitters from the sorted sample, then exchange — carve each sorted band into
/// contiguous per-range runs, k-way-merge each range's runs. The output grid's bands
/// are the sorted ranges in order, so assembly is a plain concatenation.
pub(crate) fn parallel_sort(
    executor: &ParallelExecutor,
    grid: PartitionGrid,
    spec: &SortSpec,
    buckets: usize,
) -> DfResult<PartitionGrid> {
    let bands = grid.into_band_partitions(executor.store())?;
    // Key columns are resolved from band metadata — no sample band is loaded.
    let band_labels = bands[0].col_labels()?;
    let key_positions: Vec<usize> = spec
        .by
        .iter()
        .map(|k| band_labels.position_of(k, "column"))
        .collect::<DfResult<_>>()?;
    let p = buckets.max(1);
    let per_band = p * SORT_OVERSAMPLE;
    // The per-band sort is a self-contained [`BandTask`], so it runs on the
    // executor's backend; splitter *sampling* stays driver-side because it feeds
    // the cross-band splitter choice, which no single band can compute.
    let sort_task = BandTask::SortBand(spec.clone());
    let sort = executor.placed(&sort_task);
    let sorted = executor.run_stage("kernel.sort", CheckIn::Frame, singles(bands), |i, band| {
        let (sorted, ()) = sort(i, band)?;
        let mut samples: Vec<Vec<Cell>> = Vec::new();
        for sorted in &sorted {
            let n = sorted.n_rows();
            let take = if p > 1 { per_band.min(n) } else { 0 };
            for s in 0..take {
                let i = s * n / take;
                samples.push(
                    key_positions
                        .iter()
                        .map(|&j| sorted.columns()[j].cells()[i].clone())
                        .collect(),
                );
            }
        }
        Ok((sorted, samples))
    })?;
    let (sorted_bands, samples): (Vec<Vec<Partition>>, Vec<Vec<Vec<Cell>>>) =
        sorted.into_iter().unzip();
    let splitters = splitters_from_samples(samples.into_iter().flatten().collect(), spec, p);
    executor.record_shuffle();
    let merged = exchange(
        executor,
        ("shuffle.range_split", "shuffle.range_merge"),
        sorted_bands.into_iter().flatten().collect(),
        |_, band| {
            let runs = split_sorted_band(&one(band)?, &key_positions, spec, &splitters);
            Ok((runs, ()))
        },
        |_, runs| Ok((vec![merge_sorted_runs(runs, &key_positions, spec)?], ())),
    )?;
    Ok(PartitionGrid::from_band_partitions(outputs(merged)))
}

/// Compare two key tuples under the sort spec's per-key direction.
fn compare_keys(a: &[Cell], b: &[Cell], spec: &SortSpec) -> Ordering {
    for (idx, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let mut ord = x.sort_cmp(y);
        if !spec.is_ascending(idx) {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compare a key tuple against row `i` of `frame` under the sort spec.
fn compare_key_to_row(
    key: &[Cell],
    frame: &DataFrame,
    i: usize,
    key_positions: &[usize],
    spec: &SortSpec,
) -> Ordering {
    for (idx, (k, &j)) in key.iter().zip(key_positions.iter()).enumerate() {
        let mut ord = k.sort_cmp(&frame.columns()[j].cells()[i]);
        if !spec.is_ascending(idx) {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compare row `ai` of `a` against row `bi` of `b` under the sort spec.
fn compare_rows(
    a: &DataFrame,
    ai: usize,
    b: &DataFrame,
    bi: usize,
    key_positions: &[usize],
    spec: &SortSpec,
) -> Ordering {
    for (idx, &j) in key_positions.iter().enumerate() {
        let mut ord = a.columns()[j].cells()[ai].sort_cmp(&b.columns()[j].cells()[bi]);
        if !spec.is_ascending(idx) {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Pick `p - 1` splitter keys at even quantiles of the sorted sample (the samples were
/// taken at regular intervals of each sorted band, in band order, so the choice is a
/// pure function of the data — identical across thread counts and runs).
fn splitters_from_samples(
    mut samples: Vec<Vec<Cell>>,
    spec: &SortSpec,
    p: usize,
) -> Vec<Vec<Cell>> {
    if p <= 1 || samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| compare_keys(a, b, spec));
    (1..p)
        .map(|b| samples[(b * samples.len() / p).min(samples.len() - 1)].clone())
        .collect()
}

/// Carve a sorted band into `splitters.len() + 1` contiguous range slices: range `r`
/// holds the rows greater than splitter `r - 1` and at most splitter `r`.
fn split_sorted_band(
    band: &DataFrame,
    key_positions: &[usize],
    spec: &SortSpec,
    splitters: &[Vec<Cell>],
) -> Vec<DataFrame> {
    if splitters.is_empty() {
        return vec![band.clone()];
    }
    let mut bounds = Vec::with_capacity(splitters.len() + 2);
    bounds.push(0usize);
    let mut start = 0usize;
    for splitter in splitters {
        // First index (>= start) whose row sorts strictly after the splitter.
        let mut lo = start;
        let mut hi = band.n_rows();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if compare_key_to_row(splitter, band, mid, key_positions, spec) == Ordering::Less {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        bounds.push(lo);
        start = lo;
    }
    bounds.push(band.n_rows());
    bounds
        .windows(2)
        .map(|w| band.slice_rows(w[0], w[1]))
        .collect()
}

/// Stable k-way merge of per-band sorted runs: ties resolve to the lowest band index,
/// which — combined with stable per-band sorts — preserves the original global order
/// of equal keys.
fn merge_sorted_runs(
    runs: Vec<DataFrame>,
    key_positions: &[usize],
    spec: &SortSpec,
) -> DfResult<DataFrame> {
    let mut runs = runs;
    if runs.len() <= 1 {
        return Ok(runs.pop().unwrap_or_else(DataFrame::empty));
    }
    let total: usize = runs.iter().map(DataFrame::n_rows).sum();
    let mut heads = vec![0usize; runs.len()];
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if heads[r] >= run.n_rows() {
                continue;
            }
            best = Some(match best {
                None => r,
                Some(b) => {
                    if compare_rows(run, heads[r], &runs[b], heads[b], key_positions, spec)
                        == Ordering::Less
                    {
                        r
                    } else {
                        b
                    }
                }
            });
        }
        match best {
            Some(r) => {
                order.push((r, heads[r]));
                heads[r] += 1;
            }
            None => break,
        }
    }
    let n_cols = runs[0].n_cols();
    let mut columns: Vec<Column> = Vec::with_capacity(n_cols);
    for j in 0..n_cols {
        let mut cells = Vec::with_capacity(total);
        for &(r, i) in &order {
            cells.push(runs[r].columns()[j].cells()[i].clone());
        }
        let mut domain = runs[0].columns()[j].known_domain();
        for run in runs.iter().skip(1) {
            if run.columns()[j].known_domain() != domain {
                domain = None;
            }
        }
        columns.push(match domain {
            Some(domain) => Column::with_domain(cells, domain),
            None => Column::new(cells),
        });
    }
    let mut labels = Vec::with_capacity(total);
    for &(r, i) in &order {
        labels.push(runs[r].row_labels().as_slice()[i].clone());
    }
    DataFrame::from_parts(columns, Labels::new(labels), runs[0].col_labels().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionConfig, PartitionScheme};
    use df_core::ops::group;
    use df_storage::spill::SpillStore;
    use df_types::cell::cell;
    use std::sync::Arc;

    fn opts(buckets: usize, band_rows: usize, broadcast_rows: usize) -> ShuffleOptions {
        ShuffleOptions {
            buckets,
            band_rows,
            broadcast_rows,
        }
    }

    fn grid_of(df: &DataFrame, rows: usize) -> PartitionGrid {
        PartitionGrid::from_dataframe_in(
            df,
            PartitionScheme::Row,
            PartitionConfig {
                target_rows: rows,
                target_cols: 8,
            },
            None,
        )
        .unwrap()
    }

    fn mixed_frame(rows: usize) -> DataFrame {
        let k: Vec<Cell> = (0..rows)
            .map(|i| {
                if i % 11 == 0 {
                    Cell::Null
                } else {
                    cell((i % 5) as i64)
                }
            })
            .collect();
        let v: Vec<Cell> = (0..rows).map(|i| cell((i as f64) * 0.5)).collect();
        let s: Vec<Cell> = (0..rows).map(|i| cell(format!("s{}", i % 3))).collect();
        DataFrame::from_columns(vec!["k", "v", "s"], vec![k, v, s]).unwrap()
    }

    #[test]
    fn shuffle_co_locates_keys_and_preserves_per_bucket_order() {
        let df = mixed_frame(60);
        let executor = ParallelExecutor::new(2);
        let grid = grid_of(&df, 13);
        let key = ShuffleKey::Positions(vec![0]);
        let shuffled = grid.shuffle(&executor, &key, 4).unwrap();
        assert_eq!(shuffled.n_row_bands(), 4);
        assert_eq!(shuffled.shape(), (60, 3));
        assert!(executor.shuffles_run() >= 1);
        // Every key family lives in exactly one bucket, and position tags (column v
        // doubles as one: v = row / 2) are increasing within each bucket.
        let mut homes: HashMap<u64, usize> = HashMap::new();
        for (b, band) in shuffled.row_bands().unwrap().iter().enumerate() {
            let mut last_v = f64::NEG_INFINITY;
            for i in 0..band.n_rows() {
                let h = row_hash(band, i, &key);
                assert_eq!(*homes.entry(h).or_insert(b), b, "key split across buckets");
                let v = band.columns()[1].cells()[i].as_f64().unwrap();
                assert!(v > last_v, "bucket broke global row order");
                last_v = v;
            }
        }
    }

    #[test]
    fn shuffle_validates_key_positions() {
        let df = mixed_frame(10);
        let executor = ParallelExecutor::new(1);
        let grid = grid_of(&df, 4);
        assert!(grid
            .shuffle(&executor, &ShuffleKey::Positions(vec![9]), 2)
            .is_err());
    }

    #[test]
    fn range_sort_matches_reference_for_all_directions() {
        let df = mixed_frame(57);
        let executor = ParallelExecutor::new(3);
        for ascending in [vec![true], vec![false], vec![false, true]] {
            let spec = SortSpec {
                by: vec![cell("k"), cell("v")],
                ascending,
                stable: true,
            };
            let expected = group::sort(&df, &spec).unwrap();
            let sorted = parallel_sort(&executor, grid_of(&df, 9), &spec, 4)
                .unwrap()
                .assemble()
                .unwrap();
            assert!(
                sorted.same_data(&expected),
                "parallel sort diverged for {spec:?}"
            );
        }
    }

    #[test]
    fn shuffle_join_and_broadcast_join_agree_with_reference() {
        let left = mixed_frame(40);
        let right = {
            let k: Vec<Cell> = (0..12).map(|i| cell((i % 6) as i64)).collect();
            let w: Vec<Cell> = (0..12).map(|i| cell(i as i64 * 10)).collect();
            DataFrame::from_columns(vec!["k", "w"], vec![k, w]).unwrap()
        };
        let on = JoinOn::Columns(vec![cell("k")]);
        let executor = ParallelExecutor::new(2);
        for how in [JoinType::Inner, JoinType::Left, JoinType::Outer] {
            let expected = setops::join(&left, &right, &on, how).unwrap();
            for broadcast_rows in [usize::MAX, 0] {
                let joined = parallel_join(
                    &executor,
                    grid_of(&left, 7),
                    grid_of(&right, 5),
                    &on,
                    how,
                    opts(3, 10, broadcast_rows),
                )
                .unwrap()
                .assemble()
                .unwrap();
                assert!(
                    joined.same_data(&expected),
                    "join {how:?} (broadcast_rows={broadcast_rows}) diverged\nexpected:\n{expected}\ngot:\n{joined}"
                );
            }
        }
    }

    #[test]
    fn label_join_takes_both_paths() {
        let left = mixed_frame(12)
            .with_row_labels((0..12).map(|i| format!("r{}", i % 7)).collect::<Vec<_>>())
            .unwrap();
        let right = mixed_frame(9)
            .with_row_labels((0..9).map(|i| format!("r{i}")).collect::<Vec<_>>())
            .unwrap();
        let executor = ParallelExecutor::new(2);
        for how in [JoinType::Inner, JoinType::Left, JoinType::Outer] {
            let expected = setops::join(&left, &right, &JoinOn::RowLabels, how).unwrap();
            for broadcast_rows in [usize::MAX, 0] {
                let joined = parallel_join(
                    &executor,
                    grid_of(&left, 5),
                    grid_of(&right, 4),
                    &JoinOn::RowLabels,
                    how,
                    opts(3, 10, broadcast_rows),
                )
                .unwrap()
                .assemble()
                .unwrap();
                assert!(joined.same_data(&expected), "label join {how:?} diverged");
            }
        }
    }

    #[test]
    fn drop_duplicates_and_difference_agree_with_reference() {
        let df = mixed_frame(50);
        // Duplicate-heavy frame: repeat the first 10 rows a few times.
        let dup = setops::union_all(vec![df.head(10), df.head(25), df.clone()]).unwrap();
        let executor = ParallelExecutor::new(2);
        let expected = group::drop_duplicates(&dup).unwrap();
        let deduped = parallel_drop_duplicates(&executor, grid_of(&dup, 11), opts(4, 10, 0))
            .unwrap()
            .assemble()
            .unwrap();
        assert!(deduped.same_data(&expected), "drop_duplicates diverged");

        let right = df.slice_rows(5, 30);
        let expected = setops::difference(&df, &right).unwrap();
        for broadcast_rows in [usize::MAX, 0] {
            let out = parallel_difference(
                &executor,
                grid_of(&df, 11),
                grid_of(&right, 7),
                opts(4, 10, broadcast_rows),
            )
            .unwrap()
            .assemble()
            .unwrap();
            assert!(
                out.same_data(&expected),
                "difference (broadcast_rows={broadcast_rows}) diverged"
            );
        }
    }

    #[test]
    fn user_columns_may_share_the_tag_labels() {
        // Tag columns are resolved by position, so frames whose own columns carry the
        // sentinel labels still round-trip correctly through every shuffle operator.
        let n = 30usize;
        let a: Vec<Cell> = (0..n).map(|i| cell((i % 4) as i64)).collect();
        let b: Vec<Cell> = (0..n).map(|i| cell((n - i) as i64)).collect();
        let c: Vec<Cell> = (0..n).map(|i| cell(format!("x{}", i % 3))).collect();
        let df = DataFrame::from_columns(vec![POS_LABEL, RIGHT_POS_LABEL, "key"], vec![a, b, c])
            .unwrap();
        let dup = setops::union_all(vec![df.head(8), df.clone()]).unwrap();
        let executor = ParallelExecutor::new(2);

        let deduped = parallel_drop_duplicates(&executor, grid_of(&dup, 7), opts(4, 10, 0))
            .unwrap()
            .assemble()
            .unwrap();
        assert!(deduped.same_data(&group::drop_duplicates(&dup).unwrap()));

        let right = df.slice_rows(3, 17);
        let out = parallel_difference(
            &executor,
            grid_of(&df, 7),
            grid_of(&right, 5),
            opts(4, 10, 0),
        )
        .unwrap()
        .assemble()
        .unwrap();
        assert!(out.same_data(&setops::difference(&df, &right).unwrap()));

        let on = JoinOn::Columns(vec![cell("key")]);
        for how in [JoinType::Inner, JoinType::Left, JoinType::Outer] {
            let expected = setops::join(&df, &right, &on, how).unwrap();
            let joined = parallel_join(
                &executor,
                grid_of(&df, 7),
                grid_of(&right, 5),
                &on,
                how,
                opts(3, 10, 0),
            )
            .unwrap()
            .assemble()
            .unwrap();
            assert!(
                joined.same_data(&expected),
                "join {how:?} with colliding labels diverged"
            );
        }
    }

    #[test]
    fn shuffle_operators_keep_results_banded() {
        // Order restoration re-bands its output so downstream operators stay
        // partition-parallel instead of degenerating to one giant band.
        let df = mixed_frame(64);
        let executor = ParallelExecutor::new(2);
        let deduped = parallel_drop_duplicates(&executor, grid_of(&df, 8), opts(4, 16, 0)).unwrap();
        assert!(deduped.n_row_bands() >= 4);
        assert_eq!(deduped.shape(), (64, 3));
        for band in deduped.row_bands().unwrap().iter().take(3) {
            assert_eq!(band.n_rows(), 16);
        }
        // Empty results keep their column structure in a single empty band.
        let empty =
            parallel_difference(&executor, grid_of(&df, 8), grid_of(&df, 8), opts(4, 16, 0))
                .unwrap()
                .assemble()
                .unwrap();
        assert_eq!(empty.shape(), (0, 3));
    }

    #[test]
    fn results_are_identical_across_thread_and_bucket_counts() {
        let df = mixed_frame(80);
        let spec = SortSpec::ascending(vec![cell("s"), cell("k")]);
        let reference = group::sort(&df, &spec).unwrap();
        for threads in [1, 4] {
            for buckets in [1, 3, 8] {
                let executor = ParallelExecutor::new(threads);
                let sorted = parallel_sort(&executor, grid_of(&df, 16), &spec, buckets)
                    .unwrap()
                    .assemble()
                    .unwrap();
                assert!(sorted.same_data(&reference));
                let deduped =
                    parallel_drop_duplicates(&executor, grid_of(&df, 16), opts(buckets, 9, 0))
                        .unwrap()
                        .assemble()
                        .unwrap();
                assert!(deduped.same_data(&df));
            }
        }
    }

    #[test]
    fn shuffle_operators_match_under_a_tight_spill_store() {
        // Every operator runs once without a store and once with a store whose budget
        // is a small fraction of the working set; the results must be identical and
        // the tight run must actually spill.
        let left = mixed_frame(96);
        let right = mixed_frame(40);
        let budget = left.approx_size_bytes() / 8;
        let spec = SortSpec::ascending(vec![cell("v")]);
        let on = JoinOn::Columns(vec![cell("k")]);

        let plain = ParallelExecutor::new(2);
        let store = Arc::new(SpillStore::new(budget).unwrap());
        let spilled = ParallelExecutor::new(2).with_store(Some(Arc::clone(&store)));

        let pairs: Vec<(DataFrame, DataFrame)> = vec![
            (
                parallel_sort(&plain, grid_of(&left, 12), &spec, 4)
                    .unwrap()
                    .assemble()
                    .unwrap(),
                parallel_sort(&spilled, grid_of(&left, 12), &spec, 4)
                    .unwrap()
                    .assemble()
                    .unwrap(),
            ),
            (
                parallel_drop_duplicates(&plain, grid_of(&left, 12), opts(4, 10, 0))
                    .unwrap()
                    .assemble()
                    .unwrap(),
                parallel_drop_duplicates(&spilled, grid_of(&left, 12), opts(4, 10, 0))
                    .unwrap()
                    .assemble()
                    .unwrap(),
            ),
            (
                parallel_join(
                    &plain,
                    grid_of(&left, 12),
                    grid_of(&right, 9),
                    &on,
                    JoinType::Outer,
                    opts(4, 10, 0),
                )
                .unwrap()
                .assemble()
                .unwrap(),
                parallel_join(
                    &spilled,
                    grid_of(&left, 12),
                    grid_of(&right, 9),
                    &on,
                    JoinType::Outer,
                    opts(4, 10, 0),
                )
                .unwrap()
                .assemble()
                .unwrap(),
            ),
            (
                parallel_difference(
                    &plain,
                    grid_of(&left, 12),
                    grid_of(&right, 9),
                    opts(4, 10, 0),
                )
                .unwrap()
                .assemble()
                .unwrap(),
                parallel_difference(
                    &spilled,
                    grid_of(&left, 12),
                    grid_of(&right, 9),
                    opts(4, 10, 0),
                )
                .unwrap()
                .assemble()
                .unwrap(),
            ),
        ];
        for (expected, got) in pairs {
            assert!(got.same_data(&expected), "out-of-core run diverged");
        }
        let stats = store.stats();
        assert!(
            stats.spill_outs > 0,
            "tight budget never spilled: {stats:?}"
        );
        assert!(
            stats.memory_bytes <= budget,
            "resident bytes exceed the budget at rest: {stats:?}"
        );
    }
}
