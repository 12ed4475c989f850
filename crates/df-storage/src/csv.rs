//! CSV ingest and egress — serial and chunk-parallel.
//!
//! Paper §5.1: "external storage in data science is often untyped … most data files
//! used in data science today (notably those in the ever-popular csv format)" carry no
//! schema. [`read_csv_str`] therefore produces a dataframe whose cells are all raw
//! strings (`Σ*`) with *no* domains set — schema induction and parsing happen later,
//! on demand, exactly as the paper's lazy-schema discussion requires. Setting
//! [`CsvOptions::infer_schema`] is the convenience path that induces and parses
//! immediately (what pandas does).
//!
//! ## The chunked (parallel, out-of-core) ingest path
//!
//! `read_csv` is the first statement of nearly every workflow, and a serial reader
//! that materialises the whole frame before partitioning defeats both the parallel
//! engine and the memory budget on line one. This module therefore also provides the
//! storage half of partition-parallel ingest (`df-engine` drives it on its worker
//! pool; this module stays single-threaded and engine-agnostic):
//!
//! 1. [`plan_csv_chunks`] — one cheap streaming, quote-aware pass that cuts the file's
//!    byte range into chunks of whole records and counts the data rows per chunk.
//! 2. [`read_csv_chunk`] / [`read_csv_chunk_with`] — parse one chunk independently
//!    into a band whose row labels carry the global offsets the plan recorded: raw
//!    (`Σ*`) cells, or — given the file-wide reconciled domains — typed cells for just
//!    the kept columns. [`csv_chunk_stats`] folds a chunk into scan statistics and
//!    induction summaries instead, building no cell at all.
//! 3. [`band_induction_summaries`] / [`reconcile_domains`] / [`apply_domains`] —
//!    schema reconciliation for `infer_schema` ingests: per-band composable
//!    [`InductionSummary`]s joined in band order, then every band re-cast, so the
//!    result is cell-for-cell (and schema-slot-for-slot) identical to the serial
//!    reader followed by `parse_all`.
//!
//! Every reader is one byte-level record loop (`tokenize`) handing borrowed `&str`
//! fields to a per-column `FieldSink` — the cell and typed sinks (`BandSink`), the
//! statistics sink (`StatsSink`) — so quoted embedded newlines, CRLF line endings
//! and trailing-delimiter rows parse identically in every mode; the suites below pin
//! that down against the char-by-char splitter the readers used to run on.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{Axis, DfError, DfResult};
use df_types::labels::Labels;
use df_types::InductionSummary;

use df_core::dataframe::{Column, DataFrame};
use df_core::{ColumnChunkStats, DistinctSeen};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first record holds column labels (default true).
    pub has_header: bool,
    /// Parse and type columns immediately after reading (pandas behaviour). When false
    /// the result stays in the raw `Σ*` state.
    pub infer_schema: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
            infer_schema: false,
        }
    }
}

/// Quote a field if it contains the delimiter, a quote, or a newline.
fn quote_field(field: &str, delimiter: char) -> String {
    if field.contains(delimiter)
        || field.contains('"')
        || field.contains('\n')
        || field.contains('\r')
    {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Where one parse pass's fields go, column by column.
trait FieldSink {
    /// Whether file column `col` is consumed at all (a pruned one is never decoded).
    fn wants(&self, _col: usize) -> bool {
        true
    }

    /// Field `col` of the current record, quotes already resolved.
    fn field(&mut self, col: usize, field: &str);
}

/// The one record loop behind every reader: split `content` into records at
/// *unquoted* newlines (a quoted `\n` is data, a CRLF's `\r` is dropped, blank records
/// are skipped) and records into fields at unquoted delimiters, handing each wanted
/// field to `sink` as a slice of `content` — owned only when resolving its quotes
/// changes its bytes. Every record must have `n_cols` fields (`None`: the first
/// record's arity); `row_offset` is the first record's global index, so a ragged-row
/// error names the same row whichever chunk found it. Returns (records, arity).
fn tokenize<S: FieldSink>(
    content: &str,
    delimiter: char,
    mut n_cols: Option<usize>,
    row_offset: usize,
    sink: &mut S,
) -> DfResult<(usize, usize)> {
    let bytes = content.as_bytes();
    let mut delimiter_utf8 = [0u8; 4];
    let delimiter = delimiter.encode_utf8(&mut delimiter_utf8).as_bytes();
    // Every other byte is field content and is stepped over one table load at a time.
    let mut special = [false; 256];
    for byte in [b'"', b'\n', b'\r', delimiter[0]] {
        special[byte as usize] = true;
    }
    // `quotes` counts the current field's quote characters: odd means "inside quotes".
    let (mut record_start, mut field_start, mut col, mut quotes) = (0usize, 0usize, 0usize, 0usize);
    let (mut rows, mut i) = (0usize, 0usize);
    let mut emit = |col: usize, n_cols: Option<usize>, raw: &str, quotes: usize| {
        if n_cols.is_some_and(|n| col >= n) || !sink.wants(col) {
            return;
        }
        match quotes {
            0 => sink.field(col, raw),
            2 if raw.starts_with('"') && raw.ends_with('"') => {
                sink.field(col, &raw[1..raw.len() - 1])
            }
            _ => sink.field(col, &resolve_quotes(raw)),
        }
    };
    loop {
        // Step over field content: anything inside quotes, any ordinary byte outside.
        while bytes.get(i).is_some_and(|&byte| match quotes % 2 {
            1 => byte != b'"',
            _ => !special[byte as usize],
        }) {
            i += 1;
        }
        let byte = bytes.get(i).copied();
        // The end of input terminates the last record (its `\r`, if any, is data —
        // mirroring `BufRead::lines`).
        let terminator = match byte {
            Some(b'"') => {
                quotes += 1;
                i += 1;
                continue;
            }
            None => Some(0),
            Some(b'\n') => Some(1),
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => Some(2),
            Some(_) => None,
        };
        if let Some(width) = terminator {
            if i > record_start {
                emit(col, n_cols, &content[field_start..i], quotes);
                let expected = *n_cols.get_or_insert(col + 1);
                if col + 1 != expected {
                    return Err(DfError::shape(
                        format!("{expected} fields per record"),
                        format!("{} fields at data row {}", col + 1, row_offset + rows),
                    ));
                }
                rows += 1;
            }
            if byte.is_none() {
                return Ok((rows, n_cols.unwrap_or(0)));
            }
            i += width;
            (record_start, field_start, col, quotes) = (i, i, 0, 0);
        } else if bytes[i..].starts_with(delimiter) {
            emit(col, n_cols, &content[field_start..i], quotes);
            i += delimiter.len();
            (field_start, col, quotes) = (i, col + 1, 0);
        } else {
            // A lone `\r`, or a byte that only shares the delimiter's first byte.
            i += 1;
        }
    }
}

/// Resolve one field's quoting: quote characters toggle quoting and are dropped, except
/// that `""` inside quotes is a literal quote.
fn resolve_quotes(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut in_quotes = false;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '"' {
            out.push(c);
        } else if in_quotes && chars.peek() == Some(&'"') {
            out.push('"');
            chars.next();
        } else {
            in_quotes = !in_quotes;
        }
    }
    out
}

impl FieldSink for Vec<String> {
    fn field(&mut self, _col: usize, field: &str) {
        self.push(field.to_string());
    }
}

/// Split one record (a header line) into owned fields.
fn split_line(record: &str, delimiter: char) -> Vec<String> {
    let mut fields = Vec::new();
    // A lone record sets its own arity, so it cannot be ragged.
    let _ = tokenize(record, delimiter, None, 0, &mut fields);
    if fields.is_empty() {
        // A blank line is one empty field.
        fields.push(String::new());
    }
    fields
}

/// The cell sink and the typed sink: the kept columns' fields as raw `Σ*` cells (null
/// spellings → null) when `domains` is `None`, else each field parsed straight into its
/// column's reconciled domain — what [`apply_domains`] would make of the raw cell.
struct BandSink<'a> {
    /// File column → output slot; `None` for a pruned column.
    slot_of: Vec<Option<usize>>,
    /// One domain per output slot.
    domains: Option<&'a [Domain]>,
    columns: Vec<Vec<Cell>>,
}

impl<'a> BandSink<'a> {
    /// `keep`: the columns to materialise, in output order (`None`: all of them).
    fn new(n_cols: usize, keep: Option<&[usize]>, domains: Option<&'a [Domain]>) -> DfResult<Self> {
        let kept = keep.map_or(n_cols, <[usize]>::len);
        let mut slot_of: Vec<Option<usize>> = match keep {
            Some(_) => vec![None; n_cols],
            None => (0..n_cols).map(Some).collect(),
        };
        for (slot, &col) in keep.unwrap_or_default().iter().enumerate() {
            let entry = slot_of.get_mut(col).ok_or(DfError::IndexOutOfBounds {
                axis: Axis::Column,
                index: col,
                len: n_cols,
            })?;
            if entry.replace(slot).is_some() {
                return Err(DfError::internal(
                    "a projected chunk read needs unique columns",
                ));
            }
        }
        if let Some(domains) = domains.filter(|domains| domains.len() != kept) {
            return Err(DfError::shape(
                format!("{kept} reconciled domains"),
                format!("{} provided", domains.len()),
            ));
        }
        Ok(BandSink {
            slot_of,
            domains,
            columns: vec![Vec::new(); kept],
        })
    }

    fn into_columns(self) -> Vec<Column> {
        let domains = self.domains;
        let typed = |(slot, cells): (usize, Vec<Cell>)| {
            let mut column = Column::new(cells);
            match domains.map(|domains| domains[slot]) {
                None => {}
                Some(domain @ (Domain::Str | Domain::Composite)) => {
                    column.note_induced_domain(domain)
                }
                Some(domain) => column.declare_domain(domain),
            }
            column
        };
        self.columns.into_iter().enumerate().map(typed).collect()
    }
}

impl FieldSink for BandSink<'_> {
    fn wants(&self, col: usize) -> bool {
        self.slot_of.get(col) != Some(&None)
    }

    fn field(&mut self, col: usize, field: &str) {
        if col == self.slot_of.len() {
            // A headerless serial read learns its arity from its first record.
            self.slot_of.push(Some(col));
            self.columns.push(Vec::new());
        }
        let Some(slot) = self.slot_of[col] else {
            return;
        };
        let cell = match self.domains.map(|domains| domains[slot]) {
            Some(domain) if !matches!(domain, Domain::Str | Domain::Composite) => {
                domain.parse(field).unwrap_or(Cell::Null)
            }
            _ if df_types::domain::is_null_token(field) => Cell::Null,
            _ => Cell::Str(field.to_string()),
        };
        self.columns[slot].push(cell);
    }
}

/// The statistics sink: folds each field into its column's [`ColumnChunkStats`] and,
/// for inferring scans, its [`InductionSummary`] — reading a numeric field once for
/// both. Equals folding the cell sink's band cell by cell, without building one.
struct StatsSink {
    stats: Vec<ColumnChunkStats>,
    seen: Vec<DistinctSeen>,
    summaries: Option<Vec<InductionSummary>>,
}

impl FieldSink for StatsSink {
    fn field(&mut self, col: usize, field: &str) {
        let numeric = match &mut self.summaries {
            Some(summaries) => summaries[col].observe(field),
            None => field.trim().parse().ok(),
        };
        self.stats[col].observe_field(field, numeric, &mut self.seen[col]);
    }
}

/// Split off the first record: up to the first unquoted newline, its CRLF `\r` dropped.
fn first_record(content: &str) -> (&str, &str) {
    let mut in_quotes = false;
    let newline = content.bytes().position(|byte| {
        in_quotes ^= byte == b'"';
        byte == b'\n' && !in_quotes
    });
    let Some(i) = newline else {
        return (content, "");
    };
    let (record, rest) = (&content[..i], &content[i + 1..]);
    (record.strip_suffix('\r').unwrap_or(record), rest)
}

/// Read a CSV document from any reader into an untyped (raw `Σ*`) dataframe (or a
/// typed one when [`CsvOptions::infer_schema`] is set).
pub(crate) fn read_csv_reader<R: Read>(mut reader: R, options: &CsvOptions) -> DfResult<DataFrame> {
    let mut content = String::new();
    reader.read_to_string(&mut content)?;
    read_csv_str(&content, options)
}

/// Read a CSV document from a string.
pub fn read_csv_str(content: &str, options: &CsvOptions) -> DfResult<DataFrame> {
    let (header, data) = match options.has_header {
        true if content.is_empty() => return Ok(DataFrame::empty()),
        true => {
            let (record, data) = first_record(content);
            (Some(split_line(record, options.delimiter)), data)
        }
        false => (None, content),
    };
    let arity = header.as_ref().map(Vec::len);
    let mut sink = BandSink::new(arity.unwrap_or(0), None, None)?;
    let (rows, n_cols) = tokenize(data, options.delimiter, arity, 0, &mut sink)?;
    let labels = Labels::new(match header {
        Some(names) => names.into_iter().map(Cell::Str).collect(),
        None => (0..n_cols).map(|i| Cell::Int(i as i64)).collect(),
    });
    let mut df = DataFrame::from_parts(sink.into_columns(), Labels::positional(rows), labels)?;
    if options.infer_schema {
        df.parse_all();
    }
    Ok(df)
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, options: &CsvOptions) -> DfResult<DataFrame> {
    let file = std::fs::File::open(path)?;
    read_csv_reader(file, options)
}

/// One contiguous byte range of a CSV file holding whole records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvChunk {
    /// Byte offset of the chunk's first record.
    pub start_byte: u64,
    /// Byte offset one past the chunk's last record (including its newline).
    pub end_byte: u64,
    /// Number of non-empty data records in the chunk.
    pub rows: usize,
    /// Global index of the chunk's first data row (0-based, header excluded).
    pub start_row: usize,
}

/// The result of the boundary-scan pass: everything a pool of workers needs to parse
/// a CSV file chunk-by-chunk with no further coordination.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvIngestPlan {
    /// Split header fields, when the file has a header record.
    pub header: Option<Vec<String>>,
    /// Arity of every record (0 for an empty file).
    pub n_cols: usize,
    /// Total non-empty data records.
    pub total_rows: usize,
    /// Total bytes scanned (the file length).
    pub total_bytes: u64,
    /// The chunks, in file order. Empty when the file holds no data records.
    pub chunks: Vec<CsvChunk>,
}

impl CsvIngestPlan {
    /// The column labels the parsed frame will carry (header fields, or positional
    /// ranks for headerless files) — identical to the serial reader's.
    pub fn col_labels(&self) -> Labels {
        match &self.header {
            Some(names) => Labels::new(names.iter().cloned().map(Cell::Str).collect()),
            None => Labels::new((0..self.n_cols).map(|i| Cell::Int(i as i64)).collect()),
        }
    }

    /// An empty frame with the plan's column labels — what a file with no data
    /// records parses to (cell-for-cell what the serial reader returns).
    pub fn empty_frame(&self) -> DfResult<DataFrame> {
        if self.header.is_none() && self.n_cols == 0 {
            return Ok(DataFrame::empty());
        }
        let columns: Vec<Column> = (0..self.n_cols).map(|_| Column::new(Vec::new())).collect();
        DataFrame::from_parts(columns, Labels::positional(0), self.col_labels())
    }
}

/// Scan a CSV file once — tracking quote state, never allocating cells — and split
/// its byte range into chunks of at most `rows_per_chunk` whole records. Boundaries
/// fall at unquoted newlines, so a quoted `\n` can never split a record across two
/// workers; the per-chunk row counts are what lets every chunk be parsed with its
/// global row offsets already known.
pub fn plan_csv_chunks(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    rows_per_chunk: usize,
) -> DfResult<CsvIngestPlan> {
    use std::io::BufRead;
    let (path, rows_per_chunk) = (path.as_ref(), rows_per_chunk.max(1));
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, std::fs::File::open(path)?);
    let mut awaiting_header = options.has_header;
    // Byte range of the record that fixes the arity (the header, else the first data
    // record), read back and split once the scan is over.
    let mut arity_record: Option<(u64, u64)> = None;
    let mut total_rows = 0usize;
    // Chunk boundaries as (byte offset, data rows before it), from where the data starts.
    let mut cuts: Vec<(u64, usize)> = vec![(0, 0)];
    // Called with each record's byte range (CRLF stripped) and the offset past its
    // terminator.
    let mut finish_record = |start: u64, end: u64, next: u64| {
        if awaiting_header {
            awaiting_header = false;
            arity_record = Some((start, end));
            cuts[0] = (next, 0);
        } else if end > start {
            // (A blank record is skipped by the parser, never counted as a data row.)
            arity_record.get_or_insert((start, end));
            total_rows += 1;
            if total_rows - cuts[cuts.len() - 1].1 == rows_per_chunk {
                cuts.push((next, total_rows));
            }
        }
    };
    let (mut pos, mut record_start, mut in_quotes, mut last_byte) = (0u64, 0u64, false, 0u8);
    loop {
        let buffer = reader.fill_buf()?;
        if buffer.is_empty() {
            break;
        }
        for &byte in buffer {
            match byte {
                b'"' => in_quotes = !in_quotes,
                b'\n' if !in_quotes => {
                    let crlf = pos > record_start && last_byte == b'\r';
                    finish_record(record_start, pos - u64::from(crlf), pos + 1);
                    record_start = pos + 1;
                }
                _ => {}
            }
            last_byte = byte;
            pos += 1;
        }
        let consumed = buffer.len();
        reader.consume(consumed);
    }
    if pos > record_start {
        // Final record without a trailing newline: its `\r`, if any, is data.
        finish_record(record_start, pos, pos);
    }
    if total_rows > cuts[cuts.len() - 1].1 {
        cuts.push((pos, total_rows));
    }
    let chunks = cuts.windows(2).map(|cut| CsvChunk {
        start_byte: cut[0].0,
        end_byte: cut[1].0,
        rows: cut[1].1 - cut[0].1,
        start_row: cut[0].1,
    });
    let arity_fields = match arity_record {
        Some((start, end)) => split_line(&read_byte_range(path, start, end)?, options.delimiter),
        None => Vec::new(),
    };
    Ok(CsvIngestPlan {
        n_cols: arity_fields.len(),
        header: (options.has_header && arity_record.is_some()).then_some(arity_fields),
        total_rows,
        total_bytes: pos,
        chunks: chunks.collect(),
    })
}

/// Read a planned byte range. A range the file no longer covers and bytes that are not
/// UTF-8 are environmental faults: the file changed under the plan.
fn read_byte_range(path: &Path, start: u64, end: u64) -> DfResult<String> {
    let mut file = std::fs::File::open(path)?;
    let len = end
        .checked_sub(start)
        .filter(|_| end <= file.metadata().map_or(0, |meta| meta.len()))
        .ok_or_else(|| {
            DfError::Io(format!(
                "CSV chunk at bytes {start}..{end} lies outside the file — \
                 the file changed between planning and parsing"
            ))
        })?;
    file.seek(SeekFrom::Start(start))?;
    let mut bytes = vec![0u8; len as usize];
    file.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| DfError::Io("CSV file is not valid UTF-8".to_string()))
}

/// Run one planned chunk through `sink`; the row count must be the plan's.
fn tokenize_chunk<S: FieldSink>(
    path: &Path,
    options: &CsvOptions,
    plan: &CsvIngestPlan,
    chunk: &CsvChunk,
    sink: &mut S,
) -> DfResult<usize> {
    let content = read_byte_range(path, chunk.start_byte, chunk.end_byte)?;
    let arity = Some(plan.n_cols);
    let (rows, _) = tokenize(&content, options.delimiter, arity, chunk.start_row, sink)?;
    if rows != chunk.rows {
        return Err(DfError::Io(format!(
            "CSV chunk at byte {} parsed {rows} rows but the plan counted {} — \
             the file changed between planning and parsing",
            chunk.start_byte, chunk.rows
        )));
    }
    Ok(rows)
}

/// Parse one planned chunk into a raw (`Σ*`) full-width band. The worker seeks to the
/// chunk's byte range and touches nothing else; row labels are the global positional
/// ranks the serial reader would have assigned. Schema induction never runs here —
/// typed ingest reconciles domains across bands afterwards (see [`apply_domains`]).
pub fn read_csv_chunk(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    plan: &CsvIngestPlan,
    chunk: &CsvChunk,
) -> DfResult<DataFrame> {
    read_csv_chunk_with(path, options, plan, chunk, None, None)
}

/// [`read_csv_chunk`] with the scan's pushdowns applied in the parse loop. `keep`
/// materialises only these columns (file positions, unique and in range; the output
/// follows `keep` order): every record is still split and arity-checked, so ragged rows
/// fail exactly like the full-width read, but a pruned column's fields are never
/// decoded. `domains` — one file-wide reconciled domain per output column — parses
/// each field straight into its typed cell: cell-for-cell and schema-slot-for-slot
/// what [`apply_domains`] makes of the raw band.
pub fn read_csv_chunk_with(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    plan: &CsvIngestPlan,
    chunk: &CsvChunk,
    keep: Option<&[usize]>,
    domains: Option<&[Domain]>,
) -> DfResult<DataFrame> {
    let mut sink = BandSink::new(plan.n_cols, keep, domains)?;
    let rows = tokenize_chunk(path.as_ref(), options, plan, chunk, &mut sink)?;
    let first = chunk.start_row;
    let row_labels = Labels::new((first..first + rows).map(|i| Cell::Int(i as i64)).collect());
    let all = plan.col_labels();
    let col_labels = match keep {
        Some(keep) => Labels::new(keep.iter().map(|&k| all.as_slice()[k].clone()).collect()),
        None => all,
    };
    DataFrame::from_parts(sink.into_columns(), row_labels, col_labels)
}

/// Fold one planned chunk into per-column scan statistics (and, for an `infer_schema`
/// read, induction summaries) without building a band: a scan's statistics pass.
pub fn csv_chunk_stats(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    plan: &CsvIngestPlan,
    chunk: &CsvChunk,
) -> DfResult<(Vec<ColumnChunkStats>, Option<Vec<InductionSummary>>)> {
    let summaries = |n: usize| (0..n).map(|_| InductionSummary::begin()).collect();
    let mut sink = StatsSink {
        stats: vec![ColumnChunkStats::default(); plan.n_cols],
        seen: (0..plan.n_cols).map(|_| DistinctSeen::default()).collect(),
        summaries: options.infer_schema.then(|| summaries(plan.n_cols)),
    };
    tokenize_chunk(path.as_ref(), options, plan, chunk, &mut sink)?;
    Ok((sink.stats, sink.summaries))
}

/// Summarise one raw band's columns for schema reconciliation: the per-band half of
/// the schema induction function `S`, in the composable form that joins across bands.
pub fn band_induction_summaries(band: &DataFrame) -> Vec<InductionSummary> {
    band.columns()
        .iter()
        .map(|column| {
            let mut summary = InductionSummary::begin();
            column
                .cells()
                .iter()
                .filter_map(Cell::as_str)
                .for_each(|raw| {
                    summary.observe(raw);
                });
            summary
        })
        .collect()
}

/// Join per-band summaries (outer: bands in file order; inner: columns) into the
/// per-column domains the serial reader's `parse_all` would have induced over the
/// whole column.
pub fn reconcile_domains(band_summaries: &[Vec<InductionSummary>]) -> Vec<Domain> {
    let Some(first) = band_summaries.first() else {
        return Vec::new();
    };
    let mut merged: Vec<InductionSummary> = first.clone();
    for band in &band_summaries[1..] {
        for (column, summary) in merged.iter_mut().zip(band) {
            column.merge(summary);
        }
    }
    merged.iter().map(InductionSummary::finish).collect()
}

/// Re-cast one band with the reconciled per-column domains, mirroring the serial
/// reader's `parse_in_place` exactly: a `Str`/`Composite` column keeps its raw cells
/// and merely *caches* the induced domain (so a later mutation invalidates it, like
/// serial); any other domain parses every raw string cell with `p_i` (unparseable
/// entries become null, matching the lenient `parse_all`) and is then *declared*.
/// Bands whose local induction agreed with the reconciled domain and bands that
/// were out-voted ("minority bands") go through the same cast, so the result cannot
/// depend on which bands agreed.
pub fn apply_domains(band: DataFrame, domains: &[Domain]) -> DfResult<DataFrame> {
    let (mut columns, row_labels, col_labels) = band.into_parts();
    if columns.len() != domains.len() {
        return Err(DfError::shape(
            format!("{} reconciled domains", columns.len()),
            format!("{} provided", domains.len()),
        ));
    }
    for (column, &domain) in columns.iter_mut().zip(domains) {
        if matches!(domain, Domain::Str | Domain::Composite) {
            column.note_induced_domain(domain);
            continue;
        }
        for cell in column.cells_mut().iter_mut() {
            if let Cell::Str(s) = cell {
                *cell = domain.parse(s).unwrap_or(Cell::Null);
            }
        }
        column.declare_domain(domain);
    }
    DataFrame::from_parts(columns, row_labels, col_labels)
}

/// Write the header record (column labels) to a writer. A no-op when the options say
/// the document carries no header.
pub fn write_csv_header<W: Write>(
    writer: &mut W,
    col_labels: &Labels,
    options: &CsvOptions,
) -> DfResult<()> {
    if !options.has_header {
        return Ok(());
    }
    let header: Vec<String> = col_labels
        .as_slice()
        .iter()
        .map(|l| quote_field(&l.to_raw_string(), options.delimiter))
        .collect();
    writeln!(writer, "{}", header.join(&options.delimiter.to_string()))?;
    Ok(())
}

/// Append one frame's rows (no header) to a writer. Streaming band-wise egress calls
/// this once per band, so a larger-than-memory result is written without ever being
/// assembled.
pub fn append_csv_records<W: Write>(
    writer: &mut W,
    df: &DataFrame,
    options: &CsvOptions,
) -> DfResult<()> {
    for i in 0..df.n_rows() {
        let record: Vec<String> = df
            .columns()
            .iter()
            .map(|c| quote_field(&c.cells()[i].to_raw_string(), options.delimiter))
            .collect();
        writeln!(writer, "{}", record.join(&options.delimiter.to_string()))?;
    }
    Ok(())
}

/// Serialise a dataframe as CSV (header + records, labels omitted — matching
/// `to_csv(index=False)`).
pub fn write_csv_string(df: &DataFrame, options: &CsvOptions) -> DfResult<String> {
    let mut out: Vec<u8> = Vec::new();
    write_csv_header(&mut out, df.col_labels(), options)?;
    append_csv_records(&mut out, df, options)?;
    String::from_utf8(out).map_err(|_| DfError::internal("CSV writer produced non-UTF-8 output"))
}

/// Write a dataframe to a CSV file on disk.
pub fn write_csv_path(
    df: &DataFrame,
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> DfResult<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(write_csv_string(df, options)?.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;
    use df_types::domain::Domain;

    const SAMPLE: &str = "name,price,rating\niPhone 11,699,4.6\niPhone SE,399,4.5\n";

    fn temp_csv(name: &str, content: &str) -> std::path::PathBuf {
        // Tests run in parallel and several derive the same `name`; the sequence
        // number keeps one test from deleting the file another is still reading.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("df_storage_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{seq}-{name}"));
        std::fs::write(&path, content).unwrap();
        path
    }

    /// Parse a file through the chunked path at the given chunk granularity and
    /// assemble the bands — the storage-level equivalent of parallel ingest.
    fn read_via_chunks(content: &str, options: &CsvOptions, rows_per_chunk: usize) -> DataFrame {
        let path = temp_csv(
            &format!("chunked-{rows_per_chunk}-{}.csv", content.len()),
            content,
        );
        let plan = plan_csv_chunks(&path, options, rows_per_chunk).unwrap();
        assert_eq!(plan.total_bytes, content.len() as u64);
        let mut bands: Vec<DataFrame> = plan
            .chunks
            .iter()
            .map(|chunk| read_csv_chunk(&path, options, &plan, chunk).unwrap())
            .collect();
        if options.infer_schema {
            let summaries: Vec<Vec<InductionSummary>> =
                bands.iter().map(band_induction_summaries).collect();
            let domains = reconcile_domains(&summaries);
            bands = bands
                .into_iter()
                .map(|band| apply_domains(band, &domains).unwrap())
                .collect();
        }
        std::fs::remove_file(path).ok();
        if bands.is_empty() {
            let mut empty = plan.empty_frame().unwrap();
            if options.infer_schema {
                empty.parse_all();
            }
            return empty;
        }
        df_core::ops::setops::union_all(bands).unwrap()
    }

    /// Serial and chunked parses must agree cell-for-cell and schema-for-schema at
    /// every chunk granularity.
    fn assert_serial_chunked_identical(content: &str, options: &CsvOptions) {
        let serial = read_csv_str(content, options).unwrap();
        for rows_per_chunk in [1usize, 2, 3, 7, 1000] {
            let chunked = read_via_chunks(content, options, rows_per_chunk);
            assert!(
                chunked.same_data(&serial),
                "chunked ({rows_per_chunk} rows/chunk) diverged from serial\nserial:\n{serial}\nchunked:\n{chunked}"
            );
            assert_eq!(
                chunked.schema(),
                serial.schema(),
                "schema diverged at {rows_per_chunk} rows/chunk"
            );
        }
    }

    // -----------------------------------------------------------------------
    // The oracle: the char-by-char record scanner and splitter every reader ran on
    // before the byte-level tokenizer, kept verbatim to test the tokenizer against.
    // -----------------------------------------------------------------------

    /// Parse one CSV record, honouring double-quote quoting and embedded delimiters (and,
    /// since the record scanner keeps them intact, embedded newlines).
    fn split_record(line: &str, delimiter: char) -> Vec<String> {
        let mut fields = Vec::new();
        let mut current = String::new();
        let mut in_quotes = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        current.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                } else {
                    current.push(c);
                }
            } else if c == '"' {
                in_quotes = true;
            } else if c == delimiter {
                fields.push(std::mem::take(&mut current));
            } else {
                current.push(c);
            }
        }
        fields.push(current);
        fields
    }

    /// Iterator over the records of a CSV document: splits at *unquoted* newlines only
    /// (a `\n` inside a quoted field is data, not a record boundary) and strips the `\r`
    /// of a CRLF terminator. The quote state machine matches [`split_record`]'s, so a
    /// record the scanner yields is always split into the fields the writer produced.
    struct Records<'a> {
        content: &'a str,
        pos: usize,
    }

    impl<'a> Records<'a> {
        fn new(content: &'a str) -> Self {
            Records { content, pos: 0 }
        }
    }

    impl<'a> Iterator for Records<'a> {
        type Item = &'a str;

        fn next(&mut self) -> Option<&'a str> {
            let bytes = self.content.as_bytes();
            if self.pos >= bytes.len() {
                return None;
            }
            let start = self.pos;
            let mut in_quotes = false;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    // `""` inside quotes exits and immediately re-enters: net unchanged,
                    // exactly like the field splitter's escape handling.
                    b'"' => in_quotes = !in_quotes,
                    b'\n' if !in_quotes => {
                        let mut end = i;
                        if end > start && bytes[end - 1] == b'\r' {
                            end -= 1;
                        }
                        self.pos = i + 1;
                        return Some(&self.content[start..end]);
                    }
                    _ => {}
                }
                i += 1;
            }
            // Final record without a terminating newline (its `\r`, if any, is data —
            // mirroring `BufRead::lines`).
            self.pos = bytes.len();
            Some(&self.content[start..])
        }
    }

    /// The oracle's parse loop: data records into per-column raw cells. `n_cols` is the expected arity
    /// (`None` derives it from the first non-empty record, the headerless serial path);
    /// `row_offset` is the global index of the first data record, used so a ragged-row
    /// error reports the same row number no matter which chunk found it.
    fn parse_data_records<'a>(
        records: impl Iterator<Item = &'a str>,
        delimiter: char,
        n_cols: Option<usize>,
        row_offset: usize,
    ) -> DfResult<(Vec<Vec<Cell>>, usize, usize)> {
        let mut n_cols = n_cols;
        let mut columns: Vec<Vec<Cell>> = match n_cols {
            Some(n) => vec![Vec::new(); n],
            None => Vec::new(),
        };
        let mut row_count = 0usize;
        for record in records {
            if record.is_empty() {
                continue;
            }
            let fields = split_record(record, delimiter);
            let expected = *n_cols.get_or_insert_with(|| {
                columns = vec![Vec::new(); fields.len()];
                fields.len()
            });
            if fields.len() != expected {
                return Err(DfError::shape(
                    format!("{expected} fields per record"),
                    format!(
                        "{} fields at data row {}",
                        fields.len(),
                        row_offset + row_count
                    ),
                ));
            }
            for (slot, field) in columns.iter_mut().zip(fields) {
                if df_types::domain::is_null_token(&field) {
                    slot.push(Cell::Null);
                } else {
                    slot.push(Cell::Str(field));
                }
            }
            row_count += 1;
        }
        Ok((columns, n_cols.unwrap_or(0), row_count))
    }

    /// The statistics sink's oracle: per-chunk column statistics folded from a parsed
    /// band's raw (pre-cast) cells, one [`ColumnChunkStats::observe`] per cell.
    fn chunk_column_stats(band: &DataFrame) -> Vec<ColumnChunkStats> {
        let fold = |column: &Column| {
            let (mut stats, mut seen) = (ColumnChunkStats::default(), DistinctSeen::default());
            column
                .cells()
                .iter()
                .for_each(|cell| stats.observe(cell, &mut seen));
            stats
        };
        band.columns().iter().map(fold).collect()
    }

    /// The oracle's reading of a header-less document.
    fn oracle_columns(
        content: &str,
        delimiter: char,
        n_cols: Option<usize>,
        row_offset: usize,
    ) -> DfResult<(Vec<Vec<Cell>>, usize, usize)> {
        parse_data_records(Records::new(content), delimiter, n_cols, row_offset)
    }

    /// SplitMix64: the property tests draw one seed and derive a document from it (the
    /// vendored proptest shim only has numeric strategies).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Field payloads chosen to sit on every edge the readers have: null spellings,
    /// leading-zero and signed-zero numerics, NaN/inf spellings, booleans, dates,
    /// padding, multi-byte text.
    const PAYLOADS: [&str; 24] = [
        "",
        "NA",
        "n/a",
        " NaN ",
        "null",
        "None",
        "007",
        "-0",
        "-0.0",
        "+5",
        "1e3",
        "inf",
        "-nan",
        "true",
        "FALSE",
        "2020-01-01",
        "x",
        " padded ",
        "SUV",
        "sedan",
        "é",
        "日本",
        "9223372036854775808",
        "0.1",
    ];

    /// An adversarial document: mostly `cols`-wide records whose fields are bare,
    /// quoted, `""`-escaped or quoted mid-field, with embedded delimiters, LF, CRLF and
    /// lone `\r`, CRLF/LF terminators, blank records and the odd ragged row; one case
    /// in eight is raw soup over the special characters (unbalanced quotes included).
    fn adversarial_document(seed: u64, delimiter: char, cols: usize) -> String {
        let mut rng = Rng(seed);
        let delimiter = delimiter.to_string();
        let mut out = String::new();
        if rng.below(8) == 0 {
            let soup = [
                "\"",
                "\"\"",
                delimiter.as_str(),
                "\n",
                "\r\n",
                "\r",
                "a",
                "1",
                " ",
                "é",
            ];
            for _ in 0..rng.below(40) {
                out.push_str(rng.pick(&soup));
            }
            return out;
        }
        for _ in 0..rng.below(12) {
            let width = if rng.below(48) == 0 { cols + 1 } else { cols };
            for col in 0..width {
                if col > 0 {
                    out.push_str(&delimiter);
                }
                let payload = rng.pick(&PAYLOADS);
                match rng.below(8) {
                    0 => out.push_str(&format!("\"{payload}\"")),
                    1 => out.push_str(&format!("\"{payload}{delimiter}\"\"q\"\"\"")),
                    2 => out.push_str(&format!("\"{payload}\n{payload}\r\nz\"")),
                    3 => out.push_str(&format!("{payload}\"mid{delimiter}field\"{payload}")),
                    4 => out.push_str(&format!("{payload}\r{payload}")),
                    _ => out.push_str(payload),
                }
            }
            out.push_str(rng.pick(&["\n", "\n", "\r\n", "\n\n", "\r\n\r\n"]));
        }
        if rng.below(4) == 0 {
            // No terminator on the last record — sometimes inside an open quote.
            out.push_str(rng.pick(&["tail", "tail\r", "\"open", "\"open\n"]));
        }
        out
    }

    fn delimiter_for(seed: u64) -> char {
        [',', ',', ';', '\t', '|', '¦', '→'][(seed % 7) as usize]
    }

    /// Cells and schema slots agree (NaN cells compare equal to each other).
    fn assert_same_columns(actual: &[Column], expected: &[Column], context: &str) {
        assert_eq!(actual.len(), expected.len(), "{context}: column count");
        for (j, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert_eq!(a.len(), e.len(), "{context}: column {j} length");
            for (i, (x, y)) in a.cells().iter().zip(e.cells()).enumerate() {
                assert!(x.key_eq(y), "{context}: cell ({i},{j}) {x:?} != {y:?}");
            }
            assert_eq!(
                a.known_domain(),
                e.known_domain(),
                "{context}: column {j} domain"
            );
        }
    }

    /// Run one document through all three sinks and check each against the oracle.
    fn check_sinks_against_oracle(
        content: &str,
        delimiter: char,
        n_cols: Option<usize>,
        seed: u64,
    ) {
        let context = format!("seed {seed} delimiter {delimiter:?} document {content:?}");
        let oracle = oracle_columns(content, delimiter, n_cols, 3);
        let mut cells = BandSink::new(n_cols.unwrap_or(0), None, None).unwrap();
        let tokenized = tokenize(content, delimiter, n_cols, 3, &mut cells);
        let (columns, arity, rows) = match (oracle, tokenized) {
            (Err(expected), Err(actual)) => {
                assert_eq!(format!("{actual}"), format!("{expected}"), "{context}");
                return;
            }
            (Ok(oracle), Ok((rows, arity))) => {
                assert_eq!((rows, arity), (oracle.2, oracle.1), "{context}");
                oracle
            }
            (oracle, tokenized) => {
                panic!("{context}: oracle {oracle:?} vs tokenizer {tokenized:?}")
            }
        };
        // Cell sink == the oracle's raw cells.
        let raw_columns: Vec<Column> = columns.into_iter().map(Column::new).collect();
        assert_same_columns(&cells.into_columns(), &raw_columns, &context);
        let labels = Labels::new((0..arity).map(|j| Cell::Int(j as i64)).collect());
        let band = DataFrame::from_parts(raw_columns, Labels::positional(rows), labels).unwrap();

        // Statistics sink == chunk_column_stats + band_induction_summaries over that band.
        for infer in [false, true] {
            let mut stats = StatsSink {
                stats: vec![ColumnChunkStats::default(); arity],
                seen: (0..arity).map(|_| DistinctSeen::default()).collect(),
                summaries: infer.then(|| (0..arity).map(|_| InductionSummary::begin()).collect()),
            };
            tokenize(content, delimiter, Some(arity), 3, &mut stats).unwrap();
            assert_eq!(stats.stats, chunk_column_stats(&band), "{context}");
            assert_eq!(
                stats.summaries,
                infer.then(|| band_induction_summaries(&band)),
                "{context}"
            );
        }

        // Typed sink == cell sink + projection + apply_domains, under the reconciled
        // domains and under arbitrary ones (which exercise every failed parse).
        let mut rng = Rng(seed ^ 0xD0_4A1);
        let keep: Vec<usize> = (0..arity).rev().filter(|_| rng.below(3) > 0).collect();
        let reconciled = reconcile_domains(&[band_induction_summaries(&band)]);
        let arbitrary: Vec<Domain> = (0..arity).map(|_| Domain::ALL[rng.below(7)]).collect();
        for file_domains in [reconciled, arbitrary] {
            let domains: Vec<Domain> = keep.iter().map(|&j| file_domains[j]).collect();
            let mut typed = BandSink::new(arity, Some(&keep), Some(&domains)).unwrap();
            tokenize(content, delimiter, Some(arity), 3, &mut typed).unwrap();
            let expected = apply_domains(band.take_columns(&keep).unwrap(), &domains).unwrap();
            assert_same_columns(&typed.into_columns(), expected.columns(), &context);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        // Tokenizer differential: on adversarial documents every sink reproduces the
        // oracle — same cells, same statistics, same typed cells, same errors.
        #[test]
        fn tokenizer_matches_the_char_by_char_oracle(seed in 0u64..u64::MAX, cols in 1usize..5) {
            let delimiter = delimiter_for(seed);
            let content = adversarial_document(seed, delimiter, cols);
            check_sinks_against_oracle(&content, delimiter, Some(cols), seed);
            // Arity taken from the first record, as the headerless serial reader does.
            check_sinks_against_oracle(&content, delimiter, None, seed);
            // And a header line splits like any record.
            let (record, _) = first_record(&content);
            proptest::prop_assert_eq!(split_line(record, delimiter), split_record(record, delimiter));
            proptest::prop_assert_eq!(Some(record), Records::new(&content).next().or(Some("")));
        }

        // Totality: arbitrary bytes — invalid UTF-8, NUL, unbalanced quotes — and plans
        // that no longer describe the file end in a typed error or a frame, never a panic.
        #[test]
        fn chunk_readers_are_total_on_arbitrary_bytes(seed in 0u64..u64::MAX, len in 0usize..160) {
            let mut rng = Rng(seed);
            let alphabet: &[u8] = b"\"\",,\n\n\r\0ab1 \xff\xc3\xa9";
            let bytes: Vec<u8> = (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect();
            let path = temp_csv("fuzz.csv", "");
            std::fs::write(&path, &bytes).unwrap();
            let options = CsvOptions { has_header: rng.below(2) == 0, ..CsvOptions::default() };
            let mut plans = vec![CsvIngestPlan {
                header: None,
                n_cols: rng.below(4),
                total_rows: 1,
                total_bytes: len as u64,
                chunks: vec![CsvChunk {
                    start_byte: rng.below(len + 2) as u64,
                    end_byte: rng.below(len + 2) as u64,
                    rows: rng.below(3),
                    start_row: 0,
                }],
            }];
            plans.extend(plan_csv_chunks(&path, &options, 1 + rng.below(3)));
            for plan in &plans {
                let keep: Vec<usize> = (0..plan.n_cols).filter(|_| rng.below(2) == 0).collect();
                let domains: Vec<Domain> = keep.iter().map(|_| Domain::ALL[rng.below(7)]).collect();
                for chunk in &plan.chunks {
                    let _ = read_csv_chunk(&path, &options, plan, chunk);
                    let _ = read_csv_chunk_with(&path, &options, plan, chunk, Some(&keep), Some(&domains));
                    let _ = csv_chunk_stats(&path, &options, plan, chunk);
                }
            }
            let _ = read_csv_path(&path, &options);
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn one_multi_megabyte_field_and_an_open_quote_at_eof_parse() {
        let big = "x".repeat(3 << 20);
        for content in [
            format!("a,b\n1,\"{big}\n"),
            format!("a,b\n1,{big}"),
            format!("a,b\n\"{big}"),
        ] {
            let path = temp_csv("big-field.csv", &content);
            let options = CsvOptions::default();
            let plan = plan_csv_chunks(&path, &options, 8).unwrap();
            for chunk in &plan.chunks {
                match read_csv_chunk(&path, &options, &plan, chunk) {
                    Ok(band) => assert_eq!(band.n_rows(), chunk.rows),
                    Err(err) => assert!(matches!(err, DfError::ShapeMismatch { .. }), "{err}"),
                }
                let _ = csv_chunk_stats(&path, &options, &plan, chunk);
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn a_file_that_changed_under_its_plan_is_an_io_error() {
        let content = "a,b\n1,x\n2,y\n3,z\n4,w\n";
        let options = CsvOptions::default();
        let read_all = |path: &std::path::Path, plan: &CsvIngestPlan| -> Vec<DfResult<()>> {
            plan.chunks
                .iter()
                .flat_map(|chunk| {
                    [
                        read_csv_chunk(path, &options, plan, chunk).map(drop),
                        read_csv_chunk_with(path, &options, plan, chunk, Some(&[1]), None)
                            .map(drop),
                        csv_chunk_stats(path, &options, plan, chunk).map(drop),
                    ]
                })
                .collect()
        };
        // Truncated: the last chunk's byte range is gone.
        let path = temp_csv("truncated.csv", content);
        let plan = plan_csv_chunks(&path, &options, 2).unwrap();
        assert!(read_all(&path, &plan).iter().all(Result::is_ok));
        std::fs::write(&path, &content[..content.len() - 6]).unwrap();
        let outcomes = read_all(&path, &plan);
        assert!(
            outcomes[..3].iter().all(Result::is_ok),
            "the first chunk is intact"
        );
        for outcome in &outcomes[3..] {
            assert!(matches!(outcome, Err(DfError::Io(_))), "{outcome:?}");
        }
        // Grown: two short records were inserted, so the first chunk's byte range now
        // holds three records where the plan counted two.
        std::fs::write(&path, "a,b\n,\n,\n1,x\n2,y\n3,z\n4,w\n").unwrap();
        for outcome in &read_all(&path, &plan)[..3] {
            assert!(
                matches!(outcome, Err(DfError::Io(msg)) if msg.contains("changed between planning")),
                "{outcome:?}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_csv_produces_untyped_raw_cells() {
        let df = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(df.shape(), (2, 3));
        assert_eq!(df.cell(0, 1).unwrap(), &cell("699"));
        assert_eq!(df.schema(), vec![None, None, None]);
    }

    #[test]
    fn read_csv_with_schema_inference_types_columns() {
        let options = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        let df = read_csv_str(SAMPLE, &options).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &cell(699));
        assert_eq!(
            df.schema(),
            vec![Some(Domain::Str), Some(Domain::Int), Some(Domain::Float)]
        );
    }

    #[test]
    fn quoting_and_embedded_delimiters_round_trip() {
        let csv = "id,desc\n1,\"a, b\"\n2,\"say \"\"hi\"\"\"\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &cell("a, b"));
        assert_eq!(df.cell(1, 1).unwrap(), &cell("say \"hi\""));
        let written = write_csv_string(&df, &CsvOptions::default()).unwrap();
        let reread = read_csv_str(&written, &CsvOptions::default()).unwrap();
        assert!(reread.same_data(&df));
    }

    #[test]
    fn quoted_embedded_newlines_parse_and_round_trip() {
        // The serial-reader hardening uncovered by the chunk splitter: a `\n` inside
        // quotes is data, not a record boundary — in both modes.
        let csv = "id,note\n1,\"line one\nline two\"\n2,plain\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.shape(), (2, 2));
        assert_eq!(df.cell(0, 1).unwrap(), &cell("line one\nline two"));
        assert_eq!(df.cell(1, 1).unwrap(), &cell("plain"));
        let written = write_csv_string(&df, &CsvOptions::default()).unwrap();
        let reread = read_csv_str(&written, &CsvOptions::default()).unwrap();
        assert!(reread.same_data(&df));
        assert_serial_chunked_identical(csv, &CsvOptions::default());
        // A quoted CRLF survives as data too.
        let crlf_in_quotes = "id,note\r\n1,\"a\r\nb\"\r\n";
        let df = read_csv_str(crlf_in_quotes, &CsvOptions::default()).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &cell("a\r\nb"));
        assert_serial_chunked_identical(crlf_in_quotes, &CsvOptions::default());
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let lf = "a,b\n1,x\n2,y\n";
        let crlf = "a,b\r\n1,x\r\n2,y\r\n";
        let from_lf = read_csv_str(lf, &CsvOptions::default()).unwrap();
        let from_crlf = read_csv_str(crlf, &CsvOptions::default()).unwrap();
        assert!(from_crlf.same_data(&from_lf));
        assert_eq!(from_crlf.cell(1, 1).unwrap(), &cell("y"));
        assert_serial_chunked_identical(crlf, &CsvOptions::default());
        // A CRLF blank record is skipped like an LF one.
        let blanks = "a,b\r\n1,x\r\n\r\n2,y\r\n";
        assert_eq!(
            read_csv_str(blanks, &CsvOptions::default())
                .unwrap()
                .shape(),
            (2, 2)
        );
        assert_serial_chunked_identical(blanks, &CsvOptions::default());
    }

    #[test]
    fn trailing_delimiter_rows_yield_trailing_nulls() {
        // `1,` is a two-field record whose second field is empty → null, in both the
        // serial and the chunked mode (and with CRLF terminators).
        for csv in ["a,b\n1,\n2,x\n", "a,b\r\n1,\r\n2,x\r\n"] {
            let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
            assert_eq!(df.shape(), (2, 2));
            assert_eq!(df.cell(0, 1).unwrap(), &Cell::Null);
            assert_eq!(df.cell(1, 1).unwrap(), &cell("x"));
            assert_serial_chunked_identical(csv, &CsvOptions::default());
        }
    }

    #[test]
    fn missing_fields_and_ragged_rows() {
        let csv = "a,b\n1,\n2,x\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &Cell::Null);
        let ragged = "a,b\n1\n";
        assert!(read_csv_str(ragged, &CsvOptions::default()).is_err());
        // The chunked mode reports the same global row in its ragged error.
        let ragged_later = "a,b\n1,x\n2,y\n3\n";
        let serial_err = read_csv_str(ragged_later, &CsvOptions::default()).unwrap_err();
        let path = temp_csv("ragged.csv", ragged_later);
        let plan = plan_csv_chunks(&path, &CsvOptions::default(), 1).unwrap();
        let chunk_err =
            read_csv_chunk(&path, &CsvOptions::default(), &plan, &plan.chunks[2]).unwrap_err();
        assert_eq!(format!("{serial_err}"), format!("{chunk_err}"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn headerless_files_get_positional_column_labels() {
        let options = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let df = read_csv_str("1,2\n3,4\n", &options).unwrap();
        assert_eq!(df.col_labels().as_slice(), &[cell(0), cell(1)]);
        assert_eq!(df.shape(), (2, 2));
        assert_serial_chunked_identical("1,2\n3,4\n", &options);
    }

    #[test]
    fn alternative_delimiters() {
        let options = CsvOptions {
            delimiter: ';',
            ..CsvOptions::default()
        };
        let df = read_csv_str("a;b\n1;2\n", &options).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &cell("2"));
        let out = write_csv_string(&df, &options).unwrap();
        assert!(out.starts_with("a;b\n"));
        assert_serial_chunked_identical("a;b\n1;2\n2;3\n4;5\n", &options);
    }

    #[test]
    fn empty_input_yields_empty_frame() {
        let df = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(df.shape(), (0, 0));
        assert_serial_chunked_identical("", &CsvOptions::default());
        // Header-only files keep their labels at zero rows, in both modes.
        assert_serial_chunked_identical("a,b\n", &CsvOptions::default());
        let header_only = read_csv_str("a,b\n", &CsvOptions::default()).unwrap();
        assert_eq!(header_only.shape(), (0, 2));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("df_storage_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        let df = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        write_csv_path(&df, &path, &CsvOptions::default()).unwrap();
        let reread = read_csv_path(&path, &CsvOptions::default()).unwrap();
        assert!(reread.same_data(&df));
        assert!(read_csv_path(dir.join("missing.csv"), &CsvOptions::default()).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunk_plan_counts_rows_and_respects_boundaries() {
        let content = "h1,h2\n1,a\n2,b\n3,c\n4,d\n5,e\n";
        let path = temp_csv("plan.csv", content);
        let plan = plan_csv_chunks(&path, &CsvOptions::default(), 2).unwrap();
        assert_eq!(plan.total_rows, 5);
        assert_eq!(plan.n_cols, 2);
        assert_eq!(plan.header, Some(vec!["h1".to_string(), "h2".to_string()]));
        assert_eq!(plan.chunks.len(), 3);
        assert_eq!(
            plan.chunks.iter().map(|c| c.rows).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(
            plan.chunks.iter().map(|c| c.start_row).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        // Chunks tile the data byte range exactly.
        assert_eq!(plan.chunks[0].start_byte, 6);
        for pair in plan.chunks.windows(2) {
            assert_eq!(pair[0].end_byte, pair[1].start_byte);
        }
        assert_eq!(plan.chunks.last().unwrap().end_byte, plan.total_bytes);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn projected_chunk_read_matches_full_read_column_subset() {
        let content = "a,b,c\n1,x,10\n2,\"y,z\",20\n3,na,30\n";
        let path = temp_csv("projected.csv", content);
        let options = CsvOptions::default();
        let plan = plan_csv_chunks(&path, &options, 2).unwrap();
        for chunk in &plan.chunks {
            let full = read_csv_chunk(&path, &options, &plan, chunk).unwrap();
            // Subset in reversed order: labels, cells and row labels all follow.
            let projected =
                read_csv_chunk_with(&path, &options, &plan, chunk, Some(&[2, 0]), None).unwrap();
            assert_eq!(projected.n_rows(), full.n_rows());
            assert_eq!(
                projected.col_labels().as_slice(),
                &[cell("c"), cell("a")],
                "labels follow keep order"
            );
            assert_eq!(projected.row_labels(), full.row_labels());
            for i in 0..full.n_rows() {
                assert_eq!(projected.cell(i, 0).unwrap(), full.cell(i, 2).unwrap());
                assert_eq!(projected.cell(i, 1).unwrap(), full.cell(i, 0).unwrap());
            }
        }
        // Null tokens convert identically on the projected path.
        let all =
            read_csv_chunk_with(&path, &options, &plan, &plan.chunks[1], Some(&[1]), None).unwrap();
        assert_eq!(all.cell(all.n_rows() - 1, 0).unwrap(), &Cell::Null);
        // Guard rails: out-of-range and duplicate positions are rejected.
        assert!(
            read_csv_chunk_with(&path, &options, &plan, &plan.chunks[0], Some(&[9]), None).is_err()
        );
        assert!(
            read_csv_chunk_with(&path, &options, &plan, &plan.chunks[0], Some(&[0, 0]), None)
                .is_err()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn projected_chunk_read_still_reports_ragged_rows() {
        let ragged = "a,b\n1,x\n2\n";
        let path = temp_csv("ragged-projected.csv", ragged);
        let options = CsvOptions::default();
        let plan = plan_csv_chunks(&path, &options, 10).unwrap();
        let err = read_csv_chunk_with(&path, &options, &plan, &plan.chunks[0], Some(&[0]), None)
            .unwrap_err();
        assert!(format!("{err}").contains("data row 1"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunk_column_stats_summarise_raw_bands() {
        let band = read_csv_str("a,b\n5,x\n12,na\n5,y\n", &CsvOptions::default()).unwrap();
        let stats = chunk_column_stats(&band);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].numeric, Some((5.0, 12.0)));
        assert_eq!(stats[0].numeric_count, 3);
        assert_eq!(stats[0].nulls, 0);
        assert_eq!(stats[0].distinct, 2);
        assert_eq!(stats[1].nulls, 1);
        assert_eq!(stats[1].numeric, None);
        assert_eq!(stats[1].lexical, Some(("x".to_string(), "y".to_string())));
    }

    #[test]
    fn chunked_mode_matches_serial_on_varied_documents() {
        let no_trailing_newline = "a,b\n1,x\n2,y";
        assert_serial_chunked_identical(no_trailing_newline, &CsvOptions::default());
        let blank_lines = "a,b\n\n1,x\n\n\n2,y\n\n";
        assert_serial_chunked_identical(blank_lines, &CsvOptions::default());
        let quoted_everything =
            "k,v\n\"a,b\",\"1\n2\"\n\"say \"\"hi\"\"\",\"x\r\ny\"\nplain,last\n";
        assert_serial_chunked_identical(quoted_everything, &CsvOptions::default());
    }

    #[test]
    fn chunked_schema_reconciliation_matches_serial_parse_all() {
        let typed = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        // Bands disagree locally: rows 1–2 look Int, row 3 forces Float, row 4 forces
        // Σ* on the second column. The reconciled result must match the whole-column
        // serial induction at every granularity.
        let csv = "n,m\n1,10\n2,20\n2.5,30\nx,40\n";
        assert_serial_chunked_identical(csv, &typed);
        let serial = read_csv_str(csv, &typed).unwrap();
        assert_eq!(serial.schema(), vec![Some(Domain::Str), Some(Domain::Int)]);
        // A category column whose individual bands are too short to pass the
        // category thresholds on their own.
        let mut cat = String::from("kind,v\n");
        for i in 0..40 {
            cat.push_str(if i % 2 == 0 { "SUV,1\n" } else { "sedan,2\n" });
        }
        assert_serial_chunked_identical(&cat, &typed);
        let serial = read_csv_str(&cat, &typed).unwrap();
        assert_eq!(serial.schema()[0], Some(Domain::Category));
        // Untyped numeric-looking strings must survive the raw path untouched.
        let raw = read_csv_str("n\n007\n042\n", &CsvOptions::default()).unwrap();
        assert_eq!(raw.cell(0, 0).unwrap(), &cell("007"));
        assert_serial_chunked_identical("n\n007\n042\n", &CsvOptions::default());
    }

    #[test]
    fn reconciled_str_domains_invalidate_like_serial() {
        // `parse_in_place` leaves a Σ* column's domain merely *induced*; the chunked
        // re-cast must end in the same slot state, so a later content mutation
        // re-induces instead of staying pinned to Str forever.
        let content = "v\nx\n1\n";
        let typed = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        let mut serial = read_csv_str(content, &typed).unwrap();
        let raw_band = read_csv_str(content, &CsvOptions::default()).unwrap();
        let summaries = vec![band_induction_summaries(&raw_band)];
        let domains = reconcile_domains(&summaries);
        assert_eq!(domains, vec![Domain::Str]);
        let mut recast = apply_domains(raw_band, &domains).unwrap();
        assert_eq!(recast.schema(), serial.schema());
        assert_eq!(recast.schema(), vec![Some(Domain::Str)]);
        for frame in [&mut serial, &mut recast] {
            frame.columns_mut()[0].cells_mut()[0] = cell(5);
        }
        assert_eq!(serial.schema(), vec![None], "serial slot must invalidate");
        assert_eq!(
            recast.schema(),
            vec![None],
            "recast slot must invalidate too"
        );
        // Parsed (non-Str) domains stay declared, exactly like parse_in_place.
        let typed_serial = read_csv_str("n\n1\n2\n", &typed).unwrap();
        let raw = read_csv_str("n\n1\n2\n", &CsvOptions::default()).unwrap();
        let domains = reconcile_domains(&[band_induction_summaries(&raw)]);
        let mut recast = apply_domains(raw, &domains).unwrap();
        recast.columns_mut()[0].cells_mut()[0] = cell("x");
        assert_eq!(recast.schema(), typed_serial.schema());
    }

    #[test]
    fn banded_writer_helpers_compose_to_write_csv_string() {
        let df = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        let options = CsvOptions::default();
        let mut out: Vec<u8> = Vec::new();
        write_csv_header(&mut out, df.col_labels(), &options).unwrap();
        // Stream the frame in two "bands".
        append_csv_records(&mut out, &df.head(1), &options).unwrap();
        append_csv_records(&mut out, &df.tail(1), &options).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            write_csv_string(&df, &options).unwrap()
        );
        // Fields containing a bare carriage return are quoted so they round-trip.
        let tricky = DataFrame::from_columns(vec!["x"], vec![vec![cell("a\rb")]]).unwrap();
        let written = write_csv_string(&tricky, &options).unwrap();
        let reread = read_csv_str(&written, &options).unwrap();
        assert!(reread.same_data(&tricky));
    }
}
