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
//! storage half of partition-parallel ingest:
//!
//! 1. [`plan_csv_chunks`] — one cheap streaming pass over the file that tracks CSV
//!    quote state (so quoted embedded newlines cannot be mistaken for record
//!    boundaries) and cuts the byte range into chunks of whole records, counting the
//!    data rows per chunk as it goes. No cell is allocated.
//! 2. [`read_csv_chunk`] — parse one chunk independently (each worker seeks to its
//!    byte range), producing a raw (`Σ*`) band whose positional row labels already
//!    carry the global offsets the plan recorded.
//! 3. [`band_induction_summaries`] / [`reconcile_domains`] / [`apply_domains`] — the
//!    schema-reconciliation pass for `infer_schema` ingests: each band is summarised
//!    with a composable [`InductionSummary`], the summaries are joined across bands
//!    in band order, and every band is then re-cast with the reconciled per-column
//!    domains — so the result is cell-for-cell (and schema-slot-for-schema-slot)
//!    identical to running the serial reader followed by `parse_all`.
//!
//! The engine layer (`df-engine`) drives steps 2–3 on its worker pool and checks each
//! finished band into the session's spill store; this module stays single-threaded
//! and engine-agnostic.
//!
//! Both the serial and the chunked readers share one record scanner, so quoted
//! embedded newlines, CRLF line endings and trailing-delimiter rows parse identically
//! in both modes (the regression suite below pins this down).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::infer::InductionSummary;
use df_types::labels::Labels;

use df_core::dataframe::{Column, DataFrame};

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

/// Parse data records into per-column cell vectors. `n_cols` is the expected arity
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

/// Read a CSV document from any reader into an untyped (raw `Σ*`) dataframe (or a
/// typed one when [`CsvOptions::infer_schema`] is set).
pub fn read_csv_reader<R: Read>(mut reader: R, options: &CsvOptions) -> DfResult<DataFrame> {
    let mut content = String::new();
    reader.read_to_string(&mut content)?;
    read_csv_str(&content, options)
}

/// Read a CSV document from a string.
pub fn read_csv_str(content: &str, options: &CsvOptions) -> DfResult<DataFrame> {
    let mut records = Records::new(content);
    let mut header: Option<Vec<String>> = None;
    if options.has_header {
        match records.next() {
            Some(record) => header = Some(split_record(record, options.delimiter)),
            None => return Ok(DataFrame::empty()),
        }
    }
    let n_cols_hint = header.as_ref().map(Vec::len);
    let (columns, n_cols, row_count) =
        parse_data_records(records, options.delimiter, n_cols_hint, 0)?;
    let labels: Vec<Cell> = match header {
        Some(names) => names.into_iter().map(Cell::Str).collect(),
        None => (0..n_cols).map(|i| Cell::Int(i as i64)).collect(),
    };
    let columns: Vec<Column> = columns.into_iter().map(Column::new).collect();
    let mut df =
        DataFrame::from_parts(columns, Labels::positional(row_count), Labels::new(labels))?;
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

// ---------------------------------------------------------------------------
// Chunked ingest: plan, per-chunk parse, schema reconciliation
// ---------------------------------------------------------------------------

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
/// its byte range into chunks of at most `rows_per_chunk` whole records. Chunk
/// boundaries always fall at record boundaries (an unquoted newline), so a `\n`
/// inside a quoted field can never split a record across two workers; the scan also
/// counts the data rows per chunk, which is what lets every chunk be parsed with its
/// global row offsets already known.
pub fn plan_csv_chunks(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    rows_per_chunk: usize,
) -> DfResult<CsvIngestPlan> {
    let rows_per_chunk = rows_per_chunk.max(1);
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, file);

    let mut pos: u64 = 0;
    let mut in_quotes = false;
    let mut record_len: usize = 0;
    let mut last_byte: u8 = 0;

    let mut awaiting_header = options.has_header;
    let mut header_raw: Option<String> = None;
    let mut first_data_raw: Option<String> = None;
    // Raw bytes of the record currently being scanned, kept only while the header
    // (or, for headerless files, the first data record) is still being sought.
    let mut capture: Vec<u8> = Vec::new();
    let mut capturing = true;

    let mut chunk_start: u64 = 0;
    let mut chunk_rows = 0usize;
    let mut total_rows = 0usize;
    let mut chunks: Vec<CsvChunk> = Vec::new();

    // Called at every record boundary with the record's effective byte length (CRLF
    // terminator stripped) and the byte offset just past its terminator.
    let mut finish_record = |effective_len: usize,
                             end: u64,
                             capture: &mut Vec<u8>,
                             capturing: &mut bool|
     -> DfResult<()> {
        let raw = if *capturing {
            let text = std::str::from_utf8(&capture[..effective_len])
                .map_err(|_| DfError::Io("CSV file is not valid UTF-8".to_string()))?
                .to_string();
            capture.clear();
            Some(text)
        } else {
            None
        };
        if awaiting_header {
            header_raw = Some(raw.ok_or_else(|| {
                DfError::internal("CSV planner stopped capturing before the header record")
            })?);
            awaiting_header = false;
            // Data (and the first chunk) start after the header record.
            chunk_start = end;
            *capturing = false;
            return Ok(());
        }
        if effective_len == 0 {
            // Blank record: skipped by the parser, never counted as a data row.
            return Ok(());
        }
        if first_data_raw.is_none() {
            if let Some(text) = raw {
                first_data_raw = Some(text);
            }
            *capturing = false;
        }
        total_rows += 1;
        chunk_rows += 1;
        if chunk_rows == rows_per_chunk {
            chunks.push(CsvChunk {
                start_byte: chunk_start,
                end_byte: end,
                rows: chunk_rows,
                start_row: total_rows - chunk_rows,
            });
            chunk_start = end;
            chunk_rows = 0;
        }
        Ok(())
    };

    loop {
        use std::io::BufRead;
        let consumed = {
            let buffer = reader.fill_buf()?;
            if buffer.is_empty() {
                break;
            }
            for &byte in buffer {
                pos += 1;
                match byte {
                    b'"' => {
                        in_quotes = !in_quotes;
                        record_len += 1;
                        if capturing {
                            capture.push(byte);
                        }
                    }
                    b'\n' if !in_quotes => {
                        let effective_len =
                            record_len - usize::from(record_len > 0 && last_byte == b'\r');
                        finish_record(effective_len, pos, &mut capture, &mut capturing)?;
                        record_len = 0;
                    }
                    _ => {
                        record_len += 1;
                        if capturing {
                            capture.push(byte);
                        }
                    }
                }
                last_byte = byte;
            }
            buffer.len()
        };
        reader.consume(consumed);
    }
    if record_len > 0 {
        // Final record without a trailing newline: its `\r`, if any, is data.
        finish_record(record_len, pos, &mut capture, &mut capturing)?;
    }
    if chunk_rows > 0 {
        chunks.push(CsvChunk {
            start_byte: chunk_start,
            end_byte: pos,
            rows: chunk_rows,
            start_row: total_rows - chunk_rows,
        });
    }

    let header = header_raw.map(|raw| split_record(&raw, options.delimiter));
    let n_cols = match (&header, &first_data_raw) {
        (Some(fields), _) => fields.len(),
        (None, Some(raw)) => split_record(raw, options.delimiter).len(),
        (None, None) => 0,
    };
    Ok(CsvIngestPlan {
        header,
        n_cols,
        total_rows,
        total_bytes: pos,
        chunks,
    })
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
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(chunk.start_byte))?;
    let len = (chunk.end_byte - chunk.start_byte) as usize;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    let content = String::from_utf8(bytes)
        .map_err(|_| DfError::Io("CSV file is not valid UTF-8".to_string()))?;
    let (columns, _, rows) = parse_data_records(
        Records::new(&content),
        options.delimiter,
        Some(plan.n_cols),
        chunk.start_row,
    )?;
    if rows != chunk.rows {
        return Err(DfError::internal(format!(
            "CSV chunk at byte {} parsed {rows} rows but the plan counted {} — \
             the file changed between planning and parsing",
            chunk.start_byte, chunk.rows
        )));
    }
    let row_labels = Labels::new(
        (chunk.start_row..chunk.start_row + rows)
            .map(|i| Cell::Int(i as i64))
            .collect(),
    );
    let columns: Vec<Column> = columns.into_iter().map(Column::new).collect();
    DataFrame::from_parts(columns, row_labels, plan.col_labels())
}

/// Parse one planned chunk, materialising only the columns named in `keep` (source
/// positions in the file's column order; the output carries them in `keep` order).
/// This is the storage half of *projection pushdown*: every record is still split and
/// arity-checked — so ragged rows fail with the same error as the unprojected reader
/// — but cells are allocated only for the kept columns. Row labels are the global
/// positional ranks, identical to [`read_csv_chunk`]'s.
///
/// `keep` must be unique and in range; the optimizer builds it by resolving the
/// pushed projection (plus any predicate columns) against the plan's labels.
pub fn read_csv_chunk_cols(
    path: impl AsRef<Path>,
    options: &CsvOptions,
    plan: &CsvIngestPlan,
    chunk: &CsvChunk,
    keep: &[usize],
) -> DfResult<DataFrame> {
    for &k in keep {
        if k >= plan.n_cols {
            return Err(DfError::IndexOutOfBounds {
                axis: "column",
                index: k,
                len: plan.n_cols,
            });
        }
    }
    {
        let mut sorted: Vec<usize> = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != keep.len() {
            return Err(DfError::internal(
                "projected chunk read requires unique column positions",
            ));
        }
    }
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(chunk.start_byte))?;
    let len = (chunk.end_byte - chunk.start_byte) as usize;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    let content = String::from_utf8(bytes)
        .map_err(|_| DfError::Io("CSV file is not valid UTF-8".to_string()))?;

    let mut columns: Vec<Vec<Cell>> = vec![Vec::new(); keep.len()];
    let mut row_count = 0usize;
    for record in Records::new(&content) {
        if record.is_empty() {
            continue;
        }
        let fields = split_record(record, options.delimiter);
        if fields.len() != plan.n_cols {
            return Err(DfError::shape(
                format!("{} fields per record", plan.n_cols),
                format!(
                    "{} fields at data row {}",
                    fields.len(),
                    chunk.start_row + row_count
                ),
            ));
        }
        let mut fields: Vec<Option<String>> = fields.into_iter().map(Some).collect();
        for (slot, &k) in columns.iter_mut().zip(keep) {
            let field = fields[k].take().unwrap_or_default();
            if df_types::domain::is_null_token(&field) {
                slot.push(Cell::Null);
            } else {
                slot.push(Cell::Str(field));
            }
        }
        row_count += 1;
    }
    if row_count != chunk.rows {
        return Err(DfError::internal(format!(
            "CSV chunk at byte {} parsed {row_count} rows but the plan counted {} — \
             the file changed between planning and parsing",
            chunk.start_byte, chunk.rows
        )));
    }
    let row_labels = Labels::new(
        (chunk.start_row..chunk.start_row + row_count)
            .map(|i| Cell::Int(i as i64))
            .collect(),
    );
    let all_labels = plan.col_labels();
    let col_labels = Labels::new(
        keep.iter()
            .map(|&k| all_labels.as_slice()[k].clone())
            .collect(),
    );
    let columns: Vec<Column> = columns.into_iter().map(Column::new).collect();
    DataFrame::from_parts(columns, row_labels, col_labels)
}

/// Summarise one parsed band's columns as per-chunk scan statistics (null counts,
/// numeric and lexical min/max, capped distinct counts) — the filter half of the
/// block–filter–verify pruning the scan leaf performs. Runs over the raw (pre-cast)
/// cells, which is exactly the state [`df_core::scan::chunk_may_match`]'s soundness
/// argument assumes.
pub fn chunk_column_stats(band: &DataFrame) -> Vec<df_core::scan::ColumnChunkStats> {
    band.columns()
        .iter()
        .map(|column| {
            let mut stats = df_core::scan::ColumnChunkStats::default();
            let mut seen = Vec::new();
            for cell in column.cells() {
                stats.observe(cell, &mut seen);
            }
            stats
        })
        .collect()
}

/// Summarise one raw band's columns for schema reconciliation: the per-band half of
/// the schema induction function `S`, in the composable form that joins across bands.
pub fn band_induction_summaries(band: &DataFrame) -> Vec<InductionSummary> {
    band.columns()
        .iter()
        .map(|column| InductionSummary::of_strings(column.cells().iter().filter_map(Cell::as_str)))
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

// ---------------------------------------------------------------------------
// Egress
// ---------------------------------------------------------------------------

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
            let projected = read_csv_chunk_cols(&path, &options, &plan, chunk, &[2, 0]).unwrap();
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
        let all = read_csv_chunk_cols(&path, &options, &plan, &plan.chunks[1], &[1]).unwrap();
        assert_eq!(all.cell(all.n_rows() - 1, 0).unwrap(), &Cell::Null);
        // Guard rails: out-of-range and duplicate positions are rejected.
        assert!(read_csv_chunk_cols(&path, &options, &plan, &plan.chunks[0], &[9]).is_err());
        assert!(read_csv_chunk_cols(&path, &options, &plan, &plan.chunks[0], &[0, 0]).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn projected_chunk_read_still_reports_ragged_rows() {
        let ragged = "a,b\n1,x\n2\n";
        let path = temp_csv("ragged-projected.csv", ragged);
        let options = CsvOptions::default();
        let plan = plan_csv_chunks(&path, &options, 10).unwrap();
        let err = read_csv_chunk_cols(&path, &options, &plan, &plan.chunks[0], &[0]).unwrap_err();
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
