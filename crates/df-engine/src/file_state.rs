//! The on-disk state a CSV scan leaf names.
//!
//! A statement that reads a file is keyed by the file's state at read time, so
//! re-reading an unchanged file is a cache hit and a regenerated file is a new
//! statement. A leaf built by [`file_scan`] writes that state into its identity, and
//! the engine checks it before every read of the leaf ([`check_file_state`]): once the
//! file has changed, a statement over the old leaf fails typed instead of parsing the
//! new bytes under the old state's key. A caller-named identity (`ScanCsv::new`) is
//! the caller's promise that the file does not change under it, and is not checked.

use std::path::Path;

use df_core::{ScanCsv, ScanOptions};
use df_storage::csv::CsvOptions;
use df_types::error::{DfError, DfResult};

/// Marks an identity written by [`file_state`], which the engine can check.
const FILE_STATE: &str = "file-state:";

/// The scan leaf of an on-disk CSV statement: the canonical path, the parse options,
/// and an identity naming the file's current state.
pub fn file_scan(path: impl AsRef<Path>, options: &CsvOptions) -> DfResult<ScanCsv> {
    let canonical = std::fs::canonicalize(path)?;
    let identity = file_state(&canonical)?;
    let options = ScanOptions {
        delimiter: options.delimiter,
        has_header: options.has_header,
        infer_schema: options.infer_schema,
    };
    Ok(ScanCsv::new(canonical, options, identity))
}

/// `Err(Io)` when `scan` names a file state (see [`file_scan`]) the file is no longer
/// in.
pub(crate) fn check_file_state(scan: &ScanCsv) -> DfResult<()> {
    if !scan.identity().starts_with(FILE_STATE) || file_state(&scan.path)? == scan.identity() {
        return Ok(());
    }
    Err(DfError::Io(format!(
        "{}: the file changed after this statement read it; read it again",
        scan.path.display()
    )))
}

/// The file's state: mtime nanos, byte length, and on Unix the inode and ctime, which
/// catch replace-by-rename and same-length rewrites.
fn file_state(path: &Path) -> DfResult<String> {
    let metadata = std::fs::metadata(path)?;
    let mtime = metadata
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    #[cfg(unix)]
    let (inode, ctime) = {
        use std::os::unix::fs::MetadataExt;
        (
            metadata.ino(),
            metadata.ctime_nsec() as i128 + metadata.ctime() as i128 * 1_000_000_000,
        )
    };
    #[cfg(not(unix))]
    let (inode, ctime) = (0u64, 0i128);
    Ok(format!(
        "{FILE_STATE}mtime={mtime}&len={}&ino={inode}&ctime={ctime}",
        metadata.len()
    ))
}
