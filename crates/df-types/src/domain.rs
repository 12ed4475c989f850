//! The domain set `Dom` and per-domain parsing functions.
//!
//! Paper §4.2: *"The elements in the dataframe come from a known set of domains
//! `Dom = {Σ*, int, float, bool, category}` … Each domain contains a distinguished null
//! value … Each domain `dom_i` also includes a parsing function `p_i : Σ* → dom_i`."*
//!
//! [`Domain`] enumerates that set (plus `datetime`, which the paper notes is "common in
//! practice", and `composite` for `collect` results). [`Domain::parse`] is the parsing
//! function `p_i`; `Domain::unify` computes the least common domain of two candidates,
//! which the schema induction function uses to widen as it scans a column.

use std::fmt;

use crate::cell::Cell;
use crate::error::{DfError, DfResult};

/// One element of the paper's domain set `Dom`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// `bool`: true/false.
    Bool,
    /// `int`: 64-bit signed integers.
    Int,
    /// `float`: 64-bit IEEE floats.
    Float,
    /// `datetime`: seconds since the Unix epoch, parsed from ISO-8601-like strings.
    DateTime,
    /// `category`: a string domain with a (small) finite set of distinct values. Values
    /// are stored as strings; the distinction from `Σ*` matters for induction and for
    /// one-hot encoding (`get_dummies`).
    Category,
    /// `Σ*`: the uninterpreted string domain (pandas `Object`), the default.
    Str,
    /// Composite cells produced by GROUPBY `collect` (§4.3).
    Composite,
}

impl Domain {
    /// All domains, in widening order (narrowest first). `unify` relies on this order.
    pub const ALL: [Domain; 7] = [
        Domain::Bool,
        Domain::Int,
        Domain::Float,
        Domain::DateTime,
        Domain::Category,
        Domain::Str,
        Domain::Composite,
    ];

    /// The canonical lower-case name of the domain, used in error messages and in the
    /// printed schema.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Bool => "bool",
            Domain::Int => "int",
            Domain::Float => "float",
            Domain::DateTime => "datetime",
            Domain::Category => "category",
            Domain::Str => "str",
            Domain::Composite => "composite",
        }
    }

    /// Parse a domain from its [`Domain::name`] (the inverse of `name`, useful when a
    /// schema is declared externally, e.g. `TRANSPOSE(df, [myschema])` in §5.1.2).
    pub fn from_name(name: &str) -> Option<Domain> {
        match name.trim().to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Some(Domain::Bool),
            "int" | "int64" | "integer" => Some(Domain::Int),
            "float" | "float64" | "double" => Some(Domain::Float),
            "datetime" | "datetime64" | "timestamp" => Some(Domain::DateTime),
            "category" | "categorical" => Some(Domain::Category),
            "str" | "string" | "object" => Some(Domain::Str),
            "composite" | "list" => Some(Domain::Composite),
            _ => None,
        }
    }

    /// True when members of the domain support arithmetic (fields in the matrix sense).
    /// Homogeneous dataframes over a numeric domain are the paper's *matrix dataframes*.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Domain::Bool | Domain::Int | Domain::Float)
    }

    /// The parsing function `p_i : Σ* → dom_i`.
    ///
    /// The empty string and the conventional `NA`/`null`/`NaN` spellings parse to the
    /// distinguished null value in every domain. A string that cannot be interpreted in
    /// the domain yields a [`DfError::ParseError`].
    pub fn parse(&self, raw: &str) -> DfResult<Cell> {
        let trimmed = raw.trim();
        if is_null_token(trimmed) {
            return Ok(Cell::Null);
        }
        match self {
            Domain::Str | Domain::Category => Ok(Cell::Str(trimmed.to_string())),
            Domain::Bool => {
                let spelled =
                    |words: &[&str]| words.iter().any(|w| trimmed.eq_ignore_ascii_case(w));
                if spelled(&["true", "t", "yes", "y", "1"]) {
                    Ok(Cell::Bool(true))
                } else if spelled(&["false", "f", "no", "n", "0"]) {
                    Ok(Cell::Bool(false))
                } else {
                    Err(parse_err(self, raw))
                }
            }
            Domain::Int => trimmed
                .parse::<i64>()
                .map(Cell::Int)
                .map_err(|_| parse_err(self, raw)),
            Domain::Float => trimmed
                .parse::<f64>()
                .map(Cell::Float)
                .map_err(|_| parse_err(self, raw)),
            Domain::DateTime => parse_datetime_seconds(trimmed)
                .map(Cell::Int)
                .ok_or_else(|| parse_err(self, raw)),
            Domain::Composite => Err(parse_err(self, raw)),
        }
    }

    /// Coerce a typed cell into this domain if a lossless (or conventional) conversion
    /// exists; otherwise report a type mismatch. This is what `astype` uses.
    pub fn coerce(&self, cell: &Cell) -> DfResult<Cell> {
        if cell.is_null() {
            return Ok(Cell::Null);
        }
        match self {
            Domain::Str | Domain::Category => Ok(Cell::Str(cell.to_raw_string())),
            Domain::Int | Domain::DateTime => match cell {
                Cell::Int(v) => Ok(Cell::Int(*v)),
                Cell::Bool(b) => Ok(Cell::Int(i64::from(*b))),
                Cell::Float(v) if v.fract() == 0.0 => Ok(Cell::Int(*v as i64)),
                Cell::Str(s) => self.parse(s),
                other => Err(DfError::type_mismatch(self.name(), other)),
            },
            Domain::Float => match cell {
                Cell::Float(v) => Ok(Cell::Float(*v)),
                Cell::Int(v) => Ok(Cell::Float(*v as f64)),
                Cell::Bool(b) => Ok(Cell::Float(if *b { 1.0 } else { 0.0 })),
                Cell::Str(s) => Domain::Float.parse(s),
                other => Err(DfError::type_mismatch(self.name(), other)),
            },
            Domain::Bool => match cell {
                Cell::Bool(b) => Ok(Cell::Bool(*b)),
                Cell::Int(v) => Ok(Cell::Bool(*v != 0)),
                Cell::Str(s) => Domain::Bool.parse(s),
                other => Err(DfError::type_mismatch(self.name(), other)),
            },
            Domain::Composite => match cell {
                Cell::List(_) => Ok(cell.clone()),
                other => Ok(Cell::List(vec![other.clone()])),
            },
        }
    }

    /// The least common domain containing both operands, used by schema induction as it
    /// widens over a column, and by `UNION` when aligning schemas.
    pub(crate) fn unify(self, other: Domain) -> Domain {
        use Domain::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Bool, Int) | (Int, Bool) => Int,
            (Bool, Float) | (Float, Bool) => Float,
            (Int, Float) | (Float, Int) => Float,
            (Category, Str) | (Str, Category) => Str,
            (DateTime, Int) | (Int, DateTime) => Int,
            (Composite, _) | (_, Composite) => Composite,
            _ => Str,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn parse_err(domain: &Domain, value: &str) -> DfError {
    DfError::ParseError {
        domain: domain.name().to_string(),
        value: value.to_string(),
    }
}

/// The spellings of the distinguished null value accepted by every parsing function.
/// Runs once per ingested field, so it compares in place instead of lower-casing a copy.
pub fn is_null_token(raw: &str) -> bool {
    let trimmed = raw.trim();
    trimmed.len() <= 4
        && ["", "na", "n/a", "nan", "null", "none"]
            .iter()
            .any(|token| trimmed.eq_ignore_ascii_case(token))
}

/// Parse an ISO-8601-like date or datetime (`YYYY-MM-DD` or `YYYY-MM-DD HH:MM:SS`,
/// with `T` accepted as the separator) into seconds since the Unix epoch.
///
/// The implementation is a small proleptic-Gregorian converter — the workspace has no
/// external chrono dependency — sufficient for the taxi workload timestamps.
pub(crate) fn parse_datetime_seconds(raw: &str) -> Option<i64> {
    let raw = raw.trim();
    let (date_part, time_part) = match raw.split_once(['T', ' ']) {
        Some((d, t)) => (d, Some(t)),
        None => (raw, None),
    };
    let mut date_iter = date_part.split('-');
    let year: i64 = date_iter.next()?.parse().ok()?;
    let month: i64 = date_iter.next()?.parse().ok()?;
    let day: i64 = date_iter.next()?.parse().ok()?;
    if date_iter.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let days = days_from_civil(year, month, day);
    let mut seconds = days * 86_400;
    if let Some(time) = time_part {
        let mut time_iter = time.trim_end_matches('Z').split(':');
        let hour: i64 = time_iter.next()?.parse().ok()?;
        let minute: i64 = time_iter.next().unwrap_or("0").parse().ok()?;
        let second: f64 = time_iter.next().unwrap_or("0").parse().ok()?;
        if !(0..24).contains(&hour) || !(0..60).contains(&minute) || !(0.0..60.0).contains(&second)
        {
            return None;
        }
        seconds += hour * 3_600 + minute * 60 + second as i64;
    }
    Some(seconds)
}

/// Render seconds-since-epoch back into `YYYY-MM-DD HH:MM:SS` (the inverse of
/// `parse_datetime_seconds`, used by the CSV writer and by `Display` paths).
pub fn format_datetime_seconds(secs: i64) -> String {
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    let hour = rem / 3_600;
    let minute = (rem % 3_600) / 60;
    let second = rem % 60;
    format!("{year:04}-{month:02}-{day:02} {hour:02}:{minute:02}:{second:02}")
}

/// Days from civil date (Howard Hinnant's algorithm), proleptic Gregorian calendar.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = (mp + 2) % 12 + 1;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell;

    #[test]
    fn names_round_trip() {
        for domain in Domain::ALL {
            assert_eq!(Domain::from_name(domain.name()), Some(domain));
        }
        assert_eq!(Domain::from_name("Object"), Some(Domain::Str));
        assert_eq!(Domain::from_name("int64"), Some(Domain::Int));
        assert_eq!(Domain::from_name("wat"), None);
    }

    #[test]
    fn parse_int_float_bool() {
        assert_eq!(Domain::Int.parse("42").unwrap(), cell(42));
        assert_eq!(Domain::Float.parse("2.5").unwrap(), cell(2.5));
        assert_eq!(Domain::Bool.parse("Yes").unwrap(), cell(true));
        assert_eq!(Domain::Bool.parse("0").unwrap(), cell(false));
        assert!(Domain::Int.parse("2.5").is_err());
        assert!(Domain::Bool.parse("maybe").is_err());
    }

    #[test]
    fn null_tokens_parse_to_null_in_every_domain() {
        for domain in [Domain::Int, Domain::Float, Domain::Bool, Domain::Str] {
            for token in ["", "NA", "NaN", "null", "None", " n/a "] {
                assert_eq!(
                    domain.parse(token).unwrap(),
                    Cell::Null,
                    "{domain} {token:?}"
                );
            }
        }
    }

    #[test]
    fn parse_string_is_identity_on_trimmed_input() {
        assert_eq!(Domain::Str.parse(" 12MP ").unwrap(), cell("12MP"));
        assert_eq!(Domain::Category.parse("Yes").unwrap(), cell("Yes"));
    }

    #[test]
    fn datetime_round_trip() {
        let secs = parse_datetime_seconds("2019-06-15 13:45:30").unwrap();
        assert_eq!(format_datetime_seconds(secs), "2019-06-15 13:45:30");
        assert_eq!(parse_datetime_seconds("1970-01-01").unwrap(), 0);
        assert_eq!(parse_datetime_seconds("1969-12-31"), Some(-86_400));
        assert!(parse_datetime_seconds("not-a-date").is_none());
        assert!(parse_datetime_seconds("2019-13-01").is_none());
    }

    #[test]
    fn datetime_domain_parses_to_epoch_int() {
        assert_eq!(
            Domain::DateTime.parse("1970-01-02").unwrap(),
            Cell::Int(86_400)
        );
    }

    #[test]
    fn coerce_widens_and_parses() {
        assert_eq!(Domain::Float.coerce(&cell(3)).unwrap(), cell(3.0));
        assert_eq!(Domain::Int.coerce(&cell(3.0)).unwrap(), cell(3));
        assert_eq!(Domain::Str.coerce(&cell(3)).unwrap(), cell("3"));
        assert_eq!(Domain::Int.coerce(&cell("7")).unwrap(), cell(7));
        assert_eq!(Domain::Bool.coerce(&cell(1)).unwrap(), cell(true));
        assert!(Domain::Int.coerce(&cell(2.5)).is_err());
    }

    #[test]
    fn unify_widens_towards_str() {
        assert_eq!(Domain::Int.unify(Domain::Float), Domain::Float);
        assert_eq!(Domain::Bool.unify(Domain::Int), Domain::Int);
        assert_eq!(Domain::Int.unify(Domain::Str), Domain::Str);
        assert_eq!(Domain::Category.unify(Domain::Str), Domain::Str);
        assert_eq!(Domain::Float.unify(Domain::Float), Domain::Float);
        assert_eq!(Domain::Composite.unify(Domain::Int), Domain::Composite);
    }

    #[test]
    fn numeric_classification() {
        assert!(Domain::Int.is_numeric());
        assert!(Domain::Float.is_numeric());
        assert!(Domain::Bool.is_numeric());
        assert!(!Domain::Str.is_numeric());
        assert!(!Domain::DateTime.is_numeric());
    }
}
