//! Scalar values and their types.
//!
//! The engine supports the four scalar types TPC-H needs: 64-bit integers,
//! 64-bit floats (used for DECIMAL, a documented approximation), dates
//! (stored as `i64` days since 1970-01-01) and UTF-8 strings. TPC-H contains
//! no NULLs, so the storage layer does not model them; this keeps every hot
//! path branch-free.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (also used for keys and flags).
    Int,
    /// 64-bit IEEE float (stand-in for TPC-H DECIMAL(15,2)).
    Float,
    /// Calendar date, physically `i64` days since 1970-01-01.
    Date,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Short lowercase name, used in error messages and schema dumps.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Date => "date",
            DataType::Str => "str",
        }
    }

    /// Whether values of this type are physically `i64`.
    pub fn is_integer_backed(self) -> bool {
        matches!(self, DataType::Int | DataType::Date)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An owned scalar value.
///
/// `Datum` is used at the *edges* of the system (predicates, dimension bin
/// boundaries, result rows); hot loops operate on typed column vectors
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Int(i64),
    Float(f64),
    Date(i64),
    Str(String),
}

impl Datum {
    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Datum::Int(_) => DataType::Int,
            Datum::Float(_) => DataType::Float,
            Datum::Date(_) => DataType::Date,
            Datum::Str(_) => DataType::Str,
        }
    }

    /// The `i64` payload of integer-backed values.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) | Datum::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// The `f64` payload; integers are widened so arithmetic expressions can
    /// mix the two.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) | Datum::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering across same-typed datums; integers and dates compare
    /// by value, floats by `total_cmp`, strings lexicographically.
    /// Cross-type comparisons order by type tag (they only occur in
    /// diagnostics, never in query execution).
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Int(a), Int(b)) | (Date(a), Date(b)) | (Int(a), Date(b)) | (Date(a), Int(b)) => {
                a.cmp(b)
            }
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Int(b)) | (Float(a), Date(b)) => a.total_cmp(&(*b as f64)),
            (Int(a), Float(b)) | (Date(a), Float(b)) => (*a as f64).total_cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(d: &Datum) -> u8 {
    match d {
        Datum::Int(_) => 0,
        Datum::Float(_) => 1,
        Datum::Date(_) => 2,
        Datum::Str(_) => 3,
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v:.2}"),
            Datum::Date(v) => write!(f, "{}", format_date(*v)),
            Datum::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_string())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(v)
    }
}

// ---------------------------------------------------------------------------
// Date arithmetic (proleptic Gregorian, civil-days algorithm).
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for a calendar date. Implements the standard
/// "days from civil" conversion (Howard Hinnant's algorithm), valid across
/// the whole TPC-H date range (1992..1999).
pub fn date_to_days(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`date_to_days`]: `(year, month, day)` for a day count.
pub fn days_to_date(days: i64) -> (i64, u32, u32) {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// `YYYY-MM-DD` rendering of a day count.
pub fn format_date(days: i64) -> String {
    let (y, m, d) = days_to_date(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parse `YYYY-MM-DD` into a day count.
///
/// Returns [`StorageError::InvalidDate`](crate::StorageError::InvalidDate)
/// (carrying the input) on anything malformed: missing parts, non-digits,
/// or a calendar-invalid date like `1993-02-30` (checked by round-tripping
/// through [`days_to_date`]).
pub fn parse_date(s: &str) -> crate::error::Result<i64> {
    let bad = || crate::error::StorageError::InvalidDate(s.to_string());
    let mut parts = s.splitn(3, '-');
    let mut next = || parts.next().ok_or_else(bad);
    let y: i64 = next()?.parse().map_err(|_| bad())?;
    let m: u32 = next()?.parse().map_err(|_| bad())?;
    let d: u32 = next()?.parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    let days = date_to_days(y, m, d);
    // Out-of-calendar days (Feb 30, Apr 31) normalize under the civil-days
    // conversion; a round-trip mismatch means the input was not a real date.
    if days_to_date(days) != (y, m, d) {
        return Err(bad());
    }
    Ok(days)
}

/// The calendar year of a day count (`EXTRACT(YEAR FROM ...)`).
pub fn year_of(days: i64) -> i64 {
    days_to_date(days).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(date_to_days(1970, 1, 1), 0);
        assert_eq!(days_to_date(0), (1970, 1, 1));
    }

    #[test]
    fn known_tpch_dates_round_trip() {
        for (y, m, d) in [
            (1992, 1, 1),
            (1995, 3, 15),
            (1996, 12, 31),
            (1998, 12, 1),
            (2000, 2, 29), // leap day
        ] {
            let days = date_to_days(y, m, d);
            assert_eq!(days_to_date(days), (y, m, d), "{y}-{m}-{d}");
        }
    }

    #[test]
    fn dates_are_monotonic_across_year_boundary() {
        assert_eq!(date_to_days(1995, 1, 1) - date_to_days(1994, 12, 31), 1);
        // 1996 is a leap year.
        assert_eq!(date_to_days(1997, 1, 1) - date_to_days(1996, 1, 1), 366);
        assert_eq!(date_to_days(1996, 1, 1) - date_to_days(1995, 1, 1), 365);
    }

    #[test]
    fn parse_and_format_round_trip() {
        for s in ["1992-01-01", "1995-03-15", "1998-12-01"] {
            assert_eq!(format_date(parse_date(s).unwrap()), s);
        }
    }

    #[test]
    fn malformed_dates_are_typed_errors_not_panics() {
        for s in [
            "",
            "1995",
            "1995-03",
            "1995-3-",
            "not-a-date",
            "1995-03-15x",
            "1995-13-01", // month out of range
            "1995-00-10",
            "1995-02-30", // not a real calendar day
            "1995-04-31",
            "1995-06-00",
        ] {
            match parse_date(s) {
                Err(crate::error::StorageError::InvalidDate(got)) => assert_eq!(got, s),
                other => panic!("{s:?}: expected InvalidDate, got {other:?}"),
            }
        }
        // Leap-day handling stays exact: valid in 1996, invalid in 1995.
        assert!(parse_date("1996-02-29").is_ok());
        assert!(parse_date("1995-02-29").is_err());
    }

    #[test]
    fn year_extraction() {
        assert_eq!(year_of(parse_date("1995-06-17").unwrap()), 1995);
        assert_eq!(year_of(parse_date("1992-01-01").unwrap()), 1992);
    }

    #[test]
    fn datum_total_cmp_orders_values() {
        assert_eq!(Datum::Int(1).total_cmp(&Datum::Int(2)), Ordering::Less);
        assert_eq!(
            Datum::Str("apple".into()).total_cmp(&Datum::Str("banana".into())),
            Ordering::Less
        );
        assert_eq!(Datum::Float(1.5).total_cmp(&Datum::Int(1)), Ordering::Greater);
        assert_eq!(
            Datum::Date(parse_date("1995-01-01").unwrap())
                .total_cmp(&Datum::Date(parse_date("1994-01-01").unwrap())),
            Ordering::Greater
        );
    }

    #[test]
    fn datum_accessors() {
        assert_eq!(Datum::Int(7).as_int(), Some(7));
        assert_eq!(Datum::Date(3).as_int(), Some(3));
        assert_eq!(Datum::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Datum::Int(2).as_float(), Some(2.0));
        assert_eq!(Datum::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Datum::Str("x".into()).as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Int(42).to_string(), "42");
        assert_eq!(Datum::Float(1.0).to_string(), "1.00");
        assert_eq!(Datum::Date(parse_date("1996-05-02").unwrap()).to_string(), "1996-05-02");
    }
}
