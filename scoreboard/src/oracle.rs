//! The correctness oracle.
//!
//! Every operation's rows are compared with a reference computed once
//! per run: the 22 queries run serially on the Plain scheme, the spill
//! plans run unconstrained with spilling off. For the pinned scale factor
//! and seed the reference itself must match the committed `expected.txt`
//! (row counts and FNV-1a checksums), so an error all schemes share still
//! fails.

use crate::stats::fnv1a;

pub const PINNED_SF: f64 = 0.05;
pub const PINNED_SEED: u64 = 19_920_101;

const EXPECTED: &str = include_str!("../expected.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    /// Equal but for floats one unit apart in the sixth significant
    /// digit: two summation orders that rounded a tie differently.
    RoundingTie,
    Different,
}

/// The reference rows of one workload's operations, by operation index.
pub struct Oracle {
    pub labels: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Oracle {
    pub fn check(&self, op: usize, rows: &[String]) -> Verdict {
        let want = &self.rows[op];
        if want == rows {
            Verdict::Same
        } else if want.len() == rows.len() && want.iter().zip(rows).all(|(a, b)| row_close(a, b)) {
            Verdict::RoundingTie
        } else {
            Verdict::Different
        }
    }

    /// `expected.txt` lines for these reference rows.
    pub fn expected_lines(&self) -> Vec<String> {
        self.labels
            .iter()
            .zip(&self.rows)
            .map(|(label, rows)| format!("{label} {} {:016x}", rows.len(), fnv1a(rows)))
            .collect()
    }

    /// Compare the reference with `expected.txt`; one message per
    /// operation that differs or is missing. Empty off the pinned inputs.
    pub fn check_expected(&self, sf: f64, seed: u64) -> Vec<String> {
        if sf != PINNED_SF || seed != PINNED_SEED {
            return Vec::new();
        }
        self.expected_lines()
            .into_iter()
            .filter(|line| !EXPECTED.lines().any(|e| e.trim() == line))
            .map(|line| format!("reference differs from expected.txt: got `{line}`"))
            .collect()
    }
}

/// Two canonical rows equal field by field, floats within two units of
/// the sixth significant digit.
fn row_close(a: &str, b: &str) -> bool {
    let (fa, fb): (Vec<&str>, Vec<&str>) = (a.split('|').collect(), b.split('|').collect());
    fa.len() == fb.len()
        && fa.iter().zip(&fb).all(|(x, y)| {
            x == y
                || match (x.parse::<f64>(), y.parse::<f64>()) {
                    (Ok(p), Ok(q)) => (p - q).abs() <= 2e-5 * p.abs().max(q.abs()),
                    _ => false,
                }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_tie_is_not_a_difference() {
        let o = Oracle { labels: vec!["Q".into()], rows: vec![vec!["a|1.23456e3|7".into()]] };
        assert_eq!(o.check(0, &["a|1.23456e3|7".to_string()]), Verdict::Same);
        assert_eq!(o.check(0, &["a|1.23457e3|7".to_string()]), Verdict::RoundingTie);
        assert_eq!(o.check(0, &["a|1.23556e3|7".to_string()]), Verdict::Different);
        assert_eq!(o.check(0, &["b|1.23456e3|7".to_string()]), Verdict::Different);
        assert_eq!(o.check(0, &[]), Verdict::Different);
    }
}
